"""Linear feasibility for small dense systems: Ax = b, x >= 0.

Phase-1 simplex on the full tableau with Bland's anti-cycling rule. The
systems solved here are tiny (tens of rows and columns), so clarity wins
over sparse machinery. Redundant equality rows are harmless: their
artificial variables simply finish basic at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LPResult:
    """Outcome of one feasibility solve.

    ``x`` is a nonnegative witness when ``feasible`` is true, otherwise
    None. ``residual`` is the phase-1 optimum, the smallest attainable
    L1 violation of the constraints (an upper bound on it when pivoting
    stalls on sub-tolerance entries, which well-scaled systems never hit).
    """

    feasible: bool
    x: np.ndarray | None
    residual: float
    iterations: int


#: Most pivots one solve may take.
_MAX_PIVOTS = 10_000


def solve_equality_feasibility(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> LPResult:
    """Decide whether Ax = b admits a nonnegative solution.

    Minimizes the sum of artificial variables with Bland's rule (lowest
    eligible index enters; among minimum-ratio rows the one whose basic
    variable has the lowest index leaves), which guarantees termination.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"incompatible shapes: A {a.shape}, b {b.shape}")
    m, n = a.shape

    a = a.copy()
    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Tableau columns: n structural, m artificial, then the RHS.
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    # Reduced-cost row for minimizing the artificial sum; the last entry
    # tracks the negated objective.
    cost = np.concatenate([-a.sum(axis=0), np.zeros(m), [-b.sum()]])

    iterations = 0
    while iterations < _MAX_PIVOTS:
        entering = -1
        for j in range(n + m):
            if cost[j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:, entering]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            # Every pivot candidate is below tolerance, so the remaining
            # improvement is unresolvable at this precision; the residual
            # reached so far decides the verdict.
            break
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        near = rows[ratios <= best + 1e-12]
        leaving = min(near, key=lambda r: basis[r])
        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        # Rows with a zero factor are skipped, so no -0.0 entry turns to 0.0.
        rows = np.flatnonzero(tableau[:, entering])
        rows = rows[rows != leaving]
        tableau[rows] -= np.outer(tableau[rows, entering], tableau[leaving])
        cost -= cost[entering] * tableau[leaving]
        basis[leaving] = entering
        iterations += 1

    residual = float(-cost[-1])
    if residual > tol:
        return LPResult(feasible=False, x=None, residual=residual, iterations=iterations)

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tableau[row, -1]
    # Pivoting can leave harmless negative dust on basic variables.
    np.clip(x, 0.0, None, out=x)
    return LPResult(feasible=True, x=x, residual=residual, iterations=iterations)
