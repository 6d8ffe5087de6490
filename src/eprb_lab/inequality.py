"""CHSH combination: evaluation, closed forms, scans, and maximization.

The functional is ``S = e_ab + e_ab' + e_a'b' - e_a'b``. In sequential
mode it collapses to a single-product closed form over the three
difference angles ``(theta_ab, theta_aa', theta_bb')`` and never leaves
[-2, 2]. In EPRB mode, with an independent singlet correlator per pair,
it reaches 2*sqrt(2).

Angle-tuple conventions: sequential-mode functions take the three
difference angles in the order above; EPRB-mode functions take the four
absolute analyzer angles ``(a, a_prime, b, b_prime)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolationError,
    InvalidScenarioError,
    InvalidStepError,
)
from .quantum import TWO_PI, CorrelatorSet, Mode, canonical_angle

#: Largest |S| any joint distribution over the four outcomes allows.
CLASSICAL_BOUND = 2.0

#: Slack used when asserting the bound on floating-point values.
BOUND_TOL = 1e-9

#: Refuse scans whose cell count would exhaust memory.
_MAX_GRID_CELLS = 20_000_000

_N_ANGLES = {Mode.SEQUENTIAL: 3, Mode.EPRB: 4}


def chsh_value(correlators: CorrelatorSet) -> float:
    """Evaluate ``S = e_ab + e_ab' + e_a'b' - e_a'b``.

    :class:`CorrelatorSet` has already checked that each correlator is
    finite and lies in [-1, 1] within 1e-12.
    """
    return (
        correlators.e_ab
        + correlators.e_ab_prime
        + correlators.e_a_prime_b_prime
        - correlators.e_a_prime_b
    )


@dataclass(frozen=True)
class ChshReport:
    """One CHSH evaluation with its bound check."""

    correlators: CorrelatorSet
    s_value: float
    bound_satisfied: bool


def chsh_report(correlators: CorrelatorSet) -> ChshReport:
    s = chsh_value(correlators)
    return ChshReport(correlators, s, abs(s) <= CLASSICAL_BOUND + BOUND_TOL)


def chsh_sequential_closed(theta_ab, theta_aa_prime, theta_bb_prime):
    """Sequential-mode S as a function of the three difference angles.

    ``-cos(t_ab) * (1 + cos(t_bb') + cos(t_aa')*cos(t_bb') - cos(t_aa'))``.
    Accepts scalars or broadcasting arrays; scalars in, float out.
    """
    c_ab = np.cos(theta_ab)
    c_aa = np.cos(theta_aa_prime)
    c_bb = np.cos(theta_bb_prime)
    s = -c_ab * (1.0 + c_bb + c_aa * c_bb - c_aa)
    if np.ndim(s) == 0:
        return float(s)
    return s


def _s_sequential(x: np.ndarray) -> np.ndarray:
    return chsh_sequential_closed(x[..., 0], x[..., 1], x[..., 2])


def _grad_sequential(x: np.ndarray) -> np.ndarray:
    c0, s0 = np.cos(x[..., 0]), np.sin(x[..., 0])
    c1, s1 = np.cos(x[..., 1]), np.sin(x[..., 1])
    c2, s2 = np.cos(x[..., 2]), np.sin(x[..., 2])
    g = np.empty_like(x)
    g[..., 0] = s0 * (1.0 + c2 + c1 * c2 - c1)
    g[..., 1] = -c0 * s1 * (1.0 - c2)
    g[..., 2] = c0 * s2 * (1.0 + c1)
    return g

def _hess_sequential(x: np.ndarray) -> np.ndarray:
    c0, s0 = math.cos(x[0]), math.sin(x[0])
    c1, s1 = math.cos(x[1]), math.sin(x[1])
    c2, s2 = math.cos(x[2]), math.sin(x[2])
    h = np.empty((3, 3))
    h[0, 0] = c0 * (1.0 + c2 + c1 * c2 - c1)
    h[0, 1] = h[1, 0] = s0 * s1 * (1.0 - c2)
    h[0, 2] = h[2, 0] = -s0 * s2 * (1.0 + c1)
    h[1, 1] = -c0 * c1 * (1.0 - c2)
    h[1, 2] = h[2, 1] = -c0 * s1 * s2
    h[2, 2] = c0 * c2 * (1.0 + c1)
    return h


def _s_eprb(x: np.ndarray) -> np.ndarray:
    u1 = x[..., 0] - x[..., 2]  # a - b
    u2 = x[..., 0] - x[..., 3]  # a - b'
    u3 = x[..., 1] - x[..., 3]  # a' - b'
    u4 = x[..., 1] - x[..., 2]  # a' - b
    return -np.cos(u1) - np.cos(u2) - np.cos(u3) + np.cos(u4)


def _grad_eprb(x: np.ndarray) -> np.ndarray:
    su1 = np.sin(x[..., 0] - x[..., 2])
    su2 = np.sin(x[..., 0] - x[..., 3])
    su3 = np.sin(x[..., 1] - x[..., 3])
    su4 = np.sin(x[..., 1] - x[..., 2])
    g = np.empty_like(x)
    g[..., 0] = su1 + su2
    g[..., 1] = su3 - su4
    g[..., 2] = -su1 + su4
    g[..., 3] = -su2 - su3
    return g


def _hess_eprb(x: np.ndarray) -> np.ndarray:
    cu1 = math.cos(x[0] - x[2])
    cu2 = math.cos(x[0] - x[3])
    cu3 = math.cos(x[1] - x[3])
    cu4 = math.cos(x[1] - x[2])
    h = np.zeros((4, 4))
    h[0, 0] = cu1 + cu2
    h[0, 2] = h[2, 0] = -cu1
    h[0, 3] = h[3, 0] = -cu2
    h[1, 1] = cu3 - cu4
    h[1, 2] = h[2, 1] = cu4
    h[1, 3] = h[3, 1] = -cu3
    h[2, 2] = cu1 - cu4
    h[3, 3] = cu2 + cu3
    return h


_S_FUNCS = {Mode.SEQUENTIAL: _s_sequential, Mode.EPRB: _s_eprb}
_GRAD_FUNCS = {Mode.SEQUENTIAL: _grad_sequential, Mode.EPRB: _grad_eprb}
_HESS_FUNCS = {Mode.SEQUENTIAL: _hess_sequential, Mode.EPRB: _hess_eprb}


def _check_angles(mode: Mode, angles) -> np.ndarray:
    x = np.asarray(angles, dtype=float)
    expected = _N_ANGLES[mode]
    if x.shape != (expected,):
        raise InvalidScenarioError(
            f"{mode.value} mode takes {expected} angles, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidScenarioError(f"angles must be finite, got {angles!r}")
    return x


def chsh_gradient(mode: Mode, angles) -> np.ndarray:
    """Analytic partial derivatives of S at one angle tuple.

    Sequential mode differentiates the closed form with respect to the
    three difference angles; EPRB mode with respect to the four absolute
    angles.
    """
    x = _check_angles(mode, angles)
    return _GRAD_FUNCS[mode](x)


@dataclass(frozen=True)
class ScanReport:
    """Exhaustive grid evaluation of S.

    ``angles`` holds one row per cell in lexicographic enumeration order;
    ``argmax_angles`` is the lexicographically first cell whose |S| lies
    within 1e-9 of ``max_abs_s`` (float rounding can split cells that are
    equal in exact arithmetic).
    """

    mode: Mode
    step: float
    angles: np.ndarray
    s_values: np.ndarray
    max_abs_s: float
    argmax_angles: tuple[float, ...]

    @property
    def n_cells(self) -> int:
        return self.s_values.shape[0]


def _grid_axis(step: float) -> np.ndarray:
    if not (isinstance(step, (int, float)) and math.isfinite(step)) or step <= 0.0:
        raise InvalidStepError(f"grid step must be a positive angle, got {step!r}")
    if step > TWO_PI:
        raise InvalidStepError(f"grid step exceeds the full circle: {step!r}")
    n = int(math.ceil((TWO_PI - 1e-12) / step))
    return step * np.arange(n)


def scan_grid(mode: Mode, step: float) -> ScanReport:
    """Evaluate S on the full angle grid of the given step (radians).

    Each axis carries the multiples of ``step`` inside [0, 2*pi). In
    sequential mode the classical bound is asserted on every cell; a
    violation raises :class:`BoundViolationError` and signals a defect,
    not a property of the input.
    """
    axis = _grid_axis(step)
    k = _N_ANGLES[mode]
    if len(axis) ** k > _MAX_GRID_CELLS:
        raise InvalidStepError(
            f"step {step!r} yields {len(axis) ** k} cells; refusing grids "
            f"above {_MAX_GRID_CELLS}"
        )
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    angles = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    s_values = _S_FUNCS[mode](angles)
    abs_s = np.abs(s_values)
    max_abs = float(abs_s.max())
    if mode is Mode.SEQUENTIAL and max_abs > CLASSICAL_BOUND + BOUND_TOL:
        raise BoundViolationError(
            f"sequential closed form reached |S| = {max_abs!r}; this cannot "
            "happen in exact arithmetic and indicates a defect"
        )
    argmax_idx = int(np.flatnonzero(abs_s >= max_abs - 1e-9)[0])
    angles.setflags(write=False)
    s_values.setflags(write=False)
    return ScanReport(
        mode=mode,
        step=float(step),
        angles=angles,
        s_values=s_values,
        max_abs_s=max_abs,
        argmax_angles=tuple(float(v) for v in angles[argmax_idx]),
    )


@dataclass(frozen=True)
class OptimumReport:
    """Result of maximizing |S| over the mode's angle space.

    ``grad_norm`` is the 2-norm of the analytic gradient at the reported
    angles; ``converged`` records whether it reached ``tol``. ``s_value``
    is the signed S re-evaluated exactly at ``angles``.
    """

    mode: Mode
    angles: tuple[float, ...]
    s_value: float
    abs_s: float
    iterations: int
    grad_norm: float
    tol: float
    converged: bool


def _ascent(mode: Mode, starts: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized sign-aware gradient ascent on |S| from every start."""
    s_func, grad_func = _S_FUNCS[mode], _GRAD_FUNCS[mode]
    x = starts.copy()
    s0 = s_func(x)
    sgn = np.where(s0 >= 0.0, 1.0, -1.0)
    f = sgn * s0
    eta = np.full(x.shape[0], 0.25)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        g = sgn[:, None] * grad_func(x)
        candidate = x + eta[:, None] * g
        f_candidate = sgn * s_func(candidate)
        improved = f_candidate >= f
        x = np.where(improved[:, None], candidate, x)
        f = np.where(improved, f_candidate, f)
        eta = np.where(improved, np.minimum(eta * 1.3, 1.0), eta * 0.5)
        if float(np.max(eta * np.linalg.norm(g, axis=1))) < 1e-11:
            break
    return x, f, iterations


def _newton_polish(
    mode: Mode, x0: np.ndarray, sgn: float, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Drive the gradient to zero near a located maximum of sgn*S.

    Least-squares Newton steps tolerate the singular Hessian directions
    that flat ridges and the EPRB global-rotation symmetry produce. Steps
    that would lower the objective are halved away.
    """
    s_func, grad_func, hess_func = _S_FUNCS[mode], _GRAD_FUNCS[mode], _HESS_FUNCS[mode]
    x = x0.copy()
    f = sgn * float(s_func(x))
    iterations = 0
    for _ in range(max_iter):
        g = sgn * grad_func(x)
        if float(np.linalg.norm(g)) <= tol:
            break
        iterations += 1
        h = sgn * hess_func(x)
        delta = np.linalg.lstsq(h, -g, rcond=None)[0]
        accepted = False
        for _ in range(25):
            candidate = x + delta
            f_candidate = sgn * float(s_func(candidate))
            if f_candidate >= f - 1e-12:
                x, f = candidate, f_candidate
                accepted = True
                break
            delta = 0.5 * delta
        if not accepted:
            break
    return x, iterations


def maximize_chsh(
    mode: Mode,
    init_angles=None,
    tol: float = 1e-9,
    coarse_step: float = math.pi / 6.0,
    max_ascent: int = 250,
    max_newton: int = 100,
) -> OptimumReport:
    """Maximize |S| by multistart local ascent plus a Newton polish.

    Every cell of the coarse grid (plus ``init_angles`` when given) seeds
    a gradient ascent; the best endpoint is refined until the analytic
    gradient norm drops to ``tol``. Failure to reach ``tol`` within the
    iteration caps is reported via ``converged=False`` with the best
    point found.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol)) or tol <= 0.0:
        raise InvalidScenarioError(f"tolerance must be positive, got {tol!r}")
    axis = _grid_axis(coarse_step)
    k = _N_ANGLES[mode]
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    starts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    if init_angles is not None:
        starts = np.vstack([starts, _check_angles(mode, init_angles)])

    s_func, grad_func = _S_FUNCS[mode], _GRAD_FUNCS[mode]
    x_all, f_all, ascent_iters = _ascent(mode, starts, max_ascent)
    best = int(np.argmax(f_all))
    x = x_all[best]
    sgn = 1.0 if float(s_func(x)) >= 0.0 else -1.0

    x, newton_iters = _newton_polish(mode, x, sgn, tol, max_newton)

    x = np.array([canonical_angle(float(v)) for v in x])
    s = float(s_func(x))
    grad_norm = float(np.linalg.norm(grad_func(x)))
    return OptimumReport(
        mode=mode,
        angles=tuple(float(v) for v in x),
        s_value=s,
        abs_s=abs(s),
        iterations=ascent_iters + newton_iters,
        grad_norm=grad_norm,
        tol=float(tol),
        converged=grad_norm <= tol,
    )
