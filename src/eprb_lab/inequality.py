"""CHSH combination: evaluation, closed forms, scans, and maximization.

The functional is ``S = e_ab + e_ab' + e_a'b' - e_a'b``. In sequential
mode it collapses to a single-product closed form over the three
difference angles ``(theta_ab, theta_aa', theta_bb')`` and never leaves
[-2, 2]. In EPRB mode, with an independent singlet correlator per pair,
it reaches 2*sqrt(2).

Angle-tuple conventions (``ANGLE_NAMES``): sequential-mode functions take
the three difference angles in the order above; EPRB-mode functions take
the four absolute analyzer angles ``(a, a_prime, b, b_prime)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolationError,
    InvalidScenarioError,
    InvalidStepError,
    quoted,
    real,
    sequence,
    three_digits,
)
from .quantum import SETTINGS, TWO_PI, CorrelatorSet, Mode, canonical_angle

#: Largest |S| any joint distribution over the four outcomes allows.
CLASSICAL_BOUND = 2.0

#: Slack used when asserting the bound on floating-point values.
BOUND_TOL = 1e-9

#: Refuse scans whose cell count would exhaust memory.
_MAX_GRID_CELLS = 20_000_000

#: The angles S takes in each mode, in angle-tuple order, as the names of
#: the ``Scenario`` attributes that hold them.
ANGLE_NAMES = {
    Mode.SEQUENTIAL: ("theta_ab", "theta_aa_prime", "theta_bb_prime"),
    Mode.EPRB: SETTINGS,
}

#: The largest |S| in each mode. Both are attained, so each is the exact
#: maximum that ``maximize_chsh`` certifies.
#:
#: Sequential: with ``c_xy = cos(theta_xy)``,
#: ``|S| = |c_ab| * |(1 + c_bb') + c_aa' * (c_bb' - 1)|``. The second factor
#: is affine in ``c_aa'``, with the values 2 and ``2 * c_bb'`` at
#: ``c_aa' = -1`` and 1, so it lies in [-2, 2] and ``|S| <= 2 * |c_ab| <= 2``.
#: All three angles 0 give ``S = -2``.
#:
#: EPRB: ``S = -Re((e^{ia} - e^{ia'}) e^{-ib}) - Re((e^{ia} + e^{ia'}) e^{-ib'})``,
#: so ``|S| <= |e^{ia} - e^{ia'}| + |e^{ia} + e^{ia'}| = 2 (|sin d| + |cos d|)``
#: with ``d = (a - a')/2``, which is at most ``2 * sqrt(2)``. Equality holds
#: exactly when ``a' - a = +-pi/2`` and b, b' are the arguments that
#: ``_project_eprb`` sets. This is Tsirelson's bound (Lett. Math. Phys. 4,
#: 93, 1980).
CHSH_BOUNDS = {Mode.SEQUENTIAL: CLASSICAL_BOUND, Mode.EPRB: 2.0 * math.sqrt(2.0)}

#: The gradient norm at which ``maximize_chsh`` counts its optimum as
#: converged.
_GRAD_TOL = 1e-9


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


def _grad_sequential(x: np.ndarray) -> np.ndarray:
    c0, s0 = np.cos(x[0]), np.sin(x[0])
    c1, s1 = np.cos(x[1]), np.sin(x[1])
    c2, s2 = np.cos(x[2]), np.sin(x[2])
    g = np.empty_like(x)
    g[0] = s0 * (1.0 + c2 + c1 * c2 - c1)
    g[1] = -c0 * s1 * (1.0 - c2)
    g[2] = c0 * s2 * (1.0 + c1)
    return g


def _chsh_eprb(a, a_prime, b, b_prime):
    """EPRB-mode S from the four absolute angles; broadcasts."""
    return -np.cos(a - b) - np.cos(a - b_prime) - np.cos(a_prime - b_prime) + np.cos(a_prime - b)


def _grad_eprb(x: np.ndarray) -> np.ndarray:
    su1 = np.sin(x[0] - x[2])
    su2 = np.sin(x[0] - x[3])
    su3 = np.sin(x[1] - x[3])
    su4 = np.sin(x[1] - x[2])
    g = np.empty_like(x)
    g[0] = su1 + su2
    g[1] = su3 - su4
    g[2] = -su1 + su4
    g[3] = -su2 - su3
    return g


#: S from one broadcasting array per angle. The gradient takes one array
#: whose leading axis runs over the angles.
_S_FUNCS = {Mode.SEQUENTIAL: chsh_sequential_closed, Mode.EPRB: _chsh_eprb}
_GRAD_FUNCS = {Mode.SEQUENTIAL: _grad_sequential, Mode.EPRB: _grad_eprb}


def _n_angles(mode: Mode) -> int:
    """How many angles S takes in ``mode``, which must be a :class:`Mode`."""
    if not isinstance(mode, Mode):
        raise InvalidScenarioError(f"mode must be a Mode, got {quoted(mode)}")
    return len(ANGLE_NAMES[mode])


def _check_angles(mode: Mode, angles) -> np.ndarray:
    angles = sequence(angles, "angles", InvalidScenarioError, _n_angles(mode))
    return np.array([real(v, "angle", InvalidScenarioError) for v in angles])


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

    The grid is ``axis`` (read-only) on each of the mode's angles; cells
    are enumerated lexicographically, the last angle fastest, and
    ``s_values`` holds S per cell in that order. ``argmax_angles`` is the
    lexicographically first cell whose |S| lies within 1e-9 of
    ``max_abs_s`` (float rounding can split cells that are equal in exact
    arithmetic).
    """

    mode: Mode
    step: float
    axis: np.ndarray
    s_values: np.ndarray
    max_abs_s: float
    argmax_angles: tuple[float, ...]

    @property
    def n_cells(self) -> int:
        return self.s_values.shape[0]


def _grid_axis(step: float, k: int) -> np.ndarray:
    """The multiples of ``step`` inside [0, 2*pi), one axis of a k-axis grid.

    The grid's cell count is checked before the axis is built.
    """
    if real(step, "grid step", InvalidStepError) <= 0.0:
        raise InvalidStepError(f"grid step must be a positive angle, got {step!r}")
    if step > TWO_PI:
        raise InvalidStepError(f"grid step exceeds the full circle: {step!r}")
    n = (TWO_PI - 1e-12) / step  # inf for subnormal steps
    cells = math.ceil(n) ** k if math.isfinite(n) else math.inf
    if cells > _MAX_GRID_CELLS:
        raise InvalidStepError(
            f"step {step!r} rad ({math.degrees(step):.6g} deg) yields "
            f"{three_digits(cells)} cells; refusing grids above {_MAX_GRID_CELLS}"
        )
    return step * np.arange(math.ceil(n))


def _eprb_grid(axis: np.ndarray) -> np.ndarray:
    """``_chsh_eprb`` on every cell of the grid of ``axis``, shape (n, n, n*n).

    Each of the four terms is an entry of one table, ``cos(x - y)`` over
    the axis. They are added in ``_chsh_eprb``'s order, so every cell is
    bit-equal to it. The two terms in a' are laid out as (a', (b, b'))
    tables, so the last two steps write one array in contiguous rows of
    n*n cells.
    """
    n = axis.shape[0]
    c = np.cos(axis[:, None] - axis)
    w = (-c[:, :, None] - c[:, None, :]).reshape(n, 1, n * n)  # -cos(a-b) - cos(a-b')
    s = np.empty((n, n, n * n))
    np.subtract(w, np.tile(c, n), out=s)  # - cos(a'-b')
    s += np.repeat(c, n, axis=1)  # + cos(a'-b)
    return s


def scan_grid(mode: Mode, step: float) -> ScanReport:
    """Evaluate S on the full angle grid of the given step (radians).

    Each axis carries the multiples of ``step`` inside [0, 2*pi). S is
    written into one array of a cell each, by broadcasting over one axis
    per angle, so no array of angle tuples is built; the peak memory is
    close to ``s_values`` itself. Its max |S| and argmax are reduced row
    by row, one row per value of the first angle. In sequential mode the
    classical bound is asserted on every cell; a violation raises
    :class:`BoundViolationError` and signals a defect, not a property of
    the input.
    """
    k = _n_angles(mode)
    axis = _grid_axis(step, k)
    if mode is Mode.EPRB:
        s_values = _eprb_grid(axis).reshape(-1)
    else:
        mesh = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
        s_values = chsh_sequential_closed(*mesh).reshape(-1)
    n = axis.shape[0]
    rows = s_values.reshape(n, -1)
    hi, lo = rows.max(axis=1), rows.min(axis=1)
    max_abs = float(max(hi.max(), -lo.min()))
    if mode is Mode.SEQUENTIAL and max_abs > CLASSICAL_BOUND + BOUND_TOL:
        raise BoundViolationError(
            f"sequential closed form reached |S| = {max_abs!r}; this cannot "
            "happen in exact arithmetic and indicates a defect"
        )
    # The first cell within 1e-9 of max |S| lies in the first row that has one.
    near = max_abs - 1e-9
    r = int(np.argmax((hi >= near) | (lo <= -near)))
    row = rows[r]
    argmax_idx = r * row.shape[0] + int(np.argmax((row >= near) | (row <= -near)))
    axis.setflags(write=False)
    s_values.setflags(write=False)
    return ScanReport(
        mode=mode,
        step=float(step),
        axis=axis,
        s_values=s_values,
        max_abs_s=max_abs,
        argmax_angles=tuple(float(axis[i]) for i in np.unravel_index(argmax_idx, (n,) * k)),
    )


@dataclass(frozen=True)
class OptimumReport:
    """The maximum of |S| over the mode's angle space.

    ``grad_norm`` is the 2-norm of the analytic gradient at the reported
    angles; ``converged`` records whether it is at most 1e-9. ``s_value``
    is the signed S evaluated at ``angles``. ``iterations`` is always 0:
    the optimum is computed in closed form, and the field stays so that
    the ``chsh-max`` CSV keeps its columns.
    """

    mode: Mode
    angles: tuple[float, ...]
    s_value: float
    abs_s: float
    iterations: int
    grad_norm: float
    converged: bool


def _project_eprb(x: np.ndarray, sgn: float) -> np.ndarray:
    """The EPRB maximum of sgn*S that keeps ``a`` and lies nearest in ``a'``.

    ``a'`` moves to whichever of ``a +- pi/2`` is nearer to it on the circle;
    b and b' then take the closed-form arguments of ``CHSH_BOUNDS``, so
    sgn*S is ``2*sqrt(2)``.
    """
    a = float(x[0])
    a_prime = a + math.copysign(math.pi / 2.0, math.pi - (x[1] - a) % TWO_PI)
    cos_a, sin_a = math.cos(a), math.sin(a)
    cos_a_prime, sin_a_prime = math.cos(a_prime), math.sin(a_prime)
    # The arguments of sgn * (e^{ia'} - e^{ia}) and -sgn * (e^{ia} + e^{ia'}).
    b = math.atan2(sgn * (sin_a_prime - sin_a), sgn * (cos_a_prime - cos_a))
    b_prime = math.atan2(-sgn * (sin_a + sin_a_prime), -sgn * (cos_a + cos_a_prime))
    return np.array([a, a_prime, b, b_prime])


def maximize_chsh(mode: Mode, init_angles=None) -> OptimumReport:
    """Report the exact maximum of |S| that ``CHSH_BOUNDS`` certifies.

    No search runs, so ``iterations`` is always 0. Sequential mode checks
    ``init_angles`` and reports (0, 0, 0), where S = -2 exactly. EPRB mode
    reduces ``init_angles`` (zeros when None) with ``canonical_angle`` and
    projects them onto the maximum that keeps their ``a``, lies nearest
    their ``a'`` and has the sign of S there (+ when S is 0). ``converged``
    records whether the analytic gradient norm at the reported angles is
    at most 1e-9.
    """
    x = np.zeros(_n_angles(mode))
    init = x if init_angles is None else _check_angles(mode, init_angles)
    if mode is Mode.EPRB:
        # Reduced first, so that a +- pi/2 cannot round back to a huge a.
        init = np.array([canonical_angle(float(v)) for v in init])
        x = _project_eprb(init, 1.0 if float(_chsh_eprb(*init)) >= 0.0 else -1.0)

    x = np.array([canonical_angle(float(v)) for v in x])
    s = float(_S_FUNCS[mode](*x))
    grad_norm = float(np.linalg.norm(_GRAD_FUNCS[mode](x)))
    return OptimumReport(
        mode=mode,
        angles=tuple(float(v) for v in x),
        s_value=s,
        abs_s=abs(s),
        iterations=0,
        grad_norm=grad_norm,
        converged=grad_norm <= _GRAD_TOL,
    )
