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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

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

__all__ = [
    "BOUND_TOL", "CHSH_BOUNDS", "CLASSICAL_BOUND", "ChshReport", "OptimumReport", "ScanReport",
    "chsh_gradient", "chsh_report", "chsh_sequential_closed", "chsh_value", "maximize_chsh",
    "scan_grid",
]

#: Largest |S| any joint distribution over the four outcomes allows.
CLASSICAL_BOUND = 2.0

#: Slack on |S| <= 2 in floats, and so on what Fine's test reads (hvm, linfeas).
BOUND_TOL = 1e-9

#: Refuse scans whose cell count would exhaust memory.
_MAX_GRID_CELLS = 20_000_000

#: A multiple of a grid step this close below 2*pi is 2*pi, so no axis point.
_AXIS_END_TOL = 1e-12

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
    finite and lies in [-1, 1] within ``quantum._PROB_TOL``.
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
    s = -np.cos(theta_ab) * _factor(np.cos(theta_aa_prime), np.cos(theta_bb_prime))
    if np.ndim(s) == 0:
        return float(s)
    return s


def _factor(c_aa, c_bb):
    """The sequential closed form's second factor, ``S = -c_ab * F``:
    ``F = 1 + c_bb' + c_aa'*c_bb' - c_aa'``, in that order of operations."""
    return 1.0 + c_bb + c_aa * c_bb - c_aa


def _grad_sequential(x: np.ndarray) -> np.ndarray:
    c0, s0 = np.cos(x[0]), np.sin(x[0])
    c1, s1 = np.cos(x[1]), np.sin(x[1])
    c2, s2 = np.cos(x[2]), np.sin(x[2])
    g = np.empty_like(x)
    g[0] = s0 * _factor(c1, c2)
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


#: Slab i of a scan as ``(values, index)``: its S in cell order is
#: ``values[index]``.
_Slab = Callable[[int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ScanReport:
    """Exhaustive grid evaluation of S.

    The grid is ``axis`` (read-only) on each of the mode's angles; cells
    are enumerated lexicographically, the last angle fastest. A slab is
    the cells that share one value of the first angle, and ``_slab(i)``
    gives slab i's S as ``(values, index)``, S being ``values[index]`` in
    cell order: the render formats each of ``values`` once. No array of
    every cell's S is kept: a slab is computed from small tables when it is
    asked for. ``argmax_angles`` is the lexicographically first cell whose
    |S| lies within ``BOUND_TOL`` of ``max_abs_s`` (float rounding can
    split cells that are equal in exact arithmetic).
    """

    mode: Mode
    axis: np.ndarray
    max_abs_s: float
    argmax_angles: tuple[float, ...]
    _slab: _Slab = field(repr=False, compare=False)

    @property
    def n_cells(self) -> int:
        return self.axis.shape[0] ** len(ANGLE_NAMES[self.mode])


def _grid_axis(step: float, k: int) -> np.ndarray:
    """The multiples of ``step`` inside [0, 2*pi), one axis of a k-axis grid.

    The grid's cell count is checked before the axis is built.
    """
    if real(step, "grid step", InvalidStepError) <= 0.0:
        raise InvalidStepError(f"grid step must be a positive angle, got {step!r}")
    if step > TWO_PI:
        raise InvalidStepError(f"grid step exceeds the full circle: {step!r}")
    n = (TWO_PI - _AXIS_END_TOL) / step  # inf for subnormal steps
    cells = math.ceil(n) ** k if math.isfinite(n) else math.inf
    if cells > _MAX_GRID_CELLS:
        raise InvalidStepError(
            f"step {step!r} rad ({math.degrees(step):.6g} deg) yields "
            f"{three_digits(cells)} cells; refusing grids above {_MAX_GRID_CELLS}"
        )
    return step * np.arange(math.ceil(n))


#: A mode's grid as ``scan_grid`` reads it: ``(ends, cells, slab)``. Row i
#: of ``ends`` holds slab i's largest and smallest S, ``cells(i)`` is slab
#: i's S in cell order, and ``slab`` is the report's accessor.
_Grid = tuple[np.ndarray, Callable[[int], np.ndarray], _Slab]


def _eprb_slabs(axis: np.ndarray) -> _Grid:
    """The EPRB grid from tables of ``c = cos(x - y)`` over the axis.

    ``cells`` adds the four terms, each an entry of ``c``, in
    ``_chsh_eprb``'s order, so every cell is bit-equal to it. The terms in
    a' are (a', (b, b')) tables of n^3 values, so a slab is one array
    written in contiguous rows of n*n cells; its values are its distinct S
    (``np.unique``). The extremes come from every slab written at once, the
    scan's only n^4 array, dropped before this returns. Reduced a slab at a
    time, the benchmark's ``scan-json`` peak RSS rose by 11%: a process
    that has freed no mapped block that large lets glibc's dynamic mmap
    threshold leave a report checker's later full-size temporaries on the heap.
    """
    n = axis.shape[0]
    c = np.cos(axis[:, None] - axis)
    w = (-c[:, :, None] - c[:, None, :]).reshape(n, 1, n * n)  # -cos(a-b) - cos(a-b')
    tile, rep = np.tile(c, n), np.repeat(c, n, axis=1)

    def cells(i) -> np.ndarray:  # slab i's S; every slab's for i = slice(None)
        s = np.subtract(w[i], tile)  # - cos(a'-b')
        s += rep  # + cos(a'-b)
        return s.reshape(-1)

    full = cells(slice(None)).reshape(n, -1)
    ends = np.stack([full.max(axis=1), full.min(axis=1)], axis=1)
    del full
    return ends, cells, lambda i: np.unique(cells(i), return_inverse=True)


def _sequential_slabs(axis: np.ndarray) -> _Grid:
    """The sequential grid as ``-c_ab[i] * F``, ``F`` one (aa', bb') table.

    Every slab multiplies the same ``F`` (``_factor``) by its own
    ``m = -c_ab[i]``, as ``chsh_sequential_closed`` does, so no slab is
    stored. Rounded multiplication is monotone, so the slab's extremes are
    exactly ``fl(m * min F)`` and ``fl(m * max F)``, in the order of m's
    sign. A slab's values are ``m * np.unique(F)``, the table's distinct
    values found once, on first use.
    """
    c = np.cos(axis)
    m = -c
    f = _factor(c[:, None], c).reshape(-1)
    ends = m[:, None] * np.array([f.min(), f.max()])
    distinct = functools.cache(lambda: np.unique(f, return_inverse=True))

    def slab(i: int) -> tuple[np.ndarray, np.ndarray]:
        values, index = distinct()
        return m[i] * values, index

    return ends, lambda i: m[i] * f, slab


def scan_grid(mode: Mode, step: float) -> ScanReport:
    """Evaluate S on the full angle grid of the given step (radians).

    Each axis carries the multiples of ``step`` inside [0, 2*pi). Max |S|
    is reduced from each slab's largest and smallest S, and the argmax is
    sought only in the first slab that reaches it; no array of angle
    tuples is built. The report's ``_slab`` gives each slab's S to the
    render.

    - Sequential mode evaluates the closed form as ``-c_ab * F``
      (``_sequential_slabs``) and builds no array of every cell's S, so
      its memory is a few n-by-n tables whatever the grid. Its slab
      extremes are exact, so the classical bound is asserted on every
      cell; a violation raises :class:`BoundViolationError` and signals a
      defect, not a property of the input.
    - EPRB mode sums four entries of cosine tables (``_eprb_slabs``). Its
      slab extremes come from one array of every cell's S, dropped before
      the report is built, so its peak memory is close to that array
      while the report holds tables of n^3 values.
    """
    k = _n_angles(mode)
    axis = _grid_axis(step, k)
    ends, cells, slab = (_eprb_slabs if mode is Mode.EPRB else _sequential_slabs)(axis)
    hi, lo = ends.max(axis=1), ends.min(axis=1)
    max_abs = float(max(hi.max(), -lo.min()))
    if mode is Mode.SEQUENTIAL and max_abs > CLASSICAL_BOUND + BOUND_TOL:
        raise BoundViolationError(
            f"sequential closed form reached |S| = {max_abs!r}; this cannot "
            "happen in exact arithmetic and indicates a defect"
        )
    # The first cell within BOUND_TOL of max |S| lies in the first slab that has one.
    near = max_abs - BOUND_TOL
    r = int(np.argmax((hi >= near) | (lo <= -near)))
    row = cells(r)
    argmax_idx = r * row.shape[0] + int(np.argmax((row >= near) | (row <= -near)))
    axis.setflags(write=False)
    n = axis.shape[0]
    return ScanReport(
        mode=mode,
        axis=axis,
        max_abs_s=max_abs,
        argmax_angles=tuple(float(axis[i]) for i in np.unravel_index(argmax_idx, (n,) * k)),
        _slab=slab,
    )


@dataclass(frozen=True)
class OptimumReport:
    """The maximum of |S| over the mode's angle space.

    ``grad_norm`` is the 2-norm of the analytic gradient at the reported
    angles; ``converged`` records whether it is at most ``_GRAD_TOL``.
    ``s_value`` is the signed S evaluated at ``angles``. ``iterations`` is
    always 0: the optimum is computed in closed form, and the field stays
    so that the ``chsh-max`` CSV keeps its columns.
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
    at most ``_GRAD_TOL``.
    """
    x = np.zeros(_n_angles(mode))
    init = x if init_angles is None else _check_angles(mode, init_angles)
    if mode is Mode.EPRB:
        # Reduced first, so that a +- pi/2 cannot round back to a huge a.
        init = np.array([canonical_angle(float(v)) for v in init])
        x = _project_eprb(init, 1.0 if float(_chsh_eprb(*init)) >= 0.0 else -1.0)

    x = np.array([canonical_angle(float(v)) for v in x])
    s = float(_S_FUNCS[mode](*x))
    grad_norm = math.hypot(*_GRAD_FUNCS[mode](x))
    return OptimumReport(
        mode=mode,
        angles=tuple(float(v) for v in x),
        s_value=s,
        abs_s=abs(s),
        iterations=0,
        grad_norm=grad_norm,
        converged=grad_norm <= _GRAD_TOL,
    )
