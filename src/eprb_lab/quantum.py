"""Exact spin statistics for a two-time, four-analyzer EPRB-type run.

A spin-zero source emits two spin-1/2 particles. Particle 1 meets
Stern-Gerlach analyzers along direction ``a`` at the first time step and
along ``a_prime`` at the second; particle 2 meets ``b`` and then
``b_prime``. All analyzer directions lie in a single plane and are given
as polar angles in radians. Outcomes are +1 or -1 (units of hbar/2),
labelled ``(A1, B1, A2, B2)`` for (particle 1 early, particle 2 early,
particle 1 late, particle 2 late).

Conventions shared by the whole package:

- One-qubit basis order is ``(|z+>, |z->)``; the two-qubit product basis
  order is ``(++, +-, -+, --)``.
- Outcome signs are the plain integers ``+1`` and ``-1``. Wherever
  outcomes index an array, ``+1`` comes first.
- ``QUADRUPLES`` lists the 16 outcome quadruples ``(A1, B1, A2, B2)`` in
  canonical order: lexicographic with ``+1`` before ``-1``.
- ``Mode.SEQUENTIAL`` is the genuine two-time run, for which a joint
  distribution over all four outcomes exists and is produced by
  :func:`grand_joint_quantum`. ``Mode.EPRB`` is the coincident-time limit,
  where only pairwise statistics are defined and correlators come from
  :func:`closed_form_correlators`.
- Angles are radians everywhere inside the package; degrees appear only
  at the command-line boundary.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CorrelatorRangeError,
    DistributionError,
    InvalidScenarioError,
    UnknownPairError,
)

TWO_PI = 2.0 * math.pi

SIGNS: tuple[int, int] = (1, -1)

SIGN_PAIRS: tuple[tuple[int, int], ...] = tuple(itertools.product(SIGNS, repeat=2))

#: Index of a sign pair in the canonical (+1 before -1) order.
PAIR_INDEX: dict[tuple[int, int], int] = {p: i for i, p in enumerate(SIGN_PAIRS)}

OBSERVABLES: tuple[str, str, str, str] = ("A1", "B1", "A2", "B2")

_OBS_SLOT: dict[str, int] = {name: i for i, name in enumerate(OBSERVABLES)}

#: The four cross-particle pairs in correlator order, keyed by the suffix
#: of their correlator name (``ab`` gives ``e_ab``).
CROSS_PAIRS: dict[str, tuple[str, str]] = {
    "ab": ("A1", "B1"),
    "ab_prime": ("A1", "B2"),
    "a_prime_b": ("A2", "B1"),
    "a_prime_b_prime": ("A2", "B2"),
}

#: Positions of each cross pair's two observables in an outcome quadruple.
PAIR_SLOTS: dict[str, tuple[int, int]] = {
    name: (_OBS_SLOT[first], _OBS_SLOT[second]) for name, (first, second) in CROSS_PAIRS.items()
}


class OutcomeQuadruple(NamedTuple):
    """One joint outcome of the four measurements, each +1 or -1."""

    a1: int
    b1: int
    a2: int
    b2: int


QUADRUPLES: tuple[OutcomeQuadruple, ...] = tuple(
    OutcomeQuadruple(*signs) for signs in itertools.product(SIGNS, repeat=4)
)

_QUAD_INDEX: dict[OutcomeQuadruple, int] = {q: i for i, q in enumerate(QUADRUPLES)}


class Mode(enum.Enum):
    """Which statistics a scenario defines.

    SEQUENTIAL is the two-time run (both analyzers fire on each side);
    EPRB is the coincident-time limit with one analyzer per side at a
    time, where no joint distribution over all four outcomes is implied.
    """

    SEQUENTIAL = "sequential"
    EPRB = "eprb"


def canonical_angle(value: float) -> float:
    """Reduce an angle in radians to the canonical range [0, 2*pi).

    Idempotent: a value already in range is returned bit-exactly, except
    -0.0, which becomes 0.0 so that one angle has one representation.
    """
    if not math.isfinite(value):
        raise InvalidScenarioError(f"angle must be finite, got {value!r}")
    reduced = math.fmod(value, TWO_PI)
    if reduced < 0.0:
        reduced += TWO_PI
    # fmod of a tiny negative can land exactly on 2*pi after the shift.
    if reduced >= TWO_PI:
        reduced = 0.0
    return reduced + 0.0  # adding 0.0 turns -0.0 into 0.0


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise InvalidScenarioError(f"outcome sign must be +1 or -1, got {sign!r}")


@dataclass(frozen=True)
class Scenario:
    """Analyzer directions for one run, reduced to [0, 2*pi).

    ``a`` and ``a_prime`` act on particle 1, ``b`` and ``b_prime`` on
    particle 2. Only difference angles enter any statistic, so the
    canonical reduction never changes a result beyond float rounding.
    """

    a: float
    a_prime: float
    b: float
    b_prime: float
    mode: Mode = Mode.SEQUENTIAL

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise InvalidScenarioError(f"mode must be a Mode, got {self.mode!r}")
        for name in ("a", "a_prime", "b", "b_prime"):
            raw = getattr(self, name)
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise InvalidScenarioError(f"angle {name} must be a number, got {raw!r}")
            try:
                value = float(raw)
            except OverflowError:  # an int beyond the float range
                raise InvalidScenarioError(f"angle {name} lies beyond the float range") from None
            object.__setattr__(self, name, canonical_angle(value))

    @property
    def theta_ab(self) -> float:
        return self.a - self.b

    @property
    def theta_ab_prime(self) -> float:
        return self.a - self.b_prime

    @property
    def theta_a_prime_b(self) -> float:
        return self.a_prime - self.b

    @property
    def theta_a_prime_b_prime(self) -> float:
        return self.a_prime - self.b_prime

    @property
    def theta_aa_prime(self) -> float:
        return self.a - self.a_prime

    @property
    def theta_bb_prime(self) -> float:
        return self.b - self.b_prime


def make_spin_state(angle: float, sign: int) -> np.ndarray:
    """Eigenstate of the spin component along a coplanar direction.

    Returns the two complex amplitudes in the ``(|z+>, |z->)`` basis:
    ``(cos(angle/2), sin(angle/2))`` for outcome ``+1`` and
    ``(-sin(angle/2), cos(angle/2))`` for outcome ``-1``.
    """
    _check_sign(sign)
    if not math.isfinite(angle):
        raise InvalidScenarioError(f"angle must be finite, got {angle!r}")
    half = 0.5 * angle
    if sign == 1:
        return np.array([math.cos(half), math.sin(half)], dtype=complex)
    return np.array([-math.sin(half), math.cos(half)], dtype=complex)


def make_singlet() -> np.ndarray:
    """Normalized two-particle singlet in the ``(++, +-, -+, --)`` basis."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return np.array([0.0, inv_sqrt2, -inv_sqrt2, 0.0], dtype=complex)


def transition_prob(m_from: float, s_from: int, m_to: float, s_to: int) -> float:
    """Probability that a particle leaving analyzer ``m_from`` with outcome
    ``s_from`` yields outcome ``s_to`` at analyzer ``m_to``.

    Computed as the squared inner product of the two eigenstates; equal to
    ``(1 + s_from*s_to*cos(m_from - m_to)) / 2``.
    """
    amp = np.vdot(make_spin_state(m_from, s_from), make_spin_state(m_to, s_to))
    return float(abs(amp) ** 2)


@dataclass(frozen=True)
class GrandJointDistribution:
    """Joint distribution over the 16 outcome quadruples.

    ``probs`` follows the canonical ``QUADRUPLES`` order. Entries must be
    nonnegative and sum to 1 within 1e-12.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) != 16:
            raise DistributionError(f"expected 16 probabilities, got {len(self.probs)}")
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        for q, p in zip(QUADRUPLES, self.probs):
            if not math.isfinite(p) or p < 0.0:
                raise DistributionError(f"probability of {tuple(q)} is invalid: {p!r}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")

    def prob(self, quadruple: Sequence[int]) -> float:
        key = OutcomeQuadruple(*quadruple)
        try:
            return self.probs[_QUAD_INDEX[key]]
        except KeyError:
            raise DistributionError(f"not an outcome quadruple: {quadruple!r}") from None

    def items(self) -> Iterator[tuple[OutcomeQuadruple, float]]:
        return zip(QUADRUPLES, self.probs)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)


@dataclass(frozen=True)
class PairDistribution:
    """Distribution of one ordered pair of the four observables.

    ``probs`` covers the sign pairs in canonical order
    ``(+1,+1), (+1,-1), (-1,+1), (-1,-1)``.
    """

    first: str
    second: str
    probs: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for name in (self.first, self.second):
            if name not in _OBS_SLOT:
                raise UnknownPairError(f"unknown observable label: {name!r}")
        if self.first == self.second:
            raise UnknownPairError(f"pair labels must differ, got {self.first!r} twice")
        if len(self.probs) != 4:
            raise DistributionError(f"expected 4 probabilities, got {len(self.probs)}")
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        for p in self.probs:
            if not math.isfinite(p) or p < 0.0:
                raise DistributionError(f"pair probability is invalid: {p!r}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise DistributionError(f"pair probabilities sum to {total!r}, not 1")

    def prob(self, s_first: int, s_second: int) -> float:
        _check_sign(s_first)
        _check_sign(s_second)
        return self.probs[PAIR_INDEX[(s_first, s_second)]]

    def marginal(self, which: str, sign: int) -> float:
        """Single-observable marginal P(which = sign) of this pair."""
        _check_sign(sign)
        if which == self.first:
            return self.prob(sign, 1) + self.prob(sign, -1)
        if which == self.second:
            return self.prob(1, sign) + self.prob(-1, sign)
        raise UnknownPairError(f"{which!r} is not part of pair ({self.first}, {self.second})")


_CORRELATOR_TOL = 1e-12


@dataclass(frozen=True)
class CorrelatorSet:
    """The four cross-particle correlators of one scenario.

    ``e_ab`` pairs the early outcomes, ``e_ab_prime`` pairs A1 with B2,
    ``e_a_prime_b`` pairs A2 with B1, and ``e_a_prime_b_prime`` pairs the
    late outcomes. Each value must lie in [-1, 1] within 1e-12.
    """

    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not math.isfinite(value) or abs(value) > 1.0 + _CORRELATOR_TOL:
                raise CorrelatorRangeError(f"correlator {name} out of range: {value!r}")

    def as_dict(self) -> dict[str, float]:
        return {
            "e_ab": self.e_ab,
            "e_ab_prime": self.e_ab_prime,
            "e_a_prime_b": self.e_a_prime_b,
            "e_a_prime_b_prime": self.e_a_prime_b_prime,
        }

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.e_ab, self.e_ab_prime, self.e_a_prime_b, self.e_a_prime_b_prime)


def _analyzer_matrix(angle: float) -> np.ndarray:
    """Columns are the +1 and -1 eigenstates of the analyzer at ``angle``."""
    return np.column_stack([make_spin_state(angle, 1), make_spin_state(angle, -1)])


def grand_joint_quantum(scenario: Scenario) -> GrandJointDistribution:
    """Joint distribution of ``(A1, B1, A2, B2)`` for a sequential run.

    The probability of a quadruple is the squared projection of the
    singlet onto the early product state, times the two single-particle
    transition probabilities from the early to the late analyzers. All
    three factors are evaluated as state-vector inner products.
    """
    if scenario.mode is not Mode.SEQUENTIAL:
        raise InvalidScenarioError(
            "a joint distribution over all four outcomes exists only in "
            "sequential mode; EPRB-mode statistics come from closed_form_correlators"
        )
    u_a = _analyzer_matrix(scenario.a)
    u_b = _analyzer_matrix(scenario.b)
    u_ap = _analyzer_matrix(scenario.a_prime)
    u_bp = _analyzer_matrix(scenario.b_prime)

    psi = make_singlet().reshape(2, 2)
    # amp[A1, B1] = <u_a(A1) x u_b(B1) | singlet>
    amp = u_a.conj().T @ psi @ u_b.conj()
    p_early = np.abs(amp) ** 2
    t_a = np.abs(u_a.conj().T @ u_ap) ** 2  # [A1, A2]
    t_b = np.abs(u_b.conj().T @ u_bp) ** 2  # [B1, B2]

    probs = (
        p_early[:, :, None, None]
        * t_a[:, None, :, None]
        * t_b[None, :, None, :]
    )
    # Axis order (A1, B1, A2, B2) with +1 at index 0 makes the C-order
    # flattening coincide with the canonical QUADRUPLES order.
    return GrandJointDistribution(tuple(probs.reshape(16).tolist()))


def marginal_pair(
    distribution: GrandJointDistribution, which: Sequence[str]
) -> PairDistribution:
    """Marginal of a grand joint over an ordered pair of observables.

    ``which`` names two distinct observables out of ``A1, B1, A2, B2``.
    Plain summation over the remaining two outcomes.
    """
    if len(which) != 2:
        raise UnknownPairError(f"expected two observable labels, got {which!r}")
    first, second = which
    # PairDistribution rejects unknown and repeated labels; until then an
    # unknown label reads slot 0.
    i, j = _OBS_SLOT.get(first, 0), _OBS_SLOT.get(second, 0)
    sums = [0.0, 0.0, 0.0, 0.0]
    for q, p in distribution.items():
        sums[PAIR_INDEX[(q[i], q[j])]] += p
    return PairDistribution(first, second, tuple(sums))


def correlator_pair(pair: PairDistribution) -> float:
    """Expectation of the product of the pair's two outcomes."""
    return math.fsum(
        s1 * s2 * pair.probs[PAIR_INDEX[(s1, s2)]] for s1, s2 in SIGN_PAIRS
    )


def closed_form_correlators(scenario: Scenario) -> CorrelatorSet:
    """The four cross-particle correlators in closed form.

    Sequential mode: the early-early correlator is -cos(theta_ab) and each
    late outcome attenuates it by the cosine of its own analyzer rotation,
    giving -cos(theta_ab)*cos(theta_aa')*cos(theta_bb') at the latest pair.
    EPRB mode: every pair is a fresh singlet measurement, -cos of its own
    difference angle.
    """
    if scenario.mode is Mode.SEQUENTIAL:
        c_ab = math.cos(scenario.theta_ab)
        c_aa = math.cos(scenario.theta_aa_prime)
        c_bb = math.cos(scenario.theta_bb_prime)
        return CorrelatorSet(
            e_ab=-c_ab,
            e_ab_prime=-c_ab * c_bb,
            e_a_prime_b=-c_ab * c_aa,
            e_a_prime_b_prime=-c_ab * c_aa * c_bb,
        )
    return CorrelatorSet(
        e_ab=-math.cos(scenario.theta_ab),
        e_ab_prime=-math.cos(scenario.theta_ab_prime),
        e_a_prime_b=-math.cos(scenario.theta_a_prime_b),
        e_a_prime_b_prime=-math.cos(scenario.theta_a_prime_b_prime),
    )
