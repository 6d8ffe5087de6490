"""Exact spin statistics for a two-time, four-analyzer EPRB-type run.

A spin-zero source emits two spin-1/2 particles. Particle 1 meets
Stern-Gerlach analyzers along direction ``a`` at the first time step and
along ``a_prime`` at the second; particle 2 meets ``b`` and then
``b_prime``. All analyzer directions lie in a single plane and are given
as polar angles in radians. Outcomes are +1 or -1 (units of hbar/2),
labelled ``(A1, B1, A2, B2)`` for (particle 1 early, particle 2 early,
particle 1 late, particle 2 late).

The statistics are real closed forms in the cosines of the analyzer
differences: the singlet's early pair probability
``(1 - A1*B1*cos(a - b)) / 4`` and each particle's transition probability
``(1 + s1*s2*cos(m1 - m2)) / 2``. They are evaluated with ``math.cos`` and
IEEE ``+ - * /`` only, so no value depends on the BLAS library.

Conventions shared by the whole package:

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
    integer,
    quoted,
    real,
    sequence,
)

__all__ = [
    "QUADRUPLES", "SIGN_PAIRS", "SIGNS", "CorrelatorSet", "GrandJointDistribution", "Mode",
    "OutcomeQuadruple", "PairDistribution", "Scenario", "canonical_angle",
    "closed_form_correlators", "correlator_pair", "grand_joint_quantum", "marginal_pair",
]

TWO_PI = 2.0 * math.pi

#: Slack on a probability: a distribution's sum, and |e| <= sum p <= 1 for a correlator.
_PROB_TOL = 1e-12

SIGNS: tuple[int, int] = (1, -1)

SIGN_PAIRS: tuple[tuple[int, int], ...] = tuple(itertools.product(SIGNS, repeat=2))

#: Index of a sign pair in the canonical (+1 before -1) order.
PAIR_INDEX: dict[tuple[int, int], int] = {p: i for i, p in enumerate(SIGN_PAIRS)}

OBSERVABLES: tuple[str, str, str, str] = ("A1", "B1", "A2", "B2")

_OBS_SLOT: dict[str, int] = {name: i for i, name in enumerate(OBSERVABLES)}


def observable(label: object) -> str:
    """``label`` if it names one of ``OBSERVABLES``; otherwise raises
    ``UnknownPairError``, also for a label that cannot be hashed."""
    if isinstance(label, str) and label in _OBS_SLOT:
        return label
    raise UnknownPairError(f"unknown observable label: {quoted(label)}")


#: The four analyzer settings in ``Scenario`` field order: particle 1's, then particle 2's.
SETTINGS: tuple[str, str, str, str] = ("a", "a_prime", "b", "b_prime")

#: The four cross-particle pairs in correlator order, keyed by the suffix
#: of their correlator name (``ab`` gives ``e_ab``, ``CorrelatorSet``'s
#: field) and of their difference angle (``Scenario.theta_ab``).
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


def canonical_angle(value: float, name: str = "angle") -> float:
    """Reduce an angle in radians to the canonical range [0, 2*pi).

    Idempotent: a value already in range is returned bit-exactly, except
    -0.0, which becomes 0.0 so that one angle has one representation. An
    angle that is not a number (``errors.real``) raises
    ``InvalidScenarioError`` naming ``name``.
    """
    reduced = math.fmod(real(value, name, InvalidScenarioError), TWO_PI)
    if reduced < 0.0:
        reduced += TWO_PI
    # fmod of a tiny negative can land exactly on 2*pi after the shift.
    if reduced >= TWO_PI:
        reduced = 0.0
    return reduced + 0.0  # adding 0.0 turns -0.0 into 0.0


def _check_sign(sign: int) -> None:
    if integer(sign, "outcome sign", InvalidScenarioError, -1, 1) == 0:
        raise InvalidScenarioError("outcome sign must be +1 or -1, got 0")


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
            raise InvalidScenarioError(f"mode must be a Mode, got {quoted(self.mode)}")
        for name in SETTINGS:
            object.__setattr__(self, name, canonical_angle(getattr(self, name), f"angle {name}"))

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


def probabilities(values: Sequence, what: str, length: int) -> tuple[float, ...]:
    """``values`` as floats if they form a distribution: a sequence of
    ``length`` entries (``errors.sequence``), each a number
    (``errors.real``), none negative, whose ``fsum`` lies within
    ``_PROB_TOL`` of 1. Otherwise raises ``DistributionError`` naming ``what``."""
    values = sequence(values, f"{what} list", DistributionError, length)
    probs = tuple([real(p, what, DistributionError) for p in values])
    for p in probs:
        if p < 0.0:
            raise DistributionError(f"{what} must not be negative, got {p!r}")
    try:
        total = math.fsum(probs)
    except OverflowError:  # entries near the float maximum
        total = math.inf
    if abs(total - 1.0) > _PROB_TOL:
        raise DistributionError(f"{what} sum is {total!r}, not 1")
    return probs


@dataclass(frozen=True)
class GrandJointDistribution:
    """Joint distribution over the 16 outcome quadruples.

    ``probs`` follows the canonical ``QUADRUPLES`` order. Entries must be
    nonnegative and sum to 1 within ``_PROB_TOL``.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", probabilities(self.probs, "probability", 16))

    def prob(self, quadruple: Sequence[int]) -> float:
        key = sequence(quadruple, "outcome quadruple", DistributionError, 4)
        try:
            for sign in key:  # a bool or float would hash as the int it equals
                integer(sign, "outcome sign", DistributionError, -1, 1)
            return self.probs[_QUAD_INDEX[key]]
        except (DistributionError, KeyError):
            raise DistributionError(f"not an outcome quadruple: {quoted(quadruple)}") from None

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
        observable(self.first)
        observable(self.second)
        if self.first == self.second:
            raise UnknownPairError(f"pair labels must differ, got {self.first!r} twice")
        object.__setattr__(self, "probs", probabilities(self.probs, "pair probability", 4))

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


@dataclass(frozen=True)
class CorrelatorSet:
    """The four cross-particle correlators of one scenario, a field
    ``e_<pair>`` per ``CROSS_PAIRS`` entry, in its order. Each value must
    lie in [-1, 1] within ``_PROB_TOL``, as |e| <= sum p <= 1 + ``_PROB_TOL``."""

    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            value = real(value, f"correlator {name}", CorrelatorRangeError)
            if abs(value) > 1.0 + _PROB_TOL:
                raise CorrelatorRangeError(f"correlator {name} out of range: {value!r}")
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict[str, float]:
        """The correlators by field name, in ``CROSS_PAIRS`` order."""
        return {f"e_{pair}": getattr(self, f"e_{pair}") for pair in CROSS_PAIRS}

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self.as_dict().values())


def grand_joint_quantum(scenario: Scenario) -> GrandJointDistribution:
    """Joint distribution of ``(A1, B1, A2, B2)`` for a sequential run.

    The probability of a quadruple is the singlet's early pair probability
    ``(1 - A1*B1*cos(theta_ab)) / 4`` times the two single-particle
    transition probabilities from the early to the late analyzers,
    ``(1 + A1*A2*cos(theta_aa')) / 2`` and ``(1 + B1*B2*cos(theta_bb')) / 2``.
    The three real closed forms are multiplied left to right, in the order
    that :func:`eprb_lab.hvm.induced_distribution` mixes the canonical
    model, so the two agree bit for bit; no value goes through BLAS.
    """
    if scenario.mode is not Mode.SEQUENTIAL:
        raise InvalidScenarioError(
            "a joint distribution over all four outcomes exists only in "
            "sequential mode; EPRB-mode statistics come from closed_form_correlators"
        )
    c_ab = math.cos(scenario.theta_ab)
    c_aa = math.cos(scenario.theta_aa_prime)
    c_bb = math.cos(scenario.theta_bb_prime)
    return GrandJointDistribution(tuple([
        (1 - a1 * b1 * c_ab) / 4 * ((1 + a1 * a2 * c_aa) / 2) * ((1 + b1 * b2 * c_bb) / 2)
        for a1, b1, a2, b2 in QUADRUPLES
    ]))


def marginal_pair(
    distribution: GrandJointDistribution, which: Sequence[str]
) -> PairDistribution:
    """Marginal of a grand joint over an ordered pair of observables.

    ``which`` names two distinct observables out of ``A1, B1, A2, B2``.
    Plain summation over the remaining two outcomes.
    """
    labels = sequence(which, "observable labels", UnknownPairError, 2)
    first, second = map(observable, labels)  # PairDistribution rejects a repeated label
    i, j = _OBS_SLOT[first], _OBS_SLOT[second]
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
        **{f"e_{pair}": -math.cos(getattr(scenario, f"theta_{pair}")) for pair in CROSS_PAIRS}
    )
