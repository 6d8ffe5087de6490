"""Factorizable contextual hidden-variable models and their limits.

The model family reproduces the sequential-run statistics exactly. The
hidden variable is a pair of signs ``(alpha, beta)``, one per particle.
Its weight depends on the preparation context (the two early analyzer
directions), while each particle's response depends only on that
particle's own analyzer pair: the early outcome equals the particle's
sign, and the late outcome follows the single-particle transition rule.
Given the hidden variable, the two sides are independent by construction;
that product structure is what "factorizable" means here.

Responses are stored as functions ``(atom index, Scenario) -> 4 probs``
so that :func:`check_factorizability` can actually probe whether a side's
table shifts when the opposite side's analyzers move. Models loaded from
disk wrap their static tables in constant functions and pass the probe
trivially.

Dropping the second time step yields the EPRB limit, where the four
pairwise distributions become targets for a single joint distribution
over four outcomes. :func:`noncontextual_feasibility` decides whether
such a joint exists by Fine's eight CHSH inequalities, certifies failure
with the violated CHSH sign variant, and finds a witness by linear
feasibility over the 16 deterministic assignments.

Model file schema (JSON, one object):

- ``"format"``: the literal string ``"hvmodel-v1"``.
- ``"scenario"``: object with ``"mode"`` (``"sequential"`` or ``"eprb"``)
  and the four analyzer angles ``"a"``, ``"a_prime"``, ``"b"``,
  ``"b_prime"`` in radians.
- ``"context"``: object with keys ``"weights"``, ``"side1"``, ``"side2"``,
  each listing the setting names that component depends on.
- ``"atoms"``: list of objects with ``"id"`` (string), ``"weight"``
  (float), ``"side1"`` and ``"side2"`` (four floats each, over the sign
  pairs in canonical order).

Floats survive a save/load round trip bit-exactly.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DistributionError,
    InconsistentTargetsError,
    InvalidScenarioError,
    ModelFormatError,
    UnknownPairError,
)
from .linfeas import solve_equality_feasibility
from .quantum import (
    CROSS_PAIRS,
    OBSERVABLES,
    PAIR_INDEX,
    PAIR_SLOTS,
    QUADRUPLES,
    SIGN_PAIRS,
    CorrelatorSet,
    GrandJointDistribution,
    Mode,
    PairDistribution,
    Scenario,
    closed_form_correlators,
    correlator_pair,
    grand_joint_quantum,
    marginal_pair,
)

_SETTING_NAMES = ("a", "a_prime", "b", "b_prime")

ResponseTable = tuple[float, float, float, float]
ResponseFunc = Callable[[int, Scenario], ResponseTable]


@dataclass(frozen=True)
class ContextDescriptor:
    """Which analyzer settings each model component may depend on."""

    weights: tuple[str, ...]
    side1: tuple[str, ...]
    side2: tuple[str, ...]

    def __post_init__(self) -> None:
        for field in ("weights", "side1", "side2"):
            names = tuple(getattr(self, field))
            object.__setattr__(self, field, names)
            for name in names:
                if name not in _SETTING_NAMES:
                    raise InvalidScenarioError(f"unknown setting name: {name!r}")


@dataclass(frozen=True)
class HVModel:
    """A factorizable hidden-variable model over a finite atom space.

    ``side1_response(i, scenario)`` returns the conditional distribution
    of ``(A1, A2)`` given atom ``i``, over the sign pairs in canonical
    order; ``side2_response`` does the same for ``(B1, B2)``. The
    functions receive the full scenario so that setting-independence is a
    checkable property rather than an assumption.
    """

    scenario: Scenario
    atom_ids: tuple[str, ...]
    weights: tuple[float, ...]
    side1_response: ResponseFunc
    side2_response: ResponseFunc
    context: ContextDescriptor

    def __post_init__(self) -> None:
        if len(self.atom_ids) != len(self.weights):
            raise DistributionError(
                f"{len(self.atom_ids)} atom ids but {len(self.weights)} weights"
            )
        if len(set(self.atom_ids)) != len(self.atom_ids):
            raise DistributionError("atom ids must be unique")
        object.__setattr__(self, "atom_ids", tuple(str(i) for i in self.atom_ids))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        for w in self.weights:
            if not math.isfinite(w) or w < 0.0:
                raise DistributionError(f"atom weight is invalid: {w!r}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise DistributionError(f"atom weights sum to {total!r}, not 1")

    @property
    def n_atoms(self) -> int:
        return len(self.atom_ids)

    def side1_table(self, scenario: Scenario | None = None) -> tuple[ResponseTable, ...]:
        sc = self.scenario if scenario is None else scenario
        return tuple(self.side1_response(i, sc) for i in range(self.n_atoms))

    def side2_table(self, scenario: Scenario | None = None) -> tuple[ResponseTable, ...]:
        sc = self.scenario if scenario is None else scenario
        return tuple(self.side2_response(i, sc) for i in range(self.n_atoms))


_ATOM_SIGNS: tuple[tuple[int, int], ...] = SIGN_PAIRS  # (alpha, beta) per atom
_ATOM_IDS = ("++", "+-", "-+", "--")


def _sequential_side1(i: int, sc: Scenario) -> ResponseTable:
    alpha = _ATOM_SIGNS[i][0]
    c = math.cos(sc.a - sc.a_prime)
    return tuple(
        (1.0 if s1 == alpha else 0.0) * 0.5 * (1.0 + s1 * s2 * c)
        for s1, s2 in SIGN_PAIRS
    )


def _sequential_side2(i: int, sc: Scenario) -> ResponseTable:
    beta = _ATOM_SIGNS[i][1]
    c = math.cos(sc.b - sc.b_prime)
    return tuple(
        (1.0 if s1 == beta else 0.0) * 0.5 * (1.0 + s1 * s2 * c)
        for s1, s2 in SIGN_PAIRS
    )


def build_contextual_model(scenario: Scenario) -> HVModel:
    """The canonical model reproducing the sequential-run statistics.

    Atoms are the four sign pairs ``(alpha, beta)``, weighted by
    ``(1 - alpha*beta*cos(theta_ab)) / 4``. Each side's early outcome is
    its sign; its late outcome follows the transition rule for that
    side's analyzer pair.
    """
    if scenario.mode is not Mode.SEQUENTIAL:
        raise InvalidScenarioError(
            "the contextual model reproduces sequential-run statistics; "
            "EPRB-mode scenarios have no grand joint to reproduce"
        )
    c_ab = math.cos(scenario.theta_ab)
    weights = tuple(
        0.25 * (1.0 - alpha * beta * c_ab) for alpha, beta in _ATOM_SIGNS
    )
    return HVModel(
        scenario=scenario,
        atom_ids=_ATOM_IDS,
        weights=weights,
        side1_response=_sequential_side1,
        side2_response=_sequential_side2,
        context=ContextDescriptor(
            weights=("a", "b"), side1=("a", "a_prime"), side2=("b", "b_prime")
        ),
    )


def induced_distribution(model: HVModel) -> GrandJointDistribution:
    """Mix the per-atom product responses into a joint over quadruples."""
    probs = [0.0] * 16
    side1 = model.side1_table()
    side2 = model.side2_table()
    for w, t1, t2 in zip(model.weights, side1, side2):
        for idx, q in enumerate(QUADRUPLES):
            probs[idx] += w * t1[PAIR_INDEX[(q.a1, q.a2)]] * t2[PAIR_INDEX[(q.b1, q.b2)]]
    return GrandJointDistribution(tuple(probs))


@dataclass(frozen=True)
class FactorizabilityReport:
    """Outcome of the factorizability and locality checks.

    ``max_deviation`` is the worst violation of locality: invariance of
    each side's table under changes to the other side's analyzers.
    ``product_deviation`` is always 0.0: a model stores one response table
    per side and its per-atom joint is their product by construction, so
    the product structure cannot fail. The field keeps the report schema.
    ``normalization_error`` tracks how far weights and response tables
    stray from exact normalization; it gates ``passed`` but is reported
    separately because it measures validity, not factorizability.
    """

    passed: bool
    max_deviation: float
    product_deviation: float
    locality_deviation: float
    normalization_error: float


#: Fixed offsets (radians) used to probe setting independence.
_PROBE_OFFSETS = (0.9, 2.1, 3.3)


def check_factorizability(model: HVModel, tol: float = 1e-12) -> FactorizabilityReport:
    """Verify setting independence and normalization of a model.

    Each side's response table must be unchanged when the other side's
    analyzers are displaced by fixed probe offsets. Models built by
    :func:`build_contextual_model` pass with deviation exactly zero; the
    check guards hand-built or file-loaded models.
    """
    side1 = model.side1_table()
    side2 = model.side2_table()

    normalization = abs(math.fsum(model.weights) - 1.0)
    for table in (*side1, *side2):
        for p in table:
            if not math.isfinite(p) or p < -tol:
                raise DistributionError(f"response probability is invalid: {p!r}")
        normalization = max(normalization, abs(math.fsum(table) - 1.0))

    locality_dev = 0.0
    sc = model.scenario
    for delta in _PROBE_OFFSETS:
        for probe in (
            replace(sc, b=sc.b + delta),
            replace(sc, b_prime=sc.b_prime + delta),
            replace(sc, b=sc.b + delta, b_prime=sc.b_prime + 0.5 * delta),
        ):
            for base, moved in zip(side1, model.side1_table(probe)):
                locality_dev = max(
                    locality_dev, max(abs(x - y) for x, y in zip(base, moved))
                )
        for probe in (
            replace(sc, a=sc.a + delta),
            replace(sc, a_prime=sc.a_prime + delta),
            replace(sc, a=sc.a + delta, a_prime=sc.a_prime + 0.5 * delta),
        ):
            for base, moved in zip(side2, model.side2_table(probe)):
                locality_dev = max(
                    locality_dev, max(abs(x - y) for x, y in zip(base, moved))
                )

    return FactorizabilityReport(
        passed=locality_dev <= tol and normalization <= tol,
        max_deviation=locality_dev,
        product_deviation=0.0,
        locality_deviation=locality_dev,
        normalization_error=normalization,
    )


_SIDE1_OBSERVABLES = {"A1": 0, "A2": 1}
_SIDE2_OBSERVABLES = {"B1": 0, "B2": 1}


def hv_correlator(model: HVModel, pair: Sequence[str]) -> float:
    """Cross-side correlator of the model: sum over atoms of
    weight times the product of the two side conditional expectations.

    ``pair`` must name one observable from each side, e.g. ("A1", "B2").
    """
    if len(pair) != 2:
        raise UnknownPairError(f"expected two observable labels, got {pair!r}")
    first, second = pair
    if first in _SIDE1_OBSERVABLES and second in _SIDE2_OBSERVABLES:
        slot1, slot2 = _SIDE1_OBSERVABLES[first], _SIDE2_OBSERVABLES[second]
    elif first in _SIDE2_OBSERVABLES and second in _SIDE1_OBSERVABLES:
        slot2, slot1 = _SIDE2_OBSERVABLES[first], _SIDE1_OBSERVABLES[second]
    else:
        raise UnknownPairError(
            f"pair {pair!r} must combine one of A1/A2 with one of B1/B2; "
            "same-side products are not conditionally independent"
        )
    total = 0.0
    for i, w in enumerate(model.weights):
        t1 = model.side1_response(i, model.scenario)
        t2 = model.side2_response(i, model.scenario)
        e1 = math.fsum((s1, s2)[slot1] * p for (s1, s2), p in zip(SIGN_PAIRS, t1))
        e2 = math.fsum((s1, s2)[slot2] * p for (s1, s2), p in zip(SIGN_PAIRS, t2))
        total += w * e1 * e2
    return total


def _static_response(tables: tuple[ResponseTable, ...]) -> ResponseFunc:
    def response(i: int, _scenario: Scenario) -> ResponseTable:
        return tables[i]

    return response


def model_from_tables(
    scenario: Scenario,
    atom_ids: Sequence[str],
    weights: Sequence[float],
    side1_tables: Sequence[Sequence[float]],
    side2_tables: Sequence[Sequence[float]],
    context: ContextDescriptor,
) -> HVModel:
    """Wrap static response tables (e.g. loaded from disk) as a model."""
    if not (len(atom_ids) == len(weights) == len(side1_tables) == len(side2_tables)):
        raise DistributionError("atom ids, weights, and tables must align")
    s1 = tuple(tuple(float(p) for p in t) for t in side1_tables)
    s2 = tuple(tuple(float(p) for p in t) for t in side2_tables)
    for table in (*s1, *s2):
        if len(table) != 4:
            raise DistributionError(f"response tables need 4 entries, got {len(table)}")
    return HVModel(
        scenario=scenario,
        atom_ids=tuple(atom_ids),
        weights=tuple(weights),
        side1_response=_static_response(s1),
        side2_response=_static_response(s2),
        context=context,
    )


_MODEL_FORMAT = "hvmodel-v1"


def save_model(model: HVModel, path: str | Path) -> None:
    """Write a model to disk in the documented JSON schema."""
    sc = model.scenario
    side1 = model.side1_table()
    side2 = model.side2_table()
    doc = {
        "format": _MODEL_FORMAT,
        "scenario": {
            "mode": sc.mode.value,
            "a": sc.a,
            "a_prime": sc.a_prime,
            "b": sc.b,
            "b_prime": sc.b_prime,
        },
        "context": {
            "weights": list(model.context.weights),
            "side1": list(model.context.side1),
            "side2": list(model.context.side2),
        },
        "atoms": [
            {
                "id": model.atom_ids[i],
                "weight": model.weights[i],
                "side1": list(side1[i]),
                "side2": list(side2[i]),
            }
            for i in range(model.n_atoms)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> HVModel:
    """Read a model written by :func:`save_model`.

    The loaded model's responses are constants in the scenario argument,
    so the locality probe passes by construction; validity of the tables
    is still enforced.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ModelFormatError(f"expected format {_MODEL_FORMAT!r}")
    try:
        sc_doc = doc["scenario"]
        scenario = Scenario(
            a=sc_doc["a"],
            a_prime=sc_doc["a_prime"],
            b=sc_doc["b"],
            b_prime=sc_doc["b_prime"],
            mode=Mode(sc_doc["mode"]),
        )
        ctx_doc = doc["context"]
        context = ContextDescriptor(
            weights=tuple(ctx_doc["weights"]),
            side1=tuple(ctx_doc["side1"]),
            side2=tuple(ctx_doc["side2"]),
        )
        atoms = doc["atoms"]
        return model_from_tables(
            scenario=scenario,
            atom_ids=[atom["id"] for atom in atoms],
            weights=[atom["weight"] for atom in atoms],
            side1_tables=[atom["side1"] for atom in atoms],
            side2_tables=[atom["side2"] for atom in atoms],
            context=context,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed model document: {exc}") from exc


@dataclass(frozen=True)
class PairTargets:
    """The four pairwise distributions a joint distribution must match.

    Labels are fixed: ``ab`` pairs (A1, B1), ``ab_prime`` (A1, B2),
    ``a_prime_b`` (A2, B1), ``a_prime_b_prime`` (A2, B2). Consistency of
    the shared single-observable marginals is checked by
    :func:`noncontextual_feasibility`, not at construction, so that
    deliberately inconsistent targets remain expressible.
    """

    ab: PairDistribution
    ab_prime: PairDistribution
    a_prime_b: PairDistribution
    a_prime_b_prime: PairDistribution

    def __post_init__(self) -> None:
        for field, (first, second) in CROSS_PAIRS.items():
            pd = getattr(self, field)
            if (pd.first, pd.second) != (first, second):
                raise UnknownPairError(
                    f"target {field} must pair ({first}, {second}), "
                    f"got ({pd.first}, {pd.second})"
                )

    def correlators(self) -> CorrelatorSet:
        return CorrelatorSet(
            **{f"e_{name}": correlator_pair(getattr(self, name)) for name in CROSS_PAIRS}
        )


def pair_targets_from_correlators(correlators: CorrelatorSet) -> PairTargets:
    """Targets with unbiased marginals: p(s1, s2) = (1 + s1*s2*e) / 4."""

    def pd(name: str) -> PairDistribution:
        e = getattr(correlators, f"e_{name}")
        return PairDistribution(
            *CROSS_PAIRS[name], tuple(0.25 * (1.0 + s1 * s2 * e) for s1, s2 in SIGN_PAIRS)
        )

    return PairTargets(**{name: pd(name) for name in CROSS_PAIRS})


def pair_targets_from_scenario(scenario: Scenario) -> PairTargets:
    """The scenario's four pairwise distributions.

    Sequential mode marginalizes the grand joint; EPRB mode combines the
    closed-form correlators with unbiased marginals.
    """
    if scenario.mode is Mode.SEQUENTIAL:
        d = grand_joint_quantum(scenario)
        return PairTargets(**{name: marginal_pair(d, pair) for name, pair in CROSS_PAIRS.items()})
    return pair_targets_from_correlators(closed_form_correlators(scenario))


class Verdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ChshCertificate:
    """A CHSH sign variant whose value exceeds 2.

    ``signs`` applies to the correlators in the order
    (e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime); the product of
    the four signs is -1.
    """

    signs: tuple[int, int, int, int]
    value: float


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the joint-distribution existence question."""

    verdict: Verdict
    joint: GrandJointDistribution | None
    certificate: ChshCertificate | None


#: The 8 sign patterns (product -1) whose combinations bound the
#: noncontextual polytope.
CHSH_SIGN_VARIANTS: tuple[tuple[int, int, int, int], ...] = tuple(
    signs
    for signs in itertools.product((1, -1), repeat=4)
    if signs[0] * signs[1] * signs[2] * signs[3] == -1
)


def chsh_variant_values(correlators: CorrelatorSet) -> dict[tuple[int, int, int, int], float]:
    """Value of every CHSH sign variant at the given correlators."""
    e = correlators.as_tuple()
    return {
        signs: math.fsum(s * v for s, v in zip(signs, e))
        for signs in CHSH_SIGN_VARIANTS
    }


_CONSISTENCY_TOL = 1e-9


def _check_consistency(targets: PairTargets) -> None:
    for obs in OBSERVABLES:
        m1, m2 = (
            getattr(targets, name).marginal(obs, 1)
            for name, pair in CROSS_PAIRS.items()
            if obs in pair
        )
        if abs(m1 - m2) > _CONSISTENCY_TOL:
            raise InconsistentTargetsError(
                f"targets disagree on P({obs}=+1): {m1!r} vs {m2!r}"
            )


def noncontextual_feasibility(
    targets: PairTargets, tol: float = 1e-9
) -> FeasibilityResult:
    """Does one joint distribution over (A1, A2, B1, B2) match all four
    pairwise targets?

    Fine's theorem decides (A. Fine, PRL 48, 291, 1982): for consistent
    targets a joint exists exactly when no CHSH sign variant exceeds 2.
    The verdict is "feasible" when every variant is at most ``2 + tol``;
    otherwise the largest variant is the certificate. A feasible verdict
    carries a witness from linear feasibility over the 16 outcome
    quadruples (the mixture weights of the deterministic assignments).
    """
    _check_consistency(targets)
    variants = chsh_variant_values(targets.correlators())
    best_signs = max(variants, key=lambda signs: variants[signs])
    if variants[best_signs] > 2.0 + tol:
        return FeasibilityResult(
            verdict=Verdict.INFEASIBLE,
            joint=None,
            certificate=ChshCertificate(signs=best_signs, value=variants[best_signs]),
        )

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for field, (slot1, slot2) in PAIR_SLOTS.items():
        pd = getattr(targets, field)
        for s1, s2 in SIGN_PAIRS:
            coeff = np.array(
                [1.0 if (q[slot1] == s1 and q[slot2] == s2) else 0.0 for q in QUADRUPLES]
            )
            rows.append(coeff)
            rhs.append(pd.prob(s1, s2))
    rows.append(np.ones(16))
    rhs.append(1.0)
    a, b = np.array(rows), np.array(rhs)

    result = solve_equality_feasibility(a, b, tol=tol)
    if not result.feasible:
        # Within tol above a facet the phase-1 residual is about 2.5 times
        # the CHSH excess, so it can exceed tol. Mixing in a fraction tol/2
        # of the uniform pair distribution scales every variant by
        # 1 - tol/2, to at most 2, and moves each target cell by at most
        # 0.375 * tol.
        b[:-1] += 0.5 * tol * (0.25 - b[:-1])
        result = solve_equality_feasibility(a, b, tol=tol)
    if not result.feasible:
        raise RuntimeError(
            "no joint distribution although no CHSH variant exceeds 2; "
            "this contradicts Fine's theorem"
        )
    probs = result.x / result.x.sum()
    return FeasibilityResult(
        verdict=Verdict.FEASIBLE,
        joint=GrandJointDistribution(tuple(probs.tolist())),
        certificate=None,
    )
