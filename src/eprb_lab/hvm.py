"""Factorizable contextual hidden-variable models and their limits.

The model family reproduces the sequential-run statistics exactly. The
hidden variable is a pair of signs ``(alpha, beta)``, one per particle.
Its weight depends on the preparation context (the two early analyzer
directions), while each particle's response depends only on that
particle's own analyzer pair: the early outcome equals the particle's
sign, and the late outcome follows the single-particle transition rule.
Given the hidden variable, the two sides are independent by construction;
that product structure is what "factorizable" means here.

A model's three components, the weights and the two sides' response
tables, are functions of the scenario that return their whole table, one
entry per atom, so that :func:`check_factorizability` can probe whether
one moves with a setting that :data:`CONTEXT` does not let it read.
Models loaded from disk wrap constants and pass the probe trivially.
One rule (``_floats``) checks every table: ``n_atoms`` entries, each a
number for the weights and a sequence of 4 numbers for a side, kept as
floats and coerced from nothing else.

Dropping the second time step yields the EPRB limit, where the four
pairwise distributions become targets for a single joint distribution
over four outcomes. :func:`noncontextual_feasibility` decides whether
such a joint exists by Fine's eight CHSH inequalities, certifies failure
with the violated CHSH sign variant, and finds a witness by linear
feasibility over the 16 deterministic assignments. A 2x2 distribution of
two +-1 outcomes is fixed by its two means and its correlator
(``_pair_cells``); where the targets' own cells admit no witness, one
retry rebuilds each pair from those, its shared means averaged.

Model file schema (JSON, one object):

- ``"format"``: the literal string ``"hvmodel-v1"``.
- ``"scenario"``: object with ``"mode"`` (``"sequential"`` or ``"eprb"``)
  and the four analyzer angles ``"a"``, ``"a_prime"``, ``"b"``,
  ``"b_prime"`` in radians.
- ``"context"``: exactly :data:`CONTEXT` with its tuples as lists, the
  setting names that each component may read.
- ``"atoms"``: list of objects with ``"id"`` (string), ``"weight"``
  (number), ``"side1"`` and ``"side2"`` (four numbers each, over the sign
  pairs in canonical order). Numbers are finite and not booleans.

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
    quoted,
    real,
    sequence,
)
from .inequality import CLASSICAL_BOUND
from .linfeas import solve_equality_feasibility
from .quantum import (
    CROSS_PAIRS,
    OBSERVABLES,
    PAIR_INDEX,
    PAIR_SLOTS,
    QUADRUPLES,
    SETTINGS,
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
    observable,
    probabilities,
)

__all__ = [
    "CONTEXT", "ChshCertificate", "FactorizabilityReport", "FeasibilityResult",
    "HVModel", "PairTargets", "Verdict", "build_contextual_model", "check_factorizability",
    "chsh_variant_values", "hv_correlator", "induced_distribution", "load_model",
    "model_from_tables", "noncontextual_feasibility", "pair_targets_from_correlators",
    "pair_targets_from_scenario", "save_model",
]

#: The settings each model component may read. The weights read the
#: context, the first-round analyzer pair, which is what makes the model
#: contextual; each side reads only its own two analyzers, which is
#: parameter independence, one half of factorizability (J. Jarrett,
#: Nous 18, 569, 1984).
CONTEXT = {"weights": ("a", "b"), "side1": SETTINGS[:2], "side2": SETTINGS[2:]}

ResponseTable = tuple[float, float, float, float]
Component = Callable[[Scenario], Sequence]  # one weight or ResponseTable per atom


@dataclass(frozen=True)
class HVModel:
    """A factorizable hidden-variable model over a finite atom space.

    Each component maps a scenario to its whole table, one entry per
    atom: ``weights(scenario)[i]`` is atom ``i``'s weight, and
    ``side1(scenario)[i]`` is the conditional distribution of ``(A1, A2)``
    given atom ``i``, over the sign pairs in canonical order; ``side2``
    does the same for ``(B1, B2)``. Every component receives the full
    scenario, so that reading only the settings that :data:`CONTEXT`
    allows is a checkable property rather than an assumption. At the
    model's scenario the weights must form a distribution and every table
    must meet the table rule (``_floats``), or :class:`DistributionError`
    is raised.
    """

    scenario: Scenario
    atom_ids: tuple[str, ...]
    weights: Component
    side1: Component
    side2: Component

    def __post_init__(self) -> None:
        ids = sequence(self.atom_ids, "atom ids", DistributionError)
        for atom_id in ids:
            if not isinstance(atom_id, str):  # models coerce nothing, as model files do not
                raise DistributionError(f"atom id must be a string, got {quoted(atom_id)}")
        object.__setattr__(self, "atom_ids", ids)
        if len(set(self.atom_ids)) != len(self.atom_ids):
            raise DistributionError("atom ids must be unique")
        probabilities(self.table("weights"), "atom weight", self.n_atoms)
        for side in ("side1", "side2"):
            _floats(side, self.table(side), self.n_atoms)

    @property
    def n_atoms(self) -> int:
        return len(self.atom_ids)

    def table(self, component: str, scenario: Scenario | None = None) -> tuple:
        """``component``'s table at ``scenario``, by default the model's own:
        a tuple of one entry per atom."""
        table = getattr(self, component)(self.scenario if scenario is None else scenario)
        return sequence(table, f"{component} table", DistributionError, self.n_atoms)


def _floats(component: str, table: Sequence, n_atoms: int) -> tuple:
    """The table rule: ``component``'s table as floats if it holds
    ``n_atoms`` entries (``errors.sequence``), each a number
    (``errors.real``) for the weights and a sequence of 4 numbers for a
    side. Otherwise raises :class:`DistributionError`. Whether the entries
    form distributions is left to the caller."""
    table = sequence(table, f"{component} table", DistributionError, n_atoms)
    if component == "weights":
        return tuple([real(w, "atom weight", DistributionError) for w in table])
    return tuple(
        tuple([real(p, "response entry", DistributionError)
               for p in sequence(t, "response table", DistributionError, 4)])
        for t in table
    )


_ATOM_SIGNS: tuple[tuple[int, int], ...] = SIGN_PAIRS  # (alpha, beta) per atom
_ATOM_IDS = ("++", "+-", "-+", "--")


def _sequential_weights(sc: Scenario) -> tuple[float, ...]:
    c = math.cos(sc.theta_ab)
    return tuple([0.25 * (1.0 - alpha * beta * c) for alpha, beta in _ATOM_SIGNS])


def _transition_tables(slot: int, c: float) -> tuple[ResponseTable, ...]:
    """Each atom's table for the side whose sign is ``slot`` of the atom's
    signs: the early outcome is that sign, and the late one follows the
    transition rule for an analyzer pair at cosine ``c``."""
    return tuple(
        tuple([(1.0 if s1 == signs[slot] else 0.0) * 0.5 * (1.0 + s1 * s2 * c)
               for s1, s2 in SIGN_PAIRS])
        for signs in _ATOM_SIGNS
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
    return HVModel(
        scenario=scenario,
        atom_ids=_ATOM_IDS,
        weights=_sequential_weights,
        side1=lambda sc: _transition_tables(0, math.cos(sc.theta_aa_prime)),
        side2=lambda sc: _transition_tables(1, math.cos(sc.theta_bb_prime)),
    )


def induced_distribution(model: HVModel) -> GrandJointDistribution:
    """Mix the per-atom product responses into a joint over quadruples."""
    probs = [0.0] * 16
    for w, t1, t2 in zip(*map(model.table, CONTEXT)):
        for idx, q in enumerate(QUADRUPLES):
            probs[idx] += w * t1[PAIR_INDEX[(q.a1, q.a2)]] * t2[PAIR_INDEX[(q.b1, q.b2)]]
    return GrandJointDistribution(tuple(probs))


@dataclass(frozen=True)
class FactorizabilityReport:
    """Outcome of the factorizability and locality checks.

    ``max_deviation`` is the worst violation of setting independence: how
    far a component moves with a setting that :data:`CONTEXT` does not
    let it read, such as the other side's analyzers, which is also the
    locality check. A model stores one response table per side, so its
    per-atom joint is their product by construction and needs no check.
    ``normalization_error`` tracks how far weights and response tables
    stray from exact normalization; it gates ``passed`` but is reported
    separately because it measures validity, not factorizability.
    """

    passed: bool
    max_deviation: float
    normalization_error: float


#: Fixed offsets (radians) used to probe setting independence.
_PROBE_OFFSETS = (0.9, 2.1, 3.3)

#: The two settings each component may not read, which the probe moves.
_UNREAD = {c: tuple(s for s in SETTINGS if s not in reads) for c, reads in CONTEXT.items()}

#: Slack on negative response probabilities, normalization and locality.
_FACTORIZABILITY_TOL = 1e-12


def check_factorizability(model: HVModel) -> FactorizabilityReport:
    """Verify setting independence and normalization of a model.

    Each component must not move when the two settings that
    :data:`CONTEXT` does not let it read move by fixed probe offsets, each
    alone and then both together. Models built by
    :func:`build_contextual_model` pass with deviation exactly zero; the
    check guards hand-built or file-loaded models. Every check allows
    1e-12. An entry at the model's scenario outside [-1e-12, 1 + 1e-12], or
    a table at a probe that breaks the table rule (``_floats``), raises
    :class:`DistributionError`; a moved table need not be a distribution,
    as it counts as deviation.
    """
    tol = _FACTORIZABILITY_TOL
    sc = model.scenario
    normalization = deviation = 0.0
    for component in CONTEXT:
        table = model.table(component)
        for dist in (table,) if component == "weights" else table:  # a side holds one per atom
            for p in dist:
                if not -tol <= p <= 1.0 + tol:  # also NaN; so no fsum overflows
                    raise DistributionError(f"response probability is invalid: {p!r}")
            normalization = max(normalization, abs(math.fsum(dist) - 1.0))
        one, other = _UNREAD[component]
        for delta in _PROBE_OFFSETS:
            for names in ((one,), (other,), (one, other)):
                probe = replace(sc, **{name: getattr(sc, name) + delta for name in names})
                moved = model.table(component, probe)
                if moved != table:  # an unmoved component deviates by 0
                    moved = _floats(component, moved, model.n_atoms)  # so no NaN deviation
                    deviation = max(deviation, float(np.max(np.abs(np.subtract(table, moved)))))

    return FactorizabilityReport(
        passed=deviation <= tol and normalization <= tol,
        max_deviation=deviation,
        normalization_error=normalization,
    )


#: Each observable's side (0 for particle 1) and its slot in that side's
#: sign pair: ``OBSERVABLES`` alternates the sides, early time first.
_SIDE_SLOTS = {obs: (i % 2, i // 2) for i, obs in enumerate(OBSERVABLES)}


def hv_correlator(model: HVModel, pair: Sequence[str]) -> float:
    """Cross-side correlator of the model: sum over atoms of
    weight times the product of the two side conditional expectations.

    ``pair`` must name one observable from each side, e.g. ("A1", "B2").
    """
    pair = sequence(pair, "pair", UnknownPairError, 2)
    slots = dict(_SIDE_SLOTS[observable(label)] for label in pair)
    if slots.keys() != {0, 1}:
        raise UnknownPairError(
            f"pair {pair!r} must combine one of A1/A2 with one of B1/B2; "
            "same-side products are not conditionally independent"
        )
    slot1, slot2 = slots[0], slots[1]
    total = 0.0
    for w, t1, t2 in zip(*map(model.table, CONTEXT)):
        e1 = math.fsum((s1, s2)[slot1] * p for (s1, s2), p in zip(SIGN_PAIRS, t1))
        e2 = math.fsum((s1, s2)[slot2] * p for (s1, s2), p in zip(SIGN_PAIRS, t2))
        total += w * e1 * e2
    return total


def model_from_tables(
    scenario: Scenario,
    atom_ids: Sequence[str],
    weights: Sequence[float],
    side1: Sequence[Sequence[float]],
    side2: Sequence[Sequence[float]],
) -> HVModel:
    """Wrap static weights and response tables (e.g. loaded from disk) as a
    model whose components return them whole at every scenario. The
    weights must form a distribution over the atom ids, and each side's
    tables meet the table rule (``_floats``); all are kept as floats."""
    ids = sequence(atom_ids, "atom ids", DistributionError)
    w = probabilities(weights, "atom weight", len(ids))
    s1, s2 = _floats("side1", side1, len(ids)), _floats("side2", side2, len(ids))
    return HVModel(
        scenario=scenario,
        atom_ids=ids,
        weights=lambda _scenario: w,  # each component reads no setting
        side1=lambda _scenario: s1,
        side2=lambda _scenario: s2,
    )


_MODEL_FORMAT = "hvmodel-v1"


def save_model(model: HVModel, path: str | Path) -> None:
    """Write a model to disk in the documented JSON schema."""
    sc = model.scenario
    doc = {
        "format": _MODEL_FORMAT,
        "scenario": {"mode": sc.mode.value, **{name: getattr(sc, name) for name in SETTINGS}},
        "context": CONTEXT,
        "atoms": [
            {"id": atom_id, "weight": w, "side1": list(t1), "side2": list(t2)}
            for atom_id, w, t1, t2 in zip(model.atom_ids, *map(model.table, CONTEXT))
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> HVModel:
    """Read a model written by :func:`save_model`.

    Raises :class:`ModelFormatError` unless the document has the schema's
    keys and JSON types, exactly the ``context`` block of :data:`CONTEXT`,
    weights that form a distribution and tables of four entries. Whether
    the tables are distributions is left to :func:`check_factorizability`,
    whose probe the loaded constants pass by construction.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too many digits or too deep
        raise ModelFormatError(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ModelFormatError(f"expected format {_MODEL_FORMAT!r}")
    if doc.get("context") != {c: list(reads) for c, reads in CONTEXT.items()}:
        raise ModelFormatError(f"context must be {json.dumps(CONTEXT)}")
    try:
        sc_doc = doc["scenario"]
        scenario = Scenario(
            **{name: sc_doc[name] for name in SETTINGS}, mode=Mode(sc_doc["mode"])
        )
        atoms = doc["atoms"]
        # model_from_tables checks the ids, weights, tables and entries.
        return model_from_tables(
            scenario,
            *([atom[key] for atom in atoms] for key in ("id", "weight", "side1", "side2")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc


@dataclass(frozen=True)
class PairTargets:
    """The four pairwise distributions a joint distribution must match.

    A field per ``CROSS_PAIRS`` entry holds that pair. Consistency of
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


def _pair_cells(x: float, y: float, e: float) -> tuple[float, ...]:
    """The pair distribution whose two means are ``x`` and ``y`` and whose
    correlator is ``e``: p(s, t) = (1 + s*x + t*y + s*t*e) / 4 over the
    sign pairs in canonical order. Two +-1 outcomes have no other."""
    return tuple((1.0 + s * x + t * y + s * t * e) / 4 for s, t in SIGN_PAIRS)


def pair_targets_from_correlators(correlators: CorrelatorSet) -> PairTargets:
    """Targets with unbiased marginals: p(s1, s2) = (1 + s1*s2*e) / 4."""
    return PairTargets(**{
        name: PairDistribution(*pair, _pair_cells(0.0, 0.0, getattr(correlators, f"e_{name}")))
        for name, pair in CROSS_PAIRS.items()
    })


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

    ``signs`` applies to the correlators in ``CROSS_PAIRS`` order; the
    product of the four signs is -1.
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


#: Slack on the shared marginals, the CHSH variants and the LP's residual.
_FEASIBILITY_TOL = 1e-9

#: Linear system over the 16 quadruples' weights: a row per target cell,
#: the pairs in ``CROSS_PAIRS`` order and their cells in canonical order,
#: then the row that sums the weights to 1.
_FEASIBILITY_ROWS = np.array(
    [
        [1.0 if (q[slot1], q[slot2]) == cell else 0.0 for q in QUADRUPLES]
        for slot1, slot2 in PAIR_SLOTS.values()
        for cell in SIGN_PAIRS
    ]
    + [[1.0] * len(QUADRUPLES)]
)
_FEASIBILITY_ROWS.setflags(write=False)


def _means(targets: PairTargets) -> dict[str, float]:
    """Each observable's mean over the two pairs that hold it; raises
    :class:`InconsistentTargetsError` where their P(+1) differ by over 1e-9."""
    means = {}
    for obs in OBSERVABLES:
        m1, m2 = [getattr(targets, name).marginal(obs, 1)
                  for name, pair in CROSS_PAIRS.items() if obs in pair]
        if abs(m1 - m2) > _FEASIBILITY_TOL:
            raise InconsistentTargetsError(
                f"targets disagree on P({obs}=+1): {m1!r} vs {m2!r}"
            )
        means[obs] = m1 + m2 - 1.0  # the mean of 2*m1 - 1 and 2*m2 - 1
    return means


def noncontextual_feasibility(targets: PairTargets) -> FeasibilityResult:
    """Does one joint distribution over (A1, A2, B1, B2) match all four
    pairwise targets?

    Fine's theorem decides (A. Fine, PRL 48, 291, 1982): for consistent
    targets a joint exists exactly when no CHSH sign variant exceeds 2.
    The verdict is "feasible" when every variant is at most ``2 + 1e-9``;
    otherwise the largest variant is the certificate. A feasible verdict
    carries a witness from linear feasibility over the 16 outcome
    quadruples (the mixture weights of the deterministic assignments).
    Where the targets' own cells admit none, one retry rebuilds each pair
    from its averaged means and its correlator, all scaled by 1 - 5e-10.
    """
    tol = _FEASIBILITY_TOL
    means = _means(targets)
    correlators = targets.correlators()
    variants = chsh_variant_values(correlators)
    best_signs = max(variants, key=lambda signs: variants[signs])
    if variants[best_signs] > CLASSICAL_BOUND + tol:
        return FeasibilityResult(
            verdict=Verdict.INFEASIBLE,
            joint=None,
            certificate=ChshCertificate(signs=best_signs, value=variants[best_signs]),
        )

    own = [p for name in CROSS_PAIRS for p in getattr(targets, name).probs]
    # Near a facet the phase-1 residual is about 2.5 times the CHSH excess,
    # and shared marginals may differ by tol: both can exceed tol. Rebuilt
    # pairs share the averaged marginals, and k = 1 - tol/2 (a tol/2 mix
    # toward uniform) scales every variant to at most
    # (CLASSICAL_BOUND + tol) * k < CLASSICAL_BOUND, where Fine's theorem
    # guarantees a joint. No cell moves by more than 0.875 * tol. A
    # generator: built only if the targets' own cells admit no witness.
    k = 1.0 - 0.5 * tol
    rebuilt = (
        p for (first, second), e in zip(CROSS_PAIRS.values(), correlators.as_tuple())
        for p in _pair_cells(k * means[first], k * means[second], k * e)
    )
    for cells in (own, rebuilt):
        result = solve_equality_feasibility(_FEASIBILITY_ROWS, np.array([*cells, 1.0]), tol=tol)
        if result.feasible:
            probs = result.x / result.x.sum()
            return FeasibilityResult(
                verdict=Verdict.FEASIBLE,
                joint=GrandJointDistribution(tuple(probs.tolist())),
                certificate=None,
            )
    raise RuntimeError(
        "no joint distribution although no CHSH variant exceeds 2; "
        "this contradicts Fine's theorem"
    )
