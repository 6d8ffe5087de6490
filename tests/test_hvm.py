"""Unit tests for hidden-variable models and joint feasibility."""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprb_lab import hvm
from eprb_lab.errors import (
    DistributionError,
    InconsistentTargetsError,
    InvalidScenarioError,
    ModelFormatError,
    UnknownPairError,
)
from eprb_lab.hvm import (
    CHSH_SIGN_VARIANTS,
    ChshCertificate,
    HVModel,
    PairTargets,
    Verdict,
    build_contextual_model,
    check_factorizability,
    chsh_variant_values,
    hv_correlator,
    induced_distribution,
    load_model,
    model_from_tables,
    noncontextual_feasibility,
    pair_targets_from_correlators,
    pair_targets_from_scenario,
    save_model,
)
from eprb_lab.linfeas import solve_equality_feasibility
from eprb_lab.quantum import (
    CROSS_PAIRS,
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

ANALYTIC_TOL = 1e-12
TSIRELSON = 2.0 * math.sqrt(2.0)
MAGIC = Scenario(0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, 5.0 * math.pi / 4.0, mode=Mode.EPRB)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
scenarios = st.builds(Scenario, a=angles, a_prime=angles, b=angles, b_prime=angles)
eprb_scenarios = st.builds(
    Scenario, a=angles, a_prime=angles, b=angles, b_prime=angles, mode=st.just(Mode.EPRB)
)


@st.composite
def perturbed_feasible_targets(draw) -> PairTargets:
    """Pair marginals of a random joint, each cell moved by up to 1e-9.

    Half the joints are made flip-symmetric (q and -q equally likely),
    which gives unbiased targets; the rest are biased.
    """
    weights = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(any))
    )
    joint = weights / weights.sum()
    if draw(st.booleans()):
        # QUADRUPLES[15 - i] is QUADRUPLES[i] with every sign flipped.
        joint = 0.5 * (joint + joint[::-1])
    d = GrandJointDistribution(tuple(joint))
    pairs = {}
    for name, pair in CROSS_PAIRS.items():
        delta = np.array(draw(st.lists(st.floats(-5e-10, 5e-10), min_size=4, max_size=4)))
        probs = np.clip(np.array(marginal_pair(d, pair).probs) + delta - delta.mean(), 0.0, None)
        pairs[name] = PairDistribution(*pair, tuple(probs / probs.sum()))
    return PairTargets(**pairs)


def _shifted_a1_marginal(correlators: CorrelatorSet, shift: float) -> PairTargets:
    """Unbiased targets with P(A1=+1) in ``ab_prime`` moved by ``shift``."""
    base = pair_targets_from_correlators(correlators)
    pp, pm, mp, mm = base.ab_prime.probs
    return replace(base, ab_prime=PairDistribution("A1", "B2", (pp + shift, pm, mp - shift, mm)))


#: At a CHSH facet (largest variant 2 + 8e-10) with P(A1=+1) in ``ab_prime``
#: moved by -9.9e-10: the witness needs both the mix toward uniform and
#: the averaged marginals.
BOTH_REPAIRS = _shifted_a1_marginal(CorrelatorSet(0.5, -0.5 + 1.18e-9, 0.5, 0.5), -9.9e-10)


def plain_document() -> dict:
    """A valid one-atom model file that reads no setting."""
    return {
        "format": "hvmodel-v1",
        "scenario": {"mode": "sequential", "a": 0.0, "a_prime": 0.5, "b": 1.0, "b_prime": 1.5},
        "context": {"weights": ["a", "b"], "side1": ["a", "a_prime"], "side2": ["b", "b_prime"]},
        "atoms": [
            {"id": "l0", "weight": 1.0, "side1": [1.0, 0.0, 0.0, 0.0],
             "side2": [0.0, 1.0, 0.0, 0.0]}
        ],
    }


def sign_model(weight) -> HVModel:
    """Atoms (alpha, beta) with A1 = A2 = alpha and B1 = B2 = beta.

    The responses read no setting; ``weight(alpha, beta, scenario)`` gives
    each atom's weight.
    """
    point_mass = {
        sign: tuple(1.0 if pair == (sign, sign) else 0.0 for pair in SIGN_PAIRS) for sign in (1, -1)
    }
    return HVModel(
        scenario=Scenario(0.3, 1.7, 2.2, 5.1),
        atom_ids=("++", "+-", "-+", "--"),
        weights=lambda sc: [weight(alpha, beta, sc) for alpha, beta in SIGN_PAIRS],
        side1=lambda sc: [point_mass[alpha] for alpha, _ in SIGN_PAIRS],
        side2=lambda sc: [point_mass[beta] for _, beta in SIGN_PAIRS],
    )


def deterministic_model(side1_pair: int, side2_pair: int) -> HVModel:
    """Single-atom model with point-mass responses at the given pair slots."""
    t1 = tuple(1.0 if i == side1_pair else 0.0 for i in range(4))
    t2 = tuple(1.0 if i == side2_pair else 0.0 for i in range(4))
    return model_from_tables(Scenario(0.0, 0.0, 0.0, 0.0), ("l0",), (1.0,), (t1,), (t2,))


class TestBuildContextualModel:
    def test_weights_at_aligned_analyzers(self):
        model = build_contextual_model(Scenario(a=0.9, a_prime=0.0, b=0.9, b_prime=0.0))
        # Sign pairs order (++, +-, -+, --): anticorrelated pairs get 1/2.
        assert model.table("weights") == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=ANALYTIC_TOL)

    def test_weights_at_right_angle(self):
        model = build_contextual_model(
            Scenario(a=math.pi / 2.0, a_prime=0.0, b=0.0, b_prime=0.0)
        )
        assert model.table("weights") == pytest.approx((0.25,) * 4, abs=ANALYTIC_TOL)

    def test_eprb_mode_rejected(self):
        with pytest.raises(InvalidScenarioError):
            build_contextual_model(Scenario(0.0, 1.0, 2.0, 3.0, mode=Mode.EPRB))

    def test_context_descriptor(self):
        # The model's weights read the first-round pair, each side its own pair.
        assert hvm.CONTEXT == {
            "weights": ("a", "b"), "side1": ("a", "a_prime"), "side2": ("b", "b_prime")
        }

    @given(scenarios)
    @settings(max_examples=100)
    @example(Scenario(0.0, 0.0, 0.0, 0.0))
    @example(Scenario(0.0, math.pi, math.pi / 2.0, -math.pi / 2.0))
    @example(Scenario(1.1, 0.3, 1.1, 2.2))
    def test_reconstructs_exact_distribution(self, sc: Scenario):
        # Bit for bit: both multiply the same three closed forms in one order.
        induced = induced_distribution(build_contextual_model(sc))
        assert induced.probs == grand_joint_quantum(sc).probs

    @given(scenarios, angles)
    @settings(max_examples=50)
    def test_context_lives_in_weights_only(self, sc: Scenario, delta: float):
        # Moving the first analyzer changes the preparation weights but
        # not the other particle's response table.
        moved = Scenario(sc.a + delta, sc.a_prime, sc.b, sc.b_prime)
        m1 = build_contextual_model(sc)
        m2 = build_contextual_model(moved)
        assert m1.table("side2") == m2.table("side2")
        if abs(math.cos(sc.theta_ab) - math.cos(moved.theta_ab)) > 1e-9:
            assert m1.table("weights") != m2.table("weights")


class TestInducedDistribution:
    def test_single_deterministic_atom(self):
        # Side 1 locked to (A1, A2) = (+1, +1); side 2 to (B1, B2) = (+1, -1).
        model = deterministic_model(0, 1)
        d = induced_distribution(model)
        assert d.prob((1, 1, 1, -1)) == 1.0

    def test_two_atom_mixture(self):
        model = model_from_tables(
            Scenario(0.0, 0.0, 0.0, 0.0),
            ("l0", "l1"),
            (0.5, 0.5),
            ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
            ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
        )
        d = induced_distribution(model)
        assert d.prob((1, 1, 1, -1)) == 0.5
        assert d.prob((-1, -1, -1, -1)) == 0.5

    def test_unit_transitions(self):
        sc = Scenario(a=math.pi / 3.0, a_prime=math.pi / 3.0, b=0.0, b_prime=0.0)
        d = induced_distribution(build_contextual_model(sc))
        assert d.probs == grand_joint_quantum(sc).probs


class TestHVModelValidation:
    def test_weight_normalization_enforced(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0",),
                (0.5,),
                ((1.0, 0.0, 0.0, 0.0),),
                ((1.0, 0.0, 0.0, 0.0),),
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0", "l1"),
                (1.5, -0.5),
                ((1.0, 0.0, 0.0, 0.0),) * 2,
                ((1.0, 0.0, 0.0, 0.0),) * 2,
            )

    def test_duplicate_atom_ids_rejected(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0", "l0"),
                (0.5, 0.5),
                ((1.0, 0.0, 0.0, 0.0),) * 2,
                ((1.0, 0.0, 0.0, 0.0),) * 2,
            )

    def test_table_length_enforced(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0",),
                (1.0,),
                ((1.0, 0.0, 0.0),),
                ((1.0, 0.0, 0.0, 0.0),),
            )

    @pytest.mark.parametrize("side", ["side1", "side2"])
    @pytest.mark.parametrize("length", [3, 5])
    def test_side_table_length_enforced(self, side, length):
        # zip would cut a long table short in hv_correlator; a short one
        # raised IndexError in induced_distribution.
        parts = {name: lambda sc: [(1.0, 0.0, 0.0, 0.0)] for name in ("side1", "side2")}
        parts[side] = lambda sc: [(1.0,) + (0.0,) * (length - 1)]
        message = f"^response table must be a sequence of 4, got {length} items$"
        with pytest.raises(DistributionError, match=message):
            HVModel(ONE_ATOM["scenario"], ("l0",), lambda sc: [1.0], **parts)


class TestCheckFactorizability:
    def test_constructor_model_passes_exactly(self):
        model = build_contextual_model(Scenario(0.3, 1.7, 2.2, 5.1))
        report = check_factorizability(model)
        assert report.passed
        assert report.max_deviation == 0.0

    @pytest.mark.parametrize(
        "component, setting",
        [
            ("weights", "a_prime"), ("weights", "b_prime"), ("side1", "b"),
            ("side1", "b_prime"), ("side2", "a"), ("side2", "a_prime"),
        ],
    )
    def test_signaling_model_fails(self, component, setting):
        # One component reads a setting it may not: the weights a second-round
        # analyzer, or a side one of the opposite side's analyzers.
        def q(sc):
            return 0.25 * (1.0 + math.cos(getattr(sc, setting)))

        parts = {
            "weights": lambda sc: [0.5, 0.5],
            "side1": lambda sc: [(0.25, 0.25, 0.25, 0.25)] * 2,
            "side2": lambda sc: [(0.25, 0.25, 0.25, 0.25)] * 2,
        }
        parts[component] = {
            "weights": lambda sc: [q(sc), 1.0 - q(sc)],
            "side1": lambda sc: [(q(sc), 0.5 - q(sc), 0.25, 0.25)] * 2,
            "side2": lambda sc: [(q(sc), 0.5 - q(sc), 0.25, 0.25)] * 2,
        }[component]
        model = HVModel(Scenario(0.3, 1.7, 2.2, 5.1), ("l0", "l1"), **parts)
        report = check_factorizability(model)
        assert not report.passed
        assert report.max_deviation > 1e-3

    def test_weights_reading_unlisted_setting_fails(self):
        model = sign_model(
            lambda alpha, beta, sc: 0.25 * (1.0 - alpha * beta * math.cos(sc.a_prime - sc.b))
        )
        report = check_factorizability(model)
        assert not report.passed
        assert report.max_deviation > 1e-3

    def test_setting_dependent_weights_pass_exactly(self):
        # Weights read a and b, as CONTEXT allows; the responses read none.
        model = sign_model(
            lambda alpha, beta, sc: 0.25 * (1.0 - alpha * beta * math.cos(sc.a - sc.b))
        )
        report = check_factorizability(model)
        assert report.passed
        assert report.max_deviation == 0.0
        assert report.normalization_error <= 1e-15
        assert hv_correlator(model, ("A1", "B1")) == pytest.approx(
            -math.cos(0.3 - 2.2), abs=ANALYTIC_TOL
        )

    def test_loaded_model_passes(self, tmp_path):
        model = build_contextual_model(Scenario(0.3, 1.7, 2.2, 5.1))
        path = tmp_path / "model.json"
        save_model(model, path)
        report = check_factorizability(load_model(path))
        assert report.passed

    def test_invalid_response_probability_rejected(self):
        model = model_from_tables(
            Scenario(0.0, 0.0, 0.0, 0.0),
            ("l0",),
            (1.0,),
            ((1.5, -0.5, 0.0, 0.0),),
            ((1.0, 0.0, 0.0, 0.0),),
        )
        with pytest.raises(DistributionError):
            check_factorizability(model)

    def test_entries_whose_sum_overflows_rejected(self, tmp_path):
        # Finite numbers, so the model builds and loads; their fsum overflows.
        built = model_from_tables(**{**ONE_ATOM, "side1": ((1e308, 1e308, 0.0, 0.0),)})
        path = tmp_path / "model.json"
        save_model(built, path)
        for model in (built, load_model(path)):
            with pytest.raises(DistributionError, match=r"^response probability is invalid: 1e\+308$"):
                check_factorizability(model)

    @pytest.mark.parametrize("component", ["weights", "side1", "side2"])
    def test_nan_at_a_probe_scenario_rejected(self, component):
        # Finite at the model's own scenario, NaN once a setting that the
        # component may not read moves: max() would drop the NaN deviation
        # and report a pass.
        setting = {"weights": "a_prime", "side1": "b", "side2": "a"}[component]
        own = Scenario(0.0, 0.0, 0.0, 0.0)
        steady = {"weights": 1.0, "side1": (1.0, 0.0, 0.0, 0.0), "side2": (1.0, 0.0, 0.0, 0.0)}
        nan = math.nan if component == "weights" else (math.nan,) * 4
        parts = {name: (lambda sc, value=value: [value]) for name, value in steady.items()}
        parts[component] = lambda sc: [steady[component] if getattr(sc, setting) == 0.0 else nan]
        model = HVModel(scenario=own, atom_ids=("l0",), **parts)
        with pytest.raises(DistributionError):
            check_factorizability(model)

    @pytest.mark.parametrize("side", ["side1", "side2"])
    def test_short_table_at_a_probe_scenario_rejected(self, side):
        # Four entries at the model's own scenario, three once the opposite
        # side's analyzer moves: zip would compare the first three only.
        opposite = {"side1": "b", "side2": "a"}[side]
        full = (1.0, 0.0, 0.0, 0.0)
        parts = {name: lambda sc: [full] for name in ("side1", "side2")}
        parts[side] = lambda sc: [full if getattr(sc, opposite) == 0.0 else full[:3]]
        model = HVModel(ONE_ATOM["scenario"], ("l0",), lambda sc: [1.0], **parts)
        with pytest.raises(DistributionError, match="^response table must be a sequence of 4"):
            check_factorizability(model)


#: Arguments of a valid one-atom model_from_tables call.
ONE_ATOM = {
    "scenario": Scenario(0.0, 0.0, 0.0, 0.0),
    "atom_ids": ("l0",),
    "weights": (1.0,),
    "side1": ((1.0, 0.0, 0.0, 0.0),),
    "side2": ((1.0, 0.0, 0.0, 0.0),),
}


class TestNoCoercion:
    """Models built in code meet the type rule of model files."""

    def test_valid_arguments_build(self):
        assert model_from_tables(**ONE_ATOM).table("weights") == (1.0,)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("atom_ids", (7,)),
            ("weights", (True,)),
            ("weights", ("1.0",)),
            ("weights", (10**400,)),
            ("side1", (("1", "0", 0, 0),)),
            ("side1", ((True, False, False, False),)),
            ("side2", ((1.0, 0.0, 0.0, math.nan),)),
            ("side2", ((1.0, 0.0, 0.0, math.inf),)),
        ],
        ids=[
            "integer-id",
            "bool-weight",
            "string-weight",
            "weight-past-float-range",
            "string-entries",
            "bool-entries",
            "nan-entry",
            "infinite-entry",
        ],
    )
    def test_model_from_tables_refuses(self, field, value):
        with pytest.raises(DistributionError):
            model_from_tables(**{**ONE_ATOM, field: value})

    @pytest.mark.parametrize(
        "atom_ids, weight",
        [((7,), 1.0), (("l0",), True)],
        ids=["integer-id", "bool-weight"],
    )
    def test_hv_model_refuses(self, atom_ids, weight):
        with pytest.raises(DistributionError):
            HVModel(
                scenario=ONE_ATOM["scenario"],
                atom_ids=atom_ids,
                weights=lambda sc: [weight],
                side1=lambda sc: [(1.0, 0.0, 0.0, 0.0)],
                side2=lambda sc: [(1.0, 0.0, 0.0, 0.0)],
            )

    @pytest.mark.parametrize(
        "entry", [True, None, "1", 1 + 0j], ids=["bool", "none", "string", "complex"]
    )
    def test_hv_model_refuses_response_entries_that_need_coercing(self, entry):
        # Without the table rule at construction, a bool entry passed
        # check_factorizability and the others raised a bare TypeError there.
        message = f"^response entry must be a finite number, got {re.escape(repr(entry))}$"
        with pytest.raises(DistributionError, match=message):
            model = HVModel(
                scenario=ONE_ATOM["scenario"],
                atom_ids=("l0",),
                weights=lambda sc: [1.0],
                side1=lambda sc: [(entry, False, False, False)],
                side2=lambda sc: [(1.0, 0.0, 0.0, 0.0)],
            )
            check_factorizability(model)


class TestHvCorrelator:
    def test_deterministic_anticorrelation(self):
        # A1 = +1 and B1 = -1 deterministically.
        model = deterministic_model(0, 2)
        assert hv_correlator(model, ("A1", "B1")) == -1.0

    def test_uniform_responses_vanish(self):
        model = model_from_tables(
            Scenario(0.0, 0.0, 0.0, 0.0),
            ("l0",),
            (1.0,),
            ((0.25, 0.25, 0.25, 0.25),),
            ((0.25, 0.25, 0.25, 0.25),),
        )
        assert hv_correlator(model, ("A1", "B2")) == 0.0

    def test_constructor_matches_closed_form(self):
        sc = Scenario(0.4, 1.3, 2.7, 4.9)
        model = build_contextual_model(sc)
        expected = -math.cos(sc.theta_ab) * math.cos(sc.theta_bb_prime)
        assert hv_correlator(model, ("A1", "B2")) == pytest.approx(
            expected, abs=ANALYTIC_TOL
        )

    def test_reversed_pair_order(self):
        model = build_contextual_model(Scenario(0.4, 1.3, 2.7, 4.9))
        assert hv_correlator(model, ("B2", "A1")) == hv_correlator(model, ("A1", "B2"))

    def test_same_side_pairs_rejected(self):
        model = build_contextual_model(Scenario(0.4, 1.3, 2.7, 4.9))
        with pytest.raises(UnknownPairError):
            hv_correlator(model, ("A1", "A2"))
        with pytest.raises(UnknownPairError):
            hv_correlator(model, ("B1", "B2"))
        with pytest.raises(UnknownPairError):
            hv_correlator(model, ("A1",))
        with pytest.raises(UnknownPairError):
            hv_correlator(model, ("A1", "C1"))

    @given(scenarios)
    @settings(max_examples=50)
    def test_matches_induced_marginals(self, sc: Scenario):
        model = build_contextual_model(sc)
        induced = induced_distribution(model)
        for pair in (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2")):
            direct = correlator_pair(marginal_pair(induced, pair))
            assert hv_correlator(model, pair) == pytest.approx(direct, abs=ANALYTIC_TOL)


class TestModelFile:
    def test_round_trip_is_value_exact(self, tmp_path):
        model = build_contextual_model(Scenario(0.37, 1.71, 2.29, 5.13))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.scenario == model.scenario
        assert loaded.atom_ids == model.atom_ids
        for component in ("weights", "side1", "side2"):
            assert loaded.table(component) == model.table(component)

    #: Analyzer angles (degrees) of the ``seq`` and ``seq-aligned`` golden
    #: configs -> SHA-256 of the model file that ``save_model`` writes there.
    SAVED_GOLDEN = {
        (0.0, 36.0, 60.0, 102.0): "f7dd0f77db6a9b7f1384ea5ce57f944e10fd3675ec0ef20ebd0f0d997eff8633",
        (20.0, 70.0, 20.0, 110.0): "54f9318af1e82c14ee468b1dba1ea92adec353c0cc9ad7142769e3b6bf469cbb",
    }

    @pytest.mark.parametrize("degrees", list(SAVED_GOLDEN), ids=["seq", "seq-aligned"])
    def test_saved_bytes_are_pinned(self, tmp_path, degrees):
        path = tmp_path / "model.json"
        save_model(build_contextual_model(Scenario(*map(math.radians, degrees))), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SAVED_GOLDEN[degrees]

    @given(scenarios)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, sc: Scenario):
        # save_model writes each float's shortest repr, so saving the loaded
        # model again gives the same bytes exactly when every weight and
        # table entry came back bit for bit.
        model = build_contextual_model(sc)
        first = tmp_path_factory.mktemp("model") / "first.json"
        again = first.with_name("again.json")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, again)
        assert again.read_bytes() == first.read_bytes()
        assert induced_distribution(loaded).probs == induced_distribution(model).probs

    def test_round_trip_preserves_statistics(self, tmp_path):
        model = build_contextual_model(Scenario(0.37, 1.71, 2.29, 5.13))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert induced_distribution(loaded).probs == induced_distribution(model).probs

    def test_readme_example_loads(self, tmp_path):
        # The JSON block of README's "Model files" section is a whole model.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Model files\n", 1)[1]
        path = tmp_path / "model.json"
        path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
        model = load_model(path)
        assert model.atom_ids == ("++", "+-", "-+", "--")
        report = check_factorizability(model)
        assert report.passed and report.max_deviation == 0.0

    def test_rejects_wrong_format_string(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "hvmodel-v2"}')
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe", b"[" * 100_000, b"1" * 5000],
        ids=["not-utf8", "too-deep", "too-many-digits"],
    )
    def test_rejects_undecodable_documents(self, tmp_path, content):
        # None of these is a JSONDecodeError: reading or decoding them raises
        # UnicodeDecodeError, RecursionError or the integer digit limit's
        # ValueError.
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "hvmodel-v1", "scenario": {"mode": "sequential"}}')
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_rejects_short_table(self, tmp_path):
        model = build_contextual_model(Scenario(0.3, 1.7, 2.2, 5.1))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["atoms"][0]["side1"] = [1.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "path_in_doc, value",
        [
            (("atoms", 0, "weight"), True),
            (("atoms", 0, "weight"), "1.0"),
            (("atoms", 0, "weight"), 10**400),
            (("atoms", 0, "side1"), ["1.0", "0.0", "0.0", "0.0"]),
            (("atoms", 0, "side2"), [1.0, 0.0, 0.0, math.nan]),
            (("atoms", 0, "id"), 7),
            (("context", "weights"), "ab"),
            (("context", "side1"), ["b"]),
        ],
        ids=[
            "bool-weight",
            "string-weight",
            "weight-past-float-range",
            "string-entries",
            "nan-entry",
            "integer-id",
            "string-context",
            "side-reads-other-side",
        ],
    )
    def test_rejects_loose_values(self, tmp_path, path_in_doc, value):
        # A coercing loader would take each of these: a bool or a string as
        # a float, "ab" as ("a", "b"), 7 as "7" and the NaN as it is, while
        # the integer past the float range would overflow in float().
        doc = plain_document()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert load_model(path).atom_ids == ("l0",)
        *parents, key = path_in_doc
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestPairTargets:
    def test_label_contract_enforced(self):
        good = pair_targets_from_correlators(CorrelatorSet(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(UnknownPairError):
            PairTargets(
                ab=good.ab_prime,
                ab_prime=good.ab_prime,
                a_prime_b=good.a_prime_b,
                a_prime_b_prime=good.a_prime_b_prime,
            )

    def test_from_correlators_round_trips(self):
        c = CorrelatorSet(-0.3, 0.8, 0.1, -0.95)
        targets = pair_targets_from_correlators(c)
        assert targets.correlators().as_tuple() == pytest.approx(
            c.as_tuple(), abs=ANALYTIC_TOL
        )

    @given(scenarios)
    @settings(max_examples=25)
    def test_from_sequential_scenario_matches_closed_form(self, sc: Scenario):
        targets = pair_targets_from_scenario(sc)
        closed = closed_form_correlators(sc)
        assert targets.correlators().as_tuple() == pytest.approx(
            closed.as_tuple(), abs=ANALYTIC_TOL
        )


class TestNoncontextualFeasibility:
    def test_sequential_targets_feasible_with_witness(self):
        sc = Scenario(0.3, 1.7, 2.2, 5.1)
        targets = pair_targets_from_scenario(sc)
        result = noncontextual_feasibility(targets)
        assert result.verdict is Verdict.FEASIBLE
        assert result.certificate is None
        for name, pair in (
            ("ab", ("A1", "B1")),
            ("ab_prime", ("A1", "B2")),
            ("a_prime_b", ("A2", "B1")),
            ("a_prime_b_prime", ("A2", "B2")),
        ):
            witness_pair = marginal_pair(result.joint, pair)
            target_pair = getattr(targets, name)
            for p, q in zip(witness_pair.probs, target_pair.probs):
                assert p == pytest.approx(q, abs=1e-9)

    @given(eprb_scenarios)
    @settings(max_examples=100, deadline=None)
    # Within tol above the facet: the witness comes from mixed-in targets.
    @example(Scenario(a=0, a_prime=1, b=0, b_prime=1e-9, mode=Mode.EPRB))
    def test_witness_matches_every_pair_target(self, sc: Scenario):
        targets = pair_targets_from_scenario(sc)
        result = noncontextual_feasibility(targets)
        if result.verdict is Verdict.FEASIBLE:
            for name, pair in CROSS_PAIRS.items():
                got = marginal_pair(result.joint, pair).probs
                assert got == pytest.approx(getattr(targets, name).probs, abs=1e-9)

    def test_uniform_targets_feasible(self):
        targets = pair_targets_from_correlators(CorrelatorSet(0.0, 0.0, 0.0, 0.0))
        result = noncontextual_feasibility(targets)
        assert result.verdict is Verdict.FEASIBLE
        assert math.fsum(result.joint.probs) == pytest.approx(1.0, abs=1e-12)

    def test_max_violating_targets_infeasible(self):
        targets = pair_targets_from_scenario(MAGIC)
        result = noncontextual_feasibility(targets)
        assert result.verdict is Verdict.INFEASIBLE
        assert result.joint is None
        cert = result.certificate
        assert isinstance(cert, ChshCertificate)
        assert cert.value == pytest.approx(TSIRELSON, abs=1e-9)
        assert cert.value > 2.0

    def test_certificate_recomputes_from_targets(self):
        targets = pair_targets_from_scenario(MAGIC)
        cert = noncontextual_feasibility(targets).certificate
        values = chsh_variant_values(targets.correlators())
        assert values[cert.signs] == pytest.approx(cert.value, abs=1e-12)

    def test_inconsistent_targets_rejected(self):
        base = pair_targets_from_correlators(CorrelatorSet(0.2, -0.1, 0.4, 0.3))
        biased = PairDistribution("A1", "B2", (0.35, 0.25, 0.15, 0.25))
        targets = PairTargets(
            ab=base.ab,
            ab_prime=biased,
            a_prime_b=base.a_prime_b,
            a_prime_b_prime=base.a_prime_b_prime,
        )
        with pytest.raises(InconsistentTargetsError):
            noncontextual_feasibility(targets)

    @given(perturbed_feasible_targets())
    @settings(max_examples=200, deadline=None)
    # Passes the consistency check, and the LP finds no witness for the
    # targets' own cells: only averaging the shared marginals resolves it.
    @example(_shifted_a1_marginal(CorrelatorSet(0.2, -0.1, 0.4, 0.3), 8e-10))
    @example(BOTH_REPAIRS)
    def test_perturbed_feasible_targets_never_raise_runtime_error(self, targets):
        try:
            result = noncontextual_feasibility(targets)
        except InconsistentTargetsError:
            return
        if result.verdict is Verdict.INFEASIBLE:
            # A perturbation can lift a CHSH variant off its facet.
            assert result.certificate.value > 2.0 + 1e-9
            return
        for name, pair in CROSS_PAIRS.items():
            got = marginal_pair(result.joint, pair).probs
            assert got == pytest.approx(getattr(targets, name).probs, abs=2e-9)

    @given(perturbed_feasible_targets())
    @settings(max_examples=100, deadline=None)
    @example(BOTH_REPAIRS)
    def test_at_most_two_solves(self, targets):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_equality_feasibility(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:  # a fixture would span all examples
            mp.setattr(hvm, "solve_equality_feasibility", counted)
            try:
                noncontextual_feasibility(targets)
            except InconsistentTargetsError:
                pass
        assert len(calls) <= 2

    def test_retry_moves_no_cell_by_more_than_seven_eighths_of_tol(self, monkeypatch):
        # Means 0.999999, each P(+1) 0.99e-9 lower in the observable's second
        # pair, correlators 1 - 2e-6: the targets' own cells admit no witness,
        # and the retry's cells must keep the bound its comment states.
        seen, pairs = set(), {}
        for name, pair in CROSS_PAIRS.items():
            means = [0.999999 - 2 * 0.99e-9 if obs in seen else 0.999999 for obs in pair]
            seen.update(pair)
            pairs[name] = PairDistribution(*pair, hvm._pair_cells(*means, 1.0 - 2e-6))
        rhs = []

        def spied(rows, b, **kwargs):
            rhs.append(b)
            return solve_equality_feasibility(rows, b, **kwargs)

        monkeypatch.setattr(hvm, "solve_equality_feasibility", spied)
        assert noncontextual_feasibility(PairTargets(**pairs)).verdict is Verdict.FEASIBLE
        assert len(rhs) == 2
        assert np.max(np.abs(rhs[1] - rhs[0])) <= 0.875 * hvm._FEASIBILITY_TOL

    def test_sign_variants_structure(self):
        assert len(CHSH_SIGN_VARIANTS) == 8
        for signs in CHSH_SIGN_VARIANTS:
            assert signs[0] * signs[1] * signs[2] * signs[3] == -1

    @given(eprb_scenarios)
    @settings(max_examples=100, deadline=None)
    # Largest variant 2 + 8.4e-10, where the phase-1 residual is 2.1e-9.
    @example(Scenario(a=0, a_prime=1, b=0, b_prime=1e-9, mode=Mode.EPRB))
    def test_duality_with_sign_variant_test(self, sc: Scenario):
        targets = pair_targets_from_scenario(sc)
        result = noncontextual_feasibility(targets)
        worst = max(chsh_variant_values(targets.correlators()).values())
        assert (result.verdict is Verdict.FEASIBLE) == (worst <= 2.0 + 1e-9)
