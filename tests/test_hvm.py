"""Unit tests for hidden-variable models and joint feasibility."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ContextDescriptor,
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
from eprb_lab.quantum import (
    CROSS_PAIRS,
    CorrelatorSet,
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

PLAIN_CONTEXT = ContextDescriptor(weights=(), side1=(), side2=())


def deterministic_model(side1_pair: int, side2_pair: int) -> HVModel:
    """Single-atom model with point-mass responses at the given pair slots."""
    t1 = tuple(1.0 if i == side1_pair else 0.0 for i in range(4))
    t2 = tuple(1.0 if i == side2_pair else 0.0 for i in range(4))
    return model_from_tables(
        Scenario(0.0, 0.0, 0.0, 0.0), ("l0",), (1.0,), (t1,), (t2,), PLAIN_CONTEXT
    )


class TestBuildContextualModel:
    def test_weights_at_aligned_analyzers(self):
        model = build_contextual_model(Scenario(a=0.9, a_prime=0.0, b=0.9, b_prime=0.0))
        # Sign pairs order (++, +-, -+, --): anticorrelated pairs get 1/2.
        assert model.weights == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=ANALYTIC_TOL)

    def test_weights_at_right_angle(self):
        model = build_contextual_model(
            Scenario(a=math.pi / 2.0, a_prime=0.0, b=0.0, b_prime=0.0)
        )
        assert model.weights == pytest.approx((0.25,) * 4, abs=ANALYTIC_TOL)

    def test_eprb_mode_rejected(self):
        with pytest.raises(InvalidScenarioError):
            build_contextual_model(Scenario(0.0, 1.0, 2.0, 3.0, mode=Mode.EPRB))

    def test_context_descriptor(self):
        model = build_contextual_model(Scenario(0.1, 0.2, 0.3, 0.4))
        assert model.context.weights == ("a", "b")
        assert model.context.side1 == ("a", "a_prime")
        assert model.context.side2 == ("b", "b_prime")

    @given(scenarios)
    @settings(max_examples=100)
    def test_reconstructs_exact_distribution(self, sc: Scenario):
        induced = induced_distribution(build_contextual_model(sc))
        exact = grand_joint_quantum(sc)
        for p, q in zip(induced.probs, exact.probs):
            assert p == pytest.approx(q, abs=ANALYTIC_TOL)

    @given(scenarios, angles)
    @settings(max_examples=50)
    def test_context_lives_in_weights_only(self, sc: Scenario, delta: float):
        # Moving the first analyzer changes the preparation weights but
        # not the other particle's response table.
        moved = Scenario(sc.a + delta, sc.a_prime, sc.b, sc.b_prime)
        m1 = build_contextual_model(sc)
        m2 = build_contextual_model(moved)
        assert m1.side2_table() == m2.side2_table()
        if abs(math.cos(sc.theta_ab) - math.cos(moved.theta_ab)) > 1e-9:
            assert m1.weights != m2.weights


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
            PLAIN_CONTEXT,
        )
        d = induced_distribution(model)
        assert d.prob((1, 1, 1, -1)) == 0.5
        assert d.prob((-1, -1, -1, -1)) == 0.5

    def test_unit_transitions(self):
        sc = Scenario(a=math.pi / 3.0, a_prime=math.pi / 3.0, b=0.0, b_prime=0.0)
        d = induced_distribution(build_contextual_model(sc))
        exact = grand_joint_quantum(sc)
        for p, q in zip(d.probs, exact.probs):
            assert p == pytest.approx(q, abs=ANALYTIC_TOL)


class TestHVModelValidation:
    def test_weight_normalization_enforced(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0",),
                (0.5,),
                ((1.0, 0.0, 0.0, 0.0),),
                ((1.0, 0.0, 0.0, 0.0),),
                PLAIN_CONTEXT,
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0", "l1"),
                (1.5, -0.5),
                ((1.0, 0.0, 0.0, 0.0),) * 2,
                ((1.0, 0.0, 0.0, 0.0),) * 2,
                PLAIN_CONTEXT,
            )

    def test_duplicate_atom_ids_rejected(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0", "l0"),
                (0.5, 0.5),
                ((1.0, 0.0, 0.0, 0.0),) * 2,
                ((1.0, 0.0, 0.0, 0.0),) * 2,
                PLAIN_CONTEXT,
            )

    def test_table_length_enforced(self):
        with pytest.raises(DistributionError):
            model_from_tables(
                Scenario(0.0, 0.0, 0.0, 0.0),
                ("l0",),
                (1.0,),
                ((1.0, 0.0, 0.0),),
                ((1.0, 0.0, 0.0, 0.0),),
                PLAIN_CONTEXT,
            )

    def test_context_descriptor_validates_names(self):
        with pytest.raises(InvalidScenarioError):
            ContextDescriptor(weights=("a", "q"), side1=(), side2=())


class TestCheckFactorizability:
    def test_constructor_model_passes_exactly(self):
        model = build_contextual_model(Scenario(0.3, 1.7, 2.2, 5.1))
        report = check_factorizability(model)
        assert report.passed
        assert report.max_deviation == 0.0
        assert report.product_deviation == 0.0
        assert report.locality_deviation == 0.0

    def test_signaling_model_fails(self):
        # A side-1 response that reads the opposite side's analyzer angle.
        def cheating_side1(i, sc):
            q = 0.25 * (1.0 + math.cos(sc.b))
            return (q, 0.5 - q, 0.25, 0.25)

        def honest_side2(i, sc):
            return (0.25, 0.25, 0.25, 0.25)

        model = HVModel(
            scenario=Scenario(0.3, 1.7, 2.2, 5.1),
            atom_ids=("l0",),
            weights=(1.0,),
            side1_response=cheating_side1,
            side2_response=honest_side2,
            context=PLAIN_CONTEXT,
        )
        report = check_factorizability(model)
        assert not report.passed
        assert report.locality_deviation > 1e-3
        assert report.max_deviation == report.locality_deviation

    def test_loaded_model_passes(self, tmp_path):
        model = build_contextual_model(Scenario(0.3, 1.7, 2.2, 5.1))
        path = tmp_path / "model.json"
        save_model(model, path)
        report = check_factorizability(load_model(path), tol=1e-12)
        assert report.passed

    def test_invalid_response_probability_rejected(self):
        model = model_from_tables(
            Scenario(0.0, 0.0, 0.0, 0.0),
            ("l0",),
            (1.0,),
            ((1.5, -0.5, 0.0, 0.0),),
            ((1.0, 0.0, 0.0, 0.0),),
            PLAIN_CONTEXT,
        )
        with pytest.raises(DistributionError):
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
            PLAIN_CONTEXT,
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
        assert loaded.weights == model.weights
        assert loaded.side1_table() == model.side1_table()
        assert loaded.side2_table() == model.side2_table()
        assert loaded.context == model.context

    def test_round_trip_preserves_statistics(self, tmp_path):
        model = build_contextual_model(Scenario(0.37, 1.71, 2.29, 5.13))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert induced_distribution(loaded).probs == induced_distribution(model).probs

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

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "hvmodel-v1", "scenario": {"mode": "sequential"}}')
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_rejects_short_table(self, tmp_path):
        model = build_contextual_model(Scenario(0.3, 1.7, 2.2, 5.1))
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        doc = json.loads(path.read_text())
        doc["atoms"][0]["side1"] = [1.0, 0.0]
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
