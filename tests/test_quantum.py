"""Unit tests for the exact two-time statistics."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprb_lab.errors import (
    CorrelatorRangeError,
    DistributionError,
    InvalidScenarioError,
    UnknownPairError,
    three_digits,
)
from eprb_lab.quantum import (
    OBSERVABLES,
    QUADRUPLES,
    SIGN_PAIRS,
    SIGNS,
    TWO_PI,
    CorrelatorSet,
    GrandJointDistribution,
    Mode,
    PairDistribution,
    Scenario,
    canonical_angle,
    closed_form_correlators,
    correlator_pair,
    grand_joint_quantum,
    marginal_pair,
)
from statevector import kron_joint, make_singlet, make_spin_state, matrix_joint, transition_prob

ANALYTIC_TOL = 1e-12

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
signs = st.sampled_from(SIGNS)
scenarios = st.builds(Scenario, a=angles, a_prime=angles, b=angles, b_prime=angles)


class TestCanonicalAngle:
    def test_exact_values(self):
        assert canonical_angle(0.0) == 0.0
        assert canonical_angle(TWO_PI) == 0.0
        assert canonical_angle(2.0 * TWO_PI) == 0.0
        assert canonical_angle(-TWO_PI) == 0.0
        # A tiny negative lands exactly on 2*pi after the shift and must
        # wrap to 0 to keep the [0, 2*pi) contract.
        assert canonical_angle(-1e-20) == 0.0
        assert canonical_angle(math.pi) == math.pi

    @pytest.mark.parametrize("zero", [0.0, -0.0, TWO_PI, -TWO_PI, 4.0 * TWO_PI])
    def test_zero_is_positive_zero(self, zero):
        assert math.copysign(1.0, canonical_angle(zero)) == 1.0

    def test_small_negative(self):
        value = canonical_angle(-1e-9)
        assert 0.0 <= value < TWO_PI
        assert value == pytest.approx(TWO_PI - 1e-9, abs=1e-15)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidScenarioError):
                canonical_angle(bad)

    def test_int_beyond_the_float_range_rejected(self):
        with pytest.raises(InvalidScenarioError, match=r"^angle must be a finite number, got 1\.00e\+400$"):
            canonical_angle(10**400)

    @given(angles)
    def test_range_and_idempotence(self, x: float):
        reduced = canonical_angle(x)
        assert 0.0 <= reduced < TWO_PI
        assert canonical_angle(reduced) == reduced

    @given(st.floats(min_value=-10.0 * TWO_PI, max_value=10.0 * TWO_PI))
    def test_preserves_cosine(self, x: float):
        assert math.cos(canonical_angle(x)) == pytest.approx(
            math.cos(x), abs=ANALYTIC_TOL
        )


class TestScenario:
    def test_canonicalizes_on_construction(self):
        sc = Scenario(a=-1.0, a_prime=TWO_PI + 0.5, b=3.0, b_prime=0.0)
        assert sc.a == canonical_angle(-1.0)
        assert sc.a_prime == canonical_angle(TWO_PI + 0.5)
        assert sc.b == 3.0
        assert sc.mode is Mode.SEQUENTIAL

    def test_theta_properties(self):
        sc = Scenario(a=1.0, a_prime=2.5, b=0.25, b_prime=4.0)
        assert sc.theta_ab == 1.0 - 0.25
        assert sc.theta_ab_prime == 1.0 - 4.0
        assert sc.theta_a_prime_b == 2.5 - 0.25
        assert sc.theta_a_prime_b_prime == 2.5 - 4.0
        assert sc.theta_aa_prime == 1.0 - 2.5
        assert sc.theta_bb_prime == 0.25 - 4.0

    def test_frozen(self):
        sc = Scenario(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            sc.a = 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidScenarioError):
            Scenario(a="abc", a_prime=0.0, b=0.0, b_prime=0.0)
        with pytest.raises(InvalidScenarioError):
            Scenario(a=True, a_prime=0.0, b=0.0, b_prime=0.0)
        with pytest.raises(InvalidScenarioError):
            Scenario(a=math.inf, a_prime=0.0, b=0.0, b_prime=0.0)
        with pytest.raises(InvalidScenarioError):
            Scenario(0.0, 0.0, 0.0, 0.0, mode="sequential")

    @pytest.mark.parametrize("name", ["a", "a_prime", "b", "b_prime"])
    @pytest.mark.parametrize(
        "huge", [2**1024, -(10**400), 10**5000], ids=["2^1024", "-10^400", "10^5000"]
    )
    def test_int_angle_beyond_the_float_range_rejected(self, name, huge):
        angles = dict.fromkeys(("a", "a_prime", "b", "b_prime"), 0)
        message = f"angle {name} must be a finite number, got {three_digits(huge)}"
        with pytest.raises(InvalidScenarioError, match=f"^{re.escape(message)}$"):
            Scenario(**{**angles, name: huge})


class TestSpinStates:
    def test_plus_state_examples(self):
        np.testing.assert_allclose(make_spin_state(0.0, 1), [1.0, 0.0], atol=0)
        np.testing.assert_allclose(
            make_spin_state(math.pi, 1), [0.0, 1.0], atol=ANALYTIC_TOL
        )
        np.testing.assert_allclose(
            make_spin_state(math.pi / 2, 1),
            [math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0],
            atol=ANALYTIC_TOL,
        )

    def test_minus_state_formula(self):
        state = make_spin_state(0.7, -1)
        assert state[0] == -math.sin(0.35)
        assert state[1] == math.cos(0.35)

    def test_bad_sign_rejected(self):
        with pytest.raises(InvalidScenarioError):
            make_spin_state(0.0, 2)
        with pytest.raises(InvalidScenarioError):
            make_spin_state(math.nan, 1)

    def test_int_beyond_the_float_range_rejected(self):
        with pytest.raises(InvalidScenarioError, match=r"^angle must be a finite number, got 1\.00e\+400$"):
            make_spin_state(10**400, 1)

    @given(angles, signs)
    def test_unit_norm(self, angle: float, sign: int):
        state = make_spin_state(angle, sign)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=ANALYTIC_TOL)

    @given(angles)
    def test_opposite_outcomes_orthogonal(self, angle: float):
        overlap = np.vdot(make_spin_state(angle, 1), make_spin_state(angle, -1))
        assert abs(overlap) <= ANALYTIC_TOL


class TestSinglet:
    def test_amplitudes(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        np.testing.assert_array_equal(
            make_singlet(), np.array([0.0, inv_sqrt2, -inv_sqrt2, 0.0], dtype=complex)
        )

    def test_norm_and_orthogonality(self):
        psi = make_singlet()
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=ANALYTIC_TOL)
        up_up = np.kron(make_spin_state(0.0, 1), make_spin_state(0.0, 1))
        assert abs(np.vdot(up_up, psi)) <= ANALYTIC_TOL


class TestTransitionProb:
    def test_examples(self):
        assert transition_prob(1.3, 1, 1.3, 1) == pytest.approx(1.0, abs=ANALYTIC_TOL)
        assert transition_prob(0.0, 1, math.pi, 1) == pytest.approx(0.0, abs=ANALYTIC_TOL)
        assert transition_prob(0.0, 1, math.pi / 3, 1) == pytest.approx(
            0.75, abs=ANALYTIC_TOL
        )

    @given(angles, signs, angles, signs)
    def test_matches_cosine_form(self, m1: float, s1: int, m2: float, s2: int):
        expected = 0.5 * (1.0 + s1 * s2 * math.cos(m1 - m2))
        assert transition_prob(m1, s1, m2, s2) == pytest.approx(
            expected, abs=ANALYTIC_TOL
        )

    @given(angles, signs, angles)
    def test_outcomes_sum_to_one(self, m1: float, s1: int, m2: float):
        total = transition_prob(m1, s1, m2, 1) + transition_prob(m1, s1, m2, -1)
        assert total == pytest.approx(1.0, abs=ANALYTIC_TOL)


class TestQuadruples:
    def test_sixteen_distinct_canonical_order(self):
        assert len(QUADRUPLES) == 16
        assert len(set(QUADRUPLES)) == 16
        assert QUADRUPLES[0] == (1, 1, 1, 1)
        assert QUADRUPLES[5] == (1, -1, 1, -1)
        assert QUADRUPLES[15] == (-1, -1, -1, -1)
        # +1 sorts before -1, so the canonical order is lexicographic in
        # the negated signs.
        assert list(QUADRUPLES) == sorted(QUADRUPLES, key=lambda q: [-s for s in q])

    def test_observable_labels(self):
        assert OBSERVABLES == ("A1", "B1", "A2", "B2")


class TestDistributionTypes:
    def test_grand_joint_validation(self):
        with pytest.raises(DistributionError):
            GrandJointDistribution(tuple([1.0 / 8.0] * 8))
        bad = [1.0 / 16.0] * 16
        bad[0] = -1.0 / 16.0
        bad[1] = 3.0 / 16.0
        with pytest.raises(DistributionError):
            GrandJointDistribution(tuple(bad))
        with pytest.raises(DistributionError):
            GrandJointDistribution(tuple([1.0 / 15.0] * 16))

    def test_grand_joint_lookup(self):
        d = GrandJointDistribution(tuple([1.0 / 16.0] * 16))
        assert d.prob((1, -1, 1, -1)) == 1.0 / 16.0
        assert d.as_array().shape == (16,)
        assert math.fsum(p for _, p in d.items()) == pytest.approx(1.0, abs=1e-15)

    def test_pair_distribution_validation(self):
        with pytest.raises(UnknownPairError):
            PairDistribution("A1", "A1", (0.25, 0.25, 0.25, 0.25))
        with pytest.raises(UnknownPairError):
            PairDistribution("A1", "C7", (0.25, 0.25, 0.25, 0.25))
        with pytest.raises(DistributionError):
            PairDistribution("A1", "B1", (0.5, 0.5, 0.25, -0.25))
        pd = PairDistribution("A1", "B2", (0.5, 0.0, 0.25, 0.25))
        assert pd.prob(1, 1) == 0.5
        assert pd.marginal("A1", 1) == 0.5
        assert pd.marginal("B2", -1) == 0.25
        with pytest.raises(UnknownPairError):
            pd.marginal("B1", 1)

    def test_correlator_set_range(self):
        CorrelatorSet(1.0, -1.0, 1.0 + 5e-13, 0.0)
        with pytest.raises(CorrelatorRangeError):
            CorrelatorSet(1.0 + 1e-11, 0.0, 0.0, 0.0)
        with pytest.raises(CorrelatorRangeError):
            CorrelatorSet(math.nan, 0.0, 0.0, 0.0)
        c = CorrelatorSet(0.25, -0.5, 0.75, -1.0)
        assert c.as_tuple() == (0.25, -0.5, 0.75, -1.0)
        assert c.as_dict()["e_a_prime_b"] == 0.75


class TestGrandJointQuantum:
    def test_eprb_mode_rejected(self):
        sc = Scenario(0.0, 1.0, 2.0, 3.0, mode=Mode.EPRB)
        with pytest.raises(InvalidScenarioError):
            grand_joint_quantum(sc)

    def test_equal_early_angles_forbid_equal_outcomes(self):
        sc = Scenario(a=1.1, a_prime=0.3, b=1.1, b_prime=2.2)
        d = grand_joint_quantum(sc)
        for q, p in d.items():
            if q.a1 == q.b1:
                assert p == pytest.approx(0.0, abs=ANALYTIC_TOL)

    def test_all_zero_angles_point(self):
        d = grand_joint_quantum(Scenario(0.0, 0.0, 0.0, 0.0))
        assert d.prob((1, -1, 1, -1)) == pytest.approx(0.5, abs=ANALYTIC_TOL)
        assert d.prob((-1, 1, -1, 1)) == pytest.approx(0.5, abs=ANALYTIC_TOL)

    @given(scenarios)
    @settings(max_examples=50)
    def test_matches_reference_oracle(self, sc: Scenario):
        d = grand_joint_quantum(sc)
        for oracle in (kron_joint, matrix_joint):
            assert d.probs == pytest.approx(oracle(sc), abs=ANALYTIC_TOL)

    def test_matches_reference_oracle_on_a_15_degree_grid(self):
        # Every combination of the three relative angles that enter.
        grid = [k * math.pi / 12.0 for k in range(24)]
        worst = 0.0
        for theta_ab in grid:
            for theta_aa_prime in grid:
                for theta_bb_prime in grid:
                    sc = Scenario(theta_ab, theta_ab - theta_aa_prime, 0.0, -theta_bb_prime)
                    d = grand_joint_quantum(sc)
                    worst = max(worst, *(abs(p - q) for p, q in zip(d.probs, matrix_joint(sc))))
        assert worst <= ANALYTIC_TOL

    @given(scenarios)
    @settings(max_examples=50)
    def test_normalized(self, sc: Scenario):
        assert math.fsum(grand_joint_quantum(sc).probs) == pytest.approx(
            1.0, abs=ANALYTIC_TOL
        )

    @given(scenarios, angles, angles)
    @settings(max_examples=50)
    def test_no_signaling(self, sc: Scenario, new_b: float, new_b_prime: float):
        own = marginal_pair(grand_joint_quantum(sc), ("A1", "A2"))
        moved_sc = Scenario(sc.a, sc.a_prime, new_b, new_b_prime)
        moved = marginal_pair(grand_joint_quantum(moved_sc), ("A1", "A2"))
        for p, q in zip(own.probs, moved.probs):
            assert p == pytest.approx(q, abs=ANALYTIC_TOL)

    @given(scenarios)
    @settings(max_examples=50)
    def test_particle_swap_symmetry(self, sc: Scenario):
        d = grand_joint_quantum(sc)
        swapped = grand_joint_quantum(Scenario(sc.b, sc.b_prime, sc.a, sc.a_prime))
        for q in QUADRUPLES:
            assert d.prob(q) == pytest.approx(
                swapped.prob((q.b1, q.a1, q.b2, q.a2)), abs=ANALYTIC_TOL
            )

    @given(scenarios)
    @settings(max_examples=50)
    def test_single_outcome_marginals_uniform(self, sc: Scenario):
        d = grand_joint_quantum(sc)
        for obs in OBSERVABLES:
            other = "B1" if obs != "B1" else "A1"
            p_plus = marginal_pair(d, (obs, other)).marginal(obs, 1)
            assert p_plus == pytest.approx(0.5, abs=ANALYTIC_TOL)


class TestMarginalPair:
    def test_a1_b2_closed_form_example(self):
        # theta_ab = pi/3 and theta_bb' = pi/3 puts 0.1875 on (+1, +1).
        sc = Scenario(a=math.pi / 3, a_prime=1.0, b=0.0, b_prime=-math.pi / 3)
        pd = marginal_pair(grand_joint_quantum(sc), ("A1", "B2"))
        assert pd.prob(1, 1) == pytest.approx(0.1875, abs=ANALYTIC_TOL)

    def test_uncorrelated_at_right_angle(self):
        sc = Scenario(a=math.pi / 2, a_prime=0.0, b=0.0, b_prime=0.0)
        pd = marginal_pair(grand_joint_quantum(sc), ("A1", "B1"))
        for p in pd.probs:
            assert p == pytest.approx(0.25, abs=ANALYTIC_TOL)

    def test_label_validation(self):
        d = grand_joint_quantum(Scenario(0.1, 0.2, 0.3, 0.4))
        for which, message in (
            (("A1",), "observable labels must be a sequence of 2, got 1 items"),
            (("A1", "A1"), "pair labels must differ, got 'A1' twice"),
            (("A1", "X9"), "unknown observable label: 'X9'"),
            (("X9", "A1"), "unknown observable label: 'X9'"),
            (("X9", "X9"), "unknown observable label: 'X9'"),
        ):
            with pytest.raises(UnknownPairError) as excinfo:
                marginal_pair(d, which)
            assert str(excinfo.value) == message

    @given(scenarios)
    @settings(max_examples=50)
    def test_a1_b2_matches_closed_form(self, sc: Scenario):
        pd = marginal_pair(grand_joint_quantum(sc), ("A1", "B2"))
        factor = math.cos(sc.theta_ab) * math.cos(sc.theta_bb_prime)
        for (s1, s2) in SIGN_PAIRS:
            expected = 0.25 * (1.0 - s1 * s2 * factor)
            assert pd.prob(s1, s2) == pytest.approx(expected, abs=ANALYTIC_TOL)


class TestCorrelatorPair:
    def test_examples(self):
        uniform = PairDistribution("A1", "B1", (0.25, 0.25, 0.25, 0.25))
        assert correlator_pair(uniform) == 0.0
        point = PairDistribution("A1", "B1", (0.0, 1.0, 0.0, 0.0))
        assert correlator_pair(point) == -1.0

    def test_closed_form_value(self):
        sc = Scenario(a=math.pi / 3, a_prime=1.0, b=0.0, b_prime=-math.pi / 3)
        pd = marginal_pair(grand_joint_quantum(sc), ("A1", "B2"))
        assert correlator_pair(pd) == pytest.approx(-0.25, abs=ANALYTIC_TOL)


class TestClosedFormCorrelators:
    def test_right_angle_kills_everything(self):
        sc = Scenario(a=math.pi / 2, a_prime=1.0, b=0.0, b_prime=2.0)
        for value in closed_form_correlators(sc).as_tuple():
            assert value == pytest.approx(0.0, abs=ANALYTIC_TOL)

    def test_all_equal_angles(self):
        sc = Scenario(a=0.7, a_prime=0.7, b=0.7, b_prime=0.7)
        for value in closed_form_correlators(sc).as_tuple():
            assert value == pytest.approx(-1.0, abs=ANALYTIC_TOL)

    def test_eprb_equal_angles(self):
        sc = Scenario(a=1.2, a_prime=0.0, b=1.2, b_prime=0.5, mode=Mode.EPRB)
        assert closed_form_correlators(sc).e_ab == pytest.approx(
            -1.0, abs=ANALYTIC_TOL
        )

    def test_eprb_each_pair_independent(self):
        sc = Scenario(0.3, 1.9, 2.5, 5.2, mode=Mode.EPRB)
        c = closed_form_correlators(sc)
        assert c.e_ab == pytest.approx(-math.cos(sc.theta_ab), abs=ANALYTIC_TOL)
        assert c.e_ab_prime == pytest.approx(
            -math.cos(sc.theta_ab_prime), abs=ANALYTIC_TOL
        )
        assert c.e_a_prime_b == pytest.approx(
            -math.cos(sc.theta_a_prime_b), abs=ANALYTIC_TOL
        )
        assert c.e_a_prime_b_prime == pytest.approx(
            -math.cos(sc.theta_a_prime_b_prime), abs=ANALYTIC_TOL
        )

    @given(scenarios)
    @settings(max_examples=100)
    def test_matches_brute_force(self, sc: Scenario):
        d = grand_joint_quantum(sc)
        closed = closed_form_correlators(sc)
        brute = {
            "e_ab": correlator_pair(marginal_pair(d, ("A1", "B1"))),
            "e_ab_prime": correlator_pair(marginal_pair(d, ("A1", "B2"))),
            "e_a_prime_b": correlator_pair(marginal_pair(d, ("A2", "B1"))),
            "e_a_prime_b_prime": correlator_pair(marginal_pair(d, ("A2", "B2"))),
        }
        for name, value in closed.as_dict().items():
            assert value == pytest.approx(brute[name], abs=ANALYTIC_TOL)
