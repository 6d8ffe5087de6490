"""Each float statistic against the exact oracle (``exact``).

A value passes when it lies within a thousandth of the slack that guards
its fact: ``quantum._PROB_TOL`` for a probability or a correlator, and
``inequality.BOUND_TOL`` for S, the CHSH variants and the LP witness,
whose residual Fine's test reads. Each slack thus keeps a margin of at
least 1000 over the rounding it absorbs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact
from eprb_lab.hvm import (
    build_contextual_model,
    chsh_variant_values,
    induced_distribution,
    noncontextual_feasibility,
    pair_targets_from_scenario,
)
from eprb_lab.inequality import BOUND_TOL, chsh_report, scan_grid
from eprb_lab.quantum import (
    _PROB_TOL,
    CROSS_PAIRS,
    Mode,
    Scenario,
    closed_form_correlators,
    grand_joint_quantum,
)

PROB_MARGIN = Fraction(_PROB_TOL) / 1000
S_MARGIN = Fraction(BOUND_TOL) / 1000

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
sequential = st.builds(Scenario, angles, angles, angles, angles)
eprb = st.builds(Scenario, angles, angles, angles, angles, st.just(Mode.EPRB))
#: All angles 0: S = -2, on a CHSH facet. Tsirelson's angles, in EPRB mode.
ORIGIN = Scenario(0.0, 0.0, 0.0, 0.0)
TSIRELSON = (0.0, math.pi / 2, 3 * math.pi / 4, 5 * math.pi / 4)


def error(floats, exacts) -> Fraction:
    """The largest |float - exact| over paired values."""
    floats, exacts = list(floats), list(exacts)
    assert len(floats) == len(exacts)
    return max(abs(Fraction(f) - e) for f, e in zip(floats, exacts))


def cosines(scenario: Scenario) -> tuple[float, float, float]:
    """The cosines the package takes for a sequential scenario."""
    return tuple(math.cos(getattr(scenario, f"theta_{d}")) for d in ("ab", "aa_prime", "bb_prime"))


def pairs_error(targets, want: dict) -> Fraction:
    return max(error(getattr(targets, name).probs, want[name]) for name in CROSS_PAIRS)


class TestSequential:
    @given(sequential)
    @example(ORIGIN)
    @settings(max_examples=150, deadline=None)
    def test_grand_joint_and_its_sum(self, scenario):
        probs = grand_joint_quantum(scenario).probs
        want = exact.grand_joint(*cosines(scenario))
        assert sum(want) == 1
        assert error(probs, want) <= PROB_MARGIN
        assert abs(Fraction(math.fsum(probs)) - 1) <= PROB_MARGIN

    @given(sequential)
    @example(ORIGIN)
    @settings(max_examples=150, deadline=None)
    def test_pair_targets(self, scenario):
        want = exact.pair_marginals(exact.grand_joint(*cosines(scenario)))
        assert pairs_error(pair_targets_from_scenario(scenario), want) <= PROB_MARGIN

    @given(sequential)
    @example(ORIGIN)
    @settings(max_examples=150, deadline=None)
    def test_correlators_and_chsh_variants(self, scenario):
        correlators = closed_form_correlators(scenario)
        e = exact.sequential_correlators(*cosines(scenario))
        assert error(correlators.as_tuple(), e) <= PROB_MARGIN
        assert error([chsh_report(correlators).s_value], [exact.chsh(e)]) <= S_MARGIN
        variants, want = chsh_variant_values(correlators), exact.chsh_variants(e)
        assert error([variants[s] for s in want], want.values()) <= S_MARGIN

    @given(sequential)
    @example(ORIGIN)
    @settings(max_examples=150, deadline=None)
    def test_canonical_model_induced_distribution(self, scenario):
        probs = induced_distribution(build_contextual_model(scenario)).probs
        want = exact.induced(*exact.canonical_model(*cosines(scenario)))
        assert error(probs, want) <= PROB_MARGIN

    @given(sequential)
    @example(ORIGIN)
    @settings(max_examples=100, deadline=None)
    def test_lp_witness_pair_marginals(self, scenario):
        # A sequential scenario's targets have a joint, the grand joint, so
        # the LP runs on their own cells and nothing moves them.
        witness = noncontextual_feasibility(pair_targets_from_scenario(scenario)).joint
        got = exact.pair_marginals(witness.probs)
        want = exact.pair_marginals(exact.grand_joint(*cosines(scenario)))
        assert max(error(got[name], want[name]) for name in CROSS_PAIRS) <= S_MARGIN


class TestEprb:
    @given(eprb)
    @example(Scenario(*TSIRELSON, mode=Mode.EPRB))
    @settings(max_examples=150, deadline=None)
    def test_correlators_chsh_variants_and_pair_targets(self, scenario):
        correlators = closed_form_correlators(scenario)
        e = exact.eprb_correlators([math.cos(getattr(scenario, f"theta_{p}")) for p in CROSS_PAIRS])
        assert error(correlators.as_tuple(), e) <= PROB_MARGIN
        assert error([chsh_report(correlators).s_value], [exact.chsh(e)]) <= S_MARGIN
        variants, want = chsh_variant_values(correlators), exact.chsh_variants(e)
        assert error([variants[s] for s in want], want.values()) <= S_MARGIN
        targets = pair_targets_from_scenario(scenario)
        assert pairs_error(targets, exact.unbiased_pairs(e)) <= PROB_MARGIN


class TestScanMax:
    # Coarse grids, so that every cell is summed exactly.
    @given(st.floats(min_value=20.0, max_value=360.0))
    @example(30.0)
    @example(36.0)
    @settings(max_examples=20, deadline=None)
    def test_sequential(self, step_deg):
        report = scan_grid(Mode.SEQUENTIAL, math.radians(step_deg))
        want = exact.sequential_scan_max(np.cos(report.axis))
        assert error([report.max_abs_s], [want]) <= S_MARGIN

    @given(st.floats(min_value=45.0, max_value=360.0))
    @example(45.0)
    @example(60.0)
    @settings(max_examples=20, deadline=None)
    def test_eprb(self, step_deg):
        report = scan_grid(Mode.EPRB, math.radians(step_deg))
        axis = report.axis
        want = exact.eprb_scan_max(np.cos(axis[:, None] - axis))
        assert error([report.max_abs_s], [want]) <= S_MARGIN
