"""Unit tests for CHSH evaluation, scanning, and maximization."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import angle_rows, scan_values
from eprb_lab.errors import CorrelatorRangeError, InvalidScenarioError, InvalidStepError
from eprb_lab.inequality import (
    _GRAD_FUNCS,
    _S_FUNCS,
    _chsh_eprb,
    _project_eprb,
    BOUND_TOL,
    CHSH_BOUNDS,
    CLASSICAL_BOUND,
    chsh_gradient,
    chsh_report,
    chsh_sequential_closed,
    chsh_value,
    maximize_chsh,
    scan_grid,
)
from eprb_lab.quantum import (
    TWO_PI,
    CorrelatorSet,
    Mode,
    Scenario,
    canonical_angle,
    closed_form_correlators,
)

ANALYTIC_TOL = 1e-12
TSIRELSON = 2.0 * math.sqrt(2.0)
MAGIC_ANGLES = (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, 5.0 * math.pi / 4.0)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
unit_values = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
correlator_sets = st.builds(CorrelatorSet, unit_values, unit_values, unit_values, unit_values)


@pytest.fixture(scope="module")
def eprb_optimum():
    return maximize_chsh(Mode.EPRB)


@pytest.fixture(scope="module")
def sequential_optimum():
    return maximize_chsh(Mode.SEQUENTIAL)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestChshValue:
    def test_examples(self):
        assert chsh_value(CorrelatorSet(1.0, 1.0, 1.0, 1.0)) == 2.0
        assert chsh_value(CorrelatorSet(0.0, 0.0, 0.0, 0.0)) == 0.0
        s = math.sqrt(2.0) / 2.0
        assert chsh_value(CorrelatorSet(-s, -s, s, -s)) == pytest.approx(
            -TSIRELSON, abs=ANALYTIC_TOL
        )

    def test_out_of_range_rejected_at_construction(self):
        with pytest.raises(CorrelatorRangeError):
            CorrelatorSet(1.5, 0.0, 0.0, 0.0)

    @given(correlator_sets)
    def test_signs_of_combination(self, c: CorrelatorSet):
        expected = c.e_ab + c.e_ab_prime + c.e_a_prime_b_prime - c.e_a_prime_b
        assert chsh_value(c) == expected

    @given(correlator_sets, correlator_sets, st.floats(min_value=0.0, max_value=1.0))
    def test_linear_by_superposition(self, c1: CorrelatorSet, c2: CorrelatorSet, t: float):
        mixed = CorrelatorSet(
            *(t * x + (1.0 - t) * y for x, y in zip(c1.as_tuple(), c2.as_tuple()))
        )
        expected = t * chsh_value(c1) + (1.0 - t) * chsh_value(c2)
        assert chsh_value(mixed) == pytest.approx(expected, abs=1e-9)

    def test_report_flags_bound(self):
        inside = chsh_report(CorrelatorSet(1.0, 1.0, 1.0, 1.0))
        assert inside.s_value == 2.0
        assert inside.bound_satisfied
        sc = Scenario(*MAGIC_ANGLES, mode=Mode.EPRB)
        outside = chsh_report(closed_form_correlators(sc))
        assert outside.s_value == pytest.approx(TSIRELSON, abs=1e-9)
        assert not outside.bound_satisfied


class TestSequentialClosedForm:
    def test_examples(self):
        assert chsh_sequential_closed(math.pi, 0.0, 0.0) == pytest.approx(
            2.0, abs=ANALYTIC_TOL
        )
        assert chsh_sequential_closed(0.0, 0.0, 0.0) == pytest.approx(
            -2.0, abs=ANALYTIC_TOL
        )

    @given(angles, angles)
    def test_right_angle_vanishes(self, x: float, y: float):
        assert chsh_sequential_closed(math.pi / 2.0, x, y) == pytest.approx(
            0.0, abs=ANALYTIC_TOL
        )

    @given(angles, angles, angles)
    def test_matches_scenario_correlators(self, t_ab: float, t_aa: float, t_bb: float):
        sc = Scenario(a=t_ab, a_prime=t_ab - t_aa, b=0.0, b_prime=-t_bb)
        via_correlators = chsh_value(closed_form_correlators(sc))
        direct = chsh_sequential_closed(sc.theta_ab, sc.theta_aa_prime, sc.theta_bb_prime)
        assert direct == pytest.approx(via_correlators, abs=ANALYTIC_TOL)

    @given(angles, angles, angles)
    def test_never_violates_bound(self, t_ab: float, t_aa: float, t_bb: float):
        assert abs(chsh_sequential_closed(t_ab, t_aa, t_bb)) <= CLASSICAL_BOUND + BOUND_TOL

    def test_broadcasts(self):
        t_ab = np.array([0.0, math.pi, math.pi / 2.0])
        values = chsh_sequential_closed(t_ab, 0.0, 0.0)
        assert values.shape == (3,)
        for got, scalar_arg in zip(values, t_ab):
            assert got == chsh_sequential_closed(float(scalar_arg), 0.0, 0.0)

    def test_scalar_returns_float(self):
        assert isinstance(chsh_sequential_closed(1.0, 2.0, 3.0), float)


class TestChshGradient:
    def test_sequential_examples(self):
        g = chsh_gradient(Mode.SEQUENTIAL, (math.pi / 2.0, 0.0, 0.0))
        np.testing.assert_allclose(g, [2.0, 0.0, 0.0], atol=ANALYTIC_TOL)
        g0 = chsh_gradient(Mode.SEQUENTIAL, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(g0, [0.0, 0.0, 0.0], atol=ANALYTIC_TOL)

    def test_vanishes_at_eprb_optimum(self, eprb_optimum):
        g = chsh_gradient(Mode.EPRB, eprb_optimum.angles)
        assert np.linalg.norm(g) <= 1e-6

    def test_angle_count_enforced(self):
        with pytest.raises(InvalidScenarioError):
            chsh_gradient(Mode.SEQUENTIAL, (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(InvalidScenarioError):
            chsh_gradient(Mode.EPRB, (0.0, 0.0, 0.0))
        with pytest.raises(InvalidScenarioError):
            chsh_gradient(Mode.EPRB, (0.0, 0.0, 0.0, math.nan))

    @given(angles, angles, angles)
    @settings(max_examples=50)
    def test_sequential_matches_finite_differences(self, x0: float, x1: float, x2: float):
        x = [x0, x1, x2]
        g = chsh_gradient(Mode.SEQUENTIAL, x)
        h = 1e-5
        for i in range(3):
            forward = list(x)
            backward = list(x)
            forward[i] += h
            backward[i] -= h
            fd = (
                chsh_sequential_closed(*forward) - chsh_sequential_closed(*backward)
            ) / (2.0 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6)


def _assert_equals_the_open_mesh_oracle(report) -> None:
    """The report against the optimiser's S broadcast over the sparse open
    mesh, reduced over the full array with the tie-break on |S|: max |S|,
    its argmax, and each slab's S compared as int64 bits."""
    k = len(report.argmax_angles)
    s_grid = _S_FUNCS[report.mode](*np.meshgrid(*([report.axis] * k), indexing="ij", sparse=True))
    s_ref = s_grid.reshape(-1)
    max_abs = float(max(s_ref.max(), -s_ref.min()))
    near = max_abs - 1e-9
    first = int(np.argmax((s_ref >= near) | (s_ref <= -near)))

    assert report.max_abs_s == max_abs
    assert report.argmax_angles == tuple(
        float(report.axis[i]) for i in np.unravel_index(first, s_grid.shape)
    )
    for i, want in enumerate(s_grid.reshape(len(report.axis), -1)):
        values, index = report._slab(i)
        assert np.array_equal(values[index].view(np.int64), want.view(np.int64)), f"slab {i}"


class TestScanGrid:
    def test_step_validation(self):
        for bad in (0.0, -1.0, TWO_PI + 0.1, math.nan, math.inf, "abc"):
            with pytest.raises(InvalidStepError):
                scan_grid(Mode.SEQUENTIAL, bad)

    def test_bool_step_refused(self):
        # True would otherwise pass as a 1 rad step.
        with pytest.raises(InvalidStepError):
            scan_grid(Mode.EPRB, True)

    def test_oversized_grid_refused(self):
        with pytest.raises(InvalidStepError):
            scan_grid(Mode.SEQUENTIAL, 0.02)

    @pytest.mark.parametrize("step", [1e-5, 1e-300, 5e-324])
    def test_oversized_grid_refused_before_its_axis(self, step):
        # 1e-5 gives 628,319 values per axis (5 MB); 1e-300 gives more
        # cells than a float holds, and 5e-324 more values per axis.
        tracemalloc.start()
        try:
            with pytest.raises(InvalidStepError, match="refusing grids"):
                scan_grid(Mode.EPRB, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sequential_ten_degrees(self):
        report = scan_grid(Mode.SEQUENTIAL, math.radians(10.0))
        assert report.n_cells == 36**3
        assert report.max_abs_s == pytest.approx(2.0, abs=BOUND_TOL)
        assert float(np.max(np.abs(scan_values(report)))) == report.max_abs_s

    def test_sequential_argmax_lexicographic(self):
        # (0, 0, 0) evaluates to -2, already on the maximal tier, so the
        # lexicographic tie-break must report the origin.
        report = scan_grid(Mode.SEQUENTIAL, math.radians(45.0))
        assert report.argmax_angles == (0.0, 0.0, 0.0)

    def test_eprb_forty_five_degrees(self):
        report = scan_grid(Mode.EPRB, math.radians(45.0))
        assert report.n_cells == 8**4
        assert report.max_abs_s == pytest.approx(TSIRELSON, abs=BOUND_TOL)
        np.testing.assert_allclose(report.argmax_angles, MAGIC_ANGLES, atol=ANALYTIC_TOL)

    @pytest.mark.parametrize(
        "step_deg, points",
        [
            (30.0, 12), (30 * (1 - 1e-14), 12), (30 * (1 - 1e-11), 13),
            (3.6, 100), (3.6 * (1 - 1e-11), 101),
        ],
    )
    def test_axis_ends_within_its_slack_of_two_pi(self, step_deg, points):
        # A multiple of the step less than _AXIS_END_TOL (1e-12 rad) below 2*pi
        # is 2*pi and no axis point. At 30(1 - 1e-11) deg the 12th multiple
        # is 6.3e-11 rad short of 2*pi, so it is a real grid point.
        assert scan_grid(Mode.SEQUENTIAL, math.radians(step_deg)).axis.size == points

    def test_degenerate_full_circle_step(self):
        report = scan_grid(Mode.SEQUENTIAL, TWO_PI)
        assert report.n_cells == 1
        assert report.argmax_angles == (0.0, 0.0, 0.0)
        assert report.max_abs_s == pytest.approx(2.0, abs=ANALYTIC_TOL)
        assert scan_values(report)[0] == pytest.approx(-2.0, abs=ANALYTIC_TOL)

    def test_arrays_read_only(self):
        # The axis cannot be written, and a slab's values are the caller's
        # own: writing them changes no later slab.
        for mode in Mode:
            report = scan_grid(mode, math.radians(90.0))
            with pytest.raises(ValueError):
                report.axis[0] = 99.0
            before = scan_values(report)
            report._slab(0)[0][:] = 99.0
            assert np.array_equal(scan_values(report), before)

    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(list(Mode)), step_deg=st.floats(min_value=20.0, max_value=360.0))
    def test_matches_the_array_of_angle_rows(self, mode, step_deg):
        # Reference: the scan as S over the full N x k array of angle rows,
        # evaluated by the optimiser's S, with the tie-break on |S|.
        step = math.radians(step_deg)
        axis = step * np.arange(int(math.ceil((TWO_PI - 1e-12) / step)))
        report = scan_grid(mode, step)
        assert np.array_equal(report.axis, axis)

        rows = angle_rows(report)
        s_ref = _S_FUNCS[mode](*rows.T)
        abs_s = np.abs(s_ref)
        first = int(np.flatnonzero(abs_s >= abs_s.max() - 1e-9)[0])
        assert np.array_equal(scan_values(report), s_ref)
        assert report.max_abs_s == abs_s.max()
        assert report.argmax_angles == tuple(rows[first])

    def test_builds_no_array_of_angle_rows(self):
        tracemalloc.start()
        try:
            report = scan_grid(Mode.EPRB, math.radians(12.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The N x 4 angle rows alone would take 4 times the S array.
        assert peak < 3 * 8 * report.n_cells

    @pytest.mark.parametrize("mode, step_deg", [(Mode.EPRB, 12.0)])
    def test_peak_memory_near_its_s_values(self, mode, step_deg):
        # One full-size array of S: no second one, no full-size masks.
        tracemalloc.start()
        try:
            report = scan_grid(mode, math.radians(step_deg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * report.n_cells

    @pytest.mark.parametrize("step_deg", [12.0, 9.0])
    def test_eprb_report_holds_no_array_of_every_cell(self, step_deg):
        # Once the scan returns, what it still holds is its cosine tables of
        # n^3 values; S for every cell would take 8 * n**4 bytes.
        tracemalloc.start()
        try:
            report = scan_grid(Mode.EPRB, math.radians(step_deg))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n = len(report.axis)
        assert held <= 4 * 8 * n**3

    @pytest.mark.parametrize("step_deg", [3.6, 2.25])
    def test_sequential_peak_memory_does_not_grow_with_the_grid(self, step_deg):
        # 1.0 and 4.1 million cells under one ceiling: the scan holds a few
        # (aa', bb') tables of n * n values, not S for every cell.
        tracemalloc.start()
        try:
            scan_grid(Mode.SEQUENTIAL, math.radians(step_deg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "mode, step_deg",
        [
            (Mode.EPRB, 12.0),
            (Mode.SEQUENTIAL, 3.6),
            *[(mode, deg) for mode in Mode for deg in (7.0, 13.0, 180.0, 360.0)],
        ],
    )
    def test_equals_the_open_mesh_oracle(self, mode, step_deg):
        # Steps of 7 and 13 degrees do not divide the circle; 180 and 360
        # give n = 2, 1.
        _assert_equals_the_open_mesh_oracle(scan_grid(mode, math.radians(step_deg)))

    @settings(max_examples=40, deadline=None)
    @given(step_deg=st.floats(min_value=2.0, max_value=120.0))
    @example(step_deg=2.0)
    @example(step_deg=7.0)
    @example(step_deg=179.0)  # n = 3
    @example(step_deg=180.0)  # n = 2
    @example(step_deg=360.0)  # n = 1
    def test_sequential_reduction_equals_the_open_mesh_oracle(self, step_deg):
        # The sequential scan reduces each slab from the extremes of its
        # factor table and builds no grid; it must still agree bit for bit.
        _assert_equals_the_open_mesh_oracle(scan_grid(Mode.SEQUENTIAL, math.radians(step_deg)))

    @settings(max_examples=40, deadline=None)
    @given(step_deg=st.floats(min_value=10.0, max_value=120.0))
    @example(step_deg=7.0)
    @example(step_deg=13.0)
    @example(step_deg=179.0)  # n = 3
    @example(step_deg=180.0)  # n = 2
    @example(step_deg=360.0)  # n = 1
    def test_eprb_slabs_equal_the_open_mesh_oracle(self, step_deg):
        # The EPRB scan computes each slab from its cosine tables and reduces
        # the extremes from an array it drops; it must agree bit for bit.
        _assert_equals_the_open_mesh_oracle(scan_grid(Mode.EPRB, math.radians(step_deg)))

    def test_enumeration_matches_closed_form(self):
        report = scan_grid(Mode.SEQUENTIAL, math.radians(120.0))
        for row, s in zip(angle_rows(report), scan_values(report)):
            assert s == chsh_sequential_closed(*row)


wide_angles = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
huge_angles = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def modes_and_inits(draw, elements=wide_angles):
    """A mode and one angle tuple for it, each angle drawn from ``elements``."""
    mode = draw(st.sampled_from(list(Mode)))
    return mode, draw(st.tuples(*[elements] * (3 if mode is Mode.SEQUENTIAL else 4)))

#: EPRB inits at every scale up to +-1e300 radians.
eprb_inits = st.tuples(*[wide_angles | huge_angles] * 4)


class TestChshBound:
    def test_table(self):
        assert CHSH_BOUNDS == {Mode.SEQUENTIAL: 2.0, Mode.EPRB: TSIRELSON}

    @given(case=modes_and_inits())
    @settings(max_examples=200)
    def test_no_angles_exceed_it(self, case):
        mode, x = case
        assert abs(_S_FUNCS[mode](*x)) <= CHSH_BOUNDS[mode] + 1e-12

    @pytest.mark.parametrize(
        "mode, step_deg", [(Mode.EPRB, 30.0), (Mode.EPRB, 12.0), (Mode.SEQUENTIAL, 3.6)]
    )
    def test_no_scan_cell_exceeds_it(self, mode, step_deg):
        report = scan_grid(mode, math.radians(step_deg))
        assert report.max_abs_s <= CHSH_BOUNDS[mode] + 1e-12

    @given(a=wide_angles, a_prime=wide_angles, sgn=st.sampled_from([1.0, -1.0]))
    @example(a=0.0, a_prime=math.pi, sgn=1.0)
    @example(a=0.0, a_prime=0.0, sgn=-1.0)
    def test_projection_attains_it(self, a, a_prime, sgn):
        x = _project_eprb(np.array([a, a_prime, 0.0, 0.0]), sgn)
        assert x[0] == a
        # a' moved to the nearer of a +- pi/2 on the circle.
        assert abs(abs(x[1] - a) - math.pi / 2.0) <= 1e-12 * max(1.0, abs(a))
        moved = abs(math.remainder(x[1] - a_prime, TWO_PI))
        other = abs(math.remainder(2.0 * a - x[1] - a_prime, TWO_PI))
        assert moved <= other + 1e-9
        s = float(_chsh_eprb(*x))
        assert math.copysign(1.0, s) == sgn
        assert abs(abs(s) - TSIRELSON) <= 1e-12
        assert np.linalg.norm(_GRAD_FUNCS[Mode.EPRB](x)) <= 1e-9


class TestMaximizeChsh:
    @given(case=modes_and_inits() | modes_and_inits(huge_angles))
    @example(case=(Mode.SEQUENTIAL, None))
    @example(case=(Mode.EPRB, None))
    @example(case=(Mode.EPRB, MAGIC_ANGLES))
    @example(case=(Mode.EPRB, (1e300, -1e300, 1e300, 3e299)))
    @settings(max_examples=200, deadline=None)
    def test_certified_at_the_bound(self, case):
        mode, init = case
        report = maximize_chsh(mode, init_angles=init)
        assert report.converged
        assert abs(report.abs_s - CHSH_BOUNDS[mode]) <= 1e-12
        assert report.iterations == 0

    @given(init=st.none() | st.tuples(*[wide_angles | huge_angles] * 3))
    def test_sequential_reaches_classical_bound(self, init):
        report = maximize_chsh(Mode.SEQUENTIAL, init_angles=init)
        assert report.angles == (0.0, 0.0, 0.0)
        assert report.s_value == -2.0
        assert report.abs_s == 2.0
        assert report.grad_norm == 0.0

    def test_eprb_reaches_quantum_maximum(self, eprb_optimum):
        report = eprb_optimum
        assert report.abs_s == pytest.approx(TSIRELSON, abs=1e-6)
        assert report.converged
        assert report.grad_norm <= 1e-9

    @given(init=eprb_inits)
    @example(init=(0.0, 0.0, 0.0, 0.0))
    @example(init=(1e300, -1e300, 0.0, 0.0))
    @example(init=(-1e-300, 0.0, 0.0, 0.0))
    def test_eprb_keeps_a_and_takes_the_nearer_a_prime(self, init):
        report = maximize_chsh(Mode.EPRB, init_angles=init)
        a = canonical_angle(init[0])
        assert same_bits(np.array(report.angles[0]), np.array(a))
        # a' is a +- pi/2 on the circle, whichever lies nearer the reduced a'.
        offset = math.remainder(report.angles[1] - a, TWO_PI)
        assert abs(abs(offset) - math.pi / 2.0) <= 1e-12
        a_prime = canonical_angle(init[1])
        moved = abs(math.remainder(report.angles[1] - a_prime, TWO_PI))
        other = abs(math.remainder(a - offset - a_prime, TWO_PI))
        assert moved <= other + 1e-9

    @given(init=eprb_inits)
    @example(init=(0.0, 0.0, 0.0, 0.0))
    @example(init=MAGIC_ANGLES)
    def test_eprb_sign_follows_s_at_the_reduced_init(self, init):
        s_init = float(_chsh_eprb(*(canonical_angle(v) for v in init)))
        report = maximize_chsh(Mode.EPRB, init_angles=init)
        assert (report.s_value > 0.0) == (s_init >= 0.0)

    @pytest.mark.parametrize(
        "mode, init",
        [
            (Mode.SEQUENTIAL, (0.0, 0.0, 0.0, 0.0)),
            (Mode.SEQUENTIAL, (0.0, math.inf, 0.0)),
            (Mode.EPRB, (0.0, 0.0, 0.0)),
            (Mode.EPRB, (0.0, 0.0, 0.0, math.nan)),
            (Mode.EPRB, ((0.0, 0.0), (0.0, 0.0))),
        ],
    )
    def test_bad_inits_refused(self, mode, init):
        with pytest.raises(InvalidScenarioError):
            maximize_chsh(mode, init_angles=init)

    def test_int_init_beyond_the_float_range_refused(self):
        with pytest.raises(InvalidScenarioError, match=r"^angle must be a finite number, got 1\.00e\+400$"):
            maximize_chsh(Mode.EPRB, init_angles=(10**400, 0, 0, 0))

    def test_reported_value_reproducible(self, sequential_optimum, eprb_optimum):
        assert chsh_sequential_closed(*sequential_optimum.angles) == pytest.approx(
            sequential_optimum.s_value, abs=1e-9
        )
        sc = Scenario(*eprb_optimum.angles, mode=Mode.EPRB)
        assert chsh_value(closed_form_correlators(sc)) == pytest.approx(
            eprb_optimum.s_value, abs=1e-9
        )

    def test_eprb_beats_every_coarse_scan(self, eprb_optimum):
        scan = scan_grid(Mode.EPRB, math.radians(15.0))
        assert eprb_optimum.abs_s >= scan.max_abs_s - 1e-9

    def test_init_angles_are_honored(self):
        # The magic angles already attain the maximum, so they come back.
        report = maximize_chsh(Mode.EPRB, init_angles=MAGIC_ANGLES)
        assert report.s_value == pytest.approx(TSIRELSON, abs=1e-12)
        np.testing.assert_allclose(report.angles, MAGIC_ANGLES, rtol=0.0, atol=1e-12)

    @given(case=modes_and_inits(huge_angles))
    def test_angles_are_canonical(self, case):
        mode, init = case
        for angle in maximize_chsh(mode, init_angles=init).angles:
            assert 0.0 <= angle < TWO_PI

    @given(angles, angles)
    def test_eprb_single_setting_pair_is_classical(self, a: float, b: float):
        # Restricting to a' = a and b' = b collapses S to 2*e_ab, which
        # cannot leave the classical interval.
        sc = Scenario(a=a, a_prime=a, b=b, b_prime=b, mode=Mode.EPRB)
        s = chsh_value(closed_form_correlators(sc))
        assert s == pytest.approx(-2.0 * math.cos(sc.theta_ab), abs=ANALYTIC_TOL)
        assert abs(s) <= 2.0 + BOUND_TOL


@pytest.mark.parametrize(
    "call",
    [
        lambda mode: scan_grid(mode, 1.0),
        lambda mode: maximize_chsh(mode),
        lambda mode: chsh_gradient(mode, (0.0, 0.0, 0.0, 0.0)),
    ],
    ids=["scan_grid", "maximize_chsh", "chsh_gradient"],
)
@pytest.mark.parametrize("mode", ["eprb", None])
def test_mode_must_be_a_mode(call, mode):
    # The mode's value is not a Mode: no KeyError from a table lookup.
    with pytest.raises(InvalidScenarioError, match="mode must be a Mode"):
        call(mode)
