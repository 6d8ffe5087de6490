"""Unit tests for the counter-based sampler and empirical estimators."""

from __future__ import annotations

import decimal
import math
import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import counted_forks, force_cpus, open_fds
from eprb_lab import _shards, sampler
from eprb_lab.cli import RunConfig, _payload_sample
from eprb_lab.errors import DistributionError, EmptySampleError, three_digits
from eprb_lab.quantum import (
    QUADRUPLES,
    GrandJointDistribution,
    Mode,
    Scenario,
    closed_form_correlators,
    grand_joint_quantum,
)
from eprb_lab.sampler import (
    _MAX_DRAWS,
    _MIN_SHARD_DRAWS,
    _TALLY_BLOCK,
    COUNTS_CSV_HEADER,
    _cdf,
    _tally,
    OutcomeCounts,
    empirical_correlators,
    sample,
    sample_sharded,
    uniforms,
)

MASK64 = (1 << 64) - 1


def reference_word(seed: int, index: int) -> int:
    """Independent generator reference: one finalized 64-bit word per counter."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_uniform(seed: int, index: int) -> float:
    return (reference_word(seed, index) >> 11) * 2.0**-53


def point_mass(index: int) -> GrandJointDistribution:
    probs = tuple(1.0 if i == index else 0.0 for i in range(16))
    return GrandJointDistribution(probs)


def searchsorted_tally(d: GrandJointDistribution, draws: np.ndarray) -> np.ndarray:
    """Reference tally: binary search of each draw in the CDF."""
    return np.bincount(np.searchsorted(_cdf(d), draws, side="right"), minlength=16)


@st.composite
def top_splits(draw):
    """(start, count, cut): a range that ends at most at index 2**64 - 1,
    where the counter (i + 1) * GOLDEN wraps to 0, and a split point."""
    start = MASK64 + 1 - draw(st.integers(min_value=1, max_value=300))
    count = draw(st.integers(min_value=0, max_value=MASK64 + 1 - start))
    return start, count, draw(st.integers(min_value=0, max_value=count))


def equal_cells(k: int) -> tuple[float, ...]:
    """k equal cells of 1/k, then zeros; for most k the cumsum ends below 1."""
    return (1.0 / k,) * k + (0.0,) * (16 - k)


@st.composite
def distributions(draw) -> tuple[float, ...]:
    if draw(st.booleans()):
        return equal_cells(draw(st.integers(min_value=1, max_value=16)))
    weight = st.one_of(st.just(0), st.integers(min_value=1, max_value=10**6))
    weights = draw(
        st.lists(weight, min_size=16, max_size=16).filter(lambda w: sum(w) > 0)
    )
    return tuple(w / sum(weights) for w in weights)


#: Draw indices on both sides of the first few tally block edges, and far out.
draw_starts = st.one_of(
    st.integers(min_value=0, max_value=3 * _TALLY_BLOCK),
    st.builds(
        lambda block, offset: max(0, block * _TALLY_BLOCK + offset),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=-3, max_value=3),
    ),
)
draw_counts = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=3 * _TALLY_BLOCK + 7),
)


class TestUniforms:
    def test_frozen_first_words_for_seed_zero(self):
        # Frozen reference values; recomputed independently at freeze time.
        expected_words = [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
            17909611376780542444,
        ]
        got = uniforms(0, 0, 4)
        want = np.array([w >> 11 for w in expected_words], dtype=np.uint64) * 2.0**-53
        assert np.array_equal(got, want)
        assert got[0] == 0.8833108082136426

    @pytest.mark.parametrize("seed", [0, 1, 12345, MASK64])
    @pytest.mark.parametrize("start", [0, 3, 1000])
    def test_matches_pure_python_reference(self, seed, start):
        got = uniforms(seed, start, 8)
        want = np.array([reference_uniform(seed, start + i) for i in range(8)])
        assert np.array_equal(got, want)

    def test_works_in_two_arrays_of_its_draws(self):
        # The counters and one scratch buffer, which ends up holding the
        # doubles; fresh temporaries per step would peak at 4 arrays.
        n = _TALLY_BLOCK
        tracemalloc.start()
        try:
            uniforms(5, 7, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n

    def test_empty_request(self):
        out = uniforms(7, 0, 0)
        assert out.shape == (0,)

    def test_half_open_unit_interval(self):
        out = uniforms(99, 0, 100_000)
        assert np.all(out >= 0.0)
        assert np.all(out < 1.0)

    def test_streams_are_consistent_across_chunking(self):
        whole = uniforms(5, 0, 64)
        parts = np.concatenate([uniforms(5, 0, 10), uniforms(5, 10, 54)])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("bad", [True, False, -1, 1 << 64, 1.0, "0", None])
    def test_invalid_seed_rejected(self, bad):
        with pytest.raises(DistributionError):
            uniforms(bad, 0, 1)

    def test_negative_start_or_count_rejected(self):
        with pytest.raises(DistributionError):
            uniforms(0, -1, 1)
        with pytest.raises(DistributionError):
            uniforms(0, 0, -1)

    @pytest.mark.parametrize(
        "start, count",
        [(True, 1), (0, True), (2.0, 1), (0, 2.0), (0.5, 1), ("3", 1), (0, "3"), (None, 1)],
    )
    def test_non_int_start_or_count_rejected(self, start, count):
        message = r"^draw (start|count) must be an integer from 0 to 1844674407370955161[56], got "
        with pytest.raises(DistributionError, match=message):
            uniforms(0, start, count)

    def test_range_past_the_int_text_limit_quoted_in_one_line(self):
        with pytest.raises(DistributionError) as caught:
            uniforms(0, 10**5000, 1)
        assert str(caught.value) == (
            "draw start must be an integer from 0 to 18446744073709551616, got 1.00e+5000"
        )

    def test_range_past_the_counter_domain_rejected(self):
        for start, count in [(MASK64, 2), (MASK64 + 1, 1), (0, MASK64 + 2)]:
            with pytest.raises(DistributionError):
                uniforms(0, start, count)

    @given(seed=st.integers(min_value=0, max_value=MASK64), split=top_splits())
    @example(seed=0, split=(MASK64, 1, 0))
    @example(seed=0, split=(MASK64 - 4, 5, 4))
    @settings(max_examples=50)
    def test_splits_near_the_top_of_the_domain(self, seed, split):
        start, count, cut = split
        whole = uniforms(seed, start, count)
        parts = np.concatenate([uniforms(seed, start, cut), uniforms(seed, start + cut, count - cut)])
        want = np.array([reference_uniform(seed, start + i) for i in range(count)])
        assert np.array_equal(whole, want)
        assert np.array_equal(parts, want)

    @given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_any_seed_any_offset_matches_reference(self, seed, start):
        got = uniforms(seed, start, 3)
        want = np.array([reference_uniform(seed, start + i) for i in range(3)])
        assert np.array_equal(got, want)


class TestSample:
    def test_zero_draws(self):
        counts = sample(point_mass(5), 0, seed=0)
        assert counts.counts == (0,) * 16
        assert counts.n == 0

    def test_point_mass_lands_on_one_cell(self):
        counts = sample(point_mass(5), 1000, seed=3)
        assert counts.counts[5] == 1000
        assert sum(counts.counts) == 1000

    def test_counts_sum_to_n(self):
        sc = Scenario(0.3, 1.7, 2.2, 5.1)
        counts = sample(grand_joint_quantum(sc), 10_000, seed=11)
        assert sum(counts.counts) == 10_000
        assert counts.n == 10_000
        assert counts.seed == 11

    def test_support_restriction_is_exact(self):
        # Aligned early analyzers: equal first-round outcomes have exactly
        # zero probability, so no draw may ever land there.
        sc = Scenario(a=0.0, a_prime=1.0, b=0.0, b_prime=2.0)
        d = grand_joint_quantum(sc)
        zero_cells = [i for i, p in enumerate(d.probs) if p == 0.0]
        assert zero_cells  # the scenario really does kill cells
        counts = sample(d, 200_000, seed=4)
        for i in zero_cells:
            assert counts.counts[i] == 0

    def test_bit_exact_reproducibility(self):
        d = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))
        assert sample(d, 50_000, seed=7) == sample(d, 50_000, seed=7)

    def test_seed_changes_counts(self):
        d = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))
        assert sample(d, 50_000, seed=7) != sample(d, 50_000, seed=8)

    def test_invalid_n_rejected(self):
        d = point_mass(0)
        with pytest.raises(DistributionError):
            sample(d, -1, seed=0)
        with pytest.raises(DistributionError):
            sample(d, True, seed=0)

    def test_blocked_tally_equals_one_pass(self):
        d = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))
        n = 3 * _TALLY_BLOCK + 5
        one_pass = np.bincount(np.searchsorted(_cdf(d), uniforms(9, 0, n), side="right"), minlength=16)
        assert sample(d, n, seed=9).counts == tuple(int(c) for c in one_pass)

    def test_memory_does_not_grow_with_n(self):
        d = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))
        tracemalloc.start()
        try:
            sample(d, 4_000_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # one pass over the draws would take about 120 MiB

    @given(
        probs=distributions(),
        seed=st.integers(min_value=0, max_value=MASK64),
        start=draw_starts,
        count=draw_counts,
    )
    @example(probs=(0.0, 0.0) + (1.0 / 14,) * 14, seed=0, start=0, count=100)
    @example(
        probs=(0.25, 0.25) + (0.0,) * 12 + (0.25, 0.25), seed=1, start=_TALLY_BLOCK - 1, count=2
    )
    @example(probs=(0.5, 0.5) + (0.0,) * 14, seed=MASK64, start=1, count=2 * _TALLY_BLOCK)
    @example(probs=equal_cells(15), seed=3, start=2 * _TALLY_BLOCK, count=_TALLY_BLOCK)
    @example(probs=equal_cells(6), seed=4, start=5, count=0)
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_the_searchsorted_tally(self, probs, seed, start, count):
        d = GrandJointDistribution(probs)
        want = searchsorted_tally(d, uniforms(seed, start, count))
        assert np.array_equal(_tally(d, seed, start, start + count), want)
        from_zero = searchsorted_tally(d, uniforms(seed, 0, count))
        assert sample(d, count, seed).counts == tuple(int(c) for c in from_zero)

    def test_counts_each_distinct_cdf_entry_under_one_once_per_block(self, monkeypatch):
        # The CDF is 0.25, 0.25, 0.5, 0.5, then 1.0: two entries to count
        # against each block, not sixteen.
        d = GrandJointDistribution((0.25, 0.0, 0.25, 0.0, 0.5) + (0.0,) * 11)
        n = 2 * _TALLY_BLOCK + 1
        passes = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(
            np, "count_nonzero", lambda a: passes.append(a.size) or count_nonzero(a)
        )
        counts = _tally(d, 5, 0, n)
        monkeypatch.undo()
        assert sorted(passes) == [1, 1] + [_TALLY_BLOCK] * 4
        assert np.array_equal(counts, searchsorted_tally(d, uniforms(5, 0, n)))

    @pytest.mark.parametrize(
        "probs",
        [
            grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1)).probs,
            (0.0, 0.1, 0.0, 0.0, 0.2, 0.3, 0.0, 0.1, 0.1, 0.0, 0.2) + (0.0,) * 5,
            equal_cells(6),
        ],
    )
    def test_draws_on_a_cdf_entry_go_to_the_next_cell(self, probs, monkeypatch):
        d = GrandJointDistribution(probs)
        cdf = _cdf(d)
        draws = np.concatenate([cdf[cdf < 1.0], [0.0, 1.0 - 2.0**-53]])
        monkeypatch.setattr(sampler, "uniforms", lambda seed, lo, count: draws[lo:lo + count])
        counts = _tally(d, 0, 0, draws.size)
        assert np.array_equal(counts, searchsorted_tally(d, draws))
        if np.all(np.diff(cdf) > 0.0):
            # Every cell positive: a draw equal to cdf[k] lands in cell k + 1.
            want = np.zeros(16, dtype=np.int64)
            want[1:] += 1
            want[0] += 1  # the draw 0.0
            want[15] += 1  # the largest draw, 1 - 2**-53
            assert np.array_equal(counts, want)

    @pytest.mark.parametrize("k", [6, 15])
    def test_largest_uniform_lands_on_last_positive_cell(self, k):
        # k equal cells of 1/k, then zeros: cumsum ends below 1, so without
        # the pin the largest uniform would fall in a zero-probability cell.
        probs = [1.0 / k] * k + [0.0] * (16 - k)
        assert np.cumsum(probs)[-1] < 1.0
        cdf = _cdf(GrandJointDistribution(tuple(probs)))
        assert np.searchsorted(cdf, 1.0 - 2.0**-53, side="right") == k - 1

    def test_frequencies_track_probabilities(self):
        sc = Scenario(0.3, 1.7, 2.2, 5.1)
        d = grand_joint_quantum(sc)
        n = 1_000_000
        counts = sample(d, n, seed=0)
        for i, p in enumerate(d.probs):
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts.counts[i] / n - p) <= 5.0 * se + 1e-12


class TestSampleSharded:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7, 16])
    def test_matches_single_stream(self, workers):
        d = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))
        n = 100_003  # deliberately not divisible by most worker counts
        assert sample_sharded(d, n, seed=9, workers=workers) == sample(d, n, seed=9)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_shard_edges_inside_tally_blocks(self, workers):
        d = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))
        n = 3 * _TALLY_BLOCK + 5
        assert sample_sharded(d, n, seed=9, workers=workers) == sample(d, n, seed=9)

    @pytest.mark.parametrize("bad", [-1, True, 2.0, "3", None])
    def test_sample_count_checked_as_in_sample(self, bad):
        d = point_mass(0)
        message = f"sample count must be an integer from 0 to 1073741824, got {bad!r}"
        entry_points = (
            lambda: sample(d, bad, seed=0),
            lambda: sample_sharded(d, bad, seed=0, workers=2),
        )
        for draw in entry_points:
            with pytest.raises(DistributionError) as caught:
                draw()
            assert str(caught.value) == message

    def test_draw_budget_refused_before_any_draw(self):
        d = point_mass(0)
        sampler._check_draws(_MAX_DRAWS, 0)
        for n in (_MAX_DRAWS + 1, 2**64, 10**4000):
            for draw in (
                lambda: sample(d, n, seed=0),
                lambda: sample_sharded(d, n, seed=0, workers=2),
            ):
                tracemalloc.start()
                try:
                    with pytest.raises(DistributionError, match="^sample count must be an integer from 0 to 1073741824, got ") as caught:
                        draw()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # One block of draws alone would take 8 * 2**16 bytes.
                assert peak < 64_000
                assert len(str(caught.value)) < 200

    def test_count_past_the_int_text_limit_quoted_in_one_line(self):
        # 10**5000 has more digits than Python turns into text by default.
        with pytest.raises(DistributionError) as caught:
            sample(point_mass(0), 10**5000, 0)
        assert str(caught.value) == (
            "sample count must be an integer from 0 to 1073741824, got 1.00e+5000"
        )

    def test_invalid_workers_rejected(self):
        d = point_mass(0)
        with pytest.raises(DistributionError):
            sample_sharded(d, 10, seed=0, workers=0)
        with pytest.raises(DistributionError):
            sample_sharded(d, 10, seed=0, workers=-2)

    def test_huge_worker_count_tallies_at_most_one_shard_per_draw(self, monkeypatch):
        d = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))
        for n in (0, 1, 10):
            want = sample(d, n, 0)
            shards = []
            monkeypatch.setattr(sampler, "_tally", lambda *args: shards.append(args) or _tally(*args))
            assert sample_sharded(d, n, 0, 10**5000) == want
            assert len(shards) == max(n, 1)
            monkeypatch.undo()


@st.composite
def shard_requests(draw):
    """(min_shard, n): a shard floor and a count near one of its multiples,
    or near a tally block edge, so shard edges land on and beside both."""
    min_shard = draw(st.integers(min_value=1, max_value=2 * _TALLY_BLOCK))
    near = draw(st.sampled_from([min_shard, _TALLY_BLOCK]))
    n = draw(st.integers(min_value=0, max_value=4)) * near
    return min_shard, max(0, n + draw(st.integers(min_value=-2, max_value=2)))


def three_cpus(monkeypatch):
    """Three CPUs, no cgroup quota, and shards of 1000 draws or more."""
    force_cpus(monkeypatch, 3)
    monkeypatch.setattr(sampler, "_MIN_SHARD_DRAWS", 1000)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
class TestForkedShards:
    """``sample`` tallies its shards in forked children; the counts are
    those of one in-process tally, whatever happens to the children."""

    D = grand_joint_quantum(Scenario(0.3, 1.7, 2.2, 5.1))

    @given(
        probs=distributions(),
        seed=st.one_of(
            st.integers(min_value=0, max_value=MASK64),
            st.integers(min_value=MASK64 - 2, max_value=MASK64),
        ),
        request=shard_requests(),
        cpus=st.integers(min_value=1, max_value=4),
    )
    @example(probs=equal_cells(6), seed=MASK64, request=(_TALLY_BLOCK, 3 * _TALLY_BLOCK + 1), cpus=4)
    @example(probs=equal_cells(16), seed=0, request=(1, 3), cpus=4)
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_one_tally(self, probs, seed, request, cpus):
        min_shard, n = request
        d = GrandJointDistribution(probs)
        fds = open_fds()
        with pytest.MonkeyPatch.context() as mp, counted_forks(mp) as forks:
            mp.setattr(sampler, "_MIN_SHARD_DRAWS", min_shard)
            force_cpus(mp, cpus)
            got = sample(d, n, seed)
        assert len(forks) == max(0, min(cpus, n // min_shard) - 1)
        assert got.counts == tuple(int(c) for c in _tally(d, seed, 0, n))
        assert got == sample_sharded(d, n, seed, workers=3)
        assert open_fds() == fds

    @pytest.mark.parametrize("n, seed", [(0, -1), (0, "x"), (0, 2**64), (10**7, -1)])
    def test_seed_checked_with_the_count_before_any_fork(self, monkeypatch, n, seed):
        force_cpus(monkeypatch, 2)
        message = f"seed must be an integer from 0 to {MASK64}, got {seed!r}"
        with counted_forks(monkeypatch) as forks:
            for draw in (lambda: sample(self.D, n, seed), lambda: sample_sharded(self.D, n, seed, 3)):
                with pytest.raises(DistributionError) as caught:
                    draw()
                assert str(caught.value) == message
        assert forks == []

    def test_forks_at_most_one_child_per_other_cpu(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        with counted_forks(monkeypatch) as forks:
            sample(self.D, 2 * _MIN_SHARD_DRAWS - 1, seed=1)
            assert forks == []
            n = 10**7
            got = sample(self.D, n, seed=1)
        assert len(forks) <= cpus - 1
        assert got.counts == tuple(int(c) for c in _tally(self.D, 1, 0, n))

    @pytest.mark.filterwarnings("error")
    def test_threaded_fork_warning_is_silenced_only_around_the_fork(self, monkeypatch):
        # Python 3.12+ warns thus when a process with threads forks.
        message = (
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
            "may lead to deadlocks in the child."
        )
        real_fork = os.fork

        def fork():
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        three_cpus(monkeypatch)
        n = 10_007
        assert sample(self.D, n, seed=7).counts == tuple(int(c) for c in _tally(self.D, 7, 0, n))
        with pytest.raises(DeprecationWarning):
            warnings.warn(message, DeprecationWarning)

    def test_fork_count_depends_on_no_argument(self, monkeypatch):
        # A stand-in tally puts each shard's draws in cell 0, so even the
        # whole draw budget costs nothing to split.
        def shard_length(distribution, seed, start, stop):
            counts = np.zeros(16, dtype=np.int64)
            counts[0] = stop - start
            return counts

        monkeypatch.setattr(sampler, "_tally", shard_length)
        cpus = len(os.sched_getaffinity(0))
        with counted_forks(monkeypatch) as forks:
            for n in (10**7, _MAX_DRAWS):
                forks.clear()
                assert sample(self.D, n, seed=2).counts[0] == n
                assert len(forks) <= cpus - 1

    def child_only(self, monkeypatch, misbehave):
        """Make ``_tally`` misbehave in forked children only."""
        parent = os.getpid()
        real_tally = sampler._tally

        def tally(distribution, seed, start, stop):
            if os.getpid() != parent:
                return misbehave(real_tally(distribution, seed, start, stop))
            return real_tally(distribution, seed, start, stop)

        monkeypatch.setattr(sampler, "_tally", tally)
        three_cpus(monkeypatch)
        return parent

    def raise_error(self, counts):
        raise RuntimeError("tally failed in the child")

    def short_counts(self, counts):
        return counts[:15]

    def killed(self, counts):
        os.kill(os.getpid(), signal.SIGKILL)

    @pytest.mark.parametrize("misbehave", ["raise_error", "short_counts", "killed"])
    def test_failed_child_is_tallied_in_process(self, monkeypatch, misbehave):
        self.child_only(monkeypatch, getattr(self, misbehave))
        n = 10_007
        fds = open_fds()
        with counted_forks(monkeypatch) as forks:
            got = sample(self.D, n, seed=3)
        assert len(forks) == 2
        assert got.counts == tuple(int(c) for c in _tally(self.D, 3, 0, n))
        assert open_fds() == fds

    def test_failed_fork_is_tallied_in_process(self, monkeypatch):
        def fork():
            raise BlockingIOError("no more processes")

        monkeypatch.setattr(os, "fork", fork)
        three_cpus(monkeypatch)
        n = 10_007
        fds = open_fds()
        assert sample(self.D, n, seed=5).counts == tuple(int(c) for c in _tally(self.D, 5, 0, n))
        assert open_fds() == fds

    @pytest.mark.parametrize("sigchld", [signal.SIG_DFL, signal.SIG_IGN])
    def test_children_are_killed_when_the_parent_unwinds(self, monkeypatch, sigchld):
        # The children would sleep for a minute; the parent's own shard
        # fails at once, and the call must not wait for them. A caller
        # that ignores SIGCHLD has its children reaped by the kernel.
        previous = signal.signal(signal.SIGCHLD, sigchld)
        monkeypatch.setattr(sampler, "_tally", self.sleeping_children(os.getpid()))
        three_cpus(monkeypatch)
        fds = open_fds()
        begun = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                sample(self.D, 10_007, seed=6)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert time.monotonic() - begun < 30
        assert open_fds() == fds

    @staticmethod
    def sleeping_children(parent):
        real_tally = sampler._tally

        def tally(distribution, seed, start, stop):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return real_tally(distribution, seed, start, stop)

        return tally

    def test_children_reaped_by_the_kernel(self, monkeypatch):
        # Where the caller ignores SIGCHLD, waitpid finds no child to reap.
        three_cpus(monkeypatch)
        n = 10_007
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            with counted_forks(monkeypatch) as forks:
                got = sample(self.D, n, seed=8)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 2
        assert got.counts == tuple(int(c) for c in _tally(self.D, 8, 0, n))

    def test_no_fork_while_other_threads_run(self, monkeypatch):
        three_cpus(monkeypatch)
        release = threading.Event()
        worker = threading.Thread(target=release.wait, args=(30,))
        worker.start()
        try:
            with counted_forks(monkeypatch) as forks:
                got = sample(self.D, 10_007, seed=9)
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert forks == []
        assert got.counts == tuple(int(c) for c in _tally(self.D, 9, 0, 10_007))

    @pytest.mark.parametrize(
        "files, cpus",
        [
            ({"cpu.max": "max 100000\n"}, math.inf),
            ({"cpu.max": "150000 100000\n"}, 2),
            ({"cpu.max": "100000 100000\n"}, 1),
            ({"cpu.max": "50000 100000\n"}, 1),
            ({"cfs_quota_us": "-1\n", "cfs_period_us": "100000\n"}, math.inf),
            ({"cfs_quota_us": "250000\n", "cfs_period_us": "100000\n"}, 3),
            ({"cpu.max": "garbled\n", "cfs_quota_us": "100000\n", "cfs_period_us": "100000\n"}, 1),
            ({"cpu.max": "100000 0\n"}, math.inf),
            ({}, math.inf),
        ],
    )
    def test_cgroup_quota_caps_the_shards(self, tmp_path, monkeypatch, files, cpus):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(sampler, "_MIN_SHARD_DRAWS", 1000)
        v1 = tuple(str(tmp_path / f) for f in ("cfs_quota_us", "cfs_period_us"))
        monkeypatch.setattr(_shards, "_QUOTA_FILES", ((str(tmp_path / "cpu.max"),), v1))
        assert _shards._quota_cpus() == cpus
        with counted_forks(monkeypatch) as forks:
            got = sample(self.D, 10_007, seed=10)
        assert len(forks) == min(4, cpus) - 1
        assert got.counts == tuple(int(c) for c in _tally(self.D, 10, 0, 10_007))


class TestOutcomeCounts:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(DistributionError):
            OutcomeCounts(counts=(1,) + (0,) * 15, n=2, seed=0)

    def test_negative_count_rejected(self):
        with pytest.raises(DistributionError):
            OutcomeCounts(counts=(-1, 1) + (0,) * 14, n=0, seed=0)

    def test_n_past_the_counter_domain_rejected(self):
        message = f"^n must be an integer from 0 to {2**64}, got {2**64 + 1}$"
        with pytest.raises(DistributionError, match=message):
            OutcomeCounts(counts=(2**64 + 1,) + (0,) * 15, n=2**64 + 1, seed=0)


class TestEmpiricalCorrelators:
    def test_point_mass_pins_correlators(self):
        # All mass on (A1,B1,A2,B2) = (+1,-1,+1,-1).
        index = QUADRUPLES.index((1, -1, 1, -1))
        counts = sample(point_mass(index), 1000, seed=0)
        est = empirical_correlators(counts)
        assert est.estimates.e_ab == -1.0
        assert est.estimates.e_ab_prime == -1.0
        assert est.estimates.e_a_prime_b == -1.0
        assert est.estimates.e_a_prime_b_prime == -1.0
        assert est.std_errors == (0.0, 0.0, 0.0, 0.0)
        assert est.n == 1000

    def test_whole_counter_domain_in_one_cell(self):
        # 2**64 draws, every one on (A1,B1,A2,B2) = (+1,+1,+1,-1): the
        # largest tally a seed's counter can index still divides as floats.
        index = QUADRUPLES.index((1, 1, 1, -1))
        counts = tuple(2**64 if i == index else 0 for i in range(16))
        est = empirical_correlators(OutcomeCounts(counts=counts, n=2**64, seed=0))
        assert est.estimates.as_tuple() == (1.0, -1.0, 1.0, -1.0)
        assert est.std_errors == (0.0, 0.0, 0.0, 0.0)
        assert est.n == 2**64

    def test_hand_tallied_counts(self):
        # 1,3,3,1 draws on quadruples 0, 5, 10, 15 (n = 8). Each of those
        # quadruples repeats its first-round signs in the second round, so
        # every pair product is +1, -1, -1, +1 respectively and all four
        # correlators equal (1 - 3 - 3 + 1) / 8 = -0.5 exactly.
        counts_tuple = tuple(
            {0: 1, 5: 3, 10: 3, 15: 1}.get(i, 0) for i in range(16)
        )
        counts = OutcomeCounts(counts=counts_tuple, n=8, seed=0)
        est = empirical_correlators(counts)
        assert est.estimates.as_tuple() == (-0.5, -0.5, -0.5, -0.5)

    def test_standard_error_formula(self):
        counts_tuple = tuple(
            {0: 1, 5: 3, 10: 3, 15: 1}.get(i, 0) for i in range(16)
        )
        est = empirical_correlators(OutcomeCounts(counts=counts_tuple, n=8, seed=0))
        want = math.sqrt((1.0 - 0.25) / 8.0)
        assert est.std_errors == (want,) * 4

    def test_large_sample_matches_theory(self):
        sc = Scenario(a=math.pi / 3.0, a_prime=1.0, b=0.0, b_prime=2.0)
        n = 1_000_000
        est = empirical_correlators(sample(grand_joint_quantum(sc), n, seed=42))
        closed = closed_form_correlators(sc)
        for got, want, se in zip(
            est.estimates.as_tuple(), closed.as_tuple(), est.std_errors
        ):
            assert abs(got - want) <= 5.0 * max(se, 1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySampleError):
            empirical_correlators(OutcomeCounts(counts=(0,) * 16, n=0, seed=0))


class TestCountsCsv:
    def test_header_lists_sign_patterns(self):
        cols = COUNTS_CSV_HEADER.split(",")
        assert len(cols) == 17
        assert cols[0] == "++++"
        assert cols[5] == "+-+-"
        assert cols[15] == "----"
        assert cols[16] == "n"

    def test_single_row_round_trip(self):
        config = RunConfig(Mode.SEQUENTIAL, 17.0, 97.0, 126.0, 292.0, n=5000, seed=1)
        counts = sample(grand_joint_quantum(config.scenario()), 5000, seed=1)
        lines = b"".join(_payload_sample(config)[1]).decode("ascii").splitlines()
        assert lines[0] == COUNTS_CSV_HEADER
        values = [int(v) for v in lines[1].split(",")]
        assert tuple(values[:16]) == counts.counts
        assert values[16] == 5000


class TestThreeDigits:
    """``three_digits`` quotes an int of any length without turning it all
    into text, which Python refuses beyond 4,300 digits."""

    @pytest.mark.parametrize(
        "count, text",
        [
            (100, "1.00e+2"),
            (12_345, "1.23e+4"),
            (9_985, "9.98e+3"),  # half to even, down
            (9_995, "1.00e+4"),  # half to even, up to the next power of ten
            (10**4299, "1.00e+4299"),
            (10**4301, "1.00e+4301"),
            (10**4301 - 1, "1.00e+4301"),
            (float("inf"), "inf"),
        ],
        ids=["100", "12345", "9985", "9995", "10^4299", "10^4301", "10^4301-1", "inf"],
    )
    def test_three_significant_digits(self, count, text):
        assert three_digits(count) == text

    def test_rounding_ignores_the_callers_decimal_context(self):
        with decimal.localcontext(decimal.Context(prec=2, rounding=decimal.ROUND_DOWN)):
            assert three_digits(9_995) == "1.00e+4"

    @given(st.integers(100, 10**700))
    def test_equals_rounding_the_full_text(self, count):
        digits = str(round(count, 3 - len(str(count))))
        assert three_digits(count) == f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"
