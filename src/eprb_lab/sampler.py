"""Monte Carlo outcome generation with a counter-based generator.

Reproducibility contract: draw number ``i`` (zero-based, over the whole
run) consumes exactly one 64-bit word,

    word(seed, i) = mix64((seed + (i + 1) * GOLDEN) mod 2**64)

where ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
finalizer (xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27,
multiply 0x94D049BB133111EB, xor-shift 31, all modulo 2**64). The uniform
double is ``(word >> 11) * 2**-53``, in [0, 1). Every quantity is a pure
function of ``(seed, i)``, so the stream is identical on every platform
and any contiguous split of the index range reproduces the unsplit
sequence exactly. Platform or library generators are deliberately not
used anywhere in this module.

Outcomes invert the cumulative distribution over the 16 quadruples in
canonical ``QUADRUPLES`` order: draw ``u`` lands in cell ``#{k: cdf[k] <= u}``.
Blocks of 2**16 draws are tallied by counting the draws below each
distinct entry under 1. ``sample`` tallies a large request in contiguous
shards on the CPUs the process may use (``_shards.split``), where the
platform reports CPU affinity (Linux).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from ._shards import split
from .errors import DistributionError, EmptySampleError, integer, quoted, sequence
from .quantum import PAIR_SLOTS, QUADRUPLES, CorrelatorSet, GrandJointDistribution

__all__ = [
    "COUNTS_CSV_HEADER", "EstimatedCorrelators", "OutcomeCounts", "empirical_correlators",
    "sample", "uniforms",
]

GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_U64_MAX = 2**64 - 1

_INV_2_53 = 2.0**-53

#: Refuse samples of more draws than this, well inside the 2^64 counter
#: domain: on a shared 2-CPU machine a sample of this size took 5.9 s in
#: two shards, and 9.2 s (8.6 ns per draw) on one core.
_MAX_DRAWS = 1 << 30


def _mix64(z: np.ndarray, work: np.ndarray) -> None:
    """SplitMix64 finalizer, in place on uint64 ``z``.

    ``work`` is scratch of the same shape and dtype, so no temporaries
    are allocated.
    """
    for shift, mult in ((30, _MIX_1), (27, _MIX_2)):
        np.right_shift(z, np.uint64(shift), out=work)
        z ^= work
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=work)
    z ^= work


def _check_draws(n: int, seed: int) -> None:
    """Refuse a sample before any draw: a count past the draw budget or a
    seed outside 64 bits."""
    integer(n, "sample count", DistributionError, high=_MAX_DRAWS)
    integer(seed, "seed", DistributionError, high=_U64_MAX)


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1) for draw indices start..start+count-1.

    The indices must lie in the counter domain [0, 2**64). The counter
    wraps as the contract's arithmetic does: index 2**64 - 1 gives
    ``(i + 1) * GOLDEN mod 2**64 = 0``.
    """
    integer(seed, "seed", DistributionError, high=_U64_MAX)
    integer(start, "draw start", DistributionError, high=_U64_MAX + 1)
    integer(count, "draw count", DistributionError, high=_U64_MAX + 1 - start)
    steps = np.arange(count, dtype=np.uint64)
    steps *= np.uint64(GOLDEN)
    # Two arrays of ``count`` words in all: the doubles reuse the scratch.
    return _fill_uniforms(seed, start, steps, steps, np.empty_like(steps))


def _fill_uniforms(seed, start, steps: np.ndarray, z, work) -> np.ndarray:
    """The uniforms of draws start..start+len(steps)-1, given ``steps[j] = j * GOLDEN``,
    computed in the caller's uint64 ``z`` (may be ``steps``) and ``work``; a view of ``work``."""
    # seed + (start + 1 + j) * GOLDEN, mod 2**64, for j in range(len(steps)).
    np.add(steps, np.uint64((seed + (start + 1) * GOLDEN) & _U64_MAX), out=z)
    _mix64(z, work)
    z >>= np.uint64(11)
    return np.multiply(z, _INV_2_53, out=work.view(np.float64))


@dataclass(frozen=True)
class OutcomeCounts:
    """Tally of sampled quadruples, in canonical QUADRUPLES order: 16
    integers (``errors.integer``) from 0 to ``n`` that sum to ``n``. ``n``
    is at most 2**64, the size of the counter domain and so the most draws
    ``uniforms`` can index."""

    counts: tuple[int, ...]
    n: int
    seed: int

    def __post_init__(self) -> None:
        n = integer(self.n, "n", DistributionError, high=_U64_MAX + 1)
        integer(self.seed, "seed", DistributionError, high=_U64_MAX)
        counts = sequence(self.counts, "count list", DistributionError, 16)
        for c in counts:
            integer(c, "count", DistributionError, high=n)
        if sum(counts) != n:
            raise DistributionError(
                f"n must be the sum of the counts, {quoted(sum(counts))}, got {quoted(n)}"
            )
        object.__setattr__(self, "counts", counts)


#: Draws per tally block: memory stays fixed and a block's passes stay in cache.
_TALLY_BLOCK = 1 << 16


def _cdf(distribution: GrandJointDistribution) -> np.ndarray:
    """Cumulative probabilities, exactly 1.0 from the last positive cell on.

    ``cumsum`` can end just below 1; pinning keeps every uniform in [0, 1)
    out of the zero-probability cells after the last positive one.
    """
    probs = distribution.as_array()
    cdf = np.cumsum(probs)
    cdf[np.flatnonzero(probs)[-1]:] = 1.0
    return cdf


def _tally(distribution: GrandJointDistribution, seed: int, start: int, stop: int) -> np.ndarray:
    # Equal CDF entries (zero-probability cells) share one count, and every
    # draw lies below an entry of 1.0: only the distinct entries under 1
    # are counted, once per block each.
    levels, level_of = np.unique(_cdf(distribution), return_inverse=True)
    live = levels[levels < 1.0]
    below = np.full(levels.size, stop - start, dtype=np.int64)
    below[:live.size] = 0
    steps = np.arange(min(_TALLY_BLOCK, stop - start), dtype=np.uint64)
    steps *= np.uint64(GOLDEN)  # one set of block buffers serves every block
    z, work, mask = np.empty_like(steps), np.empty_like(steps), np.empty(steps.size, bool)
    for lo in range(start, stop, _TALLY_BLOCK):
        m = min(_TALLY_BLOCK, stop - lo)
        draws = _fill_uniforms(seed, lo, steps[:m], z[:m], work[:m])
        for k, edge in enumerate(live):
            below[k] += np.count_nonzero(np.less(draws, edge, out=mask[:m]))
    return np.diff(below[level_of], prepend=0)


#: Fewest draws worth a shard in a child process: tallying them takes about
#: 20 ms, against about 3 ms to fork, exit and reap a child.
_MIN_SHARD_DRAWS = 1 << 21

_COUNTS_BYTES = 16 * np.dtype(np.int64).itemsize


def sample(distribution: GrandJointDistribution, n: int, seed: int) -> OutcomeCounts:
    """Draw ``n`` quadruples by inverse-CDF over the canonical ordering.

    The draw range is tallied in contiguous shards (``_shards.split``). A
    shard's bytes are its 16 int64 counts; a shard that comes without
    exactly those is tallied here. The counts equal
    ``_tally(distribution, seed, 0, n)``.
    """
    _check_draws(n, seed)

    def work(lo: int, hi: int) -> tuple[bytes]:
        return (_tally(distribution, seed, lo, hi).tobytes(),)

    total = np.zeros(16, dtype=np.int64)
    with contextlib.closing(split(n, _MIN_SHARD_DRAWS, work)) as shards:
        for lo, hi, output in shards:
            data = b"".join(output)
            if len(data) == _COUNTS_BYTES:
                total += np.frombuffer(data, dtype=np.int64)
            else:
                total += _tally(distribution, seed, lo, hi)
    return OutcomeCounts(counts=total.tolist(), n=n, seed=seed)


@dataclass(frozen=True)
class EstimatedCorrelators:
    """Empirical correlators with their standard errors.

    ``std_errors`` follows ``CROSS_PAIRS`` order, as
    ``CorrelatorSet.as_tuple`` does; each is sqrt((1 - estimate**2) / n).
    """

    estimates: CorrelatorSet
    std_errors: tuple[float, float, float, float]
    n: int


def empirical_correlators(counts: OutcomeCounts) -> EstimatedCorrelators:
    """Estimate the four cross-particle correlators from a tally."""
    if counts.n == 0:
        raise EmptySampleError("correlators are undefined for an empty sample")
    estimates: dict[str, float] = {}
    errors: list[float] = []
    for name, (slot1, slot2) in PAIR_SLOTS.items():
        total = sum(
            c * q[slot1] * q[slot2] for c, q in zip(counts.counts, QUADRUPLES)
        )
        e = total / counts.n
        estimates[f"e_{name}"] = e
        errors.append(math.sqrt(max(0.0, 1.0 - e * e) / counts.n))
    return EstimatedCorrelators(
        estimates=CorrelatorSet(**estimates),
        std_errors=tuple(errors),
        n=counts.n,
    )


def _sign_label(q) -> str:
    return "".join("+" if s == 1 else "-" for s in q)


#: CSV header: one column per quadruple (signs in A1 B1 A2 B2 order), then n.
COUNTS_CSV_HEADER = ",".join([_sign_label(q) for q in QUADRUPLES] + ["n"])
