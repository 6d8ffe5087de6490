"""Monte Carlo outcome generation with a counter-based generator.

Reproducibility contract: draw number ``i`` (zero-based, over the whole
run) consumes exactly one 64-bit word,

    word(seed, i) = mix64((seed + (i + 1) * GOLDEN) mod 2**64)

where ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` is the SplitMix64
finalizer (xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27,
multiply 0x94D049BB133111EB, xor-shift 31, all modulo 2**64). The uniform
double is ``(word >> 11) * 2**-53``, in [0, 1). Every quantity is a pure
function of ``(seed, i)``, so the stream is identical on every platform
and any contiguous split of the index range across workers reproduces
the single-worker sequence exactly. Platform or library generators are
deliberately not used anywhere in this module.

Outcomes are drawn by inverting the cumulative distribution over the 16
quadruples in canonical ``QUADRUPLES`` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DistributionError, EmptySampleError
from .quantum import PAIR_SLOTS, QUADRUPLES, CorrelatorSet, GrandJointDistribution

GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_U64_MAX = 2**64 - 1

_INV_2_53 = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on an array of uint64 counters."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
    return z ^ (z >> np.uint64(31))


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DistributionError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _U64_MAX:
        raise DistributionError(f"seed must fit in 64 bits, got {seed!r}")


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1) for draw indices start..start+count-1."""
    _check_seed(seed)
    if start < 0 or count < 0:
        raise DistributionError(f"invalid draw range: start={start!r}, count={count!r}")
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    words = _mix64(np.uint64(seed) + counters * np.uint64(GOLDEN))
    return (words >> np.uint64(11)).astype(np.float64) * _INV_2_53


@dataclass(frozen=True)
class OutcomeCounts:
    """Tally of sampled quadruples, in canonical QUADRUPLES order."""

    counts: tuple[int, ...]
    n: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.counts) != 16:
            raise DistributionError(f"expected 16 counts, got {len(self.counts)}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise DistributionError("counts must be nonnegative")
        if sum(self.counts) != self.n:
            raise DistributionError(
                f"counts sum to {sum(self.counts)}, expected n = {self.n}"
            )


def _tally(distribution: GrandJointDistribution, seed: int, start: int, count: int) -> np.ndarray:
    cdf = np.cumsum(distribution.as_array())
    draws = uniforms(seed, start, count)
    indices = np.minimum(np.searchsorted(cdf, draws, side="right"), 15)
    return np.bincount(indices, minlength=16)


def sample(distribution: GrandJointDistribution, n: int, seed: int) -> OutcomeCounts:
    """Draw ``n`` quadruples by inverse-CDF over the canonical ordering."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DistributionError(f"sample count must be a nonnegative integer, got {n!r}")
    counts = _tally(distribution, seed, 0, n)
    return OutcomeCounts(counts=tuple(int(c) for c in counts), n=n, seed=seed)


def sample_sharded(
    distribution: GrandJointDistribution, n: int, seed: int, workers: int
) -> OutcomeCounts:
    """Split the draw-index range contiguously across ``workers``.

    Worker ``w`` handles indices [w*n//workers, (w+1)*n//workers). Since
    each index maps to its word independently of the split, the combined
    tally equals ``sample(distribution, n, seed)`` for every worker count.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise DistributionError(f"worker count must be a positive integer, got {workers!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DistributionError(f"sample count must be a nonnegative integer, got {n!r}")
    total = np.zeros(16, dtype=np.int64)
    for w in range(workers):
        start = w * n // workers
        stop = (w + 1) * n // workers
        total += _tally(distribution, seed, start, stop - start)
    return OutcomeCounts(counts=tuple(int(c) for c in total), n=n, seed=seed)


@dataclass(frozen=True)
class EstimatedCorrelators:
    """Empirical correlators with their standard errors.

    ``std_errors`` follows the same order as ``CorrelatorSet.as_tuple``:
    (e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime); each entry is
    sqrt((1 - estimate**2) / n).
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


def counts_to_csv(counts: OutcomeCounts) -> str:
    """One-row CSV: the 16 canonical counts followed by the total."""
    row = ",".join(str(c) for c in (*counts.counts, counts.n))
    return COUNTS_CSV_HEADER + "\n" + row + "\n"
