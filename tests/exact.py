"""The exact oracle: the package's float statistics in rational arithmetic.

Every statistic of the lab is a closed form in a few cosines. The package
evaluates it in floats; this module evaluates the same closed form with
``fractions.Fraction`` from the same float cosines. ``Fraction(x)`` of a
float is exact and so is every ``+ - * /`` on fractions, so each value
here is the exact value that the package's float arithmetic rounds. The
tests compare the two, so that the margin between rounding error and the
slack that guards each fact (``quantum._PROB_TOL`` for a probability,
``inequality.BOUND_TOL`` for S) is measured, not assumed.

Inputs are floats (or numpy float64 values) as the package computes them;
outputs are fractions, in the package's orders: ``QUADRUPLES`` for a
joint, ``CROSS_PAIRS`` for correlators and pairs, the canonical sign
pairs for a pair's cells.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from eprb_lab.hvm import CHSH_SIGN_VARIANTS
from eprb_lab.quantum import PAIR_INDEX, PAIR_SLOTS, QUADRUPLES, SIGN_PAIRS


def grand_joint(c_ab: float, c_aa: float, c_bb: float) -> list[Fraction]:
    """The sequential run's joint: the singlet's early pair probability
    times the two transition probabilities, at cosines of theta_ab,
    theta_aa' and theta_bb'."""
    c_ab, c_aa, c_bb = map(Fraction, (c_ab, c_aa, c_bb))
    return [
        (1 - a1 * b1 * c_ab) / 4 * (1 + a1 * a2 * c_aa) / 2 * (1 + b1 * b2 * c_bb) / 2
        for a1, b1, a2, b2 in QUADRUPLES
    ]


def pair_marginals(joint: Iterable) -> dict[str, list[Fraction]]:
    """Each cross pair's four cells, summed exactly from a joint over
    ``QUADRUPLES`` (floats or fractions)."""
    joint = [Fraction(p) for p in joint]
    pairs = {}
    for name, (i, j) in PAIR_SLOTS.items():
        cells = [Fraction(0)] * 4
        for q, p in zip(QUADRUPLES, joint):
            cells[PAIR_INDEX[(q[i], q[j])]] += p
        pairs[name] = cells
    return pairs


def unbiased_pairs(correlators: Sequence[Fraction]) -> dict[str, list[Fraction]]:
    """Each cross pair with unbiased marginals and correlator e:
    p(s, t) = (1 + s*t*e) / 4."""
    return {
        name: [(1 + s * t * e) / 4 for s, t in SIGN_PAIRS]
        for name, e in zip(PAIR_SLOTS, correlators)
    }


def sequential_correlators(c_ab: float, c_aa: float, c_bb: float) -> list[Fraction]:
    """-c_ab, attenuated by the cosine of each late analyzer's rotation."""
    c_ab, c_aa, c_bb = map(Fraction, (c_ab, c_aa, c_bb))
    return [-c_ab, -c_ab * c_bb, -c_ab * c_aa, -c_ab * c_aa * c_bb]


def eprb_correlators(cosines: Sequence[float]) -> list[Fraction]:
    """-cos of each pair's own difference angle."""
    return [-Fraction(c) for c in cosines]


def chsh(e: Sequence[Fraction]) -> Fraction:
    """S = e_ab + e_ab' + e_a'b' - e_a'b."""
    return e[0] + e[1] + e[3] - e[2]


def chsh_variants(e: Sequence[Fraction]) -> dict[tuple[int, ...], Fraction]:
    """Every CHSH sign variant of the correlators."""
    return {signs: sum(s * v for s, v in zip(signs, e)) for signs in CHSH_SIGN_VARIANTS}


def canonical_model(c_ab: float, c_aa: float, c_bb: float) -> tuple[list, list, list]:
    """The canonical model's weights and side tables: atom (alpha, beta)
    weighs (1 - alpha*beta*c_ab) / 4, and each side's early outcome is its
    sign and its late outcome follows the transition rule."""
    c_ab, c_aa, c_bb = map(Fraction, (c_ab, c_aa, c_bb))
    weights = [(1 - alpha * beta * c_ab) / 4 for alpha, beta in SIGN_PAIRS]

    def side(slot: int, c: Fraction) -> list[list[Fraction]]:
        return [
            [(1 if s1 == signs[slot] else 0) * (1 + s1 * s2 * c) / 2 for s1, s2 in SIGN_PAIRS]
            for signs in SIGN_PAIRS
        ]

    return weights, side(0, c_aa), side(1, c_bb)


def induced(weights: Sequence, side1: Sequence, side2: Sequence) -> list[Fraction]:
    """The joint over ``QUADRUPLES`` that mixes each atom's product of side
    tables by its weight."""
    return [
        sum(
            Fraction(w) * Fraction(t1[PAIR_INDEX[(a1, a2)]]) * Fraction(t2[PAIR_INDEX[(b1, b2)]])
            for w, t1, t2 in zip(weights, side1, side2)
        )
        for a1, b1, a2, b2 in QUADRUPLES
    ]


def sequential_scan_max(cos_axis: Sequence[float]) -> Fraction:
    """Max |S| over every cell of a sequential grid whose axis has these
    cosines: S = -c_ab * (1 + c_bb' + c_aa'*c_bb' - c_aa')."""
    c = [Fraction(v) for v in cos_axis]
    factors = [1 + c_bb + c_aa * c_bb - c_aa for c_aa in c for c_bb in c]
    return max(abs(c_ab * f) for c_ab in c for f in factors)


def eprb_scan_max(cos_table) -> Fraction:
    """Max |S| over every cell of an EPRB grid whose axis differences have
    the cosine table ``cos_table[i][j] = cos(axis[i] - axis[j])``:
    S = -c(a-b) - c(a-b') - c(a'-b') + c(a'-b)."""
    c = [[Fraction(v) for v in row] for row in cos_table]
    n = range(len(c))
    return max(
        abs(-c[a][b] - c[a][b2] - c[a2][b2] + c[a2][b])
        for a in n for a2 in n for b in n for b2 in n
    )
