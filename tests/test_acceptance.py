"""Release acceptance checks.

Each test here is one go/no-go criterion for the package. A decorator
records every criterion's verdict; the summary hook in ``conftest.py``
prints one PASS/FAIL line per criterion at the end of the run.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from conftest import record_criterion

from eprb_lab.hvm import (
    Verdict,
    build_contextual_model,
    check_factorizability,
    chsh_variant_values,
    induced_distribution,
    noncontextual_feasibility,
    pair_targets_from_scenario,
)
from eprb_lab.inequality import (
    chsh_gradient,
    chsh_sequential_closed,
    chsh_value,
    maximize_chsh,
    scan_grid,
)
from eprb_lab.quantum import (
    Mode,
    Scenario,
    closed_form_correlators,
    grand_joint_quantum,
    marginal_pair,
    correlator_pair,
)
from eprb_lab.sampler import _tally, empirical_correlators, sample

TWO_PI = 2.0 * math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)
MAGIC = Scenario(
    0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, 5.0 * math.pi / 4.0, mode=Mode.EPRB
)
PAIRS = (("A1", "B1"), ("A1", "B2"), ("A2", "B1"), ("A2", "B2"))


def criterion(number: int, label: str):
    """Record the criterion verdict for the end-of-run summary."""

    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                record_criterion(number, label, False)
                raise
            record_criterion(number, label, True)
            return result

        return wrapper

    return decorate


def random_scenarios(seed: int, count: int, mode: Mode = Mode.SEQUENTIAL):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, TWO_PI, size=(count, 4))
    return [Scenario(*row, mode=mode) for row in rows]


@criterion(1, "grid brute-force correlators match the closed forms to 1e-12")
def test_criterion_1_grid_agreement():
    grid = [k * math.pi / 12.0 for k in range(24)]
    worst = 0.0
    for theta_ab in grid:
        for theta_aa_prime in grid:
            for theta_bb_prime in grid:
                sc = Scenario(
                    a=theta_ab,
                    a_prime=theta_ab - theta_aa_prime,
                    b=0.0,
                    b_prime=-theta_bb_prime,
                )
                d = grand_joint_quantum(sc)
                brute = [correlator_pair(marginal_pair(d, p)) for p in PAIRS]
                closed = closed_form_correlators(sc).as_tuple()
                worst = max(
                    worst, max(abs(x - y) for x, y in zip(brute, closed))
                )
    assert worst <= 1e-12, f"worst grid deviation {worst:.3e}"


@criterion(2, "(A1,B2) marginal matches its two-cosine product form to 1e-12")
def test_criterion_2_cross_time_marginal():
    worst = 0.0
    for sc in random_scenarios(seed=20260201, count=1000):
        d = marginal_pair(grand_joint_quantum(sc), ("A1", "B2"))
        factor = math.cos(sc.theta_ab) * math.cos(sc.theta_bb_prime)
        for s1 in (1, -1):
            for s2 in (1, -1):
                want = 0.25 * (1.0 - s1 * s2 * factor)
                worst = max(worst, abs(d.prob(s1, s2) - want))
    assert worst <= 1e-12, f"worst marginal deviation {worst:.3e}"


@criterion(3, "sequential |S| stays within 2 everywhere; optimum is 2.000000")
def test_criterion_3_sequential_bound():
    rng = np.random.default_rng(20260303)
    triples = rng.uniform(0.0, TWO_PI, size=(3, 1_000_000))
    s = chsh_sequential_closed(triples[0], triples[1], triples[2])
    assert float(np.max(np.abs(s))) <= 2.0 + 1e-9

    scan = scan_grid(Mode.SEQUENTIAL, math.radians(5.0))
    assert scan.max_abs_s <= 2.0 + 1e-9

    report = maximize_chsh(Mode.SEQUENTIAL)
    assert abs(report.abs_s - 2.0) <= 1e-6, f"optimum {report.abs_s!r}"


@criterion(4, "EPRB optimum is 2.828427 and the known angles attain 2*sqrt(2)")
def test_criterion_4_eprb_optimum():
    report = maximize_chsh(Mode.EPRB)
    assert abs(report.abs_s - 2.828427) <= 1e-6, f"optimum {report.abs_s!r}"

    s_known = chsh_value(closed_form_correlators(MAGIC))
    assert abs(abs(s_known) - TSIRELSON) <= 1e-9, f"known-angle S {s_known!r}"


@criterion(5, "contextual model reproduces the distribution and factorizes")
def test_criterion_5_model_reconstruction():
    worst = 0.0
    for sc in random_scenarios(seed=20260505, count=1000):
        model = build_contextual_model(sc)
        induced = induced_distribution(model)
        exact = grand_joint_quantum(sc)
        worst = max(
            worst,
            max(abs(p - q) for p, q in zip(induced.probs, exact.probs)),
        )
        fact = check_factorizability(model)
        assert fact.passed
        assert fact.max_deviation == 0.0
    assert worst <= 1e-12, f"worst reconstruction deviation {worst:.3e}"


@criterion(6, "feasibility verdicts agree with the eight-variant CHSH test")
def test_criterion_6_feasibility_duality():
    n_feasible = n_infeasible = 0
    for sc in random_scenarios(seed=20260816, count=1000, mode=Mode.EPRB):
        targets = pair_targets_from_scenario(sc)
        result = noncontextual_feasibility(targets)
        worst_variant = max(chsh_variant_values(targets.correlators()).values())
        violated = worst_variant > 2.0 + 1e-9
        if result.verdict is Verdict.FEASIBLE:
            assert not violated, (sc, worst_variant)
            n_feasible += 1
        else:
            assert violated, (sc, worst_variant)
            n_infeasible += 1
    assert n_feasible > 0 and n_infeasible > 0

    magic = noncontextual_feasibility(pair_targets_from_scenario(MAGIC))
    assert magic.verdict is Verdict.INFEASIBLE
    assert abs(magic.certificate.value - TSIRELSON) <= 1e-9

    for sc in random_scenarios(seed=20260606, count=200):
        result = noncontextual_feasibility(pair_targets_from_scenario(sc))
        assert result.verdict is Verdict.FEASIBLE, sc


@criterion(7, "empirical correlators sit within 5 SE and replays are bit-exact")
def test_criterion_7_sampler_fidelity():
    sc = Scenario(0.0, math.pi / 5.0, math.pi / 3.0, 4.0 * math.pi / 7.0)
    d = grand_joint_quantum(sc)
    closed = closed_form_correlators(sc).as_tuple()
    n = 1_000_000
    for seed in range(20):
        est = empirical_correlators(sample(d, n, seed))
        for got, want, se in zip(est.estimates.as_tuple(), closed, est.std_errors):
            assert abs(got - want) <= 5.0 * se, (seed, got, want, se)

    first = sample(d, n, 0)
    assert sample(d, n, 0) == first
    parts = sum(_tally(d, 0, w * n // 4, (w + 1) * n // 4) for w in range(4))
    assert tuple(int(c) for c in parts) == first.counts


@criterion(8, "analytic gradients match central finite differences to 1e-6")
def test_criterion_8_gradient_consistency():
    step = 1e-5

    def seq_objective(angles):
        return chsh_sequential_closed(angles[0], angles[1], angles[2])

    def eprb_objective(angles):
        sc = Scenario(*angles, mode=Mode.EPRB)
        return chsh_value(closed_form_correlators(sc))

    cases = (
        (Mode.SEQUENTIAL, 3, seq_objective, 20260801),
        (Mode.EPRB, 4, eprb_objective, 20260802),
    )
    worst = 0.0
    for mode, dim, objective, seed in cases:
        rng = np.random.default_rng(seed)
        for _ in range(100):
            point = rng.uniform(0.0, TWO_PI, size=dim)
            grad = chsh_gradient(mode, tuple(point))
            for k in range(dim):
                forward = point.copy()
                backward = point.copy()
                forward[k] += step
                backward[k] -= step
                fd = (objective(forward) - objective(backward)) / (2.0 * step)
                worst = max(worst, abs(grad[k] - fd))
    assert worst <= 1e-6, f"worst gradient deviation {worst:.3e}"
