"""One table of bad values fed to every public boundary that takes a
number, an integer, a sequence or a distribution.

Each case must raise an ``EprbLabError`` subclass whose message is one
line under 200 characters and ends by naming the value. Nothing is
coerced: a bool, a string or None is not a number, and neither is an int
beyond the float range. None of the bad values is a sequence: the string
is text, and the others have no length.
"""

from __future__ import annotations

import json
import math

import pytest

from eprb_lab import (
    CorrelatorSet,
    GrandJointDistribution,
    Mode,
    PairDistribution,
    Scenario,
    canonical_angle,
    chsh_gradient,
    grand_joint_quantum,
    make_spin_state,
    marginal_pair,
    maximize_chsh,
    scan_grid,
    transition_prob,
)
from eprb_lab.cli import parse_config
from eprb_lab.errors import (
    DistributionError,
    EprbLabError,
    InvalidScenarioError,
    UnknownPairError,
    quoted,
)
from eprb_lab.hvm import (
    ContextDescriptor,
    HVModel,
    build_contextual_model,
    hv_correlator,
    model_from_tables,
)
from eprb_lab.sampler import OutcomeCounts, sample, sample_sharded, uniforms

BAD_VALUES = {
    "true": True,
    "string": "1",
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "10^400": 10**400,
    "10^5000": 10**5000,
}

D = grand_joint_quantum(Scenario(0.1, 0.2, 0.3, 0.4))
CONFIG = json.dumps({"mode": "sequential", "a": 0, "a_prime": 0, "b": 0, "b_prime": 0})
ONE_ATOM = dict(
    scenario=Scenario(0.0, 0.0, 0.0, 0.0),
    atom_ids=("l0",),
    weights=(1.0,),
    side1=((1.0, 0.0, 0.0, 0.0),),
    side2=((1.0, 0.0, 0.0, 0.0),),
    context=ContextDescriptor(weights=(), side1=(), side2=()),
)


def one_atom(**changes):
    return model_from_tables(**{**ONE_ATOM, **changes})


BOUNDARIES = {
    "Scenario-a": lambda v: Scenario(v, 0.0, 0.0, 0.0),
    "Scenario-b_prime": lambda v: Scenario(0.0, 0.0, 0.0, v),
    "canonical_angle": canonical_angle,
    "make_spin_state-angle": lambda v: make_spin_state(v, 1),
    "make_spin_state-sign": lambda v: make_spin_state(0.0, v),
    "transition_prob-s_from": lambda v: transition_prob(0.0, v, 1.0, -1),
    "transition_prob-s_to": lambda v: transition_prob(0.0, 1, 1.0, v),
    "scan_grid-step": lambda v: scan_grid(Mode.EPRB, v),
    "maximize_chsh-angle": lambda v: maximize_chsh(Mode.EPRB, init_angles=(0.0, v, 0.0, 0.0)),
    "chsh_gradient-angle": lambda v: chsh_gradient(Mode.SEQUENTIAL, (0.0, 0.0, v)),
    "uniforms-seed": lambda v: uniforms(v, 0, 1),
    "uniforms-start": lambda v: uniforms(0, v, 1),
    "uniforms-count": lambda v: uniforms(0, 0, v),
    "sample-n": lambda v: sample(D, v, 0),
    "sample-seed": lambda v: sample(D, 0, v),
    "sample_sharded-workers": lambda v: sample_sharded(D, 10, 0, v),
    "GrandJointDistribution-entry": lambda v: GrandJointDistribution((v,) + (0.0,) * 14 + (1.0,)),
    "PairDistribution-entry": lambda v: PairDistribution("A1", "B1", (0.5, v, 0.0, 0.5)),
    "CorrelatorSet-entry": lambda v: CorrelatorSet(0.0, 0.0, v, 0.0),
    "OutcomeCounts-count": lambda v: OutcomeCounts(counts=(v,) + (0,) * 15, n=1, seed=0),
    "OutcomeCounts-n": lambda v: OutcomeCounts(counts=(0,) * 16, n=v, seed=0),
    "OutcomeCounts-seed": lambda v: OutcomeCounts(counts=(0,) * 16, n=0, seed=v),
    "model_from_tables-weight": lambda v: model_from_tables(**{**ONE_ATOM, "weights": (v,)}),
    "model_from_tables-entry": lambda v: model_from_tables(
        **{**ONE_ATOM, "side2": ((1.0, 0.0, v, 0.0),)}
    ),
    **{
        f"parse_config-{key}": (lambda key: lambda v: parse_config(CONFIG, {key: v}))(key)
        for key in ("a", "a_prime", "b", "b_prime", "step", "n", "seed")
    },
    # Boundaries that take a whole sequence.
    "GrandJointDistribution-probs": GrandJointDistribution,
    "PairDistribution-probs": lambda v: PairDistribution("A1", "B1", v),
    "OutcomeCounts-counts": lambda v: OutcomeCounts(counts=v, n=0, seed=0),
    "maximize_chsh-angles": lambda v: maximize_chsh(Mode.EPRB, init_angles=v),
    **{
        f"model_from_tables-{key}": (lambda key: lambda v: one_atom(**{key: v}))(key)
        for key in ("atom_ids", "weights", "side1", "side2")
    },
    "model_from_tables-table": lambda v: one_atom(side1=(v,)),
    "hv_correlator-pair": lambda v: hv_correlator(build_contextual_model(Scenario(0, 0, 0, 0)), v),
    "marginal_pair-which": lambda v: marginal_pair(D, v),
    "GrandJointDistribution-prob": D.prob,
    "ContextDescriptor-weights": lambda v: ContextDescriptor(weights=v, side1=(), side2=()),
    "ContextDescriptor-side1": lambda v: ContextDescriptor(weights=(), side1=v, side2=()),
    "HVModel-atom_ids": lambda v: HVModel(
        scenario=ONE_ATOM["scenario"],
        atom_ids=v,
        weights=lambda i, sc: 1.0,
        side1=lambda i, sc: (1.0, 0.0, 0.0, 0.0),
        side2=lambda i, sc: (1.0, 0.0, 0.0, 0.0),
        context=ONE_ATOM["context"],
    ),
}

#: Valid values among the bad ones: a worker count and a config's sample
#: count have no upper bound. ``sample`` refuses counts past its draw
#: budget (the ``sample-n`` rows), and more workers than draws only add
#: empty shards (``test_huge_worker_count_tallies_at_most_one_shard_per_draw``
#: in ``test_sampler.py``). ``maximize_chsh`` starts from zeros when its
#: angles are None.
VALID = {
    ("maximize_chsh-angles", "none"),
    ("sample_sharded-workers", "10^400"),
    ("sample_sharded-workers", "10^5000"),
    ("parse_config-n", "10^400"),
    ("parse_config-n", "10^5000"),
}


@pytest.mark.parametrize(
    "boundary, value",
    [
        pytest.param(boundary, value, id=f"{boundary}-{value}")
        for boundary in BOUNDARIES
        for value in BAD_VALUES
        if (boundary, value) not in VALID
    ],
)
def test_bad_value_is_a_package_error_of_one_short_line(boundary, value):
    bad = BAD_VALUES[value]
    with pytest.raises(EprbLabError) as caught:
        BOUNDARIES[boundary](bad)
    message = str(caught.value)
    assert "\n" not in message and len(message) < 200, message
    assert message.endswith(f", got {quoted(bad)}"), message


def test_outcome_counts_truncate_nothing():
    with pytest.raises(DistributionError, match=r"^count must be an integer from 0 to 1, got 1\.9$"):
        OutcomeCounts(counts=(1.9,) + (0,) * 15, n=1, seed=0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: marginal_pair(D, (["A1"], "B1")), UnknownPairError, "['A1']"),
        (lambda: PairDistribution(["A1"], "B1", (1.0, 0.0, 0.0, 0.0)), UnknownPairError, "['A1']"),
        (lambda: PairDistribution("A1", ["B1"], (1.0, 0.0, 0.0, 0.0)), UnknownPairError, "['B1']"),
        (
            lambda: hv_correlator(build_contextual_model(Scenario(0, 0, 0, 0)), (["A1"], "B1")),
            UnknownPairError,
            "['A1']",
        ),
        (lambda: D.prob(([1], 1, 1, 1)), DistributionError, "([1], 1, 1, 1)"),
        (lambda: D.prob((1, 1, 1)), DistributionError, "a sequence of 4, got 3 items"),
    ],
    ids=["marginal_pair", "pair-first", "pair-second", "hv_correlator", "quadruple", "triple"],
)
def test_unhashable_labels_and_short_quadruples_are_package_errors(build, error, message):
    # A label or quadruple is looked up in a dict, which cannot hash a list.
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value).endswith(message)


@pytest.mark.parametrize(
    "angles", [{0.0, 1.0, 2.0}, dict.fromkeys((0.0, 1.0, 2.0), 0.0)], ids=["set", "mapping"]
)
def test_sets_and_mappings_are_not_angle_tuples(angles):
    with pytest.raises(InvalidScenarioError, match="^angles must be a sequence, got "):
        chsh_gradient(Mode.SEQUENTIAL, angles)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: GrandJointDistribution((1e308,) * 16), "probability"),
        (lambda: PairDistribution("A1", "B1", (1e308,) * 4), "pair probability"),
    ],
    ids=["grand-joint", "pair"],
)
def test_entries_whose_sum_overflows_are_not_a_distribution(build, what):
    with pytest.raises(DistributionError, match=f"^{what} sum is inf, not 1$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Scenario(0.0, 0.0, 0.0, 0.0, mode=10**5000), "mode must be a Mode, got 1.00e+5000"),
        (lambda: scan_grid(10**5000, 1.0), "mode must be a Mode, got 1.00e+5000"),
        (
            lambda: PairDistribution(10**5000, "B1", (1.0, 0.0, 0.0, 0.0)),
            "unknown observable label: 1.00e+5000",
        ),
    ],
    ids=["scenario-mode", "scan-mode", "pair-label"],
)
def test_ints_past_the_text_limit_are_quoted_where_a_mode_or_label_is_due(build, message):
    with pytest.raises(EprbLabError) as caught:
        build()
    assert str(caught.value) == message
