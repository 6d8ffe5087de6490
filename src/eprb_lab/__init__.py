"""Numerical laboratory for a two-time EPRB experiment.

Five building blocks:

- :mod:`eprb_lab.quantum`: exact singlet statistics of the two-time run
  and the coincident-time (EPRB) limit.
- :mod:`eprb_lab.inequality`: the CHSH combination, its sequential-mode
  closed form, grid scans, and maximization certified by the closed-form
  bound of each mode (2, and 2*sqrt(2) for EPRB).
- :mod:`eprb_lab.hvm`: the factorizable contextual hidden-variable model
  that reproduces the two-time statistics, plus the linear-feasibility
  test for setting-independent joint distributions.
- :mod:`eprb_lab.sampler`: reproducible counter-based Monte Carlo.
- :mod:`eprb_lab.cli`: the ``eprb-lab`` command.
"""

from __future__ import annotations

__version__ = "0.2.0"

from .quantum import (
    QUADRUPLES,
    SIGN_PAIRS,
    SIGNS,
    CorrelatorSet,
    GrandJointDistribution,
    Mode,
    OutcomeQuadruple,
    PairDistribution,
    Scenario,
    canonical_angle,
    closed_form_correlators,
    correlator_pair,
    grand_joint_quantum,
    make_singlet,
    make_spin_state,
    marginal_pair,
    transition_prob,
)
from .inequality import (
    BOUND_TOL,
    CHSH_BOUNDS,
    CLASSICAL_BOUND,
    ChshReport,
    OptimumReport,
    ScanReport,
    chsh_gradient,
    chsh_report,
    chsh_sequential_closed,
    chsh_value,
    maximize_chsh,
    scan_grid,
)
from .hvm import (
    ChshCertificate,
    ContextDescriptor,
    FactorizabilityReport,
    FeasibilityResult,
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
from .sampler import (
    COUNTS_CSV_HEADER,
    EstimatedCorrelators,
    OutcomeCounts,
    empirical_correlators,
    sample,
    sample_sharded,
    uniforms,
)

__all__ = [
    "__version__",
    "QUADRUPLES",
    "SIGN_PAIRS",
    "SIGNS",
    "CorrelatorSet",
    "GrandJointDistribution",
    "Mode",
    "OutcomeQuadruple",
    "PairDistribution",
    "Scenario",
    "canonical_angle",
    "closed_form_correlators",
    "correlator_pair",
    "grand_joint_quantum",
    "make_singlet",
    "make_spin_state",
    "marginal_pair",
    "transition_prob",
    "BOUND_TOL",
    "CHSH_BOUNDS",
    "CLASSICAL_BOUND",
    "ChshReport",
    "OptimumReport",
    "ScanReport",
    "chsh_gradient",
    "chsh_report",
    "chsh_sequential_closed",
    "chsh_value",
    "maximize_chsh",
    "scan_grid",
    "ChshCertificate",
    "ContextDescriptor",
    "FactorizabilityReport",
    "FeasibilityResult",
    "HVModel",
    "PairTargets",
    "Verdict",
    "build_contextual_model",
    "check_factorizability",
    "chsh_variant_values",
    "hv_correlator",
    "induced_distribution",
    "load_model",
    "model_from_tables",
    "noncontextual_feasibility",
    "pair_targets_from_correlators",
    "pair_targets_from_scenario",
    "save_model",
    "COUNTS_CSV_HEADER",
    "EstimatedCorrelators",
    "OutcomeCounts",
    "empirical_correlators",
    "sample",
    "sample_sharded",
    "uniforms",
]
