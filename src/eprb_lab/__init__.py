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

Each public name is declared once, in the ``__all__`` of the module that
defines it. The package re-exports the names of ``quantum``,
``inequality``, ``hvm`` and ``sampler``; the names of ``errors``,
``linfeas`` and ``cli`` are imported from their own modules.
"""

from __future__ import annotations

__version__ = "0.2.0"

from .quantum import *
from .inequality import *
from .hvm import *
from .sampler import *

__all__ = ["__version__", *quantum.__all__, *inequality.__all__, *hvm.__all__, *sampler.__all__]
