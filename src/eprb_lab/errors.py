"""Exception hierarchy shared by all eprb_lab modules, and a message helper."""

from __future__ import annotations


class EprbLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidScenarioError(EprbLabError, ValueError):
    """Scenario is malformed or its mode does not support the operation."""


class DistributionError(EprbLabError, ValueError):
    """Probability data is negative, non-finite, or not normalized."""


class CorrelatorRangeError(EprbLabError, ValueError):
    """A correlator lies outside [-1, 1] beyond tolerance."""


class UnknownPairError(EprbLabError, ValueError):
    """An observable-pair label is not recognized."""


class InvalidStepError(EprbLabError, ValueError):
    """A grid step is non-positive, too large, or produces an oversized grid."""


class BoundViolationError(EprbLabError):
    """The sequential-mode CHSH bound was exceeded.

    The closed form cannot exceed 2 in exact arithmetic, so this error
    signals a defect in the implementation rather than a property of any
    input.
    """


class InconsistentTargetsError(EprbLabError, ValueError):
    """Pair targets disagree on a shared single-observable marginal."""


class EmptySampleError(EprbLabError, ValueError):
    """An estimate was requested from zero recorded outcomes."""


class ModelFormatError(EprbLabError, ValueError):
    """A hidden-variable model file does not match the documented schema."""


class ConfigError(EprbLabError, ValueError):
    """A run configuration document is malformed."""


def three_digits(count: int | float) -> str:
    """An int of 3 digits or more, or inf, to 3 significant digits.

    The int is rounded as an int: it can lie far beyond the float range,
    and a message that quotes it stays one short line.
    """
    if count == float("inf"):
        return "inf"
    digits = str(round(count, 3 - len(str(count))))
    return f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"
