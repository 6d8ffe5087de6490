"""Exception hierarchy shared by all eprb_lab modules, and two message helpers."""

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

    The int is rounded half to even as a decimal: it can lie beyond the float
    range and the int-to-text limit, and a message that quotes it stays short.
    """
    if count == float("inf"):
        return "inf"
    import decimal  # here, so that only a message pays for its import
    with decimal.localcontext(decimal.Context()):  # half to even, whatever the caller set
        return f"{decimal.Decimal(count):.2e}"


def quoted(value: object) -> str:
    """``repr(value)``, or ``three_digits`` for an int of 640 digits or
    more, which Python's int-to-text limit may refuse."""
    return three_digits(value) if isinstance(value, int) and abs(value) >= 10**639 else repr(value)
