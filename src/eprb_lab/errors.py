"""Exception hierarchy shared by all eprb_lab modules, the input rules of
every boundary, and two message helpers.

The rules: a number (``real``) is an int or a float, not a bool, within
the float range, so neither NaN, an infinity nor an int beyond the range;
an integer (``integer``) is an int, not a bool, within the caller's
bounds; a sequence (``sequence``) has a length, the caller's if it names
one, and is not text, a set or a mapping. ``quantum.probabilities`` adds
the rule of a distribution. Nothing is coerced: a string, a bool or None
is refused, and the error is the caller's ``EprbLabError`` subclass with
a one-line message that names the value.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Set


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
    """``repr(value)``, or ``three_digits`` for an int beyond the float
    range, whose text is long and may pass Python's int-to-text limit."""
    huge = isinstance(value, int) and abs(value) > sys.float_info.max
    return three_digits(value) if huge else repr(value)


def real(value: object, what: str, error: type[EprbLabError]) -> float:
    """``value`` as a float if it is a number: an int or a float, not a
    bool, finite and within the float range. Otherwise raises ``error``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # false for NaN, infinities and huge ints
            return float(value)
    raise error(f"{what} must be a finite number, got {quoted(value)}")


def integer(
    value: object, what: str, error: type[EprbLabError], low: int = 0, high: float = math.inf
) -> int:
    """``value`` if it is an int, not a bool, from ``low`` to ``high``.
    Otherwise raises ``error``."""
    if isinstance(value, int) and not isinstance(value, bool) and low <= value <= high:
        return value
    span = f"of at least {low}" if high == math.inf else f"from {low} to {high}"
    raise error(f"{what} must be an integer {span}, got {quoted(value)}")


def sequence(
    value: object, what: str, error: type[EprbLabError], length: int | None = None
) -> tuple:
    """``value`` as a tuple if it has a length and is not text, a set or a
    mapping, with ``length`` items if given. Otherwise raises ``error``."""
    try:
        count = None if isinstance(value, (str, bytes, Set, Mapping)) else len(value)
    except TypeError:  # also a 0-d numpy array
        count = None
    if count is None:
        raise error(f"{what} must be a sequence, got {quoted(value)}")
    if length is not None and count != length:
        raise error(f"{what} must be a sequence of {length}, got {count} items")
    return tuple(value)
