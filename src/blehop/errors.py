"""Exception hierarchy shared across the package."""

from contextlib import contextmanager

import numpy as np


class BlehopError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BlehopError):
    """Invalid scenario, parameter, or option value."""


@contextmanager
def reading(what):
    """Report a missing key or a bad value met while reading a ``what`` dict
    (parsed JSON) as a :class:`ConfigError`."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} is missing required key {exc}") from exc
    # e.g. a list where a dict belongs, or a number too large for its column
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"bad {what} value: {exc}") from exc


def check_int(value, what, low, high):
    """``value`` as an int if it is an int or a NumPy integer (not a bool) in
    ``low``..``high``; otherwise a :class:`ConfigError` naming ``what``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        raise ConfigError(f"{what} must be an integer in {low}..{high}, got {value!r}")
    return int(value)


def check_bool(value, what):
    """``value`` if it is a bool (``"false"`` and ``0`` are not); otherwise a
    :class:`ConfigError` naming ``what``."""
    if type(value) is not bool:
        raise ConfigError(f"{what} must be a JSON bool, got {value!r:.40}")
    return value


class TraceParseError(BlehopError):
    """A trace file could not be parsed.

    Carries the 1-based row (or line) number of the offending record so
    callers can point at the exact spot in the input file.
    """

    def __init__(self, row, reason):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class EstimationError(BlehopError):
    """An estimation step failed on the given data."""


class InsufficientDataError(EstimationError):
    """Not enough observations to run the requested estimator."""


class AmbiguousAlignmentError(EstimationError):
    """Counter alignment produced more than one equally good candidate."""

    def __init__(self, candidates):
        self.candidates = tuple(int(c) for c in candidates)
        super().__init__(f"ambiguous counter alignment: {len(self.candidates)} tied candidates")


class InconsistentEvidenceError(EstimationError):
    """Channel-map evidence cannot be reconciled with any valid map.

    Usually means the counter alignment or the channel identifier feeding
    the map inference is wrong.
    """
