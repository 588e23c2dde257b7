"""Exception hierarchy shared across the package."""

import functools
import math
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
    if type(value) is int and low <= value <= high:  # a live step's case: no isinstance calls
        return value
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        raise ConfigError(f"{what} must be an integer in {low}..{high}, got {value!r}")
    return int(value)


# bound once: a numpy module attribute costs about 20 ns a lookup in the fast path
_INT64, _NDARRAY = np.dtype(np.int64), np.ndarray
_IINFO = functools.cache(np.iinfo)  # np.iinfo takes about 1.4 us a call


def check_ints(values, what, low=None, high=None, dtype=_INT64):
    """``values`` as a ``dtype`` array (of its own for None), cast without a copy
    where possible, if of an integer dtype (or bool, for a 0..1 range) and in
    ``low``..``high`` when a range is given, else a :class:`ConfigError` naming
    ``what``; so is a ragged sequence, or one that mixes bools with integers
    where a bool is refused. Without a range the cast wraps mod 2**64; an
    empty array passes."""
    if type(values) is _NDARRAY and values.dtype is _INT64 and low is None and dtype is _INT64:
        return values  # a live step's case: no conversion
    where = "" if low is None else f" in {low}..{high}"
    kinds = "iub" if (low, high) == (0, 1) else "iu"
    try:
        array = np.asarray(values)
    except ValueError:
        raise ConfigError(f"{what} must be integers{where}, got a ragged sequence") from None
    if array.size and array.dtype.kind not in kinds:
        raise ConfigError(f"{what} must be integers{where}, got a {array.dtype} array")
    # np.asarray reads the bools of a sequence that mixes them with integers as 0 and 1
    if isinstance(values, (list, tuple)) and "b" not in kinds and not {bool, np.bool_}.isdisjoint(
            map(type, np.asarray(values, dtype=object).flat)):
        raise ConfigError(f"{what} must be integers{where}, got a sequence holding bools")
    if array.size and low is not None and array.dtype != bool:  # a bool is in 0..1
        info = _IINFO(array.dtype)  # a range the dtype cannot leave is not scanned
        # a scalar is its own range: no reductions
        lo, hi = (int(array),) * 2 if array.ndim == 0 else (int(array.min()), int(array.max()))
        if not (low <= info.min and info.max <= high or low <= lo <= hi <= high):
            raise ConfigError(f"{what} must be integers{where}, got {lo}..{hi}")
    return array if dtype is None else array.astype(dtype, copy=False)


def check_number(value, what, low=-math.inf, high=math.inf, ends="[]"):
    """``value`` as a Python int or float if it is an int, a float or a NumPy
    integer or floating scalar (not a bool) from ``low`` to ``high``, each
    end closed or open as the brackets of ``ends`` say ("[]", "[)", "(]" or
    "()"); NaN is in no range. Otherwise a :class:`ConfigError` naming ``what``."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()
    if type(value) in (int, float) and (low <= value if ends[0] == "[" else low < value) and (
            value <= high if ends[1] == "]" else value < high):
        return value
    raise ConfigError(f"{what} must be a number in {ends[0]}{low}, {high}{ends[1]}, "
                      f"got {value!r:.40}")


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
