"""Forecast future channel accesses and track clock drift while doing so.

Connection and sniffer clocks diverge by an almost-constant frequency
offset, so a connection's event times lie on a line: the event at offset
h (counted from the first observation) falls at t0 + h * interval, both
measured in sniffer time. The tracker fits that line by ordinary least
squares to every timestamp it has fused (the Kalman filter without process
noise, and without its tuning): its state is the fit's running sums, an
update adds one observation, and the timestamp noise is measured from the
fit's residuals. Forecasts extrapolate the fitted line; for CSA#2 the
recovered counter alignment and channel map yield each future event's
channel, for CSA#1 only visits to the sniffed channel (the recovered phase
profile) can be forecast.
"""

from __future__ import annotations

import json
import math
import operator
import re
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csa import (
    COUNTER_PERIOD,
    NUM_DATA_CHANNELS,
    CsaVersion,
    check_access_address,
    csa2_channels_bulk,
)
from .errors import (
    AmbiguousAlignmentError,
    ConfigError,
    EstimationError,
    InsufficientDataError,
    check_bool,
    check_int,
    check_ints,
    check_number,
    reading,
)
from .reconstruct import observation_offsets
from .simulate import MAX_EVENTS, EventTimeline
from .trace import SniffTrace, format_rows, parse_decimals


class SyncState(NamedTuple):
    """A least-squares fit to a connection's event grid, as running sums.

    Each fused observation, at event offset h from the first one and at
    timestamp t, enters by its residual r = t - origin_ns - h *
    ref_interval_ns from a reference line, ``origin_ns`` being the first
    timestamp (exact forecasts need an int). The state holds their count
    ``n`` and the sums of h, h², r, h·r and r²; ``anchor_offset`` is the
    offset of the last observation fused.

    An immutable named tuple, one per tracker step (built in about a
    third of a frozen dataclass's time). Its fields stay Python floats and
    ints: a NumPy scalar in one would slow every later step's arithmetic.
    """

    origin_ns: int | float
    ref_interval_ns: float
    n: int = 1
    sum_h: float = 0.0
    sum_hh: float = 0.0
    sum_r: float = 0.0
    sum_hr: float = 0.0
    sum_rr: float = 0.0
    anchor_offset: int = 0


def init_sync(first_time_ns, interval_ns, *, nominal_interval_ns=None):
    """Start a tracker at the first observation of a connection.

    ``first_time_ns``, a finite number, is the origin; an integer one stays
    an int, so integer timestamps are fused exactly at any epoch.
    ``interval_ns``, in (0, inf), sets the reference line residuals are
    measured from; the fit does not depend on it. ``nominal_interval_ns`` is
    accepted and not used; perfbench's ``track`` follower still passes it.
    """
    interval_ns = check_number(interval_ns, "interval_ns", 0, math.inf, "()")
    return SyncState(check_number(first_time_ns, "first_time_ns", ends="()"), float(interval_ns))


def _fit(sync, h):
    """The fitted time at event offset ``h``, from ``origin_ns``, and its variance.

    ``h`` is a float or a float array, and the state's sums may be arrays
    too (one state per element); either way each element is computed by
    the same operations, so scalar and array results agree bit for bit.
    The variance is R(1/n + (h - mean h)^2 / Sxx), where R, the residual
    variance of the fit, measures the timestamp noise.
    """
    n = sync.n
    mean_h, mean_r = sync.sum_h / n, sync.sum_r / n
    sxx = sync.sum_hh - sync.sum_h * mean_h
    sxy = sync.sum_hr - sync.sum_h * mean_r
    slope = sxy / sxx
    noise = (sync.sum_rr - sync.sum_r * mean_r - slope * sxy) / (n - 2)
    dh = h - mean_h
    time = h * sync.ref_interval_ns + (mean_r + slope * dh)
    return time, noise * (1 / n + dh * dh / sxx)


def _at_origin(origin_ns, time_ns):
    """An int ``origin_ns`` plus times as whole int64 ns, exact at any origin:
    (origin - p) + round(p + time), p the origin's parity, rounds ties half
    to even on the absolute time. A sum an int64 add would wrap is refused."""
    parity = origin_ns % 2
    base, rounded = origin_ns - parity, np.round(np.add(parity, time_ns))
    # a float within int64 converts exactly, an int as it is
    if (rounded.dtype.kind in "iu" or np.all(np.abs(rounded) < 2.0**63)) and (  # nan too
            _INT64.min <= base + int(rounded.min(initial=0))
            and base + int(rounded.max(initial=0)) <= _INT64.max):
        return rounded.astype(np.int64, copy=False) + base
    raise ConfigError("forecast times must be finite and within int64 ns")


def kalman_update(sync, measured_time_ns, hops_since_last):
    """Fuse one timestamp, a finite number (an integer exactly, from the origin),
    ``hops_since_last`` (an int >= 1) events past the last one fused."""
    h = sync.anchor_offset + check_int(hops_since_last, "hops_since_last", 1, 2**63 - 1)
    # operator.index would take a bool as 0 or 1; None sends it to check_number
    stamp = None if type(measured_time_ns) is bool else measured_time_ns
    try:
        r = float(operator.index(stamp) - sync.origin_ns) - h * sync.ref_interval_ns
    except TypeError:  # not an integer: check_number takes a float and refuses the rest
        r = check_number(measured_time_ns, "measured_time_ns", ends="()") - sync.origin_ns
        r -= h * sync.ref_interval_ns
    if not math.isfinite(r):  # a NaN would stay in the sums and in every later prediction
        raise ConfigError(f"measured_time_ns must be finite, got {measured_time_ns}")
    return SyncState(sync.origin_ns, sync.ref_interval_ns, sync.n + 1, sync.sum_h + h,
                     sync.sum_hh + h * h, sync.sum_r + r, sync.sum_hr + h * r,
                     sync.sum_rr + r * r, h)


def predict_event_time(sync, event_offset):
    """Predicted timestamp and its standard deviation for an event offset.

    The fit needs 3 observations, 2 for the line and 1 for its noise. An
    int offset (Python or NumPy) gives two Python floats, computed without
    NumPy scalars, which cost several times more per operation in a live
    step; an int array gives two float64 arrays whose elements equal the
    scalar results bit for bit.
    """
    if sync.n < 3:
        raise InsufficientDataError(f"the tracker has fused {sync.n} observation(s); "
                                    "a prediction needs 3")
    if isinstance(event_offset, np.ndarray):
        time_pred, var = _fit(sync, check_ints(event_offset, "event_offset").astype(np.float64))
        return sync.origin_ns + time_pred, np.sqrt(np.maximum(var, 0.0))
    time_pred, var = _fit(sync, float(check_int(event_offset, "event_offset", -2**63, 2**63 - 1)))
    return sync.origin_ns + time_pred, math.sqrt(max(var, 0.0))


# An entry of forecast.json as json.dumps(indent=2) writes it, and the ",\n" after it
_FIELDS = ("counter", "channel", "time_ns", "time_std_ns")
_ROW = ("    {\n%s\n    },\n" % ",\n".join(f'      "{key}": %d' for key in _FIELDS)).encode()
_ENTRIES_OPEN, _TAIL = b',\n  "entries": [\n', b"\n  ]\n}\n"
# What to_json writes around the rows; the access address as _head writes it
_HEAD = re.compile(rb'\{\n(?:  "access_address": "(0x[0-9A-F]{8})",\n)?'
                   rb'  "counters_are_wire": (true|false)' + re.escape(_ENTRIES_OPEN))
_NUMBER_BYTES = b"0123456789-"
# a row and the ",\n" after it, without its numbers, and where each number goes
_SKELETON_ROW = (_ROW % (0, 0, 0, 0)).translate(None, _NUMBER_BYTES)
_SLOTS = np.array([m.end() for m in re.finditer(b": ", _SKELETON_ROW)])
# the skeleton bytes from each slot to the next, the last to the next row's first
_GAPS = np.diff(_SLOTS, append=_SLOTS[0] + len(_SKELETON_ROW))
_ROW_END = b"\n    },\n"  # a row's last line and the separator after it
_INT64 = np.iinfo(np.int64)
_READ_BLOCK_BYTES = 1 << 18


def _read_rows(data):
    """The head keys and the four int64 columns of ``data`` if it is laid
    out exactly as ``to_json`` writes a non-empty forecast, else None.

    Rows are read in blocks of about ``_READ_BLOCK_BYTES``, each cut at a
    row's end, so the temporaries stay the size of one block.
    """
    head = _HEAD.match(data)
    if head is None or not data.endswith(_TAIL):
        return None
    start, end = head.end(), len(data) - len(_TAIL)
    # room for the most rows the body can hold: rows of one-digit numbers
    columns = np.empty((len(_FIELDS), (end - start + 2) // (len(_SKELETON_ROW) + len(_FIELDS))),
                       np.int64)
    rows = 0
    while start < end:
        stop = data.find(_ROW_END, start + _READ_BLOCK_BYTES, end)
        stop = end if stop < 0 else stop + len(_ROW_END) - 2  # up to the row's "}"
        values = _read_block(data, start, stop)
        if values is None:
            return None
        k = values.size // len(_FIELDS)
        columns[:, rows:rows + k] = values.reshape(k, len(_FIELDS)).T
        rows += k
        start = stop + 2  # past the ",\n" between rows
    address, wire = head.groups()
    raw = {"counters_are_wire": wire == b"true"}
    if address is not None:
        raw["access_address"] = address.decode()
    return raw, tuple(columns[:, :rows])


def _read_block(data, start, stop):
    """The numbers of ``data[start:stop]``, k rows as ``to_json`` writes
    them joined by ",\\n", as one flat int64 array; None unless every byte
    is where and as ``to_json`` would write it.

    With the numbers' bytes deleted, the block must be k row skeletons, so
    its colons are the skeleton's. Each number's slot starts two bytes
    after its colon and ends the skeleton's gap before the next slot, or
    before the block's last line; the slots must hold every number byte,
    and each must hold one number as ``%d`` writes it.
    """
    skeleton = data[start:stop].translate(None, _NUMBER_BYTES)
    k, rest = divmod(len(skeleton) + 2, len(_SKELETON_ROW))  # the last row has no ",\n"
    if rest or skeleton + b",\n" != _SKELETON_ROW * k:
        return None
    buf = np.frombuffer(data, np.uint8)
    slots = np.flatnonzero(buf[start:stop] == ord(":")) + (start + 2)
    ends = np.empty_like(slots)
    ends[:-1] = slots[1:] - np.tile(_GAPS, k)[:-1]
    ends[-1] = stop - len(_ROW_END) + 2  # before the last "\n    }"
    if (ends - slots).sum() != stop - start - len(skeleton):
        return None
    return parse_decimals(buf, slots, ends)


@dataclass
class Forecast:
    """Future events in time order, as four equal-length int64 columns.

    For CSA#2 forecasts ``counters`` holds the on-air 16-bit event counters
    and ``counters_are_wire`` is true; CSA#1 forecasts cannot know the
    counter (it never enters channel selection), so ``counters`` holds the
    event offsets from the first estimation observation instead. Times and
    their stds are whole nanoseconds, like the timestamps they predict (the
    constructor rounds floats half to even); counters and channels (0..36)
    must be integers. ``access_address`` names the connection, if known.
    """

    counters: np.ndarray
    channels: np.ndarray
    times_ns: np.ndarray
    time_stds_ns: np.ndarray
    counters_are_wire: bool = True
    access_address: int | None = None

    def __post_init__(self):
        shapes = {np.shape(col) for col in self.columns()}  # zip would drop unequal rows
        if len(shapes) > 1 or len(next(iter(shapes))) != 1:
            raise ConfigError(f"forecast columns must be 1-D and of one length, got {shapes}")
        self.counters = check_ints(self.counters, "forecast counters", -2**63, 2**63 - 1)
        self.channels = check_ints(self.channels, "forecast channels", 0, NUM_DATA_CHANNELS - 1)
        self.times_ns, self.time_stds_ns = (_at_origin(0, self.times_ns),
                                            _at_origin(0, self.time_stds_ns))

    def __len__(self):
        return self.counters.size

    def columns(self):
        """(counters, channels, times_ns, time_stds_ns)"""
        return self.counters, self.channels, self.times_ns, self.time_stds_ns

    def _head(self):
        """The keys written before the entries."""
        head = {} if self.access_address is None else {
            "access_address": f"0x{self.access_address:08X}"}
        head["counters_are_wire"] = self.counters_are_wire
        return head

    def to_dict(self):
        return {
            **self._head(),
            "entries": [
                {"counter": c, "channel": ch, "time_ns": t, "time_std_ns": s}
                for c, ch, t, s in zip(*(col.tolist() for col in self.columns()))
            ],
        }

    def to_json(self):
        """``json.dumps(self.to_dict(), indent=2) + "\\n"`` as UTF-8 bytes,
        byte for byte, with the rows written from the columns by
        :func:`format_rows`: ``indent`` sends ``json.dumps`` to its slow
        pure-Python encoder. Integers need no nan/inf fallback, so only an
        empty forecast is left to ``json.dumps``."""
        if len(self) == 0:
            return (json.dumps(self.to_dict(), indent=2) + "\n").encode()
        head = json.dumps(self._head(), indent=2)[:-2]  # without its closing "\n}"
        parts = [head.encode(), _ENTRIES_OPEN, *format_rows(_ROW, self.columns())]
        parts[-1] = parts[-1][:-2] + _TAIL  # the last row has no ",\n"
        return b"".join(parts)

    @classmethod
    def from_json(cls, data):
        """Read the bytes of a forecast file: the layout ``to_json`` writes
        is parsed a block of rows at a time, any other text by ``from_dict``
        after ``json.loads``; both give the same forecast or the same error.
        Text is decoded as UTF-8."""
        read = _read_rows(data)
        if read is None:
            return cls.from_dict(json.loads(data.decode()))
        head, columns = read
        with reading("forecast"):
            return cls._checked(columns, head)

    @classmethod
    def from_dict(cls, raw):
        """Read the JSON form; all four entry fields must be JSON integers
        (channels in 0..36), ``counters_are_wire`` a JSON bool and
        ``access_address`` (optional) a 32-bit hex string."""
        with reading("forecast"):
            entries = raw["entries"]
            if type(entries) is not list:
                raise ConfigError(f"forecast entries must be a list, got {entries!r:.40}")
            columns = []
            for key in _FIELDS:
                values = [e[key] for e in entries]
                if not set(map(type, values)) <= {int}:
                    raise ConfigError(f"forecast {key} values must be JSON integers")
                columns.append(np.array(values, np.int64))
            return cls._checked(columns, raw)

    @classmethod
    def _checked(cls, columns, raw):
        """The forecast of four int64 columns, in ``_FIELDS`` order, and the
        head keys of ``raw``, all checked."""
        wire = check_bool(raw["counters_are_wire"], "forecast counters_are_wire")
        aa = raw.get("access_address")
        if aa is not None:
            aa = check_access_address(int(aa, 16))
        return cls(*columns, counters_are_wire=wire, access_address=aa)


def _verdict(report):
    """The report's classification; a failed report is refused."""
    if report.error or report.classification is None:
        raise EstimationError(f"reconstruction failed: {report.error or 'no verdict'}")
    return report.classification


def predict_events(report, sync, horizon, channel=None):
    """Forecast the ``horizon`` events past the tracker's anchor, on the
    channels the report's verdict selects: for CSA#2 every event, its wire
    counter from ``k_init`` and its channel under the assumed map (tied
    alignment candidates are refused, not silently picked from); for CSA#1
    the visits to ``sniff_channel``, the offsets (the counters' stand-in)
    whose phase mod 37 is in the profile. ``channel`` keeps one channel's
    events, and only their times are computed."""
    if channel is not None:
        check_int(channel, "channel", 0, NUM_DATA_CHANNELS - 1)
    is_csa2 = _verdict(report).verdict is CsaVersion.CSA2
    if is_csa2:
        if report.alignment is None:
            raise EstimationError("no counter alignment available for a CSA#2 forecast")
        if report.alignment.ambiguous:
            raise AmbiguousAlignmentError(report.alignment.candidates)
        if report.map_estimate is None:
            raise EstimationError("no channel map estimate available for a CSA#2 forecast")
    check_int(horizon, "horizon", 0, MAX_EVENTS)
    offsets = np.arange(sync.anchor_offset + 1, sync.anchor_offset + horizon + 1)
    if is_csa2:
        counters = (report.alignment.k_init + offsets) % COUNTER_PERIOD
        channels = csa2_channels_bulk(counters, report.channel_id,
                                      report.map_estimate.assumed_map)
    else:
        offsets = offsets[np.isin(offsets % NUM_DATA_CHANNELS,
                                  report.classification.period_profile)]
        counters, channels = offsets, np.full(offsets.size, report.sniff_channel)
    if channel is not None:
        keep = channels == channel
        offsets, counters, channels = offsets[keep], counters[keep], channels[keep]
    times, stds = predict_event_time(sync._replace(origin_ns=0), offsets)  # from the origin
    return Forecast(counters, channels, _at_origin(sync.origin_ns, times), stds,
                    counters_are_wire=is_csa2, access_address=report.access_address)


@dataclass
class EvalReport:
    """Forecast accuracy against ground truth or a held-out trace: the
    matched timing errors (given signed or not, stored absolute, in ns) and
    three counts. ``matched``, ``rmse_ns``, ``p50_ns``, ``p95_ns`` and
    ``eccdf`` are derived from ``abs_errors_ns``; ``to_dict`` is the summary."""

    abs_errors_ns: np.ndarray
    missed_predictions: int = 0
    unmatched_references: int = 0
    channel_mismatches: int = 0

    def __post_init__(self):
        self.abs_errors_ns = np.abs(np.asarray(self.abs_errors_ns, dtype=float))

    @property
    def matched(self):
        return int(self.abs_errors_ns.size)

    @property
    def rmse_ns(self):
        return float(np.sqrt(np.mean(self.abs_errors_ns**2)))

    @property
    def p50_ns(self):
        return float(np.percentile(self.abs_errors_ns, 50))

    @property
    def p95_ns(self):
        return float(np.percentile(self.abs_errors_ns, 95))

    @property
    def eccdf(self):
        """(error, P(error > that error)) points, one per matched error in
        ascending order, so tied errors repeat one point."""
        ordered = np.sort(self.abs_errors_ns)
        above = ordered.size - np.searchsorted(ordered, ordered, side="right")
        return [(e, k / ordered.size) for e, k in zip(ordered.tolist(), above.tolist())]

    def to_dict(self):
        return {
            "rmse_us": self.rmse_ns / 1000.0,
            "p50_us": self.p50_ns / 1000.0,
            "p95_us": self.p95_ns / 1000.0,
            "matched": self.matched,
            "missed_predictions": self.missed_predictions,
            "unmatched_references": self.unmatched_references,
            "channel_mismatches": self.channel_mismatches,
        }


def evaluate(forecast, reference, interval_ns):
    """Match a forecast against a reference and score the timing errors.

    One rule for every reference: each reference event, in time order,
    takes the nearest untaken prediction within half an interval, and the
    two are compared on time and channel; ``interval_ns`` is in (0, inf). A
    trace must hold one connection and is scored by its central packets,
    each heard on its sniff_channel. Predictions left unmatched are counted
    as misses, not as errors. Forecast times must not go backwards: a
    hand-built forecast whose times do raises :class:`ConfigError`.
    """
    interval_ns = check_number(interval_ns, "interval_ns", 0, math.inf, "()")
    if len(forecast) == 0:
        raise EstimationError("cannot evaluate an empty forecast")
    if isinstance(reference, EventTimeline):  # int times: errors exact at any origin
        ref_times = reference.times_ns
        ref_channels = reference.channels
    elif isinstance(reference, SniffTrace):
        ref_times = reference.connection()[1].timestamps()
        ref_channels = np.full(ref_times.size, reference.sniff_channel)
    else:
        raise ConfigError(f"cannot evaluate against {type(reference).__name__}")
    if ref_times.size == 0:
        raise EstimationError("reference contains no events")
    pred_times = forecast.times_ns
    if np.any(np.diff(pred_times) < 0):
        raise ConfigError("forecast times must be non-decreasing")
    half = interval_ns / 2.0
    n_pred = pred_times.size
    # each reference event's neighbours in time, looked up in one call (a
    # clipped one is out of range and skipped); the matching itself is
    # sequential, as a reference event may not take a prediction already taken
    positions = np.searchsorted(pred_times, ref_times)
    earlier = pred_times[np.maximum(positions - 1, 0)].tolist()
    later = pred_times[np.minimum(positions, n_pred - 1)].tolist()
    taken = bytearray(n_pred)
    matched_preds, matched_refs, errors = array("q"), array("q"), array("d")
    for ref_idx, (t, pos, t_earlier, t_later) in enumerate(
            zip(ref_times.tolist(), positions.tolist(), earlier, later)):
        best, best_gap = -1, half
        for cand, pred in ((pos - 1, t_earlier), (pos, t_later)):
            if 0 <= cand < n_pred and not taken[cand]:
                gap = abs(pred - t)
                if gap <= best_gap:
                    best, best_gap, best_time = cand, gap, pred
        if best >= 0:
            taken[best] = 1
            matched_preds.append(best)
            matched_refs.append(ref_idx)
            errors.append(t - best_time)
    if not errors:
        raise EstimationError("no reference event falls within half an interval of a prediction")
    mismatches = int(np.count_nonzero(forecast.channels[np.asarray(matched_preds)]
                                      != ref_channels[np.asarray(matched_refs)]))
    return EvalReport(errors, n_pred - len(matched_preds), ref_times.size - len(matched_refs),
                      mismatches)


@dataclass
class PredictionRun:
    """Output bundle of the train/predict/evaluate pipeline."""

    forecast: Forecast
    report: EvalReport


def run_prediction(trace, recon, *, train_ns=100_000_000_000, horizon=None, channel=None):
    """Train a tracker on the head of a trace, then predict its tail.

    The tracker is fitted to the observations in the first ``train_ns``, in
    [0, inf] (at least 3). Over the remainder each observation is predicted
    one step ahead from every observation before it, as a live sniffer
    following the connection would predict it; each one-step prediction,
    scored against the observation it was made for, makes the evaluation
    report. A long-horizon forecast from the end-of-training anchor, by
    :func:`predict_events`, is returned alongside; ``horizon`` defaults to
    covering the trace and is counted in events past that anchor.
    ``channel`` restricts that forecast to events on one channel. Only the
    central packets of the trace are observations.
    """
    train_ns = check_number(train_ns, "train_ns", 0, math.inf)
    # a trace of another connection would be forecast on this one's channels
    aa, trace = trace.connection()
    if aa is not None and aa != recon.access_address:
        raise ConfigError(f"trace holds 0x{aa:08X}, not the report's "
                          f"0x{recon.access_address:08X}")
    # k_init counts from the first observation on the report's sniffed channel
    if aa is not None and recon.sniff_channel not in (None, trace.sniff_channel):
        raise ConfigError(f"trace was sniffed on channel {trace.sniff_channel}, not the "
                          f"report's channel {recon.sniff_channel}")
    est = _verdict(recon).interval
    ts = trace.timestamps()
    # k_init and the period profile count events from the report's first observation
    first = int(ts[0]) if ts.size else None
    if first != recon.first_timestamp_ns:
        raise ConfigError(f"trace's first central packet is at {first} ns, not the report's "
                          f"first_timestamp_ns {recon.first_timestamp_ns}")
    offsets = observation_offsets(trace, est.raw_interval_ns)
    # a window past the last observation covers the trace, however long
    n_train = int(np.sum(ts <= first + int(min(train_ns, int(ts[-1]) - first))))
    if n_train < 3:
        raise InsufficientDataError("training window holds fewer than 3 observations")
    if n_train == ts.size:
        raise InsufficientDataError("training window covers the whole trace; nothing to predict")

    # the tracker's sums after each observation, all at once: np.cumsum adds
    # in order, as a loop of kalman_update does, so each prefix is the state
    # that loop would reach, bit for bit, from the int origin ``first``
    h, interval = offsets.astype(np.float64), float(est.raw_interval_ns)
    r = (ts - first).astype(np.float64) - h * interval
    sums = np.cumsum([h, h * h, r, h * r, r * r], axis=1)
    # each held-out observation predicted one step ahead, from all before it
    before = slice(n_train - 1, -1)
    times, _ = _fit(SyncState(first, interval, np.arange(n_train, ts.size), *sums[:, before]),
                    h[n_train:])
    # whole nanoseconds, as a forecast holds them
    report = EvalReport(ts[n_train:] - _at_origin(first, times))
    anchor_sync = SyncState(first, interval, n_train, *sums[:, n_train - 1].tolist(),
                            int(offsets[n_train - 1]))

    if horizon is None:
        horizon = int(offsets[-1]) - anchor_sync.anchor_offset
    return PredictionRun(predict_events(recon, anchor_sync, horizon, channel), report)
