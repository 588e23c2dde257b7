"""Forecast future channel accesses and track clock drift while doing so.

The temporal state of a connection is a two-component Kalman filter over
(anchor event timestamp, per-event interval) — a constant-velocity model
in which the interval plays the velocity role. Connection and sniffer
clocks diverge by an almost-constant frequency offset, so the model is
essentially exact: the filter's interval settles on the drift-scaled
interval and short-horizon predictions stay at the measurement-noise
floor. Forecasts extrapolate from the anchor; for CSA#2 the recovered
counter alignment and channel map yield each future event's channel, for
CSA#1 only visits to the sniffed channel (the recovered phase profile)
can be forecast.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csa import COUNTER_PERIOD, NUM_DATA_CHANNELS, csa2_channels_bulk
from .errors import (
    AmbiguousAlignmentError,
    ConfigError,
    EstimationError,
    InsufficientDataError,
    check_bool,
    check_int,
    reading,
)
from .reconstruct import Verdict, observation_offsets
from .simulate import EventTimeline
from .trace import SniffTrace

PROCESS_NOISE = 1.0  # white-acceleration density, ns^2 per event^3
MEASUREMENT_NOISE_VAR = 100_000.0**2  # (100 us sniffer timestamping noise)^2
DEFAULT_GATE_SIGMA = 6.0
INTERVAL_GUARD_FRACTION = 1e-3  # filter divergence guard: +/-0.1 % of nominal


class SyncState(NamedTuple):
    """Filtered synchronization to a connection's event grid.

    ``anchor_time_ns`` estimates the timestamp of the event at
    ``anchor_offset`` (event offsets count from the first observation the
    filter saw); ``interval_ns`` is the per-event period as measured in
    sniffer time. ``covariance`` holds the entries (p00, p01, p11) of the
    symmetric 2x2 error covariance over (anchor time, interval).

    An immutable named tuple, one per tracker step (built in about a
    third of a frozen dataclass's time). Its fields stay Python floats and
    ints: a NumPy scalar in one would slow every later step's arithmetic.
    """

    anchor_time_ns: float
    interval_ns: float
    covariance: tuple
    anchor_offset: int = 0
    nominal_interval_ns: float = 0.0


def init_sync(first_time_ns, interval_ns, *, nominal_interval_ns=None):
    """Start a tracker at the first observation of a connection."""
    if interval_ns <= 0:
        raise ConfigError(f"interval_ns must be positive, got {interval_ns}")
    nominal = float(nominal_interval_ns if nominal_interval_ns is not None else interval_ns)
    return SyncState(
        anchor_time_ns=float(first_time_ns),
        interval_ns=float(interval_ns),
        covariance=(MEASUREMENT_NOISE_VAR, 0.0, (nominal * 1e-4) ** 2),
        nominal_interval_ns=nominal,
    )


def _advance(sync, h):
    """A-priori time and covariance entries (p00, p01, p11) after ``h``
    events; ``h`` is a float or a float array (results are elementwise)."""
    time_pred = sync.anchor_time_ns + h * sync.interval_ns
    c00, c01, c11 = sync.covariance
    q = PROCESS_NOISE
    # F = [[1, h], [0, 1]]; Q from a white-noise acceleration of density q.
    # h * h is exact, so h * h * h is the correctly rounded cube (array pow is not)
    p00 = c00 + 2 * h * c01 + h * h * c11 + q * (h * h * h) / 3.0
    p01 = c01 + h * c11 + q * h * h / 2.0
    p11 = c11 + q * h
    return time_pred, p00, p01, p11


def kalman_update(sync, measured_time_ns, hops_since_last, *, gate_sigma=DEFAULT_GATE_SIGMA):
    """Advance the tracker by ``hops_since_last`` events and fuse one timestamp.

    An innovation beyond ``gate_sigma`` standard deviations is treated as
    an outlier: the state advances without a measurement update. A fused
    interval drifting more than 0.1 % from the nominal interval raises —
    that is divergence, not drift (physical clock offsets stay far below).
    """
    if hops_since_last < 1:
        raise ConfigError(f"hops_since_last must be >= 1, got {hops_since_last}")
    time_pred, p00, p01, p11 = _advance(sync, float(hops_since_last))
    innovation = float(measured_time_ns) - time_pred
    gain_denominator = p00 + MEASUREMENT_NOISE_VAR
    if innovation * innovation > gate_sigma**2 * gain_denominator:
        return SyncState(time_pred, sync.interval_ns, (p00, p01, p11),
                         sync.anchor_offset + int(hops_since_last), sync.nominal_interval_ns)
    k0 = p00 / gain_denominator
    k1 = p01 / gain_denominator
    new_interval = sync.interval_ns + k1 * innovation
    # (I - KH) P, symmetrized
    q00, q11 = (1 - k0) * p00, p11 - k1 * p01
    q01 = ((1 - k0) * p01 + (p01 - k1 * p00)) / 2.0
    if q00 < 0 or q11 < 0 or q00 * q11 - q01 * q01 < -1e-6:
        raise EstimationError("tracker covariance lost positive semi-definiteness")
    guard = sync.nominal_interval_ns
    if guard and abs(new_interval - guard) > INTERVAL_GUARD_FRACTION * guard:
        raise EstimationError(
            f"tracked interval {new_interval / 1e6:.6f} ms diverged more than 0.1 % "
            f"from the estimate {guard / 1e6:.6f} ms"
        )
    return SyncState(time_pred + k0 * innovation, new_interval, (q00, q01, q11),
                     sync.anchor_offset + int(hops_since_last), sync.nominal_interval_ns)


def predict_event_time(sync, event_offset):
    """Predicted timestamp and its standard deviation for an event offset.

    An int offset (Python or NumPy) gives two Python floats, computed
    without NumPy scalars, which cost several times more per operation in
    a live step; an int array gives two float64 arrays whose elements
    equal the scalar results bit for bit.
    """
    h = event_offset - sync.anchor_offset
    # float before cubing: int64 h**3 overflows silently past 2,097,151 events
    if isinstance(h, np.ndarray):
        time_pred, p00, _, _ = _advance(sync, h.astype(np.float64))
        return time_pred, np.sqrt(np.maximum(p00, 0.0))
    time_pred, p00, _, _ = _advance(sync, float(h))
    return time_pred, math.sqrt(max(p00, 0.0))


@dataclass
class Forecast:
    """Future events in time order, as four equal-length 1-D columns.

    For CSA#2 forecasts ``counters`` holds the on-air 16-bit event counters
    and ``counters_are_wire`` is true; CSA#1 forecasts cannot know the
    counter (it never enters channel selection), so ``counters`` holds the
    event offsets from the first estimation observation instead.
    """

    counters: np.ndarray
    channels: np.ndarray
    times_ns: np.ndarray
    time_stds_ns: np.ndarray
    counters_are_wire: bool = True

    def __len__(self):
        return self.counters.size

    def columns(self):
        """(counters, channels, times_ns, time_stds_ns)"""
        return self.counters, self.channels, self.times_ns, self.time_stds_ns

    def to_dict(self):
        return {
            "counters_are_wire": self.counters_are_wire,
            "entries": [
                {"counter": c, "channel": ch, "time_ns": t, "time_std_ns": s}
                for c, ch, t, s in zip(*(col.tolist() for col in self.columns()))
            ],
        }

    def to_json(self):
        """``json.dumps(self.to_dict(), indent=2) + "\\n"``, byte for byte.

        The rows are written from the columns with a ``repr`` template,
        because ``indent`` sends ``json.dumps`` to its slow pure-Python
        encoder. ``repr`` and JSON spell nan and inf differently, so a
        forecast with a non-finite value (or with no rows) is left to
        ``json.dumps``.
        """
        if len(self) == 0 or not all(np.isfinite(col).all() for col in self.columns()):
            return json.dumps(self.to_dict(), indent=2) + "\n"
        values = (col.tolist() for col in self.columns())
        row = ('    {\n      "counter": %r,\n      "channel": %r,\n'
               '      "time_ns": %r,\n      "time_std_ns": %r\n    }')
        return ('{\n  "counters_are_wire": %s,\n  "entries": [\n%s\n  ]\n}\n'
                % (json.dumps(self.counters_are_wire), ",\n".join(row % e for e in zip(*values))))

    @classmethod
    def from_dict(cls, raw):
        """Read the JSON form; counters and channels must be JSON integers
        (channels in 0..36), times finite JSON numbers, and
        ``counters_are_wire`` (true if absent) a JSON bool."""
        with reading("forecast"):
            entries = raw["entries"]
            if type(entries) is not list:
                raise ConfigError(f"forecast entries must be a list, got {entries!r:.40}")
            columns = []
            for key, kinds, dtype in (("counter", {int}, np.int64), ("channel", {int}, np.int64),
                                      ("time_ns", {int, float}, np.float64),
                                      ("time_std_ns", {int, float}, np.float64)):
                values = [e[key] for e in entries]
                if not set(map(type, values)) <= kinds:
                    raise ConfigError(f"forecast {key} values must be JSON "
                                      f"{'integers' if dtype is np.int64 else 'numbers'}")
                columns.append(np.array(values, dtype))
            counters, channels, times, stds = columns
            if not (np.all((channels >= 0) & (channels < NUM_DATA_CHANNELS))
                    and np.isfinite(times).all() and np.isfinite(stds).all()):
                raise ConfigError("forecast channels must be in 0..36 and its times finite")
            wire = check_bool(raw.get("counters_are_wire", True), "forecast counters_are_wire")
            return cls(*columns, counters_are_wire=wire)


def predict_csa1(classification, sync, horizon):
    """Forecast sniffed-channel visits of a CSA#1 connection.

    Only the recovered phase profile is predictable from one channel: the
    sniffed channel is visited whenever the event offset mod 37 falls in
    the profile.
    """
    if classification.verdict is Verdict.CSA2:
        raise ConfigError("classification is CSA#2; use predict_csa2")
    if horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {horizon}")
    offsets = np.arange(sync.anchor_offset + 1, sync.anchor_offset + horizon + 1)
    offsets = offsets[np.isin(offsets % NUM_DATA_CHANNELS, classification.period_profile)]
    channels = np.full(offsets.size, classification.sniff_channel)
    return Forecast(offsets, channels, *predict_event_time(sync, offsets),
                    counters_are_wire=False)


def predict_csa2(alignment, ci, channel_map, sync, horizon):
    """Forecast every event of a CSA#2 connection over the horizon.

    Needs an unambiguous counter alignment; with tied alignment candidates
    the forecast is refused rather than silently picking one.
    """
    if alignment.ambiguous:
        raise AmbiguousAlignmentError(alignment.candidates)
    if horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {horizon}")
    offsets = np.arange(sync.anchor_offset + 1, sync.anchor_offset + horizon + 1)
    counters = (alignment.k_init + offsets) % COUNTER_PERIOD
    channels = csa2_channels_bulk(counters, ci, channel_map)
    return Forecast(counters, channels, *predict_event_time(sync, offsets))


@dataclass
class EvalReport:
    """Forecast accuracy against ground truth or a held-out trace."""

    rmse_ns: float
    abs_errors_ns: np.ndarray
    eccdf: list
    p50_ns: float
    p95_ns: float
    matched: int
    missed_predictions: int
    unmatched_references: int
    channel_mismatches: int

    def to_dict(self):
        return {
            "rmse_us": self.rmse_ns / 1000.0,
            "p50_us": self.p50_ns / 1000.0,
            "p95_us": self.p95_ns / 1000.0,
            "matched": self.matched,
            "missed_predictions": self.missed_predictions,
            "unmatched_references": self.unmatched_references,
            "channel_mismatches": self.channel_mismatches,
            "eccdf": [[err / 1000.0, prob] for err, prob in self.eccdf],
        }


def _eccdf(abs_errors):
    """(error, P(error > threshold)) points, non-increasing in probability."""
    ordered = np.sort(abs_errors)
    n = ordered.size
    return [(float(e), float((n - i - 1) / n)) for i, e in enumerate(ordered)]


def _error_report(errors, channel_mismatches, missed, unmatched):
    errors = np.asarray(errors, dtype=float)
    abs_errors = np.abs(errors)
    return EvalReport(
        rmse_ns=float(np.sqrt(np.mean(errors**2))),
        abs_errors_ns=abs_errors,
        eccdf=_eccdf(abs_errors),
        p50_ns=float(np.percentile(abs_errors, 50)),
        p95_ns=float(np.percentile(abs_errors, 95)),
        matched=int(errors.size),
        missed_predictions=missed,
        unmatched_references=unmatched,
        channel_mismatches=channel_mismatches,
    )


def evaluate(forecast, reference, interval_ns):
    """Match a forecast against ground truth and score the timing errors.

    A ground-truth :class:`EventTimeline` is matched by event counter when
    the forecast carries wire counters (nearest-in-time among same-counter
    events, which disambiguates counter wraps); otherwise, and for real
    traces, each reference event takes the nearest prediction within half
    an interval. A trace is scored by its central packets and must hold
    one connection. Predictions left unmatched are counted as misses, not
    as errors.
    """
    if interval_ns <= 0:
        raise ConfigError(f"interval_ns must be positive, got {interval_ns}")
    if len(forecast) == 0:
        raise EstimationError("cannot evaluate an empty forecast")
    if isinstance(reference, EventTimeline) and forecast.counters_are_wire:
        return _evaluate_by_counter(forecast, reference)
    if isinstance(reference, EventTimeline):
        ref_times = reference.times_ns.astype(float)
        ref_channels = reference.channels
    elif isinstance(reference, SniffTrace):
        reference.only_address()  # raises on a trace that mixes addresses
        ref_times = reference.central().timestamps().astype(float)
        ref_channels = None
    else:
        raise ConfigError(f"cannot evaluate against {type(reference).__name__}")
    if ref_times.size == 0:
        raise EstimationError("reference contains no events")
    return _evaluate_by_time(forecast, ref_times, ref_channels, interval_ns)


def _evaluate_by_counter(forecast, timeline):
    by_counter = {}
    for idx, counter in enumerate((timeline.counters % COUNTER_PERIOD).tolist()):
        by_counter.setdefault(counter, []).append(idx)
    ref_times = timeline.times_ns.astype(float).tolist()
    ref_channels = timeline.channels.tolist()
    errors, mismatches, missed = [], 0, 0
    for counter, channel, time_ns in zip(forecast.counters.tolist(),
                                         forecast.channels.tolist(),
                                         forecast.times_ns.tolist()):
        indices = by_counter.get(counter)
        if not indices:
            missed += 1
            continue
        best = min(indices, key=lambda i: abs(ref_times[i] - time_ns))
        errors.append(ref_times[best] - time_ns)
        if ref_channels[best] != channel:
            mismatches += 1
    if not errors:
        raise EstimationError("forecast and reference share no event counters")
    unmatched = len(timeline) - len(errors)
    return _error_report(errors, mismatches, missed, unmatched)


def _evaluate_by_time(forecast, ref_times, ref_channels, interval_ns):
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
    taken, matched_preds, matched_refs, errors = set(), [], [], []
    for ref_idx, (t, pos, t_earlier, t_later) in enumerate(
            zip(ref_times.tolist(), positions.tolist(), earlier, later)):
        best, best_gap = None, half
        for cand, pred in ((pos - 1, t_earlier), (pos, t_later)):
            if 0 <= cand < n_pred and cand not in taken:
                gap = abs(pred - t)
                if gap <= best_gap:
                    best, best_gap, best_time = cand, gap, pred
        if best is not None:
            taken.add(best)
            matched_preds.append(best)
            matched_refs.append(ref_idx)
            errors.append(t - best_time)
    if not errors:
        raise EstimationError("no reference event falls within half an interval of a prediction")
    mismatches = 0
    if ref_channels is not None:
        mismatches = int(np.count_nonzero(forecast.channels[matched_preds]
                                          != ref_channels[matched_refs]))
    return _error_report(errors, mismatches, n_pred - len(taken),
                         ref_times.size - len(matched_refs))


@dataclass
class PredictionRun:
    """Output bundle of the train/predict/evaluate pipeline."""

    forecast: Forecast
    rolling: Forecast
    report: EvalReport
    sync: SyncState


def run_prediction(trace, recon, *, train_ns=100_000_000_000, horizon=None, channel=None):
    """Train a tracker on the head of a trace, then predict its tail.

    The first ``train_ns`` of observations initialize and settle the
    tracker. Over the remainder the pipeline predicts each upcoming
    observation before consuming it (staying synchronized exactly as a
    live sniffer would) — those one-step predictions against the held-out
    observations make the evaluation report. A long-horizon forecast from
    the end-of-training anchor is returned alongside; ``horizon`` defaults
    to covering the trace and is counted in events past that anchor.
    ``channel`` restricts that forecast to events on one channel. Only the
    central packets of the trace are observations.
    """
    if channel is not None:
        check_int(channel, "channel", 0, NUM_DATA_CHANNELS - 1)
    # a trace of another connection would be forecast on this one's channels
    aa = trace.only_address()
    if aa is not None and aa != recon.access_address:
        raise ConfigError(f"trace holds 0x{aa:08X}, not the report's "
                          f"0x{recon.access_address:08X}")
    if recon.error:
        raise EstimationError(f"reconstruction failed: {recon.error}")
    classification = recon.classification
    est = classification.interval
    trace = trace.central()
    ts = trace.timestamps()
    offsets = observation_offsets(trace, est.raw_interval_ns)
    n_train = int(np.sum(ts <= ts[0] + int(train_ns)))
    if n_train < 2:
        raise InsufficientDataError("training window holds fewer than 2 observations")
    if n_train == ts.size:
        raise InsufficientDataError("training window covers the whole trace; nothing to predict")

    is_csa2 = classification.verdict is Verdict.CSA2
    if is_csa2:
        if recon.alignment is None:
            raise EstimationError("no counter alignment available for a CSA#2 forecast")
        if recon.alignment.ambiguous:
            raise AmbiguousAlignmentError(recon.alignment.candidates)
        if recon.channel_id is None:
            raise EstimationError("no channel identifier available for a CSA#2 forecast")
        if recon.map_estimate is None:
            raise EstimationError("no channel map estimate available for a CSA#2 forecast")

    # train on the head; over the held-out tail predict each observation
    # one step ahead before fusing it
    sync = init_sync(ts[0], est.raw_interval_ns, nominal_interval_ns=est.raw_interval_ns)
    times, stds = np.empty(ts.size - n_train), np.empty(ts.size - n_train)
    for j in range(1, ts.size):
        offset = int(offsets[j])
        if j == n_train:
            anchor_sync = sync
        if j >= n_train:
            times[j - n_train], stds[j - n_train] = predict_event_time(sync, offset)
        sync = kalman_update(sync, ts[j], offset - sync.anchor_offset)
    held_out = offsets[n_train:]
    if is_csa2:
        counters = (recon.alignment.k_init + held_out) % COUNTER_PERIOD
        channels = csa2_channels_bulk(counters, recon.channel_id, recon.map_estimate.assumed_map)
    else:
        counters = held_out
        channels = np.full(held_out.size, classification.sniff_channel)
    rolling = Forecast(counters, channels, times, stds, counters_are_wire=is_csa2)
    report = _evaluate_by_time(rolling, ts[n_train:].astype(float), None, est.raw_interval_ns)

    if horizon is None:
        span = int(offsets[-1]) - anchor_sync.anchor_offset
        horizon = max(span, 0)
    if is_csa2:
        forecast = predict_csa2(recon.alignment, recon.channel_id,
                                recon.map_estimate.assumed_map, anchor_sync, horizon)
    else:
        forecast = predict_csa1(classification, anchor_sync, horizon)
    if channel is not None:
        keep = forecast.channels == channel
        forecast = Forecast(*(col[keep] for col in forecast.columns()),
                            counters_are_wire=forecast.counters_are_wire)
    return PredictionRun(forecast=forecast, rolling=rolling, report=report, sync=sync)
