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

from dataclasses import dataclass, replace

import numpy as np

from .csa import COUNTER_PERIOD, NUM_DATA_CHANNELS, csa2_channels_bulk
from .errors import (
    AmbiguousAlignmentError,
    ConfigError,
    EstimationError,
    InsufficientDataError,
    reading,
)
from .reconstruct import Verdict, observation_offsets
from .simulate import EventTimeline
from .trace import SniffTrace

DEFAULT_MEASUREMENT_SIGMA_NS = 100_000.0  # 100 us sniffer timestamping noise
DEFAULT_PROCESS_NOISE = 1.0  # white-acceleration density, ns^2 per event^3
DEFAULT_GATE_SIGMA = 6.0
INTERVAL_GUARD_FRACTION = 1e-3  # filter divergence guard: +/-0.1 % of nominal


@dataclass(frozen=True)
class SyncState:
    """Filtered synchronization to a connection's event grid.

    ``anchor_time_ns`` estimates the timestamp of the event at
    ``anchor_offset`` (event offsets count from the first observation the
    filter saw); ``interval_ns`` is the per-event period as measured in
    sniffer time. ``covariance`` is the 2x2 error covariance over
    (anchor time, interval).
    """

    anchor_time_ns: float
    interval_ns: float
    covariance: np.ndarray
    anchor_offset: int = 0
    nominal_interval_ns: float = 0.0
    process_noise: float = DEFAULT_PROCESS_NOISE
    measurement_noise_var: float = DEFAULT_MEASUREMENT_SIGMA_NS**2


def init_sync(first_time_ns, interval_ns, *, nominal_interval_ns=None,
              process_noise=DEFAULT_PROCESS_NOISE,
              measurement_sigma_ns=DEFAULT_MEASUREMENT_SIGMA_NS):
    """Start a tracker at the first observation of a connection."""
    if interval_ns <= 0:
        raise ConfigError(f"interval_ns must be positive, got {interval_ns}")
    nominal = float(nominal_interval_ns if nominal_interval_ns is not None else interval_ns)
    r = float(measurement_sigma_ns) ** 2
    covariance = np.diag([r, (nominal * 1e-4) ** 2])
    return SyncState(
        anchor_time_ns=float(first_time_ns),
        interval_ns=float(interval_ns),
        covariance=covariance,
        anchor_offset=0,
        nominal_interval_ns=nominal,
        process_noise=float(process_noise),
        measurement_noise_var=r,
    )


def _advance(sync, hops):
    """A-priori time and covariance entries (p00, p01, p11) after ``hops``
    events; ``hops`` may be an int or an int array (results are elementwise)."""
    # float before cubing: int64 h**3 overflows silently past 2,097,151 events
    h = np.float64(hops)
    time_pred = sync.anchor_time_ns + h * sync.interval_ns
    (c00, c01), (_, c11) = sync.covariance.tolist()
    q = sync.process_noise
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
    time_pred, p00, p01, p11 = _advance(sync, hops_since_last)
    innovation = float(measured_time_ns) - time_pred
    gain_denominator = p00 + sync.measurement_noise_var
    if innovation * innovation > gate_sigma**2 * gain_denominator:
        return replace(
            sync,
            anchor_time_ns=time_pred,
            covariance=np.array([[p00, p01], [p01, p11]]),
            anchor_offset=sync.anchor_offset + int(hops_since_last),
        )
    k0 = p00 / gain_denominator
    k1 = p01 / gain_denominator
    new_time = time_pred + k0 * innovation
    new_interval = sync.interval_ns + k1 * innovation
    posterior = np.array(
        [
            [(1 - k0) * p00, (1 - k0) * p01],
            [p01 - k1 * p00, p11 - k1 * p01],
        ]
    )
    posterior = (posterior + posterior.T) / 2.0
    if posterior[0, 0] < 0 or posterior[1, 1] < 0 or np.linalg.det(posterior) < -1e-6:
        raise EstimationError("tracker covariance lost positive semi-definiteness")
    guard = sync.nominal_interval_ns
    if guard and abs(new_interval - guard) > INTERVAL_GUARD_FRACTION * guard:
        raise EstimationError(
            f"tracked interval {new_interval / 1e6:.6f} ms diverged more than 0.1 % "
            f"from the estimate {guard / 1e6:.6f} ms"
        )
    return replace(
        sync,
        anchor_time_ns=new_time,
        interval_ns=new_interval,
        covariance=posterior,
        anchor_offset=sync.anchor_offset + int(hops_since_last),
    )


def predict_event_time(sync, event_offset):
    """Predicted timestamp and its standard deviation for an event offset
    (an int, or an int array for one prediction per offset)."""
    time_pred, p00, _, _ = _advance(sync, event_offset - sync.anchor_offset)
    return time_pred, np.sqrt(np.maximum(p00, 0.0))


@dataclass(frozen=True)
class ForecastEntry:
    counter: int
    channel: int
    time_ns: float
    time_std_ns: float


@dataclass
class Forecast:
    """Future events in time order.

    For CSA#2 forecasts ``counter`` is the on-air 16-bit event counter and
    ``counters_are_wire`` is true; CSA#1 forecasts cannot know the counter
    (it never enters channel selection), so ``counter`` holds the event
    offset from the first estimation observation instead.
    """

    entries: list
    counters_are_wire: bool = True

    def __len__(self):
        return len(self.entries)

    def to_dict(self):
        return {
            "counters_are_wire": self.counters_are_wire,
            "entries": [
                {
                    "counter": e.counter,
                    "channel": e.channel,
                    "time_ns": e.time_ns,
                    "time_std_ns": e.time_std_ns,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, raw):
        with reading("forecast"):
            return cls(
                entries=[
                    ForecastEntry(
                        int(e["counter"]), int(e["channel"]),
                        float(e["time_ns"]), float(e["time_std_ns"]),
                    )
                    for e in raw["entries"]
                ],
                counters_are_wire=bool(raw.get("counters_are_wire", True)),
            )


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
    times, stds = predict_event_time(sync, offsets)
    entries = [ForecastEntry(offset, classification.sniff_channel, time_ns, std)
               for offset, time_ns, std in zip(offsets.tolist(), times.tolist(), stds.tolist())]
    return Forecast(entries, counters_are_wire=False)


def predict_csa2(alignment, ci, channel_map, sync, horizon, *, channel=None):
    """Forecast every event of a CSA#2 connection over the horizon.

    Needs an unambiguous counter alignment; with tied alignment candidates
    the forecast is refused rather than silently picking one. ``channel``
    restricts the result to events on one channel.
    """
    if alignment.ambiguous:
        raise AmbiguousAlignmentError(alignment.candidates)
    if horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {horizon}")
    offsets = np.arange(sync.anchor_offset + 1, sync.anchor_offset + horizon + 1)
    counters = (alignment.k_init + offsets) % COUNTER_PERIOD
    channels = csa2_channels_bulk(counters, ci, channel_map)
    if channel is not None:
        keep = channels == channel
        offsets, counters, channels = offsets[keep], counters[keep], channels[keep]
    times, stds = predict_event_time(sync, offsets)
    entries = list(map(ForecastEntry, counters.tolist(), channels.tolist(),
                       times.tolist(), stds.tolist()))
    return Forecast(entries, counters_are_wire=True)


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
    an interval. Predictions left unmatched are counted as misses, not as
    errors.
    """
    if len(forecast) == 0:
        raise EstimationError("cannot evaluate an empty forecast")
    if isinstance(reference, EventTimeline) and forecast.counters_are_wire:
        return _evaluate_by_counter(forecast, reference)
    if isinstance(reference, EventTimeline):
        ref_times = reference.times_ns.astype(float)
        ref_channels = reference.channels
    elif isinstance(reference, SniffTrace):
        ref_times = reference.timestamps().astype(float)
        ref_channels = None
    else:
        raise ConfigError(f"cannot evaluate against {type(reference).__name__}")
    if ref_times.size == 0:
        raise EstimationError("reference contains no events")
    return _evaluate_by_time(forecast, ref_times, ref_channels, interval_ns)


def _evaluate_by_counter(forecast, timeline):
    wire = timeline.counters % COUNTER_PERIOD
    by_counter = {}
    for idx, counter in enumerate(wire):
        by_counter.setdefault(int(counter), []).append(idx)
    errors, mismatches, missed = [], 0, 0
    for entry in forecast.entries:
        indices = by_counter.get(entry.counter)
        if not indices:
            missed += 1
            continue
        best = min(indices, key=lambda i: abs(float(timeline.times_ns[i]) - entry.time_ns))
        errors.append(float(timeline.times_ns[best]) - entry.time_ns)
        if int(timeline.channels[best]) != entry.channel:
            mismatches += 1
    if not errors:
        raise EstimationError("forecast and reference share no event counters")
    unmatched = len(timeline) - len(errors)
    return _error_report(errors, mismatches, missed, unmatched)


def _evaluate_by_time(forecast, ref_times, ref_channels, interval_ns):
    pred_times = np.array([e.time_ns for e in forecast.entries])
    if np.any(np.diff(pred_times) < 0):
        raise ConfigError("forecast times must be non-decreasing")
    pred_channels = np.array([e.channel for e in forecast.entries])
    half = interval_ns / 2.0
    taken = np.zeros(pred_times.size, dtype=bool)
    errors, mismatches, unmatched = [], 0, 0
    for ref_idx, t in enumerate(ref_times):
        pos = int(np.searchsorted(pred_times, t))
        best, best_gap = None, half
        for cand in (pos - 1, pos):
            if 0 <= cand < pred_times.size and not taken[cand]:
                gap = abs(pred_times[cand] - t)
                if gap <= best_gap:
                    best, best_gap = cand, gap
        if best is None:
            unmatched += 1
            continue
        taken[best] = True
        errors.append(float(t - pred_times[best]))
        if ref_channels is not None and int(pred_channels[best]) != int(ref_channels[ref_idx]):
            mismatches += 1
    if not errors:
        raise EstimationError("no reference event falls within half an interval of a prediction")
    return _error_report(errors, mismatches, int(np.sum(~taken)), unmatched)


@dataclass
class PredictionRun:
    """Output bundle of the train/predict/evaluate pipeline."""

    forecast: Forecast
    rolling: Forecast
    report: EvalReport
    sync: SyncState


def run_prediction(trace, recon, *, train_ns=100_000_000_000, horizon=None,
                   channel=None, process_noise=DEFAULT_PROCESS_NOISE,
                   measurement_sigma_ns=DEFAULT_MEASUREMENT_SIGMA_NS):
    """Train a tracker on the head of a trace, then predict its tail.

    The first ``train_ns`` of observations initialize and settle the
    tracker. Over the remainder the pipeline predicts each upcoming
    observation before consuming it (staying synchronized exactly as a
    live sniffer would) — those one-step predictions against the held-out
    observations make the evaluation report. A long-horizon forecast from
    the end-of-training anchor is returned alongside; ``horizon`` defaults
    to covering the trace and is counted in events past that anchor.
    """
    if recon.error:
        raise EstimationError(f"reconstruction failed: {recon.error}")
    classification = recon.classification
    est = classification.interval
    ts = trace.timestamps()
    offsets = observation_offsets(trace, est.raw_interval_ns)
    n_train = int(np.sum(ts <= ts[0] + int(train_ns)))
    if n_train < 2:
        raise InsufficientDataError("training window holds fewer than 2 observations")
    if n_train == ts.size:
        raise InsufficientDataError("training window covers the whole trace; nothing to predict")

    sync = init_sync(
        ts[0], est.raw_interval_ns,
        nominal_interval_ns=est.raw_interval_ns,
        process_noise=process_noise,
        measurement_sigma_ns=measurement_sigma_ns,
    )
    for j in range(1, n_train):
        sync = kalman_update(sync, ts[j], int(offsets[j] - offsets[j - 1]))
    anchor_sync = sync

    is_csa2 = classification.verdict is Verdict.CSA2
    if is_csa2:
        if recon.alignment is None:
            raise EstimationError("no counter alignment available for a CSA#2 forecast")
        if recon.alignment.ambiguous:
            raise AmbiguousAlignmentError(recon.alignment.candidates)
        if recon.map_estimate is None:
            raise EstimationError("no channel map estimate available for a CSA#2 forecast")

    # one-step-ahead predictions over the held-out tail
    held_out = offsets[n_train:]
    if is_csa2:
        counters = (recon.alignment.k_init + held_out) % COUNTER_PERIOD
        channels = csa2_channels_bulk(counters, recon.channel_id, recon.map_estimate.assumed_map)
    else:
        counters = held_out
        channels = np.full(held_out.size, classification.sniff_channel)
    rolling_entries = []
    for j, counter, ch in zip(range(n_train, ts.size), counters, channels):
        offset = int(offsets[j])
        time_pred, std = predict_event_time(sync, offset)
        rolling_entries.append(ForecastEntry(int(counter), int(ch), time_pred, std))
        sync = kalman_update(sync, ts[j], offset - sync.anchor_offset)
    rolling = Forecast(rolling_entries, counters_are_wire=is_csa2)
    report = _evaluate_by_time(rolling, ts[n_train:].astype(float), None, est.raw_interval_ns)

    if horizon is None:
        span = int(offsets[-1]) - anchor_sync.anchor_offset
        horizon = max(span, 0)
    if is_csa2:
        forecast = predict_csa2(
            recon.alignment, recon.channel_id, recon.map_estimate.assumed_map,
            anchor_sync, horizon, channel=channel,
        )
    else:
        forecast = predict_csa1(classification, anchor_sync, horizon)
        if channel is not None:
            forecast.entries = [e for e in forecast.entries if e.channel == channel]
    return PredictionRun(forecast=forecast, rolling=rolling, report=report, sync=sync)
