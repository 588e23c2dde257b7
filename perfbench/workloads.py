"""The three benchmark workloads: input generation, one pass, output checks.

Each workload is a closed loop with one client: a pass starts only after
the previous one finished. ``make_*_inputs`` builds everything from the
seed (the program only ever sees those generated inputs) and writes the
files a pass reads; ``*_pass`` runs one pass and checks every output
against the ground truth that generated the input, outside the timed
regions.

* ``sweep``  -- Monte-Carlo recovery study: library ``simulate`` then
  ``reconstruct_connection`` per trial (the acceptance criterion 05 mix).
* ``track``  -- one long capture through ``blehop reconstruct``, ``predict``
  and ``evaluate`` in-process, then a live follower that takes the
  held-out observations one at a time.
* ``survey`` -- ``blehop reconstruct`` on one busy channel carrying 32
  concurrent connections.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# Calls into the program go through the ``blehop`` namespaces (never a
# local from-import) so that a traced run's wrappers see them.
import blehop
from blehop import (
    COUNTER_PERIOD,
    ChannelMap,
    ConnectionParams,
    ConnectionScenario,
    CsaVersion,
    ImpairmentModel,
    ScenarioConfig,
)
from blehop import cli

NUM_CHANNELS = 37
JITTER_NS = 50_000.0
MISS = 0.1
# CSA#1 connections in ``survey`` miss fewer packets: the classifier takes a
# one-channel pattern for CSA#1 only if it fills at least 90 % of its
# (period, phase) grid, so at a 10 % miss rate a CSA#1 connection sits on
# that threshold and is read as CSA#2 on about half of all draws.
CSA1_MISS = 0.05
RMSE_LIMIT_US = 150.0  # acceptance criterion 08

RECOVERED, FLAGGED, WRONG = "recovered", "flagged", "wrong"


# A fixed kernel that never calls blehop: dicts, strings, JSON and small
# NumPy calls, the kinds of work the passes do. Its time, taken next to the
# timed work, measures how fast the host runs at that moment.
_CALIBRATION_DATA = np.random.default_rng(0).random(2048)
CALIBRATION_REF_NS = 185_000.0  # one round on the host of baseline.json, typical


def calibration_ns(rounds=10):
    """Mean time of one round of the calibration kernel, over ``rounds`` rounds."""
    start = perf_counter_ns()
    for _ in range(rounds):
        table = {i: str(i) for i in range(200)}
        json.loads(json.dumps(table))
        np.sort(np.fft.rfft(_CALIBRATION_DATA).real)
    return (perf_counter_ns() - start) / rounds


class Stopwatch:
    """Times the ``with`` blocks it guards; tracing is live only inside them.

    An untraced stopwatch also samples the host's speed: it times the
    calibration kernel before every ``every`` laps, every
    ``SAMPLE_PERIOD_S`` inside a lap (from a timer signal; the sample's
    own time is left out of the lap), and once more in
    :meth:`scaled_laps_ns`. A lap scaled by ``CALIBRATION_REF_NS`` over the
    mean of its group's samples is the lap's time on a host running at the
    reference speed: the host's speed changes cancel, the program's do not.
    """

    SAMPLE_PERIOD_S = 0.05

    def __init__(self, tracer=None, every=1):
        self.tracer = tracer
        self.every = every
        self._spans = []  # (start, end) of each lap
        self._samples = []  # (start, end, laps finished when taken, kernel ns per round)

    def _sample(self, *_):
        start = perf_counter_ns()
        speed = calibration_ns()
        self._samples.append((start, perf_counter_ns(), len(self._spans), speed))

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        else:
            if len(self._spans) % self.every == 0:
                self._sample()
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_PERIOD_S, self.SAMPLE_PERIOD_S)
        self._start = perf_counter_ns()

    def __exit__(self, *exc):
        end = perf_counter_ns()
        if self.tracer is not None:
            self.tracer.active = False
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._spans.append((self._start, end))

    def elapsed_ns(self, start, end):
        """Time from ``start`` to ``end`` (arrays of instants) less the sampling in between."""
        start, end = np.asarray(start), np.asarray(end)
        if not self._samples:
            return end - start
        sampled = np.array([(s, e) for s, e, _, _ in self._samples])
        paused = np.concatenate([[0], np.cumsum(sampled[:, 1] - sampled[:, 0])])
        return (end - start - paused[np.searchsorted(sampled[:, 0], end)]
                + paused[np.searchsorted(sampled[:, 0], start)])

    @property
    def laps_ns(self):
        spans = np.array(self._spans, dtype=np.int64).reshape(-1, 2)
        return self.elapsed_ns(spans[:, 0], spans[:, 1]).tolist()

    @property
    def total_s(self):
        return sum(self.laps_ns) / 1e9

    def scaled_laps_ns(self):
        """Every lap at the reference speed (call once, after the last lap);
        a traced stopwatch samples nothing and gives its laps unscaled."""
        laps = self.laps_ns
        if self.tracer is not None:
            return laps
        self._sample()
        taken = np.array([n for _, _, n, _ in self._samples])
        speed = np.array([ns for _, _, _, ns in self._samples])
        scaled = []
        for i, lap_ns in enumerate(laps):
            first = i // self.every * self.every
            near = (taken >= first) & (taken <= first + self.every)
            scaled.append(lap_ns * CALIBRATION_REF_NS / speed[near].mean())
        return scaled


@dataclass
class Truth:
    """What a correct reconstruction report says about one connection."""

    access_address: int
    csa: int
    interval_us: int
    k_init: int | None
    excluded: frozenset


@dataclass
class PassResult:
    wall_s: float  # the pass's own time at the reference speed: the ``wall_s`` metric
    timed_s: float  # every timed region of the pass, for the tracing overhead
    latencies_ms: list  # at the reference speed
    raw_wall_s: float = 0.0  # as measured
    raw_latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    grades: Counter = field(default_factory=Counter)  # "csa<n>_<grade>" -> connections
    bytes_written: int = 0
    notes: dict = field(default_factory=dict)

    def grade(self, report, truth):
        """Check one connection's report (None if missing); anything short of
        recovered is a failed operation."""
        grade = WRONG if report is None else check_report(report, truth)
        self.grades[f"csa{truth.csa}_{grade}"] += 1
        self.attempted += 1
        self.failed += grade != RECOVERED
        return grade


@dataclass
class Inputs:
    files: list  # generated input files, hashed and printed by the runner
    data: dict


def check_report(report, truth):
    """Grade a report dict against the truth: recovered, flagged or wrong.

    A report that carries an error is *flagged*: it claims nothing. A
    report without an error must be right on interval and algorithm and,
    for CSA#2, on the first observation's counter, and its proven
    exclusions must all be truly excluded.
    """
    if report.get("error"):
        return FLAGGED
    ok = (report.get("interval_us") == truth.interval_us
          and (report.get("verdict") == "CSA2") == (truth.csa == 2))
    if ok and truth.csa == 2:
        ok = (report.get("k_init") == truth.k_init
              and set(report.get("proven_excluded", ())) <= truth.excluded)
    return RECOVERED if ok else WRONG


def _truth(params, timeline, first_ns):
    """Ground truth for a connection whose first captured packet is at ``first_ns``."""
    k_init = None
    if params.csa_version is CsaVersion.CSA2 and timeline is not None:
        idx = int(np.argmin(np.abs(timeline.times_ns - first_ns)))
        k_init = int(timeline.wire_counters()[idx])
    return Truth(
        params.access_address, params.csa_version.value, params.interval_us, k_init,
        frozenset(range(NUM_CHANNELS)) - params.channel_map.allowed,
    )


def _random_map(rng, n_ch, sniff=None):
    """A random map of ``n_ch`` channels (containing ``sniff`` if given)."""
    if sniff is None:
        allowed = rng.choice(NUM_CHANNELS, size=n_ch, replace=False)
        return ChannelMap.from_channels(int(c) for c in allowed), int(rng.choice(allowed))
    others = rng.choice([c for c in range(NUM_CHANNELS) if c != sniff],
                        size=n_ch - 1, replace=False)
    return ChannelMap.from_channels([sniff, *(int(c) for c in others)]), sniff


class _Transcript(io.StringIO):
    """Captured CLI stdout that notes when each per-connection line appears."""

    def __init__(self):
        super().__init__()
        self.report_stamps_ns = []

    def write(self, text):
        if text.startswith("0x"):
            self.report_stamps_ns.append(perf_counter_ns())
        return super().write(text)


def _run_cli(argv, out=None):
    """``blehop <argv>`` in-process; an exception counts as exit code -1."""
    with contextlib.redirect_stdout(out if out is not None else io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except Exception:  # any crash is a failed operation, not a benchmark crash
            traceback.print_exc(file=sys.stderr)
            return -1


def _bytes_under(directory):
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


# --------------------------------------------------------------------- sweep

def make_sweep_inputs(seed, work_dir, *, trials=200, duration_s=200):
    """``trials`` CSA#2 connections at 12.5 ms with the criterion 05 impairments."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(trials):
        cmap, sniff = _random_map(rng, int(rng.integers(10, 37)))
        params = ConnectionParams(CsaVersion.CSA2, 12500, cmap, int(rng.integers(1, 2**32)))
        impairments = ImpairmentModel(duration_s * 10**9, JITTER_NS,
                                      float(rng.uniform(-20, 20)), MISS)
        conn = ConnectionScenario(params, impairments,
                                  initial_counter=int(rng.integers(0, COUNTER_PERIOD)))
        configs.append(ScenarioConfig((conn,), sniff, int(rng.integers(2**62))))
    path = Path(work_dir) / "scenarios.json"
    path.write_text(json.dumps([c.to_dict() for c in configs], indent=1) + "\n")
    return Inputs([path], {"configs": configs})


def sweep_pass(inputs, pass_dir, tracer=None):
    clock = Stopwatch(tracer)
    result = PassResult(0.0, 0.0, [])
    for config in inputs.data["configs"]:
        try:
            with clock:
                timelines, trace = blehop.simulate(config)
                report = blehop.reconstruct_connection(trace)
        except Exception:  # any crash is a failed trial, not a benchmark crash
            traceback.print_exc(file=sys.stderr)
            result.grade(None, _truth(config.connections[0].params, None, None))
            continue
        first_ns = trace.observations[0].timestamp_ns
        result.grade(report.to_dict(),
                     _truth(config.connections[0].params, timelines[0], first_ns))
    scaled = clock.scaled_laps_ns()
    result.wall_s, result.latencies_ms = sum(scaled) / 1e9, [ns / 1e6 for ns in scaled]
    result.raw_wall_s = result.timed_s = clock.total_s
    result.raw_latencies_ms = [ns / 1e6 for ns in clock.laps_ns]
    return result


# --------------------------------------------------------------------- track

TRACK_MAP = "0x1FFFFFFC00"
TRACK_SNIFF = 22
# The live follower runs over the held-out tail this many times per pass:
# one run of it lasts about half a second, too short to give a steady
# per-pass latency on a shared host.
LIVE_REPLAYS = 3
TRACK_INTERVAL_US = 7500


def make_track_inputs(seed, work_dir, *, duration_s=1200, train_s=100):
    """One 7.5 ms CSA#2 connection over ``duration_s`` seconds, written to trace.csv."""
    rng = np.random.default_rng(seed)
    params = ConnectionParams(CsaVersion.CSA2, TRACK_INTERVAL_US,
                              ChannelMap.from_hex(TRACK_MAP), int(rng.integers(1, 2**32)))
    conn = ConnectionScenario(params, ImpairmentModel(duration_s * 10**9, JITTER_NS, 20.0, MISS),
                              initial_counter=30000)
    config = ScenarioConfig((conn,), TRACK_SNIFF, int(rng.integers(2**62)))
    timelines, trace = blehop.simulate(config)
    path = Path(work_dir) / "trace.csv"
    blehop.save_trace(trace, path)
    return Inputs([path], {
        "trace_path": path,
        "timeline": timelines[0],
        "trace": blehop.load_trace(path),
        "truth": _truth(params, timelines[0], trace.observations[0].timestamp_ns),
        "train_s": train_s,
    })


def track_pass(inputs, pass_dir, tracer=None):
    data = inputs.data
    truth, trace_path = data["truth"], data["trace_path"]
    aa = f"0x{truth.access_address:08X}"
    recon, pred, ev = (Path(pass_dir) / d for d in ("recon", "pred", "eval"))
    chain = Stopwatch(tracer)
    commands = (
        ["reconstruct", "--trace", trace_path, "--out-dir", recon],
        ["predict", "--report", recon / f"report_{aa}.json", "--trace", trace_path,
         "--train-seconds", data["train_s"], "--out-dir", pred],
        ["evaluate", "--forecast", pred / "forecast.json", "--trace", trace_path,
         "--interval-us", TRACK_INTERVAL_US, "--out-dir", ev],
    )
    codes = []
    for argv in commands:
        with chain:
            codes.append(_run_cli(argv))
    result = PassResult(sum(chain.scaled_laps_ns()) / 1e9, 0.0, [], chain.total_s, attempted=3)
    result.failed = sum(code != 0 for code in codes)
    result.bytes_written = _bytes_under(pass_dir)
    report_path = recon / f"report_{aa}.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    grade = result.grade(report, truth)
    if codes[1] == 0:
        forecast = blehop.Forecast.from_dict(json.loads((pred / "forecast.json").read_text()))
        against_truth = blehop.evaluate(forecast, data["timeline"], TRACK_INTERVAL_US * 1000)
        rmse_us = json.loads((pred / "eval.json").read_text())["rmse_us"]
        result.notes["rmse_us"] = rmse_us
        result.notes["forecast_entries"] = len(forecast)
        result.attempted += 1
        # each forecast event within half an interval of the true event
        # with its counter, on its channel, and none left unmatched
        result.failed += (against_truth.channel_mismatches != 0
                          or against_truth.missed_predictions != 0
                          or not against_truth.abs_errors_ns.max() < TRACK_INTERVAL_US * 500
                          or not rmse_us <= RMSE_LIMIT_US)
        del forecast, against_truth
    steps = Stopwatch(tracer, every=100)
    if grade == RECOVERED:
        for _ in range(LIVE_REPLAYS):
            _live_follow(blehop.ReconstructionReport.from_dict(report), data, steps, result)
    result.timed_s = chain.total_s + steps.total_s
    result.latencies_ms = [ns / 1e6 for ns in steps.scaled_laps_ns()]
    result.raw_latencies_ms = [ns / 1e6 for ns in steps.laps_ns]
    return result


def _live_follow(report, data, steps, result):
    """Follow the held-out tail one observation at a time, as a live sniffer would.

    The tracker is trained on the first ``train_s`` seconds untimed; each
    timed step then predicts the next observation's time and channel and
    fuses its timestamp: the calls of ``run_prediction``'s rolling loop.
    """
    trace = data["trace"]
    raw_interval = report.classification.interval.raw_interval_ns
    ts = trace.timestamps()
    offsets = blehop.observation_offsets(trace, raw_interval)
    n_train = int(np.sum(ts <= ts[0] + int(data["train_s"] * 10**9)))
    sync = blehop.init_sync(ts[0], raw_interval, nominal_interval_ns=raw_interval)
    for j in range(1, n_train):
        sync = blehop.kalman_update(sync, ts[j], int(offsets[j] - offsets[j - 1]))
    k_init = report.alignment.k_init
    ci, cmap = report.channel_id, report.map_estimate.assumed_map
    n_live = ts.size - n_train
    errors = np.empty(n_live)
    channels = np.empty(n_live, dtype=np.int64)
    for i, j in enumerate(range(n_train, ts.size)):
        offset = int(offsets[j])
        with steps:
            time_pred, _ = blehop.predict_event_time(sync, offset)
            counter = (k_init + offset) % COUNTER_PERIOD
            channel = blehop.csa2_channels_bulk(np.array([counter]), ci, cmap)[0]
            sync = blehop.kalman_update(sync, ts[j], offset - sync.anchor_offset)
        errors[i] = ts[j] - time_pred
        channels[i] = channel
    live_rmse_us = float(np.sqrt(np.mean(errors**2))) / 1000.0
    result.notes["live_rmse_us"] = live_rmse_us
    result.attempted += n_live + 1
    result.failed += int(np.count_nonzero(channels != trace.sniff_channel))
    result.failed += not live_rmse_us <= RMSE_LIMIT_US


# -------------------------------------------------------------------- survey

SURVEY_INTERVALS_US = (7500, 12500, 18750, 50000)
SURVEY_SNIFF = 22


def make_survey_inputs(seed, work_dir, *, per_interval=8, duration_s=3600):
    """32 concurrent connections on one sniffed channel, written to survey.csv.

    The mix is stratified so that every seed gives the same amount of work:
    each interval carries ``per_interval`` connections with the same spread
    of map sizes, one in four of them CSA#1 (with ``CSA1_MISS`` misses),
    and each CSA#1 map sends the expected number of remapped hits to the
    sniffed channel. The seed picks which connection gets which size and
    algorithm, the channels, addresses, drift, phases and counters.
    """
    rng = np.random.default_rng(seed)
    sizes = np.linspace(10, 36, per_interval).round().astype(int)
    n_csa1 = per_interval // 4
    addresses = set()
    while len(addresses) < 4 * per_interval:
        addresses.add(int(rng.integers(1, 2**32)))
    addresses = sorted(addresses)
    conns = []
    for interval_us in SURVEY_INTERVALS_US:
        for rank, n_ch in enumerate(rng.permutation(sizes)):
            aa = addresses[len(conns)]
            if rank < n_csa1:
                cmap = _csa1_map(rng, int(n_ch))
                params = ConnectionParams(CsaVersion.CSA1, interval_us, cmap, aa,
                                          hop_increment=int(rng.integers(5, 17)),
                                          initial_channel=int(rng.integers(0, NUM_CHANNELS)))
            else:
                cmap, _ = _random_map(rng, int(n_ch), SURVEY_SNIFF)
                params = ConnectionParams(CsaVersion.CSA2, interval_us, cmap, aa)
            miss = CSA1_MISS if params.csa_version is CsaVersion.CSA1 else MISS
            impairments = ImpairmentModel(duration_s * 10**9, JITTER_NS,
                                          float(rng.uniform(-20, 20)), miss)
            conns.append(ConnectionScenario(
                params, impairments,
                start_offset_ns=int(rng.integers(0, interval_us * 1000)),
                initial_counter=int(rng.integers(0, COUNTER_PERIOD)),
            ))
    config = ScenarioConfig(tuple(conns), SURVEY_SNIFF, int(rng.integers(2**62)))
    timelines, trace = blehop.simulate(config)
    path = Path(work_dir) / "survey.csv"
    blehop.save_trace(trace, path)
    first_ns = {}
    for obs in trace.observations:
        first_ns.setdefault(obs.access_address, obs.timestamp_ns)
    truths = [_truth(c.params, t, first_ns[c.params.access_address])
              for c, t in zip(conns, timelines)]
    return Inputs([path], {"trace_path": path, "truths": truths})


def _csa1_map(rng, n_ch):
    """A random map under which CSA#1 hits the sniffed channel 1 + r times per
    37-event period, r = round((37 - n_ch) / n_ch) being the expected remap count."""
    target = round((NUM_CHANNELS - n_ch) / n_ch)
    while True:
        cmap, _ = _random_map(rng, n_ch, SURVEY_SNIFF)
        if np.count_nonzero(cmap.remap_table == SURVEY_SNIFF) - 1 == target:
            return cmap


def survey_pass(inputs, pass_dir, tracer=None):
    truths = inputs.data["truths"]
    clock = Stopwatch(tracer)
    transcript = _Transcript()
    with clock:
        start = perf_counter_ns()
        code = _run_cli(["reconstruct", "--trace", inputs.data["trace_path"],
                         "--out-dir", pass_dir], transcript)
    raw = (clock.elapsed_ns(start, transcript.report_stamps_ns) / 1e6).tolist()
    scale = clock.scaled_laps_ns()[0] / clock.laps_ns[0]
    result = PassResult(scale * clock.total_s, clock.total_s, [scale * ms for ms in raw],
                        clock.total_s, raw, attempted=1, failed=int(code != 0))
    result.bytes_written = _bytes_under(pass_dir)
    for truth in truths:
        path = Path(pass_dir) / f"report_0x{truth.access_address:08X}.json"
        result.grade(json.loads(path.read_text()) if path.exists() else None, truth)
    return result


WORKLOADS = {
    "sweep": (make_sweep_inputs, sweep_pass),
    "track": (make_track_inputs, track_pass),
    "survey": (make_survey_inputs, survey_pass),
}
