"""Set-up, warm-up and the timed loop of one workload, and the metrics they give.

One call of :func:`run_workload` is one benchmark run in one process:

1. Set-up: the inputs are generated from the seed ``SETUP_REPEATS`` times,
   each into a fresh directory, and one untimed warm-up pass runs.
   An untraced run generates them in a child process (a fresh one per
   repeat) that hands back only what the passes and checks need, so the
   run's ``peak_rss_mb`` is set by the passes, not by the simulation
   behind the inputs. ``setup_s`` = time from process start to the end of
   the imports + the median of the repeats (child start, generation,
   files written and hashed) + the warm-up pass: the time from process
   start to the first timed pass with one generation, where the median
   damps a slow moment of the host. Like every timing metric it is taken
   at the reference host speed (see ``workloads.Stopwatch``), from
   calibration samples between the set-up steps.
2. Timed loop: passes run back to back until ``seconds`` have gone by
   (at least ``MIN_PASSES``). Every pass gets a fresh output directory;
   the previous pass's outputs are deleted and ``gc.collect()`` runs
   between passes, outside the timed regions.
3. With tracing, passes alternate traced/untraced. The traced ones give
   the per-layer numbers (per pass); the difference between the two
   medians is the tracing overhead. A traced run generates its inputs
   in-process and traces the last generation, for the ``setup.*``
   numbers. Untraced runs install no wrappers.

Every pass, the warm-up included, is checked; ``attempted``/``failed``
count its checked operations.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import LAYERS, Tracer
from workloads import CALIBRATION_REF_NS, RECOVERED, WORKLOADS, calibration_ns

SETUP_REPEATS = 3
MIN_PASSES = 4
PASS, SETUP = 0, 1

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
}

# Per-layer metrics: self time per pass, calls per pass, work counts.
_SELF = [
    "csa.prn_e_bulk", "csa.channel_sequence",
    "simulate.simulate",
    "trace.load_trace", "trace.split_by_connection", "trace.timestamps",
    "reconstruct.build_ref_vector", "reconstruct.align_counter",
    "reconstruct.reconstruct_connection", "reconstruct.estimate_interval",
    "reconstruct.observation_offsets", "reconstruct.infer_channel_map",
    "predict.run_prediction", "predict.predict_csa2", "predict.evaluate",
    "predict.forecast_from_dict", "predict.kalman_update", "predict.predict_event_time",
    "cli.main",
]
_CALLS = [
    "csa.prn_e_bulk", "csa.csa2_channels_bulk", "trace.timestamps",
    "reconstruct.build_ref_vector", "reconstruct.reconstruct_connection",
    "reconstruct.observation_offsets", "predict.kalman_update",
    "predict.predict_event_time", "cli.main",
]
_SETUP_SELF = ["simulate.simulate", "csa.channel_sequence", "trace.save_trace"]
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, "bench")},
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "bench.traced_wall_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.tracing_overhead_s": "s",
    **{f"{name}.self_s": "s" for name in _SELF},
    **{f"{name}.calls": "count" for name in _CALLS},
    "csa.prn_e_bulk.elements": "count",
    "csa.csa2_channels_bulk.elements_per_call": "count",
    "simulate.events": "count",
    "simulate.observations": "count",
    "trace.load_trace.rows": "count",
    "reconstruct.ok_ratio": "frac",
    "predict.forecast_entries": "count",
    "cli.bytes_written": "B",
    **{f"setup.{name}.self_s": "s" for name in _SETUP_SELF},
    "setup.simulate.observations": "count",
}


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _generate(name, seed, input_dir, sizes):
    make_inputs, _ = WORKLOADS[name]
    return make_inputs(seed, input_dir, **sizes)


def _generate_in_child(name, seed, input_dir, sizes):
    """Run :func:`_generate` in a child process (this file run as a script),
    wait for it, and load the pickled inputs it hands back."""
    handoff = input_dir.parent / "inputs.pickle"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    subprocess.run([sys.executable, __file__, name, str(seed), str(input_dir),
                    json.dumps(sizes), str(handoff)], env=env, check=True)
    inputs = pickle.loads(handoff.read_bytes())
    handoff.unlink()
    return inputs


def run_workload(name, seed, seconds, traced, work_dir, *, import_s=0.0, sizes=None, log=print):
    """One benchmark run; returns the result object the runner prints last."""
    _, run_pass = WORKLOADS[name]
    work_dir = Path(work_dir)
    tracer = Tracer() if traced else None

    # host speed samples between the set-up steps, outside their timing
    repeat_s, speed_ns, inputs = [], [calibration_ns()], None
    for repeat in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        start = perf_counter()
        input_dir = _fresh_dir(work_dir / "inputs")
        if tracer is None:
            inputs = _generate_in_child(name, seed, input_dir, sizes or {})
        else:
            trace_setup = repeat == SETUP_REPEATS - 1
            if trace_setup:
                tracer.phase, tracer.active = SETUP, True
                tracer.install()
            inputs = _generate(name, seed, input_dir, sizes or {})
            if trace_setup:
                tracer.uninstall()
                tracer.phase, tracer.active = PASS, False
        digests = {p.name: _sha256(p) for p in inputs.files}
        repeat_s.append(perf_counter() - start)
        speed_ns.append(calibration_ns())
    for file_name, digest in digests.items():
        log(f"input {file_name} sha256 {digest}")

    start = perf_counter()
    warm = run_pass(inputs, _fresh_dir(work_dir / "pass"))
    raw_setup_s = import_s + statistics.median(repeat_s) + (perf_counter() - start)
    speed_ns.append(calibration_ns())
    setup_s = raw_setup_s * CALIBRATION_REF_NS / statistics.fmean(speed_ns)
    checked = [warm]
    timed = []  # (traced?, PassResult)
    start = perf_counter()
    while len(timed) < MIN_PASSES or perf_counter() - start < seconds:
        pass_dir = _fresh_dir(work_dir / "pass")
        gc.collect()
        use_tracer = tracer is not None and len(timed) % 2 == 0
        if use_tracer:
            tracer.install()
        result = run_pass(inputs, pass_dir, tracer if use_tracer else None)
        if use_tracer:
            tracer.uninstall()
        timed.append((use_tracer, result))
    shutil.rmtree(work_dir / "pass", ignore_errors=True)
    checked += [r for _, r in timed]

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    plain = [r for t, r in timed if not t]
    summary = _summary(name, plain, checked, attempted, failed)
    summary["raw_setup_s"] = (raw_setup_s, "s")
    if tracer is None:
        # Latency percentiles are taken per pass and their median reported,
        # so a short slowdown of the host moves one pass, not the result.
        sampled = [r.latencies_ms for r in plain if r.latencies_ms]
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_s": statistics.median(r.wall_s for r in plain),
            "latency_ms_p50": statistics.median(float(np.percentile(s, 50)) for s in sampled),
            "latency_ms_p95": statistics.median(float(np.percentile(s, 95)) for s in sampled),
        }
        units = END_TO_END
    else:
        values = _per_layer(tracer, [r for t, r in timed if t], plain)
        units = PER_LAYER
        spans_path = work_dir.parent / f"spans-{name}-seed{seed}.npz"
        tracer.save(spans_path)
        log(f"spans {len(tracer.span_start)} written to {spans_path}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "summary": summary,
    }


def _summary(name, plain, checked, attempted, failed):
    """Workload-specific figures printed for a reader, not gated."""
    grades = sum((r.grades for r in checked), Counter())
    out = {
        "passes": (len(plain), "count"),
        "failed_frac": (failed / attempted, "frac"),
        "recovered_frac": (sum(n for k, n in grades.items() if k.endswith(RECOVERED))
                           / max(sum(grades.values()), 1), "frac"),
        # per pass: how each algorithm's connections were graded
        **{f"{k}_per_pass": (n / len(checked), "count") for k, n in sorted(grades.items())},
    }
    out["raw_wall_s"] = (statistics.median(r.raw_wall_s for r in plain), "s")
    out["host_slowdown"] = (statistics.median(r.raw_wall_s / r.wall_s for r in plain), "x")
    raw = [r.raw_latencies_ms for r in plain if r.raw_latencies_ms]
    out["raw_latency_ms_p50"] = (statistics.median(float(np.percentile(s, 50)) for s in raw), "ms")
    out["raw_latency_ms_p95"] = (statistics.median(float(np.percentile(s, 95)) for s in raw), "ms")
    # the workload's own figures, pooled over the run's passes, as measured
    latencies = np.concatenate([r.raw_latencies_ms for r in plain])
    out["latency_samples"] = (latencies.size, "count")
    if name == "sweep":
        out["trials_per_s"] = (1000.0 * latencies.size / latencies.sum(), "1/s")
        out["trial_ms_p50"] = (float(np.percentile(latencies, 50)), "ms")
        out["trial_ms_p95"] = (float(np.percentile(latencies, 95)), "ms")
    elif name == "track":
        out["step_us_p50"] = (1000.0 * float(np.percentile(latencies, 50)), "us")
        out["step_us_p99"] = (1000.0 * float(np.percentile(latencies, 99)), "us")
        for note, unit in (("rmse_us", "us"), ("live_rmse_us", "us"),
                           ("forecast_entries", "count")):
            if note in checked[-1].notes:
                out[note] = (checked[-1].notes[note], unit)
    return out


def _per_layer(tracer, traced, plain):
    n = len(traced)
    timed_s = statistics.fmean(r.timed_s for r in traced)

    def self_s(name, phase=PASS):
        return tracer.self_ns[(phase, name)] / 1e9 / (n if phase == PASS else 1)

    def calls(name):
        return tracer.calls[(PASS, name)] / n

    def counter(name, key, phase=PASS):
        return tracer.counters[(phase, name)][key] / (n if phase == PASS else 1)

    parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
    phase = np.frombuffer(tracer.span_phase, dtype=np.int8)
    duration = (np.frombuffer(tracer.span_end, dtype=np.int64)
                - np.frombuffer(tracer.span_start, dtype=np.int64))
    top_level_s = duration[(parent == -1) & (phase == PASS)].sum() / 1e9 / n

    layer_s = {k: v / 1e9 / n for k, v in tracer.layer_self_ns(PASS).items()}
    traced_wall = statistics.median(r.timed_s for r in traced)
    untraced_wall = statistics.median(r.timed_s for r in plain)
    bulk_calls = calls("csa.csa2_channels_bulk")
    recon_calls = calls("reconstruct.reconstruct_connection")
    return {
        **{f"{layer}.self_s": s for layer, s in layer_s.items()},
        "bench.self_s": timed_s - top_level_s,
        **{f"{layer}.share": s / timed_s for layer, s in layer_s.items()},
        "bench.traced_wall_s": traced_wall,
        "bench.untraced_wall_s": untraced_wall,
        "bench.tracing_overhead_s": traced_wall - untraced_wall,
        **{f"{name}.self_s": self_s(name) for name in _SELF},
        **{f"{name}.calls": calls(name) for name in _CALLS},
        "csa.prn_e_bulk.elements": counter("csa.prn_e_bulk", "elements"),
        "csa.csa2_channels_bulk.elements_per_call":
            counter("csa.csa2_channels_bulk", "elements") / bulk_calls if bulk_calls else 0.0,
        "simulate.events": counter("simulate.simulate", "events"),
        "simulate.observations": counter("simulate.simulate", "observations"),
        "trace.load_trace.rows": counter("trace.load_trace", "rows"),
        "reconstruct.ok_ratio":
            counter("reconstruct.reconstruct_connection", "ok") / recon_calls
            if recon_calls else 0.0,
        "predict.forecast_entries": (counter("predict.predict_csa2", "entries")
                                     + counter("predict.predict_csa1", "entries")),
        "cli.bytes_written": statistics.fmean(r.bytes_written for r in traced),
        **{f"setup.{name}.self_s": self_s(name, SETUP) for name in _SETUP_SELF},
        "setup.simulate.observations": counter("simulate.simulate", "observations", SETUP),
    }


if __name__ == "__main__":
    # the child process of _generate_in_child
    name, seed, input_dir, sizes, handoff = sys.argv[1:]
    inputs = _generate(name, int(seed), Path(input_dir), json.loads(sizes))
    Path(handoff).write_bytes(pickle.dumps(inputs))
