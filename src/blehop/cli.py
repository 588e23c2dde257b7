"""Command-line front end: simulate, reconstruct, predict, evaluate, hopgen.

Every run writes a ``run_manifest.json`` next to its outputs recording the
subcommand, arguments, inputs, and outputs, so results can be reproduced
byte for byte. Exit codes classify failures: 2 bad configuration, 3 input
parse error, 4 ambiguous estimation, 5 I/O failure, 6 other estimation
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .csa import (
    COUNTER_PERIOD,
    ConnectionParams,
    CsaVersion,
    channel_identifier,
    channel_sequence,
    csa1_unmapped_bulk,
    csa2_unmapped_bulk,
)
from .errors import (
    AmbiguousAlignmentError,
    ConfigError,
    EstimationError,
    TraceParseError,
)
from .predict import Forecast, evaluate, run_prediction
from .reconstruct import ReconstructionReport, reconstruct_all
from .simulate import ScenarioConfig, simulate
from .trace import load_trace, save_trace, split_by_connection

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_AMBIGUOUS = 4
EXIT_IO = 5
EXIT_ESTIMATION = 6


def _atomic_write_text(path, text):
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path, payload):
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_eccdf(path, report):
    _atomic_write_text(
        path,
        "abs_error_us,prob_error_exceeds\n"
        + "".join(f"{err / 1000.0:.3f},{prob:.6f}\n" for err, prob in report.eccdf),
    )


def _write_manifest(out_dir, subcommand, arguments, inputs, outputs, rng_seed=None):
    manifest = {
        "tool": "blehop",
        "version": __version__,
        "subcommand": subcommand,
        "arguments": arguments,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    if rng_seed is not None:
        manifest["rng_seed"] = rng_seed
    _write_json(Path(out_dir) / "run_manifest.json", manifest)


def _scaled_int(value, scale, option):
    """``value * scale`` truncated to an int; a non-finite product is a ConfigError."""
    scaled = value * scale
    if not math.isfinite(scaled):
        raise ConfigError(f"{option} must be a finite number, got {value}")
    return int(scaled)


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args):
    with open(args.scenario) as handle:
        config = ScenarioConfig.from_dict(json.load(handle))
    timelines, trace = simulate(config)
    out = _out_dir(args)
    trace_path = out / "trace.csv"
    save_trace(trace, trace_path, "csv")
    timelines_path = out / "timelines.jsonl"
    lines = []
    for conn, timeline in zip(config.connections, timelines):
        lines.append(json.dumps({
            "access_address_hex": f"0x{conn.params.access_address:08X}",
            "params": conn.params.to_dict(),
            "initial_counter": conn.initial_counter,
            "counters": timeline.counters.tolist(),
            "channels": timeline.channels.tolist(),
            "times_ns": timeline.times_ns.tolist(),
        }))
    _atomic_write_text(timelines_path, "".join(line + "\n" for line in lines))
    _write_manifest(
        out, "simulate", {"scenario": str(args.scenario)},
        [args.scenario], [trace_path, timelines_path], rng_seed=config.rng_seed,
    )
    print(f"simulated {len(config.connections)} connection(s), "
          f"{len(trace)} observation(s) -> {trace_path}")
    return EXIT_OK


def cmd_reconstruct(args):
    tolerance_ns = _scaled_int(args.tolerance_us, 1000, "--tolerance-us")
    trace = load_trace(args.trace, args.format)
    out = _out_dir(args)
    reports = reconstruct_all(trace, tolerance_ns=tolerance_ns)
    outputs = []
    for aa, report in sorted(reports.items()):
        path = out / f"report_0x{aa:08X}.json"
        _write_json(path, report.to_dict())
        outputs.append(path)
        status = report.error or (
            f"{report.classification.verdict.value}, "
            f"interval {report.classification.interval.interval_us} us"
        )
        print(f"0x{aa:08X}: {status}")
    _write_manifest(
        out, "reconstruct",
        {"trace": str(args.trace), "format": args.format, "tolerance_us": args.tolerance_us},
        [args.trace], outputs,
    )
    return EXIT_OK


def cmd_predict(args):
    with open(args.report) as handle:
        report = ReconstructionReport.from_dict(json.load(handle))
    parts = split_by_connection(load_trace(args.trace, args.format))
    if report.access_address not in parts:
        raise ConfigError(f"trace has no observations for 0x{report.access_address:08X}")
    trace = parts[report.access_address]
    run = run_prediction(
        trace, report,
        train_ns=_scaled_int(args.train_seconds, 1e9, "--train-seconds"),
        horizon=args.horizon,
        channel=args.channel,
    )
    out = _out_dir(args)
    forecast_path = out / "forecast.json"
    _atomic_write_text(forecast_path, run.forecast.to_json())
    eval_path = out / "eval.json"
    _write_json(eval_path, run.report.to_dict())
    eccdf_path = out / "eccdf.csv"
    _write_eccdf(eccdf_path, run.report)
    _write_manifest(
        out, "predict",
        {
            "report": str(args.report), "trace": str(args.trace),
            "train_seconds": args.train_seconds, "horizon": args.horizon,
            "channel": args.channel,
        },
        [args.report, args.trace], [forecast_path, eval_path, eccdf_path],
    )
    print(f"forecast {len(run.forecast)} event(s); one-step RMSE "
          f"{run.report.rmse_ns / 1e6:.4f} ms over {run.report.matched} prediction(s)")
    return EXIT_OK


def cmd_evaluate(args):
    with open(args.forecast) as handle:
        forecast = Forecast.from_dict(json.load(handle))
    trace = load_trace(args.trace, args.format)
    report = evaluate(forecast, trace, int(args.interval_us) * 1000)
    out = _out_dir(args)
    eval_path = out / "eval.json"
    _write_json(eval_path, report.to_dict())
    eccdf_path = out / "eccdf.csv"
    _write_eccdf(eccdf_path, report)
    _write_manifest(
        out, "evaluate",
        {"forecast": str(args.forecast), "trace": str(args.trace),
         "interval_us": args.interval_us},
        [args.forecast, args.trace], [eval_path, eccdf_path],
    )
    print(f"RMSE {report.rmse_ns / 1e6:.4f} ms over {report.matched} matched event(s)")
    return EXIT_OK


def cmd_hopgen(args):
    with open(args.params) as handle:
        params = ConnectionParams.from_dict(json.load(handle))
    if args.events < 1:
        raise ConfigError(f"--events must be >= 1, got {args.events}")
    start = args.start_counter
    channels = channel_sequence(params, start, args.events)
    idx = np.arange(start, start + args.events, dtype=np.int64)
    if params.csa_version is CsaVersion.CSA1:
        unmapped = csa1_unmapped_bulk(idx, params.initial_channel, params.hop_increment)
    else:
        unmapped = csa2_unmapped_bulk(idx, channel_identifier(params.access_address))
    out = _out_dir(args)
    hops_path = out / "hops.csv"
    rows = ["event,counter,unmapped_channel,channel,time_us"]
    for n in range(args.events):
        counter = (start + n) % COUNTER_PERIOD
        rows.append(
            f"{n},{counter},{int(unmapped[n])},{int(channels[n])},{n * params.interval_us}"
        )
    _atomic_write_text(hops_path, "".join(r + "\n" for r in rows))
    _write_manifest(
        out, "hopgen",
        {"params": str(args.params), "events": args.events,
         "start_counter": args.start_counter},
        [args.params], [hops_path],
    )
    print(f"wrote {args.events} event(s) -> {hops_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blehop",
        description="Simulate, reconstruct, and predict BLE channel hopping "
        "from single-channel sniffer timing.",
    )
    parser.add_argument("--version", action="version", version=f"blehop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write trace + ground truth")
    p.add_argument("--scenario", required=True, help="scenario JSON (durations in us)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="recover connection parameters from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--tolerance-us", type=float, default=300.0,
                   help="per-gap grid fit tolerance (default 300)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("predict", help="train on the head of a trace, forecast the tail")
    p.add_argument("--report", required=True, help="reconstruction report JSON")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--train-seconds", type=float, default=100.0)
    p.add_argument("--horizon", type=int, default=None,
                   help="events past the training anchor (default: cover the trace)")
    p.add_argument("--channel", type=int, default=None,
                   help="restrict the forecast to one channel")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a forecast against a trace")
    p.add_argument("--forecast", required=True, help="forecast JSON")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--interval-us", type=int, required=True,
                   help="connection interval used for match windows")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hopgen", help="dump a raw hop sequence for a params file")
    p.add_argument("--params", required=True, help="connection params JSON")
    p.add_argument("--events", type=int, default=74)
    p.add_argument("--start-counter", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_hopgen)
    return parser


# failures and their exit codes, most specific first: an ambiguous
# alignment is also an estimation error
EXIT_CODES = (
    (AmbiguousAlignmentError, EXIT_AMBIGUOUS),
    (TraceParseError, EXIT_PARSE),
    (ConfigError, EXIT_CONFIG),
    (EstimationError, EXIT_ESTIMATION),
    (json.JSONDecodeError, EXIT_PARSE),
    (OSError, EXIT_IO),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        prefix = "invalid JSON input: " if isinstance(exc, json.JSONDecodeError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
