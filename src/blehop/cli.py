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
import os
import sys
from itertools import chain
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
    check_int,
    check_number,
)
from .predict import Forecast, evaluate, run_prediction
from .reconstruct import ReconstructionReport, reconstruct_all
from .simulate import MAX_EVENTS, ScenarioConfig, simulate
from .trace import connections, format_rows, load_trace, trace_bytes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_AMBIGUOUS = 4
EXIT_IO = 5
EXIT_ESTIMATION = 6


def _atomic_write(path, chunks):
    """Write the byte strings ``chunks`` in order to a temporary file renamed to ``path``."""
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    finally:  # gone after the rename; a failed write leaves none behind
        tmp.unlink(missing_ok=True)


def _write_json(path, payload):
    _atomic_write(path, [(json.dumps(payload, indent=2) + "\n").encode()])


def _read_json(path):
    """The JSON value in the file at ``path``, its bytes decoded as UTF-8."""
    return json.loads(Path(path).read_bytes().decode())


def _write_eval(out, report):
    """Write ``eval.json`` (the summary) and ``eccdf.csv`` (the error curve); their paths."""
    eval_path, eccdf_path = out / "eval.json", out / "eccdf.csv"
    _write_json(eval_path, report.to_dict())
    errors, probs = np.array(report.eccdf).reshape(-1, 2).T
    _atomic_write(eccdf_path, chain([b"abs_error_us,prob_error_exceeds\n"],
                                    format_rows(b"%.3f,%.6f\n", (errors / 1000.0, probs))))
    return [eval_path, eccdf_path]


def _write_manifest(args, inputs, outputs, rng_seed=None):
    """Record the run in ``args.out_dir``; its arguments are every parsed
    option but the output directory, in the parser's order."""
    arguments = {key: value for key, value in vars(args).items()
                 if key not in ("func", "command", "out_dir")}
    manifest = {
        "tool": "blehop",
        "version": __version__,
        "subcommand": args.command,
        "arguments": arguments,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    if rng_seed is not None:
        manifest["rng_seed"] = rng_seed
    _write_json(Path(args.out_dir) / "run_manifest.json", manifest)


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _timeline_lines(config, timelines):
    """The lines of ``timelines.jsonl`` as bytes blocks: each the ``json.dumps`` of
    a connection's timeline, its integer lists written by :func:`format_rows`."""
    for conn, timeline in zip(config.connections, timelines):
        yield json.dumps({"access_address_hex": f"0x{conn.params.access_address:08X}",
                          "params": conn.params.to_dict(),
                          "initial_counter": conn.initial_counter})[:-1].encode()  # no "}"
        for key in ("counters", "channels", "times_ns"):  # EventTimeline's columns
            column = getattr(timeline, key)
            yield f', "{key}": ['.encode()
            yield from chain(format_rows(b"%d", (column[:1],)), format_rows(b", %d", (column[1:],)))
            yield b"]"
        yield b"}\n"


def cmd_simulate(args):
    config = ScenarioConfig.from_dict(_read_json(args.scenario))
    timelines, trace = simulate(config)
    out = _out_dir(args)
    trace_path = out / "trace.csv"
    _atomic_write(trace_path, trace_bytes(trace))
    timelines_path = out / "timelines.jsonl"
    _atomic_write(timelines_path, _timeline_lines(config, timelines))
    _write_manifest(args, [args.scenario], [trace_path, timelines_path],
                    rng_seed=config.rng_seed)
    print(f"simulated {len(config.connections)} connection(s), "
          f"{len(trace)} observation(s) -> {trace_path}")
    return EXIT_OK


def cmd_reconstruct(args):
    trace = load_trace(args.trace, args.format)
    out = _out_dir(args)
    outputs = []
    # each report is written and printed as soon as it is done; the manifest
    # comes last, so a directory without one holds an unfinished run
    for aa, report in reconstruct_all(trace):
        path = out / f"report_0x{aa:08X}.json"
        _write_json(path, report.to_dict())
        outputs.append(path)
        status = report.error or (
            f"{report.classification.verdict.name}, "
            f"interval {report.classification.interval.interval_us} us"
        )
        print(f"0x{aa:08X}: {status}", flush=True)
    _write_manifest(args, [args.trace], outputs)
    return EXIT_OK


def _connection_trace(args, access_address):
    """The packets of one connection in the ``--trace`` file."""
    for aa, part in connections(load_trace(args.trace, args.format)):
        if aa == access_address:
            return part
    raise ConfigError(f"trace has no observations for 0x{access_address:08X}")


def cmd_predict(args):
    report = ReconstructionReport.from_dict(_read_json(args.report))
    run = run_prediction(
        _connection_trace(args, report.access_address), report,
        train_ns=int(check_number(args.train_seconds * 1e9, "--train-seconds", ends="()")),
        horizon=args.horizon,
        channel=args.channel,
    )
    out = _out_dir(args)
    forecast_path = out / "forecast.json"
    _atomic_write(forecast_path, [run.forecast.to_json()])
    _write_manifest(args, [args.report, args.trace],
                    [forecast_path, *_write_eval(out, run.report)])
    print(f"forecast {len(run.forecast)} event(s); one-step RMSE "
          f"{run.report.rmse_ns / 1e6:.4f} ms over {run.report.matched} prediction(s)")
    return EXIT_OK


def cmd_evaluate(args):
    forecast = Forecast.from_json(Path(args.forecast).read_bytes())
    if forecast.access_address is None:
        raise ConfigError("forecast names no access_address")
    trace = _connection_trace(args, forecast.access_address)
    report = evaluate(forecast, trace, args.interval_us * 1000)
    _write_manifest(args, [args.forecast, args.trace], _write_eval(_out_dir(args), report))
    print(f"RMSE {report.rmse_ns / 1e6:.4f} ms over {report.matched} matched event(s)")
    return EXIT_OK


def cmd_hopgen(args):
    params = ConnectionParams.from_dict(_read_json(args.params))
    check_int(args.events, "--events", 1, MAX_EVENTS)
    start = check_int(args.start_counter, "--start-counter", 0, COUNTER_PERIOD - 1)
    channels = channel_sequence(params, start, args.events)
    idx = np.arange(start, start + args.events, dtype=np.int64)
    if params.csa_version is CsaVersion.CSA1:
        unmapped = csa1_unmapped_bulk(idx, params.initial_channel, params.hop_increment)
    else:
        unmapped = csa2_unmapped_bulk(idx, channel_identifier(params.access_address))
    out = _out_dir(args)
    hops_path = out / "hops.csv"
    events = idx - start
    columns = (events, idx % COUNTER_PERIOD, unmapped, channels, events * params.interval_us)
    _atomic_write(hops_path, chain([b"event,counter,unmapped_channel,channel,time_us\n"],
                                   format_rows(b"%d,%d,%d,%d,%d\n", columns)))
    _write_manifest(args, [args.params], [hops_path])
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
# alignment is also an estimation error; each with the prefix of its message
EXIT_CODES = (
    (AmbiguousAlignmentError, EXIT_AMBIGUOUS, ""),
    (TraceParseError, EXIT_PARSE, ""),
    (ConfigError, EXIT_CONFIG, ""),
    (EstimationError, EXIT_ESTIMATION, ""),
    (json.JSONDecodeError, EXIT_PARSE, "invalid JSON input: "),
    (UnicodeDecodeError, EXIT_PARSE, "input is not valid UTF-8: "),
    (OSError, EXIT_IO, ""),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in EXIT_CODES) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in EXIT_CODES
                            if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
