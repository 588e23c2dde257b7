"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blehop.trace
from blehop import (
    COUNTER_PERIOD,
    ChannelMap,
    ConnectionParams,
    CsaVersion,
    Forecast,
    ReconstructionReport,
    ScenarioConfig,
    SniffTrace,
    channel_identifier,
    channel_sequence,
    connections,
    csa1_unmapped_bulk,
    csa2_unmapped_bulk,
    load_trace,
    reconstruct,
    save_trace,
    simulate,
)
from blehop.cli import (
    EXIT_AMBIGUOUS,
    EXIT_CONFIG,
    EXIT_ESTIMATION,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
)

SCENARIO = {
    "sniff_channel": 22,
    "rng_seed": 7,
    "connections": [
        {
            "params": {
                "csa_version": 2,
                "interval_us": 12500,
                "channel_map": "0x1E00E00700",
                "access_address": "0xB0A1CD9D",
            },
            "initial_counter": 100,
            "impairments": {
                "duration_us": 150_000_000,
                "jitter_sigma_us": 50.0,
                "clock_drift_ppm": 20.0,
                "miss_probability": 0.1,
            },
        },
        {
            "params": {
                "csa_version": 1,
                "interval_us": 18750,
                "channel_map": "0x1FFFFFFC00",
                "access_address": "0x53D39A21",
                "hop_increment": 7,
                "initial_channel": 3,
            },
            "impairments": {"duration_us": 150_000_000, "jitter_sigma_us": 50.0},
        },
    ],
}


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def connection_of(sim, access_address):
    """The packets of one connection of a simulated trace."""
    return dict(connections(load_trace(sim / "trace.csv")))[access_address]


def connection_trace(sim, access_address, dest):
    """Write the rows of one connection of a simulated trace to ``dest``."""
    save_trace(connection_of(sim, access_address), dest)
    return dest


def run_pipeline(tmp_path, scenario_file):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out-dir", str(sim)]) == EXIT_OK
    recon = tmp_path / "recon"
    assert main(["reconstruct", "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(recon)]) == EXIT_OK
    pred = tmp_path / "pred"
    assert main(["predict", "--report", str(recon / "report_0xB0A1CD9D.json"),
                 "--trace", str(sim / "trace.csv"),
                 "--train-seconds", "60", "--out-dir", str(pred)]) == EXIT_OK
    return sim, recon, pred


def test_full_pipeline(tmp_path, scenario_file, capsys):
    sim, recon, pred = run_pipeline(tmp_path, scenario_file)

    assert (sim / "trace.csv").exists()
    assert (sim / "timelines.jsonl").exists()
    timelines = [json.loads(line) for line in
                 (sim / "timelines.jsonl").read_text().splitlines()]
    assert {t["access_address_hex"] for t in timelines} == {"0xB0A1CD9D", "0x53D39A21"}

    report = json.loads((recon / "report_0xB0A1CD9D.json").read_text())
    assert report["verdict"] == "CSA2"
    assert report["interval_us"] == 12500
    assert report["channel_identifier"] == "0x7D3C"
    assert report["channel_map"] == "0x1E00E00700"
    report1 = json.loads((recon / "report_0x53D39A21.json").read_text())
    assert report1["verdict"] == "CSA1"
    assert report1["interval_us"] == 18750

    ev = json.loads((pred / "eval.json").read_text())
    assert ev["rmse_us"] < 150.0
    assert ev["matched"] > 50
    forecast = json.loads((pred / "forecast.json").read_text())
    assert forecast["counters_are_wire"] is True
    data = (pred / "forecast.json").read_bytes()
    assert Forecast.from_json(data).to_json() == data
    assert len(forecast["entries"]) > 1000
    with open(pred / "eccdf.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["abs_error_us", "prob_error_exceeds"]
    assert len(rows) == ev["matched"] + 1

    # evaluate scores the connection the forecast names: in the merged
    # trace as in that connection's part
    assert forecast["access_address"] == "0xB0A1CD9D"
    merged_dir = tmp_path / "ev_merged"
    assert main(["evaluate", "--forecast", str(pred / "forecast.json"),
                 "--trace", str(sim / "trace.csv"), "--interval-us", "12500",
                 "--out-dir", str(merged_dir)]) == EXIT_OK
    part = connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv")
    ev_dir = tmp_path / "ev"
    assert main(["evaluate", "--forecast", str(pred / "forecast.json"),
                 "--trace", str(part), "--interval-us", "12500",
                 "--out-dir", str(ev_dir)]) == EXIT_OK
    ev2 = json.loads((ev_dir / "eval.json").read_text())
    assert ev2["matched"] > 0
    assert (merged_dir / "eval.json").read_bytes() == (ev_dir / "eval.json").read_bytes()
    # every output is written as bytes, with no newline translation
    for out_dir in (sim, recon, pred, merged_dir, ev_dir):
        for path in out_dir.iterdir():
            assert b"\r" not in path.read_bytes(), path

    for out_dir in (sim, recon, pred, ev_dir):
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["tool"] == "blehop"
        assert manifest["subcommand"] in ("simulate", "reconstruct", "predict",
                                          "evaluate")
        assert manifest["outputs"]
        assert "timestamp" not in json.dumps(manifest).lower()
    capsys.readouterr()


def test_runs_are_byte_identical(tmp_path, scenario_file, capsys):
    out = tmp_path / "sim"

    def digest():
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }

    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out-dir", str(out)]) == EXIT_OK
    first = digest()
    shutil.rmtree(out)
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out-dir", str(out)]) == EXIT_OK
    assert digest() == first

    recon = tmp_path / "recon"
    assert main(["reconstruct", "--trace", str(out / "trace.csv"),
                 "--out-dir", str(recon)]) == EXIT_OK
    recon_first = {p.name: p.read_bytes() for p in sorted(recon.iterdir())}
    shutil.rmtree(recon)
    assert main(["reconstruct", "--trace", str(out / "trace.csv"),
                 "--out-dir", str(recon)]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in sorted(recon.iterdir())} == recon_first
    capsys.readouterr()


# The CLI chain run as one script: each command must exit 0
CHAIN = """
import sys
from blehop import load_trace, save_trace
from blehop.cli import main

def run(*argv):
    if main(list(argv)):
        sys.exit(f"{argv[0]} failed")

run("simulate", "--scenario", "scenario.json", "--out-dir", "sim")
run("reconstruct", "--trace", "sim/trace.csv", "--out-dir", "recon")
save_trace(load_trace("sim/trace.csv"), "trace.jsonl", "jsonl")
run("reconstruct", "--trace", "trace.jsonl", "--format", "jsonl", "--out-dir", "recon_jsonl")
run("predict", "--report", "recon/report_0xB0A1CD9D.json", "--trace", "sim/trace.csv",
    "--train-seconds", "60", "--out-dir", "pred")
run("evaluate", "--forecast", "pred/forecast.json", "--trace", "sim/trace.csv",
    "--interval-us", "12500", "--out-dir", "eval")
run("hopgen", "--params", "params.json", "--out-dir", "hops")
"""


def test_cli_chain_relies_on_no_default_encoding(tmp_path):
    # every file the CLI opens names its encoding: under these flags a text
    # file opened with the locale's default raises an EncodingWarning as an error
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    (tmp_path / "params.json").write_text(json.dumps(SCENARIO["connections"][0]["params"]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", CHAIN],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "hops" / "hops.csv").exists()


def test_hopgen_csa1(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "csa_version": 1, "interval_us": 7500, "channel_map": "0x1FFFFFFFFF",
        "access_address": "0x12345678", "hop_increment": 13, "initial_channel": 0,
    }))
    out = tmp_path / "hops"
    assert main(["hopgen", "--params", str(params), "--events", "5",
                 "--out-dir", str(out)]) == EXIT_OK
    with open(out / "hops.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["event", "counter", "unmapped_channel", "channel", "time_us"]
    assert rows[1:] == [
        ["0", "0", "13", "13", "0"],
        ["1", "1", "26", "26", "7500"],
        ["2", "2", "2", "2", "15000"],
        ["3", "3", "15", "15", "22500"],
        ["4", "4", "28", "28", "30000"],
    ]
    capsys.readouterr()


def test_hopgen_csa2_with_start_counter(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "csa_version": 2, "interval_us": 7500, "channel_map": "0x1E00E00700",
        "access_address": "0xB0A1CD9D",
    }))
    out = tmp_path / "hops"
    assert main(["hopgen", "--params", str(params), "--events", "2",
                 "--start-counter", "0", "--out-dir", str(out)]) == EXIT_OK
    with open(out / "hops.csv") as handle:
        rows = list(csv.reader(handle))
    # counter 0 under CI 0x7D3C: unmapped 25, remapped to 9; counter 1: 35 direct
    assert rows[1] == ["0", "0", "25", "9", "0"]
    assert rows[2] == ["1", "1", "35", "35", "7500"]
    # across the counter's wrap: the whole file, as earlier versions wrote it
    wrap = tmp_path / "wrap"
    assert main(["hopgen", "--params", str(params), "--events", "4",
                 "--start-counter", "65534", "--out-dir", str(wrap)]) == EXIT_OK
    assert (wrap / "hops.csv").read_bytes() == (b"event,counter,unmapped_channel,channel,time_us\n"
                                                b"0,65534,28,35,0\n"
                                                b"1,65535,34,34,7500\n"
                                                b"2,0,25,9,15000\n"
                                                b"3,1,35,35,22500\n")
    capsys.readouterr()


@pytest.mark.parametrize("conn", [0, 1])
def test_hopgen_equals_one_format_of_the_whole_file(tmp_path, capsys, conn):
    """``hops.csv`` around the formatter's 8192-row block equals one bytes
    ``%`` over every row, as the file was once written whole."""
    raw = SCENARIO["connections"][conn]["params"]
    params = ConnectionParams.from_dict(raw)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(raw))
    start = 65500  # the counter wraps inside the file
    for events in (8191, 8192, 8193):
        out = tmp_path / f"hops_{events}"
        assert main(["hopgen", "--params", str(path), "--events", str(events),
                     "--start-counter", str(start), "--out-dir", str(out)]) == EXIT_OK
        idx = np.arange(start, start + events)
        if params.csa_version is CsaVersion.CSA1:
            unmapped = csa1_unmapped_bulk(idx, params.initial_channel, params.hop_increment)
        else:
            unmapped = csa2_unmapped_bulk(idx, channel_identifier(params.access_address))
        rows = np.stack([idx - start, idx % COUNTER_PERIOD, unmapped,
                         channel_sequence(params, start, events),
                         (idx - start) * params.interval_us], axis=1)
        want = (b"%d,%d,%d,%d,%d\n" * events) % tuple(rows.ravel().tolist())
        assert (out / "hops.csv").read_bytes() == (
            b"event,counter,unmapped_channel,channel,time_us\n" + want)
    capsys.readouterr()


def test_hopgen_memory_grows_only_by_its_columns(tmp_path, capsys):
    """``hops.csv`` is streamed to disk a block of rows at a time: at 200,000
    events the traced peak stays under twice its five int64 columns (16 MB),
    where the whole file's text and the values formatted into it need more."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(SCENARIO["connections"][0]["params"]))
    events = 200_000
    tracemalloc.start()
    try:
        code = main(["hopgen", "--params", str(path), "--events", str(events),
                     "--out-dir", str(tmp_path / "hops")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 2 * 5 * 8 * events, f"peak {peak / 1e6:.1f} MB"
    assert (tmp_path / "hops" / "hops.csv").read_bytes().count(b"\n") == events + 1
    capsys.readouterr()


def _params_refused(tmp_path, capsys, key, value, needle, conn=0):
    """``hopgen`` on the params of ``SCENARIO`` connection ``conn`` and
    ``simulate`` on a scenario of that connection, with ``key`` set to
    ``value``, both exit 2, naming ``needle``, and write nothing."""
    params = {**SCENARIO["connections"][conn]["params"], key: value}
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    assert main(["hopgen", "--params", str(params_path), "--events", "3",
                 "--out-dir", str(tmp_path / "hops")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    scenario = {**SCENARIO,
                "connections": [{**SCENARIO["connections"][conn], "params": params}]}
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    assert main(["simulate", "--scenario", str(scenario_path),
                 "--out-dir", str(tmp_path / "sim")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "hops").exists() and not (tmp_path / "sim").exists()


@pytest.mark.parametrize("interval_us", [True, 12500.9, "12500"])
def test_params_interval_must_be_a_json_integer(tmp_path, capsys, interval_us):
    _params_refused(tmp_path, capsys, "interval_us", interval_us, "interval_us")


def test_params_channel_map_must_be_a_hex_string(tmp_path, capsys):
    # read as hex digits, 31 would be the map 0x31: channels {0, 4, 5}
    _params_refused(tmp_path, capsys, "channel_map", 31, "channel map")


@pytest.mark.parametrize("key, value, conn", [
    ("hop_increment", 7.5, 1), ("hop_increment", True, 1), ("initial_channel", 1.5, 1),
    ("csa_version", True, 0), ("csa_version", 1.0, 0), ("csa_version", "3", 0),
])
def test_params_protocol_integers_must_be_json_integers(tmp_path, capsys, key, value, conn):
    # a hop increment of 7.5 used to end hopgen in an IndexError; true and
    # 1.0 used to be read as CSA#1
    _params_refused(tmp_path, capsys, key, value, key, conn)


@pytest.mark.parametrize("conn, spellings", [(0, [2, "2", "CSA2"]), (1, [1, "1", "CSA1"])])
def test_params_csa_version_spellings(tmp_path, capsys, conn, spellings):
    hops = []
    for n, version in enumerate(spellings):
        params = tmp_path / f"params_{n}.json"
        params.write_text(json.dumps({**SCENARIO["connections"][conn]["params"],
                                      "csa_version": version}))
        assert main(["hopgen", "--params", str(params), "--events", "40",
                     "--out-dir", str(tmp_path / f"h{n}")]) == EXIT_OK
        hops.append((tmp_path / f"h{n}" / "hops.csv").read_bytes())
    assert hops[1:] == hops[:-1]
    capsys.readouterr()


@pytest.mark.parametrize("path, value, needle", [
    (("sniff_channel",), 22.9, "sniff_channel"),
    (("rng_seed",), True, "rng_seed"),
    (("rng_seed",), 2**63, "rng_seed"),
    (("connections", 0, "initial_counter"), 1.5, "initial_counter"),
    (("connections", 0, "start_offset_us"), 1.5, "start_offset_us"),
    (("connections", 0, "impairments", "duration_us"), "120000000", "duration_us"),
    (("connections", 0, "impairments", "duration_us"), 10**30, "duration_us"),
    (("connections", 0, "impairments", "jitter_sigma_us"), float("inf"), "jitter_sigma"),
    (("connections", 0, "impairments", "clock_drift_ppm"), float("nan"), "clock_drift_ppm"),
    # in range, but 7.2e11 events: refused before any event array is built
    (("connections", 0, "impairments", "duration_us"), 9 * 10**15, "duration_us"),
    # each field fits, but the last event lands 20 s past the int64 ns clock
    (("connections", 0, "start_offset_us"), (2**63 - 1) // 1000 - 10_000_000,
     "start_offset_us + duration_us"),
    (("connections", 0, "impairments", "jitter_sigma_us"), 1e290, "jitter_sigma_us"),
    (("connections", 0, "impairments", "drift_walk_ppm_per_sqrt_s"), -0.1, "drift_walk"),
    (("connections", 0, "impairments", "drift_walk_ppm_per_sqrt_s"), float("nan"), "drift_walk"),
    # finite, but a walk this wide runs the clock backwards within a few events
    (("connections", 0, "impairments", "drift_walk_ppm_per_sqrt_s"), 1e9, "backwards"),
    # an impairment is a JSON number: these simulated 1 us, 5 ppm and no misses
    (("connections", 0, "impairments", "jitter_sigma_us"), True, "jitter_sigma_us"),
    (("connections", 0, "impairments", "clock_drift_ppm"), "5", "clock_drift_ppm"),
    (("connections", 0, "impairments", "miss_probability"), False, "miss_probability"),
    (("connections", 0, "impairments", "drift_walk_ppm_per_sqrt_s"), "0.1", "drift_walk"),
])
def test_bad_scenario_values_exit_with_config_error(tmp_path, capsys, path, value, needle):
    # each value used to be coerced (22.9 simulated channel 22, true seeded
    # 1), to end in a traceback (an infinite jitter, a nan drift, 10**30 us,
    # 9e15 us) or to write wrapped timestamps (a start offset near the int64
    # limit, a jitter of 1e290 us cast to int64 minimum)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_mutated(SHORT_SCENARIO, path, value)))
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "sim")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_exit_codes(tmp_path, scenario_file, capsys):
    # missing input file -> I/O error
    assert main(["reconstruct", "--trace", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path / "x")]) == EXIT_IO
    # unparseable JSON -> parse error
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("not json")
    assert main(["simulate", "--scenario", str(bad_json),
                 "--out-dir", str(tmp_path / "x")]) == EXIT_PARSE
    # malformed trace row -> parse error
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("timestamp_ns,access_address_hex,channel,is_central\n"
                       "oops,0x1,22,true\n")
    assert main(["reconstruct", "--trace", str(bad_csv),
                 "--out-dir", str(tmp_path / "x")]) == EXIT_PARSE
    # invalid scenario values -> config error
    bad_scenario = tmp_path / "bad_scenario.json"
    bad_scenario.write_text(json.dumps({"sniff_channel": 99, "rng_seed": 1,
                                        "connections": []}))
    assert main(["simulate", "--scenario", str(bad_scenario),
                 "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    capsys.readouterr()


def test_predict_exit_codes(tmp_path, scenario_file, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out-dir", str(sim)]) == EXIT_OK
    recon = tmp_path / "recon"
    assert main(["reconstruct", "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(recon)]) == EXIT_OK
    report_path = recon / "report_0xB0A1CD9D.json"

    # an ambiguous alignment refuses to forecast
    report = json.loads(report_path.read_text())
    report["alignment"]["ambiguous"] = True
    report["alignment"]["candidates"] = [report["k_init"], 4242]
    ambiguous_path = tmp_path / "ambiguous.json"
    ambiguous_path.write_text(json.dumps(report))
    assert main(["predict", "--report", str(ambiguous_path),
                 "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(tmp_path / "p1")]) == EXIT_AMBIGUOUS

    # a CSA#2 report without its counter alignment or channel map cannot
    # forecast channels; each block goes with the copies derived from it
    blocks = ((("alignment", "k_init"), "no counter alignment"),
              (("evidence_count", "converged", "unexplained_remaps", "channel_map",
                "proven_excluded"), "no channel map estimate"))
    for keys, needle in blocks:
        report = json.loads(report_path.read_text())
        for key in keys:
            del report[key]
        partial_path = tmp_path / f"no_{keys[0]}.json"
        partial_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["predict", "--report", str(partial_path),
                     "--trace", str(sim / "trace.csv"),
                     "--out-dir", str(tmp_path / f"p_{keys[0]}")]) == EXIT_ESTIMATION
        assert needle in capsys.readouterr().err

    # one key deleted, a primary value or a copy derived from one, is a config error
    for key in ("channel_identifier", "k_init", "alignment", "channel_map", "evidence_count",
                "first_timestamp_ns"):
        report = json.loads(report_path.read_text())
        del report[key]
        partial_path = tmp_path / f"without_{key}.json"
        partial_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["predict", "--report", str(partial_path),
                     "--trace", str(sim / "trace.csv"),
                     "--out-dir", str(tmp_path / f"p_without_{key}")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    # training window swallowing the whole trace, or holding one observation
    # -> estimation error
    # (1e10 s is past int64 ns and used to end in an OverflowError traceback)
    for seconds, needle in (("9999", "covers the whole trace"),
                            ("1e10", "covers the whole trace"),
                            ("0", "fewer than 3 observations")):
        capsys.readouterr()
        assert main(["predict", "--report", str(report_path),
                     "--trace", str(sim / "trace.csv"), "--train-seconds", seconds,
                     "--out-dir", str(tmp_path / f"p2_{seconds}")]) == EXIT_ESTIMATION
        assert needle in capsys.readouterr().err


def test_bad_json_inputs_exit_with_config_error(tmp_path, scenario_file, capsys):
    sim, recon, pred = run_pipeline(tmp_path, scenario_file)
    trace = str(sim / "trace.csv")
    # a report without its access address
    report = json.loads((recon / "report_0xB0A1CD9D.json").read_text())
    del report["access_address"]
    no_address = tmp_path / "no_address.json"
    no_address.write_text(json.dumps(report))
    assert main(["predict", "--report", str(no_address), "--trace", trace,
                 "--out-dir", str(tmp_path / "p")]) == EXIT_CONFIG
    # a report whose channel identifier does not fit in 16 bits
    for n, ci in enumerate(["0x1FFFF", "-0x1"]):
        wide = json.loads((recon / "report_0xB0A1CD9D.json").read_text())
        wide["channel_identifier"] = ci
        wide_ci = tmp_path / f"wide_ci_{n}.json"
        wide_ci.write_text(json.dumps(wide))
        assert main(["predict", "--report", str(wide_ci), "--trace", trace,
                     "--out-dir", str(tmp_path / f"pw{n}")]) == EXIT_CONFIG
    # a forecast without entries
    no_entries = tmp_path / "no_entries.json"
    no_entries.write_text(json.dumps({"counters_are_wire": True}))
    assert main(["evaluate", "--forecast", str(no_entries), "--trace", trace,
                 "--interval-us", "12500", "--out-dir", str(tmp_path / "e1")]) == EXIT_CONFIG
    # a forecast whose times go backwards
    forecast = json.loads((pred / "forecast.json").read_text())
    entries = forecast["entries"]
    entries[1]["time_ns"], entries[2]["time_ns"] = entries[2]["time_ns"], entries[1]["time_ns"]
    unsorted = tmp_path / "unsorted.json"
    unsorted.write_text(json.dumps(forecast))
    part = str(connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv"))
    assert main(["evaluate", "--forecast", str(unsorted), "--trace", part,
                 "--interval-us", "12500", "--out-dir", str(tmp_path / "e2")]) == EXIT_CONFIG
    # params files without an interval, with a non-hex address, and not a dict
    good = {"csa_version": 2, "interval_us": 7500, "channel_map": "0x1E00E00700",
            "access_address": "0xB0A1CD9D"}
    no_interval = {k: v for k, v in good.items() if k != "interval_us"}
    for n, params in enumerate([no_interval, {**good, "access_address": "zz"}, [good]]):
        path = tmp_path / f"params_{n}.json"
        path.write_text(json.dumps(params))
        assert main(["hopgen", "--params", str(path), "--events", "2",
                     "--out-dir", str(tmp_path / f"h{n}")]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """(sim, recon, pred) dirs of one README-scenario run, shared by the module."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    return run_pipeline(tmp_path, scenario)


@pytest.mark.parametrize("command, option, value, needle", [
    ("predict", "--train-seconds", "nan", "--train-seconds"),
    ("predict", "--train-seconds", "inf", "--train-seconds"),
    ("predict", "--train-seconds", "-5", "train_ns"),
    ("predict", "--channel", "99", "channel"),
    ("predict", "--channel", "-1", "channel"),
    ("predict", "--horizon", "-1", "horizon"),
    ("predict", "--horizon", "1000000000000000", "horizon"),
    ("predict", "--horizon", "1" + "0" * 21, "horizon"),
    ("evaluate", "--interval-us", "0", "interval_ns"),
    ("evaluate", "--interval-us", "-12500", "interval_ns"),
    ("hopgen", "--events", "0", "--events"),
    ("hopgen", "--events", "10000001", "--events"),
    ("hopgen", "--start-counter", "-5", "--start-counter"),
    ("hopgen", "--start-counter", "65536", "--start-counter"),
    ("hopgen", "--start-counter", "99999999999999999999", "--start-counter"),
])
def test_out_of_range_options_exit_with_config_error(tmp_path, pipeline, capsys,
                                                     command, option, value, needle):
    sim, recon, pred = pipeline
    params = tmp_path / "params.json"
    params.write_text(json.dumps(SCENARIO["connections"][0]["params"]))
    inputs = {
        "reconstruct": ["--trace", str(sim / "trace.csv")],
        "predict": ["--report", str(recon / "report_0xB0A1CD9D.json"),
                    "--trace", str(sim / "trace.csv")],
        "evaluate": ["--forecast", str(pred / "forecast.json"),
                     "--trace", str(connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv"))],
        "hopgen": ["--params", str(params)],
    }[command]
    capsys.readouterr()
    assert main([command, *inputs, option, value,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err


def test_predict_exits_6_on_a_report_refused_as_off_grid(tmp_path, capsys):
    # a single-hit CSA#1 connection at 150 us jitter: reconstruct writes an
    # error-only report, which predict refuses as a failed reconstruction
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"sniff_channel": 22, "rng_seed": 1, "connections": [{
        "params": {"csa_version": 1, "interval_us": 7500, "channel_map": "0x1FFFFFFFFF",
                   "access_address": "0x53D39A21", "hop_increment": 7, "initial_channel": 3},
        "impairments": {"duration_us": 120_000_000, "jitter_sigma_us": 150.0}}]}))
    sim, recon = tmp_path / "sim", tmp_path / "recon"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(sim)]) == EXIT_OK
    assert main(["reconstruct", "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(recon)]) == EXIT_OK
    report = json.loads((recon / CSA1_REPORT).read_text())
    assert "off-grid" in report["error"] and "verdict" not in report
    capsys.readouterr()
    assert main(["predict", "--report", str(recon / CSA1_REPORT),
                 "--trace", str(sim / "trace.csv"), "--train-seconds", "60",
                 "--out-dir", str(tmp_path / "pred")]) == EXIT_ESTIMATION
    assert "reconstruction failed" in capsys.readouterr().err


CSA2_REPORT = "report_0xB0A1CD9D.json"
CSA1_REPORT = "report_0x53D39A21.json"
DROP = object()


def _mutated(doc, path, value):
    """A copy of the JSON ``doc`` with the item at ``path`` set to ``value`` or dropped."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    owner = doc
    for step in parents:
        owner = owner[step]
    if value is DROP:
        del owner[key]
    else:
        owner[key] = value
    return doc


@pytest.mark.parametrize("report_name, path, value, needle", [
    (CSA2_REPORT, ("k_init",), 10**30, "k_init"),
    (CSA2_REPORT, ("k_init",), -5, "k_init"),
    (CSA2_REPORT, ("k_init",), 1.5, "k_init"),
    (CSA2_REPORT, ("k_init",), True, "k_init"),
    (CSA2_REPORT, ("alignment", "candidates"), [70000], "alignment candidate"),
    (CSA1_REPORT, ("sniff_channel",), 99, "sniff_channel"),
    (CSA1_REPORT, ("period_profile",), "ab", "period_profile"),
    (CSA1_REPORT, ("period_profile",), [0, 0], "period_profile"),
    (CSA1_REPORT, ("period_profile",), [37], "period_profile"),
    (CSA2_REPORT, ("raw_interval_us",), -1, "raw_interval_us"),
    (CSA2_REPORT, ("raw_interval_us",), "nan", "raw_interval_us"),
    (CSA2_REPORT, ("raw_interval_us",), float("nan"), "raw_interval_us"),
    (CSA2_REPORT, ("raw_interval_us",), 100, "raw_interval_us"),
    (CSA2_REPORT, ("interval_us",), 12000, "interval_us"),
    (CSA2_REPORT, ("interval_us",), 5_000_000, "interval_us"),
    (CSA2_REPORT, ("interval_us",), 12500.0, "interval_us"),
    (CSA2_REPORT, ("verdict",), DROP, "neither an error nor a verdict"),
    (CSA1_REPORT, ("period_profile",), [], "period_profile"),
    (CSA2_REPORT, ("channel_map",), 31, "channel map"),
    (CSA2_REPORT, ("alignment", "ambiguous"), "false", "alignment.ambiguous"),
    (CSA2_REPORT, ("alignment", "ambiguous"), 0, "alignment.ambiguous"),
    (CSA2_REPORT, ("converged",), "no", "converged"),
    (CSA2_REPORT, ("evidence_count",), {"3": "x"}, "evidence_count"),
    (CSA2_REPORT, ("evidence_count",), {"99": 1}, "evidence_count"),
    (CSA2_REPORT, ("unexplained_remaps",), -5, "unexplained_remaps"),
    (CSA2_REPORT, ("proven_excluded",), [99], "proven_excluded"),
    (CSA2_REPORT, ("channel_identifier",), "0x1FFFF", "channel_identifier"),
    (CSA2_REPORT, ("access_address",), "-0x1", "32 bits"),
    (CSA2_REPORT, ("access_address",), "0x1B0A1CD9D", "32 bits"),
    (CSA2_REPORT, ("error",), 5, "error"),
    (CSA2_REPORT, ("error",), [], "error"),
    (CSA2_REPORT, ("observation_count",), "x", "observation_count"),
    (CSA2_REPORT, ("observation_count",), -3, "observation_count"),
    (CSA2_REPORT, ("alignment", "correlation_peak"), "x", "correlation_peak"),
    (CSA2_REPORT, ("alignment", "second_peak"), -1, "second_peak"),
    (CSA2_REPORT, ("channel_identifier",), "0x1234", "channel_identifier"),
    (CSA2_REPORT, ("first_timestamp_ns",), 1.5, "first_timestamp_ns"),
    (CSA1_REPORT, ("first_timestamp_ns",), None, "first_timestamp_ns"),
    # the channel identifier of the address, but a CSA#1 verdict has none
    (CSA1_REPORT, ("channel_identifier",), "0xC9F2", "channel_identifier"),
    (CSA2_REPORT, ("alignment", "candidates"), [], "alignment candidates"),
    (CSA2_REPORT, ("evidence_count", "3"), 0, "evidence_count value"),
    # copies that disagree with evidence_count: a full map made predict exit 0
    # with most forecast channels wrong
    (CSA2_REPORT, ("channel_map",), "0x1FFFFFFFFF", "channel_map"),
    (CSA2_REPORT, ("proven_excluded",), [], "proven_excluded"),
    # a verdict is the algorithm only: the labels of earlier reports are refused
    (CSA1_REPORT, ("verdict",), "CSA1_single_hit", '"CSA1" or "CSA2"'),
    (CSA1_REPORT, ("verdict",), "CSA1_repeating", '"CSA1" or "CSA2"'),
    (CSA2_REPORT, ("verdict",), 2, '"CSA1" or "CSA2"'),
    (CSA2_REPORT, ("verdict",), [], '"CSA1" or "CSA2"'),
])
def test_out_of_range_report_values_exit_with_config_error(tmp_path, pipeline, capsys,
                                                          report_name, path, value, needle):
    sim, recon, _ = pipeline
    report = _mutated(json.loads((recon / report_name).read_text()), path, value)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["predict", "--report", str(report_path), "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err


def test_evaluate_counts_a_channel_mismatch_against_the_trace(tmp_path, pipeline, capsys):
    # every central packet was heard on the sniffed channel 22: a forecast
    # event matched to one, but moved to another channel, is a mismatch
    sim, _, pred = pipeline
    part = connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv")
    forecast = json.loads((pred / "forecast.json").read_text())
    times = np.array([entry["time_ns"] for entry in forecast["entries"]])
    heard = int(load_trace(part).timestamps()[-1])
    entry = forecast["entries"][int(np.argmin(np.abs(times - heard)))]
    assert entry["channel"] == 22
    mismatches = []
    for n, channel in enumerate([22, 23]):
        entry["channel"] = channel
        path = tmp_path / f"forecast_{n}.json"
        path.write_text(json.dumps(forecast))
        assert main(["evaluate", "--forecast", str(path), "--trace", str(part),
                     "--interval-us", "12500", "--out-dir", str(tmp_path / f"e{n}")]) == EXIT_OK
        ev = json.loads((tmp_path / f"e{n}" / "eval.json").read_text())
        mismatches.append(ev["channel_mismatches"])
    assert mismatches == [0, 1]
    capsys.readouterr()


def _untied_pair(report):
    pair = sorted({report["k_init"], (report["k_init"] + 4242) % 65536})
    report["k_init"], report["alignment"]["candidates"] = pair[0], pair


def _other_k_init(report):
    report["k_init"] = (report["k_init"] + 1) % 65536


# a copy that disagrees with the value it is derived from, here by an edit
# that needs the report's own k_init: before the copies were checked on
# read, the first made predict exit 0 and forecast from an ignored tie
@pytest.mark.parametrize("edit, needle", [
    (_untied_pair, "alignment.ambiguous"), (_other_k_init, "k_init"),
])
def test_report_copies_that_disagree_exit_with_config_error(tmp_path, pipeline, capsys,
                                                            edit, needle):
    sim, recon, _ = pipeline
    report = json.loads((recon / CSA2_REPORT).read_text())
    edit(report)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["predict", "--report", str(report_path), "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err


def test_predict_refuses_remap_evidence_on_the_sniffed_channel(tmp_path, pipeline, capsys):
    # channel 22 as remap evidence, its copies derived to match: before it was
    # refused, predict exited 0 with 7,192 forecast events and none on channel 22
    sim, recon, _ = pipeline
    report = json.loads((recon / CSA2_REPORT).read_text())
    report["evidence_count"]["22"] = 1
    excluded = sorted(int(channel) for channel in report["evidence_count"])
    report["proven_excluded"] = excluded
    report["channel_map"] = ChannelMap.from_channels(set(range(37)) - set(excluded)).to_hex()
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["predict", "--report", str(report_path), "--trace", str(sim / "trace.csv"),
                 "--train-seconds", "60", "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "evidence_count lists the sniff_channel 22" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("report_name, access_address", [
    (CSA2_REPORT, 0xB0A1CD9D), (CSA1_REPORT, 0x53D39A21)])
def test_predict_refuses_a_trace_without_the_reports_first_packet(tmp_path, pipeline, capsys,
                                                                 report_name, access_address):
    # k_init and the period profile count events from the report's first
    # central packet; without it every forecast counter would be shifted
    sim, recon, _ = pipeline
    part = connection_of(sim, access_address)
    later = tmp_path / "later.csv"
    save_trace(SniffTrace(part.sniff_channel, part.timestamps()[1:],
                          part.access_addresses[1:], part.is_central[1:]), later)
    capsys.readouterr()
    assert main(["predict", "--report", str(recon / report_name), "--trace", str(later),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "first_timestamp_ns" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value", [
    (("entries", 0, "counter"), 1.5), (("entries", 0, "counter"), True),
    (("entries", 0, "channel"), 99), (("entries", 0, "channel"), -1),
    (("entries", 0, "channel"), 2.0), (("entries", 0, "time_ns"), "nan"),
    (("entries", 0, "time_ns"), float("nan")), (("entries", 0, "time_ns"), False),
    (("entries", 0, "time_std_ns"), float("inf")), (("entries",), {}),
    (("counters_are_wire",), "false"), (("entries", 0, "time_ns"), 1.5),
    (("entries", 0, "time_std_ns"), 2.5), (("access_address",), DROP),
    (("access_address",), 5),
])
def test_bad_forecast_values_exit_with_config_error(tmp_path, pipeline, capsys, path, value):
    sim, _, pred = pipeline
    forecast = _mutated(json.loads((pred / "forecast.json").read_text()), path, value)
    part = connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv")
    errors = []
    # compact, and laid out as predict writes it: its rows are read in bulk
    for layout, text in enumerate(_forecast_layouts(forecast)):
        forecast_path = tmp_path / f"forecast_{layout}.json"
        forecast_path.write_text(text)
        capsys.readouterr()
        assert main(["evaluate", "--forecast", str(forecast_path), "--trace", str(part),
                     "--interval-us", "12500",
                     "--out-dir", str(tmp_path / f"out_{layout}")]) == EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    assert "forecast" in errors[0]
    assert errors[1] == errors[0]


def _forecast_layouts(forecast):
    """The forecast dict as compact JSON, and as ``Forecast.to_json`` lays it out."""
    return json.dumps(forecast), json.dumps(forecast, indent=2) + "\n"


@pytest.mark.parametrize("argv, option", [
    (["simulate"], "--scenario"),
    (["predict", "--trace", "TRACE"], "--report"),
    (["evaluate", "--trace", "TRACE", "--interval-us", "12500"], "--forecast"),
    (["hopgen"], "--params"),
    (["reconstruct"], "--trace"),
    (["reconstruct", "--format", "jsonl"], "--trace"),
    (["predict", "--report", "REPORT"], "--trace"),
    (["evaluate", "--forecast", "FORECAST", "--interval-us", "12500"], "--trace"),
], ids=["simulate", "predict", "evaluate", "hopgen", "reconstruct-trace",
        "reconstruct-jsonl-trace", "predict-trace", "evaluate-trace"])
def test_json_inputs_that_are_not_utf8_exit_with_parse_error(tmp_path, pipeline, capsys,
                                                             argv, option):
    # each JSON input used to end in a UnicodeDecodeError traceback and exit 1;
    # a trace is the pipeline's CSV trace with the byte 0xff in its first row
    sim, recon, pred = pipeline
    files = {"TRACE": sim / "trace.csv", "REPORT": recon / "report_0xB0A1CD9D.json",
             "FORECAST": pred / "forecast.json"}
    path = tmp_path / "input"
    if option == "--trace":
        path.write_bytes(files["TRACE"].read_bytes().replace(b",0x", b",0x\xff", 1))
    else:
        path.write_bytes(b'{"entries": [\xff]}')
    capsys.readouterr()
    assert main([*(str(files.get(arg, arg)) for arg in argv), option, str(path),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: input is not valid UTF-8: 'utf-8' codec")
    assert not (tmp_path / "out").exists()


# A short capture, so that each mutated input runs the CLI in milliseconds
SHORT_SCENARIO = {"sniff_channel": 22, "rng_seed": 5, "connections": [
    {**SCENARIO["connections"][0], "impairments": {**SCENARIO["connections"][0]["impairments"],
                                                   "duration_us": 30_000_000}}]}
BAD_VALUES = [DROP, None, True, False, 0, -1, 1.5, 10**30, -10**30, float("nan"),
              float("inf"), "", "x", "0x1", [], [1, 2], {}]


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """(trace path, report dict, forecast dict, work dir) of one short CSA#2 capture."""
    tmp_path = tmp_path_factory.mktemp("short")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SHORT_SCENARIO))
    sim, recon, pred = tmp_path / "sim", tmp_path / "recon", tmp_path / "pred"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(sim)]) == EXIT_OK
        assert main(["reconstruct", "--trace", str(sim / "trace.csv"),
                     "--out-dir", str(recon)]) == EXIT_OK
        assert main(["predict", "--report", str(recon / CSA2_REPORT),
                     "--trace", str(sim / "trace.csv"), "--train-seconds", "15",
                     "--out-dir", str(pred)]) == EXIT_OK
    return (sim / "trace.csv", json.loads((recon / CSA2_REPORT).read_text()),
            json.loads((pred / "forecast.json").read_text()), tmp_path)


def _run_on(work_dir, option, text, argv):
    """``blehop <argv> <option> <text written to a file>`` in a fresh out dir; its
    exit code (checked to be one the CLI documents), that out dir and its stderr."""
    run_dir = Path(tempfile.mkdtemp(dir=work_dir))
    path = run_dir / "input"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, option, str(path), "--out-dir", str(run_dir / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_AMBIGUOUS, EXIT_IO, EXIT_ESTIMATION)
    return code, run_dir / "out", err.getvalue()


REPORT_PATHS = [(key,) for key in (
    "access_address", "sniff_channel", "observation_count", "first_timestamp_ns", "error",
    "interval_us", "raw_interval_us", "verdict", "period_profile", "channel_identifier",
    "k_init", "alignment", "channel_map", "proven_excluded", "evidence_count", "converged",
    "unexplained_remaps")] + [("alignment", key) for key in (
        "correlation_peak", "second_peak", "ambiguous", "candidates")]
FORECAST_PATHS = [("access_address",), ("counters_are_wire",), ("entries",)] + [
    ("entries", row, key) for row in (0, 1, -1)
    for key in ("counter", "channel", "time_ns", "time_std_ns")]


@settings(max_examples=100)
@given(path=st.sampled_from(REPORT_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_report_never_escapes_the_cli(short_run, path, value):
    trace, report, _, work_dir = short_run
    code, out, _ = _run_on(work_dir, "--report", json.dumps(_mutated(report, path, value)),
                           ["predict", "--trace", str(trace), "--train-seconds", "15"])
    if code == EXIT_OK:
        Forecast.from_dict(json.loads((out / "forecast.json").read_text()))
        json.loads((out / "eval.json").read_text())


@settings(max_examples=100)
@given(path=st.sampled_from(FORECAST_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_forecast_never_escapes_the_cli(short_run, path, value):
    trace, _, forecast, work_dir = short_run
    runs = [_run_on(work_dir, "--forecast", text,
                    ["evaluate", "--trace", str(trace), "--interval-us", "7500"])
            for text in _forecast_layouts(_mutated(forecast, path, value))]
    (code, out, err), (bulk_code, bulk_out, bulk_err) = runs
    assert (bulk_code, bulk_err) == (code, err)
    if code == EXIT_OK:
        assert (bulk_out / "eval.json").read_bytes() == (out / "eval.json").read_bytes()
        json.loads((out / "eval.json").read_text())


# the scenario with every key its reader takes, and the params of both algorithms
SCENARIO_DOC = _mutated(_mutated(SHORT_SCENARIO, ("connections", 0, "start_offset_us"), 2000),
                        ("connections", 0, "impairments", "drift_walk_ppm_per_sqrt_s"), 0.01)
SCENARIO_PATHS = [(key,) for key in ("sniff_channel", "rng_seed", "connections")] + [
    ("connections", 0, key) for key in ("params", "initial_counter", "start_offset_us",
                                        "impairments")] + [
    ("connections", 0, "impairments", key) for key in (
        "duration_us", "jitter_sigma_us", "clock_drift_ppm", "miss_probability",
        "drift_walk_ppm_per_sqrt_s")] + [
    ("connections", 0, "params", key) for key in SCENARIO["connections"][0]["params"]]
PARAMS_PATHS = [(conn, key) for conn in (0, 1)
                for key in SCENARIO["connections"][conn]["params"]]


@settings(max_examples=100)
@given(path=st.sampled_from(SCENARIO_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_scenario_never_escapes_the_cli(short_run, path, value):
    work_dir = short_run[-1]
    scenario = json.dumps(_mutated(SCENARIO_DOC, path, value))
    code, out, _ = _run_on(work_dir, "--scenario", scenario, ["simulate"])
    if code == EXIT_OK:
        load_trace(out / "trace.csv")
        [json.loads(line) for line in (out / "timelines.jsonl").read_text().splitlines()]


# 7.5 is a float inside the hop increment's and the channels' ranges
@settings(max_examples=200)
@given(path=st.sampled_from(PARAMS_PATHS), value=st.sampled_from([*BAD_VALUES, 7.5]))
def test_mutated_params_file_never_escapes_the_cli(short_run, path, value):
    work_dir = short_run[-1]
    conn, key = path
    params = _mutated(SCENARIO["connections"][conn]["params"], (key,), value)
    code, out, _ = _run_on(work_dir, "--params", json.dumps(params), ["hopgen"])
    if code == EXIT_OK:
        with open(out / "hops.csv") as handle:
            assert len(list(csv.reader(handle))) == 75


# a trace as rows of fields: the header and a connection's first, second and
# last rows, each field or the whole row
CSV_PATHS = [(row, *field) for row in (0, 1, 2, -1) for field in ((), (0,), (1,), (2,), (3,))]
JSONL_PATHS = [(row, *key) for row in (0, 1, -1)
               for key in ((), ("timestamp_ns",), ("access_address_hex",), ("channel",),
                           ("is_central",))]


def _reconstruct_mutated(short_run, text, fmt):
    """Run ``reconstruct`` on a mutated trace: it exits 0 with readable reports,
    or refuses the trace as a config or parse error."""
    work_dir = short_run[-1]
    code, out, _ = _run_on(work_dir, "--trace", text, ["reconstruct", "--format", fmt])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PARSE)
    if code == EXIT_OK:
        for path in out.glob("report_*.json"):
            ReconstructionReport.from_dict(json.loads(path.read_text()))


@settings(max_examples=100)
@given(path=st.sampled_from(CSV_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_csv_trace_never_escapes_the_cli(short_run, path, value):
    rows = [line.split(",") for line in short_run[0].read_text().splitlines()]
    rows = _mutated(rows, path, value)
    text = "".join((",".join(map(str, row)) if type(row) is list else str(row)) + "\n"
                   for row in rows)
    _reconstruct_mutated(short_run, text, "csv")


@settings(max_examples=100)
@given(path=st.sampled_from(JSONL_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_jsonl_trace_never_escapes_the_cli(short_run, path, value):
    buffer = io.StringIO()
    save_trace(load_trace(short_run[0]), buffer, "jsonl")
    records = [json.loads(line) for line in buffer.getvalue().splitlines()]
    text = "".join(json.dumps(record) + "\n" for record in _mutated(records, path, value))
    _reconstruct_mutated(short_run, text, "jsonl")


def test_manifest_records_every_option(tmp_path, pipeline, capsys):
    sim, recon, _ = pipeline
    trace = tmp_path / "trace.jsonl"
    save_trace(load_trace(sim / "trace.csv"), trace, "jsonl")
    out = tmp_path / "pred"
    assert main(["predict", "--report", str(recon / "report_0xB0A1CD9D.json"),
                 "--trace", str(trace), "--format", "jsonl", "--train-seconds", "60",
                 "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "predict"
    assert manifest["arguments"] == {
        "report": str(recon / "report_0xB0A1CD9D.json"), "trace": str(trace),
        "format": "jsonl", "train_seconds": 60.0, "horizon": None, "channel": None}
    capsys.readouterr()


def test_predict_uses_the_reports_central_packets(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({**SCENARIO, "connections": SCENARIO["connections"][:1]}))
    sim, recon, _ = run_pipeline(tmp_path, one)
    clean = load_trace(sim / "trace.csv")
    # the same capture with a peripheral reply 150 us after each central packet
    ts = clean.timestamps()
    replies = SniffTrace(clean.sniff_channel, np.stack([ts, ts + 150_000], axis=1).ravel(),
                         np.repeat(clean.access_addresses, 2), np.tile([True, False], ts.size))
    save_trace(replies, tmp_path / "replies.csv")
    report = recon / "report_0xB0A1CD9D.json"
    outputs = {}
    for name, trace in (("clean", sim / "trace.csv"), ("replies", tmp_path / "replies.csv")):
        out = tmp_path / f"pred_{name}"
        assert main(["predict", "--report", str(report), "--trace", str(trace),
                     "--train-seconds", "60", "--out-dir", str(out)]) == EXIT_OK
        outputs[name] = [(out / f).read_bytes() for f in ("forecast.json", "eval.json")]
    assert outputs["replies"] == outputs["clean"]
    capsys.readouterr()


def test_predict_and_evaluate_refuse_a_trace_without_the_address(tmp_path, pipeline, capsys):
    sim, recon, pred = pipeline
    # the other connection's part holds no packet of 0xB0A1CD9D
    other = str(connection_trace(sim, 0x53D39A21, tmp_path / "other.csv"))
    for command, inputs in (
            ("predict", ["--report", str(recon / "report_0xB0A1CD9D.json")]),
            ("evaluate", ["--forecast", str(pred / "forecast.json"), "--interval-us", "12500"])):
        capsys.readouterr()
        assert main([command, *inputs, "--trace", other,
                     "--out-dir", str(tmp_path / command)]) == EXIT_CONFIG
        assert "trace has no observations for 0xB0A1CD9D" in capsys.readouterr().err


def test_reconstruct_writes_each_report_before_the_next_connection(
        tmp_path, capsys, monkeypatch):
    third = {"params": {"csa_version": 2, "interval_us": 7500,
                        "channel_map": "0x1FFFFFFC00", "access_address": "0x2A7F10C3"},
             "impairments": {"duration_us": 60_000_000}}
    scenario = tmp_path / "three.json"
    scenario.write_text(json.dumps({**SCENARIO,
                                    "connections": [*SCENARIO["connections"], third]}))
    sim, recon = tmp_path / "sim", tmp_path / "recon"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(sim)]) == EXIT_OK
    capsys.readouterr()
    lines, seen = [], []  # stdout so far; (files, lines) at each reconstruction
    real = reconstruct.reconstruct_connection

    def spy(trace):
        lines.extend(capsys.readouterr().out.splitlines())
        seen.append((sorted(p.name for p in recon.iterdir()), list(lines)))
        return real(trace)

    monkeypatch.setattr(reconstruct, "reconstruct_connection", spy)
    assert main(["reconstruct", "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(recon)]) == EXIT_OK
    lines.extend(capsys.readouterr().out.splitlines())
    names = ["0x2A7F10C3", "0x53D39A21", "0xB0A1CD9D"]  # ascending, not first-seen
    assert [line.split(":")[0] for line in lines] == names
    # the manifest comes last: before it, the reports and lines of the
    # connections done so far, and nothing else
    assert seen == [([f"report_{n}.json" for n in names[:i]], lines[:i]) for i in range(3)]
    assert (recon / "run_manifest.json").exists()


def test_reconstruct_names_a_peripheral_only_connection(tmp_path, capsys):
    trace = SniffTrace(22, [100, 200, 300, 400, 500], [0xC, 0xB, 0xA, 0xA, 0xC],
                       [False, True, True, True, False])
    save_trace(trace, tmp_path / "trace.csv")
    assert main(["reconstruct", "--trace", str(tmp_path / "trace.csv"),
                 "--out-dir", str(tmp_path / "recon")]) == EXIT_OK
    report = json.loads((tmp_path / "recon" / "report_0x0000000C.json").read_text())
    assert report["access_address"] == "0x0000000C"
    assert report["observation_count"] == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("0x0000000C: ")


def test_predict_exits_2_on_forecast_times_past_int64(tmp_path, capsys):
    # a zero-impairment capture whose last packet is at the int64 limit: a
    # forecast one event past it is refused, and no times are written wrapped
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"sniff_channel": 22, "rng_seed": 7, "connections": [{
        "params": {"csa_version": 2, "interval_us": 7500, "channel_map": "0x1FFFFFFC00",
                   "access_address": "0xB0A1CD9D"},
        "impairments": {"duration_us": 30_000_000}}]}))
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path)]) == EXIT_OK
    trace = load_trace(tmp_path / "trace.csv")
    ts = trace.timestamps()
    late = tmp_path / "late.csv"
    save_trace(SniffTrace(22, ts + (2**63 - 1 - int(ts[-1])), trace.access_addresses,
                          trace.is_central), late)
    assert main(["reconstruct", "--trace", str(late), "--out-dir", str(tmp_path / "r")]) == EXIT_OK
    predict = ["predict", "--report", str(tmp_path / "r" / "report_0xB0A1CD9D.json"),
               "--trace", str(late), "--train-seconds", "10"]
    assert main(predict + ["--out-dir", str(tmp_path / "p")]) == EXIT_OK
    forecast = json.loads((tmp_path / "p" / "forecast.json").read_text())
    assert forecast["entries"][-1]["time_ns"] == 2**63 - 1
    capsys.readouterr()
    assert main(predict + ["--horizon", str(len(forecast["entries"]) + 1),
                           "--out-dir", str(tmp_path / "past")]) == EXIT_CONFIG
    assert "within int64" in capsys.readouterr().err
    assert not (tmp_path / "past" / "forecast.json").exists()


def test_simulate_leaves_no_partial_trace_csv(tmp_path, capsys, monkeypatch):
    # trace.csv leaves through the atomic writer like every other output: a
    # write that fails after its first block of rows leaves no trace.csv, and
    # no temporary file either
    real = blehop.trace.format_rows

    def fails_after_one_block(template, columns):
        blocks = real(template, columns)
        yield next(blocks)
        raise OSError("disk full")

    monkeypatch.setattr(blehop.trace, "format_rows", fails_after_one_block)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SHORT_SCENARIO))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(sim)]) == EXIT_IO
    assert "disk full" in capsys.readouterr().err
    assert not (sim / "trace.csv").exists()
    assert not (sim / "trace.csv.tmp").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "blehop" in capsys.readouterr().out


def test_timelines_jsonl_is_json_dumps_byte_for_byte(tmp_path, capsys):
    # its integer lists are written a block of values at a time: a timeline
    # of one event, one of exactly a block and one of several blocks
    doc = {"sniff_channel": 22, "rng_seed": 3, "connections": [
        {**SCENARIO["connections"][0], "impairments": {"duration_us": 0}},
        {**SCENARIO["connections"][1], "impairments": {"duration_us": 8191 * 18_750}},
        {"params": {**SCENARIO["connections"][0]["params"], "access_address": "0x11223344",
                    "interval_us": 7500}, "initial_counter": 65000,
         "impairments": {"duration_us": 20_000 * 7500, "clock_drift_ppm": 20}}]}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path)]) == EXIT_OK
    config = ScenarioConfig.from_dict(doc)
    want = "".join(json.dumps({
        "access_address_hex": f"0x{conn.params.access_address:08X}",
        "params": conn.params.to_dict(),
        "initial_counter": conn.initial_counter,
        "counters": timeline.counters.tolist(),
        "channels": timeline.channels.tolist(),
        "times_ns": timeline.times_ns.tolist(),
    }) + "\n" for conn, timeline in zip(config.connections, simulate(config)[0]))
    assert [len(t) for t in simulate(config)[0]] == [1, 8192, 20_000]
    assert (tmp_path / "timelines.jsonl").read_bytes() == want.encode()
