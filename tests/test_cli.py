"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import json
import shutil

import numpy as np
import pytest

from blehop import SniffTrace, load_trace, save_trace, split_by_connection
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


def connection_trace(sim, access_address, dest):
    """Write the rows of one connection of a simulated trace to ``dest``."""
    save_trace(split_by_connection(load_trace(sim / "trace.csv"))[access_address], dest)
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
    assert report1["verdict"].startswith("CSA1")
    assert report1["interval_us"] == 18750

    ev = json.loads((pred / "eval.json").read_text())
    assert ev["rmse_us"] < 150.0
    assert ev["matched"] > 50
    forecast = json.loads((pred / "forecast.json").read_text())
    assert forecast["counters_are_wire"] is True
    assert len(forecast["entries"]) > 1000
    with open(pred / "eccdf.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["abs_error_us", "prob_error_exceeds"]
    assert len(rows) == ev["matched"] + 1

    # evaluate scores one connection: the merged trace is refused, its part is scored
    assert main(["evaluate", "--forecast", str(pred / "forecast.json"),
                 "--trace", str(sim / "trace.csv"), "--interval-us", "12500",
                 "--out-dir", str(tmp_path / "ev_merged")]) == EXIT_CONFIG
    part = connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv")
    ev_dir = tmp_path / "ev"
    assert main(["evaluate", "--forecast", str(pred / "forecast.json"),
                 "--trace", str(part), "--interval-us", "12500",
                 "--out-dir", str(ev_dir)]) == EXIT_OK
    ev2 = json.loads((ev_dir / "eval.json").read_text())
    assert ev2["matched"] > 0

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
    capsys.readouterr()


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

    # training window swallowing the whole trace -> estimation error
    assert main(["predict", "--report", str(report_path),
                 "--trace", str(sim / "trace.csv"), "--train-seconds", "9999",
                 "--out-dir", str(tmp_path / "p2")]) == EXIT_ESTIMATION
    capsys.readouterr()


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
    ("predict", "--channel", "99", "channel"),
    ("predict", "--channel", "-1", "channel"),
    ("reconstruct", "--tolerance-us", "nan", "--tolerance-us"),
    ("reconstruct", "--tolerance-us", "inf", "--tolerance-us"),
    ("reconstruct", "--tolerance-us", "-1", "tolerance_ns"),
    ("evaluate", "--interval-us", "0", "interval_ns"),
    ("evaluate", "--interval-us", "-12500", "interval_ns"),
])
def test_out_of_range_options_exit_with_config_error(tmp_path, pipeline, capsys,
                                                     command, option, value, needle):
    sim, recon, pred = pipeline
    inputs = {
        "reconstruct": ["--trace", str(sim / "trace.csv")],
        "predict": ["--report", str(recon / "report_0xB0A1CD9D.json"),
                    "--trace", str(sim / "trace.csv")],
        "evaluate": ["--forecast", str(pred / "forecast.json"),
                     "--trace", str(connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv"))],
    }[command]
    capsys.readouterr()
    assert main([command, *inputs, option, value,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err


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
    # a report for an address the trace does not hold is refused
    edited = json.loads(report.read_text())
    edited["access_address"] = "0x12345678"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(edited))
    assert main(["predict", "--report", str(other), "--trace", str(sim / "trace.csv"),
                 "--out-dir", str(tmp_path / "p")]) == EXIT_CONFIG
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "blehop" in capsys.readouterr().out
