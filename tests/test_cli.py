"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blehop import Forecast, SniffTrace, load_trace, save_trace, split_by_connection
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
])
def test_bad_scenario_values_exit_with_config_error(tmp_path, capsys, path, value, needle):
    # each value used to be coerced (22.9 simulated channel 22, true seeded
    # 1) or to end in a traceback (an infinite jitter, a nan drift, 10**30 us)
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

    # a CSA#2 report without its channel identifier, counter alignment or
    # channel map cannot forecast channels
    for key, needle in (("channel_identifier", "no channel identifier"),
                        ("k_init", "no counter alignment"),
                        ("channel_map", "no channel map estimate")):
        report = json.loads(report_path.read_text())
        del report[key]
        partial_path = tmp_path / f"no_{key}.json"
        partial_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["predict", "--report", str(partial_path),
                     "--trace", str(sim / "trace.csv"),
                     "--out-dir", str(tmp_path / f"p_{key}")]) == EXIT_ESTIMATION
        assert needle in capsys.readouterr().err

    # training window swallowing the whole trace, or holding one observation
    # -> estimation error
    for seconds, needle in (("9999", "covers the whole trace"),
                            ("0", "fewer than 2 observations")):
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
    ("predict", "--channel", "99", "channel"),
    ("predict", "--channel", "-1", "channel"),
    ("reconstruct", "--tolerance-us", "nan", "--tolerance-us"),
    ("reconstruct", "--tolerance-us", "inf", "--tolerance-us"),
    ("reconstruct", "--tolerance-us", "-1", "tolerance_ns"),
    ("evaluate", "--interval-us", "0", "interval_ns"),
    ("evaluate", "--interval-us", "-12500", "interval_ns"),
    ("hopgen", "--events", "0", "--events"),
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


@pytest.mark.parametrize("path, value", [
    (("entries", 0, "counter"), 1.5), (("entries", 0, "counter"), True),
    (("entries", 0, "channel"), 99), (("entries", 0, "channel"), -1),
    (("entries", 0, "channel"), 2.0), (("entries", 0, "time_ns"), "nan"),
    (("entries", 0, "time_ns"), float("nan")), (("entries", 0, "time_ns"), False),
    (("entries", 0, "time_std_ns"), float("inf")), (("entries",), {}),
    (("counters_are_wire",), "false"),
])
def test_bad_forecast_values_exit_with_config_error(tmp_path, pipeline, capsys, path, value):
    sim, _, pred = pipeline
    forecast = _mutated(json.loads((pred / "forecast.json").read_text()), path, value)
    forecast_path = tmp_path / "forecast.json"
    forecast_path.write_text(json.dumps(forecast))
    part = connection_trace(sim, 0xB0A1CD9D, tmp_path / "part.csv")
    capsys.readouterr()
    assert main(["evaluate", "--forecast", str(forecast_path), "--trace", str(part),
                 "--interval-us", "12500", "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "forecast" in capsys.readouterr().err


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


def _run_on(work_dir, option, doc, argv):
    """``blehop <argv> <option> <doc written to a file>`` in a fresh out dir; its
    exit code (checked to be one the CLI documents) and that out dir."""
    run_dir = Path(tempfile.mkdtemp(dir=work_dir))
    path = run_dir / "input.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, option, str(path), "--out-dir", str(run_dir / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PARSE, EXIT_AMBIGUOUS, EXIT_IO, EXIT_ESTIMATION)
    return code, run_dir / "out"


REPORT_PATHS = [(key,) for key in (
    "access_address", "sniff_channel", "observation_count", "error", "interval_us",
    "raw_interval_us", "verdict", "period_profile", "channel_identifier", "k_init",
    "alignment", "channel_map", "proven_excluded", "evidence_count", "converged",
    "unexplained_remaps")] + [("alignment", key) for key in (
        "correlation_peak", "second_peak", "ambiguous", "candidates")]
FORECAST_PATHS = [("counters_are_wire",), ("entries",)] + [
    ("entries", row, key) for row in (0, 1, -1)
    for key in ("counter", "channel", "time_ns", "time_std_ns")]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(REPORT_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_report_never_escapes_the_cli(short_run, path, value):
    trace, report, _, work_dir = short_run
    code, out = _run_on(work_dir, "--report", _mutated(report, path, value),
                        ["predict", "--trace", str(trace), "--train-seconds", "15"])
    if code == EXIT_OK:
        Forecast.from_dict(json.loads((out / "forecast.json").read_text()))
        json.loads((out / "eval.json").read_text())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(FORECAST_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_forecast_never_escapes_the_cli(short_run, path, value):
    trace, _, forecast, work_dir = short_run
    code, out = _run_on(work_dir, "--forecast", _mutated(forecast, path, value),
                        ["evaluate", "--trace", str(trace), "--interval-us", "7500"])
    if code == EXIT_OK:
        json.loads((out / "eval.json").read_text())


# the scenario with every key its reader takes, and the params of both algorithms
SCENARIO_DOC = _mutated(SHORT_SCENARIO, ("connections", 0, "start_offset_us"), 2000)
SCENARIO_PATHS = [(key,) for key in ("sniff_channel", "rng_seed", "connections")] + [
    ("connections", 0, key) for key in ("params", "initial_counter", "start_offset_us",
                                        "impairments")] + [
    ("connections", 0, "impairments", key) for key in (
        "duration_us", "jitter_sigma_us", "clock_drift_ppm", "miss_probability")] + [
    ("connections", 0, "params", key) for key in SCENARIO["connections"][0]["params"]]
PARAMS_PATHS = [(conn, key) for conn in (0, 1)
                for key in SCENARIO["connections"][conn]["params"]]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(SCENARIO_PATHS), value=st.sampled_from(BAD_VALUES))
def test_mutated_scenario_never_escapes_the_cli(short_run, path, value):
    work_dir = short_run[-1]
    code, out = _run_on(work_dir, "--scenario", _mutated(SCENARIO_DOC, path, value),
                        ["simulate"])
    if code == EXIT_OK:
        load_trace(out / "trace.csv")
        [json.loads(line) for line in (out / "timelines.jsonl").read_text().splitlines()]


# 7.5 is a float inside the hop increment's and the channels' ranges
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(PARAMS_PATHS), value=st.sampled_from([*BAD_VALUES, 7.5]))
def test_mutated_params_file_never_escapes_the_cli(short_run, path, value):
    work_dir = short_run[-1]
    conn, key = path
    params = _mutated(SCENARIO["connections"][conn]["params"], (key,), value)
    code, out = _run_on(work_dir, "--params", params, ["hopgen"])
    if code == EXIT_OK:
        with open(out / "hops.csv") as handle:
            assert len(list(csv.reader(handle))) == 75


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
