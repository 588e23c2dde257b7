"""Checks on the package as a whole: what its runtime imports, what its
modules import from one another, and the one check every integer argument,
every integer-array argument and every real-valued argument goes through."""

import argparse
import ast
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blehop import (
    ChannelMap,
    ConfigError,
    ConnectionParams,
    ConnectionScenario,
    CsaVersion,
    EstimationError,
    EvalReport,
    Forecast,
    ImpairmentModel,
    IntervalEstimate,
    PredictionRun,
    ReconstructionReport,
    ScenarioConfig,
    SniffTrace,
    align_counter,
    build_ref_vector,
    channel_sequence,
    classify_csa,
    csa1_unmapped_bulk,
    csa2_channels_bulk,
    csa2_counters_for_unmapped,
    csa2_unmapped_bulk,
    evaluate,
    infer_channel_map,
    init_sync,
    kalman_update,
    observation_offsets,
    predict_event_time,
    prn_e_bulk,
    reconstruct_connection,
    run_prediction,
    simulate,
)
from blehop.cli import EXIT_OK, cmd_hopgen
from blehop.csa import csa2_prn, csa2_remap_index, csa2_unmapped
from blehop.errors import check_int, check_ints

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_loads_no_scipy():
    # SciPy is a test-only extra; importing scipy.fft costs ~27 MB RSS and ~0.3 s
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, blehop.cli; sys.exit('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr or "importing blehop.cli loads scipy"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_src_imports_no_other_modules_private_names():
    # a relative `from .x import _name` is refused, and so is `x._name` after a
    # relative `from . import x`; dunder names such as __version__ pass
    bad = []
    for path in sorted((ROOT / "src" / "blehop").glob("*.py")):
        tree = ast.parse(path.read_bytes())
        modules = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and not node.module
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                bad += [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
                        f"import {a.name}" for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                bad.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not bad, "\n".join(bad)


# ---------------------------------------------------------------------------
# integer arguments

PARAMS = ConnectionParams(CsaVersion.CSA2, 12500, ChannelMap.from_hex("0x1FFFFFFC00"), 0xB0A1CD9D)
SYNC = init_sync(0, 12_500_000)
# three observations on the 12.5 ms grid: a tracker that predicts
SYNC3 = kalman_update(kalman_update(SYNC, 12_500_000, 1), 25_000_000, 1)
CI = 100
# five unmapped hits on channel 22 from counter 0: no remap evidence to reconcile
HIT_OFFSETS = csa2_counters_for_unmapped(22, CI)[:5]


def _hopgen(tmp_path, events=5, start_counter=0):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS.to_dict()))
    out = tmp_path / "hops"
    code = cmd_hopgen(argparse.Namespace(command="hopgen", params=str(params), events=events,
                                         start_counter=start_counter, out_dir=str(out)))
    return code, (out / "hops.csv").read_bytes()


# every integer argument the package is passed: (name, call(value, tmp_path),
# a valid value that every integer dtype holds, an out-of-range int)
INTEGER_SITES = [
    ("hops_since_last", lambda v, _: kalman_update(SYNC, 12_500_000.0, v), 1, 0),
    ("duration_ns", lambda v, _: ImpairmentModel(v), 100, -1),
    ("start_offset_ns",
     lambda v, _: ConnectionScenario(PARAMS, ImpairmentModel(100), start_offset_ns=v), 5, -1),
    ("start_event", lambda v, _: channel_sequence(PARAMS, v, 3), 10, -1),
    ("count", lambda v, _: channel_sequence(PARAMS, 10, v), 3, -1),
    ("initial_channel", lambda v, _: csa1_unmapped_bulk([0, 1, 2], v, 7), 3, 37),
    ("hop_increment", lambda v, _: csa1_unmapped_bulk([0, 1, 2], 3, v), 7, 17),
    ("ci", lambda v, _: prn_e_bulk([0, 1, 65535], v), CI, 65536),
    ("ci", lambda v, _: csa2_unmapped_bulk([0, 1, 65535], v), CI, -1),
    ("ci", lambda v, _: csa2_remap_index(csa2_prn([0, 1, 65535], v), 28), CI, 70000),
    ("ci", lambda v, _: csa2_counters_for_unmapped(22, v), CI, 65536),
    ("ci", lambda v, _: csa2_channels_bulk([0, 1, 65535], v, PARAMS.channel_map), CI, 65536),
    ("k_init", lambda v, _: infer_channel_map(HIT_OFFSETS, v, CI, 22), 0, 65536),
    ("sniff_channel", lambda v, _: infer_channel_map(HIT_OFFSETS, 0, CI, v), 22, 37),
    ("--events", lambda v, tmp: _hopgen(tmp, events=v), 5, 10**7 + 1),
    ("--start-counter", lambda v, tmp: _hopgen(tmp, start_counter=v), 10, 65536),
    ("event_offset", lambda v, _: predict_event_time(SYNC3, v), 4, 2**63),
    ("ci", lambda v, _: csa2_prn([0, 1, 65535], v), CI, 65536),
]
SITE_IDS = [f"{name}-{i}" for i, (name, *_) in enumerate(INTEGER_SITES)]
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("name, call, valid, out_of_range", INTEGER_SITES, ids=SITE_IDS)
@pytest.mark.parametrize("bad", [1.5, True, float("nan"), float("inf"), -float("inf"), "3",
                                 "out of range"])
def test_every_integer_argument_refuses_what_is_not_an_integer_in_range(
        tmp_path, name, call, valid, out_of_range, bad):
    # a float was truncated or used as is (hops 1.5 fused at hop 1, ci 1.5
    # hopped as 1, initial_channel 1.5 gave channel 8.5), True read as 1, and
    # a string, an infinity or a channel identifier past 16 bits ended in a
    # TypeError or an OverflowError
    value = out_of_range if bad == "out of range" else bad
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an integer in "):
        call(value, tmp_path)


def _parts(result):
    """A site's result as a list of values, whose types are compared too."""
    if isinstance(result, np.ndarray):
        return [result.dtype, result.tolist()]
    if dataclasses.is_dataclass(result):
        return [getattr(result, field.name) for field in dataclasses.fields(result)]
    return list(result)


@pytest.mark.parametrize("name, call, valid, out_of_range",
                         [site for site in INTEGER_SITES if not site[0].startswith("--")],
                         ids=[i for i in SITE_IDS if not i.startswith("--")])
@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: d.__name__)
def test_every_integer_argument_takes_a_numpy_integer_as_its_int(
        tmp_path, name, call, valid, out_of_range, dtype):
    # the CLI's options are left out: argparse gives them as Python ints
    want, got = _parts(call(valid, tmp_path)), _parts(call(dtype(valid), tmp_path))
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_hopgen_takes_the_valid_values_of_its_sites(tmp_path):
    for name, call, valid, _ in INTEGER_SITES:
        if name.startswith("--"):
            assert call(valid, tmp_path)[0] == EXIT_OK


class _Int(int):
    """An int of another type, which ``check_int``'s fast path leaves to its full path."""


def _checked(value, low, high):
    try:
        result = check_int(value, "x", low, high)
    except ConfigError:
        return None
    assert type(result) is int
    return result


@pytest.mark.parametrize("low, high", [(0, 36), (1, 2**63 - 1), (-2**63, 2**63 - 1)])
def test_check_int_fast_path_agrees_with_its_full_path(low, high):
    for value in sorted({v + d for v in (low, high, 0) for d in (-1, 0, 1)}):
        want = value if low <= value <= high else None
        assert _checked(value, low, high) == want
        assert _checked(_Int(value), low, high) == want
        for dtype in INT_DTYPES:
            if np.iinfo(dtype).min <= value <= np.iinfo(dtype).max:
                assert _checked(dtype(value), low, high) == want
    assert _checked(True, low, high) is _checked(False, low, high) is None


# ---------------------------------------------------------------------------
# real-valued arguments

INF, NAN = float("inf"), float("nan")
AA = PARAMS.access_address
STAMPS = [0, 12_500_000, 37_500_000]
ONE_CONNECTION = SniffTrace(22, STAMPS, [AA] * 3, [True] * 3)
FORECAST = Forecast(np.arange(3), np.full(3, 22), np.array(STAMPS), np.zeros(3, np.int64))


@functools.cache
def _capture():
    """(trace, report) of a zero-impairment 60 s CSA#2 capture."""
    config = ScenarioConfig((ConnectionScenario(PARAMS, ImpairmentModel(60 * 10**9)),), 22, 3)
    trace = simulate(config)[1]
    return trace, reconstruct_connection(trace)


def _scenario(**impairments):
    return ScenarioConfig.from_dict({"sniff_channel": 22, "rng_seed": 1, "connections": [
        {"params": PARAMS.to_dict(), "impairments": {"duration_us": 100, **impairments}}]})


# every real-valued argument the package is passed: (name, call(value), a
# valid integer value, out-of-range values, an open end among them if it has one)
REAL_SITES = [
    ("interval_ns", lambda v: init_sync(0, v), 12_500_000, [0, -1, INF]),
    ("first_time_ns", lambda v: init_sync(v, 12_500_000), 5, [INF, -INF]),
    ("interval_ns", lambda v: evaluate(FORECAST, ONE_CONNECTION, v), 12_500_000, [0, INF]),
    ("interval_ns", lambda v: observation_offsets(ONE_CONNECTION, v), 12_500_000,
     [0, -12_500_000, INF]),
    ("train_ns", lambda v: run_prediction(*_capture(), train_ns=v), 20 * 10**9, [-1, -INF]),
    ("jitter_sigma_ns", lambda v: ImpairmentModel(100, jitter_sigma_ns=v), 5, [-1, INF]),
    ("clock_drift_ppm", lambda v: ImpairmentModel(100, clock_drift_ppm=v), 20,
     [500.5, -501, INF]),
    ("miss_probability", lambda v: ImpairmentModel(100, miss_probability=v), 0, [1.0, -0.1]),
    ("drift_walk_ppm_per_sqrt_s", lambda v: ImpairmentModel(100, drift_walk_ppm_per_sqrt_s=v),
     1, [-0.1, INF]),
    # a scenario file's impairments, each under its JSON name
    ("jitter_sigma_us", lambda v: _scenario(jitter_sigma_us=v), 50, [-1, INF]),
    ("clock_drift_ppm", lambda v: _scenario(clock_drift_ppm=v), -20, [-500.5, NAN]),
    ("miss_probability", lambda v: _scenario(miss_probability=v), 0, [1, INF]),
    ("drift_walk_ppm_per_sqrt_s", lambda v: _scenario(drift_walk_ppm_per_sqrt_s=v), 0, [-1]),
    # the fitted interval lies within half a 1250 us step of the snapped one
    ("raw_interval_us",
     lambda v: ReconstructionReport.from_dict({**_capture()[1].to_dict(), "raw_interval_us": v}),
     12_500, [12_500 - 625, 12_500 + 625, 0, INF]),
    ("measured_time_ns", lambda v: kalman_update(SYNC, v, 1), 12_500_000, [INF, -INF]),
]
REAL_IDS = [f"{name}-{i}" for i, (name, *_) in enumerate(REAL_SITES)]


@pytest.mark.parametrize("name, call, valid, out_of_range", REAL_SITES, ids=REAL_IDS)
@pytest.mark.parametrize("bad", [True, False, "5", None, 1j, NAN, "out of range"])
def test_every_real_argument_refuses_what_is_not_a_number_in_range(
        name, call, valid, out_of_range, bad):
    # the CLI's --train-seconds is left out: argparse gives it as a float
    # (test_cli checks its nan and inf)
    for value in out_of_range if bad == "out of range" else [bad]:
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be a number in "):
            call(value)


def _value(result):
    """A site's result in a form that ``==`` compares."""
    if isinstance(result, np.ndarray):
        return result.dtype, result.tolist()
    if isinstance(result, PredictionRun):
        return result.forecast.to_json(), _value(result.report)
    if isinstance(result, EvalReport):
        return result.to_dict(), result.eccdf
    return result


@pytest.mark.parametrize("name, call, valid, out_of_range", REAL_SITES, ids=REAL_IDS)
@pytest.mark.parametrize("kind", [int, float, np.int64, np.float64], ids=lambda k: k.__name__)
def test_every_real_argument_takes_any_number_type_as_its_float(
        name, call, valid, out_of_range, kind):
    assert _value(call(kind(valid))) == _value(call(float(valid)))


def _is_math(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def _range_tests(node, function=None):
    """(function, source) of each ``math.isfinite`` call and each comparison
    against ``math.inf`` or ``-math.inf`` in ``node``."""
    if isinstance(node, ast.FunctionDef):
        function = node.name
    found = []
    if isinstance(node, ast.Call) and _is_math(node.func, "isfinite"):
        found.append((function, ast.unparse(node)))
    elif isinstance(node, ast.Compare) and any(
            _is_math(n.operand if isinstance(n, ast.UnaryOp) else n, "inf")
            for n in (node.left, *node.comparators)):
        found.append((function, ast.unparse(node)))
    for child in ast.iter_child_nodes(node):
        found += _range_tests(child, function)
    return found


def test_src_tests_real_ranges_only_through_check_number():
    # the one exception: the live step's residual, which stands in for a
    # check_number on each timestamp, a cost the live step does not pay
    allowed = {("predict.py", "kalman_update", "math.isfinite(r)")}
    found = [(path.name, *hit) for path in sorted((ROOT / "src" / "blehop").glob("*.py"))
             if path.name != "errors.py" for hit in _range_tests(ast.parse(path.read_bytes()))]
    assert not set(found) - allowed, "\n".join(map(str, found))


# ---------------------------------------------------------------------------
# integer-array arguments

COUNTS = [0, 1, 100]
REF = build_ref_vector(CI, 22)


def _computed(counters):
    """``csa2_channels_bulk`` computing the channels directly."""
    csa2_channels_bulk([0], CI + 1, PARAMS.channel_map)  # another connection asked last
    return csa2_channels_bulk(counters, CI, PARAMS.channel_map)


def _from_table(counters):
    """``csa2_channels_bulk`` answering from the connection's channel table."""
    for _ in range(2):  # the second request in a row builds the table
        csa2_channels_bulk([0], CI, PARAMS.channel_map)
    return csa2_channels_bulk(counters, CI, PARAMS.channel_map)


# every integer-array argument the package is passed: (name, call(values),
# valid values that every integer dtype holds where it can, out-of-range arrays)
ARRAY_SITES = [
    # a sequence that mixes bools with integers: np.asarray read True as 1
    ("counters", lambda v: prn_e_bulk(v, CI), COUNTS, [[True, 1, 100]]),
    ("counters", lambda v: csa2_unmapped_bulk(v, CI), COUNTS, []),
    ("counters", lambda v: csa2_remap_index(csa2_prn(v, CI), 28), COUNTS, []),
    ("counters", _computed, COUNTS, []),
    ("counters", _from_table, COUNTS, []),
    # a map size broadcasts: a scalar, or a column of sizes
    ("n_ch", lambda v: csa2_remap_index(csa2_prn(COUNTS, CI), v), [[2], [28], [37]],
     [1, 38, 40, [[2], [38], [37]]]),
    ("event_indices", lambda v: csa1_unmapped_bulk(v, 3, 7), COUNTS, []),
    # a ragged sequence raised NumPy's ValueError
    ("timestamps", lambda v: SniffTrace(22, v, [AA] * 3, [True] * 3), STAMPS,
     [np.array(STAMPS, dtype=np.uint64) + np.uint64(2**63), [[0], [12_500_000, 37_500_000]]]),
    ("access addresses", lambda v: SniffTrace(22, STAMPS, v, [True] * 3), [AA] * 3,
     [[-1, AA, AA], [AA, AA, 2**32]]),
    ("is_central", lambda v: SniffTrace(22, STAMPS, [AA] * 3, v), [1, 0, 1],
     [[2, 0, 1], [1, -1, 1]]),
    ("observation offsets", lambda v: classify_csa(v, IntervalEstimate(12_500_000, 12.5e6)),
     HIT_OFFSETS, []),
    ("observation offsets", lambda v: align_counter(v, REF), HIT_OFFSETS, []),
    ("observation offsets", lambda v: infer_channel_map(v, 0, CI, 22), HIT_OFFSETS, []),
    ("reference vector", lambda v: align_counter(HIT_OFFSETS, v), REF,
     [REF * 2, REF.astype(np.int64) - 1]),
    ("event_offset", lambda v: predict_event_time(SYNC3, np.asarray(v)), COUNTS, []),
    ("forecast counters", lambda v: Forecast(v, [22] * 3, STAMPS, [0] * 3), COUNTS,
     [np.array([0, 1, 2**63], dtype=np.uint64)]),
    ("forecast channels", lambda v: Forecast(COUNTS, v, STAMPS, [0] * 3), [22] * 3,
     [[99, 22, 22], [22, -1, 22], [22, 22, 37]]),
    ("counters", lambda v: csa2_prn(v, CI), COUNTS, []),
    ("prn", csa2_unmapped, COUNTS, [[0, 65536], [-1, 5]]),
    ("prn", lambda v: csa2_remap_index(v, 28), COUNTS, [[0, 65536], [-1, 5]]),
]
# the arguments whose range is 0..1, where a bool array is valid
TAKES_BOOLS = {"is_central", "reference vector"}
KINDS = {
    "float": lambda v: np.asarray(v) + 0.5,  # was truncated: 1.5 read as 1
    "bool": lambda v: np.asarray(v).astype(bool),  # was read as 0 and 1
    "str": lambda v: np.asarray(v).astype(str),  # was parsed, or a NumPy error
    "object": lambda v: np.asarray(v).astype(object),
}
ARRAY_CASES, ARRAY_CASE_IDS = [], []
for i, (name, call, valid, out_of_range) in enumerate(ARRAY_SITES):
    for kind, recast in KINDS.items():
        if not (kind == "bool" and name in TAKES_BOOLS):
            ARRAY_CASES.append((name, call, recast(valid)))
            ARRAY_CASE_IDS.append(f"{name}-{i}-{kind}")
    for k, values in enumerate(out_of_range):
        ARRAY_CASES.append((name, call, values))
        ARRAY_CASE_IDS.append(f"{name}-{i}-range{k}")


@pytest.mark.parametrize("name, call, values", ARRAY_CASES, ids=ARRAY_CASE_IDS)
def test_every_integer_array_argument_refuses_what_is_not_integers_in_range(name, call, values):
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be integers"):
        call(values)


def _outcome(call, values):
    """A site's result, or its error, in a form that ``==`` compares."""
    try:
        result = call(values)
    except EstimationError as exc:  # a stage may find too little in the offsets
        return type(exc), str(exc)
    if isinstance(result, Forecast):
        return result.to_json(), [col.dtype for col in result.columns()]
    if isinstance(result, SniffTrace):
        columns = (result.timestamps(), result.access_addresses, result.is_central)
        return [(col.dtype, col.tolist()) for col in columns]
    return [_value(part) for part in result] if isinstance(result, tuple) else _value(result)


@pytest.mark.parametrize("name, call, valid, out_of_range", ARRAY_SITES,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(ARRAY_SITES)])
def test_every_integer_array_argument_takes_any_integer_dtype(name, call, valid, out_of_range):
    want = _outcome(call, np.asarray(valid, dtype=np.int64))
    assert _outcome(call, valid) == want  # a list too
    for dtype in INT_DTYPES:
        info = np.iinfo(dtype)
        if info.min <= np.min(valid) and np.max(valid) <= info.max:
            assert _outcome(call, np.asarray(valid, dtype=dtype)) == want, dtype


def test_check_ints_casts_without_a_copy_where_it_can():
    counters = np.arange(5)
    assert check_ints(counters, "counters") is counters
    ref = REF.astype(bool)
    assert check_ints(ref, "reference vector", 0, 1, dtype=None) is ref
    # without a range the cast wraps mod 2**64, as a counter or an offset does
    high = np.array([2**64 - 1, 2**63], dtype=np.uint64)
    assert check_ints(high, "offsets").tolist() == [-1, -2**63]
    with pytest.raises(ConfigError, match=r"^offsets must be integers in 0\.\.2, "
                                          r"got 9223372036854775808\.\.18446744073709551615$"):
        check_ints(high, "offsets", 0, 2)
    # a scalar's range is its value: the same 0-d int64 array, without reductions
    for scalar in (28, np.uint8(28), np.array(28)):
        got = check_ints(scalar, "n_ch", 2, 37)
        assert (got.shape, got.dtype, int(got)) == ((), np.int64, 28)
    with pytest.raises(ConfigError, match=r"^n_ch must be integers in 2\.\.37, got 40\.\.40$"):
        check_ints(np.int16(40), "n_ch", 2, 37)
    # an empty array of any dtype is empty integers
    for empty in ([], np.array([], dtype=str), np.zeros(0, dtype=object)):
        got = check_ints(empty, "x", 0, 1, np.uint32)
        assert got.dtype == np.uint32 and got.size == 0


def _is_np(node, *attrs):
    return (isinstance(node, ast.Attribute) and node.attr in attrs
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def _integer_dtype_tests(node, params=frozenset(), function=None):
    """(function, source) of each ``np.asarray`` or ``np.array`` of a parameter
    of the function around it to an integer dtype, each ``np.issubdtype`` and
    each ``.dtype.kind`` in ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        function = getattr(node, "name", function)
        params = frozenset(a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                           *node.args.kwonlyargs))
    found = []
    if isinstance(node, ast.Call) and _is_np(node.func, "asarray", "array") and node.args:
        dtype = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
        if (isinstance(node.args[0], ast.Name) and node.args[0].id in params
                and dtype and "int" in ast.unparse(dtype[0])):
            found.append((function, ast.unparse(node)))
    elif ((isinstance(node, ast.Call) and _is_np(node.func, "issubdtype"))
          or (isinstance(node, ast.Attribute) and node.attr == "kind"
              and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype")):
        found.append((function, ast.unparse(node)))
    for child in ast.iter_child_nodes(node):
        found += _integer_dtype_tests(child, params, function)
    return found


def test_src_tests_integer_arrays_only_through_check_ints():
    # the one exception reads whether rounding kept a time an integer; it
    # refuses nothing
    allowed = {("predict.py", "_at_origin", "rounded.dtype.kind")}
    found = [(path.name, *hit) for path in sorted((ROOT / "src" / "blehop").glob("*.py"))
             if path.name != "errors.py"
             for hit in _integer_dtype_tests(ast.parse(path.read_bytes()))]
    assert not set(found) - allowed, "\n".join(map(str, found))


def test_src_reads_the_csa2_prn_only_through_csa():
    # the unmapped and remap rules are applied, in csa.py, to one PRN pass
    # (csa2_prn); another module that took prn_e_bulk's PRN would have to
    # write them again
    found = [(path.name, node.lineno) for path in sorted((ROOT / "src" / "blehop").glob("*.py"))
             if path.name != "csa.py"
             for node in ast.walk(ast.parse(path.read_bytes()))
             if isinstance(node, ast.Call) and "prn_e_bulk" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None))]
    assert not found, found
