"""Unit tests for the observation model and trace file I/O."""

import gc
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blehop import (
    ConfigError,
    SniffTrace,
    TraceParseError,
    connections,
    load_trace,
    save_trace,
)
from blehop import trace as trace_module
from blehop.trace import CSV_FIELDS


def make_trace(sniff=22):
    return SniffTrace(
        sniff,
        [1_000_000, 2_500_000, 9_750_000],
        [0xB0A1CD9D, 0x53D39A21, 0xB0A1CD9D],
        [True, False, True],
    )


def columns(trace):
    return (trace.timestamps().tolist(), trace.access_addresses.tolist(),
            trace.is_central.tolist())


# ---------------------------------------------------------------------------
# data model


def test_trace_validates_channel_consistency():
    with pytest.raises(ConfigError):
        SniffTrace(40, [], [], [])
    with pytest.raises(ConfigError):
        SniffTrace(None, [0], [0x1], [True])


def test_trace_validates_time_order():
    assert len(SniffTrace(5, [10, 10], [0x1, 0x1], [True, True])) == 2  # ties allowed
    with pytest.raises(ConfigError):
        SniffTrace(5, [20, 10], [0x1, 0x1], [True, True])


def test_trace_validates_columns():
    with pytest.raises(ConfigError):
        SniffTrace(5, [10, 20], [0x1], [True, True])
    with pytest.raises(ConfigError):
        SniffTrace(5, [[10]], [[0x1]], [[True]])
    with pytest.raises(ConfigError):
        SniffTrace(5, [10], [2**32], [True])
    with pytest.raises(ConfigError):
        SniffTrace(5, [10], [-1], [True])
    # a column that would be truncated or wrapped is refused by name
    for timestamps, addresses, column in [
        ([0, 10], [1.5, 2.9], "access addresses"),  # not [1, 2]
        ([0.7, 10.2], [1, 2], "timestamps"),  # not [0, 10]
        (np.array([2**63], dtype=np.uint64), [1], "timestamps"),  # not negative
        ([0, 10], ["0x1", "0x2"], "access addresses"),  # not NumPy's UFuncTypeError
        ([0, 10], [True, True], "access addresses"),
    ]:
        with pytest.raises(ConfigError, match=column):
            SniffTrace(5, timestamps, addresses, [True] * len(addresses))
    # empty columns of any dtype pass
    assert len(SniffTrace(None, [], [], np.array([], dtype=str))) == 0
    empty = SniffTrace(None, np.array([], dtype=float), np.array([], dtype=str), [])
    assert empty.timestamps().dtype == np.int64 and empty.access_addresses.dtype == np.uint32


def test_trace_refuses_a_direction_column_that_is_not_bools_or_0_and_1():
    for flags in (["false", "true"], [2, 0], [0.5, 0.0], [None, 1], [1.0, 0.0], [-1, 1]):
        with pytest.raises(ConfigError, match="is_central"):
            SniffTrace(22, [0, 1], [1, 1], flags)
    for flags in ([False, True], [0, 1], np.array([0, 1], dtype=np.uint8)):
        assert SniffTrace(22, [0, 1], [1, 1], flags).is_central.tolist() == [False, True]


def test_timestamps_array():
    trace = make_trace()
    ts = trace.timestamps()
    assert ts.tolist() == [1_000_000, 2_500_000, 9_750_000]
    assert ts.dtype.name == "int64"
    assert trace.timestamps() is ts
    assert SniffTrace(None, [], [], []).timestamps().size == 0


def test_observations_are_a_row_view():
    rows = make_trace().observations
    assert [(o.timestamp_ns, o.access_address, o.channel, o.is_central) for o in rows] == [
        (1_000_000, 0xB0A1CD9D, 22, True),
        (2_500_000, 0x53D39A21, 22, False),
        (9_750_000, 0xB0A1CD9D, 22, True),
    ]


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_round_trip_through_file(tmp_path, fmt):
    trace = make_trace()
    path = tmp_path / f"trace.{fmt}"
    save_trace(trace, path, fmt)
    loaded = load_trace(path, fmt)
    assert loaded.sniff_channel == trace.sniff_channel
    assert columns(loaded) == columns(trace)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_round_trip_through_stream(fmt):
    trace = make_trace()
    buffer = io.StringIO()
    save_trace(trace, buffer, fmt)
    buffer.seek(0)
    loaded = load_trace(buffer, fmt)
    assert columns(loaded) == columns(trace)


def test_byte_streams_are_left_open():
    trace = make_trace()
    written = io.BytesIO()
    save_trace(trace, written)
    gc.collect()
    assert not written.closed
    expected = io.StringIO()
    save_trace(trace, expected)
    assert written.getvalue() == expected.getvalue().encode()
    source = io.BytesIO(written.getvalue())
    loaded = load_trace(source)
    gc.collect()
    assert not source.closed
    assert columns(loaded) == columns(trace)


def test_csv_format_is_stable():
    buffer = io.StringIO()
    save_trace(make_trace(), buffer, "csv")
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "timestamp_ns,access_address_hex,channel,is_central"
    assert lines[1] == "1000000,0xB0A1CD9D,22,true"
    assert lines[2] == "2500000,0x53D39A21,22,false"


def written_row_by_row(trace, fmt):
    """The bytes of ``trace`` as save_trace once wrote them, one row at a
    time: a ``%`` template per CSV row, ``json.dumps`` per JSONL record."""
    ch = trace.sniff_channel
    if fmt == "csv":
        row = (f"%d,0x%08X,{ch},false\n", f"%d,0x%08X,{ch},true\n")
        text = ",".join(CSV_FIELDS) + "\n" + "".join(
            row[central] % (ts, aa) for ts, aa, central in zip(*columns(trace)))
    else:
        text = "".join(
            json.dumps(dict(zip(CSV_FIELDS, (ts, f"0x{aa:08X}", ch, central)))) + "\n"
            for ts, aa, central in zip(*columns(trace)))
    return text.encode()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("rows, sniff", [
    (0, None), (0, 36), (1, 0), (8191, 22), (8192, 36), (8193, 5),
])
def test_save_trace_equals_the_row_by_row_writer(tmp_path, fmt, rows, sniff):
    # around the formatter's 8192-row block, with the int64 timestamp limits,
    # the lowest and highest address and both flags at the ends
    rng = np.random.default_rng(rows)
    ts = np.sort(rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True))
    aa = rng.integers(0, 2**32, rows)
    central = rng.integers(0, 2, rows).astype(bool)
    if rows:
        ts[0], aa[0], central[0] = -(2**63), 0, True
        ts[-1], aa[-1], central[-1] = 2**63 - 1, 0xFFFFFFFF, False
    trace = SniffTrace(sniff, ts, aa, central)
    want = written_row_by_row(trace, fmt)
    path, text, data = tmp_path / f"trace.{fmt}", io.StringIO(), io.BytesIO()
    for dest in (path, text, data):
        save_trace(trace, dest, fmt)
    assert path.read_bytes() == want
    assert text.getvalue().encode() == want
    assert data.getvalue() == want


def test_load_sorts_by_timestamp():
    text = (
        "timestamp_ns,access_address_hex,channel,is_central\n"
        "900,0x00000002,7,true\n"
        "100,0x00000001,7,false\n"
    )
    loaded = load_trace(io.StringIO(text), "csv")
    assert loaded.timestamps().tolist() == [100, 900]
    assert loaded.access_addresses.tolist() == [1, 2]


def test_empty_file_yields_empty_trace():
    loaded = load_trace(io.StringIO("timestamp_ns,access_address_hex,channel,is_central\n"))
    assert len(loaded) == 0
    assert loaded.sniff_channel is None


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        load_trace(io.StringIO(""), "xml")
    with pytest.raises(ConfigError):
        save_trace(make_trace(), io.StringIO(), "xml")


# ---------------------------------------------------------------------------
# parse errors carry row numbers


def test_missing_header():
    with pytest.raises(TraceParseError) as err:
        load_trace(io.StringIO(""), "csv")
    assert err.value.row == 1


def test_wrong_header():
    with pytest.raises(TraceParseError) as err:
        load_trace(io.StringIO("a,b,c,d\n1,0x1,2,true\n"), "csv")
    assert err.value.row == 1


def test_bad_rows_report_their_line():
    header = "timestamp_ns,access_address_hex,channel,is_central\n"
    cases = [
        ("oops,0x00000001,7,true\n", "timestamp"),
        ("99999999999999999999,0x00000001,7,true\n", "int64"),
        ("100,zz,7,true\n", "access_address"),
        ("100,0x100000000,7,true\n", "32 bits"),
        ("100,0x00000001,99,true\n", "channel"),
        ("100,0x00000001,7,maybe\n", "is_central"),
        ("100,0x00000001,7\n", "columns"),
    ]
    for row, needle in cases:
        with pytest.raises(TraceParseError) as err:
            load_trace(io.StringIO(header + "100,0x00000001,7,true\n" + row), "csv")
        assert err.value.row == 3
        assert needle in str(err.value)


def test_jsonl_errors_report_their_line():
    good = '{"timestamp_ns": 1, "access_address_hex": "0x1", "channel": 7, "is_central": true}\n'
    with pytest.raises(TraceParseError) as err:
        load_trace(io.StringIO(good + "{broken\n"), "jsonl")
    assert err.value.row == 2
    with pytest.raises(TraceParseError) as err:
        load_trace(io.StringIO(good + '{"timestamp_ns": 2}\n'), "jsonl")
    assert "missing fields" in str(err.value)
    with pytest.raises(TraceParseError):
        load_trace(io.StringIO("[1, 2]\n"), "jsonl")


def test_jsonl_skips_blank_lines_and_counts_them():
    good = '{"timestamp_ns": 1, "access_address_hex": "0x1", "channel": 7, "is_central": true}\n'
    assert len(load_trace(io.StringIO("\n" + good + " \t\n" + good), "jsonl")) == 2
    with pytest.raises(TraceParseError) as err:
        load_trace(io.StringIO(good + "\n  \n" + good + "{broken\n"), "jsonl")
    assert err.value.row == 5


@pytest.mark.parametrize("field, value", [
    ("timestamp_ns", 5.9), ("timestamp_ns", 5.0), ("timestamp_ns", True),
    ("channel", 7.9), ("channel", 7.0), ("channel", True),
    ("access_address_hex", 10), ("access_address_hex", None),
])
def test_jsonl_refuses_wrongly_typed_values(field, value):
    good = {"timestamp_ns": 1, "access_address_hex": "0x1", "channel": 7, "is_central": True}
    text = json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n"
    with pytest.raises(TraceParseError) as err:
        load_trace(io.StringIO(text), "jsonl")
    assert err.value.row == 2
    assert field in str(err.value)


def test_mixed_channels_rejected():
    text = (
        "timestamp_ns,access_address_hex,channel,is_central\n"
        "100,0x00000001,7,true\n"
        "200,0x00000001,8,true\n"
    )
    with pytest.raises(TraceParseError) as err:
        load_trace(io.StringIO(text), "csv")
    assert "mixed" in str(err.value)


def test_bool_parsing_accepts_numeric_forms():
    text = (
        "timestamp_ns,access_address_hex,channel,is_central\n"
        "100,0x00000001,7,1\n"
        "200,0x00000001,7,0\n"
        "300,0x00000001,7,TRUE\n"
    )
    loaded = load_trace(io.StringIO(text), "csv")
    assert loaded.is_central.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# grouping merged traces by connection


def test_connection_parts_partition_and_filter():
    sniff = 22
    trace = SniffTrace(
        sniff,
        [100, 200, 300, 400, 500],
        [0xC, 0xB, 0xC, 0xC, 0xA],
        # 300 is peripheral: dropped from its connection; 0xA is only peripheral: none left
        [True, True, False, True, False],
    )
    parts = list(connections(trace))
    assert [aa for aa, _ in parts] == [0xA, 0xB, 0xC]  # ascending, not first-packet order
    # each part holds all of its address's rows, peripheral ones included
    assert [p.timestamps().tolist() for _, p in parts] == [[500], [200], [100, 300, 400]]
    assert all(p.sniff_channel == sniff for _, p in parts)
    # a part's connection is its address and its central packets, even when there are none
    central = [p.connection() for _, p in parts]
    assert [(aa, p.timestamps().tolist()) for aa, p in central] == [
        (0xA, []), (0xB, [200]), (0xC, [100, 400])]
    assert all(p.sniff_channel == sniff for _, p in central)
    # an all-central trace is its own connection; a merged one has none
    assert parts[1][1].connection()[1] is parts[1][1]
    with pytest.raises(ConfigError, match="mixes access addresses"):
        trace.connection()
    empty = SniffTrace(None, [], [], [])
    assert list(connections(empty)) == []
    assert empty.connection() == (None, empty)


# ---------------------------------------------------------------------------
# properties of the columnar trace

property_settings = settings(max_examples=150)
# few distinct timestamps give ties; the extremes of both ranges are drawn often
timestamps = st.one_of(st.integers(0, 20), st.integers(-(2**63), 2**63 - 1))
addresses = st.one_of(st.sampled_from([0, 0xFFFFFFFF]), st.integers(0, 0xFFFFFFFF))


@st.composite
def traces(draw, addresses=addresses, max_size=30):
    rows = draw(st.lists(st.tuples(timestamps, addresses, st.booleans()), max_size=max_size))
    rows.sort(key=lambda row: row[0])  # stable: tied rows keep their drawn order
    ts, aa, central = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    return SniffTrace(draw(st.integers(0, 36)), ts, aa, central)


@property_settings
@given(trace=traces(), fmt=st.sampled_from(["csv", "jsonl"]))
def test_save_load_round_trip_keeps_columns(trace, fmt):
    buffer = io.StringIO()
    save_trace(trace, buffer, fmt)
    buffer.seek(0)
    loaded = load_trace(buffer, fmt)
    assert columns(loaded) == columns(trace)
    assert loaded.sniff_channel == (trace.sniff_channel if len(trace) else None)


# a few addresses, so that groups hold many rows: the extremes, and pairs
# that share their high or their low 16 bits
pooled_addresses = st.sampled_from([0, 0xFFFFFFFF, 0x0000FFFF, 0xFFFF0000,
                                    0x1234ABCD, 0x1234DCBA, 0x5678ABCD])


@property_settings
@given(trace=st.one_of(traces(), traces(pooled_addresses, max_size=200)))
@example(trace=SniffTrace(None, [], [], []))
@example(trace=SniffTrace(3, [5, 5, 5, 7, 7], [0xFFFFFFFF, 0, 0xFFFFFFFF, 0, 0x1234ABCD],
                          [True, False, True, False, False]))
def test_connections_equal_a_stable_argsort(trace):
    table = list(zip(*columns(trace)))
    addresses, grouped = [], []
    for address, part in connections(trace):
        rows = list(zip(*columns(part)))
        assert rows and all(row[1] == address for row in rows)
        assert part.sniff_channel == trace.sniff_channel
        addresses.append(address)
        grouped += rows
        # an address with only peripheral packets keeps its address, with no packets
        aa, central = part.connection()
        assert aa == address and central.sniff_channel == trace.sniff_channel
        assert list(zip(*columns(central))) == [row for row in rows if row[2]]
    assert addresses == sorted(set(trace.access_addresses.tolist()))
    order = np.argsort(trace.access_addresses, kind="stable").tolist()
    assert grouped == [table[r] for r in order]


@property_settings
@given(trace=traces())
def test_columns_are_read_only(trace):
    for column in (trace.timestamps(), trace.access_addresses, trace.is_central):
        with pytest.raises(ValueError):
            column[...] = 0


def test_trace_copies_its_columns():
    ts = np.array([1, 2], dtype=np.int64)
    trace = SniffTrace(5, ts, [1, 2], [True, False])
    ts[0] = 0
    assert trace.timestamps().tolist() == [1, 2]


# ---------------------------------------------------------------------------
# the bulk CSV reader against the row parser

CSV_HEADER = "timestamp_ns,access_address_hex,channel,is_central\n"


def csv_fields(ts, aa, channel, central):
    return [str(ts), f"0x{aa:08X}", str(channel), "true" if central else "false"]


# Each rewrites the fields of one row as save_trace writes it. Some results
# are still valid for the row parser (with equal or other values), some not.
ANOMALIES = {
    "quotes": lambda f: [f'"{x}"' for x in f],
    "carriage_return": lambda f: [*f[:3], f[3] + "\r"],
    "space": lambda f: [f[0] + " ", *f[1:]],
    "blank_lines": lambda f: ["\n\n" + f[0], *f[1:]],
    "nul_byte": lambda f: [f[0] + "\0", *f[1:]],
    "nul_in_flag": lambda f: [*f[:3], f[3] + "\0"],
    "nul_in_address": lambda f: [f[0], f[1] + "\0", *f[2:]],
    # int() refuses "\x1c".."\x1f" around an integer, which str.split() would strip
    "separator_control": lambda f: ["\x1c" + f[0], *f[1:]],
    # some number parsers read U+01FE as a digit worth 462; int() refuses it
    "non_ascii_letter": lambda f: [f[0] + "Ǿ", *f[1:]],
    "fullwidth_digit": lambda f: [f[0] + "５", *f[1:]],
    "float_timestamp": lambda f: ["5.0", *f[1:]],
    "exponent_timestamp": lambda f: ["1e3", *f[1:]],
    "underscore_timestamp": lambda f: ["1_000", *f[1:]],
    "lowercase_hex": lambda f: [f[0], f[1].lower(), *f[2:]],
    "odd_width_hex": lambda f: [f[0], f"0x{int(f[1], 16):X}", *f[2:]],
    "wide_hex": lambda f: [f[0], "0x0" + f[1][2:], *f[2:]],
    "numeric_flag": lambda f: [*f[:3], "1" if f[3] == "true" else "0"],
    "bad_flag": lambda f: [*f[:3], "maybe"],
    "int64_overflow": lambda f: [str(2**63 + 5), *f[1:]],
    "int64_underflow": lambda f: [str(-(2**63) - 1), *f[1:]],
    "leading_zeros": lambda f: ["0" * 20 + f[0], *f[1:]],
    "bare_sign": lambda f: ["-", *f[1:]],
    "plus_sign": lambda f: ["+" + f[0], *f[1:]],
    "other_channel": lambda f: [*f[:2], str((int(f[2]) + 1) % 37), f[3]],
    "padded_channel": lambda f: [*f[:2], "0" + f[2], f[3]],
    "channel_out_of_range": lambda f: [*f[:2], "37", f[3]],
    "missing_column": lambda f: f[:3],
    "extra_column": lambda f: [*f, ""],
}
HEADERS = [CSV_HEADER, CSV_HEADER.replace("\n", "\r\n"), " " + CSV_HEADER,
           '"timestamp_ns",access_address_hex,channel,is_central\n', "a,b,c,d\n", ""]


@st.composite
def csv_texts(draw):
    """(CSV text, whether save_trace could have written it): rows in any
    order, with ties and the extreme addresses, and at most one kind of
    anomaly, in one to three rows."""
    channel = draw(st.integers(0, 36))
    rows = draw(st.lists(st.tuples(timestamps, addresses, st.booleans()), max_size=40))
    fields = [csv_fields(ts, aa, channel, central) for ts, aa, central in rows]
    anomaly = draw(st.sampled_from([None, *ANOMALIES])) if rows else None
    if anomaly:
        for row in draw(st.sets(st.integers(0, len(rows) - 1), min_size=1, max_size=3)):
            fields[row] = ANOMALIES[anomaly](fields[row])
    header = draw(st.sampled_from([CSV_HEADER] * len(HEADERS) + HEADERS))
    text = header + "".join(",".join(f) + "\n" for f in fields)
    if rows and draw(st.booleans()):
        text = text[:-1]  # no newline after the last row
    return text, header == CSV_HEADER and not anomaly


class UnseekableText(io.StringIO):
    def seekable(self):
        return False


def load_outcome(stream):
    try:
        trace = load_trace(stream)
    except TraceParseError as exc:
        return exc.row, str(exc)
    return trace.sniff_channel, columns(trace)


@settings(max_examples=600)
@given(case=csv_texts(), chunk_hint=st.sampled_from([1, 64, 200, 1 << 18]))
# chunks of blank lines only
@example(case=(CSV_HEADER + "5,0x00000001,7,true\n\n\n6,0x00000001,7,true\n", False),
         chunk_hint=1)
@example(case=(CSV_HEADER + "5,0x00000001,7,true\n\n", False), chunk_hint=1)
# a second channel in a later chunk, and a prefix other than "0x"
@example(case=(CSV_HEADER + "5,0x00000001,7,true\n6,0x00000001,8,true\n", False),
         chunk_hint=1)
@example(case=(CSV_HEADER + "5,0y00000001,7,true\n", False), chunk_hint=1)
# the int64 limits (save_trace form) and one past each
@example(case=(CSV_HEADER + f"{2**63 - 1},0x00000001,7,true\n", True), chunk_hint=1 << 18)
@example(case=(CSV_HEADER + f"{-(2**63)},0x00000001,7,false\n", True), chunk_hint=1 << 18)
@example(case=(CSV_HEADER + f"{2**63},0x00000001,7,true\n", False), chunk_hint=1 << 18)
@example(case=(CSV_HEADER + f"{-(2**63) - 1},0x00000001,7,true\n", False), chunk_hint=1 << 18)
# 20 digits, which wrap in uint64 to 5
@example(case=(CSV_HEADER + f"{2**64 + 5},0x00000001,7,true\n", False), chunk_hint=1 << 18)
# integers int() reads that save_trace does not write, a lowercase address and
# a padded channel
@example(case=(CSV_HEADER + "-0,0x00000001,7,true\n007,0x00000001,7,true\n", False),
         chunk_hint=1 << 18)
@example(case=(CSV_HEADER + "5,0x0000abcd,7,true\n", False), chunk_hint=1 << 18)
@example(case=(CSV_HEADER + "5,0x00000001,07,true\n", False), chunk_hint=1 << 18)
# a line with 4 commas then one with 2: six commas in two lines
@example(case=(CSV_HEADER + "5,0x00000001,7,true,\n6,0x00000001,7\n", False),
         chunk_hint=1 << 18)
# a last line without its newline
@example(case=(CSV_HEADER + "5,0x00000001,7,true\n6,0x00000002,7,false", True),
         chunk_hint=1 << 18)
@example(case=(CSV_HEADER + "5,0x00000001,7,true\n6,0x00000002,7,false", True), chunk_hint=1)
def test_bulk_csv_reader_equals_the_row_parser(case, chunk_hint):
    text, canonical = case
    with mock.patch.object(trace_module, "_CHUNK_HINT", chunk_hint):
        # an unseekable stream is read row by row only
        assert load_outcome(io.StringIO(text)) == load_outcome(UnseekableText(text))
        if canonical:  # the form save_trace writes never needs the row parser
            assert trace_module._read_csv_bulk(io.StringIO(text)) is not None
