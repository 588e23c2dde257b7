"""Sniffer trace data model and trace file I/O.

A single-channel sniffer parked on one data channel records, for every
captured link-layer packet, an integer-nanosecond timestamp, the 32-bit
access address, and whether the packet came from the central. A
:class:`SniffTrace` stores these as three columns next to the one channel
they were all captured on. Traces round-trip through CSV and JSONL; both
formats carry one observation per row/line with identical field names.

CSV columns: ``timestamp_ns,access_address_hex,channel,is_central`` with a
header row; access addresses are 0x-prefixed uppercase hex.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csa import NUM_DATA_CHANNELS, check_access_address
from .errors import ConfigError, TraceParseError, check_int

CSV_FIELDS = ("timestamp_ns", "access_address_hex", "channel", "is_central")


@dataclass(frozen=True)
class Observation:
    """One captured packet, timestamped by the sniffer clock: a row of a trace."""

    timestamp_ns: int
    access_address: int
    channel: int
    is_central: bool


class SniffTrace:
    """All packets captured on one sniffed channel, as three time-ordered columns.

    ``timestamps()`` (int64 ns, non-decreasing), ``access_addresses``
    (uint32) and ``is_central`` (bool) are read-only copies of the inputs.
    ``sniff_channel`` may be None only while the trace is empty (for
    example a header-only file).
    """

    __slots__ = ("sniff_channel", "_timestamps", "access_addresses", "is_central")

    def __init__(self, sniff_channel, timestamps, access_addresses, is_central):
        aa = np.asarray(access_addresses)
        if aa.size and not 0 <= aa.min() <= aa.max() <= 0xFFFFFFFF:
            raise ConfigError("access addresses must fit in 32 bits")
        columns = (np.array(timestamps, dtype=np.int64), aa.astype(np.uint32),
                   np.array(is_central, dtype=bool))
        if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
            raise ConfigError("trace columns must be 1-D and of equal length")
        if sniff_channel is not None:
            sniff_channel = check_int(sniff_channel, "sniff_channel", 0, NUM_DATA_CHANNELS - 1)
        ts = columns[0]
        if ts.size and sniff_channel is None:
            raise ConfigError("non-empty trace needs a sniff_channel")
        if np.any(ts[1:] < ts[:-1]):
            raise ConfigError("observations must be sorted by timestamp")
        for column in columns:
            column.flags.writeable = False
        self.sniff_channel = sniff_channel
        self._timestamps, self.access_addresses, self.is_central = columns

    def __len__(self):
        return self._timestamps.size

    def timestamps(self):
        """All observation timestamps as a read-only int64 array (ns)."""
        return self._timestamps

    def only_address(self):
        """The trace's one access address, or None if it is empty; a mix raises."""
        aa = self.access_addresses
        if aa.size and np.any(aa != aa[0]):
            raise ConfigError("trace mixes access addresses; split it by connection first")
        return int(aa[0]) if aa.size else None

    def central(self):
        """The central packets only; the trace itself when every packet is central."""
        keep = self.is_central
        if keep.all():
            return self
        return SniffTrace(self.sniff_channel, self._timestamps[keep], self.access_addresses[keep],
                          np.ones(np.count_nonzero(keep), dtype=bool))

    @property
    def observations(self):
        """The rows as :class:`Observation` values, built on each access."""
        rows = zip(self._timestamps.tolist(), self.access_addresses.tolist(),
                   self.is_central.tolist())
        return [Observation(ts, aa, self.sniff_channel, central) for ts, aa, central in rows]


def _parse_int(row, name, value):
    """An integer field from its text or a JSON integer (not a float or bool)."""
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (ValueError, TypeError):
            pass
    raise TraceParseError(row, f"invalid {name} {value!r}")


def _parse_row(row, timestamp, address, channel, is_central):
    """One record's fields, parsed and checked: (timestamp, address, channel, is_central)."""
    ts = _parse_int(row, "timestamp_ns", timestamp)
    try:
        aa = int(address, 16)  # a TypeError unless address is text
    except (ValueError, TypeError) as exc:
        raise TraceParseError(row, f"invalid access_address_hex {address!r}") from exc
    ch = _parse_int(row, "channel", channel)
    try:
        check_access_address(aa)
        check_int(ch, "channel", 0, NUM_DATA_CHANNELS - 1)
    except ConfigError as exc:
        raise TraceParseError(row, str(exc)) from exc
    if not isinstance(is_central, bool):
        norm = str(is_central).strip().lower()
        if norm not in ("true", "1", "false", "0"):
            raise TraceParseError(row, f"invalid is_central value {is_central!r}")
        is_central = norm in ("true", "1")
    return ts, aa, ch, is_central


@contextmanager
def _open_text(source, mode="r"):
    """A text handle on a path, closed after use, or on a caller's stream, flushed
    and left open (a byte stream's wrapper is detached, so it cannot close it)."""
    if isinstance(source, (str, Path)):
        with open(source, mode, newline="") as handle:
            yield handle
    elif isinstance(source, io.TextIOBase):
        try:
            yield source
        finally:
            source.flush()
    else:
        handle = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.detach()


def load_trace(source, fmt="csv"):
    """Read a trace from a path or stream; ``fmt`` is ``csv`` or ``jsonl``.

    Observations are sorted by timestamp on load (stably, so tied rows keep
    their file order). All rows must share one channel (a single-channel
    sniffer cannot produce a mixed trace); parse problems raise
    :class:`TraceParseError` with the offending row number.

    A seekable CSV source is first read in bulk, chunk by chunk, on the
    assumption that it is in the exact form :func:`save_trace` writes. On
    any departure from that form the whole source is read again row by
    row, so the values and every error are those of the row parser.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown trace format {fmt!r}")
    with _open_text(source) as handle:
        columns = None
        if fmt == "csv" and handle.seekable():
            start = handle.tell()
            columns = _read_csv_bulk(handle)
            if columns is None:
                handle.seek(start)
        if columns is None:
            columns = _read_rows(handle, fmt)
    channel, *columns = columns
    columns = [np.asarray(column) for column in columns]
    if np.any(columns[0][1:] < columns[0][:-1]):
        order = np.argsort(columns[0], kind="stable")
        columns = [column[order] for column in columns]
    return SniffTrace(channel, *columns)


def _read_rows(handle, fmt):
    """(channel, timestamps, addresses, central) parsed one row at a time."""
    timestamps, addresses, central = array("q"), array("I"), array("b")
    channels = set()
    records = _csv_records(handle) if fmt == "csv" else _jsonl_records(handle)
    for row, fields in records:
        ts, aa, channel, is_central = _parse_row(row, *fields)
        try:
            timestamps.append(ts)
        except OverflowError:
            raise TraceParseError(row, f"timestamp_ns {ts} outside the int64 range") from None
        addresses.append(aa)
        central.append(is_central)
        channels.add(channel)
    if len(channels) > 1:
        raise TraceParseError(0, f"mixed sniff channels in one trace: {sorted(channels)}")
    return (channels.pop() if channels else None), timestamps, addresses, central


_CHUNK_HINT = 1 << 18  # characters of text per bulk-parsed chunk of lines
_PAD = 24  # zero bytes on each side of a chunk, so every word read below is in range
_CHANNELS = {str(k): k for k in range(NUM_DATA_CHANNELS)}  # the canonical channel texts
# the byte value of two uppercase hex digits, keyed by their little-endian
# uint16; 256 where the key is not two such digits
_HEX_PAIRS = np.full(1 << 16, 256, dtype=np.uint16)
_HEX_DIGITS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8).astype(np.uint16)
_HEX_PAIRS[_HEX_DIGITS[:, None] | _HEX_DIGITS << np.uint16(8)] = np.arange(256).reshape(16, 16)
_FIRST = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # a word's first k bytes
_LAST = ~_FIRST[::-1]  # a word's last k bytes
_INT64_MAX = np.uint64(2**63 - 1)


def _word(text):
    """The first (up to 8) bytes of ASCII text as a little-endian word."""
    return np.uint64(int.from_bytes(text.encode("ascii"), "little"))


def _read_csv_bulk(handle):
    """(channel, timestamps, addresses, central) of CSV text written exactly
    as :func:`save_trace` writes it, or None at the first departure from
    that form (the handle is then left part-read)."""
    if handle.readline() != ",".join(CSV_FIELDS) + "\n":
        return None
    timestamps, addresses, central = array("q"), array("I"), array("b")
    channel = None
    while text := handle.read(_CHUNK_HINT):
        if not text.endswith("\n"):
            text += handle.readline()
        if channel is None:
            fields = text.partition("\n")[0].split(",")
            channel = _CHANNELS.get(fields[2]) if len(fields) == 4 else None
            if channel is None:
                return None
        columns = _match_chunk(text, str(channel))
        if columns is None:
            return None
        for column, values in zip((timestamps, addresses, central), columns):
            column.frombytes(values.view(np.uint8))
    return channel, timestamps, addresses, central


def _match_chunk(text, channel):
    """(timestamps, addresses, central) of whole lines each written exactly
    ``-?digits,0x<8 uppercase hex>,<channel>,true|false`` and ended by a
    newline (or by the end of the text), or None.

    Every byte of every line is checked: the line's end fixes where each
    field after the timestamp lies, and the timestamp fills the rest.
    """
    if not text.endswith("\n"):
        text += "\n"
    try:
        buf = np.frombuffer(bytes(_PAD) + text.encode("ascii") + bytes(_PAD), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.empty_like(ends)
    starts[0], starts[1:] = _PAD, ends[:-1] + 1
    # a line ends ",<channel>,true\n" or ",<channel>,false\n": the flag's
    # second-last letter tells which, and so where the commas before it lie
    is_central = buf[ends - 2] == ord("u")
    flag_at = ends - 6 + is_central
    channel_at = flag_at - 1 - len(channel)
    address_at = channel_at - 11
    negative = buf[starts] == ord("-")
    digits = address_at - starts - negative
    if digits.min() < 1 or digits.max() > 19:
        return None
    # the 8 bytes from every offset of the chunk, each read as one little-endian word
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))
    flags = np.where(is_central, _word(",true\n"), _word(",false"))
    if not (np.all(words[flag_at] & _FIRST[6] == flags)
            and np.all(words[channel_at] & _FIRST[1 + len(channel)] == _word("," + channel))
            and np.all(words[address_at] & _FIRST[3] == _word(",0x"))):
        return None
    address_bytes = _HEX_PAIRS.take(words[address_at + 3].view("<u2"))
    if address_bytes.max() > 255:
        return None
    addresses = address_bytes.astype(np.uint8).view(">u4").astype(np.uint32)
    values = np.zeros(ends.size, dtype=np.uint64)
    for k in range((int(digits.max()) + 7) // 8):  # 8 digits at a time, from the last
        parsed = _parse_digits(words[address_at - 8 * (k + 1)], np.clip(digits - 8 * k, 0, 8))
        if parsed is None:
            return None
        values += parsed * np.uint64(10 ** (8 * k))
    if np.any(values > _INT64_MAX + negative.astype(np.uint64)):
        return None
    timestamps = np.where(negative, np.uint64(0) - values, values).view(np.int64)
    return timestamps, addresses, is_central


def _parse_digits(words, count):
    """The values of the last ``count`` bytes of each word, read as decimal
    digits (the first byte most significant), or None if one is not a digit."""
    # "0".."9" XOR "0" is 0..9, and any other byte is above 9; bytes before the digits read 0
    words = (words ^ np.uint64(0x3030303030303030)) & _LAST[count]
    if np.any((words | (words + np.uint64(0x7676767676767676))) & np.uint64(0x8080808080808080)):
        return None
    # one digit per byte; merge them into pairs, fours and eights
    words = (words * np.uint64(10) + (words >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    words = (words * np.uint64(100) + (words >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    return (words * np.uint64(10000) + (words >> np.uint64(32))) & np.uint64(0xFFFFFFFF)


def _csv_records(handle):
    """(row number, the four field texts) for every non-blank CSV row."""
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceParseError(1, "missing CSV header") from None
    if [h.strip() for h in header] != list(CSV_FIELDS):
        raise TraceParseError(1, f"bad CSV header {header!r}, expected {','.join(CSV_FIELDS)}")
    for row_num, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(CSV_FIELDS):
            raise TraceParseError(row_num, f"expected {len(CSV_FIELDS)} columns, got {len(row)}")
        yield row_num, row


def _jsonl_records(handle):
    """(line number, the four field values) for every non-blank JSONL line."""
    for line_num, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(line_num, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise TraceParseError(line_num, "each line must be a JSON object")
        missing = [f for f in CSV_FIELDS if f not in record]
        if missing:
            raise TraceParseError(line_num, f"missing fields {missing}")
        yield line_num, [record[f] for f in CSV_FIELDS]


def save_trace(trace, dest, fmt="csv"):
    """Write a trace to a path or text stream in ``csv`` or ``jsonl`` form."""
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown trace format {fmt!r}")
    columns = (trace.timestamps().tolist(), trace.access_addresses.tolist(),
               trace.is_central.tolist())
    with _open_text(dest, "w") as handle:
        if fmt == "csv":
            row = (f"%d,0x%08X,{trace.sniff_channel},false\n",
                   f"%d,0x%08X,{trace.sniff_channel},true\n")
            handle.write(",".join(CSV_FIELDS) + "\n")
            handle.writelines(row[central] % (ts, aa) for ts, aa, central in zip(*columns))
        else:
            handle.writelines(
                json.dumps(dict(zip(CSV_FIELDS, (ts, f"0x{aa:08X}", trace.sniff_channel, c))))
                + "\n" for ts, aa, c in zip(*columns)
            )


def split_by_connection(trace):
    """Partition a trace by access address, keeping central packets only.

    Returns ``{access_address: SniffTrace}`` in order of each address's
    first packet. Every address present in the input appears in the
    result, even when all of its packets were peripheral-flagged (those
    yield empty per-connection traces). Order is preserved within each
    part and the parts' packets union back to the central packets of the
    input.
    """
    ts, aa, central = trace.timestamps(), trace.access_addresses, trace.is_central
    order = np.argsort(aa, kind="stable")  # rows grouped by address, in row order
    grouped = aa[order]
    first_of_group = np.ones(aa.size, dtype=bool)
    first_of_group[1:] = grouped[1:] != grouped[:-1]
    starts = np.flatnonzero(first_of_group)
    bounds = np.append(starts, aa.size)
    parts = {}
    # each group starts with its address's first row: order the groups by it
    for k in np.argsort(order[starts]):
        rows = order[bounds[k]:bounds[k + 1]]
        rows = rows[central[rows]]
        parts[int(grouped[starts[k]])] = SniffTrace(
            trace.sniff_channel, ts[rows], aa[rows], np.ones(rows.size, dtype=bool)
        )
    return parts
