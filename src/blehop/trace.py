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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csa import NUM_DATA_CHANNELS, check_access_address
from .errors import ConfigError, TraceParseError

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
        if sniff_channel is not None and not 0 <= sniff_channel < NUM_DATA_CHANNELS:
            raise ConfigError(f"sniff_channel must be in 0..36, got {sniff_channel}")
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

    @property
    def observations(self):
        """The rows as :class:`Observation` values, built on each access."""
        rows = zip(self._timestamps.tolist(), self.access_addresses.tolist(),
                   self.is_central.tolist())
        return [Observation(ts, aa, self.sniff_channel, central) for ts, aa, central in rows]


def _parse_row(row, timestamp, address, channel, is_central):
    """One record's fields, parsed and checked: (timestamp, address, channel, is_central)."""
    try:
        ts = int(timestamp)
    except (ValueError, TypeError) as exc:
        raise TraceParseError(row, f"invalid timestamp_ns {timestamp!r}") from exc
    try:
        aa = int(str(address), 16)
    except (ValueError, TypeError) as exc:
        raise TraceParseError(row, f"invalid access_address_hex {address!r}") from exc
    try:
        check_access_address(aa)
    except ConfigError as exc:
        raise TraceParseError(row, str(exc)) from exc
    try:
        ch = int(channel)
    except (ValueError, TypeError) as exc:
        raise TraceParseError(row, f"invalid channel {channel!r}") from exc
    if not 0 <= ch < NUM_DATA_CHANNELS:
        raise TraceParseError(row, f"channel {ch} outside 0..36")
    if not isinstance(is_central, bool):
        norm = str(is_central).strip().lower()
        if norm not in ("true", "1", "false", "0"):
            raise TraceParseError(row, f"invalid is_central value {is_central!r}")
        is_central = norm in ("true", "1")
    return ts, aa, ch, is_central


def _open_text(source, mode="r"):
    if isinstance(source, (str, Path)):
        return open(source, mode, newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # byte stream: wrap without closing the caller's handle
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


def load_trace(source, fmt="csv"):
    """Read a trace from a path or stream; ``fmt`` is ``csv`` or ``jsonl``.

    Observations are sorted by timestamp on load (stably, so tied rows keep
    their file order). All rows must share one channel (a single-channel
    sniffer cannot produce a mixed trace); parse problems raise
    :class:`TraceParseError` with the offending row number.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown trace format {fmt!r}")
    timestamps, addresses, central = array("q"), array("I"), array("b")
    channels = set()
    handle, owned = _open_text(source)
    try:
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
    finally:
        if owned:
            handle.close()
    if len(channels) > 1:
        raise TraceParseError(0, f"mixed sniff channels in one trace: {sorted(channels)}")
    order = np.argsort(timestamps, kind="stable")
    columns = (np.asarray(column)[order] for column in (timestamps, addresses, central))
    return SniffTrace(channels.pop() if channels else None, *columns)


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
    rows = (
        (ts, f"0x{aa:08X}", trace.sniff_channel, central)
        for ts, aa, central in zip(trace.timestamps().tolist(),
                                   trace.access_addresses.tolist(), trace.is_central.tolist())
    )
    handle, owned = _open_text(dest, "w")
    try:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            writer.writerows((ts, aa, ch, "true" if c else "false") for ts, aa, ch, c in rows)
        else:
            handle.writelines(json.dumps(dict(zip(CSV_FIELDS, row))) + "\n" for row in rows)
    finally:
        if owned:
            handle.close()
        else:
            handle.flush()


def split_by_connection(trace):
    """Partition a trace by access address, keeping central packets only.

    Returns ``{access_address: SniffTrace}`` in order of each address's
    first packet. Every address present in the input appears in the
    result, even when all of its packets were peripheral-flagged (those
    yield empty per-connection traces). Order is preserved within each
    part and the parts' packets union back to the central packets of the
    input.
    """
    ts, aa = trace.timestamps(), trace.access_addresses
    addresses, first, group = np.unique(aa, return_index=True, return_inverse=True)
    # central rows grouped by address, in row order within each group
    central = np.flatnonzero(trace.is_central)
    central = central[np.argsort(group[central], kind="stable")]
    bounds = np.searchsorted(group[central], np.arange(addresses.size + 1))
    parts = {}
    for k in np.argsort(first):
        rows = central[bounds[k]:bounds[k + 1]]
        parts[int(addresses[k])] = SniffTrace(
            trace.sniff_channel, ts[rows], aa[rows], np.ones(rows.size, dtype=bool)
        )
    return parts
