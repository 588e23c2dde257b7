"""Bit-exact BLE channel selection algorithms #1 and #2.

A BLE connection hops to a new data channel (0..36) on every connection
event. Both selection algorithms first produce an *unmapped* channel and,
when that channel is not in the connection's allowed channel map, remap it
into the map:

* CSA#1 advances the previous unmapped channel by a fixed hop increment
  modulo 37, so the unmapped sequence repeats every 37 events. Remapping
  indexes the ascending list of allowed channels with ``unmapped mod n_ch``,
  which sends a given excluded channel to the *same* allowed channel every
  time.
* CSA#2 derives a 16-bit pseudo-random number for each value of the
  connection event counter, seeded by the channel identifier (a fold of the
  access address). The unmapped channel is that number mod 37; remapping
  indexes the allowed list with ``floor(n_ch * prn / 2**16)``, so an
  excluded channel lands on varying allowed channels over time.

Each rule is written once, as a NumPy function over counters or event
indices, and every other module calls these functions. The PRN runs in
uint16, whose arithmetic wraps mod 2**16 by itself; every PRN stage is a
16-bit bijection, so the PRN can also be run backwards, from the values
whose unmapped channel is a given one to the counters that produce them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, check_int, check_ints, reading

NUM_DATA_CHANNELS = 37
COUNTER_PERIOD = 65536  # the connection event counter is 16 bits wide

INTERVAL_STEP_US = 1250
INTERVAL_MIN_US = 7_500
INTERVAL_MAX_US = 4_000_000

HOP_INCREMENT_MIN = 5
HOP_INCREMENT_MAX = 16

# Map hex form: bit i set means channel i allowed; bits 37..39 must be zero.
_MAP_BITS = 40
_MAP_RESERVED_MASK = 0b111 << NUM_DATA_CHANNELS

# The 16-bit permutation stage as a lookup table: reversing the bits of each
# byte in place moves bit i of a 16-bit word to bit i ^ 7.
_PERM16 = sum(
    ((np.arange(COUNTER_PERIOD, dtype=np.uint32) >> i) & 1) << (i ^ 7) for i in range(16)
)


class CsaVersion(enum.Enum):
    CSA1 = 1
    CSA2 = 2


def check_access_address(value):
    """Validate a 32-bit access address and return it as an int."""
    return check_int(value, "access address (32 bits)", 0, 0xFFFFFFFF)


def check_interval_us(value):
    """Validate a connection interval in microseconds, an integer multiple of
    1250 in 7500..4000000, and return it as an int."""
    value = check_int(value, "interval_us", INTERVAL_MIN_US, INTERVAL_MAX_US)
    if value % INTERVAL_STEP_US:
        raise ConfigError(f"interval_us must be a multiple of {INTERVAL_STEP_US}, got {value}")
    return value


@dataclass(frozen=True)
class ChannelMap:
    """The set of data channels a connection is allowed to use."""

    allowed: frozenset

    def __post_init__(self):
        channels = frozenset(check_int(c, "channel", 0, NUM_DATA_CHANNELS - 1)
                             for c in self.allowed)
        object.__setattr__(self, "allowed", channels)
        if len(channels) < 2:
            raise ConfigError(
                f"channel map must allow at least 2 channels, got {len(channels)}"
            )

    @classmethod
    def from_channels(cls, channels):
        return cls(frozenset(channels))

    @classmethod
    def full(cls):
        return cls(frozenset(range(NUM_DATA_CHANNELS)))

    @classmethod
    def from_hex(cls, text):
        """Parse the 40-bit hex form, e.g. ``0x1FFFFFFC00``; only a string is
        accepted (a JSON integer would be read as hex digits)."""
        if not isinstance(text, str):
            raise ConfigError(f"channel map must be a hex string, got {text!r}")
        try:
            value = int(text, 16)
        except ValueError as exc:
            raise ConfigError(f"invalid channel map hex {text!r}") from exc
        if value < 0 or value >> _MAP_BITS:
            raise ConfigError(f"channel map {text!r} does not fit in 40 bits")
        if value & _MAP_RESERVED_MASK:
            raise ConfigError(
                f"channel map {text!r} sets reserved bits 37..39 (advertising channels)"
            )
        return cls(frozenset(i for i in range(NUM_DATA_CHANNELS) if value >> i & 1))

    def to_hex(self):
        value = 0
        for ch in self.allowed:
            value |= 1 << ch
        return f"0x{value:010X}"

    @cached_property
    def ordered(self):
        """Allowed channels in ascending order; the remap lookup table."""
        return tuple(sorted(self.allowed))

    @property
    def n_ch(self):
        return len(self.allowed)

    def __contains__(self, channel):
        return channel in self.allowed

    def __iter__(self):
        return iter(self.ordered)

    # cached numpy views used by the vectorized paths
    @cached_property
    def ordered_array(self):
        return np.array(self.ordered, dtype=np.int64)

    @cached_property
    def allowed_mask(self):
        mask = np.zeros(NUM_DATA_CHANNELS, dtype=bool)
        mask[list(self.allowed)] = True
        return mask

    @cached_property
    def remap_table(self):
        """The CSA#1 remap rule as a 37-entry lookup: unmapped -> output channel,
        identity inside the map, else ``ordered[unmapped mod n_ch]``."""
        unmapped = np.arange(NUM_DATA_CHANNELS)
        return np.where(self.allowed_mask, unmapped, self.ordered_array[unmapped % self.n_ch])


@dataclass(frozen=True)
class ConnectionParams:
    """Everything that determines a connection's hop sequence and timing.

    ``interval_us`` is the connection event spacing in microseconds and must
    be a multiple of 1250 in [7500, 4000000]. The access address is required
    for both algorithms (every link-layer packet carries it and traces are
    keyed by it); CSA#2 additionally derives its channel identifier from it.
    ``hop_increment`` (5..16) and ``initial_channel`` (the unmapped-channel
    seed preceding event 0) apply to CSA#1 only.
    """

    csa_version: CsaVersion
    interval_us: int
    channel_map: ChannelMap
    access_address: int
    hop_increment: int | None = None
    initial_channel: int | None = None

    def __post_init__(self):
        if not isinstance(self.csa_version, CsaVersion):
            raise ConfigError(f"csa_version must be a CsaVersion, got {self.csa_version!r}")
        check_interval_us(self.interval_us)
        if not isinstance(self.channel_map, ChannelMap):
            raise ConfigError("channel_map must be a ChannelMap")
        check_access_address(self.access_address)
        if self.csa_version is CsaVersion.CSA1:
            check_int(self.hop_increment, "hop_increment", HOP_INCREMENT_MIN, HOP_INCREMENT_MAX)
            check_int(self.initial_channel, "initial_channel", 0, NUM_DATA_CHANNELS - 1)
        else:
            if self.hop_increment is not None or self.initial_channel is not None:
                raise ConfigError("hop_increment/initial_channel are CSA#1-only parameters")

    @property
    def interval_ns(self):
        return self.interval_us * 1000

    @classmethod
    def from_dict(cls, raw):
        """Parse the JSON form used by scenario and params files."""
        with reading("params"):
            version = raw.get("csa_version")
            # exact types: true and 1.0 compare equal to 1
            if type(version) not in (int, str) or str(version) not in ("1", "2", "CSA1", "CSA2"):
                raise ConfigError(f"csa_version must be 1 or 2, got {version!r}")
            version = CsaVersion(int(str(version)[-1]))
            aa = raw.get("access_address")
            if isinstance(aa, str):
                aa = int(aa, 16)
            return cls(
                csa_version=version,
                interval_us=raw["interval_us"],  # as read: __post_init__ refuses a bool, float or str
                channel_map=ChannelMap.from_hex(raw["channel_map"]),
                access_address=aa,
                hop_increment=raw.get("hop_increment"),
                initial_channel=raw.get("initial_channel"),
            )

    def to_dict(self):
        out = {
            "csa_version": self.csa_version.value,
            "interval_us": self.interval_us,
            "channel_map": self.channel_map.to_hex(),
            "access_address": f"0x{self.access_address:08X}",
        }
        if self.csa_version is CsaVersion.CSA1:
            out["hop_increment"] = self.hop_increment
            out["initial_channel"] = self.initial_channel
        return out


def channel_identifier(access_address):
    """Fold a 32-bit access address into the 16-bit CSA#2 channel identifier."""
    aa = check_access_address(access_address)
    return (aa >> 16) ^ (aa & 0xFFFF)


# ---------------------------------------------------------------------------
# the channel-selection core


def perm16(x):
    """Reverse the bits of each byte of a 16-bit value, bytes kept in place."""
    return _PERM16[x]


def mam(x, ci):
    """Multiply-add-modulo stage: (17 * x + ci) mod 2**16."""
    return (17 * x + ci) & 0xFFFF


# One PRN round's perm16 and mam multiply fused into a single uint16 lookup:
# a round is _ROUND[x] + ci, and the uint16 add wraps mod 2**16.
_ROUND = mam(perm16(np.arange(COUNTER_PERIOD)), 0).astype(np.uint16)
# mam's multiplier undone: 17 * 61681 = 1 (mod 2**16)
_INV17 = np.uint16(61681)


def _prn16(counters, ci):
    # np.add, not +: on a 0-d input the operands are NumPy scalars, whose +
    # warns on the wrap that the rule relies on
    ci = np.uint16(check_int(ci, "ci", 0, COUNTER_PERIOD - 1))
    x = check_ints(counters, "counters").astype(np.uint16) ^ ci
    for _ in range(3):
        x = np.add(_ROUND[x], ci)
    return x ^ ci


def prn_e_bulk(counters, ci):
    """Per-event 16-bit pseudo-random number for each counter under ``ci``.

    Counters are taken mod 2**16. Composition, innermost first: xor with
    ci, then three rounds of (``perm16``, ``mam``), then a final xor with
    ci. Every stage is a 16-bit bijection, so for fixed ci the map
    k -> prn is a permutation of 0..65535. Returns uint32.
    """
    return _prn16(counters, ci).astype(np.uint32)


def csa2_counters_for_unmapped(channel, ci):
    """Counters whose CSA#2 unmapped channel is ``channel``, ascending (int64).

    The PRN run backwards from every value ``channel + 37 j`` below 2**16:
    xor with ci, then three times (subtract ci, multiply by the inverse of
    17, ``perm16``, which is its own inverse), then xor with ci.
    """
    channel = check_int(channel, "channel", 0, NUM_DATA_CHANNELS - 1)
    ci = np.uint16(check_int(ci, "ci", 0, COUNTER_PERIOD - 1))
    x = np.arange(channel, COUNTER_PERIOD, NUM_DATA_CHANNELS, dtype=np.uint16) ^ ci
    for _ in range(3):
        # the perm16 table is uint32; back to uint16 so the next round wraps
        x = perm16(np.multiply(np.subtract(x, ci), _INV17)).astype(np.uint16)
    return np.sort(x ^ ci).astype(np.int64)


def _csa2_unmapped(prn):
    return prn % NUM_DATA_CHANNELS


def _csa2_remap_index(prn, n_ch):
    # the prn scaled onto the ascending allowed list: an excluded channel's
    # traffic spreads over the whole map
    return (n_ch * prn) >> 16


def csa2_unmapped_bulk(counters, ci):
    """CSA#2 unmapped channel (prn mod 37) for each counter."""
    return _csa2_unmapped(_prn16(counters, ci).astype(np.int64))


def csa2_remap_index_bulk(counters, ci, n_ch):
    """CSA#2 remap index ``floor(n_ch * prn / 2**16)`` for each counter;
    ``n_ch`` (2..37) broadcasts, so a column of map sizes gives a row per size."""
    n_ch = check_ints(n_ch, "n_ch", 2, NUM_DATA_CHANNELS)
    return _csa2_remap_index(_prn16(counters, ci).astype(np.int64), n_ch)


def _csa2_channels(counters, ci, channel_map):
    p = _prn16(counters, ci).astype(np.int64)
    unmapped = _csa2_unmapped(p)
    remapped = channel_map.ordered_array[_csa2_remap_index(p, channel_map.n_ch)]
    return np.where(channel_map.allowed_mask[unmapped], unmapped, remapped)


def _csa2_channel_table(ci, channel_map):
    # a connection's whole channel sequence, one channel per 16-bit counter;
    # uint8 keeps it at 64 KB (as int64 it raised the benchmark's peak RSS by
    # about 2 MB, four times its own size)
    return _csa2_channels(np.arange(COUNTER_PERIOD), ci, channel_map).astype(np.uint8)


# the table index mask as an int64 scalar: a Python int operand is converted
# to a NumPy scalar on every call, and a uint16 index (a cast instead of the
# mask) is converted to intp by the lookup; both cost more
_COUNTER_MASK = np.int64(COUNTER_PERIOD - 1)

# (ci, channel map) of the last csa2_channels_bulk request, and that
# connection's channel table once it has been asked about twice in a row;
# one tuple, replaced whole, so a table is always read with its own key
_last = (None, None)


def csa2_channels_bulk(counters, ci, channel_map):
    """CSA#2 channel for each counter: unmapped if allowed, else remapped.

    The first request for a connection computes its channels directly. A
    second request in a row for the same ``(ci, channel_map)`` builds the
    connection's 65536-entry channel table, which then answers every
    request until one for another connection replaces it.
    """
    global _last
    key = (check_int(ci, "ci", 0, COUNTER_PERIOD - 1), channel_map)
    last_key, table = _last
    if key != last_key:
        _last = (key, None)
        return _csa2_channels(counters, *key)
    if table is None:
        table = _csa2_channel_table(*key)
        _last = (key, table)
    # a 0-d index gives a NumPy scalar; asarray makes it the 0-d array that the
    # direct computation returns (asarray with a dtype took twice as long)
    return np.asarray(table[check_ints(counters, "counters") & _COUNTER_MASK]).astype(np.int64)


def csa1_unmapped_bulk(event_indices, initial_channel, hop_increment):
    """CSA#1 unmapped channel ``(initial + (idx + 1) * hop) mod 37`` per event.

    The recursion advances the previous *unmapped* channel, never the
    remapped output, which is what gives the sequence its 37-event period.
    """
    initial_channel = check_int(initial_channel, "initial_channel", 0, NUM_DATA_CHANNELS - 1)
    hop_increment = check_int(hop_increment, "hop_increment", HOP_INCREMENT_MIN, HOP_INCREMENT_MAX)
    idx = check_ints(event_indices, "event_indices")
    return (initial_channel + (idx + 1) * hop_increment) % NUM_DATA_CHANNELS


def csa1_channels_bulk(event_indices, params):
    """CSA#1 channel for each event index, remapped by ``ChannelMap.remap_table``."""
    unmapped = csa1_unmapped_bulk(event_indices, params.initial_channel, params.hop_increment)
    return params.channel_map.remap_table[unmapped]


def channel_sequence(params, start_event, count):
    """Mapped channels for ``count`` events from ``start_event``, ints >= 0 summing below 2**63."""
    start_event = check_int(start_event, "start_event", 0, 2**63 - 1)
    count = check_int(count, "count", 0, 2**63 - 1 - start_event)
    idx = np.arange(start_event, start_event + count, dtype=np.int64)
    if params.csa_version is CsaVersion.CSA1:
        return csa1_channels_bulk(idx, params)
    ci = channel_identifier(params.access_address)
    return csa2_channels_bulk(idx, ci, params.channel_map)

