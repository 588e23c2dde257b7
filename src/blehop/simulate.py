"""Ground-truth connection timelines and the sniffer's impaired view of them.

A scenario is a set of concurrent connections plus one sniffed channel.
For every connection the simulator lays out connection events at

    t_0 = start_offset,  t_n+1 = t_n + interval * (1 + (drift_ppm + walk_n) * 1e-6)

(walk_n is 0 unless the clock wanders), computes each event's channel
from the hop algorithm, and emits an observation whenever that channel
equals the sniffed channel, subject to a per-packet miss probability and
Gaussian timestamp jitter. The unimpaired event list is returned as the
ground-truth timeline; the merged, impaired observations form the sniffer
trace.

Simulation is pure given the scenario seed: each connection draws from a
child generator derived from (seed, access_address), so a connection's
observations do not depend on what else shares the scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csa import (
    COUNTER_PERIOD,
    NUM_DATA_CHANNELS,
    ConnectionParams,
    channel_sequence,
)
from .errors import ConfigError, check_int, check_number, reading
from .trace import SniffTrace

MAX_DRIFT_PPM = 500.0
# events simulated per connection: about 21 h at the 7.5 ms minimum interval,
# and several hundred MB of event arrays
MAX_EVENTS = 10**7
# scenario times are int64 nanoseconds
_MAX_NS = 2**63 - 1


@dataclass(frozen=True)
class ImpairmentModel:
    """Sniffer-side imperfections applied to one connection's events.

    ``duration_ns`` is how long the connection is simulated (from its start
    offset), an integer in 0..2**63 - 1. Jitter is the per-observation
    Gaussian timestamp error, drift the connection clock's frequency offset
    relative to the sniffer clock (a random walk from ``clock_drift_ppm``
    that spreads by ``drift_walk_ppm_per_sqrt_s`` ppm per √s; nothing is
    drawn for a walk of 0), and ``miss_probability`` the chance that a
    packet on the sniffed channel is not captured. These four are numbers,
    stored as floats: jitter in [0, inf) ns, drift in [-500, 500] ppm,
    ``miss_probability`` in [0, 1) and the walk in [0, inf).
    """

    duration_ns: int
    jitter_sigma_ns: float = 0.0
    clock_drift_ppm: float = 0.0
    miss_probability: float = 0.0
    drift_walk_ppm_per_sqrt_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "duration_ns",
                           check_int(self.duration_ns, "duration_ns", 0, _MAX_NS))
        for name, low, high, ends in (
                ("jitter_sigma_ns", 0, math.inf, "[)"),
                ("clock_drift_ppm", -MAX_DRIFT_PPM, MAX_DRIFT_PPM, "[]"),
                ("miss_probability", 0, 1, "[)"),
                ("drift_walk_ppm_per_sqrt_s", 0, math.inf, "[)")):
            object.__setattr__(self, name,
                               float(check_number(getattr(self, name), name, low, high, ends)))


@dataclass(frozen=True)
class ConnectionScenario:
    """One connection in a scenario; ``start_offset_ns`` and ``initial_counter`` are ints >= 0."""

    params: ConnectionParams
    impairments: ImpairmentModel
    start_offset_ns: int = 0
    initial_counter: int = 0

    def __post_init__(self):
        for name, high in (("start_offset_ns", _MAX_NS), ("initial_counter", COUNTER_PERIOD - 1)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 0, high))


@dataclass(frozen=True)
class ScenarioConfig:
    connections: tuple
    sniff_channel: int
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "connections", tuple(self.connections))
        check_int(self.sniff_channel, "sniff_channel", 0, NUM_DATA_CHANNELS - 1)
        check_int(self.rng_seed, "rng_seed", 0, 2**63 - 1)
        addresses = [c.params.access_address for c in self.connections]
        if len(addresses) != len(set(addresses)):
            raise ConfigError("connections must have distinct access addresses")

    @classmethod
    def from_dict(cls, raw):
        """Read the JSON form (times in microseconds)."""
        with reading("scenario"):
            connections = tuple(
                _connection_from_dict(entry) for entry in raw.get("connections", [])
            )
            return cls(
                connections=connections,
                sniff_channel=raw["sniff_channel"],
                rng_seed=raw["rng_seed"],
            )

    def to_dict(self):
        return {
            "sniff_channel": self.sniff_channel,
            "rng_seed": self.rng_seed,
            "connections": [_connection_to_dict(c) for c in self.connections],
        }


def _connection_from_dict(raw):
    imp = raw.get("impairments", {})
    impairments = ImpairmentModel(
        duration_ns=check_int(imp["duration_us"], "duration_us", 0, _MAX_NS // 1000) * 1000,
        jitter_sigma_ns=check_number(imp.get("jitter_sigma_us", 0.0), "jitter_sigma_us",
                                     0, math.inf, "[)") * 1000.0,
        **{key: imp.get(key, 0.0)
           for key in ("clock_drift_ppm", "miss_probability", "drift_walk_ppm_per_sqrt_s")},
    )
    return ConnectionScenario(
        params=ConnectionParams.from_dict(raw["params"]),
        impairments=impairments,
        start_offset_ns=check_int(raw.get("start_offset_us", 0), "start_offset_us",
                                  0, _MAX_NS // 1000) * 1000,
        initial_counter=raw.get("initial_counter", 0),
    )


def _connection_to_dict(conn):
    imp = conn.impairments
    return {
        "params": conn.params.to_dict(),
        "start_offset_us": conn.start_offset_ns // 1000,
        "initial_counter": conn.initial_counter,
        "impairments": {
            "duration_us": imp.duration_ns // 1000,
            "jitter_sigma_us": imp.jitter_sigma_ns / 1000.0,
            "clock_drift_ppm": imp.clock_drift_ppm,
            "miss_probability": imp.miss_probability,
            "drift_walk_ppm_per_sqrt_s": imp.drift_walk_ppm_per_sqrt_s,
        },
    }


@dataclass
class EventTimeline:
    """Ground truth for one connection: every event's counter, channel, time.

    ``counters`` is epoch-extended (strictly +1 per event, never wrapped);
    the on-air 16-bit counter is ``counters % 65536``.
    """

    params: ConnectionParams
    counters: np.ndarray
    channels: np.ndarray
    times_ns: np.ndarray

    def __len__(self):
        return len(self.counters)

    def wire_counters(self):
        return self.counters % COUNTER_PERIOD


def _simulate_connection(conn, sniff_channel, rng):
    params, imp = conn.params, conn.impairments
    scale = 1.0 + imp.clock_drift_ppm * 1e-6
    step_ns = params.interval_ns * scale
    count = int(np.floor(imp.duration_ns / step_ns)) + 1
    if count > MAX_EVENTS:
        raise ConfigError(f"duration_us spans {count} events of 0x{params.access_address:08X}; "
                          f"at most {MAX_EVENTS} are simulated per connection")
    offsets = np.arange(count) * step_ns
    if imp.drift_walk_ppm_per_sqrt_s > 0.0:
        # walk_n for n >= 1 (walk_0 is 0)
        walk_ppm = np.cumsum(rng.normal(0.0, imp.drift_walk_ppm_per_sqrt_s
                                        * math.sqrt(step_ns / 1e9), count - 1))
        offsets[2:] += np.cumsum(walk_ppm[:-1]) * (params.interval_ns * 1e-6)
        if np.any(np.diff(offsets) <= 0):
            raise ConfigError(f"drift_walk_ppm_per_sqrt_s of 0x{params.access_address:08X} "
                              "runs its clock backwards")
    if conn.start_offset_ns + int(np.rint(offsets[-1])) >= 2**63:
        raise ConfigError(f"start_offset_us + duration_us of 0x{params.access_address:08X} "
                          "put its last event past the int64 ns timestamps")
    counters = conn.initial_counter + np.arange(count, dtype=np.int64)
    channels = channel_sequence(params, conn.initial_counter, count)
    times = conn.start_offset_ns + np.rint(offsets).astype(np.int64)
    timeline = EventTimeline(params, counters, channels, times)

    hit_idx = np.flatnonzero(channels == sniff_channel)
    if imp.miss_probability > 0.0:
        hit_idx = hit_idx[rng.random(hit_idx.size) >= imp.miss_probability]
    stamps = times[hit_idx]
    if imp.jitter_sigma_ns > 0.0 and stamps.size:
        jitter = np.rint(rng.normal(0.0, imp.jitter_sigma_ns, hit_idx.size))
        # stamps are >= 0 before jitter: these two bound every jittered one
        if jitter.min() < -2**63 or int(stamps[-1]) + int(jitter.max()) >= 2**63:
            raise ConfigError(f"jitter_sigma_us of 0x{params.access_address:08X} puts "
                              "timestamps outside int64 ns")
        stamps = stamps + jitter.astype(np.int64)
    return timeline, stamps


def simulate(config):
    """Run a scenario; returns (timelines, merged SniffTrace).

    Timelines are returned in the scenario's connection order and carry
    the exact event grid; the trace contains only the captured, impaired
    observations on the sniffed channel, merged and sorted by (timestamp,
    access address).
    """
    timelines, stamps = [], []
    for conn in config.connections:
        rng = np.random.default_rng([config.rng_seed, conn.params.access_address])
        timeline, conn_stamps = _simulate_connection(conn, config.sniff_channel, rng)
        timelines.append(timeline)
        stamps.append(conn_stamps)
    addresses = np.repeat([c.params.access_address for c in config.connections],
                          [s.size for s in stamps])
    times = np.concatenate([np.empty(0, dtype=np.int64), *stamps])
    order = np.lexsort((addresses, times))
    trace = SniffTrace(
        config.sniff_channel, times[order], addresses[order], np.ones(order.size, dtype=bool)
    )
    return timelines, trace


def expected_reconstruction_budget(n_ch):
    """Expected connection events until every excluded channel has been seen
    remapped onto the sniffed channel at least once.

    Each event remaps with probability (37 - n_ch)/37, the remapped-from
    channel is uniform over the excluded set, and the remap target is
    uniform over the map: collecting all 37 - n_ch excluded channels on one
    target is a coupon-collector problem. Defined as 0 for a full map. This
    mean is what acceptance criterion 07 checks; no estimator reads it.
    """
    check_int(n_ch, "n_ch", 2, NUM_DATA_CHANNELS)
    if n_ch == NUM_DATA_CHANNELS:
        return 0
    missing = NUM_DATA_CHANNELS - n_ch
    harmonic = sum(1.0 / i for i in range(1, missing + 1))
    p_remap = missing / NUM_DATA_CHANNELS
    return round(n_ch * missing * harmonic / p_remap)
