#!/usr/bin/env python3
"""Simulating connections and the single-channel sniffer that watches them.

The simulator produces two things per scenario: the ground-truth event
timeline of every connection (event counter, channel, ideal-clock time)
and the sniffer's view — only the events that landed on the one sniffed
channel, with realistic impairments: Gaussian timestamp jitter, a clock
drift between the connection's and the sniffer's oscillators, and random
missed captures.

Run:  python3 demos/02_simulate_sniffer.py
"""

import io

import numpy as np

from blehop import (
    ChannelMap,
    ConnectionParams,
    ConnectionScenario,
    CsaVersion,
    ImpairmentModel,
    ScenarioConfig,
    connections,
    load_trace,
    save_trace,
    simulate,
)

scenario = ScenarioConfig(
    connections=(
        ConnectionScenario(
            ConnectionParams(CsaVersion.CSA2, 12500, ChannelMap.from_hex("0x1FFFFFFC00"),
                             access_address=0xB0A1CD9D),
            ImpairmentModel(duration_ns=60 * 10**9, jitter_sigma_ns=50_000.0,
                            clock_drift_ppm=20.0, miss_probability=0.1),
            initial_counter=60000,  # will wrap past 65535 during the run
        ),
        ConnectionScenario(
            ConnectionParams(CsaVersion.CSA1, 18750, ChannelMap.from_hex("0x1E00E00700"),
                             access_address=0x5A3C0007, hop_increment=9,
                             initial_channel=1),
            ImpairmentModel(duration_ns=60 * 10**9, jitter_sigma_ns=30_000.0,
                            clock_drift_ppm=-15.0, miss_probability=0.05),
        ),
    ),
    sniff_channel=22,
    rng_seed=2024,
)

timelines, trace = simulate(scenario)

print("ground truth:")
for tl in timelines:
    wire = tl.wire_counters()
    on_sniff = int(np.sum(tl.channels == scenario.sniff_channel))
    print(f"  0x{tl.params.access_address:08X}: {len(tl)} events at "
          f"{tl.params.interval_us / 1000:.2f} ms, wire counter "
          f"{wire[0]}..{wire[-1]}, {on_sniff} events on channel "
          f"{scenario.sniff_channel}")

print(f"\nsniffer on channel {trace.sniff_channel} captured "
      f"{len(trace)} observations (both connections interleaved):")
for t, aa in zip(trace.timestamps()[:5].tolist(), trace.access_addresses[:5].tolist()):
    print(f"  t={t / 1e9:10.6f} s  aa=0x{aa:08X}")
print("  ...")

# Captures are fewer than ground-truth hits: miss_probability thins them.
for aa, part in connections(trace):
    print(f"  0x{aa:08X}: {len(part)} captured")

# Traces serialize to a stable CSV (or JSONL) format — the same files the
# command-line tools exchange.
buf = io.StringIO()
save_trace(trace, buf, fmt="csv")
text = buf.getvalue()
print(f"\nCSV round-trip: {len(text.splitlines()) - 1} rows, header + first row:")
print("  " + "\n  ".join(text.splitlines()[:2]))
again = load_trace(io.StringIO(text), fmt="csv")
assert again.sniff_channel == trace.sniff_channel
assert np.array_equal(again.timestamps(), trace.timestamps())
assert np.array_equal(again.access_addresses, trace.access_addresses)
assert np.array_equal(again.is_central, trace.is_central)
print("re-loaded trace is identical to the original.")
