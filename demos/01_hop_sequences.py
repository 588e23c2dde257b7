#!/usr/bin/env python3
"""Hop-sequence generation for both BLE channel-selection algorithms.

A BLE connection changes its radio channel on every connection event.
Which channel comes next is decided by one of two algorithms: the legacy
incremental hop (CSA#1) or the PRN-driven hop (CSA#2). Both first pick an
*unmapped* channel out of all 37 data channels, then remap it into the
set of allowed channels if it happens to be excluded by the channel map.

Run:  python3 demos/01_hop_sequences.py
"""

import numpy as np

from blehop import (
    ChannelMap,
    ConnectionParams,
    CsaVersion,
    channel_identifier,
    channel_sequence,
    csa1_unmapped_bulk,
    csa2_unmapped_bulk,
)

# A channel map with the ten lowest data channels excluded (e.g. because
# they collide with busy Wi-Fi). Maps are plain channel sets with a
# canonical 37-bit hex form: bit i set <=> channel i allowed.
cmap = ChannelMap.from_hex("0x1FFFFFFC00")
print(f"channel map {cmap.to_hex()}: {cmap.n_ch} allowed, "
      f"excluded = {sorted(set(range(37)) - cmap.allowed)}")

# --- CSA#1: add a fixed hop increment modulo 37 ----------------------------
csa1 = ConnectionParams(
    CsaVersion.CSA1,
    interval_us=18750,
    channel_map=cmap,
    access_address=0x8E89BED6,
    hop_increment=7,
    initial_channel=3,
)
seq = channel_sequence(csa1, 0, 74)
print("\nCSA#1, hop increment 7, starting channel 3:")
print("  first 37 events:", seq[:37].tolist())
assert np.array_equal(seq[:37], seq[37:]), "CSA#1 repeats every 37 events"
print("  ... and events 37..73 are identical: the sequence has period 37.")

# The remap rule: an excluded unmapped channel u is replaced by the
# (u mod n_ch)-th allowed channel — a FIXED target per excluded source.
# The recursion always advances the *unmapped* channel, one hop per event.
unmapped = csa1_unmapped_bulk(np.arange(37), csa1.initial_channel, csa1.hop_increment).tolist()
remapped = {u: int(m) for u, m in zip(unmapped, seq[:37]) if u not in cmap}
print("  remapped events (unmapped -> on-air):", remapped)

# --- CSA#2: a 16-bit PRN seeded by the access address -----------------------
aa = 0xB0A1CD9D
ci = channel_identifier(aa)
print(f"\nCSA#2, access address 0x{aa:08X} -> channel identifier 0x{ci:04X}")
csa2 = ConnectionParams(CsaVersion.CSA2, 7500, cmap, aa)
seq2 = channel_sequence(csa2, 0, 12)
print("  channels for event counters 0..11:", seq2.tolist())

# CSA#2 remaps through the PRN as well, so one excluded source channel
# lands on MANY different targets over time — unlike CSA#1.
all_channels = channel_sequence(csa2, 0, 3000).tolist()
targets = {}
for u, channel in zip(csa2_unmapped_bulk(np.arange(3000), ci).tolist(), all_channels):
    if u not in cmap:
        targets.setdefault(u, set()).add(channel)
some = sorted(targets)[0]
print(f"  excluded channel {some} remapped onto {len(targets[some])} distinct "
      f"targets in 3000 events: {sorted(targets[some])}")
print("\nThat contrast — fixed vs. spread-out remap targets — is exactly what "
      "lets a passive\nobserver tell the two algorithms apart from a single "
      "sniffed channel.")
