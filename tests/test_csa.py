"""Unit tests for the channel selection algorithms.

The package writes each channel-selection rule once, as a vectorized core
that also takes a single counter; both forms of input are checked against
straight-line re-implementations of the spec written independently of the
package code (different structure, no shared helpers), plus a set of
frozen known-good values so a change in behavior cannot slip through
unnoticed.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blehop import (
    ChannelMap,
    ConfigError,
    ConnectionParams,
    CsaVersion,
    channel_identifier,
    channel_sequence,
    csa1_channels_bulk,
    csa1_unmapped_bulk,
    csa2_channels_bulk,
    mam,
    perm16,
    prn_e_bulk,
)
from blehop import csa

# ---------------------------------------------------------------------------
# independent oracles


def oracle_prn(k, ci):
    """Straight-line re-derivation of the per-event PRN, no shared code."""

    def rev_byte(b):
        out = 0
        for i in range(8):
            if b & (1 << i):
                out |= 1 << (7 - i)
        return out

    def permute(v):
        return rev_byte(v & 0xFF) | (rev_byte(v >> 8) << 8)

    v = (k ^ ci) & 0xFFFF
    v = (permute(v) * 17 + ci) & 0xFFFF
    v = (permute(v) * 17 + ci) & 0xFFFF
    v = (permute(v) * 17 + ci) & 0xFFFF
    return v ^ ci


def oracle_csa1_remap(unmapped, allowed_sorted):
    """Literal CSA#1 remap: keep a used channel, else index by unmapped mod n_ch."""
    if unmapped in allowed_sorted:
        return unmapped
    return allowed_sorted[unmapped % len(allowed_sorted)]


def oracle_csa1_sequence(hop, initial, allowed_sorted, count):
    """Literal CSA#1 recursion: advance unmapped, remap by index mod n_ch."""
    seq = []
    unmapped = initial
    for _ in range(count):
        unmapped = (unmapped + hop) % 37
        seq.append(oracle_csa1_remap(unmapped, allowed_sorted))
    return seq


def oracle_csa2_channel(counter, ci, allowed_sorted):
    """Spec-literal CSA#2: unmapped = prn mod 37; an unused channel is
    replaced by the allowed channel at remapping index floor(N * prn / 2**16)."""
    prn = oracle_prn(counter % 65536, ci)
    unmapped = prn % 37
    if unmapped in allowed_sorted:
        return unmapped
    remapping_index = (len(allowed_sorted) * prn) // 65536
    return allowed_sorted[remapping_index]


# ---------------------------------------------------------------------------
# frozen known-good values

MAP_27 = ChannelMap.from_hex("0x1FFFFFFC00")  # channels 10..36
MAP_10 = ChannelMap.from_hex("0x1E00E00700")  # {8,9,10,21,22,23,33,34,35,36}


def test_channel_identifier_known_value():
    assert channel_identifier(0xB0A1CD9D) == 0x7D3C


def test_channel_identifier_folds_halves():
    for aa in (0x0, 0xFFFFFFFF, 0x12345678, 0x8E89BED6):
        assert channel_identifier(aa) == ((aa >> 16) ^ (aa & 0xFFFF))


def test_perm16_known_values():
    assert perm16(0x0001) == 0x0080
    assert perm16(0x8001) == 0x0180
    assert perm16(0x0000) == 0x0000
    assert perm16(0xFFFF) == 0xFFFF


def test_perm16_is_an_involution():
    rng = random.Random(1)
    for _ in range(500):
        x = rng.randrange(0x10000)
        assert perm16(perm16(x)) == x


def test_mam_known_value():
    assert mam(0x1000, 0x0001) == 0x1001
    assert mam(0xFFFF, 0xFFFF) == (17 * 0xFFFF + 0xFFFF) % 0x10000


def test_prn_frozen_values():
    ci = 0x7D3C
    assert prn_e_bulk(0, ci) == 8424
    assert prn_e_bulk(1, ci) == 57644
    assert prn_e_bulk(5, ci) == 21359
    assert prn_e_bulk(1000, ci) == 16781
    assert prn_e_bulk(65535, ci) == 27414
    assert prn_e_bulk(0, 0x0000) == 0


def test_prn_unmapped_frozen_values():
    ci = 0x7D3C
    assert prn_e_bulk(0, ci) % 37 == 25
    assert prn_e_bulk(1, ci) % 37 == 35
    assert prn_e_bulk(5, ci) % 37 == 10
    assert prn_e_bulk(1000, ci) % 37 == 20
    assert prn_e_bulk(65535, ci) % 37 == 34


def test_prn_matches_independent_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        k = rng.randrange(0x10000)
        ci = rng.randrange(0x10000)
        assert prn_e_bulk(k, ci) == oracle_prn(k, ci)


def test_prn_bulk_matches_scalar():
    rng = np.random.default_rng(7)
    counters = rng.integers(0, 0x10000, size=200)
    for ci in (0x0000, 0x7D3C, 0xFFFF, 0x1234):
        bulk = prn_e_bulk(counters, ci)
        assert bulk.dtype == np.uint32
        for k, value in zip(counters, bulk):
            assert int(value) == prn_e_bulk(int(k), ci) == oracle_prn(int(k), ci)


def test_prn_reduces_any_int64_counter_mod_2_16():
    ci = 0x7D3C
    counters = np.array([-1, 65536, 2**63 - 1, -2**63], dtype=np.int64)
    got = prn_e_bulk(counters, ci)
    assert got.dtype == np.uint32
    assert got.tolist() == [oracle_prn(int(k) % 65536, ci) for k in counters.tolist()]
    zero_d = prn_e_bulk(np.array(-1), ci)
    assert zero_d.dtype == np.uint32
    assert int(zero_d) == oracle_prn(65535, ci)


def test_prn_is_a_bijection_for_sample_cis():
    for ci in (0x0000, 0x7D3C, 0xA5A5):
        values = prn_e_bulk(np.arange(0x10000), ci)
        assert np.array_equal(np.sort(values), np.arange(0x10000))


# ---------------------------------------------------------------------------
# channel map


def test_channel_map_hex_round_trip():
    assert MAP_27.ordered == tuple(range(10, 37))
    assert MAP_10.ordered == (8, 9, 10, 21, 22, 23, 33, 34, 35, 36)
    assert MAP_27.to_hex() == "0x1FFFFFFC00"
    assert MAP_10.to_hex() == "0x1E00E00700"
    assert ChannelMap.full().to_hex() == "0x1FFFFFFFFF"
    assert ChannelMap.from_hex(MAP_10.to_hex()).allowed == MAP_10.allowed


def test_channel_map_rejects_reserved_bits():
    with pytest.raises(ConfigError):
        ChannelMap.from_hex("0x2000000003")  # bit 37 set
    with pytest.raises(ConfigError):
        ChannelMap.from_hex("0x10000000003")  # does not fit in 40 bits
    with pytest.raises(ConfigError):
        ChannelMap.from_hex("zzz")


def test_channel_map_rejects_too_few_channels():
    with pytest.raises(ConfigError):
        ChannelMap.from_channels({5})
    with pytest.raises(ConfigError):
        ChannelMap.from_hex("0x0000000000")
    with pytest.raises(ConfigError):
        ChannelMap.from_channels({37, 38})


def test_channel_map_containment_and_iteration():
    assert 10 in MAP_27 and 9 not in MAP_27
    assert list(MAP_10) == [8, 9, 10, 21, 22, 23, 33, 34, 35, 36]
    assert MAP_10.n_ch == 10
    assert MAP_10.allowed_mask.sum() == 10
    assert np.array_equal(MAP_10.ordered_array, np.array(MAP_10.ordered))


def test_remap_table_matches_scalar_remap():
    for cmap in (MAP_27, MAP_10, ChannelMap.full()):
        allowed = sorted(cmap.allowed)
        for u in range(37):
            assert cmap.remap_table[u] == oracle_csa1_remap(u, allowed)


# ---------------------------------------------------------------------------
# connection params validation


def test_params_require_grid_interval():
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA2, 12345, MAP_27, 0xB0A1CD9D)
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA2, 5000, MAP_27, 0xB0A1CD9D)
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA2, 4_001_250, MAP_27, 0xB0A1CD9D)


def test_params_csa1_needs_hop_and_seed():
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA1, 7500, MAP_27, 0x1)
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA1, 7500, MAP_27, 0x1, hop_increment=4,
                         initial_channel=0)
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA1, 7500, MAP_27, 0x1, hop_increment=7)
    params = ConnectionParams(CsaVersion.CSA1, 7500, MAP_27, 0x1,
                              hop_increment=7, initial_channel=0)
    assert params.interval_ns == 7_500_000


def test_params_csa2_rejects_csa1_fields():
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0x1, hop_increment=7)
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0x1, initial_channel=3)


def test_params_reject_bad_access_address():
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, -1)
    with pytest.raises(ConfigError):
        ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 1 << 32)


def test_params_refuse_an_untyped_version_or_map():
    # the number 2 and the map's hex mask are what a params file holds, not the types
    with pytest.raises(ConfigError, match="csa_version must be a CsaVersion, got 2"):
        ConnectionParams(2, 7500, MAP_27, 0x1)
    with pytest.raises(ConfigError, match="channel_map must be a ChannelMap"):
        ConnectionParams(CsaVersion.CSA2, 7500, MAP_27.to_hex(), 0x1)


# ---------------------------------------------------------------------------
# CSA#1


def test_csa1_recursion_steps():
    assert csa1_unmapped_bulk(0, 0, 13) == 13
    assert csa1_unmapped_bulk(0, 30, 13) == 6


def test_csa1_remap_examples():
    cmap = ChannelMap.from_channels(range(11, 37))  # n_ch = 26
    assert cmap.remap_table[3] == 14   # ordered[3 % 26]
    assert cmap.remap_table[0] == 11   # ordered[0]
    assert cmap.remap_table[20] == 20  # allowed channels pass through


def test_csa1_remap_target_is_fixed_per_source():
    # A given excluded channel remaps to the same allowed channel every time.
    cmap = MAP_27
    for u in range(10):
        targets = {cmap.remap_table[u] for _ in range(5)}
        assert len(targets) == 1
        assert targets.pop() == cmap.ordered[u % cmap.n_ch]


def test_csa1_matches_literal_recursion_oracle():
    rng = random.Random(99)
    for _ in range(50):
        hop = rng.randrange(5, 17)
        initial = rng.randrange(37)
        n_ch = rng.randrange(2, 38)
        allowed = sorted(rng.sample(range(37), n_ch))
        params = ConnectionParams(
            CsaVersion.CSA1, 7500, ChannelMap.from_channels(allowed), 0xABCD1234,
            hop_increment=hop, initial_channel=initial,
        )
        expected = oracle_csa1_sequence(hop, initial, allowed, 80)
        got = channel_sequence(params, 0, 80)
        assert list(got) == expected


def test_csa1_period_is_37_events():
    params = ConnectionParams(
        CsaVersion.CSA1, 7500, MAP_10, 0xABCD1234, hop_increment=11, initial_channel=5
    )
    seq = channel_sequence(params, 0, 3 * 37)
    assert np.array_equal(seq[:37], seq[37:74])
    assert np.array_equal(seq[:37], seq[74:])
    # within one period every allowed channel appears from the unmapped walk
    unmapped = {(5 + (k + 1) * 11) % 37 for k in range(37)}
    assert unmapped == set(range(37))


def test_csa1_scalar_matches_bulk():
    params = ConnectionParams(
        CsaVersion.CSA1, 7500, MAP_27, 0xABCD1234, hop_increment=7, initial_channel=3
    )
    expected = oracle_csa1_sequence(7, 3, sorted(MAP_27.allowed), 100)
    idx = np.arange(100)
    bulk = csa1_channels_bulk(idx, params)
    for k in idx:
        assert channel_sequence(params, int(k), 1)[0] == bulk[k] == expected[k]


# ---------------------------------------------------------------------------
# CSA#2


def test_csa2_remap_example():
    # counter 0 under CI 0x7D3C: prn 8424, unmapped 25, excluded from MAP_10;
    # remap index floor(10 * 8424 / 65536) = 1 -> ordered[1] = 9.
    assert csa2_channels_bulk(0, 0x7D3C, MAP_10) == 9
    # counter 1: unmapped 35 is allowed, passes through.
    assert csa2_channels_bulk(1, 0x7D3C, MAP_10) == 35


def test_csa2_remap_targets_vary_per_source():
    # Unlike CSA#1, one excluded channel lands on many allowed channels.
    counters = np.arange(20000)
    p = prn_e_bulk(counters, 0x7D3C).astype(np.int64)
    unmapped = p % 37
    excluded = 25  # not in MAP_10
    sel = unmapped == excluded
    targets = MAP_10.ordered_array[(MAP_10.n_ch * p[sel]) >> 16]
    assert len(np.unique(targets)) == MAP_10.n_ch


def test_csa2_remap_targets_are_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    counters = np.arange(65536)
    p = prn_e_bulk(counters, 0x7D3C).astype(np.int64)
    unmapped = p % 37
    sel = ~MAP_10.allowed_mask[unmapped]
    targets = MAP_10.ordered_array[(MAP_10.n_ch * p[sel]) >> 16]
    observed = np.bincount(np.searchsorted(MAP_10.ordered_array, targets),
                           minlength=MAP_10.n_ch)
    result = scipy_stats.chisquare(observed)
    assert result.pvalue > 1e-3


def test_csa2_scalar_matches_bulk():
    rng = np.random.default_rng(5)
    counters = rng.integers(0, 0x10000, size=300)
    for cmap in (MAP_27, MAP_10, ChannelMap.full()):
        allowed = sorted(cmap.allowed)
        bulk = csa2_channels_bulk(counters, 0x7D3C, cmap)
        for k, ch in zip(counters, bulk):
            expected = oracle_csa2_channel(int(k), 0x7D3C, allowed)
            assert csa2_channels_bulk(int(k), 0x7D3C, cmap) == int(ch) == expected


def test_csa2_channels_stay_inside_the_map():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_ch = int(rng.integers(2, 38))
        allowed = set(rng.choice(37, size=n_ch, replace=False).tolist())
        cmap = ChannelMap.from_channels(allowed)
        ci = int(rng.integers(0, 0x10000))
        channels = csa2_channels_bulk(np.arange(4096), ci, cmap)
        assert set(np.unique(channels).tolist()) <= allowed


def test_csa2_counter_wraps_at_16_bits():
    params = ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0xB0A1CD9D)
    assert channel_sequence(params, 5, 1)[0] == channel_sequence(params, 5 + 65536, 1)[0]
    seq = channel_sequence(params, 65530, 12)
    lo = channel_sequence(params, 0, 6)
    assert np.array_equal(seq[6:], lo)


def test_channel_sequence_matches_per_event():
    params = ConnectionParams(CsaVersion.CSA2, 7500, MAP_10, 0xB0A1CD9D)
    ci = (0xB0A1CD9D >> 16) ^ (0xB0A1CD9D & 0xFFFF)
    seq = channel_sequence(params, 100, 50)
    for j in range(50):
        expected = oracle_csa2_channel(100 + j, ci, sorted(MAP_10.allowed))
        assert seq[j] == channel_sequence(params, 100 + j, 1)[0] == expected
    with pytest.raises(ConfigError):
        channel_sequence(params, -1, 10)


# ---------------------------------------------------------------------------
# properties: the vectorized core equals the oracles

maps = st.sets(st.integers(0, 36), min_size=2).map(sorted)
# counters anywhere, or within 40 events of a 16-bit wrap
counters = st.one_of(
    st.integers(0, 3 * 65536),
    st.integers(-40, 40).flatmap(
        lambda d: st.integers(1, 3).map(lambda epoch: epoch * 65536 + d)
    ),
)
property_settings = settings(max_examples=150)


@property_settings
@given(ci=st.integers(0, 0xFFFF), allowed=maps, ks=st.lists(counters, max_size=40))
def test_csa2_channels_bulk_equals_oracle(ci, allowed, ks):
    got = csa2_channels_bulk(np.array(ks, dtype=np.int64), ci,
                             ChannelMap.from_channels(allowed))
    assert got.tolist() == [oracle_csa2_channel(k, ci, allowed) for k in ks]


@property_settings
@given(aa=st.integers(0, 0xFFFFFFFF), allowed=maps, start=counters,
       count=st.integers(0, 80), csa1=st.booleans(), hop=st.integers(5, 16),
       initial=st.integers(0, 36))
def test_channel_sequence_equals_oracle(aa, allowed, start, count, csa1, hop, initial):
    cmap = ChannelMap.from_channels(allowed)
    if csa1:
        start %= 1000  # CSA#1 event indices never wrap; keep the recursion short
        params = ConnectionParams(CsaVersion.CSA1, 7500, cmap, aa,
                                  hop_increment=hop, initial_channel=initial)
        expected = oracle_csa1_sequence(hop, initial, allowed, start + count)[start:]
    else:
        params = ConnectionParams(CsaVersion.CSA2, 7500, cmap, aa)
        ci = (aa >> 16) ^ (aa & 0xFFFF)
        expected = [oracle_csa2_channel(start + j, ci, allowed) for j in range(count)]
    assert channel_sequence(params, start, count).tolist() == expected


# ---------------------------------------------------------------------------
# repeated requests: the last connection's channel table

# counters anywhere in int64, in every form csa2_channels_bulk takes
int64_counters = st.one_of(
    counters,
    st.integers(-3 * 65536, -1),
    st.sampled_from([65535, 65536, 2**63 - 1, -(2**63)]),
)
counter_inputs = st.one_of(
    int64_counters,
    int64_counters.map(lambda k: np.array(k, dtype=np.int64)),
    st.lists(int64_counters, max_size=6),
    st.lists(int64_counters, max_size=6).map(lambda ks: np.array(ks, dtype=np.int64)),
)


@settings(max_examples=80)
@given(pool=st.lists(st.tuples(st.integers(0, 0xFFFF), maps), min_size=2, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 2), counter_inputs), min_size=1, max_size=12))
def test_repeated_requests_equal_the_oracle(pool, calls):
    # keys from a small pool: repeats, alternations and rebuilds all occur
    for which, ks in calls:
        ci, allowed = pool[which % len(pool)]
        got = csa2_channels_bulk(ks, ci, ChannelMap.from_channels(allowed))
        assert type(got) is np.ndarray
        assert got.dtype == np.int64
        assert got.shape == np.shape(ks)
        expected = [oracle_csa2_channel(int(k), ci, allowed) for k in np.ravel(ks)]
        assert got.ravel().tolist() == expected


def test_channel_table_is_built_on_the_second_request_in_a_row(monkeypatch):
    builds = []
    build = csa._csa2_channel_table
    monkeypatch.setattr(csa, "_csa2_channel_table",
                        lambda *key: builds.append(key) or build(*key))
    csa2_channels_bulk(0, 0x0001, ChannelMap.full())  # forget the last connection
    a, b = (0x7D3C, MAP_10), (0x7D3C, MAP_27)
    for key, builds_so_far in [(a, 0), (a, 1), (a, 1), (b, 1), (a, 1), (b, 1), (a, 1),
                               (b, 1), (b, 2), (b, 2), (a, 2), (a, 3)]:
        ks = np.arange(65530, 65545)
        got = csa2_channels_bulk(ks, *key)
        assert got.tolist() == [oracle_csa2_channel(int(k), key[0], sorted(key[1].allowed))
                                for k in ks]
        assert len(builds) == builds_so_far
    assert builds == [a, b, a]


def test_returned_channels_are_the_callers_own():
    ks = np.arange(100)
    expected = [oracle_csa2_channel(k, 0x7D3C, sorted(MAP_10.allowed)) for k in range(100)]
    csa2_channels_bulk(0, 0x0001, ChannelMap.full())  # forget the last connection
    # the first request is computed directly, every later one read from the table
    for _ in range(3):
        got = csa2_channels_bulk(ks, 0x7D3C, MAP_10)
        assert got.tolist() == expected
        got[:] = 99
        one = csa2_channels_bulk(5, 0x7D3C, MAP_10)
        assert one.tolist() == expected[5]
        one[...] = 99
