"""Unit tests for parameter recovery from single-channel traces."""

import gc
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import comb
from scipy.stats import bernoulli

from blehop import (
    ChannelMap,
    ConfigError,
    ConnectionParams,
    ConnectionScenario,
    CsaVersion,
    EstimationError,
    ImpairmentModel,
    InconsistentEvidenceError,
    InsufficientDataError,
    IntervalEstimate,
    ReconstructionReport,
    ScenarioConfig,
    SniffTrace,
    align_counter,
    build_ref_vector,
    channel_identifier,
    channel_sequence,
    classify_csa,
    csa2_counters_for_unmapped,
    csa2_unmapped_bulk,
    estimate_interval,
    expected_reconstruction_budget,
    infer_channel_map,
    observation_offsets,
    prn_e_bulk,
    reconstruct_all,
    reconstruct_connection,
    simulate,
)
from blehop import csa, reconstruct

MAP_27 = ChannelMap.from_hex("0x1FFFFFFC00")
MAP_10 = ChannelMap.from_hex("0x1E00E00700")
STEP = 1_250_000  # ns


def trace_at(times_ns, sniff=22, aa=0xB0A1CD9D):
    return SniffTrace(sniff, times_ns, [aa] * len(times_ns), [True] * len(times_ns))


def simulate_one(params, duration_ns, sniff=22, seed=3, jitter=0.0, drift=0.0,
                 miss=0.0, initial_counter=0):
    config = ScenarioConfig(
        (ConnectionScenario(params, ImpairmentModel(duration_ns, jitter, drift, miss),
                            initial_counter=initial_counter),),
        sniff, seed,
    )
    return simulate(config)


def classify(trace):
    """The classification of a trace at its interval estimate's event offsets."""
    est = estimate_interval(trace)
    return classify_csa(observation_offsets(trace, est.raw_interval_ns), est)


# ---------------------------------------------------------------------------
# interval estimation


def test_interval_from_two_gaps():
    # 187.5 ms and 90 ms gaps share the 7.5 ms interval (25 and 12 events)
    trace = trace_at([0, 187_500_000, 277_500_000])
    est = estimate_interval(trace)
    assert est.interval_us == 7500
    assert est.raw_interval_ns == pytest.approx(7_500_000)
    offsets = observation_offsets(trace, est.raw_interval_ns)
    assert offsets.dtype == np.int64
    assert offsets.tolist() == [0, 25, 37]


def test_interval_survives_jitter():
    rng = np.random.default_rng(0)
    hops = rng.integers(1, 40, size=200)
    times = np.concatenate([[0], np.cumsum(hops)]) * 12_500_000
    noisy = times + np.concatenate([[0], rng.normal(0, 50_000, size=200)]).astype(int)
    est = estimate_interval(trace_at(np.sort(noisy)))
    assert est.interval_us == 12500
    # least-squares noise floor here is ~150 ns; stay well inside the grid
    assert abs(est.raw_interval_ns - 12_500_000) < 1000


def test_raw_interval_tracks_clock_drift():
    ppm = 40.0
    scale = 1 + ppm * 1e-6
    rng = np.random.default_rng(1)
    indices = np.concatenate([[0], np.cumsum(rng.integers(1, 12, size=300))])
    times = (indices * 18_750_000 * scale).round().astype(np.int64)
    est = estimate_interval(trace_at(times))
    assert est.interval_us == 18750
    assert est.raw_interval_ns == pytest.approx(18_750_000 * scale, rel=1e-6)


def test_interval_needs_three_observations():
    with pytest.raises(InsufficientDataError):
        estimate_interval(trace_at([0, 12_500_000]))


def test_interval_rejects_subgrid_gaps():
    with pytest.raises(EstimationError, match="1.25 ms grid"):
        estimate_interval(trace_at([0, 600_000, 12_500_000]))


def test_interval_rejects_offgrid_noise():
    with pytest.raises(EstimationError, match="do not fit"):
        estimate_interval(trace_at([0, 12_900_000, 26_100_000]))


def test_interval_rejects_gcd_below_minimum():
    # gaps of 7 and 9 grid steps have GCD 1.25 ms < 7.5 ms
    with pytest.raises(EstimationError, match="below the 7.5 ms minimum"):
        estimate_interval(trace_at([0, 7 * STEP, 16 * STEP]))


def test_interval_gcd_above_maximum_allowed_when_37_divisible():
    # one hit per 37-event period at 150 ms: gap GCD is 5.55 s, over the 4 s
    # cap, but divisible by 37 with an in-range quotient
    gap = 37 * 120 * STEP
    trace = trace_at([0, gap, 3 * gap, 4 * gap])
    est = estimate_interval(trace)
    assert est.interval_ns == gap
    offsets = observation_offsets(trace, est.raw_interval_ns)
    assert offsets.tolist() == [0, 1, 3, 4]
    # no CSA#2 interval is 5.55 s long, so four hits already read as CSA#1
    cls = classify_csa(offsets, est)
    assert (cls.verdict, cls.period_profile, cls.interval.interval_us) == (CsaVersion.CSA1, (0,),
                                                                          150_000)


def test_interval_gcd_above_maximum_rejected_otherwise():
    gap = 3300 * STEP  # 4.125 s, not divisible by 37
    with pytest.raises(EstimationError, match="above the 4 s maximum"):
        estimate_interval(trace_at([0, gap, 2 * gap]))


def test_interval_tolerance_is_300us():
    # two of the three gaps are 400 us off-grid: left out of the GCD, too few remain
    times = [0, 12_500_000 + 400_000, 25_000_000 + 400_000, 37_500_000]
    with pytest.raises(EstimationError, match="do not fit the 1.25 ms grid"):
        estimate_interval(trace_at(times))
    times = [0, 12_500_000 + 290_000, 25_000_000 + 290_000, 37_500_000]
    est = estimate_interval(trace_at(times))
    assert est.interval_us == 12500


# ---------------------------------------------------------------------------
# algorithm classification


def test_classify_single_hit_divides_by_37():
    gap = 37 * 6 * STEP  # one hit per period at 7.5 ms
    trace = trace_at(np.arange(20) * gap)
    est = estimate_interval(trace)
    offsets = observation_offsets(trace, est.raw_interval_ns)
    assert offsets.tolist() == list(range(20))  # one per 37-event period
    cls = classify_csa(offsets, est)
    assert (cls.verdict, cls.period_profile) == (CsaVersion.CSA1, (0,))
    assert cls.interval.interval_us == 7500
    assert cls.interval.raw_interval_ns == pytest.approx(7_500_000)
    # the sniffed channel has one home, the report
    assert reconstruct_connection(trace).sniff_channel == 22
    # CSA#2 at 277.5 ms hits a channel at most every other event: 20 hits in
    # 20 periods lead it by 20 log 2 - log 37 = 10.2 nats, 19 in 19 by 9.6
    with pytest.raises(InsufficientDataError, match=r"single-hit classification: .* 9\.6 nats"):
        classify_csa(offsets[:19], est)


def test_classify_single_hit_flags_a_short_alias():
    # a 1 s CSA#2 capture whose two gaps are both 222 grid steps (6 * 37):
    # three hits in three periods fit CSA#2 at 277.5 ms better than CSA#1
    trace = trace_at([285_027_370, 562_400_018, 839_977_150], sniff=26, aa=0x897845EF)
    with pytest.raises(InsufficientDataError, match=r"-1\.5 nats"):
        classify(trace)
    report = reconstruct_connection(trace)
    assert report.classification is None
    assert "-1.5 nats" in report.error


def test_single_hit_counts_each_period_once():
    # 41 hits at 277.5 ms and a stray central packet 5 events + 0.4 ms after
    # hit 10: left out of the GCD, 2 of 41 gaps off-grid at 7.5 ms, passed by
    # the gate; it shares hit 10's period, which is counted once
    times = np.arange(41) * (37 * 6 * STEP)
    times = np.insert(times, 11, times[10] + 5 * 6 * STEP + 400_000)
    report = reconstruct_connection(trace_at(times.tolist()))
    assert report.error is None
    cls = report.classification
    assert (cls.verdict, cls.period_profile, cls.interval.interval_us) == (CsaVersion.CSA1, (0,),
                                                                          7500)


def test_classify_csa2_at_a_37_fold_interval_is_never_single_hit():
    # CSA#2 at 277.5, 323.75 or 462.5 ms: the gap GCD is the interval, 37 grid
    # intervals, the single-hit CSA#1 signature at a 37th of it; flagged instead
    for seed, (interval_us, channels) in enumerate(
            [(277500, [1, 22]), (277500, [22, 30, 31]), (323750, MAP_10.allowed),
             (462500, [5, 22]), (277500, range(37))]):
        params = ConnectionParams(CsaVersion.CSA2, interval_us,
                                  ChannelMap.from_channels(channels), 0xB0A1CD9D)
        _, trace = simulate_one(params, 600 * 10**9, seed=seed, jitter=50_000.0, miss=0.1)
        report = reconstruct_connection(trace)
        assert report.classification is None, report.classification
        assert report.error.startswith("single-hit classification: ")


def test_classify_repeating_profile():
    params = ConnectionParams(CsaVersion.CSA1, 7500, MAP_27, 0x22334455,
                              hop_increment=7, initial_channel=0)
    _, trace = simulate_one(params, 10 * 37 * 7_500_000, sniff=10)
    cls = classify(trace)
    assert (cls.verdict, cls.period_profile) == (CsaVersion.CSA1, (0, 25))
    assert cls.interval.interval_us == 7500


def test_classify_csa2():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_27, 0xB0A1CD9D)
    _, trace = simulate_one(params, 60 * 10**9)
    est = estimate_interval(trace)
    cls = classify_csa(observation_offsets(trace, est.raw_interval_ns), est)
    assert (cls.verdict, cls.period_profile) == (CsaVersion.CSA2, ())
    assert cls.interval is est


def test_classify_csa1_with_misses_as_repeating():
    # 10 % misses leave a tenth of a CSA#1 connection's (period, phase) slots
    # empty; the fitted capture rate absorbs them, and every one of these must
    # still read as CSA#1.
    verdicts, seed = [], 0
    while len(verdicts) < 50:
        seed += 1
        rng = np.random.default_rng([1, seed])
        allowed = rng.choice(37, size=int(rng.integers(2, 38)), replace=False)
        sniff = int(rng.choice(allowed))
        params = ConnectionParams(
            CsaVersion.CSA1, 7500, ChannelMap.from_channels(allowed.tolist()),
            0x50000000 + seed, hop_increment=int(rng.integers(5, 17)),
            initial_channel=int(rng.integers(37)),
        )
        phases = np.count_nonzero(channel_sequence(params, 0, 37) == sniff)
        if phases < 2:
            continue  # a single-hit profile folds into the gap GCD instead
        _, trace = simulate_one(params, 60 * 10**9, sniff=sniff, seed=seed,
                                jitter=50_000.0, miss=0.1)
        cls = classify(trace)
        verdicts.append((cls.verdict, len(cls.period_profile) == phases))
    assert verdicts == [(CsaVersion.CSA1, True)] * 50


@pytest.mark.parametrize("channels, sniff", [((1, 3), 1), ((1, 35), 1), ((5, 9), 5)])
def test_odd_two_channel_maps_read_as_csa1_with_20_phases(channels, sniff):
    # the lower channel of two odd ones takes the remaps of all 19 even
    # channels: 20 hits per 37-event period, the most CSA#1 allows
    for hop in (5, 7, 11):
        params = ConnectionParams(CsaVersion.CSA1, 7500, ChannelMap.from_channels(channels),
                                  0x50000000 + hop, hop_increment=hop, initial_channel=0)
        _, trace = simulate_one(params, 60 * 10**9, sniff=sniff, jitter=20_000.0)
        report = reconstruct_connection(trace)
        assert report.error is None
        assert report.classification.verdict is CsaVersion.CSA1
        profile = report.classification.period_profile
        assert len(profile) == 20
        hits = np.flatnonzero(channel_sequence(params, 0, 37) == sniff)
        assert profile == tuple(sorted(((hits - hits[0]) % 37).tolist()))


@st.composite
def short_captures(draw):
    """7.5 ms CSA#1 or CSA#2 connections on maps of 2-37 channels, 1-20 s
    captures, 50 us jitter, +-20 ppm drift and up to 30 % misses."""
    csa = draw(st.sampled_from(list(CsaVersion)))
    # large maps drawn as often as small ones: they give single-hit profiles
    channels = draw(st.sets(st.integers(0, 36), min_size=draw(st.sampled_from([2, 30]))))
    sniff = draw(st.sampled_from(sorted(channels)))
    extra = dict(hop_increment=draw(st.integers(5, 16)),
                 initial_channel=draw(st.integers(0, 36))) if csa is CsaVersion.CSA1 else {}
    params = ConnectionParams(csa, 7500, ChannelMap.from_channels(channels),
                              draw(st.integers(1, 2**32 - 1)), **extra)
    impairments = ImpairmentModel(draw(st.integers(1, 20)) * 10**9, 50_000.0,
                                  draw(st.floats(-20, 20)), draw(st.floats(0, 0.3)))
    return ScenarioConfig((ConnectionScenario(params, impairments,
                                              initial_counter=draw(st.integers(0, 0xFFFF))),),
                          sniff, draw(st.integers(0, 2**32)))


@settings(max_examples=500)
@given(config=short_captures())
def test_short_captures_never_get_the_other_verdict(config):
    # a capture too short to tell the two apart is flagged, never misread
    _, trace = simulate(config)
    classification = reconstruct_connection(trace).classification
    if classification is not None:
        assert classification.verdict is config.connections[0].params.csa_version


def test_classify_short_csa2_trace():
    params = ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0xB0A1CD9D)
    _, trace = simulate_one(params, 2 * 10**9, jitter=50_000.0, miss=0.1)
    assert classify(trace).verdict is CsaVersion.CSA2


def test_classify_needs_two_periods():
    # spans one period only: three hits on two phases lead CSA#2 by 4.0 nats
    trace = trace_at([0, 25 * 6 * STEP, 37 * 6 * STEP])
    assert estimate_interval(trace).interval_us == 7500
    with pytest.raises(InsufficientDataError, match=r"^classification: .* 4\.0 nats"):
        classify(trace)
    # three hits in three events fit CSA#2 at rate 1/2 better than any 3-phase
    # CSA#1 profile, by the log C(37, 3) cost alone: no phase has had a second
    # slot, so no CSA#2 verdict and no counter alignment
    report = reconstruct_connection(trace_at([0, 6 * STEP, 12 * STEP]))
    assert (report.classification, report.alignment) == (None, None)
    assert report.error.startswith("classification: ")
    assert report.error.endswith("-6.9 nats, short of the 10 a CSA#1 verdict needs; a CSA#2 "
                                 "verdict needs at most 0 over two whole 37-event periods, "
                                 "the trace spans 3 events")
    # the bound: four hits on four phases over 73 events are flagged, over 74 read as CSA#2
    interval = IntervalEstimate(6 * STEP, 6.0 * STEP)
    with pytest.raises(InsufficientDataError, match=r"-1\.1 nats, .* spans 73 events$"):
        classify_csa(np.array([0, 1, 2, 72]), interval)
    assert classify_csa(np.array([0, 1, 2, 73]), interval).verdict is CsaVersion.CSA2


# ---------------------------------------------------------------------------
# event offsets and vectors


def test_observation_offsets_cumulative():
    times = np.array([0, 2, 5, 42]) * 12_500_000
    offsets = observation_offsets(trace_at(times), 12_500_000)
    assert offsets.tolist() == [0, 2, 5, 42]


def test_observation_offsets_reject_wrong_interval():
    times = np.array([0, 3, 7]) * 12_500_000
    with pytest.raises(EstimationError, match="wrong interval"):
        observation_offsets(trace_at(times), 11_000_000)


def test_observation_offsets_refuse_an_empty_trace():
    with pytest.raises(InsufficientDataError, match="empty trace"):
        observation_offsets(SniffTrace(None, [], [], []), 12_500_000)


def test_observation_offsets_tolerate_rare_jitter_outlier():
    # one gap 400 us off-grid among 40 clean ones: a noise outlier, not a
    # wrong interval, and far too small to shift its rounding
    times = np.arange(41, dtype=np.int64) * 3 * 12_500_000
    times[20] += 400_000
    offsets = observation_offsets(trace_at(times), 12_500_000)
    assert offsets.tolist() == (np.arange(41) * 3).tolist()


def test_observation_offsets_reject_single_far_off_grid_gap():
    # a gap beyond 4x the tolerance cannot be rounded with confidence
    times = np.arange(41, dtype=np.int64) * 3 * 12_500_000
    times[20] += 1_500_000
    with pytest.raises(EstimationError, match="off-grid"):
        observation_offsets(trace_at(times), 12_500_000)


def test_ref_vector_population_counts():
    # 65536 = 37 * 1771 + 9, so residues 0..8 occur 1772 times, 9..36 occur
    # 1771 times; the PRN is a bijection, making these counts exact.
    for ci in (0x7D3C, 0x0000, 0x1234):
        assert int(build_ref_vector(ci, 8).sum()) == 1772
        assert int(build_ref_vector(ci, 9).sum()) == 1771
        assert int(build_ref_vector(ci, 22).sum()) == 1771


# the reference is built from the inverse PRN; the forward PRN over every
# counter is its oracle
@pytest.mark.parametrize("ci", [0x0000, 0x0001, 0x7D3C, 0xFFFF])
def test_ref_vector_equals_forward_prn(ci):
    unmapped = csa2_unmapped_bulk(np.arange(65536), ci)
    for ch in range(37):
        ref = build_ref_vector(ci, ch)
        assert ref.dtype == np.uint8
        assert np.array_equal(ref, unmapped == ch)


@settings(max_examples=25)
@given(ci=st.integers(0, 0xFFFF), ch=st.integers(0, 36))
def test_ref_vector_equals_forward_prn_for_any_ci(ci, ch):
    unmapped = csa2_unmapped_bulk(np.arange(65536), ci)
    assert np.array_equal(build_ref_vector(ci, ch), unmapped == ch)


def test_counters_for_unmapped_are_sorted_and_complete():
    for ci in (0x0000, 0x7D3C, 0xFFFF):
        for ch in range(37):
            counters = csa2_counters_for_unmapped(ch, ci)
            assert counters.size == (1772 if ch < 9 else 1771)
            assert np.all(np.diff(counters) > 0)
    with pytest.raises(ConfigError):
        csa2_counters_for_unmapped(37, 0x7D3C)


# ---------------------------------------------------------------------------
# counter alignment


def _offsets_from_reference(ref, k_init, span):
    counters = (k_init + np.arange(span)) % 65536
    return np.flatnonzero(ref[counters])


def test_alignment_recovers_known_shift():
    ref = build_ref_vector(0x7D3C, 22)
    for k_init in (0, 5000, 65535):
        offsets = _offsets_from_reference(ref, k_init, 4000)
        result = align_counter(offsets, ref)
        assert result.k_init == k_init
        assert not result.ambiguous
        assert result.correlation_peak == len(offsets)
        assert result.second_peak < result.correlation_peak


def test_alignment_folds_traces_longer_than_a_period():
    ref = build_ref_vector(0x7D3C, 22)
    k_init = 1234
    offsets = _offsets_from_reference(ref, k_init, 70_000)
    assert offsets[-1] >= 65536  # some offsets fold onto earlier ones
    result = align_counter(offsets, ref)
    assert result.k_init == k_init
    assert not result.ambiguous
    # folding ORs the offsets that agree mod 65536
    assert result == align_counter(np.unique(offsets % 65536), ref)


def test_two_observations_are_ambiguous():
    # with hits at offsets {0, d} every k with ref[k] and ref[k+d] set ties
    ref = build_ref_vector(0x7D3C, 22)
    d = 37
    result = align_counter(np.array([0, d]), ref)
    expected = np.flatnonzero((ref == 1) & (np.roll(ref, -d) == 1))
    assert result.ambiguous
    assert result.correlation_peak == 2
    assert result.candidates == tuple(expected.tolist())
    assert len(result.candidates) > 1


def _pair_counts(ref, offsets, chunk=2048):
    """The correlation align_counter computes, as integer pair counts: each
    reference hit h and each distinct folded position m add one at
    (h - m) mod 65536, which uint16 arithmetic wraps to."""
    hits = np.flatnonzero(ref).astype(np.uint16)
    positions = np.unique(np.asarray(offsets) % 65536).astype(np.uint16)
    counts = np.zeros(65536, dtype=np.int64)
    for start in range(0, positions.size, chunk):
        pairs = np.subtract.outer(hits, positions[start:start + chunk])
        counts += np.bincount(pairs.ravel(), minlength=65536)
    return counts


@settings(max_examples=30)
@given(ci=st.integers(0, 0xFFFF), sniff=st.integers(0, 36), n=st.integers(1, 65536),
       periods=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
# every position observed (all 65536 counters tie), and the ~43k folded
# positions of a long merged capture
@example(ci=0x7D3C, sniff=22, n=65536, periods=1, seed=0)
@example(ci=0xC9F2, sniff=5, n=43000, periods=3, seed=1)
def test_alignment_matches_direct_correlation(ci, sniff, n, periods, seed):
    # n distinct offsets over one to three counter periods: past 65535 they
    # fold, and a folded position counts once however many offsets land on it
    ref = build_ref_vector(ci, sniff)
    offsets = np.random.default_rng(seed).choice(periods * 65536, size=n, replace=False)
    correlation = _pair_counts(ref, offsets)
    peak = int(correlation.max())
    result = align_counter(offsets, ref)
    assert result.correlation_peak == peak
    assert result.candidates == tuple(np.flatnonzero(correlation == peak).tolist())
    # the largest score once the candidates are left out, or the peak on a tie
    rest = np.delete(correlation, result.candidates)
    assert result.second_peak == (peak if result.ambiguous else int(rest.max()))


def test_four_step_transforms_equal_numpy_fft():
    # [k1, k2] holds bin k1 + 256*k2 of the 65536-point transform, and the
    # inverse gives the input back; a wrong twiddle moves scores far from
    # any peak, which the peak and candidate checks above may not see
    rng = np.random.default_rng(11)
    for x in (rng.random(65536), build_ref_vector(0x7D3C, 22).astype(np.float64)):
        out = np.empty((129, 256), dtype=np.complex128)
        spectrum = reconstruct._rfft_65536(x.reshape(256, 256), out)
        assert spectrum is out
        want = np.fft.fft(x).reshape(256, 256).T[:129]
        assert np.abs(spectrum - want).max() < 1e-9 * np.abs(want).max()
        back = np.empty((256, 256))
        assert reconstruct._irfft_65536(spectrum, back) is back
        assert np.abs(back.ravel() - x).max() < 1e-12


def test_alignment_twiddles_are_read_only():
    # a module constant shared by every call: a write would corrupt later alignments
    assert not reconstruct._TWIDDLES.flags.writeable
    with pytest.raises(ValueError):
        reconstruct._TWIDDLES[0, 0] = 0


def test_alignment_rejects_bad_inputs():
    ref = build_ref_vector(0x7D3C, 22)
    with pytest.raises(EstimationError):
        align_counter(np.zeros(0, dtype=np.int64), ref)
    with pytest.raises(ConfigError):
        align_counter(np.arange(10), ref[:100])
    # the float error bound and the float workspace hold only for integer
    # offsets and 0/1 references: the rest is refused, not coerced
    for offsets, reference in [
        ([0, 7.9, 15.2, 100.6], ref),  # once truncated to 0, 7, 15, 100
        ([[0, 7], [15, 100]], ref),  # once flattened
        (np.array([0, 7, 15], dtype=bool), ref),
        ([0, 7, 15, 100], ref * 2),  # once scored at double: peak 6 from 3 offsets
        ([0, 7, 15, 100], ref.astype(np.float64)),
        ([0, 7, 15, 100], ref.astype(np.int64) - 1),
    ]:
        with pytest.raises(ConfigError):
            align_counter(offsets, reference)


@pytest.mark.parametrize("stage", ["classify_csa", "align_counter", "infer_channel_map"])
def test_every_offsets_stage_refuses_what_alignment_refuses(stage):
    # float offsets were truncated by the map inference ([0.4, 5.9, 9.2] read
    # as [0, 5, 9]) and ended in a TypeError in the classification
    call = {
        "classify_csa": lambda o: classify_csa(o, IntervalEstimate(6 * STEP, 6.0 * STEP)),
        "align_counter": lambda o: align_counter(o, build_ref_vector(0x7D3C, 22)),
        "infer_channel_map": lambda o: infer_channel_map(o, 0, 0x7D3C, 22),
    }[stage]
    for offsets in ([0.4, 5.9, 9.2], [[0, 5], [9, 100]], np.array([0, 5, 9], dtype=bool)):
        with pytest.raises(ConfigError, match="^observation offsets must be"):
            call(offsets)
    for empty in ([], np.zeros(0, dtype=np.int64)):
        with pytest.raises(InsufficientDataError):
            call(empty)


def test_alignment_accepts_any_integer_or_bool_inputs():
    ref = build_ref_vector(0x7D3C, 22)
    want = align_counter(np.array([0, 37, 500]), ref)
    assert align_counter([0, 37, 500], ref.astype(bool)) == want
    assert align_counter(np.array([0, 37, 500], dtype=np.uint16), ref.astype(np.int8)) == want
    # offsets past int64, congruent mod 65536 to the ones above
    high = np.array([0, 37, 500], dtype=np.uint64) + np.uint64(2**63 + 2**62)
    assert align_counter(high, ref) == want


def test_alignment_allocates_no_transform_buffers():
    # after a first call has made this thread's workspace, an alignment
    # allocates only its candidate mask and result, not the 512 KB-and-up
    # transform arrays whose page faults once dominated its time
    ref = build_ref_vector(0x7D3C, 22)
    offsets = _offsets_from_reference(ref, 5000, 4000)
    align_counter(offsets, ref)
    tracemalloc.start()
    try:
        align_counter(offsets, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_alignments_do_not_share_a_workspace():
    ref_a, ref_b = build_ref_vector(0x7D3C, 22), build_ref_vector(0xC9F2, 5)
    a = _offsets_from_reference(ref_a, 5000, 4000), ref_a
    b = _offsets_from_reference(ref_b, 60000, 9000), ref_b
    want_a, want_b = align_counter(*a), align_counter(*b)
    # interleaved in one thread: each call starts from its own inputs
    assert [align_counter(*a), align_counter(*b), align_counter(*a)] == [want_a, want_b, want_a]

    # at once in threads, more than there are cores, switching often: a
    # workspace shared between them would mix one call's inputs into another's
    cases = {"a1": a, "b1": b, "a2": a, "b2": b}
    results = {}
    start = threading.Barrier(len(cases))

    def run(name):
        start.wait(timeout=60)
        results[name] = [align_counter(*cases[name]) for _ in range(50)]

    threads = [threading.Thread(target=run, args=(name,)) for name in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {name: [want_a if name[0] == "a" else want_b] * 50 for name in cases}


# ---------------------------------------------------------------------------
# channel map inference


def _csa2_observation_offsets(cmap, ci, k_init, n_events, sniff):
    counters = (k_init + np.arange(n_events)) % 65536
    p = prn_e_bulk(counters, ci).astype(np.int64)
    unmapped = p % 37
    mapped = np.where(cmap.allowed_mask[unmapped], unmapped,
                      cmap.ordered_array[(cmap.n_ch * p) >> 16])
    return np.flatnonzero(mapped == sniff)


def test_map_inference_recovers_exclusions():
    ci, sniff, k_init = channel_identifier(0xB0A1CD9D), 22, 777
    budget = expected_reconstruction_budget(MAP_10.n_ch)
    offsets = _csa2_observation_offsets(MAP_10, ci, k_init, 5 * budget, sniff)
    est = infer_channel_map(offsets, k_init, ci, sniff)
    assert est.proven_excluded == frozenset(range(37)) - MAP_10.allowed
    assert est.assumed_map.allowed == MAP_10.allowed
    assert est.converged
    assert est.unexplained_remaps == 0
    assert all(v >= 1 for v in est.evidence_count.values())
    assert set(est.evidence_count) == est.proven_excluded


def test_map_inference_is_sound_when_truncated():
    ci, sniff, k_init = channel_identifier(0xB0A1CD9D), 22, 777
    offsets = _csa2_observation_offsets(MAP_10, ci, k_init, 360, sniff)
    est = infer_channel_map(offsets, k_init, ci, sniff)
    true_excluded = frozenset(range(37)) - MAP_10.allowed
    assert est.proven_excluded <= true_excluded       # never a false exclusion
    assert est.assumed_map.allowed >= MAP_10.allowed  # always a superset
    assert not est.converged


def test_map_inference_counts_unexplained_remaps_when_truncated():
    ci, sniff, k_init = channel_identifier(0xB0A1CD9D), 22, 777
    offsets = _csa2_observation_offsets(MAP_10, ci, k_init, 1500, sniff)
    est = infer_channel_map(offsets, k_init, ci, sniff)
    assert est.assumed_map.n_ch == 12  # two excluded channels not proven yet
    # each remap observation's channel under the assumed (too large) map,
    # from the PRN and the spec's remap formula: some land on the sniffed
    # channel, the rest are unexplained
    p = prn_e_bulk((k_init + offsets) % 65536, ci).astype(np.int64)
    remap = p % 37 != sniff
    assumed = est.assumed_map
    channels = assumed.ordered_array[(assumed.n_ch * p[remap]) >> 16]
    expected = int(np.sum(channels != sniff))
    assert est.unexplained_remaps == expected == 19
    assert int(remap.sum()) == 109
    assert not est.converged


def test_map_inference_full_map_converges_after_about_11200_events():
    # a full map leaves no remap evidence, so nothing but the span can rule
    # out a hidden excluded channel: at the clean capture rate each of the 36
    # others would show with chance 1/37**2 per event, and 36 * (1 - 1/1369)**S
    # falls to 0.01 at S = 1369 ln 3600, about 11,200 events
    cmap = ChannelMap.full()
    ci, sniff, k_init = channel_identifier(0x53D39A21), 17, 100
    offsets = _csa2_observation_offsets(cmap, ci, k_init, 2000, sniff)
    est = infer_channel_map(offsets, k_init, ci, sniff)
    assert est.proven_excluded == frozenset()
    assert est.assumed_map.allowed == cmap.allowed
    assert est.unexplained_remaps == 0
    assert not est.converged  # a hidden channel would still go unseen: risk about 7
    offsets = _csa2_observation_offsets(cmap, ci, k_init, 13000, sniff)
    span = next(offsets[n] - offsets[0] for n in range(offsets.size)
                if infer_channel_map(offsets[:n + 1], k_init, ci, sniff).converged)
    assert span == pytest.approx(11_200, rel=0.02)
    assert infer_channel_map(offsets, k_init, ci, sniff).converged


def test_map_inference_flags_evidence_against_36_channels():
    # every event heard: each channel other than the sniffed one shows as an
    # unmapped channel, which leaves a map of one channel
    ci, sniff = channel_identifier(0xB0A1CD9D), 22
    offsets = np.arange(2000)
    assert np.unique(csa2_unmapped_bulk(offsets, ci)).size == 37
    with pytest.raises(InconsistentEvidenceError, match="fits no channel map"):
        infer_channel_map(offsets, 0, ci, sniff)


def test_map_inference_flags_wrong_alignment():
    # under a full map every observation is an unmapped hit; a wrong counter
    # alignment makes nearly every observation look like remap evidence,
    # which no valid map can explain
    cmap = ChannelMap.full()
    ci, sniff, k_init = channel_identifier(0x53D39A21), 17, 100
    offsets = _csa2_observation_offsets(cmap, ci, k_init, 20000, sniff)
    with pytest.raises(InconsistentEvidenceError):
        infer_channel_map(offsets, k_init + 3, ci, sniff)


def test_map_inference_flags_a_remap_that_fits_no_map():
    # a wrong counter over a short capture: too few remap observations to
    # exclude 36 channels, but one of them fits no map the evidence allows
    ci, sniff, k_init = channel_identifier(0xB0A1CD9D), 22, 777
    offsets = _csa2_observation_offsets(MAP_10, ci, k_init, 1000, sniff)
    with pytest.raises(InconsistentEvidenceError, match=r"\(counter 795\) fits no channel map"):
        infer_channel_map(offsets, k_init + 3, ci, sniff)


# The stages count with np.bincount; these references are the np.unique
# readings they replaced.

@st.composite
def csa2_captures(draw):
    """(offsets, k_init, ci, sniff) of a CSA#2 capture on one channel with misses."""
    sniff = draw(st.integers(0, 36))
    others = draw(st.sets(st.integers(0, 36).filter(lambda c: c != sniff),
                          min_size=1, max_size=36))
    cmap = ChannelMap.from_channels({sniff, *others})
    ci, k_init = draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF))
    n_events = draw(st.integers(1, 4 * expected_reconstruction_budget(cmap.n_ch) + 100))
    offsets = _csa2_observation_offsets(cmap, ci, k_init, n_events, sniff)
    while offsets.size == 0:
        n_events *= 2
        offsets = _csa2_observation_offsets(cmap, ci, k_init, n_events, sniff)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = offsets[rng.random(offsets.size) >= draw(st.sampled_from([0.0, 0.1, 0.5]))]
    if kept.size == 0:
        kept = offsets[:1]
    return kept - kept[0], int(k_init + kept[0]) % 65536, ci, sniff


def reference_risk(offsets, k_init, ci, sniff):
    """(n_a - 1) * (1 - p)**span, summed in logs, for the assumed map of n_a
    channels and p = u / ((span + 1) * n_a) from the u unmapped hits."""
    unmapped = csa2_unmapped_bulk((k_init + offsets) % 65536, ci)
    n_a = 37 - np.unique(unmapped[unmapped != sniff]).size
    span = int(offsets[-1] - offsets[0])
    p = np.count_nonzero(unmapped == sniff) / ((span + 1) * n_a)
    return np.exp(np.log(n_a - 1) + span * np.log1p(-p))


@settings(max_examples=150)
@given(capture=csa2_captures())
def test_map_inference_counts_like_unique(capture):
    offsets, k_init, ci, sniff = capture
    est = infer_channel_map(offsets, k_init, ci, sniff)
    p = prn_e_bulk((k_init + offsets) % 65536, ci).astype(np.int64)
    unmapped = p % 37
    remap = unmapped != sniff
    excluded, counts = np.unique(unmapped[remap], return_counts=True)
    assert est.proven_excluded == frozenset(excluded.tolist())
    assert est.evidence_count == dict(zip(excluded.tolist(), counts.tolist()))
    assumed = est.assumed_map
    unexplained = int(np.sum(assumed.ordered_array[(assumed.n_ch * p[remap]) >> 16] != sniff))
    assert est.unexplained_remaps == unexplained
    risk = reference_risk(offsets, k_init, ci, sniff)
    assume(not np.isclose(risk, 0.01, rtol=1e-9, atol=0))
    assert est.converged == (unexplained == 0 and risk <= 0.01)


def searched_unfit_counter(offsets, k_init, ci, sniff):
    """The smallest counter of a remap observation that fits no map of the
    unproven ("free") channels, found by trying every map size 2..|free|
    with the spec's remap index floor(n prn / 2**16); None if all fit."""
    counters = (k_init + offsets) % 65536
    p = prn_e_bulk(counters, ci).astype(np.int64)
    remap = p % 37 != sniff
    free = np.setdiff1d(np.arange(37), p[remap] % 37)
    below, above = np.count_nonzero(free < sniff), np.count_nonzero(free > sniff)
    sizes = np.arange(2, free.size + 1)[:, None]
    positions = (sizes * p[remap]) >> 16
    fits = (positions <= below) & (sizes - 1 - positions <= above)
    unfit = counters[remap][~fits.any(axis=0)]
    return int(unfit.min()) if unfit.size else None


@st.composite
def remap_evidence(draw, free_channels):
    """(offsets, k_init, ci, sniff): the events of a random counter span whose
    unmapped channel is the sniffed one or outside a drawn set of free
    channels, some dropped. ``free_channels`` says which: "any" set, all
    "above" or all "below" the sniffed channel, the sniffed one "alone"
    (over 2000 events or more, every other channel shows), or "none"
    outside it (no remap observation)."""
    sniff, ci, k_init = (draw(st.integers(0, 36)), draw(st.integers(0, 0xFFFF)),
                         draw(st.integers(0, 0xFFFF)))
    side = {"any": range(37), "above": range(sniff + 1, 37), "below": range(sniff)}.get(
        free_channels, ())
    free = draw(st.sets(st.sampled_from(side), max_size=36)) if side else set()
    least = {"alone": 2000, "none": 200}.get(free_channels, 1)
    counters = (k_init + np.arange(draw(st.integers(least, 4000)))) % 65536
    unmapped = csa2_unmapped_bulk(counters, ci)
    heard = unmapped == sniff
    if free_channels != "none":
        heard |= ~np.isin(unmapped, [sniff, *free])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heard = np.flatnonzero(heard & (rng.random(counters.size)
                                    >= draw(st.sampled_from([0.0, 0.1, 0.5]))))
    assume(heard.size)
    return heard - heard[0], int(counters[heard[0]]), ci, sniff


@pytest.mark.parametrize("free_channels", ["any", "above", "below", "alone", "none"])
@settings(max_examples=60)
@given(data=st.data())
def test_map_feasibility_closed_form_equals_the_search_over_every_size(free_channels, data):
    # a remap observation fits some map iff it fits one of two channels: the
    # closed form raises exactly when the search over every size finds an
    # observation no size fits, and names the same (smallest) counter
    offsets, k_init, ci, sniff = data.draw(remap_evidence(free_channels))
    unfit = searched_unfit_counter(offsets, k_init, ci, sniff)
    if unfit is None:
        infer_channel_map(offsets, k_init, ci, sniff)
    else:
        with pytest.raises(InconsistentEvidenceError,
                           match=rf"^a remap observation \(counter {unfit}\) fits no channel map"):
            infer_channel_map(offsets, k_init, ci, sniff)


@st.composite
def ascending_offsets(draw):
    """Event offsets from 0: random hops, or a few phases per 37-event period
    with some hits dropped (the CSA#1 shape)."""
    if draw(st.booleans()):
        hops = draw(st.lists(st.integers(1, 60), min_size=2, max_size=200))
        return np.concatenate([[0], np.cumsum(hops)])
    phases = draw(st.sets(st.integers(1, 36), max_size=25))
    periods = draw(st.integers(1, 40))
    grid = (37 * np.arange(periods)[:, None] + np.array([0, *sorted(phases)])).ravel()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return grid[(rng.random(grid.size) >= draw(st.floats(0.0, 0.5))) | (grid == 0)]


def reference_nats(offsets, folded=False):
    """The CSA#1 over CSA#2 log-likelihood ratio, summed event by event from
    SciPy's Bernoulli log-pmf over the hit indicator of events 0..span.
    ``folded`` offsets count the hit 37-event periods of a gap GCD of 37
    intervals: times 37 they are the events, and CSA#2 at the GCD, over
    every 37th event, is a second alternative."""
    events = offsets * 37 if folded else offsets
    hit = np.zeros(int(events[-1]) + 1, dtype=bool)
    hit[events] = True
    phases = np.unique(events % 37)
    slots = np.isin(np.arange(hit.size) % 37, phases)
    csa2 = max(bernoulli.logpmf(h, min(h.mean(), 0.5)).sum()
               for h in ([hit, hit[::37]] if folded else [hit]))
    if phases.size > 20:  # 1 + ceil(37 / 2): more than the remap rule allows CSA#1
        return -np.inf
    csa1 = bernoulli.logpmf(hit[slots], hit.sum() / slots.sum()).sum()
    return csa1 - np.log(comb(37, phases.size)) - csa2


def full_grid(phases, periods=10):
    return (37 * np.arange(periods)[:, None] + np.arange(phases)).ravel()


@settings(max_examples=200)
@given(offsets=ascending_offsets(), folded=st.booleans())
@example(offsets=full_grid(20), folded=False)  # the most phases CSA#1 can hit
@example(offsets=full_grid(21), folded=False)  # one more: never CSA#1, however full the grid
# hit periods at a 277.5 ms gap GCD: every one of 20 periods hit leads CSA#2
# at the GCD by 20 log 2 - log 37 = 10.2 nats, of 19 by 9.6; 38 of 40 lead
# by 16.2; CSA#2 at the GCD fits one hit in three periods far better, but a
# folded reading is never CSA#2, only flagged
@example(offsets=np.arange(20), folded=True)
@example(offsets=np.arange(19), folded=True)
@example(offsets=np.delete(np.arange(40), [5, 17]), folded=True)
@example(offsets=np.arange(0, 300, 3), folded=True)
def test_classification_phases_like_unique(offsets, folded):
    # a folded reading's offsets count the 37-event periods of the GCD's 37th
    scale = 37 if folded else 1
    interval = IntervalEstimate(6 * STEP * scale, 6.0 * STEP * scale)
    events = offsets * scale
    nats = reference_nats(offsets, folded)
    assume(not np.isclose(nats, [0.0, 10.0], rtol=0, atol=1e-9).any())
    # CSA#2 needs 74 events, and is never read at the 37th of the gap GCD
    csa2 = nats <= 0 and events[-1] >= 2 * 37 - 1 and not folded
    if nats < 10 and not csa2:
        with pytest.raises(InsufficientDataError,
                           match=f"^{'single-hit ' * folded}classification: .* {nats:.1f} nats"
                           ) as flagged:
            classify_csa(offsets, interval)
        assert ("a CSA#2 verdict" in str(flagged.value)) is not folded
        return
    cls = classify_csa(offsets, interval)
    assert cls.interval == IntervalEstimate(6 * STEP, 6.0 * STEP)
    assert (cls.verdict, cls.period_profile) == (
        (CsaVersion.CSA1, tuple(np.unique(events % 37).tolist())) if nats >= 10
        else (CsaVersion.CSA2, ()))


def test_map_inference_needs_observations():
    with pytest.raises(InsufficientDataError):
        infer_channel_map(np.array([], dtype=np.int64), 0, 0x7D3C, 22)


# ---------------------------------------------------------------------------
# full pipeline


def test_reconstruct_csa2_end_to_end():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    timelines, trace = simulate_one(params, 200 * 10**9, initial_counter=60000)
    report = reconstruct_connection(trace)
    assert report.error is None
    assert report.observation_count == len(trace)
    assert report.classification.verdict is CsaVersion.CSA2
    assert report.classification.interval.interval_us == 12500
    assert report.channel_id == 0x7D3C
    first = trace.timestamps()[0]
    truth = timelines[0].wire_counters()[
        int(np.argmin(np.abs(timelines[0].times_ns - first)))
    ]
    assert report.alignment.k_init == int(truth)
    assert not report.alignment.ambiguous
    assert report.map_estimate.assumed_map.allowed == MAP_10.allowed
    assert report.map_estimate.converged


@st.composite
def probe_draws(draw, csa=CsaVersion.CSA2):
    """(params, trace, true counter at the first observation or None) of a
    ``csa`` connection from the probe space: 1-200 s captures at 7.5-200 ms,
    maps of 2-37 channels holding the sniffed one, timing noise up to 150
    us, drift up to 50 ppm and misses up to a half."""
    sniff, n_ch = draw(st.integers(0, 36)), draw(st.integers(2, 37))
    others = draw(st.permutations([c for c in range(37) if c != sniff]))[:n_ch - 1]
    extra = dict(hop_increment=draw(st.integers(5, 16)),
                 initial_channel=draw(st.integers(0, 36))) if csa is CsaVersion.CSA1 else {}
    params = ConnectionParams(csa, 1250 * draw(st.integers(6, 160)),
                              ChannelMap.from_channels({sniff, *others}),
                              draw(st.integers(0, 0xFFFFFFFF)), **extra)
    duration_ns = draw(st.sampled_from([1, 2, 5, 20, 60, 200])) * 10**9
    timelines, trace = simulate_one(
        params, duration_ns, sniff=sniff, seed=draw(st.integers(0, 2**32 - 1)),
        jitter=draw(st.floats(0.0, 150_000.0)), drift=draw(st.floats(-50.0, 50.0)),
        miss=draw(st.floats(0.0, 0.5)), initial_counter=draw(st.integers(0, 0xFFFF)))
    if len(trace) == 0:
        return params, trace, None
    times = timelines[0].times_ns
    k_true = timelines[0].wire_counters()[np.argmin(np.abs(times - trace.timestamps()[0]))]
    return params, trace, int(k_true)


@settings(max_examples=300)
@given(draw=probe_draws())
def test_converged_maps_are_true_and_proven_exclusions_sound(draw):
    params, trace, k_true = draw
    report = reconstruct_connection(trace)
    est = report.map_estimate
    if report.error or est is None:
        return
    excluded = frozenset(range(37)) - params.channel_map.allowed
    if est.converged:
        assert est.assumed_map == params.channel_map
    if report.alignment.k_init == k_true:
        assert est.proven_excluded <= excluded


@settings(max_examples=500, derandomize=True)
@given(draw=probe_draws(CsaVersion.CSA1))
def test_a_csa1_profile_has_one_phase_iff_the_gap_gcd_is_37_intervals(draw):
    # a one-phase CSA#1 profile is the only reading at the 37th of the gap
    # GCD, so the verdict needs no label of its own
    _, trace, _ = draw
    classification = reconstruct_connection(trace).classification
    if classification is None or classification.verdict is not CsaVersion.CSA1:
        return
    gcd_ns = estimate_interval(trace.connection()[1]).interval_ns
    assert ((len(classification.period_profile) == 1)
            == (gcd_ns == 37 * classification.interval.interval_ns))


def test_simulate_then_reconstruct_builds_no_channel_table(monkeypatch):
    # both ask for the channels of the same CSA#2 connection once each; a
    # one-shot caller never pays for a 65536-entry table
    builds = []
    build = csa._csa2_channel_table
    monkeypatch.setattr(csa, "_csa2_channel_table",
                        lambda *key: builds.append(key) or build(*key))
    csa.csa2_channels_bulk(0, 0x0001, ChannelMap.full())  # forget the last connection
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    _, trace = simulate_one(params, 200 * 10**9, initial_counter=60000)
    report = reconstruct_connection(trace)
    assert report.map_estimate.converged
    assert report.map_estimate.assumed_map == MAP_10
    assert builds == []


def test_reconstruct_csa1_stops_after_classification():
    params = ConnectionParams(CsaVersion.CSA1, 18750, MAP_27, 0x53D39A21,
                              hop_increment=7, initial_channel=3)
    _, trace = simulate_one(params, 120 * 10**9)
    report = reconstruct_connection(trace)
    assert report.error is None
    assert report.classification.verdict is CsaVersion.CSA1
    assert report.classification.interval.interval_us == 18750
    assert report.alignment is None
    assert report.map_estimate is None


def test_off_grid_gate_refuses_every_verdict():
    # at 150 us jitter about one gap in six lands beyond the 300 us tolerance;
    # the gate runs before classification, so a refused report holds the error only
    csa2 = ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0xB0A1CD9D)
    _, trace = simulate_one(csa2, 120 * 10**9, seed=1, jitter=150_000.0)
    report = reconstruct_connection(trace)
    assert report.error == (
        "101 of 610 gaps are more than 300 us off-grid (worst 731 us) for an interval of "
        "7.4999 ms; wrong interval or excessive timing noise")
    assert report.classification is None
    # a single-hit CSA#1 trace with the same jitter, which predict would refuse; its
    # gaps span whole 37-event periods, and the error names the 7.5 ms connection
    # interval, as predict's would, not the 277.5 ms period
    full = ChannelMap.from_channels(range(37))
    csa1 = ConnectionParams(CsaVersion.CSA1, 7500, full, 0x53D39A21,
                            hop_increment=7, initial_channel=3)
    _, trace = simulate_one(csa1, 120 * 10**9, seed=1, jitter=150_000.0)
    report = reconstruct_connection(trace)
    assert report.error == (
        "77 of 432 gaps are more than 300 us off-grid (worst 714 us) for an interval of "
        "7.5001 ms; wrong interval or excessive timing noise")
    assert report.classification is None
    assert "verdict" not in report.to_dict()


def test_reconstruct_captures_estimation_errors():
    report = reconstruct_connection(trace_at([0, 12_500_000]))
    assert report.error is not None
    assert "3 observations" in report.error
    assert report.classification is None


def test_reconstruct_rejects_mixed_addresses():
    mixed = SniffTrace(22, [0, 12_500_000], [0xA, 0xB], [True, True])
    with pytest.raises(ConfigError):
        reconstruct_connection(mixed)


def test_reconstruct_all_merged_trace():
    imp = ImpairmentModel(150 * 10**9, 50_000.0, 10.0, 0.05)
    config = ScenarioConfig(
        (
            ConnectionScenario(
                ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D), imp
            ),
            ConnectionScenario(
                ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0x53D39A21), imp
            ),
        ),
        22, 8,
    )
    _, merged = simulate(config)
    reports = dict(reconstruct_all(merged))
    assert list(reports) == [0x53D39A21, 0xB0A1CD9D]  # ascending address order
    assert reports[0xB0A1CD9D].classification.interval.interval_us == 12500
    assert reports[0x53D39A21].classification.interval.interval_us == 7500
    assert reports[0xB0A1CD9D].map_estimate.assumed_map.allowed == MAP_10.allowed
    assert reports[0x53D39A21].map_estimate.assumed_map.allowed == MAP_27.allowed


@st.composite
def concurrent_connections(draw):
    """2-4 CSA#1 and CSA#2 connections with distinct addresses, short captures;
    a map holds the sniffed channel, or none of its events is captured."""
    sniff = draw(st.integers(0, 36))
    addresses = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4, unique=True))
    connections = []
    for aa in addresses:
        csa = draw(st.sampled_from(list(CsaVersion)))
        extra = dict(hop_increment=draw(st.integers(5, 16)),
                     initial_channel=draw(st.integers(0, 36))) \
            if csa is CsaVersion.CSA1 else {}
        channels = draw(st.sets(st.integers(0, 36), min_size=2))
        if draw(st.booleans()):
            channels.add(sniff)
        params = ConnectionParams(csa, draw(st.integers(6, 40)) * 1250,
                                  ChannelMap.from_channels(channels), aa, **extra)
        impairments = ImpairmentModel(draw(st.integers(0, 30)) * 10**9,
                                      draw(st.floats(0, 150_000)), draw(st.floats(-50, 50)),
                                      draw(st.floats(0, 0.5)))
        connections.append(ConnectionScenario(params, impairments,
                                              start_offset_ns=draw(st.integers(0, 5 * 10**9)),
                                              initial_counter=draw(st.integers(0, 0xFFFF))))
    return ScenarioConfig(connections, sniff, draw(st.integers(0, 2**32)))


@settings(max_examples=60)
@given(config=concurrent_connections())
def test_merged_trace_reconstructs_as_isolated_traces(config):
    # acceptance criterion 10 as a property; a connection with no captured
    # packet is absent from the merged trace, so it has no merged report
    _, merged = simulate(config)
    merged_reports = {aa: report.to_dict() for aa, report in reconstruct_all(merged)}
    isolated_reports = {}
    for conn in config.connections:
        _, alone = simulate(ScenarioConfig((conn,), config.sniff_channel, config.rng_seed))
        if len(alone):
            isolated_reports[conn.params.access_address] = reconstruct_connection(alone).to_dict()
    assert merged_reports == isolated_reports


def test_reconstruct_all_names_a_peripheral_only_connection():
    # 0xC sends peripheral packets only: its part is empty, its report failed
    trace = SniffTrace(22, [100, 200, 300, 400, 500], [0xC, 0xB, 0xA, 0xA, 0xC],
                       [False, True, True, True, False])
    reports = list(reconstruct_all(trace))
    assert [aa for aa, _ in reports] == [0xA, 0xB, 0xC]
    assert [report.access_address for _, report in reports] == [0xA, 0xB, 0xC]
    empty = reports[2][1].to_dict()
    assert empty["access_address"] == "0x0000000C"
    assert empty["observation_count"] == 0
    assert "got 0" in empty["error"]


def test_reconstruct_all_holds_one_part_at_a_time(monkeypatch):
    # each connection's central packets are copied out just before its
    # reconstruction: no other connection's copy is alive during the call
    addresses = [0xA, 0xB, 0xC, 0xD]
    merged = SniffTrace(22, np.arange(40) * 6 * STEP, addresses * 10, [True] * 40)
    existing = {id(o) for o in gc.get_objects() if isinstance(o, SniffTrace)}
    others_alive = []

    def checked(part):
        others_alive.append(sum(isinstance(o, SniffTrace) and id(o) not in existing
                                and o is not part for o in gc.get_objects()))
        return reconstruct_connection(part)

    monkeypatch.setattr(reconstruct, "reconstruct_connection", checked)
    assert [aa for aa, _ in reconstruct_all(merged)] == addresses
    assert others_alive == [0] * len(addresses)


def test_report_dict_round_trip():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    _, trace = simulate_one(params, 120 * 10**9, jitter=50_000.0)
    report = reconstruct_connection(trace)
    raw = json.loads(json.dumps(report.to_dict()))
    rebuilt = ReconstructionReport.from_dict(raw)
    assert rebuilt.access_address == report.access_address
    assert rebuilt.classification.verdict is report.classification.verdict
    assert rebuilt.classification.interval.interval_us == \
        report.classification.interval.interval_us
    assert rebuilt.alignment.k_init == report.alignment.k_init
    assert rebuilt.map_estimate.assumed_map.allowed == \
        report.map_estimate.assumed_map.allowed
    assert rebuilt.to_dict() == raw


def test_report_dict_round_trip_single_hit_csa1():
    # the gap GCD is 37 intervals; the report holds the corrected interval only
    full = ChannelMap.from_channels(range(37))
    params = ConnectionParams(CsaVersion.CSA1, 12500, full, 0x53D39A21,
                              hop_increment=7, initial_channel=3)
    _, trace = simulate_one(params, 120 * 10**9, jitter=50_000.0)
    report = reconstruct_connection(trace)
    assert (report.classification.verdict, report.classification.period_profile) == (
        CsaVersion.CSA1, (0,))
    raw = json.loads(json.dumps(report.to_dict()))
    assert raw["interval_us"] == 12500
    rebuilt = ReconstructionReport.from_dict(raw)
    assert rebuilt.classification.interval.interval_us == 12500
    assert rebuilt.to_dict() == raw


def test_report_dict_round_trip_with_error():
    report = reconstruct_connection(trace_at([0, 12_500_000]))
    rebuilt = ReconstructionReport.from_dict(report.to_dict())
    assert rebuilt.error == report.error
    assert rebuilt.classification is None


@settings(max_examples=60)
@given(csa=st.sampled_from(list(CsaVersion)), interval_steps=st.integers(6, 40),
       others=st.sets(st.integers(0, 36).filter(lambda c: c != 22), min_size=1),
       events=st.integers(0, 4000),
       aa=st.integers(0, 2**32 - 1), miss=st.floats(0, 0.5), seed=st.integers(0, 0xFFFF))
def test_report_json_round_trip_is_exact(csa, interval_steps, others, events, aa, miss, seed):
    # CSA#1 and CSA#2 reports of the sniffed channel 22, with and without a
    # verdict, an alignment or a map
    extra = dict(hop_increment=5 + seed % 12, initial_channel=seed % 37) \
        if csa is CsaVersion.CSA1 else {}
    params = ConnectionParams(csa, interval_steps * 1250,
                              ChannelMap.from_channels(others | {22}), aa, **extra)
    _, trace = simulate_one(params, events * params.interval_ns, seed=seed, jitter=50_000.0,
                            miss=miss, initial_counter=seed)
    report = reconstruct_connection(trace)
    text = json.dumps(report.to_dict())
    assert json.dumps(ReconstructionReport.from_dict(json.loads(text)).to_dict()) == text
