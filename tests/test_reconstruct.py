"""Unit tests for parameter recovery from single-channel traces."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ReconstructionReport,
    ScenarioConfig,
    SniffTrace,
    Verdict,
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
from blehop import csa

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


# ---------------------------------------------------------------------------
# interval estimation


def test_interval_from_two_gaps():
    # 187.5 ms and 90 ms gaps share the 7.5 ms interval (25 and 12 events)
    est = estimate_interval(trace_at([0, 187_500_000, 277_500_000]))
    assert est.interval_us == 7500
    assert est.raw_interval_ns == pytest.approx(7_500_000)
    assert est.offsets.dtype == np.int64
    assert est.offsets.tolist() == [0, 25, 37]


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
    est = estimate_interval(trace_at([0, gap, 3 * gap, 4 * gap]))
    assert est.interval_ns == gap
    assert est.offsets.tolist() == [0, 1, 3, 4]


def test_interval_gcd_above_maximum_rejected_otherwise():
    gap = 3300 * STEP  # 4.125 s, not divisible by 37
    with pytest.raises(EstimationError, match="above the 4 s maximum"):
        estimate_interval(trace_at([0, gap, 2 * gap]))


def test_interval_tolerance_is_adjustable():
    times = [0, 12_500_000 + 400_000, 25_000_000 + 400_000, 37_500_000]
    with pytest.raises(EstimationError):
        estimate_interval(trace_at(times), tolerance_ns=100_000)
    est = estimate_interval(trace_at(times), tolerance_ns=450_000)
    assert est.interval_us == 12500


# ---------------------------------------------------------------------------
# algorithm classification


def test_classify_single_hit_divides_by_37():
    gap = 37 * 6 * STEP  # one hit per period at 7.5 ms
    trace = trace_at(np.arange(6) * gap)
    est = estimate_interval(trace)
    cls = classify_csa(trace, est)
    assert cls.verdict is Verdict.CSA1_SINGLE_HIT
    assert cls.interval.interval_us == 7500
    assert cls.interval.raw_interval_ns == pytest.approx(7_500_000)
    assert cls.interval.offsets.tolist() == [0, 37, 74, 111, 148, 185]
    assert cls.period_profile == (0,)


def test_classify_single_hit_needs_five_observations():
    # a 1 s CSA#2 capture whose two gaps are both 222 grid steps (6 * 37):
    # too few gaps to tell a single-hit CSA#1 pattern from a CSA#2 alias
    trace = trace_at([285_027_370, 562_400_018, 839_977_150], sniff=26, aa=0x897845EF)
    with pytest.raises(InsufficientDataError, match="got 3"):
        classify_csa(trace, estimate_interval(trace))
    report = reconstruct_connection(trace)
    assert report.classification is None
    assert "got 3" in report.error


def test_classify_repeating_profile():
    params = ConnectionParams(CsaVersion.CSA1, 7500, MAP_27, 0x22334455,
                              hop_increment=7, initial_channel=0)
    _, trace = simulate_one(params, 10 * 37 * 7_500_000, sniff=10)
    est = estimate_interval(trace)
    cls = classify_csa(trace, est)
    assert cls.verdict is Verdict.CSA1_REPEATING
    assert cls.period_profile == (0, 25)
    assert cls.interval.interval_us == 7500


def test_classify_csa2():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_27, 0xB0A1CD9D)
    _, trace = simulate_one(params, 60 * 10**9)
    est = estimate_interval(trace)
    cls = classify_csa(trace, est)
    assert cls.verdict is Verdict.CSA2
    assert cls.period_profile == ()
    assert cls.interval is est


def test_classify_csa1_with_misses_as_repeating():
    # 10 % misses put a CSA#1 connection's (period, phase) grid fill near
    # 0.9; every one of these must still read as CSA#1.
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
        if np.count_nonzero(channel_sequence(params, 0, 37) == sniff) < 2:
            continue  # a single-hit profile takes the 37-fold GCD branch instead
        _, trace = simulate_one(params, 60 * 10**9, sniff=sniff, seed=seed,
                                jitter=50_000.0, miss=0.1)
        verdicts.append(classify_csa(trace, estimate_interval(trace)).verdict)
    assert verdicts == [Verdict.CSA1_REPEATING] * 50


def test_classify_short_csa2_trace():
    params = ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0xB0A1CD9D)
    _, trace = simulate_one(params, 2 * 10**9, jitter=50_000.0, miss=0.1)
    est = estimate_interval(trace)
    assert classify_csa(trace, est).verdict is Verdict.CSA2


def test_classify_needs_two_periods():
    trace = trace_at([0, 25 * 6 * STEP, 37 * 6 * STEP])  # spans one period only
    est = estimate_interval(trace)
    assert est.interval_us == 7500
    with pytest.raises(InsufficientDataError):
        classify_csa(trace, est)


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


def test_observation_offsets_tolerate_rare_jitter_outlier():
    # one gap 400 us off-grid among 40 clean ones: a noise outlier, not a
    # wrong interval, and far too small to shift its rounding
    times = np.arange(41, dtype=np.int64) * 3 * 12_500_000
    times[20] += 400_000
    offsets = observation_offsets(trace_at(times), 12_500_000, tolerance_ns=300_000)
    assert offsets.tolist() == (np.arange(41) * 3).tolist()


def test_observation_offsets_reject_single_far_off_grid_gap():
    # a gap beyond 4x the tolerance cannot be rounded with confidence
    times = np.arange(41, dtype=np.int64) * 3 * 12_500_000
    times[20] += 1_500_000
    with pytest.raises(EstimationError, match="off-grid"):
        observation_offsets(trace_at(times), 12_500_000, tolerance_ns=300_000)


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


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
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


def test_alignment_matches_direct_correlation():
    # the FFT path must reproduce the literal shifted-sum definition exactly
    rng = np.random.default_rng(4)
    ref = build_ref_vector(0x7D3C, 22)
    doubled = np.concatenate([ref, ref]).astype(np.int64)
    for n in (3, 40, 500):
        positions = np.sort(rng.choice(65536, size=n, replace=False))
        correlation = np.zeros(65536, dtype=np.int64)
        for m in positions:
            correlation += doubled[m:m + 65536]
        peak = int(correlation.max())
        result = align_counter(positions, ref)
        assert result.correlation_peak == peak
        assert result.candidates == tuple(np.flatnonzero(correlation == peak).tolist())
        # the largest score once the candidates are left out, or the peak on a tie
        rest = np.delete(correlation, result.candidates)
        second = peak if result.ambiguous else int(rest.max())
        assert result.second_peak == second


def test_alignment_rejects_bad_inputs():
    ref = build_ref_vector(0x7D3C, 22)
    with pytest.raises(EstimationError):
        align_counter(np.zeros(0, dtype=np.int64), ref)
    with pytest.raises(ConfigError):
        align_counter(np.arange(10), ref[:100])


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


def test_map_inference_full_map_converges_immediately():
    cmap = ChannelMap.full()
    ci, sniff, k_init = channel_identifier(0x53D39A21), 17, 100
    offsets = _csa2_observation_offsets(cmap, ci, k_init, 2000, sniff)
    est = infer_channel_map(offsets, k_init, ci, sniff)
    assert est.proven_excluded == frozenset()
    assert est.assumed_map.allowed == cmap.allowed
    assert est.converged
    assert est.unexplained_remaps == 0


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
    assert report.classification.verdict is Verdict.CSA2
    assert report.classification.interval.interval_us == 12500
    assert report.channel_id == 0x7D3C
    first = trace.observations[0].timestamp_ns
    truth = timelines[0].wire_counters()[
        int(np.argmin(np.abs(timelines[0].times_ns - first)))
    ]
    assert report.alignment.k_init == int(truth)
    assert not report.alignment.ambiguous
    assert report.map_estimate.assumed_map.allowed == MAP_10.allowed
    assert report.map_estimate.converged


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
    assert report.classification.verdict in (Verdict.CSA1_SINGLE_HIT,
                                             Verdict.CSA1_REPEATING)
    assert report.classification.interval.interval_us == 18750
    assert report.alignment is None
    assert report.map_estimate is None


def test_off_grid_gate_refuses_csa2_verdicts_only():
    # at 150 us jitter about one gap in six lands beyond the 300 us tolerance
    csa2 = ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0xB0A1CD9D)
    _, trace = simulate_one(csa2, 120 * 10**9, seed=1, jitter=150_000.0)
    report = reconstruct_connection(trace)
    assert report.error == (
        "101 of 610 gaps are more than 300 us off-grid (worst 731 us) for an interval of "
        "7.4999 ms; wrong interval or excessive timing noise")
    assert report.classification.verdict is Verdict.CSA2
    assert report.alignment is None
    # a CSA#1 verdict stops before the gate, so the same jitter still gets one
    full = ChannelMap.from_channels(range(37))
    csa1 = ConnectionParams(CsaVersion.CSA1, 7500, full, 0x53D39A21,
                            hop_increment=7, initial_channel=3)
    _, trace = simulate_one(csa1, 120 * 10**9, seed=1, jitter=150_000.0)
    report = reconstruct_connection(trace)
    assert report.error is None
    assert report.classification.verdict is Verdict.CSA1_SINGLE_HIT


def test_reconstruct_captures_estimation_errors():
    report = reconstruct_connection(trace_at([0, 12_500_000]))
    assert report.error is not None
    assert "3 observations" in report.error
    assert report.interval is None


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
    reports = reconstruct_all(merged)
    assert set(reports) == {0xB0A1CD9D, 0x53D39A21}
    assert reports[0xB0A1CD9D].classification.interval.interval_us == 12500
    assert reports[0x53D39A21].classification.interval.interval_us == 7500
    assert reports[0xB0A1CD9D].map_estimate.assumed_map.allowed == MAP_10.allowed
    assert reports[0x53D39A21].map_estimate.assumed_map.allowed == MAP_27.allowed


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


def test_report_dict_round_trip_with_error():
    report = reconstruct_connection(trace_at([0, 12_500_000]))
    rebuilt = ReconstructionReport.from_dict(report.to_dict())
    assert rebuilt.error == report.error
    assert rebuilt.classification is None
