"""Unit tests for drift tracking, forecasting, and evaluation."""

import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import blehop.predict
from blehop import (
    AmbiguousAlignmentError,
    ChannelMap,
    ConfigError,
    ConnectionParams,
    ConnectionScenario,
    CounterAlignment,
    CsaClassification,
    CsaVersion,
    EstimationError,
    EvalReport,
    EventTimeline,
    Forecast,
    ImpairmentModel,
    InsufficientDataError,
    IntervalEstimate,
    MapEstimate,
    ReconstructionReport,
    ScenarioConfig,
    SniffTrace,
    channel_identifier,
    connections,
    csa2_channels_bulk,
    evaluate,
    init_sync,
    kalman_update,
    observation_offsets,
    predict_event_time,
    predict_events,
    reconstruct_connection,
    run_prediction,
    simulate,
)

MAP_27 = ChannelMap.from_hex("0x1FFFFFFC00")
MAP_10 = ChannelMap.from_hex("0x1E00E00700")


def track(times_ns, hops, interval_ns, **kwargs):
    sync = init_sync(times_ns[0], interval_ns, **kwargs)
    for t, h in zip(times_ns[1:], hops):
        sync = kalman_update(sync, t, h)
    return sync


def forecast_of(rows, counters_are_wire=True):
    """A forecast from (counter, channel, time_ns, time_std_ns) rows."""
    counters, channels, times, stds = np.array(rows, dtype=float).reshape(-1, 4).T
    return Forecast(counters.astype(np.int64), channels.astype(np.int64), times, stds,
                    counters_are_wire)


def simulate_one(params, duration_ns, sniff=22, seed=3, jitter=0.0, drift=0.0,
                 miss=0.0, initial_counter=0):
    config = ScenarioConfig(
        (ConnectionScenario(params, ImpairmentModel(duration_ns, jitter, drift, miss),
                            initial_counter=initial_counter),),
        sniff, seed,
    )
    return simulate(config)


# ---------------------------------------------------------------------------
# the tracker


def test_noiseless_tracking_is_exact():
    interval = 12_500_000
    times = np.arange(50) * interval
    sync = track(times, [1] * 49, interval)
    assert sync.anchor_offset == 49
    assert sync.n == 50
    pred, std = predict_event_time(sync, 60)
    assert pred == pytest.approx(60 * interval, abs=1e-3)
    assert std < 1e-3  # no residual: the fit measures no noise


def test_tracker_converges_onto_clock_drift():
    ppm = 20.0
    true_step = 12_500_000 * (1 + ppm * 1e-6)
    times = np.rint(np.arange(200) * true_step)
    # the reference line runs at the nominal interval; the fit finds the drift
    sync = track(times, [1] * 199, 12_500_000)
    pred, _ = predict_event_time(sync, 240)
    assert pred == pytest.approx(240 * true_step, abs=2)


def test_tracker_handles_multi_event_gaps():
    interval = 7_500_000
    rng = np.random.default_rng(2)
    hops = rng.integers(1, 45, size=150)
    offsets = np.concatenate([[0], np.cumsum(hops)])
    times = offsets * interval + np.rint(rng.normal(0, 50_000, offsets.size))
    sync = track(times, hops, interval)
    pred, std = predict_event_time(sync, int(offsets[-1]) + 10)
    assert abs(pred - (offsets[-1] + 10) * interval) < 5 * std


def test_tracker_matches_least_squares_oracle():
    interval = 7_500_000
    rng = np.random.default_rng(11)
    hops = rng.integers(1, 40, size=200)
    offsets = np.concatenate([[0], np.cumsum(hops)])
    times = offsets * interval * (1 + 20e-6) + np.rint(rng.normal(0, 50_000, offsets.size))
    times[120] += 5_000_000  # an outlier is fitted like any other point
    # the reference line is off the data by 20 ppm and the first point's noise
    sync = init_sync(times[0], interval)
    for j in range(1, offsets.size):
        sync = kalman_update(sync, times[j], int(hops[j - 1]))
        assert sync.anchor_offset == offsets[j]
        if j < 2:
            continue
        x = np.stack([np.ones(j + 1), offsets[:j + 1]], axis=1).astype(float)
        coef, rss, _, _ = np.linalg.lstsq(x, times[:j + 1], rcond=None)
        noise = rss[0] / (j - 1) if rss.size else 0.0
        targets = np.array([offsets[j], offsets[j] + 1, offsets[j] + 5_000])
        cov = noise * np.linalg.inv(x.T @ x)
        design = np.stack([np.ones(targets.size), targets], axis=1)
        want_std = np.sqrt(np.einsum("ij,jk,ik->i", design, cov, design))
        got, got_std = predict_event_time(sync, targets)
        np.testing.assert_allclose(got, design @ coef, rtol=1e-9)
        np.testing.assert_allclose(got_std, want_std, rtol=1e-9, atol=1e-3)


def test_prediction_uncertainty_grows_with_horizon():
    interval = 12_500_000
    rng = np.random.default_rng(5)
    times = np.arange(20) * interval + np.rint(rng.normal(0, 50_000, 20))
    sync = track(times, [1] * 19, interval)
    stds = [predict_event_time(sync, h)[1] for h in (20, 50, 200, 1000)]
    assert stds == sorted(stds)
    assert stds[0] > 0


def _short_run_inputs():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    _, trace = simulate_one(params, 60 * 10**9)
    return trace, reconstruct_connection(trace)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: run_prediction(*_short_run_inputs(), train_ns=NAN),
    lambda: evaluate(forecast_of([(0, 0, 0.0, 1.0)]), timeline_for(CSA2_PARAMS, 5), NAN),
    lambda: init_sync(0, NAN),
    lambda: kalman_update(init_sync(0, 12_500_000), 12_500_000, NAN),
    lambda: ImpairmentModel(duration_ns=NAN),
    # a non-finite timestamp would leave every later prediction NaN
    lambda: init_sync(NAN, 12_500_000),
    lambda: init_sync(-INF, 12_500_000),
    lambda: kalman_update(init_sync(0, 12_500_000), NAN, 1),
    lambda: kalman_update(init_sync(0, 12_500_000), INF, 1),
], ids=["run_prediction", "evaluate", "init_sync", "kalman_update", "ImpairmentModel",
        "init_sync-time-nan", "init_sync-time-inf", "kalman_update-time-nan",
        "kalman_update-time-inf"])
def test_nan_is_refused_where_a_sign_check_would_let_it_through(call):
    with pytest.raises(ConfigError):
        call()


def test_update_validation():
    sync = init_sync(0, 12_500_000)
    with pytest.raises(ConfigError):
        kalman_update(sync, 1000.0, 0)
    with pytest.raises(ConfigError):
        init_sync(0, 0)
    # a line and its noise need 3 observations
    for fused in range(2):
        with pytest.raises(InsufficientDataError, match="needs 3"):
            predict_event_time(sync, 5)
        sync = kalman_update(sync, (fused + 1) * 12_500_000.0, 1)
    assert predict_event_time(sync, 5) == (62_500_000.0, 0.0)


def test_scalar_prediction_equals_the_array_element():
    interval = 7_500_000
    rng = np.random.default_rng(4)
    hops = rng.integers(1, 40, size=100)
    offsets = np.concatenate([[0], np.cumsum(hops)])
    times = offsets * interval * (1 + 20e-6) + np.rint(rng.normal(0, 50_000, offsets.size))
    sync = track(times, hops, interval)
    targets = [sync.anchor_offset + 1, sync.anchor_offset + 37, sync.anchor_offset + 3_000_000]
    array_times, array_stds = predict_event_time(sync, np.array(targets))
    for i, target in enumerate(targets):
        for offset in (target, np.int64(target)):
            pred, std = predict_event_time(sync, offset)
            assert type(pred) is float and type(std) is float
            assert pred.hex() == float(array_times[i]).hex()
            assert std.hex() == float(array_stds[i]).hex()


def test_update_keeps_python_scalars_in_the_state():
    interval = 12_500_000
    sync = init_sync(np.int64(0), np.int64(interval))
    for j in range(1, 4):
        sync = kalman_update(sync, np.int64(j * interval + 1_000), np.int64(1))
    # an integer first timestamp stays the int origin
    assert [type(v) for v in sync] == [int, float, int] + [float] * 5 + [int]


@pytest.mark.parametrize("stamp", [int, np.int64])
def test_the_live_tracker_is_exact_at_unix_epoch_scale(stamp):
    # 200 noiseless 7.5 ms stamps from 1.7e18 ns: with a float origin and each
    # stamp made a float first, event 300 read sigma 19.3 ns instead of 0
    start, interval = 1_700_000_000 * 10**9, 7_500_000
    sync = init_sync(stamp(start), interval)
    for k in range(1, 200):
        sync = kalman_update(sync, stamp(start + k * interval), 1)
    time_ns, std_ns = predict_event_time(sync, 300)
    assert std_ns == 0.0
    # the nearest float: 128 ns, half of float64's spacing here, below the event
    assert time_ns == float(start + 300 * interval) == start + 300 * interval - 128


def _bits(sync):
    return [float(value).hex() for value in sync]


@settings(max_examples=200)
@given(first=st.integers(-2**52, 2**52 - 10**12), interval=st.integers(7_500_000, 4 * 10**9),
       hops=st.lists(st.integers(1, 40), min_size=3, max_size=20),
       noise=st.lists(st.integers(-10**6, 10**6), min_size=20, max_size=20),
       stamp=st.sampled_from([int, np.int64]))
def test_integer_stamps_below_2_53_track_as_their_floats(first, interval, hops, noise, stamp):
    # below 2**53 each stamp and each difference of two is exact as a float, so
    # the int origin changes no state and no prediction of the float tracker
    offsets = np.cumsum([0, *hops])
    stamps = [first + int(h) * interval + e for h, e in zip(offsets, noise)]
    assume(max(map(abs, stamps)) < 2**53)
    exact = init_sync(stamp(stamps[0]), interval)
    floats = init_sync(float(stamps[0]), float(interval))
    for t, h in zip(stamps[1:], hops):
        exact = kalman_update(exact, stamp(t), h)
        floats = kalman_update(floats, float(t), h)
        assert _bits(exact) == _bits(floats)
    for target in (exact.anchor_offset + 1, exact.anchor_offset + 10**6):
        assert ([v.hex() for v in predict_event_time(exact, target)]
                == [v.hex() for v in predict_event_time(floats, target)])


@pytest.mark.parametrize("stamp", [int, np.int64])
@pytest.mark.parametrize("first, later", [(-2**63, 2**63 - 1), (2**63 - 1, -2**63),
                                          (-2**63, -2**63 + 7_500_001)])
def test_any_two_int64_stamps_are_taken_apart_exactly(stamp, first, later):
    # a NumPy int64 difference would wrap on the first two, with a
    # RuntimeWarning; two floats would put the last residual 225 ns off
    sync = kalman_update(init_sync(stamp(first), 7_500_000), stamp(later), 1)
    assert sync.sum_r == float(later - first) - 7_500_000


def test_sync_state_is_immutable():
    sync = init_sync(0, 12_500_000)
    with pytest.raises(AttributeError):
        sync.n = 3


@settings(max_examples=30)
@given(csa=st.sampled_from(list(CsaVersion)), interval_steps=st.integers(6, 40),
       jitter=st.floats(0, 150_000), drift=st.floats(-50, 50),
       walk=st.sampled_from([0.0, 0.03]), miss=st.floats(0, 0.3), seed=st.integers(0, 2**16))
def test_vectorized_one_step_predictions_equal_the_live_loop(
        csa, interval_steps, jitter, drift, walk, miss, seed):
    extra = dict(hop_increment=7, initial_channel=3) if csa is CsaVersion.CSA1 else {}
    params = ConnectionParams(csa, interval_steps * 1250, MAP_27, 0xB0A1CD9D, **extra)
    duration = 3000 * params.interval_ns
    config = ScenarioConfig((ConnectionScenario(params, ImpairmentModel(
        duration, jitter, drift, miss, walk)),), 22, seed)
    _, trace = simulate(config)
    recon = reconstruct_connection(trace)
    assume(recon.error is None)
    calls = []
    real_fit = blehop.predict._fit

    def recording_fit(sync, h):
        calls.append((sync, real_fit(sync, h)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blehop.predict, "_fit", recording_fit)
        try:
            run = run_prediction(trace, recon, train_ns=duration // 3)
        except EstimationError:
            assume(False)
    # one fit for the one-step predictions, then one for the forecast; the
    # fit gives times from the origin, the live prediction adds the origin
    (_, (one_step, _)), (anchor, _) = calls
    raw_interval = recon.classification.interval.raw_interval_ns
    ts, offsets = trace.timestamps(), observation_offsets(trace, raw_interval)
    n_train = ts.size - run.report.matched
    sync, loop = init_sync(ts[0], raw_interval), []
    for j in range(1, ts.size):
        if j == n_train:
            assert sync._replace(origin_ns=0) == anchor  # the forecast's fit, from the origin
        if j >= n_train:
            loop.append(predict_event_time(sync, int(offsets[j]))[0].hex())
        sync = kalman_update(sync, ts[j], int(offsets[j]) - sync.anchor_offset)
    assert loop == [(sync.origin_ns + t).hex() for t in one_step.tolist()]


# ---------------------------------------------------------------------------
# forecasts


def make_sync(interval=12_500_000):
    """A tracker fitted to three noiseless events at offsets 0, 1 and 2."""
    return track(np.arange(3) * interval, [1, 1], interval)


EST = IntervalEstimate(12_500_000, 12_500_000.0)


def csa2_report(candidates, channel_map, address=0xB0A1CD9D):
    """A CSA#2 report with these alignment candidates and this map."""
    excluded = {c: 1 for c in range(37) if c not in channel_map}
    return ReconstructionReport(address, 22, 100, 0, None,
                                CsaClassification(CsaVersion.CSA2, (), EST),
                                CounterAlignment(10, 1, tuple(candidates)),
                                MapEstimate(excluded, True, 0))


def csa1_report(profile, sniff=10, address=0x53D39A21):
    return ReconstructionReport(address, sniff, 100, 0, None,
                                CsaClassification(CsaVersion.CSA1, tuple(profile), EST))


def test_predict_csa2_channels_match_selection():
    ci = channel_identifier(0xB0A1CD9D)
    sync = make_sync()
    fc = predict_events(csa2_report([60000], MAP_10), sync, 200)
    assert len(fc) == 200
    assert fc.counters_are_wire
    assert fc.access_address == 0xB0A1CD9D
    assert fc.counters[0] == 60003  # the event after the anchor, offset 2
    expected = csa2_channels_bulk(fc.counters, ci, MAP_10)
    assert fc.channels.tolist() == expected.tolist()
    assert np.allclose(fc.times_ns, np.arange(3, 203) * 12_500_000)


def test_predict_csa2_wraps_counter():
    fc = predict_events(csa2_report([65528], MAP_27), make_sync(), 10)
    assert fc.counters.tolist() == [65531, 65532, 65533, 65534, 65535, 0, 1, 2, 3, 4]


def test_predict_csa2_channel_filter():
    # run_prediction hands its channel to predict_events, which keeps one channel's rows
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    _, trace = simulate_one(params, 60 * 10**9)
    recon = reconstruct_connection(trace)
    full = run_prediction(trace, recon, train_ns=20 * 10**9, horizon=500).forecast
    on_22 = run_prediction(trace, recon, train_ns=20 * 10**9, horizon=500, channel=22).forecast
    assert len(full) == 500
    assert 0 < len(on_22) < 500
    assert on_22.counters_are_wire
    keep = full.channels == 22
    for got, want in zip(on_22.columns(), full.columns()):
        np.testing.assert_array_equal(got, want[keep])


def test_predict_csa2_refuses_ambiguous_alignment():
    with pytest.raises(AmbiguousAlignmentError):
        predict_events(csa2_report([5, 1000], MAP_27), make_sync(), 10)


def test_predict_csa1_phase_profile():
    report = csa1_report((0, 25))
    fc = predict_events(report, make_sync(), 74)
    assert not fc.counters_are_wire
    assert fc.access_address == 0x53D39A21
    assert fc.counters.tolist() == [25, 37, 62, 74]
    assert fc.channels.tolist() == [10] * 4
    # the verdict picks the rule: the same report read as CSA#2 has no alignment
    csa2 = dataclasses.replace(report, classification=CsaClassification(CsaVersion.CSA2, (), EST))
    with pytest.raises(EstimationError, match="no counter alignment"):
        predict_events(csa2, make_sync(), 5)


def test_predict_events_refuses_each_report_it_cannot_forecast():
    sync, report = make_sync(), csa2_report([60000], MAP_10)
    refusals = [
        (dataclasses.replace(report, alignment=None), EstimationError, "no counter alignment"),
        (dataclasses.replace(report, map_estimate=None), EstimationError, "no channel map"),
        # a failed report has no verdict to read, and says why it failed
        (ReconstructionReport(0xB0A1CD9D, 22, 2, 0, "too few observations"), EstimationError,
         "reconstruction failed: too few observations"),
        # an ambiguous alignment is refused before a map is looked for, as before
        (dataclasses.replace(report, alignment=CounterAlignment(2, 2, (5, 1000)),
                             map_estimate=None), AmbiguousAlignmentError, "2 tied candidates"),
    ]
    for bad, kind, needle in refusals:
        with pytest.raises(kind, match=needle):
            predict_events(bad, sync, 10)
    with pytest.raises(InsufficientDataError, match="needs 3"):
        predict_events(report, init_sync(0, 12_500_000), 10)
    for channel in (-1, 37):
        with pytest.raises(ConfigError, match="channel"):
            predict_events(report, sync, 10, channel)


@settings(max_examples=100)
@given(csa2=st.booleans(), k_init=st.integers(0, 65535),
       channels=st.sets(st.integers(0, 36), min_size=2),
       profile=st.sets(st.integers(0, 36), min_size=1, max_size=20),
       sniff=st.integers(0, 36), anchor=st.integers(2, 10**6), horizon=st.integers(0, 400),
       interval=st.floats(7_500_000, 4e9), origin=st.integers(-10**18, 10**18))
def test_a_channel_filter_keeps_the_unfiltered_forecasts_rows(
        csa2, k_init, channels, profile, sniff, anchor, horizon, interval, origin):
    if csa2:
        report = csa2_report([k_init], ChannelMap.from_channels(channels))
    else:
        report = csa1_report(sorted(profile), sniff)
    rng = np.random.default_rng(anchor)
    offsets = np.sort(rng.choice(anchor + 1, 3, replace=False))
    offsets[0], offsets[-1] = 0, anchor
    times = origin + np.rint(offsets * interval + rng.normal(0, 50_000, 3)).astype(np.int64)
    sync = track(times.tolist(), np.diff(offsets).tolist(), interval)
    full = predict_events(report, sync, horizon)
    if csa2:
        assert len(full) == horizon
    else:
        assert set(full.channels.tolist()) <= {sniff}
    for channel in range(37):
        on_channel = predict_events(report, sync, horizon, channel)
        keep = full.channels == channel
        for got, want in zip(on_channel.columns(), full.columns()):
            np.testing.assert_array_equal(got, want[keep])
        assert (on_channel.counters_are_wire, on_channel.access_address) == (
            full.counters_are_wire, full.access_address)


# ---------------------------------------------------------------------------
# evaluation


def timeline_for(params, count, initial_counter=0):
    counters = initial_counter + np.arange(count, dtype=np.int64)
    channels = csa2_channels_bulk(counters % 65536,
                                  channel_identifier(params.access_address),
                                  params.channel_map)
    times = counters * params.interval_ns
    return EventTimeline(params, counters, channels, times)


CSA2_PARAMS = ConnectionParams(CsaVersion.CSA2, 12500, MAP_27, 0xB0A1CD9D)


def test_evaluate_against_timeline_scores_errors():
    timeline = timeline_for(CSA2_PARAMS, 100)
    rows = [
        (timeline.counters[i], timeline.channels[i], timeline.times_ns[i] + err, 1000.0)
        for i, err in ((10, 3000.0), (11, -4000.0), (12, 0.0))
    ]
    report = evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)
    assert report.matched == 3
    assert report.rmse_ns == pytest.approx(np.sqrt((3000**2 + 4000**2) / 3))
    assert report.channel_mismatches == 0
    assert report.missed_predictions == 0
    assert report.unmatched_references == 97


def test_evaluate_against_timeline_detects_channel_mismatch():
    timeline = timeline_for(CSA2_PARAMS, 50)
    wrong = (int(timeline.channels[5]) + 1) % 37
    rows = [(5, wrong, timeline.times_ns[5], 1.0)]
    report = evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)
    assert report.channel_mismatches == 1


def test_evaluate_against_timeline_disambiguates_wraps():
    # two events share wire counter 5 (one counter period apart); the
    # prediction must be scored against the nearer one
    counters = np.array([5, 5 + 65536], dtype=np.int64)
    times = counters * CSA2_PARAMS.interval_ns
    channels = csa2_channels_bulk(counters % 65536, 0x7D3C, MAP_27)
    timeline = EventTimeline(CSA2_PARAMS, counters, channels, times)
    near_second = float(times[1]) + 2000.0
    report = evaluate(
        forecast_of([(5, channels[1], near_second, 1.0)]),
        timeline, CSA2_PARAMS.interval_ns,
    )
    assert report.rmse_ns == pytest.approx(2000.0)


def test_evaluate_counts_missed_predictions():
    timeline = timeline_for(CSA2_PARAMS, 10)
    rows = [(9999, 0, 1e12, 1.0)]  # long after the last event
    with pytest.raises(EstimationError):
        evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)
    rows.insert(0, (3, timeline.channels[3], timeline.times_ns[3], 1.0))
    report = evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)
    assert report.missed_predictions == 1
    assert report.matched == 1


def test_evaluate_against_trace_by_time():
    interval = 12_500_000
    obs_times = [0, 2 * interval, 5 * interval]
    trace = SniffTrace(22, obs_times, [0xB0A1CD9D] * 3, [True] * 3)
    rows = [
        (0, 22, 0.0 + 1000, 1.0),
        (2, 22, 2.0 * interval - 500, 1.0),
        (3, 22, 3.0 * interval, 1.0),       # no matching observation
        (5, 22, 5.0 * interval + 9_000_000, 1.0),  # beyond half interval
    ]
    report = evaluate(forecast_of(rows, counters_are_wire=False), trace, interval)
    assert report.matched == 2
    assert sorted(np.round(report.abs_errors_ns).tolist()) == [500, 1000]
    assert report.missed_predictions == 2
    assert report.unmatched_references == 1


def test_evaluate_against_trace_compares_the_sniffed_channel():
    # every central packet was heard on the trace's sniffed channel
    interval = 12_500_000
    trace = SniffTrace(22, [0, 2 * interval, 5 * interval], [0xB0A1CD9D] * 3, [True] * 3)
    rows = [(0, 22, 0.0, 1.0), (2, 22, 2.0 * interval, 1.0), (5, 22, 5.0 * interval, 1.0)]
    assert evaluate(forecast_of(rows), trace, interval).channel_mismatches == 0
    rows[1] = (2, 23, 2.0 * interval, 1.0)
    report = evaluate(forecast_of(rows), trace, interval)
    assert (report.matched, report.channel_mismatches) == (3, 1)


def test_evaluate_against_trace_scores_one_connections_central_rows():
    interval = 12_500_000
    fc = forecast_of([(0, 22, 0.0, 1.0), (1, 22, 1.0 * interval, 1.0)],
                     counters_are_wire=False)
    # a peripheral reply 150 us after each central packet is not a reference
    replies = SniffTrace(22, [0, 150_000, interval, interval + 150_000],
                         [0xB0A1CD9D] * 4, [True, False, True, False])
    report = evaluate(fc, replies, interval)
    assert (report.matched, report.unmatched_references, report.rmse_ns) == (2, 0, 0.0)
    # another connection's packets are not references either: refused
    mixed = SniffTrace(22, [0, 5_000_000, interval], [0xB0A1CD9D, 0x53D39A21, 0xB0A1CD9D],
                       [True] * 3)
    with pytest.raises(ConfigError, match="mixes access addresses"):
        evaluate(fc, mixed, interval)


def test_evaluate_rejects_unsorted_forecast_times():
    interval = 12_500_000
    trace = SniffTrace(22, [0, interval, 2 * interval], [0xB0A1CD9D] * 3, [True] * 3)
    rows = [(k, 22, t, 1.0) for k, t in enumerate([0.0, 2.0 * interval, 1.0 * interval])]
    with pytest.raises(ConfigError, match="non-decreasing"):
        evaluate(forecast_of(rows, counters_are_wire=False), trace, interval)


def test_evaluate_rejects_unsorted_forecast_times_against_a_timeline():
    timeline = timeline_for(CSA2_PARAMS, 10)
    rows = [(k, timeline.channels[k], timeline.times_ns[k], 1.0) for k in (3, 2)]
    with pytest.raises(ConfigError, match="non-decreasing"):
        evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)


def test_from_dict_rejects_missing_keys():
    with pytest.raises(ConfigError, match="'entries'"):
        Forecast.from_dict({"counters_are_wire": True})
    with pytest.raises(ConfigError, match="'time_ns'"):
        Forecast.from_dict({"entries": [{"counter": 1, "channel": 2, "time_std_ns": 1.0}]})
    with pytest.raises(ConfigError, match="bad forecast value"):
        Forecast.from_dict({"entries": [{"counter": 2**70, "channel": 2, "time_ns": 0.0,
                                         "time_std_ns": 1.0}]})
    with pytest.raises(ConfigError, match="'access_address'"):
        ReconstructionReport.from_dict({"sniff_channel": 22})
    with pytest.raises(ConfigError, match="bad report value"):
        ReconstructionReport.from_dict({"access_address": "0xZZ"})
    with pytest.raises(ConfigError, match="'counters_are_wire'"):
        Forecast.from_dict({"entries": []})
    failed = {"access_address": "0x1", "sniff_channel": 22, "observation_count": 0,
              "first_timestamp_ns": None, "error": "no observations"}
    with pytest.raises(ConfigError, match="bad report value"):
        ReconstructionReport.from_dict({**failed, "alignment": []})
    # every value the report does not derive from another is required
    for key in failed:
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ReconstructionReport.from_dict({k: v for k, v in failed.items() if k != key})


def test_evaluate_rejects_empty_inputs():
    timeline = timeline_for(CSA2_PARAMS, 5)
    with pytest.raises(EstimationError):
        evaluate(forecast_of([]), timeline, CSA2_PARAMS.interval_ns)
    with pytest.raises(ConfigError):
        evaluate(forecast_of([(0, 0, 0.0, 1.0)]), "nope", CSA2_PARAMS.interval_ns)
    # a peripheral-only part of a connection has no reference event
    replies = SniffTrace(22, [150_000, 12_650_000], [0xB0A1CD9D] * 2, [False] * 2)
    with pytest.raises(EstimationError, match="reference contains no events"):
        evaluate(forecast_of([(0, 22, 0.0, 1.0)], counters_are_wire=False), replies,
                 CSA2_PARAMS.interval_ns)


def test_eccdf_is_a_survival_curve():
    timeline = timeline_for(CSA2_PARAMS, 30)
    rows = [(timeline.counters[i], timeline.channels[i], timeline.times_ns[i] + 1000.0 * i, 1.0)
            for i in range(10)]
    report = evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)
    errs = [e for e, _ in report.eccdf]
    probs = [p for _, p in report.eccdf]
    assert errs == sorted(errs)
    assert probs == sorted(probs, reverse=True)
    assert probs[-1] == 0.0
    assert report.p50_ns <= report.p95_ns


def test_eccdf_gives_tied_errors_the_share_above_them():
    # one row per matched error; P(error > 0) is 1/4 at each of the three ties
    assert EvalReport([0, 0, 0, 5000]).eccdf == [(0.0, 0.25)] * 3 + [(5000.0, 0.0)]
    assert EvalReport([7, 7]).eccdf == [(7.0, 0.0)] * 2
    assert EvalReport([2, 1, 2, 3, 1]).eccdf == [
        (1.0, 0.6), (1.0, 0.6), (2.0, 0.2), (2.0, 0.2), (3.0, 0.0)]


def test_eval_report_stores_errors_and_counts_and_derives_the_rest():
    report = EvalReport([-3000, 1000, 0, -2000], 1, 2, 3)
    assert [f.name for f in dataclasses.fields(report)] == [
        "abs_errors_ns", "missed_predictions", "unmatched_references", "channel_mismatches"]
    assert report.abs_errors_ns.tolist() == [3000.0, 1000.0, 0.0, 2000.0]
    assert report.matched == 4
    assert report.rmse_ns == np.sqrt(14_000_000 / 4)
    assert report.eccdf == [(0.0, 0.75), (1000.0, 0.5), (2000.0, 0.25), (3000.0, 0.0)]
    assert list(report.to_dict()) == ["rmse_us", "p50_us", "p95_us", "matched",
                                      "missed_predictions", "unmatched_references",
                                      "channel_mismatches"]
    for name in ("matched", "rmse_ns", "p50_ns", "p95_ns", "eccdf"):
        with pytest.raises(AttributeError):
            setattr(report, name, 0)


def test_forecast_dict_round_trip():
    fc = forecast_of([(65534, 3, 1.5e9, 40.0), (65535, 22, 1.5075e9 + 3, 41.5),
                      (0, 36, 1.515e9, 43.0)], counters_are_wire=False)
    raw = fc.to_dict()
    assert raw["entries"][1] == {"counter": 65535, "channel": 22,
                                 "time_ns": 1_507_500_003, "time_std_ns": 42}
    assert all(type(v) is int for e in raw["entries"] for v in e.values())
    rebuilt = Forecast.from_dict(json.loads(json.dumps(raw)))
    assert rebuilt.counters_are_wire is False
    assert rebuilt.access_address is None
    for got, want in zip(rebuilt.columns(), fc.columns()):
        np.testing.assert_array_equal(got, want)
    assert [col.dtype.kind for col in rebuilt.columns()] == ["i", "i", "i", "i"]
    assert rebuilt.to_dict() == raw
    # the connection's address, when named, comes back too
    named = Forecast(*fc.columns(), access_address=0xB0A1CD9D)
    assert named.to_dict()["access_address"] == "0xB0A1CD9D"
    assert Forecast.from_dict(named.to_dict()).access_address == 0xB0A1CD9D
    # an empty forecast keeps typed, empty columns
    empty = Forecast.from_dict({"counters_are_wire": True, "entries": []})
    assert len(empty) == 0
    assert empty.counters_are_wire is True
    assert [col.dtype.kind for col in empty.columns()] == ["i", "i", "i", "i"]
    assert empty.to_dict() == {"counters_are_wire": True, "entries": []}


# rows per block of Forecast.to_json (trace.format_rows)
BLOCK = blehop.trace._FORMAT_BLOCK_ROWS


def random_forecast(rows, seed, csa2=True, named=True):
    """A forecast of ``rows`` random rows; CSA#1 counters are offsets, and
    times may be negative."""
    rng = np.random.default_rng(seed)
    counters = rng.integers(0, 65536, rows) if csa2 else np.sort(rng.integers(-50, 10**6, rows))
    times = np.sort(rng.integers(-(10**15), 10**18, rows))
    return Forecast(counters, rng.integers(0, 37, rows), times, rng.integers(0, 10**6, rows),
                    counters_are_wire=csa2,
                    access_address=int(rng.integers(0, 2**32)) if named else None)


# each column's integers; any column may be a float column instead
FORECAST_VALUES = (st.integers(-2**63, 2**63 - 1), st.integers(-1, 40),
                   st.integers(-2**63, 2**63 - 1), st.integers(0, 2**63 - 1))


@settings(max_examples=200)
@given(data=st.data(), rows=st.integers(0, 4), wire=st.booleans(),
       address=st.none() | st.integers(0, 2**32 - 1))
def test_every_forecast_the_constructor_accepts_survives_its_json(data, rows, wire, address):
    # a channel of 99 was written and then refused on reading, and a float
    # counter written truncated; now the constructor refuses both
    columns = [np.array(data.draw(st.lists(values | st.floats(-1e15, 1e15),
                                           min_size=rows, max_size=rows)))
               for values in FORECAST_VALUES]
    try:
        forecast = Forecast(*columns, counters_are_wire=wire, access_address=address)
    except ConfigError:
        return
    text = forecast.to_json()
    again = Forecast.from_json(text)
    assert [col.dtype for col in forecast.columns()] == [np.dtype(np.int64)] * 4
    assert ([col.tolist() for col in again.columns()]
            == [col.tolist() for col in forecast.columns()])
    assert (again.counters_are_wire, again.access_address) == (wire, address)
    assert again.to_json() == text


def test_forecast_json_is_json_dumps_byte_for_byte():
    def dumped(fc):
        return json.dumps(fc.to_dict(), indent=2) + "\n"

    sync = track([0, 12_500_090, 25_000_150], [1, 1], 12_500_037.3)
    csa2 = predict_events(csa2_report([65500], MAP_10), sync, 200)
    assert 65535 in csa2.counters.tolist()
    csa1 = predict_events(csa1_report((0, 25)), sync, 300)
    named = Forecast(np.array([1, 65535]), np.array([2, 36]), np.array([10**16, 2**62]),
                     np.array([0, 1]), access_address=0xB0A1CD9D)
    empty = Forecast.from_dict({"counters_are_wire": True, "entries": []})
    # the writer's blocks: exactly one, one and a row, and several
    blocks = [random_forecast(rows, seed=rows) for rows in (BLOCK, BLOCK + 1, 3 * BLOCK + 5)]
    for fc in (csa2, csa1, named, empty, *blocks):
        assert fc.to_json() == dumped(fc).encode()
    assert b'"counters_are_wire": false' in csa1.to_json()
    assert named.to_json().startswith(b'{\n  "access_address": "0xB0A1CD9D",\n')


def test_forecast_json_is_read_without_json_loads():
    csa1 = predict_events(csa1_report((0, 25)),
                          track([-10**9, -987_499_910, -974_999_850], [1, 1], 12_500_037.3), 300)
    # rows of one-digit numbers are the shortest, and fill the reader's room exactly
    shortest = Forecast(*np.arange(4 * 9).reshape(4, 9) % 10, access_address=7)
    # times at Unix-epoch scale, 19 digits each, as a capture's timestamps carry them
    events = np.arange(50)
    epoch = Forecast(events, events % 37, 1_700_000_000 * 10**9 + 7_500_000 * events,
                     np.full(50, 40), access_address=7)
    # the int64 limits, read exactly
    limits = np.array([2**63 - 1, 1 - 2**63, -2**63])
    edges = Forecast(limits, np.array([0, 1, 36]), limits, limits)
    forecasts = [csa1, random_forecast(1, 1, named=False), random_forecast(2 * BLOCK, 2),
                 random_forecast(40, 3, csa2=False), shortest, epoch, edges]
    assert np.any(csa1.times_ns < 0)
    assert len(str(epoch.times_ns.min())) == 19
    with mock.patch.object(Forecast, "from_dict", side_effect=AssertionError):
        for fc in forecasts:
            read = Forecast.from_json(fc.to_json())
            assert (read.counters_are_wire, read.access_address) == (
                fc.counters_are_wire, fc.access_address)
            for got, want in zip(read.columns(), fc.columns()):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == np.int64


def _read_outcome(read, data):
    """The forecast ``read(data)`` gives, as comparable values, or its error."""
    try:
        fc = read(data)
    except Exception as exc:
        return type(exc), str(exc)
    return ([(col.dtype.str, col.tobytes()) for col in fc.columns()], fc.counters_are_wire,
            fc.access_address)


# each number mutation replaces one number of the rows
_NUMBER_MUTATIONS = {
    "leading zero": lambda n: n[:n.index(b"-") + 1] + b"0" + n.lstrip(b"-") if b"-" in n
    else b"0" + n,
    "minus zero": lambda n: b"-0", "lone minus": lambda n: b"-", "1-2": lambda n: b"1-2",
    "float": lambda n: b"1.5", "exponent": lambda n: b"1e3", "plus": lambda n: b"+5",
    "1e20": lambda n: b"9" * 20, "-1e20": lambda n: b"-" + b"9" * 20, "empty": lambda n: b"",
    # the int64 limits, and the integers just past them
    "2**63-1": lambda n: b"%d" % (2**63 - 1), "2**63": lambda n: b"%d" % 2**63,
    "1-2**63": lambda n: b"%d" % (1 - 2**63), "-2**63": lambda n: b"%d" % -2**63,
    "-2**63-1": lambda n: b"%d" % (-2**63 - 1),
}


def _mutated_bytes(data, kind, place, key):
    """``data`` with one mutation of ``kind``: at byte ``place``, or to the
    ``key`` number of the row that opens after it (else of the first row)."""
    place %= len(data) + 1
    start = data.find(b"\n    {\n", place)
    start = (data.find(b"\n    {\n") if start < 0 else start) + 1
    end = data.find(b"\n    }", start) + len(b"\n    }")
    row = data[start:end]
    number = re.compile(rb'"%s": (-?[0-9]+)' % key.encode()).search(data, start)
    if kind in _NUMBER_MUTATIONS:
        return (data[:number.start(1)] + _NUMBER_MUTATIONS[kind](number.group(1))
                + data[number.end(1):])
    if kind in ("move number", "move first byte"):  # up to 40 bytes back or on
        moved = number.group(1) if kind == "move number" else number.group(1)[:1]
        rest = data[:number.start(1)] + data[number.start(1) + len(moved):]
        to = min(max(number.start(1) + place % 81 - 40, 0), len(rest))
        return rest[:to] + moved + rest[to:]
    if kind == "drop row":
        return data[:start] + data[end + 2:] if data[end:end + 2] == b",\n" else (
            data[:start - 2] + data[end:])
    if kind == "duplicate row":
        return data[:end] + b",\n" + row + data[end:]
    if kind == "reorder keys":
        lines = row.split(b"\n")
        lines[1], lines[2] = lines[2], lines[1]
        return data[:start] + b"\n".join(lines) + data[end:]
    if kind == "bracket":  # the closing "]" as "}"
        place = data.rindex(b"]")
        return data[:place] + b"}" + data[place + 1:]
    return {"space": data[:place] + b" " + data[place:], "truncate": data[:place],
            "bom": b"\xef\xbb\xbf" + data, "non-utf-8": data[:place] + b"\xff" + data[place:],
            "none": data}[kind]


@settings(max_examples=150)
@given(size=st.one_of(
           st.tuples(st.integers(1, 12), st.sampled_from([1, 150, 1000])),
           st.tuples(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]),
                     st.sampled_from([1000, blehop.predict._READ_BLOCK_BYTES]))),
       seed=st.integers(0, 2**16), csa2=st.booleans(), named=st.booleans(),
       kind=st.sampled_from([*_NUMBER_MUTATIONS, "move number", "move first byte", "drop row",
                             "duplicate row", "reorder keys", "space", "truncate", "bracket",
                             "bom", "non-utf-8", "none"]),
       place=st.integers(0, 2**40),
       key=st.sampled_from(["counter", "channel", "time_ns", "time_std_ns"]))
# a number that ends a read block has no next slot to be checked against
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="leading zero", place=0,
         key="time_std_ns")
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="minus zero", place=0,
         key="time_std_ns")
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="lone minus", place=0,
         key="time_std_ns")
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="2**63", place=0, key="counter")
# a block's last number ends before its "\n    }", so an emptied one is an empty slot
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="empty", place=0, key="time_std_ns")
# the int64 limits are read exactly, not clamped
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="2**63-1", place=0, key="time_ns")
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="1-2**63", place=0, key="time_ns")
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="-2**63", place=0, key="time_std_ns")
# a wide number moved before its colon still covers the byte its slot opens with
@example(size=(1, 1), seed=0, csa2=True, named=True, kind="move number", place=38,
         key="counter")
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="bracket", place=0, key="counter")
# a digit moved before a block's first slot leaves a shorter number in the slot
@example(size=(3, 1), seed=0, csa2=True, named=True, kind="move first byte", place=35,
         key="counter")
def test_from_json_reads_as_json_loads_and_from_dict(size, seed, csa2, named, kind, place, key):
    # the bulk reader, read a block of ``read_bytes`` at a time (1: a row),
    # against the reader of any JSON text: the same forecast, or the same error
    rows, read_bytes = size
    data = _mutated_bytes(random_forecast(rows, seed, csa2, named).to_json(), kind, place, key)
    with mock.patch.object(blehop.predict, "_READ_BLOCK_BYTES", read_bytes):
        got = _read_outcome(Forecast.from_json, data)
    assert got == _read_outcome(lambda d: Forecast.from_dict(json.loads(d.decode())), data)


def test_forecast_refuses_times_that_are_not_int64_nanoseconds():
    for value in (np.nan, np.inf, -np.inf, 1.5e22):
        with pytest.raises(ConfigError, match="finite"):
            forecast_of([(1, 2, 3.0, value), (2, 3, 4.0, 5.0)])
        with pytest.raises(ConfigError, match="finite"):
            forecast_of([(1, 2, value, 3.0)])


def test_forecast_times_are_predictions_rounded_half_to_even():
    # an interval of x.5 ns puts every other event's time on a tie
    sync = make_sync(12_500_000.5)
    fc = predict_events(csa2_report([100], MAP_27), sync, 50)
    times, stds = predict_event_time(sync, np.arange(3, 53))
    assert fc.times_ns.dtype == fc.time_stds_ns.dtype == np.int64
    np.testing.assert_array_equal(fc.times_ns, np.rint(times))
    np.testing.assert_array_equal(fc.time_stds_ns, np.rint(stds))
    assert (times[0], fc.times_ns[0]) == (37_500_001.5, 37_500_002)
    assert (times[2], fc.times_ns[2]) == (62_500_002.5, 62_500_002)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def test_run_prediction_noiseless_is_error_free():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    timelines, trace = simulate_one(params, 120 * 10**9)
    recon = reconstruct_connection(trace)
    run = run_prediction(trace, recon, train_ns=30 * 10**9)
    assert run.report.rmse_ns == 0.0
    assert run.report.channel_mismatches == 0
    # the long forecast nails ground truth too
    ref_report = evaluate(run.forecast, timelines[0], params.interval_ns)
    assert ref_report.rmse_ns == 0.0
    assert ref_report.channel_mismatches == 0


def test_run_prediction_with_impairments_stays_on_noise_floor():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_27, 0xB0A1CD9D)
    _, trace = simulate_one(params, 200 * 10**9, jitter=50_000.0, drift=20.0,
                            miss=0.1, seed=17)
    recon = reconstruct_connection(trace)
    run = run_prediction(trace, recon, train_ns=100 * 10**9)
    assert run.report.rmse_ns < 100_000  # ~= jitter, far below the interval
    assert run.report.matched > 100
    assert run.report.channel_mismatches == 0


def test_run_prediction_csa1_predicts_visits():
    params = ConnectionParams(CsaVersion.CSA1, 18750, MAP_27, 0x53D39A21,
                              hop_increment=7, initial_channel=3)
    timelines, trace = simulate_one(params, 200 * 10**9, jitter=50_000.0, drift=20.0)
    recon = reconstruct_connection(trace)
    run = run_prediction(trace, recon, train_ns=100 * 10**9)
    assert run.report.rmse_ns < 100_000
    assert not run.forecast.counters_are_wire
    # every forecast visit corresponds to a real sniffed-channel event
    ref_report = evaluate(run.forecast, timelines[0], params.interval_ns)
    assert ref_report.missed_predictions == 0
    assert ref_report.channel_mismatches == 0
    # the channel filter serves CSA#1 too: every visit is on the sniffed channel
    on_sniffed = run_prediction(trace, recon, train_ns=100 * 10**9, channel=22)
    assert on_sniffed.forecast.to_dict() == run.forecast.to_dict()
    assert len(run_prediction(trace, recon, train_ns=100 * 10**9, channel=10).forecast) == 0


def test_library_ignores_peripheral_packets():
    # the README scenario, and the same capture with a peripheral reply
    # 150 us after each central packet
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_27, 0xB0A1CD9D)
    config = ScenarioConfig((ConnectionScenario(params, ImpairmentModel(
        120 * 10**9, 50_000.0, 20.0, 0.1)),), sniff_channel=22, rng_seed=7)
    _, clean = simulate(config)
    ts = clean.timestamps()
    replies = SniffTrace(clean.sniff_channel, np.stack([ts, ts + 150_000], axis=1).ravel(),
                         np.repeat(clean.access_addresses, 2), np.tile([True, False], ts.size))
    recon = reconstruct_connection(clean)
    assert recon.error is None
    assert reconstruct_connection(replies).to_dict() == recon.to_dict()
    want = run_prediction(clean, recon, train_ns=60 * 10**9)
    got = run_prediction(replies, recon, train_ns=60 * 10**9)
    assert got.forecast.to_json() == want.forecast.to_json()
    assert got.report.to_dict() == want.report.to_dict()
    # an all-central trace is used as it is
    assert clean.connection() == (0xB0A1CD9D, clean)


def test_run_prediction_horizon_and_channel_filter():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    _, trace = simulate_one(params, 60 * 10**9)
    recon = reconstruct_connection(trace)
    run = run_prediction(trace, recon, train_ns=20 * 10**9, horizon=300, channel=22)
    assert np.all(run.forecast.channels == 22)
    assert len(run.forecast) < 300
    full = run_prediction(trace, recon, train_ns=20 * 10**9, horizon=300)
    assert len(full.forecast) == 300


def test_run_prediction_needs_a_test_tail():
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D)
    _, trace = simulate_one(params, 50 * 10**9)
    recon = reconstruct_connection(trace)
    with pytest.raises(InsufficientDataError):
        run_prediction(trace, recon, train_ns=500 * 10**9)


def test_run_prediction_refuses_another_connections_trace():
    # two CSA#2 connections 3 ms apart on one sniffed channel
    config = ScenarioConfig((
        ConnectionScenario(ConnectionParams(CsaVersion.CSA2, 12500, MAP_10, 0xB0A1CD9D),
                           ImpairmentModel(150 * 10**9, 50_000.0, 20.0, 0.1)),
        ConnectionScenario(ConnectionParams(CsaVersion.CSA2, 12500, MAP_27, 0x53D39A21),
                           ImpairmentModel(150 * 10**9, 50_000.0, 20.0, 0.1),
                           start_offset_ns=3_000_000),
    ), sniff_channel=22, rng_seed=7)
    _, merged = simulate(config)
    parts = dict(connections(merged))
    recon = reconstruct_connection(parts[0xB0A1CD9D])
    assert recon.error is None
    assert len(run_prediction(parts[0xB0A1CD9D], recon, train_ns=60 * 10**9).forecast) > 0
    # the other connection's timing is not forecast with this one's channels
    with pytest.raises(ConfigError, match="trace holds 0x53D39A21, not the report's 0xB0A1CD9D"):
        run_prediction(parts[0x53D39A21], recon, train_ns=60 * 10**9)
    # a merged trace is refused as reconstruct_connection and evaluate refuse it
    with pytest.raises(ConfigError, match="mixes access addresses"):
        run_prediction(merged, recon, train_ns=60 * 10**9)


def test_run_prediction_refuses_a_trace_from_another_channel():
    # the same connection sniffed on channel 30: the report's k_init counts
    # from the first observation on its own channel 22
    params = ConnectionParams(CsaVersion.CSA2, 12500, MAP_27, 0xB0A1CD9D)
    _, on_22 = simulate_one(params, 150 * 10**9)
    _, on_30 = simulate_one(params, 150 * 10**9, sniff=30)
    recon = reconstruct_connection(on_22)
    assert recon.error is None
    assert len(run_prediction(on_22, recon, train_ns=60 * 10**9).forecast) > 0
    with pytest.raises(ConfigError, match="sniffed on channel 30, not the report's channel 22"):
        run_prediction(on_30, recon, train_ns=60 * 10**9)


def shifted(trace, timeline, shift):
    """The same capture and its truth, ``shift`` ns later."""
    return (SniffTrace(trace.sniff_channel, trace.timestamps() + shift, trace.access_addresses,
                       trace.is_central),
            EventTimeline(timeline.params, timeline.counters, timeline.channels,
                          timeline.times_ns + shift))


def epoch_capture():
    """A zero-impairment CSA#2 capture: 7.5 ms, 200 s, its trace and truth."""
    params = ConnectionParams(CsaVersion.CSA2, 7500, MAP_27, 0xB0A1CD9D)
    timelines, trace = simulate_one(params, 200 * 10**9, seed=7)
    return trace, timelines[0]


def test_forecasts_are_exact_at_any_clock_origin():
    # the capture as it is and 1.7e18 ns later, a Unix-epoch clock (2023)
    shift, capture = 1_700_000_000 * 10**9, epoch_capture()
    runs = []
    for trace, truth in (capture, shifted(*capture, shift)):
        run = run_prediction(trace, reconstruct_connection(trace), train_ns=60 * 10**9)
        runs.append((run.forecast, run.report, evaluate(run.forecast, truth, 7_500_000)))
    (forecast, one_step, against_truth), (later, later_one_step, later_against_truth) = runs
    np.testing.assert_array_equal(later.times_ns, forecast.times_ns + shift)
    for got, want in zip(later.columns()[:2] + later.columns()[3:],
                         forecast.columns()[:2] + forecast.columns()[3:]):
        np.testing.assert_array_equal(got, want)
    for got, want in ((later_one_step, one_step), (later_against_truth, against_truth)):
        assert got.to_dict() == want.to_dict()
        np.testing.assert_array_equal(got.abs_errors_ns, want.abs_errors_ns)
    # zero impairment: every prediction exact, with no spread
    assert one_step.rmse_ns == against_truth.rmse_ns == 0.0
    assert not np.any(later.time_stds_ns)


def test_forecast_times_past_int64_are_refused_not_wrapped():
    trace, truth = epoch_capture()
    run = run_prediction(trace, reconstruct_connection(trace), train_ns=60 * 10**9)
    # the last forecast event, the last observation, lands on the int64 limit
    late, _ = shifted(trace, truth, 2**63 - 1 - int(run.forecast.times_ns[-1]))
    recon = reconstruct_connection(late)
    horizon = len(run.forecast)  # CSA#2 forecasts every event
    edge = run_prediction(late, recon, train_ns=60 * 10**9, horizon=horizon).forecast
    assert edge.times_ns[-1] == 2**63 - 1
    with pytest.raises(ConfigError, match="within int64"):
        run_prediction(late, recon, train_ns=60 * 10**9, horizon=horizon + 1)


def test_forecast_refuses_columns_of_unequal_length_or_rank():
    for columns in ((np.arange(3), np.array([1, 2, 3, 4]), np.array([0, 10, 20]), np.zeros(1)),
                    (np.arange(3), np.arange(3), np.arange(3), np.arange(4)),
                    (np.arange(4).reshape(2, 2),) * 4, (np.int64(1),) * 4):
        with pytest.raises(ConfigError, match="1-D and of one length"):
            Forecast(*columns)


SCENARIO_PARAMS = {
    CsaVersion.CSA1: dict(hop_increment=7, initial_channel=3),
    CsaVersion.CSA2: {},
}


@settings(max_examples=100)
@given(csa=st.sampled_from(list(SCENARIO_PARAMS)),
       channel_map=st.sampled_from([ChannelMap.full(), MAP_27]),
       interval_steps=st.integers(6, 40), jitter=st.floats(0, 150_000),
       drift=st.floats(-50, 50), miss=st.floats(0, 0.3), seed=st.integers(0, 2**16),
       channel=st.sampled_from([None, 22, 30]))
def test_forecast_scored_against_its_own_timeline(csa, channel_map, interval_steps, jitter,
                                                  drift, miss, seed, channel):
    params = ConnectionParams(csa, interval_steps * 1250, channel_map, 0xB0A1CD9D,
                              **SCENARIO_PARAMS[csa])
    duration = 4000 * params.interval_ns
    timelines, trace = simulate_one(params, duration, seed=seed, jitter=jitter,
                                    drift=drift, miss=miss)
    recon = reconstruct_connection(trace)
    try:
        forecast = run_prediction(trace, recon, train_ns=duration // 2,
                                  channel=channel).forecast
    except EstimationError:
        assume(False)  # a capture that reconstruct or predict refuses has no forecast
    assume(len(forecast) > 0)  # a CSA#1 forecast visits channel 22 only
    report = evaluate(forecast, timelines[0], params.interval_ns)
    assert report.matched + report.missed_predictions == len(forecast)
    assert report.matched + report.unmatched_references == len(timelines[0])
    assert np.all(report.abs_errors_ns < params.interval_ns / 2)
    # a short CSA#2 capture may leave excluded channels unproven
    if recon.map_estimate is None or recon.map_estimate.assumed_map == channel_map:
        assert report.channel_mismatches == 0


def test_run_prediction_propagates_reconstruction_failure():
    bad = SniffTrace(22, [0, 12_500_000], [0xA, 0xA], [True, True])
    recon = reconstruct_connection(bad)
    assert recon.error
    with pytest.raises(EstimationError, match="reconstruction failed"):
        run_prediction(bad, recon)


@settings(max_examples=150)
@given(csa=st.sampled_from(list(SCENARIO_PARAMS)), interval_steps=st.integers(6, 24),
       others=st.sets(st.integers(0, 36).filter(lambda c: c != 22), min_size=1),
       hop_increment=st.integers(5, 16), initial_channel=st.integers(0, 36),
       jitter=st.floats(0, 150_000), drift=st.floats(-50, 50), miss=st.floats(0, 0.3),
       seed=st.integers(0, 2**16))
def test_predict_never_refuses_an_accepted_report_as_off_grid(
        csa, interval_steps, others, hop_increment, initial_channel, jitter, drift, miss, seed):
    # reconstruct and predict round the same trace at the same interval, so a
    # report written without an error passes predict's off-grid gate too
    extra = dict(hop_increment=hop_increment, initial_channel=initial_channel) \
        if csa is CsaVersion.CSA1 else {}
    params = ConnectionParams(csa, interval_steps * 1250, ChannelMap.from_channels(others | {22}),
                              0xB0A1CD9D, **extra)
    _, trace = simulate_one(params, 60 * 10**9, seed=seed, jitter=jitter, drift=drift,
                            miss=miss)
    report = reconstruct_connection(trace)
    assume(report.error is None)
    recon = ReconstructionReport.from_dict(json.loads(json.dumps(report.to_dict())))
    try:
        run_prediction(trace, recon, train_ns=30 * 10**9)
    except EstimationError as exc:
        assert "off-grid" not in str(exc)
