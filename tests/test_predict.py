"""Unit tests for drift tracking, forecasting, and evaluation."""

import json

import numpy as np
import pytest

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
    EventTimeline,
    Forecast,
    ImpairmentModel,
    InsufficientDataError,
    IntervalEstimate,
    ReconstructionReport,
    ScenarioConfig,
    SniffTrace,
    Verdict,
    channel_identifier,
    csa2_channels_bulk,
    evaluate,
    init_sync,
    kalman_update,
    predict_csa1,
    predict_csa2,
    predict_event_time,
    reconstruct_connection,
    run_prediction,
    simulate,
    split_by_connection,
)
from blehop.predict import DEFAULT_GATE_SIGMA, MEASUREMENT_NOISE_VAR, PROCESS_NOISE

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
    assert sync.interval_ns == pytest.approx(interval, abs=1e-6)
    pred, std = predict_event_time(sync, 60)
    assert pred == pytest.approx(60 * interval, abs=1e-3)
    assert std > 0


def test_tracker_converges_onto_clock_drift():
    ppm = 20.0
    true_step = 12_500_000 * (1 + ppm * 1e-6)
    times = np.rint(np.arange(200) * true_step)
    sync = track(times, [1] * 199, 12_500_000)
    # the filter's interval absorbs the drift-scaled period
    assert sync.interval_ns == pytest.approx(true_step, abs=5.0)
    pred, _ = predict_event_time(sync, 240)
    assert pred == pytest.approx(240 * true_step, abs=2_000)


def test_tracker_handles_multi_event_gaps():
    interval = 7_500_000
    rng = np.random.default_rng(2)
    hops = rng.integers(1, 45, size=150)
    offsets = np.concatenate([[0], np.cumsum(hops)])
    times = offsets * interval + np.rint(rng.normal(0, 50_000, offsets.size))
    sync = track(times, hops, interval)
    assert sync.interval_ns == pytest.approx(interval, abs=50)
    pred, std = predict_event_time(sync, int(offsets[-1]) + 10)
    assert abs(pred - (offsets[-1] + 10) * interval) < 5 * std + 150_000


def test_outlier_is_gated_out():
    interval = 12_500_000
    times = list(np.arange(30) * interval)
    sync = track(times, [1] * 29, interval)
    before = sync.interval_ns
    # a wildly early measurement (5 ms off) must not drag the state
    gated = kalman_update(sync, 30 * interval - 5_000_000, 1)
    assert gated.interval_ns == before
    assert gated.anchor_offset == 30
    pred, _ = predict_event_time(gated, 31)
    assert pred == pytest.approx(31 * interval, abs=100)


def oracle_kalman_step(x, P, z, h, gate_sigma=DEFAULT_GATE_SIGMA):
    """Textbook matrix Kalman step over (time, interval): returns x, P, gated."""
    F = np.array([[1.0, h], [0.0, 1.0]])
    Q = PROCESS_NOISE * np.array([[h**3 / 3.0, h**2 / 2.0], [h**2 / 2.0, h]])
    H = np.array([[1.0, 0.0]])
    x = F @ x
    P = F @ P @ F.T + Q
    S = (H @ P @ H.T)[0, 0] + MEASUREMENT_NOISE_VAR
    y = z - (H @ x)[0]
    if y * y > gate_sigma**2 * S:
        return x, P, True
    K = P @ H.T / S
    x = x + K[:, 0] * y
    P = (np.eye(2) - K @ H) @ P
    return x, (P + P.T) / 2.0, False


def test_tracker_matches_matrix_kalman_oracle():
    interval = 7_500_000
    rng = np.random.default_rng(11)
    hops = rng.integers(1, 40, size=200)
    offsets = np.concatenate([[0], np.cumsum(hops)])
    times = offsets * interval * (1 + 20e-6) + np.rint(rng.normal(0, 50_000, offsets.size))
    times[60] += 400_000  # off, but inside the gate (which includes the 100 us noise)
    times[120] += 5_000_000  # one outlier, far outside the gate
    sync = init_sync(times[0], interval)
    x = np.array([times[0], float(interval)])
    P = np.diag([MEASUREMENT_NOISE_VAR, (interval * 1e-4) ** 2])
    gated_steps = []
    for j in range(1, offsets.size):
        h = int(hops[j - 1])
        before = sync
        sync = kalman_update(sync, times[j], h)
        x, P, gated = oracle_kalman_step(x, P, times[j], float(h))
        if gated:
            gated_steps.append(j)
        assert (sync.interval_ns == before.interval_ns) == gated
        assert sync.anchor_offset == offsets[j]
        np.testing.assert_allclose([sync.anchor_time_ns, sync.interval_ns], x, rtol=1e-12)
        np.testing.assert_allclose(sync.covariance, [P[0, 0], P[0, 1], P[1, 1]], rtol=1e-12)
    assert gated_steps == [120]


def test_divergence_guard_trips():
    interval = 12_500_000
    sync = init_sync(0, interval)
    # measurements implying an interval 1 % long: way past the 0.1 % guard
    with pytest.raises(EstimationError, match="diverged"):
        t = 0
        for k in range(1, 200):
            t = k * interval * 1.01
            sync = kalman_update(sync, t, 1, gate_sigma=1e9)


def test_prediction_uncertainty_grows_with_horizon():
    interval = 12_500_000
    times = np.arange(20) * interval
    sync = track(times, [1] * 19, interval)
    stds = [predict_event_time(sync, h)[1] for h in (20, 50, 200, 1000)]
    assert stds == sorted(stds)


def test_update_validation():
    sync = init_sync(0, 12_500_000)
    with pytest.raises(ConfigError):
        kalman_update(sync, 1000.0, 0)
    with pytest.raises(ConfigError):
        init_sync(0, 0)


def test_scalar_prediction_equals_the_array_element():
    interval = 7_500_000
    rng = np.random.default_rng(4)
    hops = rng.integers(1, 40, size=100)
    offsets = np.concatenate([[0], np.cumsum(hops)])
    times = offsets * interval * (1 + 20e-6) + np.rint(rng.normal(0, 50_000, offsets.size))
    sync = track(times, hops, interval)
    # the last offset is past 2,097,151 events, where an int64 h**3 overflows
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
    # far outside the gate: the state advances without a measurement update
    gated = kalman_update(sync, np.int64(4 * interval + 10_000_000), np.int64(1))
    assert gated.interval_ns == sync.interval_ns
    for state in (sync, gated):
        assert [type(v) for v in state] == [float, float, tuple, int, float]
        assert [type(v) for v in state.covariance] == [float, float, float]


def test_sync_state_is_immutable():
    sync = init_sync(0, 12_500_000)
    with pytest.raises(AttributeError):
        sync.interval_ns = 1.0


# ---------------------------------------------------------------------------
# forecasts


def make_sync(interval=12_500_000, anchor_offset=0):
    sync = init_sync(0, interval)
    return sync if anchor_offset == 0 else kalman_update(sync, anchor_offset * interval,
                                                         anchor_offset)


def test_predict_csa2_channels_match_selection():
    align = CounterAlignment(k_init=60000, correlation_peak=10, second_peak=1,
                             ambiguous=False, candidates=(60000,))
    ci = channel_identifier(0xB0A1CD9D)
    sync = make_sync()
    fc = predict_csa2(align, ci, MAP_10, sync, 200)
    assert len(fc) == 200
    assert fc.counters_are_wire
    assert fc.counters[0] == 60001
    expected = csa2_channels_bulk(fc.counters, ci, MAP_10)
    assert fc.channels.tolist() == expected.tolist()
    assert np.allclose(fc.times_ns, np.arange(1, 201) * 12_500_000)


def test_predict_csa2_wraps_counter():
    align = CounterAlignment(65530, 10, 1, False, (65530,))
    fc = predict_csa2(align, 0x7D3C, MAP_27, make_sync(), 10)
    assert fc.counters.tolist() == [65531, 65532, 65533, 65534, 65535, 0, 1, 2, 3, 4]


def test_predict_csa2_channel_filter():
    # predict_csa2 forecasts every event; run_prediction keeps one channel's rows
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
    align = CounterAlignment(5, 2, 2, True, (5, 1000))
    with pytest.raises(AmbiguousAlignmentError):
        predict_csa2(align, 0x7D3C, MAP_27, make_sync(), 10)


def test_predict_csa1_phase_profile():
    est = IntervalEstimate(12_500_000, 12_500_000.0, ())
    cls = CsaClassification(Verdict.CSA1_REPEATING, (0, 25), est, 10)
    fc = predict_csa1(cls, make_sync(), 74)
    assert not fc.counters_are_wire
    assert fc.counters.tolist() == [25, 37, 62, 74]
    assert fc.channels.tolist() == [10] * 4
    with pytest.raises(ConfigError):
        predict_csa1(CsaClassification(Verdict.CSA2, (), est, 10), make_sync(), 5)


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


def test_evaluate_by_counter_scores_errors():
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


def test_evaluate_by_counter_detects_channel_mismatch():
    timeline = timeline_for(CSA2_PARAMS, 50)
    wrong = (int(timeline.channels[5]) + 1) % 37
    rows = [(5, wrong, timeline.times_ns[5], 1.0)]
    report = evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)
    assert report.channel_mismatches == 1


def test_evaluate_by_counter_disambiguates_wraps():
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
    rows = [(9999, 0, 1e12, 1.0)]  # counter never occurs
    with pytest.raises(EstimationError):
        evaluate(forecast_of(rows), timeline, CSA2_PARAMS.interval_ns)
    rows.append((3, timeline.channels[3], timeline.times_ns[3], 1.0))
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
    with pytest.raises(ConfigError, match="bad report value"):
        ReconstructionReport.from_dict({"access_address": "0x1", "k_init": 3, "alignment": []})


def test_evaluate_rejects_empty_inputs():
    timeline = timeline_for(CSA2_PARAMS, 5)
    with pytest.raises(EstimationError):
        evaluate(forecast_of([]), timeline, CSA2_PARAMS.interval_ns)
    with pytest.raises(ConfigError):
        evaluate(forecast_of([(0, 0, 0.0, 1.0)]), "nope", CSA2_PARAMS.interval_ns)


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


def test_forecast_dict_round_trip():
    fc = forecast_of([(65534, 3, 1.5e9, 40.0), (65535, 22, 1.5075e9 + 0.125, 41.5),
                      (0, 36, 1.515e9, 43.0)], counters_are_wire=False)
    raw = fc.to_dict()
    assert raw["entries"][1] == {"counter": 65535, "channel": 22,
                                 "time_ns": 1.5075e9 + 0.125, "time_std_ns": 41.5}
    assert all(type(e["counter"]) is int and type(e["channel"]) is int for e in raw["entries"])
    rebuilt = Forecast.from_dict(json.loads(json.dumps(raw)))
    assert rebuilt.counters_are_wire is False
    for got, want in zip(rebuilt.columns(), fc.columns()):
        np.testing.assert_array_equal(got, want)
    assert [col.dtype.kind for col in rebuilt.columns()] == ["i", "i", "f", "f"]
    assert rebuilt.to_dict() == raw
    # an empty forecast keeps typed, empty columns
    empty = Forecast.from_dict({"entries": []})
    assert len(empty) == 0
    assert empty.counters_are_wire is True
    assert [col.dtype.kind for col in empty.columns()] == ["i", "i", "f", "f"]
    assert empty.to_dict() == {"counters_are_wire": True, "entries": []}


def test_forecast_json_is_json_dumps_byte_for_byte():
    def dumped(fc):
        return json.dumps(fc.to_dict(), indent=2) + "\n"

    sync = kalman_update(init_sync(0, 12_500_037.3), 12_500_090, 1)
    align = CounterAlignment(65500, 10, 1, False, (65500,))
    csa2 = predict_csa2(align, channel_identifier(0xB0A1CD9D), MAP_10, sync, 200)
    assert 65535 in csa2.counters.tolist()
    est = IntervalEstimate(12_500_000, 12_500_037.3, ())
    csa1 = predict_csa1(CsaClassification(Verdict.CSA1_REPEATING, (0, 25), est, 10), sync, 300)
    # repr takes exponent form for these; JSON writes floats with repr too
    exponents = forecast_of([(1, 2, 1e16, 1e-07), (65535, 36, 1.5e22, 5e-324)])
    empty = Forecast.from_dict({"entries": []})
    for fc in (csa2, csa1, exponents, empty):
        assert fc.to_json() == dumped(fc)
    assert '"counters_are_wire": false' in csa1.to_json()
    assert '"time_ns": 1e+16' in exponents.to_json()
    # repr spells these nan/inf, JSON NaN/Infinity: the writer must fall back
    for value, spelling in ((np.nan, "NaN"), (np.inf, "Infinity"), (-np.inf, "-Infinity")):
        fc = forecast_of([(1, 2, 3.0, value), (2, 3, 4.0, 5.0)])
        assert fc.to_json() == dumped(fc)
        assert f'"time_std_ns": {spelling}' in fc.to_json()


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
    assert clean.central() is clean


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
    parts = split_by_connection(merged)
    recon = reconstruct_connection(parts[0xB0A1CD9D])
    assert recon.error is None
    assert len(run_prediction(parts[0xB0A1CD9D], recon, train_ns=60 * 10**9).forecast) > 0
    # the other connection's timing is not forecast with this one's channels
    with pytest.raises(ConfigError, match="trace holds 0x53D39A21, not the report's 0xB0A1CD9D"):
        run_prediction(parts[0x53D39A21], recon, train_ns=60 * 10**9)
    # a merged trace is refused as reconstruct_connection and evaluate refuse it
    with pytest.raises(ConfigError, match="mixes access addresses"):
        run_prediction(merged, recon, train_ns=60 * 10**9)


def test_run_prediction_propagates_reconstruction_failure():
    bad = SniffTrace(22, [0, 12_500_000], [0xA, 0xA], [True, True])
    recon = reconstruct_connection(bad)
    assert recon.error
    with pytest.raises(EstimationError, match="reconstruction failed"):
        run_prediction(bad, recon)
