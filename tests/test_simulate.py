"""Unit tests for the scenario simulator."""

import json

import numpy as np
import pytest

from blehop import (
    ChannelMap,
    ConfigError,
    ConnectionParams,
    ConnectionScenario,
    CsaVersion,
    ImpairmentModel,
    ScenarioConfig,
    channel_sequence,
    expected_reconstruction_budget,
    simulate,
)

MAP_27 = ChannelMap.from_hex("0x1FFFFFFC00")


def csa2_params(aa=0xB0A1CD9D, interval_us=12500, cmap=MAP_27):
    return ConnectionParams(CsaVersion.CSA2, interval_us, cmap, aa)


def scenario(connections, sniff=22, seed=42):
    return ScenarioConfig(tuple(connections), sniff, seed)


def clean(duration_ns):
    return ImpairmentModel(duration_ns=duration_ns)


def columns(trace, keep=slice(None)):
    """The trace's channel and the ``keep`` rows of its columns, as lists."""
    return (trace.sniff_channel, trace.timestamps()[keep].tolist(),
            trace.access_addresses[keep].tolist(), trace.is_central[keep].tolist())


# ---------------------------------------------------------------------------
# validation


def test_impairment_validation():
    with pytest.raises(ConfigError):
        ImpairmentModel(duration_ns=-1)
    with pytest.raises(ConfigError):
        ImpairmentModel(duration_ns=1, jitter_sigma_ns=-1)
    with pytest.raises(ConfigError):
        ImpairmentModel(duration_ns=1, clock_drift_ppm=501)
    with pytest.raises(ConfigError):
        ImpairmentModel(duration_ns=1, miss_probability=1.0)
    for walk in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="drift_walk_ppm_per_sqrt_s"):
            ImpairmentModel(duration_ns=1, drift_walk_ppm_per_sqrt_s=walk)


def test_scenario_validation():
    conn = ConnectionScenario(csa2_params(), clean(10**9))
    with pytest.raises(ConfigError):
        scenario([conn], sniff=37)
    with pytest.raises(ConfigError):
        ScenarioConfig((conn,), 22, -1)
    with pytest.raises(ConfigError):
        scenario([conn, conn])  # duplicate access address
    with pytest.raises(ConfigError):
        ConnectionScenario(csa2_params(), clean(1), initial_counter=65536)
    with pytest.raises(ConfigError):
        ConnectionScenario(csa2_params(), clean(1), start_offset_ns=-5)


def test_scenario_json_round_trip():
    config = scenario([
        ConnectionScenario(
            csa2_params(),
            ImpairmentModel(10**9, 50_000.0, 20.0, 0.1, 0.01),
            start_offset_ns=5_000_000,
            initial_counter=77,
        ),
        ConnectionScenario(
            ConnectionParams(CsaVersion.CSA1, 18750, MAP_27, 0x53D39A21,
                             hop_increment=7, initial_channel=3),
            clean(10**9),
        ),
    ])
    rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    # a scenario written without the walk has none
    raw = config.to_dict()
    del raw["connections"][0]["impairments"]["drift_walk_ppm_per_sqrt_s"]
    assert ScenarioConfig.from_dict(raw).connections[0].impairments.drift_walk_ppm_per_sqrt_s == 0


def test_scenario_from_dict_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"rng_seed": 1, "connections": []})
    bad = {
        "sniff_channel": 22, "rng_seed": 1,
        "connections": [{"params": {"csa_version": 3, "interval_us": 7500,
                                    "channel_map": "0x1FFFFFFFFF",
                                    "access_address": "0x1"},
                         "impairments": {"duration_us": 1000}}],
    }
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(bad)


# ---------------------------------------------------------------------------
# event grid and sniffer view


def test_zero_impairment_times_are_exact():
    params = csa2_params(interval_us=7500)
    config = scenario([ConnectionScenario(params, clean(75_000_000), initial_counter=10)])
    timelines, trace = simulate(config)
    timeline = timelines[0]
    assert len(timeline) == 11  # floor(duration/step) + 1
    assert np.array_equal(timeline.times_ns, np.arange(11) * 7_500_000)
    assert np.array_equal(timeline.counters, 10 + np.arange(11))
    assert np.array_equal(timeline.channels, channel_sequence(params, 10, 11))
    # every on-channel event observed, exactly on time, flagged central
    hits = np.flatnonzero(timeline.channels == 22)
    assert trace.timestamps().tolist() == timeline.times_ns[hits].tolist()
    assert trace.is_central.all() and trace.sniff_channel == 22


def test_start_offset_shifts_the_grid():
    config = scenario([
        ConnectionScenario(csa2_params(), clean(10**8), start_offset_ns=123_456)
    ])
    timelines, _ = simulate(config)
    assert timelines[0].times_ns[0] == 123_456


def test_stamps_that_leave_int64_are_refused():
    # each field is in range on its own; the sum of the times used to wrap to
    # int64 minimum, and a 1e293 ns jitter was cast to it with a RuntimeWarning
    top = 2**63 - 1
    last = top - 120 * 10**9  # a 120 s capture whose last event is the last int64 ns
    fits = ConnectionScenario(csa2_params(interval_us=10000), clean(120 * 10**9),
                              start_offset_ns=last)
    timelines, trace = simulate(scenario([fits]))
    assert timelines[0].times_ns[-1] == top and trace.timestamps().min() >= last
    late = ConnectionScenario(csa2_params(interval_us=10000), clean(120 * 10**9),
                              start_offset_ns=last + 1)
    with pytest.raises(ConfigError, match="start_offset_us \\+ duration_us"):
        simulate(scenario([late]))
    noisy = ConnectionScenario(csa2_params(), ImpairmentModel(120 * 10**9, jitter_sigma_ns=1e293))
    with pytest.raises(ConfigError, match="jitter_sigma_us"):
        simulate(scenario([noisy]))
    # a wandering clock ends its capture early or late: late is refused, early
    # is simulated within int64, whichever the walk does
    outcomes = set()
    for seed in range(8):
        wandering = ConnectionScenario(csa2_params(interval_us=10000), ImpairmentModel(
            120 * 10**9, drift_walk_ppm_per_sqrt_s=1.0), start_offset_ns=last)
        try:
            timelines, _ = simulate(scenario([wandering], seed=seed))
        except ConfigError as exc:
            assert "start_offset_us + duration_us" in str(exc)
            outcomes.add("refused")
        else:
            assert np.all(np.diff(timelines[0].times_ns) > 0)
            outcomes.add("simulated")
    assert outcomes == {"refused", "simulated"}
    # a walk so wide that the clock runs backwards is refused
    backwards = ConnectionScenario(csa2_params(), ImpairmentModel(
        10**9, drift_walk_ppm_per_sqrt_s=1e9))
    with pytest.raises(ConfigError, match="backwards"):
        simulate(scenario([backwards]))


def test_drift_rescales_the_grid():
    ppm = 100.0
    config = scenario([
        ConnectionScenario(csa2_params(interval_us=10000),
                           ImpairmentModel(10**9, clock_drift_ppm=ppm))
    ])
    timelines, _ = simulate(config)
    times = timelines[0].times_ns
    step = 10_000_000 * (1 + ppm * 1e-6)
    assert times[1] == round(step)
    assert abs(times[-1] - (len(times) - 1) * step) <= 0.5


def test_drift_walk_spreads_the_clock_rate_by_its_ppm_per_sqrt_second():
    # over 100 s the walk's drift spreads by 1 ppm/sqrt(s) * 10 sqrt(s) = 10 ppm
    ends = []
    for seed in range(64):
        config = scenario([ConnectionScenario(csa2_params(interval_us=10000), ImpairmentModel(
            100 * 10**9, clock_drift_ppm=20.0, drift_walk_ppm_per_sqrt_s=1.0))], seed=seed)
        times = simulate(config)[0][0].times_ns
        # the clock rate over the last 100 events (1 s), in ppm off the nominal
        ends.append((np.mean(np.diff(times[-101:])) / 10_000_000 - 1) * 1e6)
        # the first step runs at the constant drift
        assert times[1] - times[0] == 10_000_200
    assert abs(np.mean(ends) - 20.0) < 4.0
    assert 7.5 < np.std(ends) < 12.5


def test_csa1_two_hit_channel_gap_structure():
    # hop 7 over channels 10..36: channel 10 is hit natively and as the fixed
    # remap target of unmapped 0, giving alternating 25- and 12-event gaps.
    params = ConnectionParams(CsaVersion.CSA1, 7500, MAP_27, 0x11112222,
                              hop_increment=7, initial_channel=0)
    config = scenario([ConnectionScenario(params, clean(8 * 37 * 7_500_000))], sniff=10)
    timelines, trace = simulate(config)
    ts = trace.timestamps()
    gaps_events = np.diff(ts) // 7_500_000
    assert set(gaps_events.tolist()) == {25, 12}
    assert all(gaps_events[i] != gaps_events[i + 1] for i in range(len(gaps_events) - 1))


def test_miss_probability_thins_the_trace():
    base = ConnectionScenario(csa2_params(), clean(200 * 10**9))
    _, full = simulate(scenario([base]))
    lossy = ConnectionScenario(
        csa2_params(), ImpairmentModel(200 * 10**9, miss_probability=0.5)
    )
    _, thinned = simulate(scenario([lossy]))
    assert 0.35 * len(full) < len(thinned) < 0.65 * len(full)
    assert set(thinned.timestamps().tolist()) <= set(full.timestamps().tolist())


def test_jitter_perturbs_timestamps():
    sigma = 100_000.0
    conn = ConnectionScenario(csa2_params(), ImpairmentModel(300 * 10**9, sigma))
    _, trace = simulate(scenario([conn]))
    _, exact = simulate(scenario([ConnectionScenario(csa2_params(), clean(300 * 10**9))]))
    deltas = trace.timestamps() - exact.timestamps()
    assert np.std(deltas) == pytest.approx(sigma, rel=0.2)
    assert np.abs(np.mean(deltas)) < sigma


def test_wire_counters_wrap():
    config = scenario([
        ConnectionScenario(csa2_params(interval_us=7500), clean(10 * 7_500_000),
                           initial_counter=65530)
    ])
    timelines, _ = simulate(config)
    wire = timelines[0].wire_counters()
    assert wire.tolist() == [65530, 65531, 65532, 65533, 65534, 65535, 0, 1, 2, 3, 4]
    assert timelines[0].counters.tolist() == list(range(65530, 65541))


# ---------------------------------------------------------------------------
# determinism and composability


def test_same_seed_reproduces_different_seed_differs():
    conn = ConnectionScenario(
        csa2_params(), ImpairmentModel(100 * 10**9, 50_000.0, 0.0, 0.2)
    )
    _, a = simulate(scenario([conn], seed=1))
    _, b = simulate(scenario([conn], seed=1))
    _, c = simulate(scenario([conn], seed=2))
    assert columns(a) == columns(b)
    assert columns(a) != columns(c)


def test_merged_scenario_equals_isolated_per_connection():
    imp = ImpairmentModel(120 * 10**9, 50_000.0, 10.0, 0.1)
    conns = [
        ConnectionScenario(csa2_params(0xAAAA0001), imp),
        ConnectionScenario(csa2_params(0xBBBB0002, interval_us=7500), imp),
        ConnectionScenario(
            ConnectionParams(CsaVersion.CSA1, 18750, MAP_27, 0xCCCC0003,
                             hop_increment=9, initial_channel=1),
            imp,
        ),
    ]
    _, merged = simulate(scenario(conns, seed=99))
    for conn in conns:
        _, alone = simulate(scenario([conn], seed=99))
        aa = conn.params.access_address
        assert columns(merged, merged.access_addresses == aa) == columns(alone)


def test_merged_trace_is_time_sorted():
    imp = ImpairmentModel(50 * 10**9, 50_000.0)
    conns = [
        ConnectionScenario(csa2_params(0xAAAA0001), imp),
        ConnectionScenario(csa2_params(0xBBBB0002, interval_us=7500), imp,
                           start_offset_ns=3_333_000),
    ]
    _, merged = simulate(scenario(conns))
    ts = merged.timestamps()
    assert np.all(np.diff(ts) >= 0)


# ---------------------------------------------------------------------------
# reconstruction budget


def test_budget_known_values():
    assert expected_reconstruction_budget(37) == 0
    assert expected_reconstruction_budget(36) == 1332
    assert expected_reconstruction_budget(28) == 2931
    assert expected_reconstruction_budget(27) == 2926
    assert expected_reconstruction_budget(10) == 1440


def test_budget_rejects_invalid_sizes():
    with pytest.raises(ConfigError):
        expected_reconstruction_budget(1)
    with pytest.raises(ConfigError):
        expected_reconstruction_budget(38)
