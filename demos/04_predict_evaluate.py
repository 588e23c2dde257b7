#!/usr/bin/env python3
"""Forecasting future channel access and scoring the forecast.

Once a connection is reconstructed, a least-squares line through its
timestamps tracks its timing (its slope is the interval as the sniffer's
clock measures it, so it absorbs clock drift), and the channel sequence is
pure arithmetic. The pipeline fits the head of a trace, then predicts each
held-out observation one step ahead from all before it — exactly what a
live follower would do — and also emits a long multi-event forecast from
the end of training.

Run:  python3 demos/04_predict_evaluate.py
"""

import numpy as np

from blehop import (
    ChannelMap,
    ConnectionParams,
    ConnectionScenario,
    CsaVersion,
    ImpairmentModel,
    ScenarioConfig,
    evaluate,
    reconstruct_connection,
    run_prediction,
    simulate,
)

params = ConnectionParams(CsaVersion.CSA2, 12500, ChannelMap.from_hex("0x1FFFFFFC00"),
                          access_address=0xB0A1CD9D)
config = ScenarioConfig(
    (ConnectionScenario(params,
                        ImpairmentModel(duration_ns=300 * 10**9,
                                        jitter_sigma_ns=50_000.0,
                                        clock_drift_ppm=20.0,
                                        miss_probability=0.1),
                        initial_counter=12345),),
    sniff_channel=22,
    rng_seed=99,
)
timelines, trace = simulate(config)
report = reconstruct_connection(trace)
print(f"trace: {len(trace)} observations over 300 s; reconstruction "
      f"recovered interval {report.classification.interval.interval_ns / 1e6:.4f} ms, "
      f"k_init {report.alignment.k_init}")

run = run_prediction(trace, report, train_ns=60 * 10**9)

# One-step-ahead predictions against the held-out observations: this is
# the honest online error, timing noise floor included (the sniffer's own
# 50 us jitter bounds how well anyone could do).
r = run.report
print(f"\none-step-ahead over the last 240 s ({r.matched} events):")
print(f"  rmse {r.rmse_ns / 1e3:.1f} us, "
      f"p95 {np.percentile(r.abs_errors_ns, 95) / 1e3:.1f} us, "
      f"max {r.abs_errors_ns.max() / 1e3:.1f} us")
print("  error survival curve (P[|error| > x]):")
for abs_ns, prob in r.eccdf[:: max(1, len(r.eccdf) // 5)]:
    print(f"    > {abs_ns / 1e3:7.1f} us : {prob:.3f}")

# The long forecast names the wire counter, channel, time and a growing
# 1-sigma time uncertainty for every upcoming event.
print("\nfirst forecast entries after the training window:")
for counter, channel, time_ns, std_ns in zip(*(col[:4].tolist()
                                              for col in run.forecast.columns())):
    print(f"  counter {counter}: channel {channel:2d} at "
          f"{time_ns / 1e9:.6f} s (+-{std_ns / 1e3:.0f} us)")

# Scored against the ground-truth timeline (each true event takes the
# nearest forecast event within half an interval), the channel sequence
# must be perfect — errors come from timing only.
against_truth = evaluate(run.forecast, timelines[0], params.interval_ns)
print(f"\nforecast vs ground truth: {against_truth.matched} events matched, "
      f"{against_truth.channel_mismatches} channel mismatches, "
      f"rmse {against_truth.rmse_ns / 1e3:.1f} us")
assert against_truth.channel_mismatches == 0
