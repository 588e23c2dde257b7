"""Recover connection parameters from a single-channel sniffer trace.

Observing only one data channel, every inter-observation gap is an integer
multiple of the connection interval, so the interval is the GCD of the
gaps (snapped to the 1.25 ms protocol grid, with the pre-snap value kept —
it carries the relative clock offset between connection and sniffer).

The hop pattern on one channel then separates the algorithms: CSA#1 hits
the sniffed channel at a fixed, repeating set of event phases mod 37,
while CSA#2 spreads hits over all phases. For CSA#2 the event counter at
the first observation is found by circularly correlating the observed
hit/no-hit event vector against the 65536-long reference of events whose
*unmapped* channel is the sniffed one, and the channel map follows from
remap evidence: an observation whose unmapped channel differs from the
sniffed channel proves that that unmapped channel is excluded from the map
(the remap rule never touches allowed channels).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .csa import (
    COUNTER_PERIOD,
    INTERVAL_MAX_US,
    INTERVAL_MIN_US,
    INTERVAL_STEP_US,
    NUM_DATA_CHANNELS,
    ChannelMap,
    channel_identifier,
    check_access_address,
    check_interval_us,
    csa2_counters_for_unmapped,
    csa2_remap_index_bulk,
    csa2_unmapped_bulk,
)
from .errors import (
    ConfigError,
    EstimationError,
    InconsistentEvidenceError,
    InsufficientDataError,
    check_bool,
    check_int,
    reading,
)
from .simulate import expected_reconstruction_budget
from .trace import split_by_connection

INTERVAL_STEP_NS = INTERVAL_STEP_US * 1000
INTERVAL_MIN_STEPS = INTERVAL_MIN_US // INTERVAL_STEP_US  # 6
INTERVAL_MAX_STEPS = INTERVAL_MAX_US // INTERVAL_STEP_US  # 3200
# counts in a report are int64 sums over observations
_MAX_COUNT = 2**63 - 1
DEFAULT_TOLERANCE_NS = 300_000  # grid-fit acceptance per gap

# CSA#1 can hit one channel at most 1 + ceil(35/2) times per 37-event
# period (native hit plus remaps), so this many distinct phases already
# rules it out.
_MAX_CSA1_PHASES = 20
# (period, phase) grid fill needed for CSA#1; at 7.5 ms, random maps, 50 us
# jitter CSA#1 fills 0.85-0.96 with 10 % misses (0.77-0.86 with 20 %) and
# CSA#2 traces short enough to have under 20 phases fill at most 0.67.
_MIN_FILL_RATIO = 0.75
# Each CSA#2 gap is a multiple of 37 events with chance ~1/37, so a 37-fold
# gap GCD over k gaps aliases a CSA#2 trace with chance ~37**-k: 5e-7 at
# the 4 gaps this many observations give.
_MIN_SINGLE_HIT_OBSERVATIONS = 5


class Verdict(enum.Enum):
    CSA1_SINGLE_HIT = "CSA1_single_hit"
    CSA1_REPEATING = "CSA1_repeating"
    CSA2 = "CSA2"


@dataclass(frozen=True)
class IntervalEstimate:
    """Recovered connection interval.

    ``interval_ns`` is snapped to the 1.25 ms grid; ``raw_interval_ns`` is
    the unsnapped least-squares fit (it tracks the connection's clock as
    the sniffer sees it, so it is the better base for prediction).
    ``offsets`` holds each observation's int64 event offset from the first
    (``offsets[0]`` is 0); as an array, it makes ``==`` on estimates ambiguous.
    """

    interval_ns: int
    raw_interval_ns: float
    offsets: np.ndarray

    @property
    def interval_us(self):
        return self.interval_ns // 1000


@dataclass(frozen=True)
class CsaClassification:
    """Which hop algorithm produced a trace, plus its phase structure.

    ``period_profile`` lists the event phases (mod 37, relative to the
    first observation) at which the sniffed channel is hit; meaningful for
    the CSA#1 verdicts. ``interval`` is the interval estimate after any
    correction this classification implies (a single-hit CSA#1 pattern
    folds the 37-event period into the gap GCD, so the estimate is divided
    by 37).
    """

    verdict: Verdict
    period_profile: tuple
    interval: IntervalEstimate
    sniff_channel: int


@dataclass(frozen=True)
class CounterAlignment:
    """Best circular alignment of observed hits against the counter period."""

    k_init: int
    correlation_peak: int
    second_peak: int
    ambiguous: bool
    candidates: tuple


@dataclass(frozen=True)
class MapEstimate:
    """Channel map evidence gathered from remap observations.

    ``proven_excluded`` holds channels with direct remap evidence (sound by
    construction); ``assumed_map`` is their complement, an upper bound on
    the true map. ``converged`` is a heuristic: the observation span
    exceeded the coupon-collector budget for the assumed map size, the
    last budget-sized window produced no new exclusion, and every remap
    observation is explained by the assumed map.
    """

    proven_excluded: frozenset
    assumed_map: ChannelMap
    evidence_count: dict
    converged: bool
    unexplained_remaps: int


def estimate_interval(trace, *, tolerance_ns=DEFAULT_TOLERANCE_NS):
    """Estimate the connection interval from inter-observation gaps.

    Gaps are snapped to the 1.25 ms grid (a gap further than
    ``tolerance_ns`` from the grid is left out of the GCD); the integer
    GCD of the accepted grid multiples gives the interval. The returned
    raw interval refines that by a least-squares fit through the origin,
    which absorbs clock drift between connection and sniffer.
    """
    ts = trace.timestamps()
    if ts.size < 3:
        raise InsufficientDataError(
            f"interval estimation needs at least 3 observations, got {ts.size}"
        )
    gaps = np.diff(ts)
    steps, residuals = _grid_fit(gaps, INTERVAL_STEP_NS,
                                 "observations closer than the 1.25 ms grid")
    accepted = np.abs(residuals) <= tolerance_ns
    if accepted.sum() < 2 or accepted.mean() < 0.5:
        raise EstimationError(
            "gaps do not fit the 1.25 ms grid; timestamps too noisy or not one connection"
        )
    gcd_steps = int(np.gcd.reduce(steps[accepted]))
    if gcd_steps < INTERVAL_MIN_STEPS:
        raise EstimationError(
            f"gap GCD {gcd_steps * 1.25:.2f} ms is below the 7.5 ms minimum interval"
        )
    if gcd_steps > INTERVAL_MAX_STEPS:
        folded = gcd_steps // NUM_DATA_CHANNELS
        if gcd_steps % NUM_DATA_CHANNELS or not (
            INTERVAL_MIN_STEPS <= folded <= INTERVAL_MAX_STEPS
        ):
            raise EstimationError(
                f"gap GCD {gcd_steps * 1.25:.2f} ms is above the 4 s maximum interval"
            )

    # least-squares common divisor, accepted gaps only, refined twice (the
    # first hops are >= 1: accepted steps are multiples of their GCD)
    collapse = "a gap collapses to zero events under the fitted interval"
    gaps_in, hops = gaps[accepted], steps[accepted] // gcd_steps
    raw = float(np.dot(gaps_in, hops) / np.dot(hops, hops))
    hops, _ = _grid_fit(gaps_in, raw, collapse)
    raw = float(np.dot(gaps_in, hops) / np.dot(hops, hops))
    hop_counts, _ = _grid_fit(gaps, raw, collapse)
    return IntervalEstimate(
        interval_ns=gcd_steps * INTERVAL_STEP_NS,
        raw_interval_ns=raw,
        offsets=np.concatenate([[0], np.cumsum(hop_counts)]),
    )


def _grid_fit(gaps, unit_ns, zero_hop_message):
    """(int64 hops, residuals) of ``gaps`` rounded onto the ``unit_ns`` grid;
    a gap that rounds to zero hops raises with ``zero_hop_message``."""
    hops = np.rint(gaps / unit_ns).astype(np.int64)
    if np.any(hops < 1):
        raise EstimationError(zero_hop_message)
    return hops, gaps - hops * unit_ns


def _check_on_grid(residuals, interval_ns, tolerance_ns):
    """Reject an interval when off-grid gaps are common or one is far out.

    Under the right interval the residuals are pure timing noise, so gaps
    beyond ``tolerance_ns`` are rare outliers whose rounding is still
    unambiguous; under a wrong interval most gaps land far off-grid.
    """
    residuals = np.abs(residuals)
    off_grid = int(np.count_nonzero(residuals > tolerance_ns))
    worst = float(residuals.max(initial=0.0))
    if off_grid > 0.05 * residuals.size or worst > 4 * tolerance_ns:
        raise EstimationError(
            f"{off_grid} of {residuals.size} gaps are more than {tolerance_ns / 1e3:.0f} us "
            f"off-grid (worst {worst / 1e3:.0f} us) for an interval of "
            f"{interval_ns / 1e6:.4f} ms; wrong interval or excessive timing noise"
        )


def classify_csa(trace, interval):
    """Decide which hop algorithm a trace came from.

    Three cases, decided from the hop counts between observations:

    * the gap GCD is itself divisible by 37: every gap spans whole
      37-event periods, the single-hit CSA#1 signature, and the interval
      estimate is corrected by dividing by 37;
    * the hit phases mod 37 form a small set that repeats every period:
      CSA#1 with a multi-hit profile;
    * otherwise the phases spread over the period: CSA#2.

    Note the first case is a genuine alias: a CSA#2 connection whose
    interval is exactly 37 grid steps times the estimate would produce the
    same single-channel timing. The single-hit reading is taken because a
    37-fold gap GCD is vanishingly unlikely under CSA#2 once the trace
    holds at least 5 observations; a shorter trace raises
    :class:`InsufficientDataError`.
    """
    gcd_steps = interval.interval_ns // INTERVAL_STEP_NS
    folded = gcd_steps // NUM_DATA_CHANNELS
    if gcd_steps % NUM_DATA_CHANNELS == 0 and folded >= INTERVAL_MIN_STEPS:
        if len(trace) < _MIN_SINGLE_HIT_OBSERVATIONS:
            raise InsufficientDataError(
                f"a single-hit CSA#1 reading needs at least {_MIN_SINGLE_HIT_OBSERVATIONS} "
                f"observations, got {len(trace)}"
            )
        corrected = IntervalEstimate(
            interval_ns=folded * INTERVAL_STEP_NS,
            raw_interval_ns=interval.raw_interval_ns / NUM_DATA_CHANNELS,
            offsets=interval.offsets * NUM_DATA_CHANNELS,
        )
        return CsaClassification(
            Verdict.CSA1_SINGLE_HIT, (0,), corrected, trace.sniff_channel
        )

    offsets = interval.offsets
    span = int(offsets[-1])
    if span < 2 * NUM_DATA_CHANNELS:
        raise InsufficientDataError(
            f"classification needs two full 37-event periods, trace spans {span} events"
        )
    phases = np.unique(offsets % NUM_DATA_CHANNELS)
    if phases.size >= _MAX_CSA1_PHASES:
        verdict = Verdict.CSA2
    else:
        # CSA#1 hits every profile phase in every period; count how full
        # the (period, phase) grid is.
        expected = int(sum((span - int(p)) // NUM_DATA_CHANNELS + 1 for p in phases))
        fill = offsets.size / expected
        verdict = Verdict.CSA1_REPEATING if fill >= _MIN_FILL_RATIO else Verdict.CSA2
    profile = tuple(int(p) for p in phases) if verdict is not Verdict.CSA2 else ()
    return CsaClassification(verdict, profile, interval, trace.sniff_channel)


def observation_offsets(trace, interval_ns, *, tolerance_ns=DEFAULT_TOLERANCE_NS):
    """Integer event offset of each observation relative to the first.

    ``interval_ns`` may be the raw (unsnapped) estimate; it is rejected
    when more than 5 % of gaps sit beyond ``tolerance_ns`` off its grid, or
    any gap beyond 4x that.
    """
    ts = trace.timestamps()
    if ts.size == 0:
        raise InsufficientDataError("empty trace")
    hops, residuals = _grid_fit(np.diff(ts), interval_ns,
                                "two observations fall inside one connection event")
    _check_on_grid(residuals, interval_ns, tolerance_ns)
    return np.concatenate([[0], np.cumsum(hops)])


def build_ref_vector(ci, sniff_channel):
    """Indicator over all 65536 counter values of an *unmapped* hit.

    ``ref[k] = 1`` iff the CSA#2 unmapped channel for counter ``k`` equals
    the sniffed channel. Remapped hits are deliberately absent: they land
    on the sniffed channel only for some maps, while unmapped hits are
    map-independent. The hits come from the PRN run backwards
    (:func:`csa2_counters_for_unmapped`), not from all 65536 counters.
    """
    ref = np.zeros(COUNTER_PERIOD, dtype=np.uint8)
    ref[csa2_counters_for_unmapped(sniff_channel, ci)] = 1
    return ref


def align_counter(offsets, c_ref):
    """Find the event counter of the first observation by circular correlation.

    With ``c_meas`` the 0/1 indicator of the observations' event ``offsets``
    (as :func:`observation_offsets` returns them) folded mod 65536,
    ``r[k] = sum_m c_ref[(m + k) mod 65536] * c_meas[m]`` peaks where the
    shift k lines the observed hits up with the reference, i.e. at the
    counter value of observation 0. Ties are reported, never silently
    broken: ``ambiguous`` is true iff the peak is not unique, and all tied
    candidates are returned.

    The correlation is computed via FFT; both inputs are 0/1 vectors, so
    the scores are small integers and the FFT's float error (about 1e-14)
    sits far inside the 0.5 that separates them: the peak and the
    candidates are read from the floats directly.
    """
    c_ref = np.asarray(c_ref)
    if c_ref.shape != (COUNTER_PERIOD,):
        raise ConfigError(f"reference vector must have length {COUNTER_PERIOD}")
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        raise EstimationError("no observation offsets to align")
    folded = np.zeros(COUNTER_PERIOD, dtype=np.float64)
    folded[offsets % COUNTER_PERIOD] = 1.0
    spectrum = np.conj(np.fft.rfft(folded)) * np.fft.rfft(c_ref.astype(np.float64))
    correlation = np.fft.irfft(spectrum, n=COUNTER_PERIOD)
    top = correlation.max()
    peak = round(float(top))
    candidates = np.flatnonzero(correlation > top - 0.5)
    ambiguous = candidates.size > 1
    if ambiguous:
        second = peak
    else:
        correlation[candidates[0]] = -np.inf
        second = round(float(correlation.max()))
    return CounterAlignment(
        k_init=int(candidates[0]),
        correlation_peak=peak,
        second_peak=second,
        ambiguous=bool(ambiguous),
        candidates=tuple(int(c) for c in candidates),
    )


def infer_channel_map(offsets, k_init, ci, sniff_channel):
    """Reconstruct the channel map from remap evidence.

    For every observation the unmapped channel at its aligned counter is
    computed. Unmapped hits match the sniffed channel; any other unmapped
    channel proves that channel is excluded (remapping only ever applies
    to channels outside the map). The assumed map is the complement of the
    proven exclusions — always a superset of the truth — and direct
    evidence saturates in a single pass, so the fixed point is immediate;
    a final consistency pass checks that each remap observation's remap
    target under the assumed map is the sniffed channel.

    An observation that cannot be reconciled with *any* map honoring the
    evidence signals a wrong alignment or channel identifier and raises
    :class:`InconsistentEvidenceError`.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        raise InsufficientDataError("no observations to infer a map from")
    counters = (k_init + offsets) % COUNTER_PERIOD
    unmapped = csa2_unmapped_bulk(counters, ci)
    remap_mask = unmapped != sniff_channel

    # ascending offsets: a channel's first index is its first sighting
    excluded, first, counts = np.unique(
        unmapped[remap_mask], return_index=True, return_counts=True
    )
    proven = frozenset(excluded.tolist())
    if NUM_DATA_CHANNELS - len(proven) < 2:
        raise InconsistentEvidenceError(
            f"{len(proven)} channels carry remap evidence; no valid map has fewer than "
            "2 channels — alignment or channel identifier is wrong"
        )
    _check_reconcilable(counters[remap_mask], ci, proven, sniff_channel)

    assumed = ChannelMap.from_channels(set(range(NUM_DATA_CHANNELS)) - proven)
    # every remap observation's unmapped channel is proven excluded, so its
    # CSA#2 channel under the assumed map is the allowed channel at its remap index
    remap_index = csa2_remap_index_bulk(counters[remap_mask], ci, assumed.n_ch)
    unexplained = int(np.sum(assumed.ordered_array[remap_index] != sniff_channel))

    span = int(offsets[-1] - offsets[0])
    last_new = int(offsets[remap_mask][first].max()) if proven else 0
    budget = expected_reconstruction_budget(assumed.n_ch)
    converged = span > budget and (span - last_new) >= budget and unexplained == 0
    return MapEstimate(
        proven_excluded=proven,
        assumed_map=assumed,
        evidence_count=dict(zip(excluded.tolist(), counts.tolist())),
        converged=bool(converged),
        unexplained_remaps=unexplained,
    )


def _check_reconcilable(remap_counters, ci, proven, sniff_channel):
    """Raise if some remap observation fits no map that honors the evidence.

    A remap observation forces the sniffed channel to sit at its CSA#2
    remap index of *some* candidate map's ordered list. Feasibility only
    needs enough unproven channels below and above the sniffed channel; if
    no candidate size works for an observation, the evidence is
    self-contradictory.
    """
    free = [c for c in range(NUM_DATA_CHANNELS) if c not in proven]
    free_below = sum(c < sniff_channel for c in free)
    free_above = sum(c > sniff_channel for c in free)
    sizes = np.arange(2, NUM_DATA_CHANNELS - len(proven) + 1)[:, None]
    counters = np.unique(remap_counters)
    positions = csa2_remap_index_bulk(counters, ci, sizes)
    fits = (positions <= free_below) & (sizes - 1 - positions <= free_above)
    unfit = counters[~fits.any(axis=0)]
    if unfit.size:
        raise InconsistentEvidenceError(
            f"a remap observation (counter {int(unfit[0])}) fits no channel map consistent "
            "with the gathered evidence — alignment or channel identifier is wrong"
        )


@dataclass
class ReconstructionReport:
    """Everything recovered for one connection, plus any estimation error."""

    access_address: int
    sniff_channel: int | None
    observation_count: int
    error: str | None = None
    interval: IntervalEstimate | None = None
    classification: CsaClassification | None = None
    channel_id: int | None = None
    alignment: CounterAlignment | None = None
    map_estimate: MapEstimate | None = None

    def to_dict(self):
        out = {
            "access_address": f"0x{self.access_address:08X}",
            "sniff_channel": self.sniff_channel,
            "observation_count": self.observation_count,
            "error": self.error,
        }
        if self.classification is not None:
            est = self.classification.interval
            out["interval_us"] = est.interval_us
            out["raw_interval_us"] = est.raw_interval_ns / 1000.0
            out["verdict"] = self.classification.verdict.value
            out["period_profile"] = list(self.classification.period_profile)
        if self.channel_id is not None:
            out["channel_identifier"] = f"0x{self.channel_id:04X}"
        if self.alignment is not None:
            out["k_init"] = self.alignment.k_init
            out["alignment"] = {
                "correlation_peak": self.alignment.correlation_peak,
                "second_peak": self.alignment.second_peak,
                "ambiguous": self.alignment.ambiguous,
                "candidates": list(self.alignment.candidates),
            }
        if self.map_estimate is not None:
            m = self.map_estimate
            out["channel_map"] = m.assumed_map.to_hex()
            out["proven_excluded"] = sorted(m.proven_excluded)
            out["evidence_count"] = {str(k): v for k, v in sorted(m.evidence_count.items())}
            out["converged"] = m.converged
            out["unexplained_remaps"] = m.unexplained_remaps
        return out

    @classmethod
    def from_dict(cls, raw):
        with reading("report"):
            report = cls(
                access_address=check_access_address(int(raw["access_address"], 16)),
                sniff_channel=raw.get("sniff_channel"),
                observation_count=raw.get("observation_count", 0),
                error=raw.get("error"),
            )
            if report.sniff_channel is not None:
                check_int(report.sniff_channel, "sniff_channel", 0, NUM_DATA_CHANNELS - 1)
            if "verdict" in raw:
                interval_us = check_interval_us(raw["interval_us"])
                raw_us = raw["raw_interval_us"]
                # a fitted interval lies within the gap tolerance of the snapped one;
                # a far smaller one would stretch a forecast over millions of events
                if (type(raw_us) not in (int, float)
                        or not abs(raw_us - interval_us) < INTERVAL_STEP_US / 2):
                    raise ConfigError(f"raw_interval_us must be a number within "
                                      f"{INTERVAL_STEP_US / 2} us of interval_us, got {raw_us!r}")
                verdict = Verdict(raw["verdict"])
                profile = tuple(check_int(p, "period_profile entry", 0, NUM_DATA_CHANNELS - 1)
                                for p in raw.get("period_profile", ()))
                # a CSA#1 forecast visits the sniffed channel at the profile's phases only
                if (len(set(profile)) < len(profile) or report.sniff_channel is None
                        or (verdict is not Verdict.CSA2 and not profile)):
                    raise ConfigError("a verdict needs a sniff_channel and distinct "
                                      "period_profile phases (at least one for CSA#1), got "
                                      f"{report.sniff_channel!r} and {list(profile)}")
                interval = IntervalEstimate(
                    interval_ns=interval_us * 1000,
                    raw_interval_ns=float(raw_us) * 1000.0,
                    offsets=np.zeros(0, dtype=np.int64),
                )
                report.interval = interval
                report.classification = CsaClassification(
                    verdict, profile, interval, report.sniff_channel
                )
            if "channel_identifier" in raw:
                report.channel_id = check_int(int(raw["channel_identifier"], 16),
                                              "channel_identifier", 0, 0xFFFF)
            if "k_init" in raw:
                k_init = check_int(raw["k_init"], "k_init", 0, COUNTER_PERIOD - 1)
                align = raw.get("alignment", {})
                report.alignment = CounterAlignment(
                    k_init=k_init,
                    correlation_peak=align.get("correlation_peak", 0),
                    second_peak=align.get("second_peak", 0),
                    ambiguous=check_bool(align.get("ambiguous", False), "alignment.ambiguous"),
                    candidates=tuple(check_int(c, "alignment candidate", 0, COUNTER_PERIOD - 1)
                                     for c in align.get("candidates", (k_init,))),
                )
            if "channel_map" in raw:
                report.map_estimate = MapEstimate(
                    proven_excluded=frozenset(
                        check_int(c, "proven_excluded channel", 0, NUM_DATA_CHANNELS - 1)
                        for c in raw.get("proven_excluded", ())),
                    assumed_map=ChannelMap.from_hex(raw["channel_map"]),
                    evidence_count={
                        check_int(int(k), "evidence_count channel", 0, NUM_DATA_CHANNELS - 1):
                        check_int(v, "evidence_count value", 0, _MAX_COUNT)
                        for k, v in raw.get("evidence_count", {}).items()},
                    converged=check_bool(raw.get("converged", False), "converged"),
                    unexplained_remaps=check_int(raw.get("unexplained_remaps", 0),
                                                 "unexplained_remaps", 0, _MAX_COUNT),
                )
            if not report.error and report.classification is None:
                raise ConfigError("report holds neither an error nor a verdict")
            return report


def reconstruct_connection(trace, *, tolerance_ns=DEFAULT_TOLERANCE_NS):
    """Run the full single-connection pipeline, capturing estimation errors.

    CSA#1 verdicts stop after classification (their counter does not enter
    channel selection and the single-channel view pins, at most, the hit
    phases); CSA#2 continues through counter alignment and map inference.
    An ambiguous alignment is surfaced in the report, and map inference is
    then skipped rather than guessing a candidate. Only the central
    packets are observations of the connection's events.
    """
    if tolerance_ns < 0:
        raise ConfigError(f"tolerance_ns must be >= 0, got {tolerance_ns}")
    aa = trace.only_address() or 0  # an empty trace reports address 0
    trace = trace.central()
    report = ReconstructionReport(
        access_address=aa,
        sniff_channel=trace.sniff_channel,
        observation_count=len(trace),
    )
    try:
        report.interval = estimate_interval(trace, tolerance_ns=tolerance_ns)
        report.classification = classify_csa(trace, report.interval)
        if report.classification.verdict is Verdict.CSA2:
            report.channel_id = channel_identifier(aa)
            est = report.interval  # classification.interval, for a CSA#2 verdict
            residuals = np.diff(trace.timestamps()) - np.diff(est.offsets) * est.raw_interval_ns
            _check_on_grid(residuals, est.raw_interval_ns, tolerance_ns)
            reference = build_ref_vector(report.channel_id, trace.sniff_channel)
            report.alignment = align_counter(est.offsets, reference)
            if not report.alignment.ambiguous:
                report.map_estimate = infer_channel_map(
                    est.offsets, report.alignment.k_init, report.channel_id, trace.sniff_channel
                )
    except EstimationError as exc:
        report.error = str(exc)
    return report


def reconstruct_all(trace, *, tolerance_ns=DEFAULT_TOLERANCE_NS):
    """Reconstruct every connection in a merged trace; one report per address."""
    return {
        aa: reconstruct_connection(part, tolerance_ns=tolerance_ns)
        for aa, part in split_by_connection(trace).items()
    }
