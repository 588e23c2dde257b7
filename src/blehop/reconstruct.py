"""Recover connection parameters from a single-channel sniffer trace.

Observing only one data channel, every inter-observation gap is an integer
multiple of the connection interval, so the interval is the GCD of the
gaps (snapped to the 1.25 ms protocol grid, with the pre-snap value kept —
it carries the relative clock offset between connection and sniffer).

One likelihood ratio then separates the algorithms: CSA#1 hits the sniffed
channel only at a fixed, repeating set of event phases mod 37 (a gap GCD of
37 intervals is a one-phase profile), while CSA#2 may hit it on any event.
For CSA#2 the event counter at the first observation is found by circularly
correlating the observed hit/no-hit event vector against the 65536-long
reference of events whose *unmapped* channel is the sniffed one, and the
channel map follows from remap evidence: an observation whose unmapped
channel differs from the sniffed channel proves that that unmapped channel
is excluded from the map (the remap rule never touches allowed channels).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .csa import (
    COUNTER_PERIOD,
    INTERVAL_MAX_US,
    INTERVAL_MIN_US,
    INTERVAL_STEP_US,
    NUM_DATA_CHANNELS,
    ChannelMap,
    CsaVersion,
    channel_identifier,
    check_access_address,
    check_interval_us,
    csa2_counters_for_unmapped,
    csa2_prn,
    csa2_remap_index,
    csa2_unmapped,
)
from .errors import (
    ConfigError,
    EstimationError,
    InconsistentEvidenceError,
    InsufficientDataError,
    check_bool,
    check_int,
    check_ints,
    check_number,
    reading,
)
from .trace import connections

INTERVAL_STEP_NS = INTERVAL_STEP_US * 1000
INTERVAL_MIN_STEPS = INTERVAL_MIN_US // INTERVAL_STEP_US  # 6
INTERVAL_MAX_STEPS = INTERVAL_MAX_US // INTERVAL_STEP_US  # 3200
# counts in a report are int64 sums over observations
_MAX_COUNT = 2**63 - 1
DEFAULT_TOLERANCE_NS = 300_000  # grid-fit acceptance per gap

# CSA#1 hits a channel natively and from each excluded channel remapped onto
# it, index (unmapped mod map size): at most 1 + ceil(37/2) phases, for the
# lower channel of a map of two odd channels, which takes all even channels
_CSA1_PHASE_BOUND = 1 + math.ceil(NUM_DATA_CHANNELS / 2)
_MAX_CSA2_RATE = 0.5  # CSA#2 hits a channel with chance 1/n_ch, n_ch >= 2
# Verdicts on the CSA#1 over CSA#2 log-likelihood ratio (nats). Under CSA#2 a
# profile's likelihood ratio reaches e**10 with chance at most e**-10, and the
# log C(37, k) cost shares that among the profiles of each size (about: the
# rates are fitted). At 0 CSA#2 fits as well as the best CSA#1 profile; 1-20 s
# CSA#1 captures (7.5 ms, 2-37 channels, <= 30 % misses) stayed above +1.9.
_CSA1_NATS = 10.0
_CSA2_NATS = 0.0
_MAP_ALPHA = 0.01  # at most this chance that a converged map hides an exclusion

# align_counter's four-step transforms: COUNTER_PERIOD = _SIDE**2, and the
# twiddles W**(n2*k1), W = exp(-2j*pi/COUNTER_PERIOD), indexed [k1, n2]
_SIDE = 256
_TWIDDLES = np.exp(-2j * np.pi / COUNTER_PERIOD
                   * np.outer(np.arange(_SIDE // 2 + 1), np.arange(_SIDE)))
_TWIDDLES.flags.writeable = False


@dataclass(frozen=True)
class IntervalEstimate:
    """Recovered connection interval.

    ``interval_ns`` is snapped to the 1.25 ms grid; ``raw_interval_ns`` is
    the unsnapped least-squares fit (it tracks the connection's clock as
    the sniffer sees it, so it is the better base for prediction).
    """

    interval_ns: int
    raw_interval_ns: float

    @property
    def interval_us(self):
        return self.interval_ns // 1000


@dataclass(frozen=True)
class CsaClassification:
    """Which hop algorithm produced a trace, plus its phase structure.

    ``verdict`` is :func:`classify_csa`'s likelihood-ratio verdict.
    ``period_profile`` lists the event phases (mod 37, relative to the
    first observation) of the CSA#1 profile it scored, and is empty for
    CSA#2. ``interval`` is the estimate the verdict reads: divided by 37
    when the gap GCD folds a one-phase profile's 37-event period.
    """

    verdict: CsaVersion
    period_profile: tuple
    interval: IntervalEstimate


@dataclass(frozen=True)
class CounterAlignment:
    """Best circular alignment of observed hits against the counter period.

    ``candidates`` holds every counter value tied at the peak (at least
    one); ``k_init`` is the first and ``ambiguous`` says there is more
    than one.
    """

    correlation_peak: int
    second_peak: int
    candidates: tuple

    @property
    def k_init(self):
        return self.candidates[0]

    @property
    def ambiguous(self):
        return len(self.candidates) > 1


@dataclass(frozen=True)
class MapEstimate:
    """Channel map evidence gathered from remap observations.

    ``evidence_count`` counts the remap observations of each channel with
    direct remap evidence. Those channels are ``proven_excluded`` (sound by
    construction); ``assumed_map`` is their complement, an upper bound on
    the true map. ``converged`` claims it is the true map, at the level of
    :func:`infer_channel_map`'s bound.
    """

    evidence_count: dict
    converged: bool
    unexplained_remaps: int

    @property
    def proven_excluded(self):
        return frozenset(self.evidence_count)

    @property
    def assumed_map(self):
        return ChannelMap.from_channels(set(range(NUM_DATA_CHANNELS)) - self.proven_excluded)


def estimate_interval(trace):
    """Estimate the connection interval from inter-observation gaps.

    Gaps are snapped to the 1.25 ms grid (a gap further than
    ``DEFAULT_TOLERANCE_NS`` from the grid is left out of the GCD); the integer
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
    accepted = np.abs(residuals) <= DEFAULT_TOLERANCE_NS
    if accepted.sum() < 2 or accepted.mean() < 0.5:
        raise EstimationError(
            "gaps do not fit the 1.25 ms grid; timestamps too noisy or not one connection"
        )
    gcd_steps = int(np.gcd.reduce(steps[accepted]))
    if gcd_steps < INTERVAL_MIN_STEPS:
        raise EstimationError(
            f"gap GCD {gcd_steps * 1.25:.2f} ms is below the 7.5 ms minimum interval"
        )

    # least-squares common divisor of the accepted gaps (their hops are >= 1:
    # accepted steps are multiples of their GCD)
    gaps_in, hops = gaps[accepted], steps[accepted] // gcd_steps
    raw = float(np.dot(gaps_in, hops) / np.dot(hops, hops))
    estimate = IntervalEstimate(interval_ns=gcd_steps * INTERVAL_STEP_NS, raw_interval_ns=raw)
    if gcd_steps > INTERVAL_MAX_STEPS and _single_hit_interval(estimate) is None:
        raise EstimationError(f"gap GCD {gcd_steps * 1.25:.2f} ms is above the 4 s maximum "
                              "interval")
    return estimate


def _grid_fit(gaps, unit_ns, zero_hop_message):
    """(int64 hops, residuals) of ``gaps`` rounded onto the ``unit_ns`` grid;
    a gap that rounds to zero hops raises with ``zero_hop_message``."""
    hops = np.rint(gaps / unit_ns).astype(np.int64)
    if np.any(hops < 1):
        raise EstimationError(zero_hop_message)
    return hops, gaps - hops * unit_ns


def classify_csa(offsets, interval):
    """Decide which hop algorithm a trace came from, by one likelihood ratio.

    ``offsets`` are the observations' event offsets at ``interval``, as
    :func:`observation_offsets` returns them. Two models explain them, each
    at its fitted rate: CSA#1 hits only the (period, phase) slots of the
    observed profile of k phases mod 37, at most ``_CSA1_PHASE_BOUND``, and
    pays log C(37, k) nats for choosing it; CSA#2 hits any event, at most
    every other one. Their log-likelihood ratio (LLR) gives CSA#1 at or above
    ``_CSA1_NATS``, and CSA#2 at or below ``_CSA2_NATS`` once the trace
    covers two whole 37-event periods (before that, no profile phase has had
    a second slot and the log C(37, k) cost alone can favour CSA#2); else
    :class:`InsufficientDataError` names the stage and the nats.

    A gap GCD divisible by 37 is the single-hit CSA#1 signature: the offsets
    count hit 37-event periods, and times 37 they are the event offsets of a
    one-phase profile at the interval's 37th, which a verdict reports. CSA#2
    at a gap GCD of at most 4 s, a genuine alias, is a second alternative; it
    leads by at most log 37 nats, and is ruled out only once well over half
    of the periods are hit. Such a reading is never CSA#2, only flagged.
    """
    offsets = _event_offsets(offsets)
    hits, csa2, stage = offsets.size, -math.inf, "classification"
    folded = _single_hit_interval(interval)
    if folded is not None:
        if interval.interval_ns <= INTERVAL_MAX_US * 1000:
            csa2 = _bernoulli_nats(hits, int(offsets[-1]) + 1, _MAX_CSA2_RATE)
        offsets, interval, stage = offsets * NUM_DATA_CHANNELS, folded, "single-hit classification"
    span = int(offsets[-1])
    phases = np.flatnonzero(np.bincount(offsets % NUM_DATA_CHANNELS,
                                        minlength=NUM_DATA_CHANNELS))
    nats = -math.inf
    if phases.size <= _CSA1_PHASE_BOUND:
        slots = int(np.sum((span - phases) // NUM_DATA_CHANNELS + 1))
        nats = (_csa1_nats(hits, slots, phases.size)
                - max(csa2, _bernoulli_nats(hits, span + 1, _MAX_CSA2_RATE)))
    if nats >= _CSA1_NATS:
        return CsaClassification(CsaVersion.CSA1, tuple(phases.tolist()), interval)
    if folded is None and nats <= _CSA2_NATS and span + 1 >= 2 * NUM_DATA_CHANNELS:
        return CsaClassification(CsaVersion.CSA2, (), interval)
    more = "" if folded else (f"; a CSA#2 verdict needs at most {_CSA2_NATS:g} over two whole "
                              f"37-event periods, the trace spans {span + 1} events")
    raise InsufficientDataError(f"{stage}: the CSA#1 over CSA#2 log-likelihood ratio is {nats:.1f}"
                                f" nats, short of the {_CSA1_NATS:g} a CSA#1 verdict needs{more}")


def _bernoulli_nats(hits, trials, max_rate=1.0):
    """Log-likelihood of ``hits`` in ``trials`` events at the fitted rate,
    capped at ``max_rate``."""
    rate = min(hits / trials, max_rate)
    return sum(k * math.log(p) for k, p in ((hits, rate), (trials - hits, 1 - rate)) if k)


def _csa1_nats(hits, slots, phases):
    """:func:`_bernoulli_nats` of ``hits`` on the ``slots`` of a profile of
    ``phases`` phases, less log C(37, phases) for choosing the profile."""
    return _bernoulli_nats(hits, slots) - math.log(math.comb(NUM_DATA_CHANNELS, phases))


def _single_hit_interval(interval):
    """The connection interval of a single-hit CSA#1 reading (the estimate
    divided by 37) when that is a valid interval, else None."""
    gcd_steps = interval.interval_ns // INTERVAL_STEP_NS
    folded = gcd_steps // NUM_DATA_CHANNELS
    if gcd_steps % NUM_DATA_CHANNELS or not INTERVAL_MIN_STEPS <= folded <= INTERVAL_MAX_STEPS:
        return None
    return IntervalEstimate(interval_ns=folded * INTERVAL_STEP_NS,
                            raw_interval_ns=interval.raw_interval_ns / NUM_DATA_CHANNELS)


def observation_offsets(trace, interval_ns):
    """Integer event offset of each observation relative to the first.

    ``interval_ns`` is a number in (0, inf) and may be the raw (unsnapped)
    estimate. This is the one off-grid gate: under the right interval the
    residuals are pure timing noise, so gaps beyond ``DEFAULT_TOLERANCE_NS``
    are rare outliers whose rounding is still unambiguous; under a wrong
    interval most gaps land far off-grid. The interval is rejected when
    more than 5 % of gaps sit beyond that tolerance, or any gap beyond 4x it.
    """
    interval_ns = check_number(interval_ns, "interval_ns", 0, math.inf, "()")
    ts = trace.timestamps()
    if ts.size == 0:
        raise InsufficientDataError("empty trace")
    hops, residuals = _grid_fit(np.diff(ts), interval_ns,
                                "two observations fall inside one connection event")
    residuals = np.abs(residuals)
    off_grid = int(np.count_nonzero(residuals > DEFAULT_TOLERANCE_NS))
    worst = float(residuals.max(initial=0.0))
    if off_grid > 0.05 * residuals.size or worst > 4 * DEFAULT_TOLERANCE_NS:
        raise EstimationError(
            f"{off_grid} of {residuals.size} gaps are more than {DEFAULT_TOLERANCE_NS / 1e3:.0f} "
            f"us off-grid (worst {worst / 1e3:.0f} us) for an interval of "
            f"{interval_ns / 1e6:.4f} ms; wrong interval or excessive timing noise"
        )
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


def _event_offsets(offsets):
    """``offsets`` as a 1-D int64 array, refused if empty or not integers;
    exact mod 65536 for every integer dtype, as 2**64 is a multiple of it."""
    offsets = check_ints(offsets, "observation offsets")
    if offsets.ndim != 1:
        raise ConfigError(f"observation offsets must be 1-D, got {offsets.ndim} dimensions")
    if offsets.size == 0:
        raise InsufficientDataError("no observation offsets")
    return offsets


def align_counter(offsets, c_ref):
    """Find the event counter of the first observation by circular correlation.

    With ``c_meas`` the 0/1 indicator of the observations' event ``offsets``
    (a 1-D integer array, as :func:`observation_offsets` returns them)
    folded mod 65536, ``r[k] = sum_m c_ref[(m + k) mod 65536] * c_meas[m]``
    peaks where the shift k lines the observed hits up with the reference
    (a bool or integer 0/1 vector), i.e. at the counter value of
    observation 0. Ties are reported, never silently broken: ``ambiguous``
    is true iff the peak is not unique, and all tied candidates are returned.

    The correlation is computed via FFT, each 65536-point transform as a
    256 x 256 four-step one (Bailey 1990; :func:`_rfft_65536`): with counter
    n = 256*n1 + n2 and frequency k = k1 + 256*k2, 256-point transforms over
    n1, the twiddles W**(n2*k1), then 256-point transforms over n2. The
    transforms write into this thread's :class:`_Workspace` instead of
    allocating: a fresh 512 KB array per step is freed back to the system
    and faulted in again on the next call (about 580 minor faults per
    alignment, most of its time on a small heap). Both inputs are 0/1
    vectors, so the scores are small integers; against integer pair counts
    the float error was at most 5.7e-14 over 300 random draws of up to 65536
    observations, far inside the 0.5 that separates two scores: the peak
    and the candidates are read from the floats directly.
    """
    c_ref = check_ints(c_ref, "reference vector", 0, 1, dtype=None)  # copied into the workspace
    if c_ref.shape != (COUNTER_PERIOD,):
        raise ConfigError(f"reference vector must have length {COUNTER_PERIOD}")
    offsets = _event_offsets(offsets)
    ws = _WORKSPACE
    np.copyto(ws.real, c_ref.reshape(_SIDE, _SIDE))
    _rfft_65536(ws.real, ws.spectrum)
    ws.real.fill(0.0)
    ws.real.reshape(-1)[offsets & (COUNTER_PERIOD - 1)] = 1.0
    _rfft_65536(ws.real, ws.measured)
    np.conjugate(ws.measured, out=ws.measured)
    ws.spectrum *= ws.measured
    correlation = _irfft_65536(ws.spectrum, ws.real).reshape(-1)
    top = correlation.max()
    peak = round(float(top))
    candidates = np.flatnonzero(correlation > top - 0.5)
    if candidates.size > 1:
        second = peak
    else:
        correlation[candidates[0]] = -np.inf
        second = round(float(correlation.max()))
    return CounterAlignment(
        correlation_peak=peak,
        second_peak=second,
        candidates=tuple(int(c) for c in candidates),
    )


class _Workspace(threading.local):
    """:func:`align_counter`'s buffers, about 1.6 MB, made once per thread
    and reused by each of its alignments (``np.empty``: no page is resident
    before an alignment writes it). ``real`` (256 x 256) holds the
    reference, then the hit indicator, then the correlation; ``spectrum``
    and ``measured`` (129 x 256) hold the two half spectra. An alignment
    writes each buffer before reading it, so no call sees another's data;
    per thread, so that concurrent alignments never write into one another's."""

    def __init__(self):
        self.real = np.empty((_SIDE, _SIDE))
        self.spectrum = np.empty((_SIDE // 2 + 1, _SIDE), dtype=np.complex128)
        self.measured = np.empty_like(self.spectrum)


_WORKSPACE = _Workspace()


def _rfft_65536(x, out):
    """Half the spectrum of a real 65536-vector ``x``, shaped 256 x 256,
    written into ``out`` (129 x 256) and returned: ``[k1, k2]`` holds
    ``X[k1 + 256*k2]`` for k1 <= 128; the rest is its conjugate mirror."""
    np.fft.rfft(x, axis=0, out=out)
    out *= _TWIDDLES
    return np.fft.fft(out, axis=1, out=out)


def _irfft_65536(spectrum, out):
    """The real 65536-vector whose :func:`_rfft_65536` is ``spectrum``,
    written into ``out`` (256 x 256) and returned; ``spectrum`` is
    overwritten."""
    # b * conj(W) as conj(conj(b) * W), in place: one table serves both ways
    b = np.fft.ifft(spectrum, axis=1, out=spectrum)
    np.conjugate(b, out=b)
    b *= _TWIDDLES
    np.conjugate(b, out=b)
    return np.fft.irfft(b, n=_SIDE, axis=0, out=out)


def infer_channel_map(offsets, k_init, ci, sniff_channel):
    """Reconstruct the channel map from remap evidence.

    For every observation the unmapped channel at its aligned counter is
    computed. Unmapped hits match the sniffed channel; any other unmapped
    channel proves that channel is excluded (remapping only ever applies
    to channels outside the map). The assumed map is the complement of the
    proven exclusions, always a superset of the truth; a remap observation
    whose remap target under it is not the sniffed channel is unexplained.

    An observation that cannot be reconciled with *any* map honoring the
    evidence signals a wrong alignment or channel identifier and raises
    :class:`InconsistentEvidenceError`, naming its smallest counter. A
    remap observation puts the sniffed channel at index pos(n) = floor(n
    prn / 2**16) of a map of n unproven channels, which needs pos(n)
    unproven channels below it and n - 1 - pos(n) above. Both counts are
    non-decreasing in n, as pos(n + 1) - pos(n) is 0 or 1, so the sizes
    that fit are a prefix 2..n*(prn), and the observation fits some map iff
    it fits one of two channels: for prn < 2**15 an unproven channel above
    the sniffed one, else one below. Once only the sniffed channel is
    unproven, nothing fits.

    Converged: no remap is unexplained and (n_a - 1)(1 - p)**span <=
    ``_MAP_ALPHA``. Were a channel of the assumed map (n_a channels)
    excluded, each event would show it with chance at least p = u/((span + 1)
    n_a): captured at 37u/(span + 1), from the u unmapped hits, unmapped on it
    at 1/37, remapped onto the sniffed channel at >= 1/n_a (index floor(n prn
    / 2**16), Core Spec v5.x Vol 6 Part B 4.5.8.3). It has never shown, so
    the whole span counts.
    """
    offsets = _event_offsets(offsets)
    sniff_channel = check_int(sniff_channel, "sniff_channel", 0, NUM_DATA_CHANNELS - 1)
    counters = (check_int(k_init, "k_init", 0, COUNTER_PERIOD - 1) + offsets) & (COUNTER_PERIOD - 1)
    prn = csa2_prn(counters, ci)
    unmapped = csa2_unmapped(prn)
    remap_mask = unmapped != sniff_channel
    remap_counters, remap_prn = counters[remap_mask], prn[remap_mask]

    counts = np.bincount(unmapped[remap_mask], minlength=NUM_DATA_CHANNELS)
    excluded, free = np.flatnonzero(counts), np.flatnonzero(counts == 0)
    # the free channels on the side of the sniffed one (itself free) that its
    # index in a two-channel map needs: above it for index 0, below for 1
    below = np.count_nonzero(free < sniff_channel)
    room = np.where(csa2_remap_index(remap_prn, 2), below, free.size - 1 - below)
    unfit = remap_counters[room == 0]
    if unfit.size:
        raise InconsistentEvidenceError(
            f"a remap observation (counter {int(unfit.min())}) fits no channel map consistent "
            "with the gathered evidence — alignment or channel identifier is wrong"
        )

    assumed = ChannelMap.from_channels(free.tolist())
    # every remap observation's unmapped channel is proven excluded, so its
    # CSA#2 channel under the assumed map is the allowed channel at its remap index
    remap_index = csa2_remap_index(remap_prn, assumed.n_ch)
    unexplained = int(np.sum(assumed.ordered_array[remap_index] != sniff_channel))

    span = int(offsets[-1] - offsets[0])
    sighting = (offsets.size - remap_counters.size) / ((span + 1) * assumed.n_ch)
    converged = unexplained == 0 and (assumed.n_ch - 1) * (1 - sighting)**span <= _MAP_ALPHA
    return MapEstimate(
        evidence_count=dict(zip(excluded.tolist(), counts[excluded].tolist())),
        converged=converged,
        unexplained_remaps=unexplained,
    )


# the report keys that ``to_dict`` derives from others, and what each one is
_COPIES = {
    ("channel_identifier",): "the access address's channel identifier under a CSA#2 verdict",
    ("k_init",): "the first alignment candidate",
    ("alignment", "ambiguous"): "true when more than one alignment candidate ties",
    ("channel_map",): "the channel map without the evidence_count channels",
    ("proven_excluded",): "the evidence_count channels",
}


def _written(doc, path):
    """The JSON text of the value at ``path`` in ``doc``, or "absent"."""
    for key in path:
        if type(doc) is not dict or key not in doc:
            return "absent"
        doc = doc[key]
    return json.dumps(doc)


@dataclass
class ReconstructionReport:
    """Everything recovered for one connection, plus any estimation error.

    ``first_timestamp_ns`` is the timestamp of the first central
    observation (None without one): the event offsets behind ``k_init`` and
    the period profile count from it. ``channel_id`` follows from the
    access address under a CSA#2 verdict and is None otherwise.
    """

    access_address: int
    sniff_channel: int | None
    observation_count: int
    first_timestamp_ns: int | None
    error: str | None = None
    classification: CsaClassification | None = None
    alignment: CounterAlignment | None = None
    map_estimate: MapEstimate | None = None

    @property
    def channel_id(self):
        if self.classification is None or self.classification.verdict is not CsaVersion.CSA2:
            return None
        return channel_identifier(self.access_address)

    def to_dict(self):
        out = {
            "access_address": f"0x{self.access_address:08X}",
            "sniff_channel": self.sniff_channel,
            "observation_count": self.observation_count,
            "first_timestamp_ns": self.first_timestamp_ns,
            "error": self.error,
        }
        if self.classification is not None:
            est = self.classification.interval
            out["interval_us"] = est.interval_us
            out["raw_interval_us"] = est.raw_interval_ns / 1000.0
            out["verdict"] = self.classification.verdict.name
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
        """Read the JSON form. Every value that ``to_dict`` writes from the
        report's own fields is required; each copy it derives from them
        (the keys of ``_COPIES``) must read exactly as ``to_dict`` writes it."""
        with reading("report"):
            report = cls(
                access_address=check_access_address(int(raw["access_address"], 16)),
                sniff_channel=raw["sniff_channel"],
                observation_count=check_int(raw["observation_count"],
                                            "observation_count", 0, _MAX_COUNT),
                first_timestamp_ns=raw["first_timestamp_ns"],
                error=raw["error"],
            )
            if report.error is not None and type(report.error) is not str:
                raise ConfigError("report error must be null or a string, "
                                  f"got {report.error!r:.40}")
            if report.sniff_channel is not None:
                check_int(report.sniff_channel, "sniff_channel", 0, NUM_DATA_CHANNELS - 1)
            if report.first_timestamp_ns is not None:
                check_int(report.first_timestamp_ns, "first_timestamp_ns", -2**63, 2**63 - 1)
            if "verdict" in raw:
                interval_us = check_interval_us(raw["interval_us"])
                # a fitted interval lies within the gap tolerance of the snapped one;
                # a far smaller one would stretch a forecast over millions of events
                raw_us = check_number(raw["raw_interval_us"], "raw_interval_us",
                                      interval_us - INTERVAL_STEP_US // 2,
                                      interval_us + INTERVAL_STEP_US // 2, "()")
                verdict = raw["verdict"]
                if verdict not in ("CSA1", "CSA2"):
                    raise ConfigError(f'verdict must be "CSA1" or "CSA2", got {verdict!r:.40}')
                verdict = CsaVersion[verdict]
                profile = tuple(check_int(p, "period_profile entry", 0, NUM_DATA_CHANNELS - 1)
                                for p in raw["period_profile"])
                # a CSA#1 forecast visits the sniffed channel at the profile's phases only
                if (len(set(profile)) < len(profile) or report.sniff_channel is None
                        or report.first_timestamp_ns is None
                        or (verdict is CsaVersion.CSA1 and not profile)):
                    raise ConfigError("a verdict needs a sniff_channel, a first_timestamp_ns and "
                                      "distinct period_profile phases (at least one for CSA#1), "
                                      f"got {report.sniff_channel!r}, "
                                      f"{report.first_timestamp_ns!r} and {list(profile)}")
                interval = IntervalEstimate(interval_us * 1000, raw_us * 1000.0)
                report.classification = CsaClassification(verdict, profile, interval)
            if "alignment" in raw:
                align = raw["alignment"]
                candidates = tuple(check_int(c, "alignment candidate", 0, COUNTER_PERIOD - 1)
                                   for c in align["candidates"])
                if not candidates:
                    raise ConfigError("alignment candidates must hold at least one counter")
                report.alignment = CounterAlignment(
                    correlation_peak=check_int(align["correlation_peak"],
                                               "alignment.correlation_peak", 0, _MAX_COUNT),
                    second_peak=check_int(align["second_peak"],
                                          "alignment.second_peak", 0, _MAX_COUNT),
                    candidates=candidates,
                )
            if "evidence_count" in raw:
                report.map_estimate = MapEstimate(
                    evidence_count={
                        check_int(int(k), "evidence_count channel", 0, NUM_DATA_CHANNELS - 1):
                        check_int(v, "evidence_count value", 1, _MAX_COUNT)
                        for k, v in raw["evidence_count"].items()},
                    converged=check_bool(raw["converged"], "converged"),
                    unexplained_remaps=check_int(raw["unexplained_remaps"],
                                                 "unexplained_remaps", 0, _MAX_COUNT),
                )
                # remap evidence is never counted on the sniffed channel: a forecast
                # from such a map would never visit the channel the connection was heard on
                if report.sniff_channel in report.map_estimate.evidence_count:
                    raise ConfigError(f"evidence_count lists the sniff_channel "
                                      f"{report.sniff_channel}, which is in every map")
            if not report.error and report.classification is None:
                raise ConfigError("report holds neither an error nor a verdict")
            # a copy that disagrees would forecast from whichever one a reader takes
            derived = report.to_dict()
            for path, meaning in _COPIES.items():
                want, got = _written(derived, path), _written(raw, path)
                if got != want:
                    raise ConfigError(f"{'.'.join(path)} is {meaning}, so it must be "
                                      f"{want}, got {got:.40}")
            return report


def reconstruct_connection(trace):
    """Run the full single-connection pipeline, capturing estimation errors.

    The event offsets are computed once, at the raw interval estimate (its
    37th for the single-hit CSA#1 signature) and before classification, so
    every verdict passes the off-grid gate of :func:`observation_offsets`
    that prediction applies to the same trace, at the same interval.
    CSA#1 verdicts stop after classification (their counter does not enter
    channel selection and the single-channel view pins, at most, the hit
    phases); CSA#2 continues through counter alignment and map inference.
    An ambiguous alignment is surfaced in the report, and map inference is
    then skipped rather than guessing a candidate. Only the central
    packets are observations of the connection's events.
    """
    aa, trace = trace.connection()
    report = ReconstructionReport(
        access_address=aa or 0,  # an empty trace reports address 0
        sniff_channel=trace.sniff_channel,
        observation_count=len(trace),
        first_timestamp_ns=int(trace.timestamps()[0]) if len(trace) else None,
    )
    try:
        interval = estimate_interval(trace)
        folded = _single_hit_interval(interval)
        # gated at a single-hit reading's interval, which an error then names
        offsets = observation_offsets(trace, (folded or interval).raw_interval_ns)
        if folded is not None:
            # the hit 37-event periods, once each (an off-grid stray may share one)
            offsets = np.unique(offsets // NUM_DATA_CHANNELS)
        report.classification = classify_csa(offsets, interval)
        if report.classification.verdict is CsaVersion.CSA2:
            reference = build_ref_vector(report.channel_id, trace.sniff_channel)
            report.alignment = align_counter(offsets, reference)
            if not report.alignment.ambiguous:
                report.map_estimate = infer_channel_map(
                    offsets, report.alignment.k_init, report.channel_id, trace.sniff_channel
                )
    except EstimationError as exc:
        report.error = str(exc)
    return report


def reconstruct_all(trace):
    """Reconstruct every connection in a merged trace, one at a time.

    Yields ``(access_address, report)`` pairs in ascending address order,
    each as soon as its report is done. A connection's packets are copied
    out of the merged trace just before its reconstruction, so one
    connection's copy is held at a time. An address whose packets are all
    peripheral still gets a report (a failed one), under its own address.
    """
    for aa, part in connections(trace):
        yield aa, reconstruct_connection(part)
