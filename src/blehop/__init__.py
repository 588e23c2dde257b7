"""Passive BLE connection sniffing toolkit.

Simulate what a single-channel sniffer sees of hopping BLE connections,
recover each connection's parameters (interval, hop algorithm, event
counter, channel map) from nothing but packet timing on that one channel,
and forecast future channel accesses with a drift-tracking filter.
"""

from .csa import (
    COUNTER_PERIOD,
    NUM_DATA_CHANNELS,
    ChannelMap,
    ConnectionParams,
    CsaVersion,
    channel_identifier,
    channel_sequence,
    csa1_channels_bulk,
    csa1_unmapped_bulk,
    csa2_channels_bulk,
    csa2_counters_for_unmapped,
    csa2_unmapped_bulk,
    mam,
    perm16,
    prn_e_bulk,
)
from .errors import (
    AmbiguousAlignmentError,
    BlehopError,
    ConfigError,
    EstimationError,
    InconsistentEvidenceError,
    InsufficientDataError,
    TraceParseError,
)
from .predict import (
    EvalReport,
    Forecast,
    PredictionRun,
    SyncState,
    evaluate,
    init_sync,
    kalman_update,
    predict_csa1,
    predict_csa2,
    predict_event_time,
    run_prediction,
)
from .reconstruct import (
    CounterAlignment,
    CsaClassification,
    IntervalEstimate,
    MapEstimate,
    ReconstructionReport,
    Verdict,
    align_counter,
    build_meas_vector,
    build_ref_vector,
    classify_csa,
    estimate_interval,
    infer_channel_map,
    observation_offsets,
    reconstruct_all,
    reconstruct_connection,
)
from .simulate import (
    ConnectionScenario,
    EventTimeline,
    ImpairmentModel,
    ScenarioConfig,
    expected_reconstruction_budget,
    simulate,
)
from .trace import Observation, SniffTrace, load_trace, save_trace, split_by_connection

__version__ = "0.1.0"
