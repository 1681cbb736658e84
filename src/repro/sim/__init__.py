"""Simulation engine (S7).

Table-2 configuration, measurement sampling, the step-driven handover
simulator, the vectorised multi-UE batch engine, quality metrics
(ping-pong detection, mergeable fleet aggregates, streaming
accumulation), the pluggable serial/process/distributed execution
layer, and the sweep and sharded-fleet runners built on it.
"""

from .config import PAPER_SPEEDS_KMH, SimulationParameters
from .measurement import (
    DEFAULT_TILE_EPOCHS,
    BatchMeasurementSeries,
    MeasurementSampler,
    MeasurementSeries,
    MeasurementTile,
    TiledBatchMeasurement,
)
from .engine import HandoverEvent, SimulationResult, Simulator
from .batch import BatchSimulationResult, BatchSimulator
from .metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    CohortMetrics,
    FleetMetrics,
    FleetMetricsAccumulator,
    HandoverMetrics,
    compute_fleet_metrics,
    compute_metrics,
    count_ping_pongs,
    mean_dwell_epochs,
    merge_fleet_metrics,
    necessary_handovers,
    ping_pong_events,
    wrong_cell_fraction,
)
from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    default_workers,
    make_executor,
)
from .fleet import FleetSpec, partition_fleet, run_fleet
from .distributed import (
    DistributedExecutionError,
    DistributedExecutor,
    WorkerServer,
    local_worker_pool,
    parse_hosts,
)
from .population import (
    POPULATION_MIXES,
    PolicyConfig,
    PopulationSpec,
    UECohort,
    named_population,
)
from .runner import (
    PolicySpec,
    RunOutcome,
    make_policy,
    run_grid,
    run_repetitions,
    run_single,
    run_trace,
    summarize_outcomes,
)
from .parallel import expand_grid, run_grid_parallel
from .tracefile import (
    TRACE_FORMAT,
    TRACE_VERSION,
    FleetTrace,
    offline_reference_metrics,
    record_fleet_trace,
)
from .session import (
    DEFAULT_HANDOVER_COST,
    DEFAULT_SENSITIVITY_DBW,
    SessionMetrics,
    evaluate_session,
)

__all__ = [
    "SimulationParameters",
    "PAPER_SPEEDS_KMH",
    "MeasurementSampler",
    "MeasurementSeries",
    "BatchMeasurementSeries",
    "MeasurementTile",
    "TiledBatchMeasurement",
    "DEFAULT_TILE_EPOCHS",
    "Simulator",
    "SimulationResult",
    "HandoverEvent",
    "BatchSimulator",
    "BatchSimulationResult",
    "HandoverMetrics",
    "FleetMetrics",
    "compute_metrics",
    "compute_fleet_metrics",
    "count_ping_pongs",
    "ping_pong_events",
    "necessary_handovers",
    "wrong_cell_fraction",
    "mean_dwell_epochs",
    "DEFAULT_WINDOW_KM",
    "PolicySpec",
    "RunOutcome",
    "make_policy",
    "run_trace",
    "run_single",
    "run_repetitions",
    "run_grid",
    "summarize_outcomes",
    "run_grid_parallel",
    "expand_grid",
    "default_workers",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "FleetSpec",
    "partition_fleet",
    "run_fleet",
    "DistributedExecutor",
    "DistributedExecutionError",
    "WorkerServer",
    "local_worker_pool",
    "parse_hosts",
    "FleetMetricsAccumulator",
    "merge_fleet_metrics",
    "CohortMetrics",
    "DEFAULT_OUTAGE_DBW",
    "PopulationSpec",
    "UECohort",
    "PolicyConfig",
    "POPULATION_MIXES",
    "named_population",
    "FleetTrace",
    "record_fleet_trace",
    "offline_reference_metrics",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "SessionMetrics",
    "evaluate_session",
    "DEFAULT_SENSITIVITY_DBW",
    "DEFAULT_HANDOVER_COST",
]
