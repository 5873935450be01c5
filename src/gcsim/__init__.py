"""gcsim: deterministic simulation of collection coordination in clusters.

The package has three layers:

* ``simcore`` and ``runtime``: the discrete-event engine and the per-node
  managed runtime with its cooperative collection API.
* ``httpcluster`` and ``raft``: the two coordination protocols, plus the
  ``raftcheck`` safety oracle.
* ``metrics``, ``config``, ``scenarios``, ``cli``: workload generation,
  reporting, and scenario orchestration.
"""

from .config import ConfigError, ScenarioConfig, default_config, parse_config, serialize
from .httpcluster import (Backend, BackendStatus, HttpEventModel, HttpModelResult,
                          LoadBalancer, http_model_eval)
from .metrics import (OverlapStat, PercentileReport, WorkloadConfig, emit_report,
                      generate_workload, overlap_count, percentiles)
from .raft import (FollowerGcModel, LeaderGcModel, RaftClient, RaftNode, RaftTrace, Role,
                   raft_model_eval)
from .raftcheck import check_history
from .runtime import (CollectionTicket, CollectorCostModel, GcLedger, GcMode, HeapModel,
                      ManagedRuntime, PauseEstimator, PauseInterval, TicketState,
                      GIB, KIB, MIB)
from .scenarios import RunResult, run_compare, run_scenario
from .simcore import (NetworkModel, SchedulingError, SimStats, SimTime,
                      Simulation, MS, SEC, US)

__all__ = [
    "Backend", "BackendStatus", "CollectionTicket", "CollectorCostModel",
    "ConfigError", "FollowerGcModel", "GcLedger", "GcMode", "GIB",
    "HeapModel", "HttpEventModel", "HttpModelResult", "KIB",
    "LeaderGcModel", "LoadBalancer", "ManagedRuntime", "MIB", "MS",
    "NetworkModel", "OverlapStat", "PauseEstimator", "PauseInterval",
    "PercentileReport", "RaftClient", "RaftNode", "RaftTrace", "Role",
    "RunResult", "ScenarioConfig", "SchedulingError", "SEC", "SimStats",
    "SimTime", "Simulation", "TicketState", "US", "WorkloadConfig",
    "check_history", "default_config", "emit_report", "generate_workload", "http_model_eval",
    "overlap_count", "parse_config", "percentiles", "raft_model_eval",
    "run_compare", "run_scenario", "serialize",
]
