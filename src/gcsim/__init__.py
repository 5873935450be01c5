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
from .httpcluster import Backend, LoadBalancer
from .metrics import (OverlapStat, PercentileReport, WorkloadConfig, emit_report,
                      generate_workload, overlap_count, percentiles)
from .raft import RaftClient, RaftNode, RaftTrace, Role
from .raftcheck import check_history
from .runtime import (CollectionTicket, CollectorCostModel, GcGrantee, GcLedger, GcMode,
                      HeapModel, ManagedRuntime, PauseInterval, TicketState, GIB, KIB, MIB)
from .scenarios import RunResult, run_compare, run_scenario
from .simcore import (NetworkModel, SchedulingError, SimStats, SimTime,
                      Simulation, MS, SEC, US)

__all__ = [
    "Backend", "CollectionTicket", "CollectorCostModel", "ConfigError",
    "GcGrantee", "GcLedger", "GcMode", "GIB", "HeapModel", "KIB", "LoadBalancer",
    "ManagedRuntime", "MIB", "MS", "NetworkModel", "OverlapStat", "PauseInterval",
    "PercentileReport", "RaftClient", "RaftNode", "RaftTrace", "Role",
    "RunResult", "ScenarioConfig", "SchedulingError", "SEC", "SimStats",
    "SimTime", "Simulation", "TicketState", "US", "WorkloadConfig",
    "check_history", "default_config", "emit_report", "generate_workload",
    "overlap_count", "parse_config", "percentiles",
    "run_compare", "run_scenario", "serialize",
]
