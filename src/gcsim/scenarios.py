"""Scenario assembly: turn a :class:`ScenarioConfig` into a wired simulation.

``run_scenario`` builds either cluster flavour, drives the configured
workload through it, and returns a :class:`RunResult` with the completion
of every request (``metrics.Completions``), the pause intervals of every
node, and (for the replicated cluster) the safety-checker trace.
``run_compare`` draws the workload once (``metrics.Workload``) and replays
it, with the same seed, under all three collector modes; each run equals
the one ``run_scenario`` makes with its own draw.  A run fires its arrivals
straight from the workload's issue-time column and never writes it, so the
replays are independent.  Each arrival is an event, scheduled by the one
before it, except the runs of HTTP arrivals that the balancer fires in
place (``_WorkloadDriver``).
"""

from __future__ import annotations

import dataclasses
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from .config import ScenarioConfig
from .httpcluster import Backend, LoadBalancer
from .metrics import Completions, RunSummary, Workload, WorkloadConfig, summarize_run
from .raft import RaftClient, RaftNode, RaftTrace
from .runtime import CollectorCostModel, GcMode, HeapModel, ManagedRuntime, PauseInterval
from .simcore import NetworkModel, Simulation, SimStats

MODE_LABELS = {"off": "gc-off", "blade": "blade", "on": "gc-on"}
COMPARE_ORDER = ("off", "blade", "on")


@dataclass
class RunResult:
    config: ScenarioConfig
    mode: str
    samples: Completions
    issued: int
    pauses: list[PauseInterval]
    stats: SimStats
    trace: Optional[RaftTrace] = None
    retries: int = 0
    peak_allocated: dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return MODE_LABELS[self.mode]

    @property
    def in_flight(self) -> int:
        return self.issued - len(self.samples)

    def latencies_us(self) -> array:
        return array("q", self.samples.latencies())

    def latency_by_rid(self) -> dict[int, int]:
        return self.samples.latency_by_rid()

    def summary(self) -> RunSummary:
        counts = self.samples.latency_counts()
        return summarize_run(self.label, counts, self.issued - counts.total(), self.pauses)


class _WorkloadDriver:
    """Fires a workload's arrivals into the simulation.

    One path serves both systems.  Arrival ``i`` is request ``i + 1``,
    issued at ``workload.times[i]``; the driver fires it by that index and
    calls ``dispatch(rid)``.  Scheduling each arrival from its predecessor
    keeps the event queue small.  Events of one tick fire in insertion
    order, and an arrival is inserted when its predecessor fires, after the
    predecessor's dispatch: it fires after the protocol events of its tick
    that were scheduled before that, and before those scheduled later.

    With a ``run`` entry point, each dispatch is followed by a call of
    ``run(times, lo, hi)`` on the arrivals after it: it takes a run of those
    that fire in place before anything else in one pass
    (``Simulation.fire_run_in_place``), and returns how many.  The arrival
    after them, the first that no run takes, is scheduled as above.  The HTTP
    balancer gives a ``run`` (``LoadBalancer.route_run``); Raft gives none,
    so every Raft arrival is scheduled.
    """

    def __init__(self, sim: Simulation, workload: Workload, dispatch: Callable[[int], None],
                 run: Optional[Callable[..., int]] = None):
        self.sim = sim
        self.times = workload.times
        self.dispatch = dispatch
        self.run = run
        self.issued = 0
        if self.times:
            sim.schedule_at(self.times[0], self._fire, 0)

    def _fire(self, i: int) -> None:
        """Fire the arrival at ``i``, let ``run`` take the run after it, and
        schedule the next arrival."""
        times = self.times
        self.dispatch(i + 1)
        i += 1
        if self.run is not None and i < len(times):
            i += self.run(times, i, len(times))
        self.issued = i
        if i < len(times):
            self.sim.schedule_at(times[i], self._fire, i)


def _make_runtime(sim: Simulation, node_id: str, cfg: ScenarioConfig,
                  mode: GcMode) -> ManagedRuntime:
    heap = HeapModel(
        live_bytes=cfg.live_bytes,
        trigger_bytes=cfg.effective_trigger_bytes(),
        hard_limit_bytes=cfg.hard_limit_bytes,
    )
    cost = CollectorCostModel(pause_per_gib_us=cfg.pause_per_gib_us,
                              fixed_overhead_us=cfg.pause_overhead_us)
    return ManagedRuntime(sim, node_id, heap, cost, mode=mode,
                          background_bytes_per_s=cfg.background_alloc_bytes_per_s,
                          background_interval_us=cfg.background_alloc_interval_us)


def run_scenario(cfg: ScenarioConfig, mode: Optional[str] = None,
                 seed: Optional[int] = None, duration_s: Optional[int] = None,
                 workload: Optional[Workload] = None) -> RunResult:
    """Run one scenario; overrides are checked like the same config keys.
    A ``workload`` given must be the one the run's own config draws."""
    cfg = _override(cfg, gc_mode=mode, seed=seed, duration_s=duration_s)
    wanted = _workload_config(cfg)
    if workload is None:
        workload = Workload(wanted)
    elif workload.config != wanted:
        raise ValueError(f"workload drawn for {workload.config}, not for {wanted}")
    sim = Simulation(seed=cfg.seed,
                     network=NetworkModel.from_rtt(cfg.rtt_us, cfg.jitter_us))
    build = _build_http if cfg.system == "http" else _build_raft
    servers, dispatch, run, finish = build(sim, cfg, GcMode(cfg.gc_mode), workload)
    driver = _WorkloadDriver(sim, workload, dispatch, run)

    sim.run_until(cfg.duration_us())

    fields = finish()  # may account work done by the deadline, so stats come after
    stats = SimStats(events_fired=sim.events_fired, now=sim.now,
                     messages_sent=sim.messages_sent)
    pauses = [p for node in servers for p in node.runtime.pauses]
    return RunResult(
        config=cfg, mode=cfg.gc_mode, issued=driver.issued, pauses=pauses, stats=stats,
        peak_allocated={node.id: node.runtime.peak_allocated_bytes for node in servers},
        **fields)


def _override(cfg: ScenarioConfig, **given) -> ScenarioConfig:
    return dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _workload_config(cfg: ScenarioConfig) -> WorkloadConfig:
    return WorkloadConfig(
        rate_rps=cfg.rate_rps, duration_s=cfg.duration_s,
        mix_get=cfg.mix_get, mix_set=cfg.mix_set, arrivals=cfg.arrivals,
        seed=cfg.seed, kind="http" if cfg.system == "http" else "rw")


# A builder wires one system into ``sim``, recording completions over the
# workload's requests, and returns its servers (each with ``id`` and
# ``runtime``), the workload dispatch function and run entry point (or
# None), and a function that returns the system's own ``RunResult`` fields
# once the run is over.
_Built = tuple[list, Callable[[int], None], Optional[Callable[..., int]], Callable[[], dict]]


# -- HTTP cluster ----------------------------------------------------------------


def _build_http(sim: Simulation, cfg: ScenarioConfig, mode: GcMode,
                workload: Workload) -> _Built:
    service_us = cfg.service_time_us
    if mode is GcMode.OFF and cfg.gcoff_slowdown > 1.0:
        service_us = round(service_us * cfg.gcoff_slowdown)

    backend_ids = [f"b{i}" for i in range(cfg.nodes)]
    lb = LoadBalancer(sim, "lb", backend_ids, max_concurrent=cfg.max_concurrent,
                      times=workload.times)
    backends = []
    for bid in backend_ids:
        runtime = _make_runtime(sim, bid, cfg, mode)
        backends.append(Backend(
            sim, bid, lb, runtime,
            service_time_us=service_us,
            parallelism=cfg.parallelism,
            bytes_per_request=cfg.bytes_per_request,
        ))

    def finish() -> dict:
        return {"samples": lb.samples}

    return backends, lb.on_request, lb.route_run, finish


# -- replicated key-value cluster ---------------------------------------------------


def _build_raft(sim: Simulation, cfg: ScenarioConfig, mode: GcMode,
                workload: Workload) -> _Built:
    trace = RaftTrace()

    node_ids = [f"n{i}" for i in range(cfg.nodes)]
    client_ids = [f"c{i}" for i in range(cfg.clients)]
    nodes: list[RaftNode] = []
    for i, nid in enumerate(node_ids):
        node_mode = mode
        if cfg.gc_nodes == "followers" and i == 0:
            node_mode = GcMode.OFF  # keep the bootstrap leader collection-free
        runtime = _make_runtime(sim, nid, cfg, node_mode)
        nodes.append(RaftNode(
            sim, nid, node_ids, runtime, trace,
            heartbeat_us=cfg.heartbeat_ms * 1_000,
            election_timeout_us=(cfg.election_timeout_min_ms * 1_000,
                                 cfg.election_timeout_max_ms * 1_000),
            service_time_us=cfg.service_time_us,
            bytes_per_request=cfg.bytes_per_request,
            proxy_mode=cfg.proxy_mode == "proxy",
            client_ids=client_ids,
            timer_seed=cfg.seed * 1_000 + i,
        ))

    bootstrap = nodes[0]
    bootstrap.term = 1
    bootstrap.voted_for = bootstrap.id
    bootstrap._become_leader()

    samples = Completions(workload.times, workload.pattern, node_ids, lambda: sim.now)
    clients = [RaftClient(sim, cid, bootstrap.id, cfg.client_timeout_us, samples.add)
               for cid in client_ids]

    keys = [f"k{i}" for i in range(997)]  # one string per key, shared by every log
    pattern = workload.pattern
    period = len(pattern)

    def dispatch(rid: int) -> None:
        key = keys[rid % 997]
        op = ("get", key) if pattern[(rid - 1) % period] == "get" else ("set", key, rid)
        clients[rid % len(clients)].submit(rid, op)

    def finish() -> dict:
        return {"samples": samples, "trace": trace,
                "retries": sum(c.retries for c in clients)}

    return nodes, dispatch, None, finish


def run_compare(cfg: ScenarioConfig, seed: Optional[int] = None,
                duration_s: Optional[int] = None) -> list[RunResult]:
    """Run the identical seed and workload, drawn once, under all three modes."""
    cfg = _override(cfg, seed=seed, duration_s=duration_s)
    workload = Workload(_workload_config(cfg))
    return [run_scenario(cfg, mode=m, workload=workload) for m in COMPARE_ORDER]
