"""Scenario assembly: turn a :class:`ScenarioConfig` into a wired simulation.

``run_scenario`` builds either cluster flavour, drives the configured
workload through it, and returns a :class:`RunResult` with every completed
sample, the pause intervals of every node, and (for the replicated cluster)
the safety-checker trace.  ``run_compare`` replays the identical workload
and seed under all three collector modes.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .config import ScenarioConfig
from .httpcluster import Backend, LoadBalancer
from .metrics import RunSummary, SampleLog, WorkloadConfig, generate_workload, summarize_run
from .raft import RaftClient, RaftNode, RaftTrace
from .runtime import CollectorCostModel, GcMode, HeapModel, ManagedRuntime, PauseInterval
from .simcore import NetworkModel, Simulation, SimStats

MODE_LABELS = {"off": "gc-off", "blade": "blade", "on": "gc-on"}
COMPARE_ORDER = ("off", "blade", "on")
# The most stream items a driver with a run entry point holds at once.
_CHUNK = 1024


@dataclass
class RunResult:
    config: ScenarioConfig
    mode: str
    samples: SampleLog
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
        counts = Counter(self.samples.latencies())
        return summarize_run(self.label, counts, self.in_flight, self.pauses)


class _WorkloadDriver:
    """Feeds a workload stream into the simulation.

    Scheduling each arrival from its predecessor keeps the event queue small.
    Events of one tick fire in insertion order, and an arrival is inserted
    when its predecessor fires, after the predecessor's dispatch: it fires
    after the protocol events of its tick that were scheduled before that,
    and before those scheduled later.  The arrival event's argument is the
    stream's ``(t, rid, kind)`` tuple (with ``run``, its place in the chunk).

    An arrival that would be the engine's next event fires in place, inside
    its predecessor's event (``Simulation.fire_in_place``), in a loop.  The
    engine is asked after each dispatch, so an event that the dispatch
    queued at or before the next arrival still fires first, and the event
    order is the one above.  A Raft arrival seldom fires in place: its
    predecessor's dispatch sends a request to the leader, due one network
    delay later, and only an arrival sooner than that can go first.

    With a ``run`` entry point, the driver reads the stream in chunks, as
    columns, and after each dispatch hands ``run(times, rids, lo, hi)`` the
    arrivals that follow: it takes those that fire in place before anything
    else in one pass (``Simulation.fire_run_in_place``), and returns how
    many.  The arrival after them goes through ``dispatch`` as above.
    """

    def __init__(self, sim: Simulation, stream: Iterator[tuple[int, int, str]],
                 dispatch: Callable[[int, str], None],
                 run: Optional[Callable[..., int]] = None):
        self.sim = sim
        self.stream = stream
        self.dispatch = dispatch
        self.run = run
        self.issued = 0
        if run is not None:
            self._read()
            if self._times:
                sim.schedule_at(self._times[0], self._fire_runs, 0)
            return
        item = next(stream, None)
        if item is not None:
            sim.schedule_at(item[0], self._fire, item)

    def _fire(self, item: tuple[int, int, str]) -> None:
        sim, stream, dispatch = self.sim, self.stream, self.dispatch
        while True:
            self.issued += 1
            dispatch(item[1], item[2])
            item = next(stream, None)
            if item is None:
                return
            if not sim.fire_in_place(item[0]):
                sim.schedule_at(item[0], self._fire, item)
                return

    def _read(self) -> None:
        """Take the stream's next chunk, as columns."""
        chunk = list(islice(self.stream, _CHUNK))
        self._times, self._rids, self._kinds = (list(map(itemgetter(i), chunk)) for i in range(3))

    def _fire_runs(self, i: int) -> None:
        """Fire the arrival at ``i`` of the chunk, and the ones after it
        that fire in place."""
        sim, dispatch, run = self.sim, self.dispatch, self.run
        times, rids, kinds = self._times, self._rids, self._kinds
        while True:
            self.issued += 1
            dispatch(rids[i], kinds[i])
            i += 1
            while True:
                if i == len(times):
                    self._read()
                    times, rids, kinds, i = self._times, self._rids, self._kinds, 0
                    if not times:
                        return
                taken = run(times, rids, i, len(times))
                self.issued += taken
                i += taken
                if i < len(times):
                    break
            if not sim.fire_in_place(times[i]):
                sim.schedule_at(times[i], self._fire_runs, i)
                return


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
                 seed: Optional[int] = None,
                 duration_s: Optional[int] = None) -> RunResult:
    """Run one scenario; overrides are checked like the same config keys."""
    overrides = {"gc_mode": mode, "seed": seed, "duration_s": duration_s}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    sim = Simulation(seed=cfg.seed,
                     network=NetworkModel.from_rtt(cfg.rtt_us, cfg.jitter_us))
    build = _build_http if cfg.system == "http" else _build_raft
    servers, dispatch, run, finish = build(sim, cfg, GcMode(cfg.gc_mode))

    stream = generate_workload(WorkloadConfig(
        rate_rps=cfg.rate_rps, duration_s=cfg.duration_s,
        mix_get=cfg.mix_get, mix_set=cfg.mix_set, arrivals=cfg.arrivals,
        seed=cfg.seed, kind="http" if cfg.system == "http" else "rw"))
    driver = _WorkloadDriver(sim, stream, dispatch, run)

    sim.run_until(cfg.duration_us())

    fields = finish()  # may account work done by the deadline, so stats come after
    stats = SimStats(events_fired=sim.events_fired, now=sim.now,
                     messages_sent=sim.messages_sent)
    pauses = [p for node in servers for p in node.runtime.pauses]
    return RunResult(
        config=cfg, mode=cfg.gc_mode, issued=driver.issued, pauses=pauses, stats=stats,
        peak_allocated={node.id: node.runtime.peak_allocated_bytes for node in servers},
        **fields)


# A builder wires one system into ``sim`` and returns its servers (each with
# ``id`` and ``runtime``), the workload dispatch function and run entry point
# (or None), and a function that returns the system's own ``RunResult``
# fields once the run is over.
_Built = tuple[list, Callable[[int, str], None], Optional[Callable[..., int]], Callable[[], dict]]


# -- HTTP cluster ----------------------------------------------------------------


def _build_http(sim: Simulation, cfg: ScenarioConfig, mode: GcMode) -> _Built:
    service_us = cfg.service_time_us
    if mode is GcMode.OFF and cfg.gcoff_slowdown > 1.0:
        service_us = round(service_us * cfg.gcoff_slowdown)

    backend_ids = [f"b{i}" for i in range(cfg.nodes)]
    lb = LoadBalancer(sim, "lb", backend_ids, max_concurrent=cfg.max_concurrent)
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
        lb.samples.keep_arrived(sim.now)
        return {"samples": lb.samples}

    return backends, lb.on_request, lb.route_run, finish


# -- replicated key-value cluster ---------------------------------------------------


def _build_raft(sim: Simulation, cfg: ScenarioConfig, mode: GcMode) -> _Built:
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

    samples = SampleLog()
    clients = [RaftClient(sim, cid, bootstrap.id, cfg.client_timeout_us, samples.add)
               for cid in client_ids]

    keys = [f"k{i}" for i in range(997)]  # one string per key, shared by every log

    def dispatch(rid: int, kind: str) -> None:
        key = keys[rid % 997]
        op = ("get", key) if kind == "get" else ("set", key, rid)
        clients[rid % len(clients)].submit(rid, op)

    def finish() -> dict:
        return {"samples": samples, "trace": trace,
                "retries": sum(c.retries for c in clients)}

    return nodes, dispatch, None, finish


def run_compare(cfg: ScenarioConfig, seed: Optional[int] = None,
                duration_s: Optional[int] = None) -> list[RunResult]:
    """Run the identical seed and workload under all three collector modes."""
    return [run_scenario(cfg, mode=m, seed=seed, duration_s=duration_s)
            for m in COMPARE_ORDER]
