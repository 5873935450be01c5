"""Load-balanced HTTP cluster with drain-then-collect coordination.

A round-robin balancer fronts identical backends.  When a backend's runtime
offers a collection, the backend asks the balancer-side coordinator for a
slot instead of pausing; once granted, the balancer stops routing to it, the
backend finishes its outstanding requests (the trailers), collects while
idle, then notifies the coordinator and rejoins the rotation.  The
coordinator caps how many backends may be down at once and queues further
askers FIFO, so a request is never serviced by a paused backend.

Message flow per collection (one-way network delay each hop):

    backend --ask--> coordinator --allow--> backend ... drain ... pause ...
    backend --done--> coordinator (routing resumes)
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .runtime import CollectionTicket, GcLedger, ManagedRuntime
from .simcore import NodeId, Simulation


# -- capacity/latency model ---------------------------------------------------


@dataclass
class HttpEventModel:
    """Timing inputs for one coordinated collection at a backend, in us."""

    t_schedule: int
    t_trailers: int
    t_gc: int
    t_rpc: int


@dataclass
class HttpModelResult:
    latency_impact_us: int
    capacity_loss_servers: int
    capacity_downtime_us: int
    event_time_us: int


def http_model_eval(model: HttpEventModel) -> HttpModelResult:
    """Evaluate the cluster capacity model for one collection event.

    Coordinated collection trades capacity for latency: requests never wait
    on the collector (impact 0), one server leaves the rotation for the
    drain + pause + completion-notification window.
    """
    for name in ("t_schedule", "t_trailers", "t_gc", "t_rpc"):
        if getattr(model, name) < 0:
            raise ValueError(f"{name} must be non-negative")
    downtime = model.t_trailers + model.t_gc + model.t_rpc
    return HttpModelResult(
        latency_impact_us=0,
        capacity_loss_servers=1,
        capacity_downtime_us=downtime,
        event_time_us=model.t_schedule + downtime,
    )


# -- cluster actors -------------------------------------------------------------


class BackendStatus(enum.Enum):
    SERVING = "serving"
    AWAITING_SCHEDULE = "awaiting_schedule"
    DRAINING = "draining"
    COLLECTING = "collecting"
    NOTIFYING = "notifying"


class Backend:
    """One web server: FIFO queue, fixed service time, bounded concurrency.

    Requests allocate ``bytes_per_request`` on arrival, which is what drives
    the runtime's collection triggers.  While the runtime is paused the
    backend starts no new work and in-flight completions shift right by the
    pause, matching stop-the-world semantics.
    """

    def __init__(self, sim: Simulation, backend_id: NodeId, balancer_id: NodeId,
                 runtime: ManagedRuntime, service_time_us: int, parallelism: int,
                 bytes_per_request: int, defer_threshold_us: int = 1_000,
                 coordinated: bool = False):
        self.sim = sim
        self.id = backend_id
        self.balancer_id = balancer_id
        self.runtime = runtime
        self.service_time_us = service_time_us
        self.parallelism = parallelism
        self.bytes_per_request = bytes_per_request
        self.defer_threshold_us = defer_threshold_us
        self.status = BackendStatus.SERVING
        self.queue: deque = deque()
        self.in_service = 0
        self._completions: dict[int, list] = {}
        self._pending_ticket_id: Optional[int] = None
        runtime.on_pause = self._on_pause
        if coordinated:
            runtime.reg_gc_hand(self._on_gc_offer)
        sim.add_node(backend_id, self.deliver)

    # -- request path ------------------------------------------------------

    def deliver(self, src: NodeId, msg: tuple) -> None:
        tag = msg[0]
        if tag == "req":
            self._on_request(msg[1], msg[2])
        elif tag == "allow":
            self._on_allow()
        else:
            raise ValueError(f"backend {self.id} got unknown message {msg!r}")

    def _on_request(self, rid: int, issued: int) -> None:
        if self.runtime.is_paused or self.in_service >= self.parallelism:
            self.queue.append((rid, issued))
        else:
            self._start(rid, issued)

    def _start(self, rid: int, issued: int) -> None:
        # Allocation happens as the request is serviced; if it trips an
        # immediate collection, this request resumes after the pause.
        self.in_service += 1
        self.runtime.allocate(self.bytes_per_request)
        start_at = max(self.sim.now, self.runtime.paused_until)
        self._completions[rid] = self.sim.schedule_at(
            start_at + self.service_time_us, self._complete, (rid, issued))

    def _complete(self, arg: tuple) -> None:
        rid, issued = arg
        del self._completions[rid]
        self.in_service -= 1
        self.sim.send(self.id, self.balancer_id, ("rep", rid, issued))
        if not self.runtime.is_paused:
            while self.queue and self.in_service < self.parallelism:
                self._start(*self.queue.popleft())
        if self.status is BackendStatus.DRAINING and self._idle():
            self._begin_collect()

    def _idle(self) -> bool:
        return self.in_service == 0 and not self.queue

    # -- coordinated collection flow -----------------------------------------

    def _on_gc_offer(self, ticket: CollectionTicket) -> bool:
        # Collections short enough to be invisible are not worth coordinating.
        if ticket.estimated_pause_us <= self.defer_threshold_us:
            return True
        self._pending_ticket_id = ticket.id
        self.status = BackendStatus.AWAITING_SCHEDULE
        self.sim.send(self.id, self.balancer_id, ("ask", ticket.id))
        return False

    def _on_allow(self) -> None:
        self.status = BackendStatus.DRAINING
        if self._idle():
            self._begin_collect()

    def _begin_collect(self) -> None:
        self.status = BackendStatus.COLLECTING
        tid = self._pending_ticket_id
        self.runtime.start_gc(tid)
        if not self.runtime.is_paused:
            # Exhaustion already forced this cycle (or the pause rounded to
            # zero); nothing to wait for.
            self._finish_collect()

    def _finish_collect(self) -> None:
        self.sim.send(self.id, self.balancer_id, ("done", self._pending_ticket_id))
        self._pending_ticket_id = None
        self.status = BackendStatus.NOTIFYING
        self.sim.schedule_after(self.sim.network.one_way_delay_us, self._back_to_serving)

    def _back_to_serving(self, _arg=None) -> None:
        if self.status is BackendStatus.NOTIFYING:
            self.status = BackendStatus.SERVING

    # -- stop-the-world handling ----------------------------------------------

    def _on_pause(self, start_us: int, end_us: int) -> None:
        shift = end_us - start_us
        for rid, handle in list(self._completions.items()):
            self.sim.cancel(handle)
            self._completions[rid] = self.sim.schedule_at(
                handle[0] + shift, self._complete, handle[3])
        self.sim.schedule_at(end_us, self._wake)

    def _wake(self, _arg=None) -> None:
        while self.queue and self.in_service < self.parallelism:
            self._start(*self.queue.popleft())
        if self.status is BackendStatus.COLLECTING:
            self._finish_collect()
        elif self.status is BackendStatus.DRAINING and self._idle():
            # A forced collection ran mid-drain; the later grant only needs
            # the (now no-op) start plus the done notification.
            self._begin_collect()


class LoadBalancer:
    """Round-robin front end with the co-located collection coordinator.

    Requests arriving while no backend is routable queue FIFO and drain as
    soon as a backend rejoins.  The coordinator is a :class:`GcLedger` of
    capacity ``max_concurrent``; a backend leaves the rotation while it holds
    a grant.
    """

    def __init__(self, sim: Simulation, balancer_id: NodeId,
                 backend_ids: list[NodeId], max_concurrent: int = 1):
        self.sim = sim
        self.id = balancer_id
        self.order = list(backend_ids)
        self.routing_ok = {b: True for b in backend_ids}
        self.rr_pos = 0
        self.pending: deque = deque()
        self.ledger = GcLedger(max_concurrent)
        # Alias kept for the benchmark's tracer, which reads ``lb.wait_queue``.
        self.wait_queue = self.ledger.pending
        self.samples: list[tuple[int, int, int, NodeId]] = []
        self.routed = 0
        sim.add_node(balancer_id, self.deliver)

    # -- routing ------------------------------------------------------------

    def on_request(self, rid: int) -> None:
        """Entry point for workload arrivals; issue time is the current tick."""
        self.route(rid, self.sim.now)

    def route(self, rid: int, issued: int) -> Optional[NodeId]:
        n = len(self.order)
        for k in range(n):
            idx = (self.rr_pos + k) % n
            backend = self.order[idx]
            if self.routing_ok[backend]:
                self.rr_pos = (idx + 1) % n
                self.routed += 1
                self.sim.send(self.id, backend, ("req", rid, issued))
                return backend
        self.pending.append((rid, issued))
        return None

    # -- replies and coordination ----------------------------------------------

    def deliver(self, src: NodeId, msg: tuple) -> None:
        tag = msg[0]
        if tag == "rep":
            _, rid, issued = msg
            self.samples.append((rid, issued, self.sim.now, src))
        elif tag == "ask":
            if self.ledger.ask(src) == "grant":
                self._grant(src)
        elif tag == "done":
            self._on_done(src)
        else:
            raise ValueError(f"balancer got unknown message {msg!r}")

    def _grant(self, backend: NodeId) -> None:
        self.routing_ok[backend] = False
        self.sim.send(self.id, backend, ("allow",))

    def _on_done(self, backend: NodeId) -> None:
        nxt = self.ledger.finish(backend)
        self.routing_ok[backend] = True
        while self.pending and any(self.routing_ok.values()):
            rid, issued = self.pending.popleft()
            self.route(rid, issued)
        if nxt is not None:
            self._grant(nxt)
