"""Load-balanced HTTP cluster with drain-then-collect coordination.

A round-robin balancer fronts identical backends.  Each backend's collections
go through a :class:`GcGrantee`: a long one is deferred and asked for at the
balancer-side coordinator instead of pausing.  Once granted, the balancer
stops routing to the backend, which finishes its outstanding requests (the
trailers), collects while idle, then notifies the coordinator and rejoins the
rotation.  The coordinator caps how many backends may be down at once and
queues further askers FIFO, so a request is never serviced by a paused
backend.

Message flow per collection (one-way network delay each hop):

    backend --ask--> coordinator --allow--> backend ... drain ... pause ...
    backend --done--> coordinator (routing resumes)

If exhaustion forces the collection while the ask is still queued, the
backend withdraws the ask with a done once the pause is over.

Each request costs three events: its arrival at the balancer, which routes
it; its delivery to a backend; and its completion there.  Replies never feed
routing: the rotation moves on grants and dones alone, so the common case
(no backend holds a grant) routes without looking at any backend's state.
So a reply queues no delivery.  The completing backend records the sample
in the balancer's ``samples`` as it sends the reply, stamped with the time
the reply arrives (``Simulation.stamp``), so a row is visible from the
send on.  ``SampleLog.keep_arrived`` sets aside the rows still on the wire
at a given time and puts the others in arrival order; a scenario run
reports those.
"""

from __future__ import annotations

from collections import deque
from typing import Optional
from weakref import WeakKeyDictionary

from .metrics import SampleLog
from .runtime import CollectionTicket, GcGrantee, GcLedger, ManagedRuntime
from .simcore import NodeId, SchedulingError, Simulation

# Each balancer's sample log, by simulation and balancer id, for its backends
# to record replies in.
_SAMPLE_LOGS: WeakKeyDictionary[Simulation, dict[NodeId, SampleLog]] = WeakKeyDictionary()


class Backend:
    """One web server: FIFO queue, fixed service time, bounded concurrency.

    Requests allocate ``bytes_per_request`` on arrival, which is what drives
    the runtime's collection triggers.  While the runtime is paused the
    backend starts no new work and in-flight completions shift right by the
    pause, matching stop-the-world semantics.  A granted backend is ready to
    pause once it is idle, so it polls its grantee as each request completes.
    A pause shifts every completion past its end, so a backend that was not
    idle when a pause began is still not idle when it ends.

    A completing request's reply is recorded in the balancer's sample log
    as it is sent (module docstring).  The backend looks the log up on its
    first reply, so the balancer may be built before or after it.
    """

    def __init__(self, sim: Simulation, backend_id: NodeId, balancer_id: NodeId,
                 runtime: ManagedRuntime, service_time_us: int, parallelism: int,
                 bytes_per_request: int, defer_threshold_us: int = 1_000):
        self.sim = sim
        self.id = backend_id
        self.balancer_id = balancer_id
        self.runtime = runtime
        self.service_time_us = service_time_us
        self.parallelism = parallelism
        self.bytes_per_request = bytes_per_request
        self.queue: deque = deque()
        self.in_service = 0
        self._completions: dict[int, list] = {}
        self._record = self._first_record  # then the balancer's SampleLog.add
        runtime.on_pause = self._on_pause
        self.grantee = GcGrantee(runtime, defer_threshold_us, self._send_ask,
                                 self._send_done, self._idle)
        sim.add_node(backend_id, self.deliver)

    # -- request path ------------------------------------------------------

    def deliver(self, src: NodeId, msg: tuple) -> None:
        tag = msg[0]
        if tag == "req":
            if self.sim.now < self.runtime.paused_until or self.in_service >= self.parallelism:
                self.queue.append((msg[1], msg[2]))
            else:
                self._start(msg[1], msg[2])
        elif tag == "allow":
            self.grantee.grant(src)
        else:
            raise ValueError(f"backend {self.id} got unknown message {msg!r}")

    def _start(self, rid: int, issued: int) -> None:
        # Allocation happens as the request is serviced; if it trips an
        # immediate collection, this request resumes after the pause.
        self.in_service += 1
        runtime = self.runtime
        runtime.allocate(self.bytes_per_request)
        sim = self.sim
        start_at = runtime.paused_until
        if start_at < sim.now:
            start_at = sim.now
        self._completions[rid] = sim.schedule_at(
            start_at + self.service_time_us, self._complete, (rid, issued))

    def _complete(self, arg: tuple) -> None:
        rid, issued = arg
        del self._completions[rid]
        self.in_service -= 1
        sim = self.sim
        # The reply, recorded at the balancer now, stamped with its arrival.
        # It is stamped before ``_wake`` and ``poll``, which may send, so the
        # RNG draws follow the send order.
        self._record(rid, issued, sim.stamp(), self.id, "http")
        if self.queue and sim.now >= self.runtime.paused_until:
            self._wake()
        if self.grantee.grantor is not None:
            self.grantee.poll()

    def _first_record(self, *row) -> None:
        logs = _SAMPLE_LOGS.get(self.sim, {})
        if self.balancer_id not in logs:
            raise SchedulingError(f"unknown balancer {self.balancer_id!r}")
        self._record = logs[self.balancer_id].add
        self._record(*row)

    def _idle(self) -> bool:
        return self.in_service == 0 and not self.queue

    # -- coordinated collection hooks -------------------------------------------

    def _send_ask(self, ticket: CollectionTicket) -> None:
        self.sim.send(self.id, self.balancer_id, ("ask", ticket.id))

    def _send_done(self, ticket_id: int, grantor: Optional[NodeId]) -> None:
        self.sim.send(self.id, self.balancer_id, ("done", ticket_id))

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


class LoadBalancer:
    """Round-robin front end with the co-located collection coordinator.

    Requests arriving while no backend is routable queue FIFO and drain as
    soon as a backend rejoins.  The coordinator is a :class:`GcLedger` of
    capacity ``max_concurrent``; a backend leaves the rotation while it holds
    a grant.

    ``samples`` gets a row per reply as the reply is sent, in send order,
    with ``completed`` set to the reply's arrival: mid-run, a row whose
    arrival is later than ``sim.now`` is a reply still on the wire.  After
    ``samples.keep_arrived(sim.now)`` it holds the replies received so far,
    until the next reply is recorded.
    """

    def __init__(self, sim: Simulation, balancer_id: NodeId,
                 backend_ids: list[NodeId], max_concurrent: int = 1):
        self.sim = sim
        self.id = balancer_id
        self.order = list(backend_ids)
        self.rr_pos = 0
        self.pending: deque = deque()
        self.ledger = GcLedger(max_concurrent)
        # Alias kept for the benchmark's tracer, which reads ``lb.wait_queue``.
        self.wait_queue = self.ledger.pending
        self.samples = SampleLog()
        sim.add_node(balancer_id, self.deliver)
        _SAMPLE_LOGS.setdefault(sim, {})[balancer_id] = self.samples

    # -- routing ------------------------------------------------------------

    def on_request(self, rid: int, kind: str = "http") -> None:
        """Entry point for workload arrivals; issue time is the current tick."""
        self.route(rid, self.sim.now)

    def route(self, rid: int, issued: int) -> Optional[NodeId]:
        order = self.order
        n = len(order)
        idx = self.rr_pos
        granted = self.ledger.granted
        if granted:  # skip the backends out of the rotation
            for _ in range(n):
                if order[idx] not in granted:
                    break
                idx = (idx + 1) % n
            else:
                self.pending.append((rid, issued))
                return None
        backend = order[idx]
        self.rr_pos = (idx + 1) % n
        self.sim.send(self.id, backend, ("req", rid, issued))
        return backend

    # -- coordination ------------------------------------------------------------

    def deliver(self, src: NodeId, msg: tuple) -> None:
        tag = msg[0]
        if tag == "ask":
            if self.ledger.ask(src) == "grant":
                self._grant(src)
        elif tag == "done":
            self._on_done(src)
        else:
            raise ValueError(f"balancer got unknown message {msg!r}")

    def _grant(self, backend: NodeId) -> None:
        self.sim.send(self.id, backend, ("allow",))

    def _on_done(self, backend: NodeId) -> None:
        nxt = self.ledger.finish(backend)
        while self.pending and self.ledger.used < len(self.order):
            rid, issued = self.pending.popleft()
            self.route(rid, issued)
        if nxt is not None:
            self._grant(nxt)
