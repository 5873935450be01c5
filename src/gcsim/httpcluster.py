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

If exhaustion forces the collection while the ask is still queued, the ask
stays queued: its allow, when it comes, finds nothing to collect and is
answered with a done at once, without draining.

A request costs one event: its arrival at the balancer, which routes it.
Routing moves on grants and dones alone, never on a backend's state, so the
balancer hands the request to its backend at once, stamped with the time it
arrives there, and the backend accounts its service lazily.  The service
time is constant and the queue FIFO, so a request starts at the latest of
its arrival, the end of the current pause and the completion of the request
``parallelism`` places before it (the Kiefer-Wolfowitz recursion; Lindley's
for one slot).  It completes one service time later, plus every pause that
begins while it is in service.  As it completes, the backend writes the
reply into the balancer's ``samples``, stamped with the reply's arrival;
the log reads its rows in arrival order, and ``SampleLog.keep_arrived``
sets aside those still on the wire.  A scenario run reports the others.

A backend schedules an event only where it must act at its own time: the
start whose allocation may reach the runtime's trigger or hard limit (every
start, if the runtime also allocates in the background) and, while it holds
a grant, the moment it drains.  It brings itself up to date there, when an
allow arrives, before its runtime's background tick can cross a threshold,
and when it is observed (``queue``, ``in_service``, the balancer's
``samples``).  Every message draws its jitter from its own identity: a
request or reply from its rid (``Simulation.arrival``), an ask, allow or
done from its link and its place on that link (``Simulation.send``).  So
the order in which this accounting stamps requests and replies changes no
draw.

Same-instant order.  At each instant every backend settles first, in the
balancer's order: its completions due (in start order), its background
tick, its starts (FIFO, while a slot is free and it is not paused), and, if
it holds a grant, its answer: the start of its collection if it is then
idle, or its done if nothing is deferred any more.  Then the instant's
other events fire in the order they were scheduled: arrivals at the
balancer, asks and dones there, allows at backends, and the dones a
backend sends at the end of a pause.  Requests that reach a backend at one
instant queue in the order they were sent.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterator, Optional

from .metrics import SampleLog
from .runtime import CollectionTicket, GcGrantee, GcLedger, GcMode, ManagedRuntime
from .simcore import NodeId, SchedulingError, Simulation

# Kinds of the HTTP messages that have no delivery event, the first part of
# their identity; ``Simulation.send`` keys the others by link.
REQ, REP = 1, 2
INF = math.inf
# A backend that need not act at its own time (any backend in off mode) would
# hold every request handed to it until it is observed; it accounts them once
# this many wait instead.  Three-mode http_cluster on 2 vCPUs, median of four
# runs: 4 took 5.4 s, 16 to 256 took 3.6-4.0 s, and no bound 4.8 s with a
# peak RSS of 101 MB against 58 MB (BENCH_16.json, "batch_sweep").
_BATCH = 64


class Backend:
    """One web server: FIFO queue, fixed service time, bounded concurrency.

    A request allocates ``bytes_per_request`` as it starts, which is what
    drives the runtime's collection triggers; if that allocation pauses the
    runtime, the request is served after the pause.  The backend starts no
    request while paused, and a pause delays the completion of every request
    in service by its length, matching stop-the-world semantics.  A granted
    backend is ready to pause once it is idle.

    A backend is built after its balancer ``lb`` and takes the next place of
    its rotation; one built out of the order of ``backend_ids`` is refused
    with a ``ValueError``.

    Requests are accounted lazily (module docstring).  ``queue`` (the
    requests that have arrived and wait) and ``in_service`` bring the
    cluster up to date before they answer.  The backend expects to be the
    only one to allocate on its runtime, apart from background ticks: code
    that allocates on it directly while requests flow calls ``catch_up``
    first.
    """

    def __init__(self, sim: Simulation, backend_id: NodeId, lb: LoadBalancer,
                 runtime: ManagedRuntime, service_time_us: int, parallelism: int,
                 bytes_per_request: int, defer_threshold_us: int = 1_000):
        self.sim = sim
        self.id = backend_id
        lb._attach(self)
        self.runtime = runtime
        self.service_time_us = service_time_us
        self.parallelism = parallelism
        self.bytes_per_request = bytes_per_request
        self._pending: deque[list] = deque()  # [arrival, rid, issued], not started
        self._busy: deque[list] = deque()  # [completion - shift, rid, issued], in service
        self._shift = 0  # pause time so far: a request in service completes this much later
        self._starts_left: float = INF  # the start at this place must run at its own time
        self._advancing = False
        self._wake: Optional[list] = None  # the one event scheduled for this backend
        self.wake_at: float = INF  # settle no later than this
        self._lb = lb
        self._log = lb._samples
        runtime.on_pause = self._on_pause
        runtime.catch_up_node = lb._gate
        self._next_tick = runtime.add_due_ticks()  # inf without background ticks
        self._ticks = runtime.mode is not GcMode.OFF and self._next_tick < INF
        self.grantee = GcGrantee(runtime, defer_threshold_us, self._send_ask,
                                 self._send_done, self._idle)
        sim.add_node(backend_id, self.deliver)
        self._plan()

    # -- observation ---------------------------------------------------------

    @property
    def in_service(self) -> int:
        self.catch_up()
        return len(self._busy)

    @property
    def queue(self) -> list[tuple[int, int]]:
        """The requests that have arrived and wait, as ``(rid, issued)``."""
        self.catch_up()
        now = self.sim.now
        return [(rid, issued) for at, rid, issued in self._pending if at <= now]

    def catch_up(self) -> None:
        """Bring the backend, and the rest of its cluster, up to date."""
        self._lb.catch_up()

    # -- messages --------------------------------------------------------------

    def deliver(self, src: NodeId, msg: tuple) -> None:
        if msg[0] != "allow":
            raise ValueError(f"backend {self.id} got unknown message {msg!r}")
        self._lb._gate()
        self._advance()
        self.grantee.grant(src)
        self._plan()

    def _take(self, rid: int, issued: int, at: int) -> None:
        """Accept a request routed here that arrives at ``at``."""
        pending = self._pending
        entry = [at, rid, issued]
        waiting = len(pending) + 1
        if waiting == 1 or pending[-1][0] <= at:
            pending.append(entry)
            place = waiting
        else:  # sent later, arrives earlier (jitter)
            place = bisect_right(pending, at, key=itemgetter(0))
            pending.insert(place, entry)
            place += 1
        # the start that must run at its own time is now known, or moved
        if place <= self._starts_left <= waiting or waiting > _BATCH:
            self._advance()
            self._plan()

    def _send_ask(self, ticket: CollectionTicket) -> None:
        self.sim.send(self.id, self._lb.id, ("ask",))

    def _send_done(self, grantor: NodeId) -> None:
        self.sim.send(self.id, self._lb.id, ("done",))

    # -- lazy service ------------------------------------------------------------

    def _on_wake(self, _arg=None) -> None:
        self._wake = None
        self._lb._gate()

    def _settle(self) -> None:
        self._advance()
        if self.grantee.grantor is not None:
            self.grantee.poll()  # drains once idle
        self._plan()

    def _idle(self) -> bool:
        pending = self._pending
        return not self._busy and not (pending and pending[0][0] <= self.sim.now)

    def _advance(self) -> None:
        """Complete and start every request due by now, in the same-instant
        order of the module docstring."""
        now = self.sim.now
        busy, pending = self._busy, self._pending
        runtime = self.runtime
        service = self.service_time_us
        free = self.parallelism - len(busy)
        shift, paused_until = self._shift, runtime.paused_until
        left, lazy = self._starts_left, 0
        freed = 0  # when the last completion freed a slot
        rids, issueds, replies = [], [], []  # the replies sent, as columns
        self._advancing = True
        while True:
            done_at = busy[0][0] + shift if busy else INF
            if pending and free:
                start_at = pending[0][0]
                if start_at < paused_until:
                    start_at = paused_until
                if start_at < freed:
                    start_at = freed
                if start_at < done_at:  # a completion at the same time goes first
                    if start_at > now:
                        break
                    free -= 1
                    if left > 1:  # below every threshold: allocate in one go later
                        left -= 1
                        lazy += 1
                        entry = pending.popleft()
                        entry[0] = start_at + service - shift
                        busy.append(entry)
                        continue
                    if start_at < now:
                        raise SchedulingError(
                            f"backend {self.id} missed the start at {start_at}us")
                    if lazy:
                        runtime.allocate(lazy * self.bytes_per_request)
                        lazy = 0
                    runtime.add_due_ticks()  # ticks at this instant come first
                    if now < runtime.paused_until:
                        free += 1
                        paused_until = runtime.paused_until
                        continue
                    entry = pending.popleft()
                    entry[0] = now + service - shift
                    busy.append(entry)
                    # May pause: the pause then delays this request too.
                    runtime.allocate(self.bytes_per_request)
                    shift, paused_until = self._shift, runtime.paused_until
                    left = self._threshold_start()
                    continue
            if done_at > now:
                break
            _, rid, issued = busy.popleft()
            free += 1
            freed = done_at
            rids.append(rid)
            issueds.append(issued)
            replies.append(done_at)
        if lazy:
            runtime.allocate(lazy * self.bytes_per_request)
        if replies:
            self._send_replies(rids, issueds, replies)
        if self._ticks:
            self._next_tick = runtime.add_due_ticks()
        self._starts_left = left
        self._advancing = False

    def _send_replies(self, rids: list[int], issueds: list[int], sent: list[int]) -> None:
        """Record the replies sent at ``sent``, stamped with their arrivals."""
        arrivals = list(map(self.sim.arrival, sent, repeat(REP), rids))
        self._log.extend(rids, issueds, arrivals, self.id, "http")

    def _threshold_start(self) -> float:
        """The place, among the next starts, of the first whose allocation
        may cross a threshold; ``inf`` if none can."""
        runtime = self.runtime
        if self._ticks:
            return 1  # background ticks move the heap between any two starts
        if runtime.mode is GcMode.OFF or not self.bytes_per_request:
            return INF
        heap = runtime.heap
        limit = heap.trigger_bytes if runtime.active_ticket is None else heap.hard_limit_bytes
        return max(1, -(-(limit - heap.allocated_bytes) // self.bytes_per_request))

    def _plan(self) -> None:
        """Schedule the one event this backend needs, and tell the balancer
        when to settle it at the latest."""
        left = self._starts_left = self._threshold_start()
        wake: float = INF
        if left <= len(self._pending):
            wake = self._start_time(left)
        if self.grantee.grantor is not None:
            wake = min(wake, self._drain_time())
        handle = self._wake
        if handle is None or handle[0] != wake:
            if handle is not None:
                self.sim.cancel(handle)
            self._wake = None if wake == INF else self.sim.schedule_at(wake, self._on_wake)
        if self._ticks and self._next_tick < wake:
            wake = self._next_tick
        self.wake_at = wake
        lb = self._lb
        if wake < lb._next_wake:
            lb._next_wake = wake

    def _starts(self) -> Iterator[tuple[int, int]]:
        """Each waiting request's arrival and start, if no pause comes first:
        the start of the request ``parallelism`` places before it, plus the
        service time, frees its slot."""
        shift, p, service = self._shift, self.parallelism, self.service_time_us
        slots = deque([c + shift for c, _, _ in self._busy], p)  # the last p completions
        paused_until = self.runtime.paused_until
        for arrival, _, _ in self._pending:
            start = arrival if arrival > paused_until else paused_until
            if len(slots) == p and slots[0] > start:
                start = slots[0]
            slots.append(start + service)
            yield arrival, start

    def _start_time(self, place: int) -> int:
        """When the waiting request at ``place`` starts, if no pause comes first."""
        return next(islice(self._starts(), place - 1, None))[1]

    def _drain_time(self) -> int:
        """When the backend is next idle, if no pause comes first."""
        busy = self._busy
        idle_at = busy[-1][0] + self._shift if busy else self.sim.now
        for arrival, start in self._starts():
            if arrival > idle_at:
                break
            idle_at = start + self.service_time_us
        return idle_at

    def _on_pause(self, start_us: int, end_us: int) -> None:
        busy, pending = self._busy, self._pending
        if not self._advancing and (
                busy and busy[0][0] + self._shift <= start_us
                or pending and pending[0][0] < start_us and len(busy) < self.parallelism):
            raise SchedulingError(
                f"backend {self.id} is behind its runtime: call catch_up() first")
        self._shift += end_us - start_us
        if not self._advancing:
            self._plan()


class LoadBalancer:
    """Round-robin front end with the co-located collection coordinator.

    Requests arriving while no backend is routable queue FIFO and drain as
    soon as a backend rejoins.  The coordinator is a :class:`GcLedger` of
    capacity ``max_concurrent``; a backend leaves the rotation while it holds
    a grant.

    ``samples`` gets a row per reply as the reply is sent, with
    ``completed`` set to the reply's arrival: mid-run, a row whose arrival
    is later than ``sim.now`` is a reply still on the wire.  Reading it
    brings the backends up to date.  After ``samples.keep_arrived(sim.now)``
    it holds the replies received so far, until the next reply is recorded.
    The balancer is built first, then its backends, one per entry of
    ``backend_ids`` and in that order; it routes once all are built.
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
        self._samples = SampleLog(by_arrival=True)
        self._backends: list[Backend] = []  # in rotation order, as built
        self._next_wake: float = INF  # no backend must act before this
        sim.add_node(balancer_id, self.deliver)

    @property
    def samples(self) -> SampleLog:
        self.catch_up()
        return self._samples

    def catch_up(self) -> None:
        """Bring every backend up to date, for an observer."""
        for backend in self._backends:
            backend._settle()

    def _attach(self, backend: Backend) -> None:
        """Take ``backend`` as the next one of the rotation."""
        place = len(self._backends)
        if self.order[place:place + 1] != [backend.id]:
            raise ValueError(f"backend {backend.id!r} is not next in the rotation "
                             f"{self.order!r} of balancer {self.id!r}")
        self._backends.append(backend)

    def _gate(self) -> None:
        """Settle, in rotation order, every backend that must act by now."""
        now = self.sim.now
        if self._next_wake > now:
            return
        self._next_wake = INF  # a settle that sends a message gates again: no-op
        for backend in self._backends:
            if backend.wake_at <= now:
                backend.wake_at = INF
                backend._settle()
        self._next_wake = min([b.wake_at for b in self._backends], default=INF)

    # -- routing ------------------------------------------------------------

    def on_request(self, rid: int, kind: str = "http") -> None:
        """Entry point for workload arrivals; issue time is the current tick."""
        self.route(rid, self.sim.now)

    def route(self, rid: int, issued: int) -> Optional[NodeId]:
        sim = self.sim
        if self._next_wake <= sim.now:
            self._gate()
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
        self.rr_pos = (idx + 1) % n
        self._backends[idx]._take(rid, issued, sim.arrival(sim.now, REQ, rid))
        return order[idx]

    # -- coordination ------------------------------------------------------------

    def deliver(self, src: NodeId, msg: tuple) -> None:
        self._gate()
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
