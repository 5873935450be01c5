"""Load-balanced HTTP cluster with drain-then-collect coordination.

A round-robin balancer fronts identical backends.  Each backend's collections
go through a :class:`GcGrantee`: each is deferred and asked for at the
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
answered with a done at once, without draining.  A backend that holds a
grant when exhaustion forces its collection answers the grant then, with a
done at the end of the pause.

A request costs one event, its arrival at the balancer, but most cost no
call of their own.  Routing moves on grants and dones alone, and both are
events, so the balancer takes each run of arrivals that fire in place
(``route_run``) in one pass: it hands each backend its slice of the
workload's columns at once, each request stamped with the time it arrives
there, and the backend accounts its service lazily.  The service time is
constant and the queue FIFO, so a request starts at the latest of its
arrival, the end of the current pause and the completion of the request
``parallelism`` places before it (the Kiefer-Wolfowitz recursion; Lindley's
for one slot).  It completes one service time later, plus every pause that
begins while it is in service.  As it completes, the backend writes the
reply into the balancer's ``samples``, stamped with the reply's arrival; the
log reads its rows in arrival order, and ``SampleLog.keep_arrived`` sets
aside those still on the wire.  A scenario run reports the others.

A backend keeps its queue, and the requests in service, as columns: a list
of times with parallel lists of rids and issue times.  Most requests start
as they arrive.  So a backend brought up to date first tries a bulk pass
over the requests that wait: if no pause is under way, none of their starts
may cross a threshold, and each finds a free slot (the completion
``parallelism`` places before it, in start order, is due by then), it takes
the whole run with column operations.  It computes their starts, completions
and replies, records the replies in one batch, and allocates for them in one
call.  Otherwise it steps through starts and completions one at a time.

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
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, islice, repeat
from operator import add, le, sub
from typing import Iterator, Optional, Sequence

from .metrics import SampleLog
from .runtime import GcGrantee, GcLedger, GcMode, ManagedRuntime
from .simcore import NodeId, SchedulingError, Simulation

# Kinds of the HTTP messages that have no delivery event, the first part of
# their identity; ``Simulation.send`` keys the others by link.
REQ, REP = 1, 2
INF = math.inf
# A backend that need not act at its own time (any backend in off mode) would
# hold every request handed to it until it is observed; it accounts them once
# this many wait instead, and the bulk pass looks at no more than this many.
# It also bounds a routed run, which leaves no backend more waiting.  With
# the queues as columns, a three-mode http_cluster comparison at seed 1 on 2
# vCPUs took 0.82-1.03 s with 64, 0.72-0.77 s with 128 and 0.65-0.70 s with
# 256, the fastest in each of three rounds of fresh processes.
_BATCH = 256


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

    Requests are accounted lazily, and held as columns (module docstring).
    ``queue`` (the requests that have arrived and wait) and ``in_service``
    bring the cluster up to date before they answer.  The backend expects
    to be the only one to allocate on its runtime, apart from background
    ticks: code that allocates on it directly while requests flow calls
    ``catch_up`` first.
    """

    def __init__(self, sim: Simulation, backend_id: NodeId, lb: LoadBalancer,
                 runtime: ManagedRuntime, service_time_us: int, parallelism: int,
                 bytes_per_request: int):
        self.sim = sim
        self.id = backend_id
        lb._attach(self)
        self.runtime = runtime
        self.service_time_us = service_time_us
        self.parallelism = parallelism
        self.bytes_per_request = bytes_per_request
        # The requests not started, by arrival, and those in service, by
        # completion - shift: each a time column with parallel rid and issue
        # time columns.  Started requests leave the front of the queue with
        # ``del``, a move of the rest: 0.1 us a column at 1,000 waiting, and
        # 2.2 us at 10,000 (2 vCPUs, Python 3.11).
        self._pending: list[int] = []
        self._pending_rids: list[int] = []
        self._pending_issued: list[int] = []
        self._busy: list[int] = []
        self._busy_rids: list[int] = []
        self._busy_issued: list[int] = []
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
        self.grantee = GcGrantee(runtime, self._send_ask, self._send_done, self._idle)
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
        arrived = bisect_right(self._pending, self.sim.now)
        return list(zip(self._pending_rids[:arrived], self._pending_issued[:arrived]))

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
        waiting = len(pending) + 1
        if waiting == 1 or pending[-1] <= at:
            place = waiting
        else:  # sent later, arrives earlier (jitter)
            place = bisect_right(pending, at) + 1
        pending.insert(place - 1, at)
        self._pending_rids.insert(place - 1, rid)
        self._pending_issued.insert(place - 1, issued)
        # the start that must run at its own time is now known, or moved
        if place <= self._starts_left <= waiting or waiting > _BATCH:
            self._advance()
            self._plan()

    def _room(self) -> int:
        """How many more requests ``_take`` can accept, in any order, with
        none of them advancing the backend."""
        return max(0, min(self._starts_left - 1, _BATCH) - len(self._pending))

    def _extend(self, ats: list[int], rids: Sequence[int], issueds: Sequence[int]) -> None:
        """Accept requests routed here that arrive at ``ats``, as ``_take``
        would one by one, where none of them advances the backend."""
        pending = self._pending
        jumbled = self.sim.network.jitter_us or pending and pending[-1] > ats[0]
        pending += ats
        self._pending_rids += rids
        self._pending_issued += issueds
        if jumbled:  # a stable sort inserts each after its equals, as _take does
            order = sorted(range(len(pending)), key=pending.__getitem__)
            for column in (pending, self._pending_rids, self._pending_issued):
                column[:] = map(column.__getitem__, order)

    def _send_ask(self) -> None:
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
        return not self._busy and not (pending and pending[0] <= self.sim.now)

    def _advance(self) -> None:
        """Complete and start every request due by now, in the same-instant
        order of the module docstring."""
        now = self.sim.now
        runtime = self.runtime
        left = self._starts_left
        rids, issueds, replies = [], [], []  # the replies sent, as columns
        self._advancing = True
        lazy = self._bulk(now, left - 1, rids, issueds, replies) if (
            self._pending and left > 1 and runtime.paused_until <= now) else 0
        left -= lazy
        freed = replies[-1] if replies else 0  # when the last completion freed a slot
        pending, pending_rids, pending_issued = (
            self._pending, self._pending_rids, self._pending_issued)
        busy, busy_rids, busy_issued = self._busy, self._busy_rids, self._busy_issued
        started = 0  # the requests before this place in pending have started
        service = self.service_time_us
        free = self.parallelism - len(busy)
        shift, paused_until = self._shift, runtime.paused_until
        while True:
            done_at = busy[0] + shift if busy else INF
            if started < len(pending) and free:
                start_at = pending[started]
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
                        busy.append(start_at + service - shift)
                        busy_rids.append(pending_rids[started])
                        busy_issued.append(pending_issued[started])
                        started += 1
                        continue
                    if start_at < now:
                        raise SchedulingError(
                            f"backend {self.id} missed the start at {start_at}us")
                    # the runtime may call back: leave only the waiting requests
                    del pending[:started], pending_rids[:started], pending_issued[:started]
                    started = 0
                    if lazy:
                        runtime.allocate(lazy * self.bytes_per_request)
                        lazy = 0
                    runtime.add_due_ticks()  # ticks at this instant come first
                    if now < runtime.paused_until:
                        free += 1
                        paused_until = runtime.paused_until
                        continue
                    busy.append(now + service - shift)
                    busy_rids.append(pending_rids.pop(0))
                    busy_issued.append(pending_issued.pop(0))
                    del pending[0]
                    # May pause: the pause then delays this request too.
                    runtime.allocate(self.bytes_per_request)
                    shift, paused_until = self._shift, runtime.paused_until
                    left = self._threshold_start()
                    continue
            if done_at > now:
                break
            del busy[0]
            free += 1
            freed = done_at
            rids.append(busy_rids.pop(0))
            issueds.append(busy_issued.pop(0))
            replies.append(done_at)
        del pending[:started], pending_rids[:started], pending_issued[:started]
        if lazy:
            runtime.allocate(lazy * self.bytes_per_request)
        if replies:
            self._send_replies(rids, issueds, replies)
        if self._ticks:
            self._next_tick = runtime.add_due_ticks()
        self._starts_left = left
        self._advancing = False

    def _bulk(self, now: int, most: float, rids: list[int], issueds: list[int],
              replies: list[int]) -> int:
        """Start the run of waiting requests due by now, at most ``most`` of
        them, and complete every request due by now, with column operations;
        append the replies to the columns and return the number started.

        The caller ensures no pause is under way and that these starts
        allocate below every threshold.  Each request starts as it arrives,
        or as the last pause ended, if the completion ``parallelism`` places
        before it, in start order, is due by then; if one would wait for a
        slot, start nothing and return 0.
        """
        pending, busy = self._pending, self._busy
        k = bisect_right(pending, now, 0, min(most, len(pending), _BATCH))
        if not k:
            return 0
        paused_until = self.runtime.paused_until
        starts = pending[:k] if pending[0] >= paused_until else list(
            map(max, islice(pending, k), repeat(paused_until)))
        shift, free = self._shift, self.parallelism - len(busy)
        ends = list(map(add, starts, repeat(self.service_time_us)))  # their completions
        # the first ``free`` starts take the free slots; each later one, the
        # slot of the completion ``parallelism`` places before it
        if k > free and not all(map(le, chain(map(add, busy, repeat(shift)), ends),
                                    islice(starts, free, None))):
            return 0
        busy_rids, busy_issued = self._busy_rids, self._busy_issued
        done = bisect_right(busy, now - shift)  # in service, due by now
        if done:
            rids += busy_rids[:done]
            issueds += busy_issued[:done]
            replies += map(add, islice(busy, done), repeat(shift))
            del busy[:done], busy_rids[:done], busy_issued[:done]
        pending_rids, pending_issued = self._pending_rids, self._pending_issued
        new_done = bisect_right(ends, now)
        rids += pending_rids[:new_done]
        issueds += pending_issued[:new_done]
        replies += ends[:new_done]
        busy += map(sub, islice(ends, new_done, None), repeat(shift))
        busy_rids += pending_rids[new_done:k]
        busy_issued += pending_issued[new_done:k]
        del pending[:k], pending_rids[:k], pending_issued[:k]
        return k

    def _send_replies(self, rids: list[int], issueds: list[int], sent: list[int]) -> None:
        """Record the replies sent at ``sent``, stamped with their arrivals."""
        self._log.extend(rids, issueds, self.sim.arrivals(sent, REP, rids), self.id, "http")

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
        slots = deque(map(add, self._busy, repeat(shift)), p)  # the last p completions
        paused_until = self.runtime.paused_until
        for arrival in self._pending:
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
        idle_at = busy[-1] + self._shift if busy else self.sim.now
        for arrival, start in self._starts():
            if arrival > idle_at:
                break
            idle_at = start + self.service_time_us
        return idle_at

    def _on_pause(self, start_us: int, end_us: int) -> None:
        busy, pending = self._busy, self._pending
        if not self._advancing and (
                busy and busy[0] + self._shift <= start_us
                or pending and pending[0] < start_us and len(busy) < self.parallelism):
            raise SchedulingError(
                f"backend {self.id} is behind its runtime: call catch_up() first")
        self._shift += end_us - start_us
        if self.grantee.grantor is not None:  # forced while granted: answer the grant now
            self.wake_at = INF  # being settled: a gate before the done passes it by
            self.grantee.poll()
        if not self._advancing:
            self._plan()


class LoadBalancer:
    """Round-robin front end with the co-located collection coordinator.

    Requests arriving while no backend is routable queue FIFO and drain as
    soon as a backend rejoins.  The coordinator is a :class:`GcLedger` of
    capacity ``max_concurrent`` that sends each allow through ``_grant``; a
    backend leaves the rotation while it holds a grant.

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
        self.ledger = GcLedger(max_concurrent, self._grant)
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
        for _ in range(n):  # skip the backends out of the rotation
            if order[idx] not in granted:
                break
            idx = (idx + 1) % n
        else:
            self.pending.append((rid, issued))
            return None
        self.rr_pos = (idx + 1) % n
        self._backends[idx]._take(rid, issued, sim.arrival(sim.now, REQ, rid))
        return order[idx]

    def route_run(self, times: Sequence[int], rids: Sequence[int], lo: int, hi: int) -> int:
        """Route the arrivals ``rids[lo:hi]``, issued at ``times[lo:hi]``,
        that fire next in place, as ``on_request`` would; return how many.

        The rotation deals a run out cyclically, a slice to each backend.  A
        run ends before an arrival that a backend has no room for
        (``Backend._room``), so no take in it advances one; that arrival is
        taken alone.  Routing stops at an arrival that finds no backend in
        the rotation or reaches ``_next_wake``.
        """
        sim, order, granted, backends = self.sim, self.order, self.ledger.granted, self._backends
        n = len(order)
        i = lo
        while True:
            places = [p % n for p in range(self.rr_pos, self.rr_pos + n)
                      if order[p % n] not in granted]
            r = len(places)
            if not r:
                break
            wake = bisect_left(times, self._next_wake, i, hi)
            # the backend at j takes i + j, i + j + r, ...
            full = min([hi] + [i + j + backends[p]._room() * r for j, p in enumerate(places)])
            k = sim.fire_run_in_place(times, i, min(wake, full))
            if k:
                sent, ids = times[i:i + k], rids[i:i + k]
                ats = sim.arrivals(sent, REQ, ids)
                for j, p in enumerate(places[:k]):
                    backends[p]._extend(ats[j::r], ids[j::r], sent[j::r])
                self.rr_pos = (places[(k - 1) % r] + 1) % n
                i += k
            if i != full or i >= wake or not sim.fire_in_place(times[i]):
                break
            p = places[k % r]  # the arrival at i would advance this backend
            self.rr_pos = (p + 1) % n
            backends[p]._take(rids[i], times[i], sim.arrival(times[i], REQ, rids[i]))
            i += 1
        return i - lo

    # -- coordination ------------------------------------------------------------

    def deliver(self, src: NodeId, msg: tuple) -> None:
        self._gate()
        tag = msg[0]
        if tag == "ask":
            self.ledger.ask(src)
        elif tag == "done":
            self._on_done(src)
        else:
            raise ValueError(f"balancer got unknown message {msg!r}")

    def _grant(self, backend: NodeId) -> None:
        self.sim.send(self.id, backend, ("allow",))

    def _on_done(self, backend: NodeId) -> None:
        self.ledger.finish(backend)  # grants a queued asker only if none is parked
        while self.pending and self.ledger.used < len(self.order):
            self.route(*self.pending.popleft())
