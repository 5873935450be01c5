"""Mock managed runtime with a cooperative collection-scheduling API.

Each simulated node owns a :class:`ManagedRuntime`: a heap that grows as the
node allocates, a stop-the-world collector whose pause cost scales with the
live set, and a three-call coordination surface:

* ``reg_gc_hand(handler)`` registers an upcall target.  Without a handler the
  runtime collects immediately whenever the occupancy trigger is crossed
  (legacy behaviour).
* The upcall hands the handler a :class:`CollectionTicket` carrying a
  monotonically increasing id and the current occupancy.  Returning ``True``
  collects on the spot; returning ``False`` defers the collection until
  ``start_gc``.
* ``start_gc(id)`` is idempotent and safe to call at any time: it starts the
  deferred collection if ``id`` is its ticket's, and silently ignores ids
  that are unknown, already collected, or force-collected.  The runtime
  keeps only the open cycle's ticket; the handler keeps any it wants.

If allocation exhausts the hard heap limit while a collection is deferred,
the collector runs immediately and the ticket is marked force-completed so a
late ``start_gc`` stays a no-op.

Both halves of coordinated collection live here too.  On the coordinator's
side, a :class:`GcLedger` decides which deferred collections may start and
sends each grant itself: the HTTP balancer and the Raft leader each hold one.
On each node's side, a :class:`GcGrantee` is the upcall handler: it defers
every collection and asks for it, starts the deferred collection once granted
and the node is ready, and reports done when the pause is over.  An ask
outlives a collection that exhaustion forces: its grant, when it comes, finds
nothing deferred and is answered with a done at once.  HTTP backends and Raft
servers differ only in the hooks they give them.

A runtime may also allocate in the background at a constant rate, in ticks on
a fixed grid that a pause suspends: a tick due during a pause moves to the
pause's end and the grid restarts there.  Those ticks are accounted lazily.
Before each ``allocate`` and ``start_gc`` the runtime adds in the ticks due
by then (ticks at the current microsecond come first), and it schedules one
event only, at the tick where the next threshold is crossed: the trigger
while no cycle is open, or the hard limit while the open cycle is deferred.
An event already armed no earlier than that tick is kept.  Arming also
stores the slack: the bytes the node may still allocate before the crossing
tick would move earlier than the armed event.  An allocation below the
trigger only subtracts itself from the slack, and arms again once the slack
is used up.  Ticks added in leave the slack as it is, since each moves the
grid one interval on as it adds its bytes; a collection, a new cycle or a
pause only moves the real crossing later, so a slack computed before them
stays safe.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .simcore import NodeId, Simulation

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


class GcMode(str, enum.Enum):
    ON = "on"          # collect immediately at the trigger, no coordination
    OFF = "off"        # never collect; memory is never reclaimed
    BLADE = "blade"    # upcall-coordinated collection

    def __str__(self) -> str:  # so configs/reports print the bare token
        return self.value


class TicketState(enum.Enum):
    OFFERED = "offered"
    DEFERRED = "deferred"
    COMPLETED = "completed"
    FORCED_COMPLETED = "forced_completed"


@dataclass
class CollectionTicket:
    """One collection cycle: offered to the handler, then run exactly once."""

    id: int
    allocated_bytes: int
    state: TicketState = TicketState.OFFERED


@dataclass
class CollectorCostModel:
    """Stop-the-world pause cost, linear in the live set.

    ``pause_us(live) = fixed_overhead_us + pause_per_gib_us * live/GiB``,
    strictly increasing in live bytes for any positive per-GiB rate.
    """

    pause_per_gib_us: int = 25_000
    fixed_overhead_us: int = 0

    def pause_us(self, live_bytes: int) -> int:
        return self.fixed_overhead_us + round(self.pause_per_gib_us * live_bytes / GIB)


@dataclass
class HeapModel:
    """Per-node heap state driving trigger and exhaustion behaviour.

    ``trigger_bytes`` is the occupancy at which a collection cycle opens; it
    must not exceed ``hard_limit_bytes``, where a deferred cycle is forced.
    """

    live_bytes: int
    trigger_bytes: int
    hard_limit_bytes: int
    allocated_bytes: int = field(default=0)

    def __post_init__(self) -> None:
        if self.allocated_bytes == 0:
            self.allocated_bytes = self.live_bytes
        if not (0 <= self.live_bytes <= self.allocated_bytes <= self.hard_limit_bytes):
            raise ValueError("heap must satisfy 0 <= live <= allocated <= hard limit")
        if self.trigger_bytes > self.hard_limit_bytes:
            raise ValueError(
                f"trigger ({self.trigger_bytes}) must not exceed the hard limit "
                f"({self.hard_limit_bytes})")
        if self.trigger_bytes <= self.live_bytes:
            raise ValueError("trigger must exceed the live set or no garbage ever accrues")


@dataclass
class PauseInterval:
    node: str
    start_us: int
    end_us: int
    ticket_id: int
    forced: bool


class GcLedger:
    """Coordinator-side admission: at most ``capacity`` collections at once.

    ``ask`` grants while fewer than ``capacity`` nodes hold a grant and
    otherwise queues the asker FIFO; ``finish`` frees the slot and grants it
    to the next queued asker.  A grant calls ``allow(node)`` once the node
    holds its slot, and ``allow`` may ``finish`` that node at once.  An ask
    from a node already granted or queued is a duplicate and changes
    nothing.  The HTTP balancer's capacity is its ``max_concurrent``; a Raft
    leader's is ``cluster_size - quorum``, the most servers that may pause
    while a quorum stays live.

    ``reset`` forgets every queued ask and every grant except those it is
    handed.  A Raft leader that hands leadership off sends its live grants
    in the ``FastSwitch``, and the successor resets its ledger with them, so
    the collections the old leader admitted keep their slots until they
    report done.  Among them is the grant the old leader gave itself, which
    the successor then sends it.  A queued ask is forgotten and is
    sent again by its asker when it learns of the new leader.  A leader that
    wins an election starts empty: it does not know what its predecessor
    granted.  A finish from a node this ledger holds no grant for, which
    comes right after a reset, frees and grants nothing, but still records
    the node as ``last_finished``, the successor a Raft leader prefers.
    """

    def __init__(self, capacity: int, allow: Callable[[NodeId], None]):
        self.capacity = capacity
        self.allow = allow
        self.granted: set[NodeId] = set()
        self.pending: deque[NodeId] = deque()
        self.last_finished: Optional[NodeId] = None

    @property
    def used(self) -> int:
        return len(self.granted)

    def ask(self, node: NodeId) -> str:
        """Grant or queue ``node``; returns "grant", "queued", or "duplicate"."""
        if node in self.granted or node in self.pending:
            return "duplicate"
        if self.used >= self.capacity:
            self.pending.append(node)
            return "queued"
        self.granted.add(node)
        self.allow(node)
        return "grant"

    def finish(self, node: NodeId) -> None:
        """Record a finished collection and grant its slot to the next asker."""
        self.last_finished = node
        if node in self.granted:
            self.granted.discard(node)
            if self.pending:
                nxt = self.pending.popleft()
                self.granted.add(nxt)
                self.allow(nxt)

    def reset(self, granted: Iterable[NodeId] = ()) -> None:
        """Forget every queued ask and hold exactly the ``granted`` nodes."""
        granted = set(granted)
        if len(granted) > self.capacity:
            raise ValueError(f"{len(granted)} grants exceed capacity {self.capacity}")
        self.granted.clear()
        self.granted.update(granted)
        self.pending.clear()


class GcGrantee:
    """Node-side admission: every collection waits for its coordinator.

    In blade mode the grantee is the runtime's upcall handler.  Every offer
    is deferred, and the node asks for it through ``send_ask()``.
    ``ask`` sends the ask for the runtime's deferred collection again, for
    instance to a new coordinator.  A grant admits the node, not one ticket:
    once ``ready()`` holds, the grantee starts whatever collection the
    runtime has deferred and, once the pause is over, calls
    ``send_done(grantor)``.  A grant that finds nothing deferred
    (exhaustion forced the collection since the ask) needs no readiness and
    is answered at once, or when the forced pause is over.  A node whose
    readiness can change calls ``poll`` whenever it may have.  Before it
    sends a done, the grantee calls the runtime's ``catch_up_node`` hook, if
    set.
    """

    def __init__(self, runtime: ManagedRuntime,
                 send_ask: Callable[[], None],
                 send_done: Callable[[NodeId], None],
                 ready: Callable[[], bool] = lambda: True):
        self.runtime = runtime
        self.send_ask = send_ask
        self.send_done = send_done
        self.ready = ready
        self.grantor: Optional[NodeId] = None  # set while granted and draining
        if runtime.mode is GcMode.BLADE:
            runtime.reg_gc_hand(self.offer)

    def offer(self, ticket: CollectionTicket) -> bool:
        self.send_ask()
        return False

    def ask(self) -> None:
        """Send the ask for the deferred collection again, if there is one."""
        if self.runtime.active_ticket is not None:
            self.send_ask()

    def grant(self, grantor: NodeId) -> None:
        self.grantor = grantor
        self.poll()

    def poll(self) -> None:
        """Answer the grant: start the deferred collection if the node is
        ready to pause, or report done if nothing is deferred."""
        runtime = self.runtime
        ticket = runtime.active_ticket
        if self.grantor is None or ticket is not None and not self.ready():
            return
        grantor, self.grantor = self.grantor, None
        if ticket is not None:
            runtime.start_gc(ticket.id)
        if runtime.is_paused:
            runtime.sim.schedule_at(runtime.paused_until, self._report, grantor)
        else:
            self._report(grantor)

    def _report(self, grantor: NodeId) -> None:
        if self.runtime.catch_up_node is not None:
            self.runtime.catch_up_node()
        self.send_done(grantor)


UpcallHandler = Callable[[CollectionTicket], bool]
PauseCallback = Callable[[int, int], None]  # (pause_start_us, pause_end_us)


class ManagedRuntime:
    """Allocation, trigger, and collection state for one simulated node.

    Upcall handlers run synchronously inside whatever event performed the
    crossing allocation, so they must not block; deferral is expressed by
    returning ``False``.  The owning node learns about stop-the-world pauses
    through ``on_pause`` and must process no work before ``paused_until``.
    A node that accounts its own work lazily sets ``catch_up_node`` to a
    function that brings it up to date.  The runtime calls it before a
    background tick may cross a threshold, and the node's :class:`GcGrantee`
    before it sends a done.
    With ``background_bytes_per_s`` set, the node also allocates that rate in
    ticks every ``background_interval_us``, suspended while it is paused.
    """

    def __init__(self, sim: Simulation, node_id: str, heap: HeapModel,
                 cost: CollectorCostModel, mode: GcMode = GcMode.ON,
                 background_bytes_per_s: int = 0, background_interval_us: int = 10_000):
        self.sim = sim
        self.node_id = node_id
        self.heap = heap
        self.cost = cost
        self.mode = mode
        self.handler: Optional[UpcallHandler] = None
        self.on_pause: Optional[PauseCallback] = None
        self.catch_up_node: Optional[Callable[[], None]] = None
        self.active_ticket: Optional[CollectionTicket] = None
        self._next_id = 1
        self.paused_until: int = 0
        self.pauses: list[PauseInterval] = []
        self._peak_collected = 0  # the highest occupancy a collection reset
        # Background ticks: bytes per tick, grid spacing, the next tick not
        # yet added in (inf when there is no background allocation), and the
        # handle of the one event scheduled at a threshold crossing.
        self._tick_bytes = round(background_bytes_per_s * background_interval_us / 1_000_000)
        self._tick_interval_us = background_interval_us
        self._next_tick: float = (sim.now + background_interval_us
                                  if self._tick_bytes else math.inf)
        self._crossing: Optional[list] = None
        self._slack: float = math.inf  # bytes left before the crossing must move
        self._arm_crossing()

    # -- coordination API ---------------------------------------------------

    def reg_gc_hand(self, handler: Optional[UpcallHandler]) -> None:
        """Set (or replace) the function upcalled at the start of a collection."""
        self.handler = handler

    def start_gc(self, ticket_id: int) -> None:
        """Start a deferred collection; all other calls are silent no-ops."""
        if self._next_tick <= self.sim.now:
            self._add_background_ticks()
        ticket = self.active_ticket
        if (ticket is not None and ticket.id == ticket_id
                and ticket.state is TicketState.DEFERRED):
            self._collect(ticket)
            self._arm_crossing()

    # -- allocation and triggers ---------------------------------------------

    def allocate(self, n_bytes: int) -> None:
        """Grow the heap by ``n_bytes``, upcalling or collecting at crossings.

        A trigger crossing opens at most one cycle (one upcall) until that
        cycle's collection completes.  Crossing the hard limit while a cycle
        is deferred forces an immediate collection at this very allocation.
        """
        if n_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._next_tick <= self.sim.now:
            self._add_background_ticks()
        heap = self.heap
        total = heap.allocated_bytes + n_bytes
        if total < heap.trigger_bytes and self.active_ticket is None:
            # The common case: below the trigger, so below the hard limit,
            # and no cycle open, so nothing to offer or force.
            heap.allocated_bytes = total
            if self._tick_bytes:
                self._slack -= n_bytes
                if self._slack <= 0:
                    self._arm_crossing()
        else:
            self._grow(n_bytes)
            if self._tick_bytes:
                self._arm_crossing()

    def _grow(self, n_bytes: int) -> None:
        heap = self.heap
        if self.mode is GcMode.OFF:
            heap.allocated_bytes += n_bytes
            return
        heap.allocated_bytes = min(heap.allocated_bytes + n_bytes, heap.hard_limit_bytes)
        if self.active_ticket is None and heap.allocated_bytes >= heap.trigger_bytes:
            self._open_cycle()
        if (self.active_ticket is not None
                and self.active_ticket.state is TicketState.DEFERRED
                and heap.allocated_bytes >= heap.hard_limit_bytes):
            self._collect(self.active_ticket, forced=True)

    # -- background ticks ------------------------------------------------------

    def _add_background_ticks(self) -> None:
        """Add in every background tick due at or before the current time.

        Only the last of them can cross a threshold (an earlier crossing
        would have fired the crossing event already), so they go in at once.
        """
        now = self.sim.now
        t = self._next_tick
        if t < self.paused_until:  # the tick due at t found the node paused
            t = self.paused_until
            if t > now:
                self._next_tick = t
                return
        due = (now - t) // self._tick_interval_us + 1
        self._next_tick = t + due * self._tick_interval_us
        n_bytes = due * self._tick_bytes
        heap = self.heap
        total = heap.allocated_bytes + n_bytes
        if total < heap.trigger_bytes and self.active_ticket is None:
            heap.allocated_bytes = total
        else:
            self._grow(n_bytes)

    def _arm_crossing(self) -> None:
        """Schedule the crossing event at the tick that reaches the next
        threshold, and store the slack.

        An event already scheduled no later than that tick is kept: when it
        fires it adds in the ticks due and arms again.  The slack is the
        bytes that may still be allocated while the crossing tick stays at
        or after the armed event.
        """
        if not self._tick_bytes:
            return
        gap = self.bytes_to_threshold()
        if gap == math.inf:
            return
        tick_bytes, interval = self._tick_bytes, self._tick_interval_us
        base = max(self._next_tick, self.paused_until)
        at = base + (max(1, -(-gap // tick_bytes)) - 1) * interval
        crossing = self._crossing
        if crossing is None or crossing[0] > at:
            if crossing is not None:
                self.sim.cancel(crossing)
            crossing = self._crossing = self.sim.schedule_at(at, self._on_crossing)
        # The crossing tick is reached after ceil((armed - base) / interval)
        # more ticks at the earliest; it stays there while the gap exceeds
        # that many ticks' bytes.
        self._slack = gap + (base - crossing[0]) // interval * tick_bytes

    def bytes_to_threshold(self) -> float:
        """Bytes left to allocate before the next threshold: the trigger
        while no cycle is open, else the hard limit; ``inf`` in off mode."""
        if self.mode is GcMode.OFF:
            return math.inf
        heap = self.heap
        limit = heap.trigger_bytes if self.active_ticket is None else heap.hard_limit_bytes
        return limit - heap.allocated_bytes

    def add_due_ticks(self) -> float:
        """Add in the background ticks due by now; returns when the next
        one is due (``inf`` without background allocation)."""
        if self._next_tick <= self.sim.now:
            self._add_background_ticks()
        return self._next_tick

    def _on_crossing(self, _arg=None) -> None:
        self._crossing = None
        if self.catch_up_node is not None:
            self.catch_up_node()
        if self._next_tick <= self.sim.now:
            self._add_background_ticks()
        self._arm_crossing()

    def _open_cycle(self) -> None:
        ticket = self.active_ticket = CollectionTicket(self._next_id,
                                                       self.heap.allocated_bytes)
        self._next_id += 1
        if self.handler is None or self.handler(ticket):
            self._collect(ticket)
        else:
            ticket.state = TicketState.DEFERRED

    # -- collection ----------------------------------------------------------

    def _collect(self, ticket: CollectionTicket, forced: bool = False) -> None:
        """Run the stop-the-world collection now."""
        heap = self.heap
        start = self.sim.now
        end = start + self.cost.pause_us(heap.live_bytes)
        ticket.state = TicketState.FORCED_COMPLETED if forced else TicketState.COMPLETED
        self._peak_collected = max(self._peak_collected, heap.allocated_bytes)
        heap.allocated_bytes = heap.live_bytes
        self.paused_until = end
        self.pauses.append(PauseInterval(self.node_id, start, end, ticket.id, forced))
        self.active_ticket = None
        if self.on_pause is not None:
            self.on_pause(start, end)

    # -- introspection ---------------------------------------------------------

    @property
    def peak_allocated_bytes(self) -> int:
        """Highest heap occupancy so far, background ticks due by now included.

        Occupancy only grows between collections, so the peak is the
        occupancy now or the highest one a collection reset."""
        if self._next_tick <= self.sim.now:
            self._add_background_ticks()
        return max(self._peak_collected, self.heap.allocated_bytes)

    @property
    def is_paused(self) -> bool:
        return self.sim.now < self.paused_until

    def collection_count(self) -> int:
        return len(self.pauses)
