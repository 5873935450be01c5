"""Deterministic discrete-event engine.

Virtual time is an integer number of microseconds.  All scheduled events are
totally ordered by ``(fire_at, seq)`` where ``seq`` is the insertion sequence
number, so two simulations built the same way and driven by the same seed
replay byte-identical event sequences.  Nodes exchange messages through a
point-to-point network with a configurable one-way delay (half the round-trip
time) and optional bounded jitter drawn from the simulation's seeded RNG.

Events live in two queues: a binary heap, and a FIFO lane of message
deliveries.  With a constant delay every delivery is due no earlier than the
one sent before it, so the lane stays in ``(fire_at, seq)`` order by
appending alone, and the main loop fires whichever head is smaller.  A
delivery that would break the lane's order (jitter, or a delay lowered
mid-run) goes to the heap.  This is a calendar queue (Brown, CACM 1988)
with one bucket.

A message whose delivery would do nothing but record it needs no event at
all: ``stamp`` counts it and draws its arrival time as ``send`` does, and
the sender records it at once.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

# Readability helpers for microsecond quantities.
US = 1
MS = 1_000
SEC = 1_000_000

SimTime = int
NodeId = str

# Queue entries are mutable lists [fire_at, seq, action, arg]; cancelling an
# event nulls out its action so the main loop skips it cheaply.
EventHandle = list


class SchedulingError(ValueError):
    """Raised when an event is scheduled in the past or to an unknown node."""


@dataclass
class NetworkModel:
    """Point-to-point delivery delay: ``one_way_delay_us`` plus optional jitter.

    With jitter disabled (the default) delivery time is exactly
    ``send_time + one_way_delay_us``, which keeps every per-link message
    stream FIFO.  Jitter is drawn uniformly from ``[0, jitter_us]`` with the
    simulation's RNG.
    """

    one_way_delay_us: int = 24
    jitter_us: int = 0

    @classmethod
    def from_rtt(cls, rtt_us: int, jitter_us: int = 0) -> "NetworkModel":
        return cls(one_way_delay_us=rtt_us // 2, jitter_us=jitter_us)


@dataclass
class SimStats:
    events_fired: int
    now: SimTime
    messages_sent: int


class Simulation:
    """Single-threaded event loop owning a virtual clock and node registry.

    One instance is fully self-contained: independent instances never share
    state and may run in parallel.  All randomness (jitter, protocol timers)
    must come from ``self.rng`` or RNGs derived from the configured seed.
    """

    def __init__(self, seed: int = 0, network: Optional[NetworkModel] = None):
        self.now: SimTime = 0
        self.rng = random.Random(seed)
        self.network = network or NetworkModel()
        self._heap: list[list] = []
        self._lane: deque[list] = deque()  # deliveries in (fire_at, seq) order
        self._seq = 0  # events ever scheduled; also the tie-break sequence
        self._nodes: dict[NodeId, Callable[[NodeId, Any], None]] = {}
        # (src, dst) -> partial(deliver, src), cached once the link is validated
        self._links: dict[tuple[NodeId, NodeId], Callable[[Any], None]] = {}
        self.events_fired = 0
        self.messages_sent = 0

    # -- nodes ------------------------------------------------------------

    def add_node(self, node_id: NodeId, deliver: Callable[[NodeId, Any], None]) -> None:
        """Register a message sink; ``deliver(src, msg)`` runs on delivery."""
        self._nodes[node_id] = deliver
        self._links.clear()  # a cached link may hold a replaced sink

    # -- scheduling -------------------------------------------------------

    def schedule_at(self, fire_at: SimTime, action: Callable[[Any], None],
                    arg: Any = None) -> EventHandle:
        """Queue ``action(arg)`` to run at absolute time ``fire_at``.

        Rejects times earlier than the current clock.  Returns a handle
        usable with :meth:`cancel` until the event has fired.
        """
        if fire_at < self.now:
            raise SchedulingError(
                f"cannot schedule at t={fire_at}us: clock is already at {self.now}us")
        self._seq += 1
        entry = [fire_at, self._seq, action, arg]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_after(self, delay: SimTime, action: Callable[[Any], None],
                       arg: Any = None) -> EventHandle:
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}us")
        self._seq += 1
        entry = [self.now + delay, self._seq, action, arg]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event; no-op if it already fired."""
        handle[2] = None

    # -- messaging --------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, msg: Any) -> EventHandle:
        """Deliver ``msg`` to ``dst`` after the network's one-way delay."""
        delivery = self._links.get((src, dst))
        if delivery is None:
            delivery = self._link(src, dst)
        at = self.stamp()
        seq = self._seq = self._seq + 1
        entry = [at, seq, delivery, msg]
        lane = self._lane
        if lane and lane[-1][0] > at:
            heapq.heappush(self._heap, entry)
        else:
            lane.append(entry)
        return entry

    def stamp(self) -> SimTime:
        """Count a message sent now and return its arrival time.

        :meth:`send` queues the delivery at that time; a sender whose message
        needs no delivery event calls this alone.  Either way the jitter is
        drawn from ``rng`` as the message is sent.
        """
        network = self.network
        at = self.now + network.one_way_delay_us
        jitter = network.jitter_us
        if jitter:
            at += self.rng.randrange(jitter + 1)
        self.messages_sent += 1
        return at

    def _link(self, src: NodeId, dst: NodeId) -> Callable[[Any], None]:
        """Validate a (src, dst) link on first use and cache its delivery."""
        deliver = self._nodes.get(dst)
        if deliver is None:
            raise SchedulingError(f"unknown node id {dst!r}")
        if src not in self._nodes:
            raise SchedulingError(f"unknown node id {src!r}")
        delivery = self._links[(src, dst)] = partial(deliver, src)
        return delivery

    # -- main loop --------------------------------------------------------

    def run_until(self, deadline: SimTime) -> SimStats:
        """Fire every event with ``fire_at <= deadline`` in (fire_at, seq) order.

        The clock finishes exactly at ``deadline`` even if the queue drains
        early.  Events scheduled beyond the deadline stay queued.
        """
        heap = self._heap
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        fired = 0
        while True:
            if lane and not (heap and heap[0] < lane[0]):
                entry = lane[0]
                if entry[0] > deadline:
                    break
                popleft()
            elif heap:
                entry = heap[0]
                if entry[0] > deadline:
                    break
                pop(heap)
            else:
                break
            action = entry[2]
            if action is None:
                continue
            self.now = entry[0]
            fired += 1
            action(entry[3])
        self.now = deadline
        self.events_fired += fired
        return SimStats(events_fired=self.events_fired, now=self.now,
                        messages_sent=self.messages_sent)

