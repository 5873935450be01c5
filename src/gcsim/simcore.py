"""Deterministic discrete-event engine.

Virtual time is an integer number of microseconds.  All scheduled events are
totally ordered by ``(fire_at, seq)`` where ``seq`` is the insertion sequence
number, so two simulations built the same way and driven by the same seed
replay byte-identical event sequences.  Nodes exchange messages through a
point-to-point network with a configurable one-way delay (half the round-trip
time) and optional bounded jitter.

Events live in two queues: a binary heap, and a FIFO lane of message
deliveries.  With a constant delay every delivery is due no earlier than the
one sent before it, so the lane stays in ``(fire_at, seq)`` order by
appending alone, and the main loop fires whichever head is smaller.  A
delivery that would break the lane's order (jitter, or a delay lowered
mid-run) goes to the heap.  This is a calendar queue (Brown, CACM 1988)
with one bucket.

A message's jitter is a pure function of the seed and the message's
identity, a counter-based draw (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) through SplitMix64's mixing function (Steele, Lea
and Flood, OOPSLA 2014), so it does not depend on the order of sends.
``send`` keys a message by its link and its place on that link; a message
whose receiver accounts its arrival itself needs no event, and its sender
keys it by an identity of its own through ``arrival``.

An event may also fire in place.  A handler that would schedule an event at
``fire_at`` first asks :meth:`Simulation.fire_in_place`: if ``run_until`` is
running with a deadline at or after ``fire_at`` and no queued event is due at
or before it (one due at the same instant has a smaller ``seq``), the event
would fire next.  The engine then advances the clock and counts the event as
scheduled and fired, as the queue and the main loop would, and the handler
runs it at once, skipping the queue's push and pop.
"""

from __future__ import annotations

import heapq
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


_MASK64 = (1 << 64) - 1
LINK = 0  # the kind of a message sent through ``send``; other kinds are the caller's


def _mix64(z: int) -> int:
    """SplitMix64's output function: a bijection of 64-bit integers whose
    outputs look independent for consecutive inputs."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def node_ident(node_id: NodeId) -> int:
    """A node id folded into 64 bits, for message identities.

    An id of up to 8 bytes (UTF-8) is its bytes read as one integer; each
    further 8 bytes are mixed in, so every byte of the id reaches the draw.
    """
    data = node_id.encode()
    ident = int.from_bytes(data[:8], "big")
    for i in range(8, len(data), 8):
        ident = _mix64(ident) ^ int.from_bytes(data[i:i + 8], "big")
    return ident


class SchedulingError(ValueError):
    """Raised when an event is scheduled in the past or to an unknown node."""


@dataclass
class NetworkModel:
    """Point-to-point delivery delay: ``one_way_delay_us`` plus optional jitter.

    With jitter disabled (the default) delivery time is exactly
    ``send_time + one_way_delay_us``, which keeps every per-link message
    stream FIFO.  Jitter is drawn from ``[0, jitter_us]`` by
    :meth:`Simulation.arrival`.
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
    state and may run in parallel.  Jitter is a draw keyed by ``seed``
    (:meth:`arrival`); protocol timers use RNGs derived from the seed.
    """

    def __init__(self, seed: int = 0, network: Optional[NetworkModel] = None):
        self.now: SimTime = 0
        self.seed = seed
        self.network = network or NetworkModel()
        self._heap: list[list] = []
        self._lane: deque[list] = deque()  # deliveries in (fire_at, seq) order
        self._seq = 0  # events ever scheduled; also the tie-break sequence
        self._deadline: SimTime = -1  # run_until's, while it runs
        self._nodes: dict[NodeId, Callable[[NodeId, Any], None]] = {}
        # (src, dst) -> [partial(deliver, src), jitter key, messages sent on it]
        self._links: dict[tuple[NodeId, NodeId], list] = {}
        self._kind_keys: dict[int, int] = {}  # kind -> its part of the draw
        self.events_fired = 0
        self.messages_sent = 0

    # -- nodes ------------------------------------------------------------

    def add_node(self, node_id: NodeId, deliver: Callable[[NodeId, Any], None]) -> None:
        """Register a message sink; ``deliver(src, msg)`` runs on delivery.
        A replaced sink takes over the links to it, and their counts."""
        self._nodes[node_id] = deliver
        for (src, dst), link in self._links.items():
            if dst == node_id:
                link[0] = partial(deliver, src)

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

    def fire_in_place(self, fire_at: SimTime) -> bool:
        """Fire an event due at ``fire_at`` in place if it would fire next.

        If it would, advance the clock to ``fire_at``, count the event as
        scheduled and fired, and return True: the caller runs it at once.
        Otherwise change nothing and return False: the caller schedules it.
        """
        lane = self._lane
        if lane and lane[0][0] <= fire_at:
            return False
        heap = self._heap
        if heap and heap[0][0] <= fire_at or not self.now <= fire_at <= self._deadline:
            return False
        self.now = fire_at
        self._seq += 1
        self.events_fired += 1
        return True

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event; no-op if it already fired."""
        handle[2] = None

    # -- messaging --------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, msg: Any) -> EventHandle:
        """Deliver ``msg`` to ``dst`` after the network's delay, its jitter
        keyed by the link and the message's place on it."""
        link = self._links.get((src, dst))
        if link is None:
            link = self._link(src, dst)
        count = link[2]
        link[2] = count + 1
        at = self.arrival(self.now, LINK, None, count, link[1])
        seq = self._seq = self._seq + 1
        entry = [at, seq, link[0], msg]
        lane = self._lane
        if lane and lane[-1][0] > at:
            heapq.heappush(self._heap, entry)
        else:
            lane.append(entry)
        return entry

    def arrival(self, sent_at: SimTime, kind: int, ident: Optional[int],
                count: int = 0, key: Optional[int] = None) -> SimTime:
        """Count a message sent at ``sent_at`` and return its arrival time.

        The jitter is a pure function of the seed and the message's
        identity ``(kind, ident, count)``, integers below ``2**64`` that no
        other message of the run shares (:func:`node_ident` folds a node id
        to that width).  Every message's delay and jitter are drawn here.
        ``key`` may stand for ``(kind, ident)``: the draw's first three
        mixing rounds, cached by a caller that sends many messages under one
        identity (``send`` keeps its link's in the link record).
        """
        network = self.network
        at = sent_at + network.one_way_delay_us
        if network.jitter_us:
            if key is None:
                key = _mix64(self._kind_key(kind) ^ ident)
            at += _mix64(key ^ count) % (network.jitter_us + 1)
        self.messages_sent += 1
        return at

    def _kind_key(self, kind: int) -> int:
        """The first two of a draw's four mixing rounds, which depend only on
        the seed and the message's kind; cached per kind."""
        key = self._kind_keys.get(kind)
        if key is None:
            key = self._kind_keys[kind] = _mix64(_mix64(self.seed & _MASK64) ^ kind)
        return key

    def _link(self, src: NodeId, dst: NodeId) -> list:
        """Validate a (src, dst) link on first use and cache its record.

        The link's identity folds both ids, so ``a -> b`` and ``b -> a``
        differ; the record keeps the first three mixing rounds of its draws,
        which depend only on the seed and that identity.
        """
        deliver = self._nodes.get(dst)
        if deliver is None:
            raise SchedulingError(f"unknown node id {dst!r}")
        if src not in self._nodes:
            raise SchedulingError(f"unknown node id {src!r}")
        identity = _mix64(node_ident(src)) ^ node_ident(dst)
        link = self._links[(src, dst)] = [
            partial(deliver, src), _mix64(self._kind_key(LINK) ^ identity), 0]
        return link

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
        self._deadline = deadline
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
        self._deadline = -1
        self.now = deadline
        self.events_fired += fired
        return SimStats(events_fired=self.events_fired, now=self.now,
                        messages_sent=self.messages_sent)

