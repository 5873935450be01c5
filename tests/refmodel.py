"""A slow, plain reference model of an HTTP cluster run, for differential tests.

``run(cfg, stream, deadline)`` models the event engine, each backend's
managed runtime and the HTTP cluster (round-robin balancer, backends,
drain-then-collect coordination) and returns what ``gcsim.run_scenario``
reports about the run.  It imports nothing from ``gcsim`` but the config
type.  It has one event heap and no fast path: every request delivery,
completion, reply delivery and background tick is an event, a pause moves
each completion event it delays, and the balancer records a reply when it
is delivered.

The rules for events at one instant, which the simulator must follow too:

1. Each backend's own events come first, backend by backend in the
   balancer's order.  For one backend: its completions (in start order),
   then its background tick, then the requests that reach it (in the order
   they were sent), then one serve step.  The serve step starts queued
   requests FIFO while a slot is free and the runtime is not paused (a start
   that pauses it holds the rest back), and then, if the backend holds a
   grant, answers it: it begins its deferred collection if it is idle, and
   reports done at once if nothing is deferred.
2. Every other event follows, in the order it was scheduled: workload
   arrivals, asks, dones and replies at the balancer, allows at backends,
   and a backend's done at the end of its pause.  A backend answers an
   allow as it arrives, as in the serve step.  When exhaustion forces the
   collection of a backend that holds a grant, it answers the grant then,
   with a done at the end of the forced pause.
3. A pause delays each request in service by its length.  A completion due
   at the instant a pause begins is not in service.
4. A message takes half the RTT plus a jitter drawn from the seed and the
   message's identity alone, so jitter does not depend on event order.  A
   request or reply is identified by its rid; an ask, allow or done by its
   link and its place on that link.

Rows are returned in arrival order, then rid order.
"""

from __future__ import annotations

import heapq
from collections import deque

from gcsim.config import ScenarioConfig

GIB = 1 << 30
MASK64 = (1 << 64) - 1
LINK, REQ, REP = 0, 1, 2
COMPLETE, TICK, ARRIVE, SERVE = 0, 1, 2, 3  # a backend's own events at one instant


def mix64(z):
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def code(node):
    data = node.encode()
    z = int.from_bytes(data[:8], "big")
    for i in range(8, len(data), 8):
        z = mix64(z) ^ int.from_bytes(data[i:i + 8], "big")
    return z


def link_code(src, dst):
    return mix64(code(src)) ^ code(dst)


def jitter(seed, bound, kind, ident, count=0):
    """The jitter, 0 to ``bound`` us, of the message ``(kind, ident, count)``."""
    if not bound:
        return 0
    return mix64(mix64(mix64(mix64(seed & MASK64) ^ kind) ^ ident) ^ count) % (bound + 1)


class Model:
    def __init__(self, cfg: ScenarioConfig, stream, deadline):
        self.cfg = cfg
        self.deadline = deadline
        self.now = 0
        self.heap = []
        self.seq = 0
        self.messages = 0
        self.links = {}  # (src, dst) -> messages sent on that link
        self.issued = 0
        self.rows = []
        self.stream = iter(stream)
        self.lb = Balancer(self, [f"b{i}" for i in range(cfg.nodes)])
        self.backends = [Backend(self, i, f"b{i}") for i in range(cfg.nodes)]
        self.next_arrival()

    # -- engine ----------------------------------------------------------------

    def at(self, t, fn, *args, own=None):
        """Schedule ``fn(*args)`` at ``t``; ``own`` = (backend, step, order)
        for a backend's own event, which comes first at its instant."""
        assert t >= self.now
        self.seq += 1
        key = (t, 0) + own if own is not None else (t, 1, self.seq)
        entry = [key, self.seq, fn, args]
        heapq.heappush(self.heap, entry)
        return entry

    def run(self):
        while self.heap and self.heap[0][0][0] <= self.deadline:
            key, _, fn, args = heapq.heappop(self.heap)
            if fn is None:
                continue
            self.now = key[0]
            fn(*args)

    def arrival_time(self, kind, ident, count=0):
        self.messages += 1
        return self.now + self.cfg.rtt_us // 2 + jitter(self.cfg.seed, self.cfg.jitter_us,
                                                        kind, ident, count)

    def link_arrival(self, src, dst):
        """Arrival time of the next message on the link ``src -> dst``."""
        count = self.links.get((src, dst), 0)
        self.links[(src, dst)] = count + 1
        return self.arrival_time(LINK, link_code(src, dst), count)

    # -- workload --------------------------------------------------------------

    def next_arrival(self):
        item = next(self.stream, None)
        if item is not None:
            self.at(item[0], self.arrive, item)

    def arrive(self, item):
        self.issued += 1
        self.lb.route(item[1], self.now)
        self.next_arrival()


class Balancer:
    def __init__(self, model, order):
        self.m = model
        self.order = order
        self.rr = 0
        self.parked = deque()
        self.capacity = model.cfg.max_concurrent
        self.granted = set()
        self.asked = deque()

    def route(self, rid, issued):
        n = len(self.order)
        for k in range(n):
            i = (self.rr + k) % n
            if self.order[i] not in self.granted:
                self.rr = (i + 1) % n
                backend = self.m.backends[i]
                t = self.m.arrival_time(REQ, rid)
                backend.at(t, ARRIVE, backend.arrive, rid, issued, order=self.m.messages)
                return
        self.parked.append((rid, issued))

    def send_allow(self, name):
        t = self.m.link_arrival("lb", name)
        backend = self.m.backends[self.order.index(name)]
        self.m.at(t, backend.allow)

    def ask(self, name):
        if name in self.granted or name in self.asked:
            return
        if len(self.granted) >= self.capacity:
            self.asked.append(name)
        else:
            self.granted.add(name)
            self.send_allow(name)

    def done(self, name):
        nxt = None
        if name in self.granted:
            self.granted.discard(name)
            if self.asked:
                nxt = self.asked.popleft()
                self.granted.add(nxt)
        while self.parked and len(self.granted) < len(self.order):
            self.route(*self.parked.popleft())
        if nxt is not None:
            self.send_allow(nxt)

    def reply(self, rid, issued, name):
        self.m.rows.append((rid, issued, self.m.now, name, "http"))


class Backend:
    def __init__(self, model, index, name):
        cfg = model.cfg
        self.m, self.index, self.name = model, index, name
        self.mode = cfg.gc_mode
        self.service = cfg.service_time_us
        if self.mode == "off" and cfg.gcoff_slowdown > 1.0:
            self.service = round(self.service * cfg.gcoff_slowdown)
        self.slots = cfg.parallelism
        self.request_bytes = cfg.bytes_per_request
        self.queue = deque()
        self.in_service = {}  # start number -> completion event
        self.starts = 0
        # runtime
        self.live = cfg.live_bytes
        self.trigger = cfg.effective_trigger_bytes()
        self.hard = cfg.hard_limit_bytes
        self.allocated = self.peak = self.live
        self.paused_until = 0
        self.pauses = []
        self.history = []
        self.active = None  # [id, state]
        self.next_id = 1
        self.grantor = None
        interval = cfg.background_alloc_interval_us
        self.tick_bytes = round(cfg.background_alloc_bytes_per_s * interval / 1_000_000)
        self.interval = interval
        if self.tick_bytes:
            self.at(interval, TICK, self.tick)

    def at(self, t, step, fn, *args, order=0):
        return self.m.at(t, fn, *args, own=(self.index, step, order))

    # -- requests ------------------------------------------------------------

    def arrive(self, rid, issued):
        self.queue.append((rid, issued))
        self.at(self.m.now, SERVE, self.serve)

    def serve(self):
        while self.queue and len(self.in_service) < self.slots and self.m.now >= self.paused_until:
            self.start(*self.queue.popleft())
        if self.grantor is not None:
            self.poll()

    def start(self, rid, issued):
        self.starts += 1
        number = self.starts
        self.in_service[number] = None
        self.allocate(self.request_bytes)
        begin = max(self.m.now, self.paused_until)
        self.in_service[number] = self.at(begin + self.service, COMPLETE, self.complete,
                                          number, rid, issued, order=number)

    def complete(self, number, rid, issued):
        del self.in_service[number]
        t = self.m.arrival_time(REP, rid)
        self.m.at(t, self.m.lb.reply, rid, issued, self.name)
        self.at(self.m.now, SERVE, self.serve)

    def idle(self):
        return not self.in_service and not self.queue

    # -- runtime -------------------------------------------------------------

    def tick(self):
        now = self.m.now
        if now < self.paused_until:  # the grid restarts at the pause's end
            self.at(self.paused_until, TICK, self.tick)
            return
        self.allocate(self.tick_bytes)
        self.at(now + self.interval, TICK, self.tick)

    def allocate(self, n):
        if self.mode == "off":
            self.allocated += n
            self.peak = max(self.peak, self.allocated)
            return
        self.allocated = min(self.allocated + n, self.hard)
        self.peak = max(self.peak, self.allocated)
        if self.active is None and self.allocated >= self.trigger:
            self.open_cycle()
        if self.active is not None and self.active[1] == "deferred" and self.allocated >= self.hard:
            self.collect(self.active, forced=True)

    def estimate(self):
        n = len(self.history)
        if n < 2:
            return self.m.cfg.default_pause_estimate_us
        xs = [h[0] for h in self.history]
        ys = [h[1] for h in self.history]
        x_mean, y_mean = sum(xs) / n, sum(ys) / n
        var = sum((x - x_mean) ** 2 for x in xs)
        if var == 0.0:
            return max(0, round(y_mean))
        cov = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
        return max(0, round(y_mean + cov / var * (self.live - x_mean)))

    def open_cycle(self):
        ticket = [self.next_id, "offered"]
        self.next_id += 1
        self.active = ticket
        if self.mode == "on" or self.estimate() <= self.m.cfg.defer_threshold_us:
            self.collect(ticket)
            return
        ticket[1] = "deferred"
        t = self.m.link_arrival(self.name, "lb")
        self.m.at(t, self.m.lb.ask, self.name)

    def collect(self, ticket, forced=False):
        cfg = self.m.cfg
        pause = cfg.pause_overhead_us + round(cfg.pause_per_gib_us * self.live / GIB)
        start, end = self.m.now, self.m.now + pause
        ticket[1] = "forced" if forced else "completed"
        self.history.append((self.live, pause))
        self.allocated = self.live
        self.paused_until = end
        self.pauses.append((self.name, start, end, ticket[0], forced))
        self.active = None
        for number, entry in list(self.in_service.items()):
            if entry is None:  # the request whose start began this pause
                continue
            entry[2] = None  # cancelled, and due again one pause later
            self.in_service[number] = self.at(entry[0][0] + pause, COMPLETE, self.complete,
                                              *entry[3], order=number)
        self.at(end, SERVE, self.serve)
        if forced:
            self.poll()

    # -- coordination ----------------------------------------------------------

    def allow(self):
        self.grantor = "lb"
        self.poll()

    def poll(self):
        if self.grantor is None or self.active is not None and not self.idle():
            return
        self.grantor = None
        if self.active is not None:
            self.collect(self.active)
        if self.m.now < self.paused_until:
            self.m.at(self.paused_until, self.send_done)
        else:
            self.send_done()

    def send_done(self):
        t = self.m.link_arrival(self.name, "lb")
        self.m.at(t, self.m.lb.done, self.name)


def run(cfg: ScenarioConfig, stream, deadline):
    """Run the HTTP cluster of ``cfg`` on ``stream`` (``(t, rid, kind)``
    arrivals) until ``deadline``.  Returns the rows, the pauses, the
    messages sent, the peak heap of each backend, and the requests issued."""
    model = Model(cfg, stream, deadline)
    model.run()
    rows = sorted(model.rows, key=lambda row: (row[2], row[0]))
    pauses = [p for b in model.backends for p in b.pauses]
    peak = {b.name: b.peak for b in model.backends}
    return rows, pauses, model.messages, peak, model.issued
