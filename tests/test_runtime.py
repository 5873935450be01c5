import pytest
from hypothesis import given, settings, strategies as st

from gcsim.runtime import (GIB, MIB, CollectorCostModel, GcGrantee, GcLedger, GcMode,
                           HeapModel, ManagedRuntime, TicketState)
from gcsim.simcore import Simulation


def make_runtime(sim=None, live=100, trigger=200, hard=1000,
                 pause_per_gib=25_000, overhead=0, mode=GcMode.BLADE):
    sim = sim or Simulation()
    heap = HeapModel(live_bytes=live, trigger_bytes=trigger,
                     hard_limit_bytes=hard)
    cost = CollectorCostModel(pause_per_gib_us=pause_per_gib, fixed_overhead_us=overhead)
    return sim, ManagedRuntime(sim, "n", heap, cost, mode=mode)


def offered(rt, decision):
    """Register a handler that answers ``decision``; returns the tickets it
    is offered, in order."""
    tickets = []
    rt.reg_gc_hand(lambda t: tickets.append(t) or decision)
    return tickets


# -- upcall registration -------------------------------------------------------


def test_unregistered_trigger_collects_immediately():
    sim, rt = make_runtime(mode=GcMode.ON)
    rt.allocate(150)
    assert rt.collection_count() == 1
    assert rt.heap.allocated_bytes == rt.heap.live_bytes


def test_registered_handler_gets_first_upcall_with_id_1():
    sim, rt = make_runtime()
    calls = []
    rt.reg_gc_hand(lambda t: calls.append((t.id, t.allocated_bytes)) or True)
    rt.allocate(150)
    assert calls == [(1, 250)]


def test_reregistration_replaces_previous_handler():
    sim, rt = make_runtime()
    first, second = [], []
    rt.reg_gc_hand(lambda t: first.append(t.id) or True)
    rt.reg_gc_hand(lambda t: second.append(t.id) or True)
    rt.allocate(150)
    assert first == [] and second == [1]


# -- collect / defer decisions ------------------------------------------------


def test_handler_true_runs_collection_now_for_cost_model_duration():
    sim, rt = make_runtime(live=512 * MIB, trigger=1024 * MIB, hard=4 * GIB,
                           overhead=1_000)
    tickets = offered(rt, True)
    sim.schedule_at(50, lambda _: rt.allocate(600 * MIB))
    sim.run_until(50)
    expected = 1_000 + round(25_000 * (512 * MIB) / GIB)
    assert rt.pauses[0].start_us == 50
    assert rt.pauses[0].end_us == 50 + expected
    assert tickets[0].state is TicketState.COMPLETED


def test_handler_false_defers_until_start_gc():
    sim, rt = make_runtime()
    tickets = offered(rt, False)
    sim.schedule_at(10, lambda _: rt.allocate(150))
    sim.schedule_at(500, lambda _: rt.start_gc(1))
    sim.run_until(1_000)
    assert tickets[0].state is TicketState.COMPLETED and rt.active_ticket is None
    assert rt.pauses[0].start_us == 500


def test_exhaustion_forces_collection_and_start_gc_noops():
    sim, rt = make_runtime(live=100, trigger=200, hard=400)
    tickets = offered(rt, False)
    rt.allocate(150)  # crosses trigger, deferred
    assert rt.active_ticket is tickets[0] and tickets[0].state is TicketState.DEFERRED
    rt.allocate(200)  # 450 >= hard: forced at the crossing allocation
    assert tickets[0].state is TicketState.FORCED_COMPLETED and rt.active_ticket is None
    assert sum(p.forced for p in rt.pauses) == 1
    assert rt.heap.allocated_bytes == rt.heap.live_bytes
    pauses_before = rt.collection_count()
    rt.start_gc(1)  # late start is ignored
    assert rt.collection_count() == pauses_before


def test_allocated_never_exceeds_hard_limit():
    sim, rt = make_runtime(live=100, trigger=200, hard=400)
    rt.reg_gc_hand(lambda t: False)
    rt.allocate(10_000)
    assert rt.peak_allocated_bytes <= rt.heap.hard_limit_bytes


def test_start_gc_is_idempotent_and_safe_on_unknown_ids():
    sim, rt = make_runtime()
    rt.reg_gc_hand(lambda t: False)
    rt.allocate(150)
    rt.start_gc(99)  # not the deferred collection's id
    assert rt.collection_count() == 0
    rt.start_gc(1)
    rt.start_gc(1)
    rt.start_gc(99)
    assert rt.collection_count() == 1


def test_allocate_zero_changes_nothing():
    sim, rt = make_runtime()
    before = rt.heap.allocated_bytes
    rt.allocate(0)
    assert rt.heap.allocated_bytes == before
    assert rt.collection_count() == 0


def test_one_upcall_per_cycle_at_threshold_crossing():
    # crossing 799 -> 801 MB of an 800 MB trigger upcalls exactly once
    sim, rt = make_runtime(live=400 * MIB, trigger=800 * MIB, hard=2 * GIB)
    calls = []
    rt.reg_gc_hand(lambda t: calls.append(t.allocated_bytes) or False)
    rt.allocate(399 * MIB)  # 799 MB
    assert calls == []
    rt.allocate(2 * MIB)    # 801 MB, one upcall
    rt.allocate(5 * MIB)    # still the same cycle
    assert calls == [801 * MIB]


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
def test_threshold_crossing_oracle(allocs):
    # oracle over the scalar sequence: first prefix sum reaching the trigger
    sim, rt = make_runtime(live=0, trigger=100, hard=10_000)
    calls = []
    rt.reg_gc_hand(lambda t: calls.append(t.allocated_bytes) or False)
    total, expected = 0, None
    for n in allocs:
        total += n
        if expected is None and total >= 100:
            expected = total
    for n in allocs:
        rt.allocate(n)
    assert calls == ([expected] if expected is not None else [])


# -- ticket id sequence ----------------------------------------------------------


def test_ticket_ids_are_sequential_without_gaps():
    sim, rt = make_runtime(mode=GcMode.ON)
    tickets = offered(rt, True)
    for _ in range(5):
        rt.allocate(150)  # every crossing collects and resets occupancy
    assert [t.id for t in tickets] == [1, 2, 3, 4, 5]
    assert [p.ticket_id for p in rt.pauses] == [1, 2, 3, 4, 5]


# -- start_gc idempotence under duplication (property) ----------------------------


@settings(max_examples=60)
@given(st.lists(st.one_of(st.tuples(st.just("alloc"), st.integers(1, 120)),
                          st.tuples(st.just("start"), st.integers(1, 6))),
                max_size=40),
       st.integers(2, 4))
def test_duplicated_start_calls_change_nothing(ops, copies):
    # idempotence as f;f = f: repeating any start call in place (any number
    # of times) leaves the state trace identical to the single-call sequence
    def run(op_list):
        _, rt = make_runtime(live=0, trigger=100, hard=400)
        tickets = offered(rt, False)
        for op, val in op_list:
            if op == "alloc":
                rt.allocate(val)
            else:
                rt.start_gc(val)
        return ([(p.start_us, p.end_us, p.ticket_id, p.forced) for p in rt.pauses],
                [(t.id, t.state) for t in tickets],
                rt.heap.allocated_bytes)

    doubled = []
    for op, val in ops:
        doubled.extend([(op, val)] * (copies if op == "start" else 1))
    assert run(ops) == run(doubled)


# -- collector cost model --------------------------------------------------------------


def test_pause_cost_matches_observed_average_scale():
    # 150 MiB live at 25 ms/GiB plus the calibrated overhead lands on 12.423 ms
    cost = CollectorCostModel(pause_per_gib_us=25_000, fixed_overhead_us=8_761)
    assert cost.pause_us(150 * MIB) == 12_423


def test_zero_live_zero_overhead_pause_is_zero():
    cost = CollectorCostModel(pause_per_gib_us=25_000, fixed_overhead_us=0)
    assert cost.pause_us(0) == 0


def test_repeated_collections_with_constant_live_set_pause_equally():
    sim, rt = make_runtime(live=100 * MIB, trigger=200 * MIB, hard=GIB,
                           overhead=500, mode=GcMode.ON)
    rt.allocate(150 * MIB)
    rt.allocate(150 * MIB)
    durations = {p.end_us - p.start_us for p in rt.pauses}
    assert len(rt.pauses) == 2 and len(durations) == 1


def test_cost_model_strictly_increasing_in_live_bytes():
    cost = CollectorCostModel(pause_per_gib_us=25_000, fixed_overhead_us=100)
    pauses = [cost.pause_us(n * GIB) for n in range(1, 6)]
    assert pauses == sorted(pauses) and len(set(pauses)) == len(pauses)


# -- heap model validation ----------------------------------------------------------------


def test_heap_rejects_trigger_beyond_hard_limit():
    with pytest.raises(ValueError):
        HeapModel(live_bytes=10, trigger_bytes=1001, hard_limit_bytes=1000)


def test_heap_rejects_trigger_at_or_below_live():
    with pytest.raises(ValueError):
        HeapModel(live_bytes=100, trigger_bytes=100, hard_limit_bytes=1000)


def test_gc_off_mode_never_collects_and_tracks_peak():
    sim, rt = make_runtime(mode=GcMode.OFF, live=100, trigger=200, hard=400)
    rt.allocate(10_000)
    assert rt.collection_count() == 0
    assert rt.peak_allocated_bytes == 10_100


# -- lazy background allocation against the tick-per-event reference ----------------------


class _ReferenceTicker:
    """Background allocation as one event per tick, suspended while paused.

    The lazy accounting in ``ManagedRuntime`` must reproduce this exactly.
    """

    def __init__(self, sim, runtime, bytes_per_s, interval_us):
        self.sim = sim
        self.runtime = runtime
        self.interval_us = interval_us
        self.bytes_per_tick = round(bytes_per_s * interval_us / 1_000_000)
        sim.schedule_at(interval_us, self._tick)

    def _tick(self, _arg=None):
        if self.runtime.is_paused:
            self.sim.schedule_at(self.runtime.paused_until, self._tick)
            return
        self.runtime.allocate(self.bytes_per_tick)
        self.sim.schedule_after(self.interval_us, self._tick)


def _background_run(lazy, mode, *, rate=10_000, interval=10_000, overhead=4_000,
                    request_gap=3_001, request_bytes=37, requests=0, start_delay=5_001,
                    live=1_000, trigger=2_000, hard=5_000, until=2_000_000):
    """One runtime with background allocation, lazy or by the reference ticker.

    Requests are chained, each scheduled by the one before, ``request_gap``
    apart; with the gap shorter than the interval and the pause, a tick due
    at a request's microsecond fires first in the reference too.  In blade
    mode every ticket is deferred and started ``start_delay`` later, or
    never when ``start_delay`` is None; a delay shorter than the interval
    orders ticks before ``start_gc`` the same way.  Returns the simulation,
    the runtime and the tickets it offered.
    """
    sim = Simulation()
    heap = HeapModel(live_bytes=live, trigger_bytes=trigger, hard_limit_bytes=hard)
    cost = CollectorCostModel(pause_per_gib_us=0, fixed_overhead_us=overhead)
    background = {"background_bytes_per_s": rate, "background_interval_us": interval}
    rt = ManagedRuntime(sim, "n", heap, cost, mode=mode, **(background if lazy else {}))
    if not lazy:
        _ReferenceTicker(sim, rt, rate, interval)
    tickets = []

    def offer(ticket):  # collects at once unless blade, which defers
        tickets.append(ticket)
        if mode is GcMode.BLADE and start_delay is not None:
            sim.schedule_after(start_delay, lambda _: rt.start_gc(ticket.id))
        return mode is not GcMode.BLADE
    rt.reg_gc_hand(offer)

    def request(left):
        rt.allocate(request_bytes)
        if left > 1:
            sim.schedule_after(request_gap, request, left - 1)
    if requests:
        sim.schedule_at(request_gap, request, requests)
    sim.run_until(until)
    return sim, rt, tickets


def _observed(rt, tickets):
    peak = rt.peak_allocated_bytes
    return ([(p.node, p.start_us, p.end_us, p.ticket_id, p.forced) for p in rt.pauses],
            [(t.id, t.allocated_bytes, t.state) for t in tickets],
            rt.collection_count(), sum(p.forced for p in rt.pauses), peak,
            rt.heap.allocated_bytes)


BACKGROUND_CASES = {
    "requests_between_ticks": dict(requests=500),
    "pause_longer_than_interval": dict(requests=300, overhead=25_000, start_delay=1_001),
    "forced_by_background_alone": dict(start_delay=None),
    "background_alone": dict(start_delay=12_001),
}


@pytest.mark.parametrize("mode", [GcMode.ON, GcMode.BLADE, GcMode.OFF], ids=str)
@pytest.mark.parametrize("case", sorted(BACKGROUND_CASES))
def test_lazy_background_matches_tick_reference(case, mode):
    ref_sim, ref, ref_tickets = _background_run(False, mode, **BACKGROUND_CASES[case])
    lazy_sim, lazy, lazy_tickets = _background_run(True, mode, **BACKGROUND_CASES[case])
    assert _observed(lazy, lazy_tickets) == _observed(ref, ref_tickets)
    assert lazy_sim.events_fired < ref_sim.events_fired
    if mode is not GcMode.OFF:
        assert ref.collection_count() >= 3
    if case == "forced_by_background_alone" and mode is GcMode.BLADE:
        assert sum(p.forced for p in lazy.pauses) == lazy.collection_count()


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from([GcMode.ON, GcMode.BLADE, GcMode.OFF]),
       rate=st.integers(1_000, 60_000),
       request_gap=st.integers(1, 3_999),
       request_bytes=st.integers(0, 300),
       requests=st.integers(0, 400),
       overhead=st.integers(4_000, 40_000),
       start_delay=st.one_of(st.none(), st.integers(0, 9_999)))
def test_lazy_background_matches_tick_reference_on_random_schedules(
        mode, rate, request_gap, request_bytes, requests, overhead, start_delay):
    kwargs = dict(rate=rate, request_gap=request_gap, request_bytes=request_bytes,
                  requests=requests, overhead=overhead, start_delay=start_delay,
                  until=1_500_000)
    _, ref, ref_tickets = _background_run(False, mode, **kwargs)
    _, lazy, lazy_tickets = _background_run(True, mode, **kwargs)
    assert _observed(lazy, lazy_tickets) == _observed(ref, ref_tickets)


# -- the grantee -------------------------------------------------------------------------


def test_a_grant_gets_one_done_when_its_start_forces_the_collection():
    # 100 B ticks every 10 us: the tick at 10 us crosses the trigger and asks,
    # the one at 30 us reaches the hard limit.  The grant, due at 30 us ahead
    # of that crossing, starts the deferred collection; adding the tick in
    # forces it first, and the grant still gets exactly one done.  The tick
    # at the pause's end opens the next cycle
    sim = Simulation()
    rt = ManagedRuntime(sim, "n", HeapModel(100, 200, 400), CollectorCostModel(0, 1_000),
                        mode=GcMode.BLADE, background_bytes_per_s=10_000_000,
                        background_interval_us=10)
    asks, dones = [], []
    grantee = GcGrantee(rt, lambda: asks.append((sim.now, rt.active_ticket.id)),
                        lambda grantor: dones.append((sim.now, grantor)))
    sim.schedule_at(30, lambda _: grantee.grant("lb"))
    sim.run_until(1_030)
    assert asks == [(10, 1), (1_030, 2)]
    assert [(p.start_us, p.end_us, p.forced) for p in rt.pauses] == [(30, 1_030, True)]
    assert dones == [(1_030, "lb")]


def test_a_grant_with_nothing_deferred_is_answered_before_the_next_ask():
    # exhaustion forces ticket 1 at 15 us while its ask waits behind m's
    # grant; m's done grants n at 20 us with nothing deferred.  n's done goes
    # out before the tick due at 20 us opens the next cycle, so the ledger
    # grants that ask instead of dropping it as a duplicate of the grant
    sim = Simulation()
    rt = ManagedRuntime(sim, "n", HeapModel(100, 200, 400), CollectorCostModel(0, 1),
                        mode=GcMode.BLADE, background_bytes_per_s=10_000_000,
                        background_interval_us=10)
    log = []
    ledger = GcLedger(1, lambda node: log.append((sim.now, "allow", node)))
    ledger.ask("m")

    def done(grantor):
        log.append((sim.now, "done"))
        ledger.finish("n")
    grantee = GcGrantee(rt, lambda: log.append((sim.now, rt.active_ticket.id, ledger.ask("n"))),
                        done)

    def m_done(_):
        ledger.finish("m")
        assert log[-1] == (20, "allow", "n")
        grantee.grant("m")
    sim.schedule_at(15, lambda _: rt.allocate(200))
    sim.schedule_at(20, m_done)
    sim.run_until(20)
    assert log == [(0, "allow", "m"), (10, 1, "queued"), (20, "allow", "n"), (20, "done"),
                   (20, "allow", "n"), (20, 2, "grant")]
    assert [(p.start_us, p.forced) for p in rt.pauses] == [(15, True)]


# -- the allocation fast path against the single-path reference ------------------------


class _ReferenceAllocate(ManagedRuntime):
    """``allocate`` as before its fast paths: every allocation runs ``_grow``
    and arms the crossing event, and background ticks go in through ``_grow``.
    """

    def allocate(self, n_bytes):
        if n_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._next_tick <= self.sim.now:
            self._add_background_ticks()
        self._grow(n_bytes)
        if self._tick_bytes:
            self._arm_crossing()

    def _grow(self, n_bytes):
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

    def _add_background_ticks(self):
        now = self.sim.now
        t = self._next_tick
        if t < self.paused_until:
            t = self.paused_until
            if t > now:
                self._next_tick = t
                return
        due = (now - t) // self._tick_interval_us + 1
        self._next_tick = t + due * self._tick_interval_us
        self._grow(due * self._tick_bytes)

    def _arm_crossing(self):
        if not self._tick_bytes or self.mode is GcMode.OFF:
            return
        heap = self.heap
        limit = heap.trigger_bytes if self.active_ticket is None else heap.hard_limit_bytes
        ticks = max(1, -((heap.allocated_bytes - limit) // self._tick_bytes))
        at = max(self._next_tick, self.paused_until) + (ticks - 1) * self._tick_interval_us
        if self._crossing is not None:
            if self._crossing[0] <= at:
                return
            self.sim.cancel(self._crossing)
        self._crossing = self.sim.schedule_at(at, self._on_crossing)


def _allocation_run(cls, mode, ops, rate, deferred):
    """Apply ``ops`` (gap, op, value) in order; snapshot the runtime after each.

    A snapshot includes the time of the armed crossing event and the number
    of events scheduled so far, so a crossing armed late, early or once too
    often shows.
    """
    sim = Simulation()
    heap = HeapModel(live_bytes=100, trigger_bytes=200, hard_limit_bytes=400)
    cost = CollectorCostModel(pause_per_gib_us=0, fixed_overhead_us=3_000)
    rt = cls(sim, "n", heap, cost, mode=mode, background_bytes_per_s=rate,
             background_interval_us=1_000)
    tickets = []  # collected at once unless blade defers them
    rt.reg_gc_hand(lambda ticket: tickets.append(ticket)
                   or mode is not GcMode.BLADE or ticket.id not in deferred)
    snapshots = []

    def step(op_value):
        op, value = op_value
        if op == "alloc":
            rt.allocate(value)
        else:
            rt.start_gc(value)
        snapshots.append((sim.now, rt.heap.allocated_bytes, rt.peak_allocated_bytes,
                          [(t.id, t.allocated_bytes, t.state) for t in tickets],
                          list(rt.pauses), rt._crossing and rt._crossing[0], sim._seq))
    at = 0
    for gap, op, value in ops:
        at += gap
        sim.schedule_at(at, step, (op, value))
    sim.run_until(at + 10_000)
    return snapshots, rt.peak_allocated_bytes, rt.heap.allocated_bytes


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from([GcMode.ON, GcMode.BLADE, GcMode.OFF]),
       rate=st.sampled_from([0, 20_000, 90_000]),
       deferred=st.sets(st.integers(1, 12)),
       ops=st.lists(st.tuples(st.integers(0, 2_500),
                              st.sampled_from(["alloc", "alloc", "alloc", "start"]),
                              st.one_of(st.integers(0, 150), st.sampled_from([10, 20, 90]))),
                    max_size=60))
def test_allocate_fast_path_matches_reference(mode, rate, deferred, ops):
    # deferred tickets are started by id or forced at the hard limit; both
    # runtimes must agree on every byte, peak, ticket, pause and armed
    # crossing after each op.  Sizes of whole ticks (20 and 90 bytes) and
    # half ticks use up the slack exactly, where the crossing must move.
    ops = [(gap, op, value if op == "alloc" else value % 12 + 1) for gap, op, value in ops]
    assert (_allocation_run(ManagedRuntime, mode, ops, rate, deferred)
            == _allocation_run(_ReferenceAllocate, mode, ops, rate, deferred))
