import heapq
import itertools
from collections import Counter, deque
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from gcsim.scenarios import _WorkloadDriver
from gcsim.simcore import LINK, NetworkModel, SchedulingError, Simulation, node_ident
from refmodel import jitter, link_code


def make_recorder(sim, log, name):
    def record(arg=None):
        log.append((name, sim.now, arg))
    return record


def test_schedule_at_current_time_fires_first():
    sim = Simulation()
    log = []
    sim.schedule_at(0, make_recorder(sim, log, "a"))
    sim.schedule_at(5, make_recorder(sim, log, "b"))
    sim.run_until(10)
    assert [(n, t) for n, t, _ in log] == [("a", 0), ("b", 5)]


def test_same_fire_time_ties_break_by_insertion_order():
    sim = Simulation()
    log = []
    for name in "abc":
        sim.schedule_at(7, make_recorder(sim, log, name))
    sim.run_until(7)
    assert [n for n, _, _ in log] == ["a", "b", "c"]


def test_events_fire_in_time_order_regardless_of_insertion():
    # oracle: stable sort of the schedule plan by (fire_at, insertion order)
    plan = [(10, "x"), (5, "y"), (10, "z"), (3, "w"), (5, "v")]
    sim = Simulation()
    log = []
    for t, name in plan:
        sim.schedule_at(t, make_recorder(sim, log, name))
    sim.run_until(100)
    expected = [name for _, name in sorted(plan, key=lambda p: p[0])]
    assert [n for n, _, _ in log] == expected


def test_scheduling_in_the_past_is_rejected():
    sim = Simulation()
    sim.schedule_at(10, lambda _: None)
    sim.run_until(10)
    with pytest.raises(SchedulingError):
        sim.schedule_at(5, lambda _: None)


def test_run_until_empty_queue_advances_clock():
    sim = Simulation()
    stats = sim.run_until(100)
    assert sim.now == 100
    assert stats.events_fired == 0


def test_event_beyond_deadline_stays_queued():
    sim = Simulation()
    log = []
    sim.schedule_at(50, make_recorder(sim, log, "late"))
    sim.run_until(10)
    assert log == []
    sim.run_until(50)
    assert [n for n, _, _ in log] == ["late"]


def test_cancelled_event_does_not_fire():
    sim = Simulation()
    log = []
    handle = sim.schedule_at(5, make_recorder(sim, log, "gone"))
    sim.cancel(handle)
    sim.run_until(10)
    assert log == []


def test_send_delivers_after_half_rtt():
    # 48 us round trip means one-way delivery takes 24 us
    sim = Simulation(network=NetworkModel.from_rtt(48))
    seen = []
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: seen.append((sim.now, src, msg)))
    sim.schedule_at(0, lambda _: sim.send("a", "b", "ping"))
    sim.run_until(1000)
    assert seen == [(24, "a", "ping")]


def test_zero_rtt_delivers_same_tick_after_current_event():
    sim = Simulation(network=NetworkModel.from_rtt(0))
    log = []
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: log.append("delivered"))

    def sender(_):
        sim.send("a", "b", "x")
        log.append("sender done")

    sim.schedule_at(3, sender)
    sim.run_until(3)
    assert log == ["sender done", "delivered"]


def test_request_reply_takes_one_rtt():
    sim = Simulation(network=NetworkModel.from_rtt(48))
    done = []
    sim.add_node("client", lambda src, msg: done.append(sim.now))
    sim.add_node("server", lambda src, msg: sim.send("server", src, "reply"))
    sim.schedule_at(0, lambda _: sim.send("client", "server", "request"))
    sim.run_until(1000)
    assert done == [48]


def test_send_at_departs_later_through_the_heap():
    sim = Simulation(network=NetworkModel(one_way_delay_us=5))
    log = []
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: log.append((sim.now, msg)))
    sim.send_at("a", "b", "late", 20)
    sim.schedule_at(10, lambda _: sim.send("a", "b", "early"))
    assert sim._lane == deque()
    sim.run_until(100)
    assert log == [(15, "early"), (25, "late")]
    assert sim.messages_sent == 2
    with pytest.raises(SchedulingError):
        sim.send_at("a", "b", "past", 99)


@pytest.mark.parametrize("delay", [0, 5])
def test_recall_queues_an_action_at_the_departures_place(delay):
    sim = Simulation(network=NetworkModel(one_way_delay_us=delay))
    log = []
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: log.append(("delivered", sim.now, msg)))
    sim.schedule_at(20, make_recorder(sim, log, "before"))
    handle = sim.send_at("a", "b", "m", 20)
    sim.schedule_at(20, make_recorder(sim, log, "after"))
    sim.schedule_at(10, lambda _: sim.recall(handle, 20, make_recorder(sim, log, "held"), "m"))
    sim.run_until(100)
    assert log == [("before", 20, None), ("held", 20, "m"), ("after", 20, None)]
    assert sim.messages_sent == 0


def test_ahead_compares_a_place_with_the_firing_event():
    sim = Simulation()
    seen = []
    first = sim.schedule_at(10, lambda _: None)
    sim.schedule_at(10, lambda _: seen.append(
        [sim.ahead(10, first[1]), sim.ahead(10, last[1]), sim.ahead(11, 0), sim.ahead(9, 99)]))
    last = sim.schedule_at(10, lambda _: None)
    sim.run_until(10)
    assert seen == [[False, True, True, False]]
    assert not sim.ahead(10, last[1])  # between runs, all that was due has fired


def test_send_to_unknown_node_raises():
    sim = Simulation()
    sim.add_node("a", lambda src, msg: None)
    sim.schedule_at(0, lambda _: sim.send("a", "ghost", "x"))
    with pytest.raises(SchedulingError):
        sim.run_until(1)


def test_send_from_unknown_node_raises():
    sim = Simulation()
    sim.add_node("a", lambda src, msg: None)
    with pytest.raises(SchedulingError, match="unknown node id 'ghost'"):
        sim.send("ghost", "a", "x")


def test_jitter_is_bounded_and_seed_deterministic():
    delays = set()
    for _ in range(3):
        sim = Simulation(seed=7, network=NetworkModel.from_rtt(48, jitter_us=10))
        seen = []
        sim.add_node("a", lambda src, msg: None)
        sim.add_node("b", lambda src, msg: seen.append(sim.now))
        for i in range(20):
            sim.schedule_at(i * 100, lambda _: sim.send("a", "b", "m"))
        sim.run_until(10_000)
        offsets = tuple(t - i * 100 for i, t in enumerate(seen))
        assert all(24 <= d <= 34 for d in offsets)
        delays.add(offsets)
    assert len(delays) == 1  # same seed, same jitter draws


def test_keyed_jitter_depends_on_the_message_not_on_send_order():
    # the same messages stamped in opposite orders arrive at the same times,
    # each within the jitter bound
    def stamp_all(keys):
        sim = Simulation(seed=7, network=NetworkModel.from_rtt(48, jitter_us=10))
        arrivals = {key: sim.arrival(100, *key) for key in keys}
        assert sim.messages_sent == len(keys)
        return arrivals

    keys = [(kind, ident, count) for kind in (1, 2) for ident in range(20) for count in (0, 1)]
    arrivals = stamp_all(keys)
    assert arrivals == stamp_all(keys[::-1])
    assert all(124 <= t <= 134 for t in arrivals.values())
    assert len(set(arrivals.values())) > 1
    other_seed = Simulation(seed=8, network=NetworkModel.from_rtt(48, jitter_us=10))
    assert arrivals != {key: other_seed.arrival(100, *key) for key in keys}



@pytest.mark.parametrize("jitter_us", [0, 5])
def test_arrivals_match_arrival_item_by_item(jitter_us):
    # the batch form draws each message as arrival does, and counts each
    def sim():
        return Simulation(seed=11, network=NetworkModel.from_rtt(48, jitter_us=jitter_us))

    sent_at, idents = [0, 0, 7, 30, 30, 2**32], [5, 1, 2**63, 9, 10, 3]
    single, batch = sim(), sim()
    want = [single.arrival(t, 2, ident) for t, ident in zip(sent_at, idents)]
    got = batch.arrivals(sent_at, 2, idents)
    assert got == want and type(got) is list
    assert batch.messages_sent == single.messages_sent == len(idents)
    assert batch.arrivals([], 2, []) == [] and batch.messages_sent == len(idents)
    assert (len(set(t - s for t, s in zip(got, sent_at))) > 1) == (jitter_us > 0)

def test_node_ident_keeps_every_byte_of_a_long_id():
    # two ids longer than 8 bytes that share their last 8 bytes draw apart
    a, b = node_ident("dc1-backend0"), node_ident("dc2-backend0")
    assert a != b and max(a, b) < 2**64
    assert node_ident("b0") == int.from_bytes(b"b0", "big")
    sim = Simulation(seed=1, network=NetworkModel.from_rtt(48, jitter_us=1_000_000))
    draws = [[sim.arrival(0, 3, ident, count) for count in range(4)] for ident in (a, b)]
    assert draws[0] != draws[1]


@given(st.integers(0, 2**64 + 5), st.integers(1, 2**20))
def test_cached_draws_match_the_reference_jitter(seed, bound):
    # the draw caches its seed-, kind- and link-only rounds; every value stays
    sim = Simulation(seed=seed, network=NetworkModel(24, jitter_us=bound))
    for node in ("a", "b", "dc1-backend0"):
        sim.add_node(node, lambda src, msg: None)
    links = [("a", "b"), ("b", "a"), ("dc1-backend0", "a")]
    for count in range(3):
        for src, dst in links:
            assert sim.send(src, dst, None)[0] == 24 + jitter(
                seed, bound, LINK, link_code(src, dst), count)
        for kind in (1, 2, 7):
            for ident in (0, count + 1, 2**63):
                assert sim.arrival(100, kind, ident, count) == 124 + jitter(
                    seed, bound, kind, ident, count)


def _link_draws(sim, links, n=6):
    """Arrival times of ``n`` messages sent now on each of ``links``."""
    return {link: [sim.send(*link, None)[0] for _ in range(n)] for link in links}


def test_each_direction_and_each_long_id_draws_its_own_jitter():
    sim = Simulation(seed=1, network=NetworkModel.from_rtt(48, jitter_us=1_000_000))
    for node in ("a", "b", "x", "dc1-backend0", "dc2-backend0"):
        sim.add_node(node, lambda src, msg: None)
    draws = _link_draws(sim, [("a", "b"), ("b", "a"), ("dc1-backend0", "x"),
                              ("dc2-backend0", "x")])
    assert draws[("a", "b")] != draws[("b", "a")]
    assert draws[("dc1-backend0", "x")] != draws[("dc2-backend0", "x")]
    assert sim.messages_sent == 24


@given(st.permutations([link for link in itertools.permutations("abc", 2) for _ in range(4)]))
def test_a_links_arrivals_do_not_depend_on_other_links(order):
    # sending on other links in between moves no draw of a link
    def arrivals(links):
        sim = Simulation(seed=3, network=NetworkModel.from_rtt(48, jitter_us=10))
        for node in "abc":
            sim.add_node(node, lambda src, msg: None)
        got = {}
        for link in links:
            got.setdefault(link, []).append(sim.send(*link, None)[0])
        return got

    assert arrivals(order) == arrivals(sorted(order))


def test_a_replaced_sink_keeps_its_links_identities():
    # at a jitter this large, a reused identity would show as a repeated arrival
    sim = Simulation(seed=2, network=NetworkModel.from_rtt(48, jitter_us=2**60))
    seen = []
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: seen.append(("old", msg)))
    arrivals = [sim.send("a", "b", i)[0] for i in range(5)]
    sim.add_node("b", lambda src, msg: seen.append(("new", msg)))
    arrivals += [sim.send("a", "b", i)[0] for i in range(5, 10)]
    assert len(set(arrivals)) == 10
    sim.run_until(max(arrivals))
    assert sorted(seen, key=lambda row: row[1]) == [("old", i) for i in range(5)] + [
        ("new", i) for i in range(5, 10)]


def test_every_jitter_offset_occurs():
    sim = Simulation(seed=4, network=NetworkModel.from_rtt(48, jitter_us=10))
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: None)
    offsets = Counter(t - 24 for t in _link_draws(sim, [("a", "b")], 500)[("a", "b")])
    assert sorted(offsets) == list(range(11))


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_fired_order_matches_sort_oracle(times):
    sim = Simulation()
    log = []
    for i, t in enumerate(times):
        sim.schedule_at(t, make_recorder(sim, log, i))
    sim.run_until(2000)
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert [n for n, _, _ in log] == expected
    assert [t for _, t, _ in log] == sorted(times)


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)),
                min_size=1, max_size=30))
def test_causality_chained_events_never_fire_earlier(chains):
    # each fired event schedules a follow-up; the follow-up can never fire
    # before its scheduler did
    sim = Simulation()
    firings = []

    def chain(delay):
        def action(_):
            firings.append(sim.now)
            sim.schedule_at(sim.now + delay, lambda _: firings.append(sim.now))
        return action

    for start, delay in chains:
        sim.schedule_at(start, chain(delay))
    sim.run_until(10_000)
    assert firings == sorted(firings)


def test_identical_runs_produce_identical_traces():
    def run():
        sim = Simulation(seed=3, network=NetworkModel.from_rtt(48, jitter_us=5))
        log = []
        sim.add_node("a", lambda src, msg: log.append((sim.now, src, msg)))
        sim.add_node("b", lambda src, msg: (log.append((sim.now, src, msg)),
                                            sim.send("b", "a", "pong")))
        for i in range(50):
            sim.schedule_at(i * 10, lambda _: sim.send("a", "b", "ping"))
        sim.run_until(5_000)
        return log

    assert run() == run()


class HeapOnlySimulation(Simulation):
    """Reference scheduler: every event goes on the heap, fired by a heap-only
    loop, and none fires in place; the jitter is ``refmodel``'s draw for a
    message's place on its link."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent_on = Counter()

    def send(self, src, dst, msg):
        count = self.sent_on[src, dst]
        self.sent_on[src, dst] += 1
        delay = self.network.one_way_delay_us + jitter(
            self.seed, self.network.jitter_us, LINK, link_code(src, dst), count)
        self.messages_sent += 1
        self._seq += 1
        entry = [self.now + delay, self._seq, partial(self._nodes[dst], src), msg]
        heapq.heappush(self._heap, entry)
        return entry

    def fire_run_in_place(self, times, lo, hi):
        return 0  # every event is scheduled

    def run_until(self, deadline):
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            entry = heapq.heappop(heap)
            action = entry[2]
            if action is None:
                continue
            self.now, self.firing_seq = entry[0], entry[1]
            self.events_fired += 1
            action(entry[3])
        self.now = deadline
        self.firing_seq = self._seq


_nodes = st.sampled_from("abc")
# Few distinct delays, so timers and deliveries often fall due on one tick.
_delays = st.sampled_from([0, 1, 5, 24, 30])
_ops = st.one_of(
    st.tuples(st.just("send"), _nodes, _nodes),
    st.tuples(st.just("at"), _delays),
    st.tuples(st.just("after0")),
    st.tuples(st.just("cancel"), st.integers(0, 100)),
    st.tuples(st.just("jitter"), st.sampled_from([0, 0, 7])),
    st.tuples(st.just("delay"), _delays),
)
# A step either runs to a later deadline or applies an op whose event, when
# it fires, applies the listed ops from inside its handler.
_steps = st.lists(st.one_of(st.tuples(st.just("run"), st.integers(0, 80)),
                            st.tuples(_ops, st.lists(_ops, max_size=3))),
                  max_size=40)


def replay(sim, steps, arrivals=()):
    """Apply ``steps`` to ``sim``; ``arrivals`` is a workload of ``(gap,
    ops)`` pairs, fed by a ``_WorkloadDriver``, whose dispatch applies the
    listed ``(op, then)`` steps.  Its ``run`` entry, like the balancer's
    ``route_run``, fires in place a run of the arrivals whose dispatch
    changes nothing that the others observe: those with no steps."""
    fired, handles, reactions = [], [], {}
    labels = itertools.count()

    def fire(label):
        fired.append((sim.now, label))
        for op in reactions.pop(label, ()):
            apply(op, ())

    def apply(op, then):
        label = next(labels)
        reactions[label] = then
        if op[0] == "send":
            handles.append(sim.send(op[1], op[2], label))
        elif op[0] == "at":
            handles.append(sim.schedule_at(sim.now + op[1], fire, label))
        elif op[0] == "after0":
            handles.append(sim.schedule_at(sim.now, fire, label))
        elif op[0] == "cancel" and handles:
            sim.cancel(handles[op[1] % len(handles)])
        elif op[0] == "jitter":
            sim.network.jitter_us = op[1]
        elif op[0] == "delay":
            sim.network.one_way_delay_us = op[1]

    def dispatch(rid):
        fired.append((sim.now, "arrival", rid))
        for step in arrivals[rid - 1][1]:
            apply(*step)

    def run(times, lo, hi):
        end = lo
        while end < hi and not arrivals[end][1]:
            end += 1
        k = sim.fire_run_in_place(times, lo, end)
        fired.extend((times[i], "arrival", i + 1) for i in range(lo, lo + k))
        return k

    for node in "abc":
        sim.add_node(node, lambda src, msg: fire(msg))
    times = list(itertools.accumulate(gap for gap, _ in arrivals))
    _WorkloadDriver(sim, SimpleNamespace(times=times), dispatch, run)
    for step in steps:
        if step[0] == "run":
            sim.run_until(sim.now + step[1])
            fired.append((sim.now, "deadline"))
        else:
            apply(*step)
    sim.run_until(sim.now + 1_000)  # everything still queued is due by then
    return fired, sim.now, sim._seq, sim.firing_seq, sim.events_fired, sim.messages_sent


@given(_steps)
@example([(("jitter", 7), [])] + [(("send", "a", "b"), []), (("send", "b", "a"), [])] * 4
         + [("run", 80)])  # jittered sends both ways on one pair of nodes
def test_fired_order_matches_heap_only_reference(steps):
    got = replay(Simulation(seed=5, network=NetworkModel(24)), steps)
    want = replay(HeapOnlySimulation(seed=5, network=NetworkModel(24)), steps)
    assert got == want
    # an event due after a deadline fires in a later run, never before it
    times = [t for t, _ in got[0]]
    assert times == sorted(times)


# Arrival gaps and the steps each arrival's dispatch applies: few distinct
# gaps, so arrivals often fall due with a timer or a delivery on one tick.
_arrivals = st.lists(st.tuples(st.sampled_from([0, 0, 1, 5, 24, 30]),
                               st.lists(st.tuples(_ops, st.lists(_ops, max_size=2)),
                                        max_size=3)),
                     max_size=30)


@given(_steps, _arrivals)
# Arrivals at 0, 1, 6, 12, 24, 29 and 53 over runs to 10, 40 and 1040: the
# one at 6 ties a timer, the one at 12 falls past the first deadline, and the
# one at 24 ties a delivery.
@example([("run", 10), ("run", 30)],
         [(0, [(("send", "a", "b"), [])]), (1, [(("at", 5), [])]), (5, []), (6, []),
          (12, []), (5, [(("jitter", 7), []), (("send", "b", "a"), [])]), (24, [])])
# Arrivals at 0, at 1 to 6 and two at 24, all but the first with no steps:
# the run after the first is cut by the deadline at 3, and the arrival at 24
# waits behind the delivery due then, which the first one sends.
@example([("run", 3), ("run", 30)],
         [(0, [(("send", "a", "b"), [])])] + [(1, [])] * 6 + [(18, []), (0, [])])
def test_arrival_runs_fired_in_place_match_always_scheduled(steps, arrivals):
    got = replay(Simulation(seed=5, network=NetworkModel(24)), steps, arrivals)
    want = replay(HeapOnlySimulation(seed=5, network=NetworkModel(24)), steps, arrivals)
    assert got == want
    assert [row[2] for row in got[0] if row[1] == "arrival"] == list(range(1, len(arrivals) + 1))
    times = [row[0] for row in got[0]]
    assert times == sorted(times)


def _fire_run_probe(sim, start, first, gaps, lo, span, heap_at, lane_at, cut, between):
    """Ask at ``start`` to fire a run of arrivals in place, with timers queued
    at ``heap_at`` and deliveries due at ``lane_at``, then schedule the
    arrivals not taken that are not before the clock.  Return the run, the
    engine's state before and after the ask, the log of every event fired
    after it, and the engine's state at the end."""
    log = []

    def record(_=None):
        log.append(("other", sim.now, sim.firing_seq))

    def arrive(_):
        log.append(("arrival", sim.now, sim.firing_seq))

    sim.add_node("a", lambda src, msg: record())
    times = list(itertools.accumulate([start + first] + gaps))
    lo = min(lo, len(times))
    hi = min(len(times), lo + span)
    for at in sorted(lane_at):  # sent at 0, so the lane holds them in order
        sim.network.one_way_delay_us = at
        sim.send("a", "a", None)
    for at in heap_at:
        sim.schedule_at(at, record)
    asked = []

    def probe(_=None):
        state = (sim.now, sim._seq, sim.firing_seq, sim.events_fired)
        k = sim.fire_run_in_place(times, lo, hi)
        asked.extend([state, (k, sim.now, sim._seq, sim.firing_seq, sim.events_fired)])
        log.clear()
        for at in times[lo + k:hi]:
            if at >= sim.now:
                sim.schedule_at(at, arrive)

    deadline = start + cut
    if between:  # the clock is past the deadline of the run that ended
        sim.run_until(deadline)
        probe()
    else:
        sim.schedule_at(start, probe)
        sim.run_until(deadline)
    log.append(("deadline",))
    sim.run_until(deadline + 100)
    return times[lo:hi], asked, log, (sim.now, sim._seq, sim.firing_seq, sim.events_fired)


@given(start=st.integers(0, 20), first=st.integers(-2, 5),
       gaps=st.lists(st.integers(0, 3), max_size=12), lo=st.integers(0, 13),
       span=st.integers(0, 13), heap_at=st.lists(st.integers(0, 40), max_size=4),
       lane_at=st.lists(st.integers(0, 40), max_size=4), cut=st.integers(0, 30),
       between=st.booleans())
# timers before the run, at its third arrival and after it: the run stops
# before the arrival at the timer's instant, which must fire after it
@example(start=5, first=0, gaps=[1, 1, 1, 1], lo=0, span=5, heap_at=[2, 7, 30],
         lane_at=[], cut=20, between=False)
# a delivery due before the first arrival, and one due with it: nothing fires
@example(start=5, first=1, gaps=[1, 1], lo=0, span=3, heap_at=[], lane_at=[6, 3],
         cut=20, between=False)
# a lane head after the run, and a deadline that cuts it after two arrivals
@example(start=5, first=0, gaps=[1, 1, 1, 1], lo=1, span=4, heap_at=[], lane_at=[25],
         cut=2, between=False)
# an arrival before the clock is refused, and the run with it
@example(start=5, first=-2, gaps=[3, 1], lo=0, span=3, heap_at=[], lane_at=[],
         cut=20, between=False)
# between runs the clock is past every deadline: nothing fires in place
@example(start=5, first=0, gaps=[1, 1], lo=0, span=3, heap_at=[], lane_at=[],
         cut=0, between=True)
def test_fire_run_in_place_matches_scheduling_every_arrival(start, first, gaps, lo, span,
                                                            heap_at, lane_at, cut, between):
    args = (start, first, gaps, lo, span, heap_at, lane_at, cut, between)
    run, (before, after), log, end = _fire_run_probe(
        Simulation(network=NetworkModel(0)), *args)
    _, (want_before, _), want_log, want_end = _fire_run_probe(
        HeapOnlySimulation(network=NetworkModel(0)), *args)
    # The reference schedules every arrival.  The ask takes those that it
    # fires first, one after another, before anything else and by the
    # deadline; none between runs, or if the run starts before the clock.
    now, seq, firing_seq, _ = want_before
    taken = list(itertools.takewhile(lambda row: row[0] == "arrival", want_log))
    if between or run and run[0] < now:
        taken = []
    k = len(taken)
    if k:
        now, firing_seq = taken[-1][1:]
    assert before[:3] == want_before[:3]
    assert after == (k, now, seq + k, firing_seq, before[3] + k)
    # the arrivals not taken, and every other event, fire as in the reference
    assert log == want_log[k:]
    assert end == want_end
