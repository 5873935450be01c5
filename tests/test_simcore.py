import heapq
import itertools
from collections import Counter
from functools import partial

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
    with pytest.raises(SchedulingError):
        sim.schedule_after(-1, lambda _: None)


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


def test_send_to_unknown_node_raises():
    sim = Simulation()
    sim.add_node("a", lambda src, msg: None)
    sim.schedule_at(0, lambda _: sim.send("a", "ghost", "x"))
    with pytest.raises(SchedulingError):
        sim.run_until(1)


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
            sim.schedule_after(delay, lambda _: firings.append(sim.now))
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

    def fire_in_place(self, fire_at):
        return False  # every event is scheduled

    def run_until(self, deadline):
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            entry = heapq.heappop(heap)
            action = entry[2]
            if action is None:
                continue
            self.now = entry[0]
            self.events_fired += 1
            action(entry[3])
        self.now = deadline


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
    listed ``(op, then)`` steps."""
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
            handles.append(sim.schedule_after(0, fire, label))
        elif op[0] == "cancel" and handles:
            sim.cancel(handles[op[1] % len(handles)])
        elif op[0] == "jitter":
            sim.network.jitter_us = op[1]
        elif op[0] == "delay":
            sim.network.one_way_delay_us = op[1]

    def dispatch(rid, kind):
        fired.append((sim.now, "arrival", rid))
        for step in arrivals[rid][1]:
            apply(*step)

    for node in "abc":
        sim.add_node(node, lambda src, msg: fire(msg))
    times = itertools.accumulate(gap for gap, _ in arrivals)
    _WorkloadDriver(sim, ((t, rid, "http") for rid, t in enumerate(times)), dispatch)
    for step in steps:
        if step[0] == "run":
            sim.run_until(sim.now + step[1])
            fired.append((sim.now, "deadline"))
        else:
            apply(*step)
    sim.run_until(sim.now + 1_000)  # everything still queued is due by then
    return fired, sim.now, sim._seq, sim.events_fired, sim.messages_sent


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
def test_arrivals_fired_in_place_match_always_scheduled(steps, arrivals):
    got = replay(Simulation(seed=5, network=NetworkModel(24)), steps, arrivals)
    want = replay(HeapOnlySimulation(seed=5, network=NetworkModel(24)), steps, arrivals)
    assert got == want
    assert [row[2] for row in got[0] if row[1] == "arrival"] == list(range(len(arrivals)))
    times = [row[0] for row in got[0]]
    assert times == sorted(times)
