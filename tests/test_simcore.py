import pytest
from hypothesis import given, strategies as st

from gcsim.simcore import NetworkModel, SchedulingError, Simulation


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
        sim = Simulation(seed=3, network=NetworkModel.from_rtt(48, jitter_us=5),
                         record_trace=True)
        sim.add_node("a", lambda src, msg: None)
        sim.add_node("b", lambda src, msg: sim.send("b", "a", "pong"))
        for i in range(50):
            sim.schedule_at(i * 10, lambda _: sim.send("a", "b", "ping"))
        sim.run_until(5_000)
        return sim.trace

    assert run() == run()
