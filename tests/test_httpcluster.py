from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import refmodel
from gcsim import default_config, run_scenario, scenarios
from gcsim.config import ScenarioConfig
from gcsim.httpcluster import REQ, Backend, LoadBalancer
from gcsim.runtime import (GIB, MIB, CollectorCostModel, GcMode, HeapModel,
                           ManagedRuntime, PauseEstimator)
from gcsim.simcore import NetworkModel, Simulation

RTT = 48


def make_cluster(n=3, mode=GcMode.BLADE, service_us=2_000, parallelism=16,
                 live=150 * MIB, trigger=300 * MIB, hard=GIB,
                 bytes_per_request=0, max_concurrent=1, overhead=8_761, seed=0, jitter=0):
    sim = Simulation(seed=seed, network=NetworkModel.from_rtt(RTT, jitter))
    ids = [f"b{i}" for i in range(n)]
    lb = LoadBalancer(sim, "lb", ids, max_concurrent=max_concurrent)
    backends = []
    for bid in ids:
        heap = HeapModel(live_bytes=live, trigger_bytes=trigger,
                         hard_limit_bytes=hard)
        rt = ManagedRuntime(sim, bid, heap,
                            CollectorCostModel(25_000, overhead), PauseEstimator(),
                            mode=mode)
        backends.append(Backend(sim, bid, lb, rt, service_us, parallelism,
                                bytes_per_request))
    return sim, lb, backends


# -- routing -------------------------------------------------------------------


def test_round_robin_cycles_evenly():
    sim, lb, _ = make_cluster()
    targets = [lb.route(i, 0) for i in range(6)]
    assert targets == ["b0", "b1", "b2", "b0", "b1", "b2"]


def test_round_robin_skips_unroutable_backend():
    sim, lb, _ = make_cluster()
    lb.ledger.granted.add("b1")  # draining
    targets = [lb.route(i, 0) for i in range(4)]
    assert targets == ["b0", "b2", "b0", "b2"]


def test_requests_queue_when_no_backend_available_and_drain_on_done():
    sim, lb, backends = make_cluster(n=3, max_concurrent=3)
    lb.ledger.granted.update({"b0", "b1", "b2"})
    assert [lb.route(i, 0) for i in range(4)] == [None] * 4
    assert len(lb.pending) == 4
    lb.deliver("b1", ("done",))
    sim.run_until(1_000)
    # queued requests drained to the returned backend in FIFO order
    assert len(lb.pending) == 0
    assert backends[1].in_service + len(backends[1].queue) == 4


# -- coordinator ----------------------------------------------------------------


def test_coordinator_grants_immediately_when_idle():
    sim, lb, _ = make_cluster()
    lb.deliver("b0", ("ask",))
    assert lb.ledger.granted == {"b0"}
    assert lb.route(1, 0) == "b1"  # b0 left the rotation


def test_coordinator_queues_second_asker_until_done():
    sim, lb, _ = make_cluster()
    lb.deliver("b0", ("ask",))
    lb.deliver("b1", ("ask",))
    assert lb.ledger.granted == {"b0"} and list(lb.ledger.pending) == ["b1"]
    lb.deliver("b0", ("done",))
    assert lb.ledger.granted == {"b1"}
    assert [lb.route(i, 0) for i in range(2)] == ["b0", "b2"]  # b1 is out


def test_simultaneous_asks_grant_in_arrival_order():
    sim, lb, _ = make_cluster()
    for b in ("b2", "b0", "b1"):
        lb.deliver(b, ("ask",))
    order = [next(iter(lb.ledger.granted))]
    for _ in range(2):
        lb.deliver(order[-1], ("done",))
        order.append(next(iter(lb.ledger.granted)))
    assert order == ["b2", "b0", "b1"]


def test_duplicate_ask_is_ignored():
    sim, lb, _ = make_cluster()
    lb.deliver("b0", ("ask",))
    lb.deliver("b0", ("ask",))
    lb.deliver("b1", ("ask",))
    lb.deliver("b1", ("ask",))
    assert lb.ledger.granted == {"b0"} and list(lb.ledger.pending) == ["b1"]


@settings(max_examples=200)
@given(st.integers(1, 4),
       st.lists(st.tuples(st.sampled_from(["ask", "done"]),
                          st.sampled_from(["b0", "b1", "b2", "b3"])), max_size=60))
def test_coordinator_never_exceeds_max_concurrent(max_concurrent, msgs):
    sim, lb, _ = make_cluster(n=4, max_concurrent=max_concurrent)
    for tag, backend in msgs:
        lb.deliver(backend, (tag,))
        assert lb.ledger.used <= max_concurrent
        # a granted backend is out of the rotation; parking needs all four out
        target = lb.route(0, 0)
        assert target not in lb.ledger.granted
        assert (target is None) == (lb.ledger.used == 4)


# -- drain-then-collect flow --------------------------------------------------------


def trigger_gc(backend, trigger=300 * MIB):
    backend.runtime.allocate(trigger)


def test_idle_backend_event_time_is_rtt_plus_gc_plus_notify():
    # ask+allow = 1 RTT, no trailers, pause, done flight = half RTT
    sim, lb, backends = make_cluster()
    b = backends[0]
    sim.schedule_at(1_000, lambda _: trigger_gc(b))
    sim.run_until(1_000_000)
    pause = b.runtime.pauses[0]
    assert pause.start_us == 1_000 + RTT
    done_at_lb = 1_000 + RTT + (pause.end_us - pause.start_us) + RTT // 2
    assert lb.ledger.granted == set()
    assert lb.route(1, sim.now) == "b0"  # back in the rotation
    # the balancer resumed routing exactly when the done notification landed
    assert sim.now >= done_at_lb


def test_draining_waits_for_outstanding_requests():
    sim, lb, backends = make_cluster(n=1, service_us=2_000)
    b = backends[0]
    # two requests in flight when the grant arrives
    sim.schedule_at(10, lambda _: lb.route(1, 10))
    sim.schedule_at(12, lambda _: lb.route(2, 12))
    sim.schedule_at(40, lambda _: trigger_gc(b))
    sim.run_until(1_000_000)
    pause = b.runtime.pauses[0]
    last_completion = max(s[2] for s in lb.samples) - RTT // 2
    assert pause.start_us == last_completion  # trailers finish, then the pause
    assert pause.start_us > 40 + RTT


def test_grant_deferred_behind_another_collector():
    sim, lb, backends = make_cluster()
    sim.schedule_at(100, lambda _: trigger_gc(backends[0]))
    sim.schedule_at(150, lambda _: trigger_gc(backends[1]))
    sim.run_until(1_000_000)
    p0 = backends[0].runtime.pauses[0]
    p1 = backends[1].runtime.pauses[0]
    # second backend drains only after the first finished and its grant arrived
    assert p1.start_us > p0.end_us
    assert backends[1].runtime.collection_count() == 1


def test_backend_statuses_walk_the_protocol():
    sim, lb, backends = make_cluster()
    b = backends[0]

    def state():
        # (deferred ticket, draining, paused, out of the rotation)
        return (getattr(b.runtime.active_ticket, "id", 0), b.grantee.grantor is not None,
                b.runtime.is_paused, "b0" in lb.ledger.granted)
    seen = [state()]

    def watch(_):
        if state() != seen[-1]:
            seen.append(state())
        if sim.now < 40_000:
            sim.schedule_after(2, watch)

    sim.schedule_at(0, watch)
    sim.schedule_at(100, lambda _: trigger_gc(b))
    sim.run_until(50_000)
    # serving, asking, granted at the balancer, collecting, done in flight,
    # serving; the backend is idle, so it drains within the grant event
    assert seen == [(0, False, False, False), (1, False, False, False),
                    (1, False, False, True), (0, False, True, True),
                    (0, False, False, True), (0, False, False, False)]


def test_draining_status_observable_with_requests_in_flight():
    sim, lb, backends = make_cluster(n=1, service_us=5_000)
    b = backends[0]
    sim.schedule_at(10, lambda _: lb.route(1, 10))
    sim.schedule_at(40, lambda _: trigger_gc(b))
    sim.run_until(200)  # grant landed at 88; request still has ~4.8 ms left
    assert b.grantee.grantor == "lb"  # granted and draining
    assert b.runtime.collection_count() == 0


def test_short_estimated_pause_collects_without_coordination():
    sim, lb, backends = make_cluster()
    b = backends[0]
    b.runtime.estimator.default_pause_us = 500  # below the 1 ms threshold
    sim.schedule_at(100, lambda _: trigger_gc(b))
    sim.run_until(100)
    assert b.runtime.collection_count() == 1  # paused on the spot
    assert lb.ledger.granted == set()


def test_conservation_requests_in_equals_completed_plus_queued():
    sim, lb, backends = make_cluster(mode=GcMode.ON, bytes_per_request=MIB,
                                     service_us=500)
    issued = 0
    for i in range(400):
        sim.schedule_at(i * 100, lambda _, rid=i: lb.on_request(rid))
        issued += 1
    sim.run_until(20_000)  # stop mid-flight on purpose
    in_network = issued - len(lb.samples)
    queued = sum(len(b.queue) + b.in_service for b in backends) + len(lb.pending)
    assert queued <= in_network  # the rest are on the wire
    sim.run_until(10_000_000)
    assert len(lb.samples) == issued


def test_forced_collection_mid_drain_still_notifies_coordinator():
    # allocation during the drain exhausts the heap; the forced collection
    # runs with a request in flight and the granted start becomes a no-op
    sim, lb, backends = make_cluster(n=1, live=100, trigger=200, hard=400,
                                     service_us=2_000, overhead=1_000)
    b = backends[0]
    sim.schedule_at(10, lambda _: lb.route(1, 10))          # drains until ~2034
    sim.schedule_at(20, lambda _: b.runtime.allocate(150))  # defers, asks
    sim.schedule_at(100, lambda _: b.runtime.allocate(200))  # exhaustion
    sim.run_until(1_000_000)
    assert sum(p.forced for p in b.runtime.pauses) == 1
    assert b.runtime.collection_count() == 1  # the granted start was a no-op
    assert lb.ledger.granted == set()             # done still sent
    assert lb.route(2, sim.now) == "b0"  # back in the rotation
    # the in-flight request was shifted right by the forced pause
    assert lb.samples[0][2] - lb.samples[0][1] == RTT + 2_000 + 1_000


def test_a_stale_grant_after_a_forced_collection_is_answered_at_once():
    # b0's ask waits behind b1's grant when exhaustion forces b0 to collect.
    # The ask stays queued, so the slot b1 frees is granted to b0 at 5,082 us;
    # b0 has nothing deferred, so it answers the allow with a done as it
    # arrives: no pause, and no drain of the request it is serving
    sim, lb, backends = make_cluster(n=2, max_concurrent=1, live=100, trigger=200,
                                     hard=400, overhead=5_000)
    b0, b1 = backends
    grants, dones = [], []
    grant, deliver = lb._grant, lb.deliver

    def spy_grant(backend):
        grants.append((sim.now, backend))
        grant(backend)

    def spy_deliver(src, msg):
        if msg[0] == "done":
            dones.append((sim.now, src, msg))
        deliver(src, msg)
    lb._grant = spy_grant
    sim.add_node("lb", spy_deliver)
    sim.schedule_at(10, lambda _: b1.runtime.allocate(150))  # asks first: granted
    sim.schedule_at(10, lambda _: b0.runtime.allocate(150))  # queued behind b1
    sim.schedule_at(30, lambda _: b0.runtime.allocate(200))  # exhaustion
    sim.schedule_at(5_060, lambda _: lb.route(0, 5_060))     # to b0: in service 5,084-7,084
    sim.run_until(1_000_000)
    assert [(p.start_us, p.end_us, p.forced) for p in b0.runtime.pauses] == [(30, 5_030, True)]
    assert [(p.start_us, p.end_us, p.forced) for p in b1.runtime.pauses] == [(58, 5_058, False)]
    assert grants == [(34, "b1"), (5_082, "b0")]
    assert dones == [(5_082, "b1", ("done",)), (5_130, "b0", ("done",))]
    assert lb.ledger.granted == set() and not lb.ledger.pending
    assert [(rid, completed - issued, server) for rid, issued, completed, server, _
            in lb.samples] == [(0, RTT + 2_000, "b0")]
    assert b0.runtime.active_ticket is None
    sent = sim.messages_sent
    b0.grantee.ask()  # nothing left to ask for
    assert sim.messages_sent == sent
    assert [lb.route(i, sim.now) for i in range(1, 3)] == ["b1", "b0"]


# -- routing against a loop reference ---------------------------------------------


def _loop_route(order, rr_pos, granted):
    """The backend one modulo loop over the rotation picks, and the new position."""
    n = len(order)
    for k in range(n):
        idx = (rr_pos + k) % n
        if order[idx] not in granted:
            return order[idx], (idx + 1) % n
    return None, rr_pos


@settings(max_examples=150)
@given(st.data())
def test_route_matches_loop_reference(data):
    # the same backend, rotation position, parked requests and hand-offs, for
    # any position and granted set, the empty set and the full one included
    n = data.draw(st.integers(1, 6))
    rr_pos = data.draw(st.integers(0, n - 1))
    grants = data.draw(st.lists(st.sets(st.sampled_from([f"b{i}" for i in range(n)])),
                                min_size=1, max_size=8))
    sim, lb, backends = make_cluster(n=n, max_concurrent=n)
    handed = []
    for b in backends:
        b._take = lambda rid, issued, at, bid=b.id: handed.append((bid, rid, issued, at))
    clock = Simulation(network=NetworkModel.from_rtt(RTT))  # the same arrival draws
    lb.rr_pos = rr_pos
    pos, want_handed, want_pending = rr_pos, [], []
    for rid, granted in enumerate(grants):
        lb.ledger.granted.clear()
        lb.ledger.granted.update(granted)
        want, pos = _loop_route(lb.order, pos, granted)
        if want is None:
            want_pending.append((rid, rid))
        else:
            want_handed.append((want, rid, rid, clock.arrival(0, REQ, rid)))
        assert (lb.route(rid, rid), lb.rr_pos) == (want, pos)
    assert handed == want_handed
    assert list(lb.pending) == want_pending
    assert sim.messages_sent == len(want_handed)


# -- the cluster against the reference model ----------------------------------------


def _small_run(gaps, cut, **overrides):
    """Three backends with a 100/200/400 B heap on ``gaps`` between arrivals,
    up to ``cut`` after the last one; returns the config, the arrivals, the
    deadline and the run."""
    cfg = default_config("http", nodes=3, rtt_us=48, seed=7, live_bytes=100,
                         trigger_bytes=200, hard_limit_bytes=400, duration_s=1, **overrides)
    stream, t = [], 0
    for rid, gap in enumerate(gaps, 1):
        t += gap
        stream.append((t, rid, "http"))
    deadline = t + cut
    with mock.patch.object(scenarios, "generate_workload", lambda _: iter(stream)), \
            mock.patch.object(ScenarioConfig, "duration_us", lambda _: deadline):
        return cfg, stream, deadline, run_scenario(cfg)


def _against_reference(mode, jitter, parallelism, service_us, bytes_per_request, overhead,
                       background, interval, max_concurrent, gaps, cut):
    cfg, stream, deadline, run = _small_run(
        gaps, cut, jitter_us=jitter, gc_mode=mode, pause_overhead_us=overhead,
        service_time_us=service_us, parallelism=parallelism,
        bytes_per_request=bytes_per_request, max_concurrent=max_concurrent,
        background_alloc_bytes_per_s=background, background_alloc_interval_us=interval)
    got = (list(run.samples), [(p.node, p.start_us, p.end_us, p.ticket_id, p.forced)
                               for p in run.pauses],
           run.stats.messages_sent, run.peak_allocated, run.issued)
    assert got == refmodel.run(cfg, stream, deadline)
    assert run.in_flight == run.issued - len(got[0])


@settings(max_examples=500, deadline=None)
@given(mode=st.sampled_from(["off", "blade", "on"]), jitter=st.integers(0, 8),
       parallelism=st.integers(1, 4), service_us=st.integers(1, 200),
       bytes_per_request=st.integers(0, 250), overhead=st.integers(0, 2_000),
       background=st.sampled_from([0, 0, 2_000_000, 9_000_000]),
       interval=st.integers(3, 60), max_concurrent=st.integers(1, 3),
       gaps=st.lists(st.integers(0, 20), min_size=1, max_size=80),
       cut=st.integers(0, 400))
# every start pauses a gc-on backend: the rest wait for the pause's end
@example(mode="on", jitter=0, parallelism=3, service_us=1, bytes_per_request=100,
         overhead=1, background=0, interval=10_000, max_concurrent=1, gaps=[0] * 10,
         cut=1_000)
# each backend forces a collection while its ask waits, b2's at 35 us; the
# grant the balancer sends b0 at 48 us admits the collection b0 has deferred
# since, which starts at 72 us
@example(mode="blade", jitter=0, parallelism=1, service_us=1, bytes_per_request=100,
         overhead=1, background=0, interval=3, max_concurrent=1,
         gaps=[0, 0, 0, 0, 0, 0, 0, 0, 11, 20, 20, 0, 2], cut=24)
# background ticks force every backend's collection at 46 us while the asks
# wait.  b0's allow, sent at 47 us, overtakes request 4, routed to b0 at
# 42 us: b0 drains at 73 us, before request 4 arrives at 74 us, which ends
# the scan of its drain time early
@example(mode="blade", jitter=8, parallelism=1, service_us=20, bytes_per_request=0,
         overhead=7, background=9_000_000, interval=23, max_concurrent=1,
         gaps=[18, 20, 1, 3], cut=32)
def test_cluster_matches_reference_model(mode, jitter, parallelism, service_us,
                                         bytes_per_request, overhead, background, interval,
                                         max_concurrent, gaps, cut):
    # the rows in order, the pauses, the messages sent, each backend's peak
    # heap and the requests issued; the deadline falls anywhere from the
    # last arrival on, so it cuts requests queued, in service and on the wire
    _against_reference(mode, jitter, parallelism, service_us, bytes_per_request, overhead,
                       background, interval, max_concurrent, gaps, cut)


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(["off", "blade", "on"]), jitter=st.integers(0, 8),
       parallelism=st.integers(1, 4), service_us=st.integers(1, 200),
       bytes_per_request=st.integers(20, 250), overhead=st.integers(1, 2_000),
       gaps=st.lists(st.integers(0, 20), min_size=1, max_size=80),
       cut=st.integers(0, 400))
# a request started as a reply is sent asks for a collection
@example(mode="blade", jitter=1, parallelism=1, service_us=1, bytes_per_request=50,
         overhead=1, gaps=[0, 0, 0, 0], cut=49)
# a reply overtakes an older one, and two land at the deadline's instant
@example(mode="off", jitter=1, parallelism=1, service_us=1, bytes_per_request=20,
         overhead=1, gaps=[0, 0, 0, 0], cut=49)
def test_stamped_replies_match_delivered_replies(mode, jitter, parallelism, service_us,
                                                  bytes_per_request, overhead, gaps, cut):
    # replies stamped with their arrival as the backend accounts them give the
    # same rows in the same order, pauses and message count as the reference
    # model, which delivers each reply as an event; the deadline often cuts
    # replies on the wire.  No background allocation, one collector at a time
    _against_reference(mode, jitter, parallelism, service_us, bytes_per_request, overhead,
                       0, 10_000, 1, gaps, cut)


def test_no_two_granted_pauses_overlap_after_forced_collections():
    # each backend forces a collection at 25 us while its ask waits; the asks
    # stay queued, so each stale grant holds the only slot until its done
    # frees it, and no granted collection overlaps another
    _, _, _, run = _small_run([0] * 9, 74, gc_mode="blade", parallelism=1,
                              service_time_us=1, bytes_per_request=150,
                              pause_overhead_us=1, max_concurrent=1)
    assert sum(p.forced for p in run.pauses) == 3
    granted = sorted((p.start_us, p.end_us) for p in run.pauses if not p.forced)
    assert all(end <= nxt for (_, end), (nxt, _) in zip(granted, granted[1:]))


def test_a_backend_starts_no_request_while_paused():
    # gc-on, and each request crosses the trigger: ten requests at once, three
    # slots per backend.  A start that pauses the runtime holds the queued
    # requests back until the pause is over, so no pause begins inside an
    # earlier one, and a pause never shifts a completion twice
    sim, lb, backends = make_cluster(mode=GcMode.ON, service_us=1, parallelism=3,
                                     live=100, trigger=200, hard=400,
                                     bytes_per_request=100, overhead=1, seed=7)
    for rid in range(10):
        sim.schedule_at(0, lambda _, rid=rid: lb.on_request(rid))
    sim.run_until(1_000)
    lb.samples.keep_arrived(1_000)
    rows = list(lb.samples)
    pauses = [p for b in backends for p in b.runtime.pauses]
    assert len(rows) == 10
    for node in ("b0", "b1", "b2"):
        mine = [(p.start_us, p.end_us) for p in pauses if p.node == node]
        assert all(end <= nxt for (_, end), (nxt, _) in zip(mine, mine[1:]))
        # each backend serves its requests in rid order, so completions in
        # rid order must not go back in time
        done = [completed for rid, _, completed, server, _ in sorted(rows) if server == node]
        assert done == sorted(done)


def test_a_reply_on_the_wire_at_the_deadline_is_in_flight():
    # one request a millisecond; the one issued at 998 ms completes at
    # 999,994 us and its reply lands at 1,000,018 us, after the 1 s deadline
    cfg = default_config("http", nodes=1, rate_rps=1_000, duration_s=1,
                         service_time_us=1_970, bytes_per_request=0)
    run = run_scenario(cfg, mode="off")
    assert run.issued == 1_000
    assert run.samples[len(run.samples) - 1][:3] == (997, 997_000, 999_018)
    assert 998 not in run.samples.rid
    assert run.in_flight == 3  # the reply on the wire and two in service


def test_keep_arrived_mid_run_loses_no_reply():
    # mid-run the log holds the reply sent at 4,024 us, which lands at
    # 4,048 us; keep_arrived sets it aside, twice over, and the next reply
    # puts it back
    sim, lb, _ = make_cluster(mode=GcMode.OFF)
    for i in range(50):
        sim.schedule_at(i * 100, lambda _, rid=i: lb.on_request(rid))
    sim.run_until(4_030)
    rows = list(lb.samples)
    assert len(rows) == 21 and rows[20][2] == 4_048
    lb.samples.keep_arrived(sim.now)
    lb.samples.keep_arrived(sim.now)
    assert list(lb.samples) == rows[:20]
    sim.run_until(1_000_000)
    lb.samples.keep_arrived(sim.now)
    assert list(lb.samples)[:21] == rows
    assert list(lb.samples.rid) == list(range(50))


@pytest.mark.parametrize("built", [["b1"], ["b0", "b0"], ["b0", "b1", "b2"]],
                         ids=["second_first", "first_twice", "one_too_many"])
def test_a_backend_out_of_rotation_order_is_refused(built):
    # each backend takes the next place of its balancer's rotation, as built
    sim = Simulation(network=NetworkModel.from_rtt(RTT))
    lb = LoadBalancer(sim, "lb", ["b0", "b1"])

    def build(bid):
        rt = ManagedRuntime(sim, bid, HeapModel(100, 200, 400),
                            CollectorCostModel(25_000, 1_000), PauseEstimator(),
                            mode=GcMode.OFF)
        return Backend(sim, bid, lb, rt, 2_000, 16, 0)
    for bid in built[:-1]:
        build(bid)
    with pytest.raises(ValueError, match="not next in the rotation"):
        build(built[-1])
    assert [b.id for b in lb._backends] == built[:-1]
