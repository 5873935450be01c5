import pathlib
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import refmodel
from gcsim import default_config, run_scenario, scenarios
from gcsim.config import ScenarioConfig, parse_config
from gcsim.httpcluster import _BATCH, REQ, Backend, LoadBalancer
from gcsim.runtime import GIB, MIB, CollectorCostModel, GcMode, HeapModel, ManagedRuntime
from gcsim.simcore import NetworkModel, SchedulingError, Simulation

RTT = 48
ROOT = pathlib.Path(__file__).resolve().parents[1]


def make_cluster(n=3, mode=GcMode.BLADE, service_us=2_000, parallelism=16,
                 live=150 * MIB, trigger=300 * MIB, hard=GIB,
                 bytes_per_request=0, max_concurrent=1, overhead=8_761, seed=0, jitter=0,
                 times=()):
    """A cluster whose balancer records requests 1, 2, ... as issued at ``times``."""
    sim = Simulation(seed=seed, network=NetworkModel.from_rtt(RTT, jitter))
    ids = [f"b{i}" for i in range(n)]
    lb = LoadBalancer(sim, "lb", ids, max_concurrent=max_concurrent, times=times)
    backends = []
    for bid in ids:
        heap = HeapModel(live_bytes=live, trigger_bytes=trigger,
                         hard_limit_bytes=hard)
        rt = ManagedRuntime(sim, bid, heap, CollectorCostModel(25_000, overhead), mode=mode)
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
        assert not (lb.pending and lb.ledger.pending)
        # a granted backend is out of the rotation; parking needs all four out
        target = lb.route(0, 0)
        assert target not in lb.ledger.granted
        assert (target is None) == (lb.ledger.used == 4)
        # so a request parks only while no ask can be queued
        assert not (lb.pending and lb.ledger.pending)


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
    sim, lb, backends = make_cluster(n=1, service_us=2_000, times=[10, 12])
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
            sim.schedule_at(sim.now + 2, watch)

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


def test_conservation_requests_in_equals_completed_plus_queued():
    sim, lb, backends = make_cluster(mode=GcMode.ON, bytes_per_request=MIB,
                                     service_us=500, times=range(0, 40_000, 100))
    issued = 0
    for i in range(400):
        sim.schedule_at(i * 100, lambda _, rid=i + 1: lb.on_request(rid))
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
                                     service_us=2_000, overhead=1_000, times=[10])
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
    (row,) = lb.samples
    assert row[2] - row[1] == RTT + 2_000 + 1_000


def test_a_stale_grant_after_a_forced_collection_is_answered_at_once():
    # b0's ask waits behind b1's grant when exhaustion forces b0 to collect.
    # The ask stays queued, so the slot b1 frees is granted to b0 at 5,082 us;
    # b0 has nothing deferred, so it answers the allow with a done as it
    # arrives: no pause, and no drain of the request it is serving
    sim, lb, backends = make_cluster(n=2, max_concurrent=1, live=100, trigger=200,
                                     hard=400, overhead=5_000, times=[5_060])
    b0, b1 = backends
    grants, dones = [], []
    grant, deliver = lb.ledger.allow, lb.deliver

    def spy_grant(backend):
        grants.append((sim.now, backend))
        grant(backend)

    def spy_deliver(src, msg):
        if msg[0] == "done":
            dones.append((sim.now, src, msg))
        deliver(src, msg)
    lb.ledger.allow = spy_grant
    sim.add_node("lb", spy_deliver)
    sim.schedule_at(10, lambda _: b1.runtime.allocate(150))  # asks first: granted
    sim.schedule_at(10, lambda _: b0.runtime.allocate(150))  # queued behind b1
    sim.schedule_at(30, lambda _: b0.runtime.allocate(200))  # exhaustion
    sim.schedule_at(5_060, lambda _: lb.route(1, 5_060))     # to b0: in service 5,084-7,084
    sim.run_until(1_000_000)
    assert [(p.start_us, p.end_us, p.forced) for p in b0.runtime.pauses] == [(30, 5_030, True)]
    assert [(p.start_us, p.end_us, p.forced) for p in b1.runtime.pauses] == [(58, 5_058, False)]
    assert grants == [(34, "b1"), (5_082, "b0")]
    assert dones == [(5_082, "b1", ("done",)), (5_130, "b0", ("done",))]
    assert lb.ledger.granted == set() and not lb.ledger.pending
    assert [(rid, completed - issued, server) for rid, issued, completed, server, _
            in lb.samples] == [(1, RTT + 2_000, "b0")]
    assert b0.runtime.active_ticket is None
    sent = sim.messages_sent
    b0.grantee.ask()  # nothing left to ask for
    assert sim.messages_sent == sent
    assert [lb.route(i, sim.now) for i in range(2, 4)] == ["b1", "b0"]


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
        b._extend = lambda ats, rids, bid=b.id: handed.extend(zip([bid] * len(ats), rids, ats))
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
            want_handed.append((want, rid, clock.arrival(0, REQ, rid)))
        assert (lb.route(rid, rid), lb.rr_pos) == (want, pos)
    assert handed == want_handed
    assert list(lb.pending) == want_pending
    assert sim.messages_sent == len(want_handed)


# -- the cluster against the reference model ----------------------------------------


def _small_run(gaps, cut, nodes=3, **overrides):
    """``nodes`` backends with a 100/200/400 B heap on ``gaps`` between
    arrivals, up to ``cut`` after the last one; returns the config, the
    arrivals, the deadline and the run."""
    cfg = default_config("http", nodes=nodes, rtt_us=48, seed=7, live_bytes=100,
                         trigger_bytes=200, hard_limit_bytes=400, duration_s=1, **overrides)
    stream, t = [], 0
    for rid, gap in enumerate(gaps, 1):
        t += gap
        stream.append((t, rid, "http"))
    deadline = t + cut

    def replay(config):
        return SimpleNamespace(config=config, times=[t for t, _, _ in stream], pattern=["http"])
    with mock.patch.object(scenarios, "Workload", replay), \
            mock.patch.object(ScenarioConfig, "duration_us", lambda _: deadline):
        run = run_scenario(cfg)
    assert run.issued == len(stream)  # the stream, not the config's, reached the driver
    return cfg, stream, deadline, run


def _against_reference(mode, jitter, parallelism, service_us, bytes_per_request, overhead,
                       background, interval, max_concurrent, gaps, cut, nodes=3):
    cfg, stream, deadline, run = _small_run(
        gaps, cut, nodes, jitter_us=jitter, gc_mode=mode, pause_overhead_us=overhead,
        service_time_us=service_us, parallelism=parallelism,
        bytes_per_request=bytes_per_request, max_concurrent=max_concurrent,
        background_alloc_bytes_per_s=background, background_alloc_interval_us=interval)
    got = (list(run.samples), [(p.node, p.start_us, p.end_us, p.ticket_id, p.forced)
                               for p in run.pauses],
           run.stats.messages_sent, run.peak_allocated, run.issued)
    assert got == refmodel.run(cfg, stream, deadline)
    assert run.in_flight == run.issued - len(got[0])


# Requests 0 and 1 us apart, one slot a backend and gc-on pauses of 2 *
# _BATCH us: a backend's 50th start, at about 100 us, crosses its trigger,
# and more than _BATCH requests queue at it during the pause (412 with
# _BATCH 256).  Arrivals go on after the pause: it starts requests from the
# front of its queue below the trigger as more arrive, and pauses again
_DEEP_BACKLOG = dict(mode="on", jitter=0, parallelism=1, service_us=1, bytes_per_request=2,
                     overhead=2 * _BATCH, background=0, interval=10, max_concurrent=1,
                     gaps=[0, 1] * (3 * _BATCH), cut=400)


@settings(max_examples=500, deadline=None)
@given(mode=st.sampled_from(["off", "blade", "on"]), jitter=st.integers(0, 8),
       parallelism=st.integers(1, 4), service_us=st.integers(1, 200),
       bytes_per_request=st.integers(0, 250), overhead=st.integers(0, 2_000),
       background=st.sampled_from([0, 0, 2_000_000, 9_000_000]),
       interval=st.integers(3, 60), max_concurrent=st.integers(1, 3),
       gaps=st.lists(st.integers(0, 20), min_size=1, max_size=80),
       cut=st.integers(0, 400))
@example(**_DEEP_BACKLOG)
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


def test_a_pause_grows_a_queue_past_the_batch(monkeypatch):
    # the deep-backlog example above queues more than _BATCH requests at a
    # paused backend
    depth = []
    advance = Backend._advance

    def spy(backend):
        if backend.runtime.paused_until > backend.sim.now:
            depth.append(len(backend._pending))
        return advance(backend)
    monkeypatch.setattr(Backend, "_advance", spy)
    _against_reference(**_DEEP_BACKLOG)
    assert max(depth) > _BATCH


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


@settings(deadline=None)
@given(mode=st.sampled_from(["off", "blade", "on"]), jitter=st.integers(0, 8),
       parallelism=st.integers(1, 4), service_us=st.integers(1, 20),
       bytes_per_request=st.integers(1, 3), overhead=st.integers(0, 60),
       nodes=st.integers(1, 2),
       gaps=st.lists(st.sampled_from([0, 5, 10, 10, 20]), min_size=60, max_size=200),
       cut=st.integers(0, 200))
# all 64 requests have arrived when the run ends, each as the one before it
# completes: the pass takes the whole batch
@example(mode="blade", jitter=0, parallelism=1, service_us=1, bytes_per_request=1,
         overhead=0, nodes=1, gaps=[1] * 64, cut=100)
# the last of them arrives with the one before it and would wait for its
# slot: the pass declines at its last request
@example(mode="blade", jitter=0, parallelism=1, service_us=1, bytes_per_request=1,
         overhead=0, nodes=1, gaps=[1] * 63 + [0], cut=100)
# request 35 arrives at 374 us, inside the gc-on pause from 364 to 379 us,
# and starts as it ends, in the pass that starts the run at the deadline
@example(mode="on", jitter=0, parallelism=2, service_us=5, bytes_per_request=3,
         overhead=15, nodes=1, gaps=[10] * 38, cut=50)
def test_bulk_service_matches_reference_model(mode, jitter, parallelism, service_us,
                                              bytes_per_request, overhead, nodes, gaps, cut):
    # the pass that starts a run of waiting requests at once: long runs of
    # starts below every threshold (1 to 3 B a request against a 100 B gap),
    # bursts wider than the slots, where it declines, and gc-on pauses that
    # end while requests wait.  One or two backends, no background
    # allocation, one collector at a time
    _against_reference(mode, jitter, parallelism, service_us, bytes_per_request, overhead,
                       0, 10_000, 1, gaps, cut, nodes)


# Runs of arrivals routed in one pass, each ended by one of the balancer's
# rules; dense streams make runs long.
_RUN_ENDS = {
    # four slots a backend and 2 us of service: each backend's queue empties
    # as it is accounted, so a run ends as _BATCH requests wait at one of them
    "batch-room": dict(mode="off", jitter=0, parallelism=4, service_us=2,
                       bytes_per_request=0, overhead=0, background=0, interval=10,
                       max_concurrent=1, gaps=[1] * (3 * _BATCH + 16), cut=100),
    # background ticks every 3 us: an arrival at or after the balancer's next
    # wake goes to route, which settles the backends first
    "wake": dict(mode="blade", jitter=0, parallelism=2, service_us=20, bytes_per_request=20,
                 overhead=50, background=2_000_000, interval=3, max_concurrent=1,
                 gaps=[2] * 200, cut=100),
    # three backends, any three may collect at once: while all are granted,
    # arrivals park, and they drain to the first backend to report done
    "parked": dict(mode="blade", jitter=0, parallelism=2, service_us=5, bytes_per_request=50,
                   overhead=100, background=0, interval=10, max_concurrent=3,
                   gaps=[2] * 200, cut=100),
    # 8 us of jitter on arrivals 0 or 1 us apart: a backend's slice of a run
    # arrives out of order and is inserted as single takes would insert it
    "jumbled": dict(mode="off", jitter=8, parallelism=4, service_us=2, bytes_per_request=0,
                    overhead=0, background=0, interval=10, max_concurrent=1,
                    gaps=[0, 1] * 100, cut=100),
}


@settings(deadline=None)
@given(mode=st.sampled_from(["off", "blade", "on"]), jitter=st.integers(0, 8),
       parallelism=st.integers(1, 4), service_us=st.integers(1, 60),
       bytes_per_request=st.one_of(st.integers(0, 3), st.integers(0, 250)),
       overhead=st.integers(0, 2_000), background=st.sampled_from([0, 0, 2_000_000, 9_000_000]),
       interval=st.integers(3, 60), max_concurrent=st.integers(1, 3),
       gaps=st.binary(min_size=200, max_size=600).map(lambda b: [x % 6 for x in b]),
       cut=st.integers(0, 400))
@example(**_RUN_ENDS["batch-room"])
@example(**_RUN_ENDS["wake"])
@example(**_RUN_ENDS["parked"])
@example(**_RUN_ENDS["jumbled"])
# b0 holds a grant when exhaustion forces its collection at 74 us.  The pause
# takes no time, so more requests start at that instant and defer a new
# collection; b0 answers the grant with a done before it asks again
@example(mode="blade", jitter=0, parallelism=4, service_us=25, bytes_per_request=60,
         overhead=0, background=0, interval=10, max_concurrent=1, gaps=[0] * 33 + [25, 25],
         cut=24)
def test_routed_runs_match_reference_model(mode, jitter, parallelism, service_us,
                                           bytes_per_request, overhead, background,
                                           interval, max_concurrent, gaps, cut):
    # dense arrivals, 0 to 5 us apart (drawn as bytes, which is much faster
    # than a list of integers): the balancer routes long runs of them in one
    # pass, and every rule that ends a run fires.  The run matches the
    # reference model, and its engine counts match routing one at a time
    _against_reference(mode, jitter, parallelism, service_us, bytes_per_request, overhead,
                       background, interval, max_concurrent, gaps, cut)
    overrides = dict(jitter_us=jitter, gc_mode=mode, pause_overhead_us=overhead,
                     service_time_us=service_us, parallelism=parallelism,
                     bytes_per_request=bytes_per_request, max_concurrent=max_concurrent,
                     background_alloc_bytes_per_s=background,
                     background_alloc_interval_us=interval)
    got = _engine_counts(gaps, cut, overrides)
    with mock.patch.object(LoadBalancer, "route_run", lambda *args: 0):
        assert _engine_counts(gaps, cut, overrides) == got


def _engine_counts(gaps, cut, overrides):
    """A small run's stats, the seqs taken by its end, its rows and pauses."""
    seqs, run_until = [], Simulation.run_until

    def spy(sim, deadline):
        stats = run_until(sim, deadline)
        seqs.append(sim._seq)
        return stats
    with mock.patch.object(Simulation, "run_until", spy):
        _, _, _, run = _small_run(gaps, cut, **overrides)
    return run.stats, seqs, list(run.samples), run.pauses


@pytest.mark.parametrize("rule", sorted(_RUN_ENDS))
def test_each_pinned_run_end_is_reached(monkeypatch, rule):
    # each pinned example above meets the rule it is pinned for
    seen = Counter()
    route_run, route = LoadBalancer.route_run, LoadBalancer.route
    extend = Backend._extend
    running = []

    def spy_route_run(lb, *args):
        running.append(lb)
        try:
            return route_run(lb, *args)
        finally:
            running.pop()

    def spy_route(lb, rid, issued):
        seen["wake"] += lb._next_wake <= lb.sim.now
        backend = route(lb, rid, issued)
        seen["parked"] += backend is None
        return backend

    def spy_extend(backend, ats, *args):
        # a run ends before the arrival a backend has no room for, which
        # route then hands that backend alone, outside any run
        seen["batch-room"] += not running and len(backend._pending) == _BATCH
        seen["jumbled"] += ats != sorted(ats)
        return extend(backend, ats, *args)
    monkeypatch.setattr(LoadBalancer, "route_run", spy_route_run)
    monkeypatch.setattr(LoadBalancer, "route", spy_route)
    monkeypatch.setattr(Backend, "_extend", spy_extend)
    _against_reference(**_RUN_ENDS[rule])
    assert seen[rule] > 0


@pytest.mark.parametrize("gaps,recursions", [([1] * 64, 0), ([1] * 63 + [0], 1)],
                         ids=["whole-batch", "declines-at-last"])
def test_bulk_pass_takes_a_whole_batch_or_none(monkeypatch, gaps, recursions):
    # the two pinned examples above reach the pass as they say: one call,
    # when the run ends, starts all 64 requests, with the column formula for
    # the whole batch and with the recursion where the last would wait
    calls, inside = [], []
    start_due, starts = Backend._start_due, Backend._starts

    def spy_start_due(backend, *args):
        waiting = len(backend._pending)
        inside.append(0)
        started, next_start = start_due(backend, *args)
        if waiting:
            calls.append((waiting, started, inside[-1]))
        inside.pop()
        return started, next_start

    def spy_starts(backend, *args):
        if inside:
            inside[-1] += 1
        return starts(backend, *args)
    monkeypatch.setattr(Backend, "_start_due", spy_start_due)
    monkeypatch.setattr(Backend, "_starts", spy_starts)
    _, _, _, run = _small_run(gaps, 100, nodes=1, gc_mode="blade", bytes_per_request=1,
                              pause_overhead_us=0, parallelism=1, service_time_us=1)
    assert calls == [(64, 64, recursions)]
    assert len(run.samples) == 64


def test_runs_route_over_99_percent_of_arrivals(monkeypatch):
    # configs/http_cluster.cfg cut to 2 s: route takes each mode's first
    # arrival, and each arrival that finds its backend with no room, 46 in
    # all and under 1% of them; the rest go in runs.  The engine fires the
    # events and the cluster sends the messages that routing one arrival at
    # a time does (12,000 arrivals; 23,987 requests and replies)
    routed, full = Counter(), Counter()
    route, extend = LoadBalancer.route, Backend._extend

    def spy_route(lb, rid, issued):
        routed[lb] += 1
        return route(lb, rid, issued)

    def spy_extend(backend, ats, rids):
        # a run leaves a backend no more than _BATCH waiting
        full[backend._lb] += len(backend._pending) == _BATCH
        return extend(backend, ats, rids)
    monkeypatch.setattr(LoadBalancer, "route", spy_route)
    monkeypatch.setattr(Backend, "_extend", spy_extend)
    cfg = parse_config(str(ROOT / "configs" / "http_cluster.cfg"))
    got = {}
    for mode in ("off", "blade", "on"):
        routed.clear()
        full.clear()
        run = run_scenario(cfg, mode=mode, duration_s=2)
        assert sum(routed.values()) <= run.issued // 100
        got[mode] = (run.issued, sum(routed.values()), sum(full.values()),
                     run.stats.events_fired, run.stats.messages_sent)
    assert got == {mode: (12_000, 46, 45, 12_000, 23_987) for mode in ("off", "blade", "on")}


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
                                     bytes_per_request=100, overhead=1, seed=7, times=[0] * 10)
    for rid in range(1, 11):
        sim.schedule_at(0, lambda _, rid=rid: lb.on_request(rid))
    sim.run_until(1_000)
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


def test_a_backend_that_misses_its_planned_start_raises():
    # one backend 100 B below its trigger at 40 B a request: the third start
    # crosses it, so the backend plans a wake for it at 24 us.  With that
    # wake cancelled, the backend is first observed long after the start
    sim, lb, (b,) = make_cluster(n=1, live=100, trigger=200, hard=10_000,
                                 bytes_per_request=40, times=[0] * 3)
    for rid in range(1, 4):
        sim.schedule_at(0, lambda _, rid=rid: lb.on_request(rid))
    sim.run_until(1)
    assert b._wake is not None and b._wake[0] == RTT // 2
    sim.cancel(b._wake)
    sim.run_until(10_000)
    with pytest.raises(SchedulingError, match="missed the start"):
        b.in_service


def test_allocating_on_a_backend_behind_its_runtime_raises():
    # gc-on, the same backend: its one request completes at 2,024 us.
    # Allocating 1,000 B on the runtime directly at 5,000 us pauses it
    # before the backend has accounted that completion
    sim, lb, (b,) = make_cluster(n=1, mode=GcMode.ON, live=100, trigger=200, hard=10_000,
                                 bytes_per_request=40, times=[0])
    sim.schedule_at(0, lambda _: lb.on_request(1))
    sim.run_until(5_000)
    with pytest.raises(SchedulingError, match="behind its runtime"):
        b.runtime.allocate(1_000)


def test_a_reply_on_the_wire_at_the_deadline_is_in_flight():
    # one request a millisecond; the one issued at 998 ms completes at
    # 999,994 us and its reply lands at 1,000,018 us, after the 1 s deadline
    cfg = default_config("http", nodes=1, rate_rps=1_000, duration_s=1,
                         service_time_us=1_970, bytes_per_request=0)
    run = run_scenario(cfg, mode="off")
    assert run.issued == 1_000
    rows = list(run.samples)
    assert len(run.samples) == len(rows) == 997 and rows[-1][:3] == (997, 997_000, 999_018)
    assert run.samples.completed[997] == 1_000_018  # request 998's reply, on the wire
    assert run.in_flight == 3  # the reply on the wire and two in service


def test_a_run_past_4294_seconds_reads_back_its_replies():
    # one request a second for 4,300 s: the arrivals from 4,294.967296 s on
    # are 2**32 us or more, more than a 32-bit column holds, so the run's
    # record is built with 64-bit times.  The request issued at the deadline
    # is in flight
    cfg = default_config("http", nodes=1, rate_rps=1, duration_s=4_300)
    run = run_scenario(cfg, mode="blade")
    rows = list(run.samples)
    assert (run.issued, len(rows), run.in_flight) == (4_300, 4_299, 1)
    assert rows[-1] == (4_299, 4_299_000_000, 4_299_002_048, "b0", "http")
    assert [row[0] for row in rows if row[2] >= 2**32] == list(range(4_295, 4_300))


def test_a_reply_on_the_wire_at_a_deadline_counts_once_a_resumed_run_receives_it():
    # at a 4,030 us deadline the record holds the reply to request 21, sent
    # at 4,024 us, which lands at 4,048 us: it is still on the wire, and it
    # counts, once, when the resumed run reaches its arrival
    sim, lb, _ = make_cluster(mode=GcMode.OFF, times=range(0, 5_000, 100))
    for i in range(50):
        sim.schedule_at(i * 100, lambda _, rid=i + 1: lb.on_request(rid))
    sim.run_until(4_030)
    rows = list(lb.samples)
    assert len(lb.samples) == len(rows) == 20 and lb.samples.completed[20] == 4_048
    assert list(lb.samples) == rows
    sim.run_until(4_048)
    assert list(lb.samples) == rows + [(21, 2_000, 4_048, "b2", "http")]
    sim.run_until(1_000_000)
    assert list(lb.samples)[:21] == rows + [(21, 2_000, 4_048, "b2", "http")]
    assert [row[0] for row in lb.samples] == list(range(1, 51))


def test_an_unknown_message_to_a_backend_or_the_balancer_is_refused():
    sim, lb, backends = make_cluster()
    with pytest.raises(ValueError, match="backend b0 got unknown message"):
        backends[0].deliver("lb", ("ask",))
    with pytest.raises(ValueError, match="balancer got unknown message"):
        lb.deliver("b0", ("allow",))


@pytest.mark.parametrize("built", [["b1"], ["b0", "b0"], ["b0", "b1", "b2"]],
                         ids=["second_first", "first_twice", "one_too_many"])
def test_a_backend_out_of_rotation_order_is_refused(built):
    # each backend takes the next place of its balancer's rotation, as built
    sim = Simulation(network=NetworkModel.from_rtt(RTT))
    lb = LoadBalancer(sim, "lb", ["b0", "b1"])

    def build(bid):
        rt = ManagedRuntime(sim, bid, HeapModel(100, 200, 400),
                            CollectorCostModel(25_000, 1_000), mode=GcMode.OFF)
        return Backend(sim, bid, lb, rt, 2_000, 16, 0)
    for bid in built[:-1]:
        build(bid)
    with pytest.raises(ValueError, match="not next in the rotation"):
        build(built[-1])
    assert [b.id for b in lb._backends] == built[:-1]
