import pytest
from hypothesis import given, settings, strategies as st

from gcsim.httpcluster import (Backend, BackendStatus, HttpEventModel,
                               LoadBalancer, http_model_eval)
from gcsim.runtime import (GIB, MIB, CollectorCostModel, GcMode, HeapModel,
                           ManagedRuntime, PauseEstimator)
from gcsim.simcore import NetworkModel, Simulation

RTT = 48


def make_cluster(n=3, mode=GcMode.BLADE, service_us=2_000, parallelism=16,
                 live=150 * MIB, trigger=300 * MIB, hard=GIB,
                 bytes_per_request=0, max_concurrent=1, overhead=8_761):
    sim = Simulation(network=NetworkModel.from_rtt(RTT))
    ids = [f"b{i}" for i in range(n)]
    lb = LoadBalancer(sim, "lb", ids, max_concurrent=max_concurrent)
    backends = []
    for bid in ids:
        heap = HeapModel(live_bytes=live, trigger_bytes=trigger,
                         hard_limit_bytes=hard)
        rt = ManagedRuntime(sim, bid, heap,
                            CollectorCostModel(25_000, overhead), PauseEstimator(),
                            mode=mode)
        backends.append(Backend(sim, bid, "lb", rt, service_us, parallelism,
                                bytes_per_request, coordinated=mode is GcMode.BLADE))
    return sim, lb, backends


# -- capacity model -----------------------------------------------------------


def test_model_eval_sums_downtime_components():
    got = http_model_eval(HttpEventModel(t_schedule=48, t_trailers=2_000,
                                         t_gc=12_423, t_rpc=24))
    assert got.latency_impact_us == 0
    assert got.capacity_loss_servers == 1
    assert got.capacity_downtime_us == 14_447
    assert got.event_time_us == 14_495


def test_model_eval_all_zero():
    got = http_model_eval(HttpEventModel(0, 0, 0, 0))
    assert (got.latency_impact_us, got.capacity_downtime_us, got.event_time_us) == (0, 0, 0)
    assert got.capacity_loss_servers == 1


def test_model_latency_impact_zero_regardless_of_gc_time():
    for t_gc in (0, 10_000, 10_000_000):
        assert http_model_eval(HttpEventModel(48, 0, t_gc, 24)).latency_impact_us == 0


def test_model_rejects_negative_inputs():
    with pytest.raises(ValueError):
        http_model_eval(HttpEventModel(-1, 0, 0, 0))


# -- routing -------------------------------------------------------------------


def test_round_robin_cycles_evenly():
    sim, lb, _ = make_cluster()
    targets = [lb.route(i, 0) for i in range(6)]
    assert targets == ["b0", "b1", "b2", "b0", "b1", "b2"]


def test_round_robin_skips_unroutable_backend():
    sim, lb, _ = make_cluster()
    lb.routing_ok["b1"] = False  # draining
    targets = [lb.route(i, 0) for i in range(4)]
    assert targets == ["b0", "b2", "b0", "b2"]


def test_requests_queue_when_no_backend_available_and_drain_on_done():
    sim, lb, backends = make_cluster(n=3, max_concurrent=3)
    for b in lb.routing_ok:
        lb.routing_ok[b] = False
    lb.ledger.granted = {"b0", "b1", "b2"}
    assert [lb.route(i, 0) for i in range(4)] == [None] * 4
    assert len(lb.pending) == 4
    lb.deliver("b1", ("done", 1))
    sim.run_until(1_000)
    # queued requests drained to the returned backend in FIFO order
    assert len(lb.pending) == 0
    assert backends[1].in_service + len(backends[1].queue) == 4


# -- coordinator ----------------------------------------------------------------


def test_coordinator_grants_immediately_when_idle():
    sim, lb, _ = make_cluster()
    lb.deliver("b0", ("ask", 1))
    assert lb.ledger.granted == {"b0"}
    assert lb.routing_ok["b0"] is False


def test_coordinator_queues_second_asker_until_done():
    sim, lb, _ = make_cluster()
    lb.deliver("b0", ("ask", 1))
    lb.deliver("b1", ("ask", 1))
    assert lb.ledger.granted == {"b0"} and list(lb.ledger.pending) == ["b1"]
    lb.deliver("b0", ("done", 1))
    assert lb.ledger.granted == {"b1"}
    assert lb.routing_ok["b0"] is True and lb.routing_ok["b1"] is False


def test_simultaneous_asks_grant_in_arrival_order():
    sim, lb, _ = make_cluster()
    for b in ("b2", "b0", "b1"):
        lb.deliver(b, ("ask", 1))
    order = [next(iter(lb.ledger.granted))]
    for _ in range(2):
        lb.deliver(order[-1], ("done", 1))
        order.append(next(iter(lb.ledger.granted)))
    assert order == ["b2", "b0", "b1"]


def test_duplicate_ask_is_ignored():
    sim, lb, _ = make_cluster()
    lb.deliver("b0", ("ask", 1))
    lb.deliver("b0", ("ask", 1))
    lb.deliver("b1", ("ask", 1))
    lb.deliver("b1", ("ask", 1))
    assert lb.ledger.granted == {"b0"} and list(lb.ledger.pending) == ["b1"]


@settings(max_examples=200)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(["ask", "done"]),
                          st.sampled_from(["b0", "b1", "b2", "b3"])), max_size=60))
def test_coordinator_never_exceeds_max_concurrent(max_concurrent, msgs):
    sim, lb, _ = make_cluster(n=4, max_concurrent=max_concurrent)
    for tag, backend in msgs:
        lb.deliver(backend, (tag, 1))
        assert lb.ledger.used <= max_concurrent
        assert {b for b, ok in lb.routing_ok.items() if not ok} == lb.ledger.granted


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
    assert lb.routing_ok["b0"] is True
    assert lb.ledger.granted == set()
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
    seen = [b.status]

    def watch(_):
        if b.status != seen[-1]:
            seen.append(b.status)
        if sim.now < 40_000:
            sim.schedule_after(2, watch)

    sim.schedule_at(0, watch)
    sim.schedule_at(100, lambda _: trigger_gc(b))
    sim.run_until(50_000)
    # the backend is idle, so draining completes within the grant event and
    # only the four durable states are observable between samples
    assert seen == [BackendStatus.SERVING, BackendStatus.AWAITING_SCHEDULE,
                    BackendStatus.COLLECTING, BackendStatus.NOTIFYING,
                    BackendStatus.SERVING]


def test_draining_status_observable_with_requests_in_flight():
    sim, lb, backends = make_cluster(n=1, service_us=5_000)
    b = backends[0]
    sim.schedule_at(10, lambda _: lb.route(1, 10))
    sim.schedule_at(40, lambda _: trigger_gc(b))
    sim.run_until(200)  # grant landed at 88; request still has ~4.8 ms left
    assert b.status is BackendStatus.DRAINING
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
    assert b.runtime.forced_collections == 1
    assert b.runtime.collection_count() == 1  # the granted start was a no-op
    assert lb.ledger.granted == set()             # done still sent
    assert lb.routing_ok["b0"] is True
    # the in-flight request was shifted right by the forced pause
    assert lb.samples[0][2] - lb.samples[0][1] == RTT + 2_000 + 1_000
