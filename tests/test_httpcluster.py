from hypothesis import example, given, settings, strategies as st

from gcsim import default_config, run_scenario
from gcsim.httpcluster import Backend, LoadBalancer
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
    assert lb.route(1, 0) == "b1"  # b0 left the rotation


def test_coordinator_queues_second_asker_until_done():
    sim, lb, _ = make_cluster()
    lb.deliver("b0", ("ask", 1))
    lb.deliver("b1", ("ask", 1))
    assert lb.ledger.granted == {"b0"} and list(lb.ledger.pending) == ["b1"]
    lb.deliver("b0", ("done", 1))
    assert lb.ledger.granted == {"b1"}
    assert [lb.route(i, 0) for i in range(2)] == ["b0", "b2"]  # b1 is out


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
@given(st.integers(1, 4),
       st.lists(st.tuples(st.sampled_from(["ask", "done"]),
                          st.sampled_from(["b0", "b1", "b2", "b3"])), max_size=60))
def test_coordinator_never_exceeds_max_concurrent(max_concurrent, msgs):
    sim, lb, _ = make_cluster(n=4, max_concurrent=max_concurrent)
    for tag, backend in msgs:
        lb.deliver(backend, (tag, 1))
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
        return (b.grantee.ticket_id, b.grantee.grantor is not None,
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


def test_forced_collection_withdraws_its_queued_ask():
    # b0's ask waits behind b1's grant when exhaustion forces b0 to collect:
    # b0 forgets the ticket and withdraws the ask once its pause is over, so
    # the slot b1 frees is never granted to b0 to collect nothing
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
    sim.run_until(1_000_000)
    assert [(p.start_us, p.end_us, p.forced) for p in b0.runtime.pauses] == [(30, 5_030, True)]
    assert [(p.start_us, p.end_us, p.forced) for p in b1.runtime.pauses] == [(58, 5_058, False)]
    assert grants == [(34, "b1")]  # b0 never
    assert dones == [(5_054, "b0", ("done", 1)), (5_082, "b1", ("done", 1))]
    assert lb.ledger.granted == set() and not lb.ledger.pending
    assert b0.grantee.ticket_id == 0
    sent = sim.messages_sent
    b0.grantee.ask()  # nothing left to ask for
    assert sim.messages_sent == sent
    assert [lb.route(i, sim.now) for i in range(2)] == ["b0", "b1"]


# -- the routing fast path against the loop reference ---------------------------------


class _LoopBalancer(LoadBalancer):
    """``route`` as one modulo loop over the rotation, with no fast path."""

    def route(self, rid, issued):
        n = len(self.order)
        granted = self.ledger.granted
        for k in range(n):
            idx = (self.rr_pos + k) % n
            backend = self.order[idx]
            if backend not in granted:
                self.rr_pos = (idx + 1) % n
                self.sim.send(self.id, backend, ("req", rid, issued))
                return backend
        self.pending.append((rid, issued))
        return None


@settings(max_examples=150)
@given(st.data())
def test_route_matches_loop_reference(data):
    # the same backend, rotation position, parked requests and messages, for
    # any position and granted set, the empty set and the full one included
    n = data.draw(st.integers(1, 6))
    ids = [f"b{i}" for i in range(n)]
    rr_pos = data.draw(st.integers(0, n - 1))
    grants = data.draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=8))
    observed = []
    for cls in (LoadBalancer, _LoopBalancer):
        sim = Simulation()
        lb = cls(sim, "lb", ids, max_concurrent=n)
        for bid in ids:
            sim.add_node(bid, lambda src, msg: None)
        lb.rr_pos = rr_pos
        picks = []
        for rid, granted in enumerate(grants):
            lb.ledger.granted.clear()
            lb.ledger.granted.update(granted)
            picks.append((lb.route(rid, rid), lb.rr_pos))
        observed.append((picks, list(lb.pending), [(e[0], e[3]) for e in sim._lane],
                         sim.messages_sent))
    assert observed[0] == observed[1]


# -- stamped replies against delivered ones ---------------------------------------------


class _ReferenceBackend(Backend):
    """Completions in a dict by rid, and each reply sent as a ``"rep"``
    message that the balancer records when it is delivered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._completions = {}

    def _start(self, rid, issued):
        self.in_service += 1
        self.runtime.allocate(self.bytes_per_request)
        start_at = max(self.runtime.paused_until, self.sim.now)
        self._completions[rid] = self.sim.schedule_at(
            start_at + self.service_time_us, self._complete, (rid, issued))

    def _complete(self, arg):
        rid, issued = arg
        del self._completions[rid]
        self.in_service -= 1
        self.sim.send(self.id, self.balancer_id, ("rep", rid, issued))
        if self.queue and self.sim.now >= self.runtime.paused_until:
            self._wake()
        if self.grantee.grantor is not None:
            self.grantee.poll()

    def _on_pause(self, start_us, end_us):
        shift = end_us - start_us
        for rid, handle in list(self._completions.items()):
            self.sim.cancel(handle)
            self._completions[rid] = self.sim.schedule_at(
                handle[0] + shift, self._complete, handle[3])
        self.sim.schedule_at(end_us, self._wake)


class _ReferenceBalancer(LoadBalancer):
    """Records a sample as each ``"rep"`` message is delivered."""

    def deliver(self, src, msg):
        if msg[0] == "rep":
            self.samples.add(msg[1], msg[2], self.sim.now, src, "http")
        else:
            super().deliver(src, msg)


def _run_small_cluster(balancer_cls, backend_cls, mode, jitter, parallelism,
                       service_us, bytes_per_request, overhead, gaps, deadline):
    sim = Simulation(seed=7, network=NetworkModel(24, jitter))
    ids = ["b0", "b1", "b2"]
    lb = balancer_cls(sim, "lb", ids)
    backends = []
    for bid in ids:
        heap = HeapModel(live_bytes=100, trigger_bytes=200, hard_limit_bytes=400)
        rt = ManagedRuntime(sim, bid, heap, CollectorCostModel(25_000, overhead),
                            PauseEstimator(), mode=mode)
        backends.append(backend_cls(sim, bid, "lb", rt, service_us, parallelism,
                                    bytes_per_request))
    t = 0
    for rid, gap in enumerate(gaps):
        t += gap
        sim.schedule_at(t, lambda _, rid=rid: lb.on_request(rid))
    sim.run_until(deadline)
    if balancer_cls is LoadBalancer:
        lb.samples.keep_arrived(deadline)
    pauses = [p for b in backends for p in b.runtime.pauses]
    return list(lb.samples), pauses, sim.messages_sent, sim.rng.getstate()


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from([GcMode.OFF, GcMode.BLADE, GcMode.ON]),
       jitter=st.integers(0, 8), parallelism=st.integers(1, 4),
       service_us=st.integers(1, 200), bytes_per_request=st.integers(20, 250),
       overhead=st.integers(1, 2_000),
       gaps=st.lists(st.integers(0, 20), min_size=1, max_size=80),
       cut=st.integers(0, 400))
# a request started as a reply is sent asks for a collection, whose draw
# comes after the reply's
@example(mode=GcMode.BLADE, jitter=1, parallelism=1, service_us=1, bytes_per_request=50,
         overhead=1, gaps=[0, 0, 0, 0], cut=49)
# a reply overtakes an older one, and two land at the deadline's instant
@example(mode=GcMode.OFF, jitter=1, parallelism=1, service_us=1, bytes_per_request=20,
         overhead=1, gaps=[0, 0, 0, 0], cut=49)
def test_stamped_replies_match_delivered_replies(mode, jitter, parallelism, service_us,
                                                  bytes_per_request, overhead, gaps, cut):
    # the same rows in the same order, pauses, message count and RNG draws as
    # replies delivered through the network; the deadline falls anywhere
    # from the last arrival on, so it often cuts replies on the wire
    deadline = sum(gaps) + cut
    args = (mode, jitter, parallelism, service_us, bytes_per_request, overhead,
            gaps, deadline)
    assert (_run_small_cluster(LoadBalancer, Backend, *args)
            == _run_small_cluster(_ReferenceBalancer, _ReferenceBackend, *args))


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


def test_a_backend_may_be_built_before_its_balancer():
    sim = Simulation(network=NetworkModel.from_rtt(RTT))
    heap = HeapModel(live_bytes=100, trigger_bytes=200, hard_limit_bytes=400)
    rt = ManagedRuntime(sim, "b0", heap, CollectorCostModel(25_000, 1_000),
                        PauseEstimator(), mode=GcMode.OFF)
    Backend(sim, "b0", "lb", rt, 2_000, 16, 0)
    lb = LoadBalancer(sim, "lb", ["b0"])
    sim.schedule_at(0, lambda _: lb.on_request(1))
    sim.run_until(10_000)
    assert list(lb.samples) == [(1, 0, 2_048, "b0", "http")]
