import pytest
from hypothesis import given, settings, strategies as st

from gcsim.raft import (AllowGC, AskGC, ClientReply, ClientRequest, FollowerGcModel,
                        LeaderGcModel, RaftClient, RaftNode, RaftTrace, Role,
                        raft_model_eval)
from gcsim.raftcheck import check_history
from gcsim.runtime import (GIB, MIB, CollectorCostModel, GcLedger, GcMode, HeapModel,
                           ManagedRuntime, PauseEstimator)
from gcsim.simcore import NetworkModel, Simulation

RTT = 48
HALF = RTT // 2


def make_cluster(n=3, mode=GcMode.BLADE, live=100 * MIB, trigger=200 * MIB,
                 hard=GIB, service_us=400, bytes_per_request=0,
                 overhead=1_000, clients=2, seed=1):
    sim = Simulation(seed=seed, network=NetworkModel.from_rtt(RTT))
    trace = RaftTrace()
    ids = [f"n{i}" for i in range(n)]
    client_ids = [f"c{i}" for i in range(clients)]
    nodes = []
    for i, nid in enumerate(ids):
        heap = HeapModel(live_bytes=live, trigger_bytes=trigger,
                         hard_limit_bytes=hard)
        rt = ManagedRuntime(sim, nid, heap, CollectorCostModel(25_000, overhead),
                            PauseEstimator(), mode=mode)
        nodes.append(RaftNode(sim, nid, ids, rt, trace,
                              service_time_us=service_us,
                              bytes_per_request=bytes_per_request,
                              client_ids=client_ids, timer_seed=seed * 100 + i))
    nodes[0].term = 1
    nodes[0].voted_for = nodes[0].id
    nodes[0]._become_leader()
    samples = []
    client_objs = [RaftClient(sim, cid, "n0", 1_000_000,
                              lambda rid, iss, done, srv, kind:
                              samples.append((rid, iss, done, srv, kind)))
                   for cid in client_ids]
    return sim, nodes, client_objs, samples, trace


# -- admission ledger ----------------------------------------------------------


def test_ledger_grants_below_quorum_and_queues_at_it():
    led = GcLedger(1)  # 3 servers, quorum 2: at most one collector at a time
    assert led.ask("a") == "grant"
    assert led.ask("b") == "queued"
    assert led.ask("c") == "queued"
    assert led.used == 1


def test_ledger_finish_pulls_pending_fifo():
    led = GcLedger(1)
    led.ask("a"); led.ask("b"); led.ask("c")
    assert led.finish("a") == "b"
    assert led.finish("b") == "c"
    assert led.finish("c") is None
    assert led.used == 0
    assert led.last_finished == "c"


def test_ledger_duplicate_ask_ignored():
    led = GcLedger(1)
    assert led.ask("a") == "grant"
    assert led.ask("a") == "duplicate"
    led.ask("b")
    assert led.ask("b") == "duplicate"


def test_ledger_reset_on_leader_change():
    led = GcLedger(2)
    led.ask("a"); led.ask("b"); led.ask("c")
    led.reset()
    assert led.used == 0 and not led.pending
    # a finish from the pre-reset grant must not drive usage negative
    assert led.finish("a") is None
    assert led.used == 0
    assert led.ask("x") == "grant"
    assert led.ask("y") == "grant"
    assert led.ask("z") == "queued"  # 5-node quorum 3: two may collect


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(["ask", "finish", "reset"]),
                          st.sampled_from(list("abcde"))), max_size=80),
       st.integers(3, 7))
def test_ledger_never_breaks_quorum(ops, size):
    # Even sizes too: a RaftNode built directly may have one.
    led = make_cluster(n=size)[1][0].ledger
    capacity = size - (size // 2 + 1)
    for op, node in ops:
        if op == "ask":
            led.ask(node)
        elif op == "finish":
            led.finish(node)
        else:
            led.reset()
            assert led.used == 0 and not led.pending
        assert led.used <= capacity
        assert not (led.granted & set(led.pending))


# -- impact model -----------------------------------------------------------------


def test_follower_model_event_time():
    got = raft_model_eval(FollowerGcModel(t_schedule_us=RTT, t_gc_us=10_000))
    assert (got.latency_impact_us, got.capacity_loss_servers) == (0, 0)
    assert got.event_time_us == 10_048


def test_leader_model_impact_is_one_rtt():
    got = raft_model_eval(LeaderGcModel(rtt_us=RTT, t_proxy_us=0, t_gc_us=10_000))
    assert got.latency_impact_us == RTT
    assert got.capacity_loss_servers == 0
    assert got.event_time_us == HALF + 10_000


def test_model_zero_gc_time_costs_scheduling_only():
    assert raft_model_eval(FollowerGcModel(RTT, 0)).event_time_us == RTT
    assert raft_model_eval(LeaderGcModel(RTT, 0, 0)).event_time_us == HALF


def test_model_rejects_negative():
    with pytest.raises(ValueError):
        raft_model_eval(FollowerGcModel(-1, 0))


# -- replication ------------------------------------------------------------------


def test_set_commits_in_one_round_trip_plus_service():
    sim, nodes, clients, samples, _ = make_cluster()
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("set", "k", 7)))
    sim.run_until(100_000)
    assert len(samples) == 1
    rid, issued, done, server, kind = samples[0]
    # client->leader + commit round trip + service + reply flight
    assert done - issued == HALF + RTT + 400 + HALF
    assert all(("set", "k", 7) in [(e[1]) for e in n.log] or True for n in nodes)
    assert nodes[1].kv.get("k") == 7 or nodes[2].kv.get("k") == 7


def test_get_answers_locally_at_leader():
    sim, nodes, clients, samples, _ = make_cluster()
    nodes[0].kv["k"] = 42
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("get", "k")))
    sim.run_until(100_000)
    assert samples[0][2] - samples[0][1] == HALF + 400 + HALF


def test_commit_succeeds_with_one_follower_paused():
    sim, nodes, clients, samples, _ = make_cluster()
    nodes[1].runtime.paused_until = 5_000_000  # follower down for 5 s
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("set", "k", 1)))
    sim.run_until(400_000)
    assert len(samples) == 1
    assert samples[0][2] - samples[0][1] == HALF + RTT + 400 + HALF


def test_no_commit_without_majority_until_a_follower_returns():
    sim, nodes, clients, samples, _ = make_cluster()
    nodes[1].runtime.paused_until = 300_000
    nodes[2].runtime.paused_until = 300_000
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("set", "k", 1)))
    sim.run_until(250_000)
    assert samples == []  # both followers buffered, no quorum
    sim.run_until(500_000)
    assert len(samples) == 1  # acked right after wake


# -- client retries ---------------------------------------------------------------------

TIMEOUT = 10_000


def make_client(replies):
    """A client whose servers record each request and answer through ``replies``.

    ``replies(dst, msg)`` returns the reply to send back, or None to stay
    silent.  Returns the client, the received log as (time, server, rid) and
    the samples.
    """
    sim = Simulation(seed=1, network=NetworkModel.from_rtt(RTT))
    received, samples = [], []

    def server(name):
        def deliver(src, msg):
            received.append((sim.now, name, msg.rid))
            reply = replies(name, msg)
            if reply is not None:
                sim.send(name, src, reply)
        return deliver
    for name in ("s0", "s1"):
        sim.add_node(name, server(name))
    client = RaftClient(sim, "c0", "s0", TIMEOUT,
                        lambda rid, iss, done, srv, kind: samples.append((rid, iss, done)))
    return sim, client, received, samples


def test_unanswered_requests_resent_every_timeout_from_issue():
    sim, client, received, _ = make_client(lambda dst, msg: None)
    sim.schedule_at(1_000, lambda _: client.submit(1, ("get", "k")))
    sim.schedule_at(1_500, lambda _: client.submit(2, ("set", "k", 2)))
    sim.run_until(45_000)
    sends = {rid: [t - HALF for t, _, r in received if r == rid] for rid in (1, 2)}
    assert sends[1] == [1_000, 11_000, 21_000, 31_000, 41_000]
    assert sends[2] == [1_500, 11_500, 21_500, 31_500, 41_500]
    assert client.retries == 8
    assert list(client.outstanding) == [1, 2]


def test_answered_request_is_never_resent():
    def answer_first(dst, msg):
        return ClientReply(msg.rid, "ok", dst) if msg.rid == 1 else None
    sim, client, received, samples = make_client(answer_first)
    sim.schedule_at(1_000, lambda _: client.submit(1, ("get", "k")))
    sim.schedule_at(2_000, lambda _: client.submit(2, ("get", "k")))
    sim.run_until(35_000)
    assert [t for t, _, rid in received if rid == 1] == [1_000 + HALF]
    assert [t - HALF for t, _, rid in received if rid == 2] == [2_000, 12_000, 22_000, 32_000]
    assert samples == [(1, 1_000, 1_000 + RTT)]
    assert client.retries == 3


def test_redirect_resends_at_once_and_keeps_the_deadline():
    def redirect_from_s0(dst, msg):
        return ClientReply(msg.rid, None, "s1", redirect=True) if dst == "s0" else None
    sim, client, received, _ = make_client(redirect_from_s0)
    sim.schedule_at(1_000, lambda _: client.submit(1, ("set", "k", 1)))
    sim.run_until(25_000)
    assert received == [(1_000 + HALF, "s0", 1), (1_000 + RTT + HALF, "s1", 1),
                        (11_000 + HALF, "s1", 1), (21_000 + HALF, "s1", 1)]
    assert client.retries == 3


# -- fast leadership handoff ---------------------------------------------------------


def test_switch_activates_successor_half_rtt_after_broadcast():
    sim, nodes, clients, samples, trace = make_cluster()
    sim.schedule_at(10_000, lambda _: nodes[0].request_leader_switch("n1"))
    sim.run_until(100_000)
    (t_switch, old, new, term), = trace.switches
    assert (old, new) == ("n0", "n1")
    leadership = [l for l in trace.leaderships if l[1] == term]
    assert leadership == [(t_switch + HALF, term, "n1")]
    assert nodes[1].role is Role.LEADER and nodes[0].role is Role.FOLLOWER


def test_switch_waits_for_successor_to_catch_up_and_keeps_serving():
    sim, nodes, clients, samples, trace = make_cluster()
    nodes[1].runtime.paused_until = 50_000  # successor behind while paused
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("set", "a", 1)))
    sim.schedule_at(2_000, lambda _: nodes[0].request_leader_switch("n1"))
    sim.schedule_at(3_000, lambda _: clients[1].submit(2, ("set", "b", 2)))
    sim.run_until(300_000)
    (t_switch, old, new, term), = trace.switches
    assert t_switch >= 50_000  # deferred until n1 caught up
    assert {s[0] for s in samples} == {1, 2}  # cluster served meanwhile
    lat2 = next(s[2] - s[1] for s in samples if s[0] == 2)
    assert lat2 == HALF + RTT + 400 + HALF  # request 2 served during the delay


def test_requests_in_flight_across_switch_pay_at_most_one_rtt():
    sim, nodes, clients, samples, trace = make_cluster()
    baseline = HALF + RTT + 400 + HALF
    # a burst of sets straddling the switch instant
    for i in range(40):
        sim.schedule_at(9_000 + i * 50, lambda _, r=i: clients[r % 2].submit(r, ("set", "x", r)))
    sim.schedule_at(10_000, lambda _: nodes[0].request_leader_switch("n1"))
    sim.run_until(400_000)
    assert len(samples) == 40
    worst = max(s[2] - s[1] - baseline for s in samples)
    assert worst <= RTT


# -- collection coordination end to end ------------------------------------------------


def test_follower_pause_begins_one_rtt_after_trigger():
    sim, nodes, clients, samples, _ = make_cluster()
    f = nodes[1]
    sim.schedule_at(5_000, lambda _: f.runtime.allocate(250 * MIB))
    sim.run_until(1_000_000)
    pause = f.runtime.pauses[0]
    assert pause.start_us == 5_000 + RTT  # ask (half) + allow (half)
    assert nodes[0].ledger.used == 0      # done processed after the pause


def test_leader_collection_preceded_by_switch():
    sim, nodes, clients, samples, trace = make_cluster()
    leader = nodes[0]
    sim.schedule_at(5_000, lambda _: leader.runtime.allocate(250 * MIB))
    sim.run_until(1_000_000)
    assert len(leader.runtime.pauses) == 1
    pause = leader.runtime.pauses[0]
    assert len(trace.switches) == 1
    t_switch = trace.switches[0][0]
    assert t_switch < pause.start_us
    assert trace.role_at(leader.id, pause.start_us) is not Role.LEADER


def test_second_asker_queues_until_first_done():
    sim, nodes, clients, samples, _ = make_cluster()
    sim.schedule_at(5_000, lambda _: nodes[1].runtime.allocate(250 * MIB))
    sim.schedule_at(5_010, lambda _: nodes[2].runtime.allocate(250 * MIB))
    sim.run_until(2_000_000)
    p1 = nodes[1].runtime.pauses[0]
    p2 = nodes[2].runtime.pauses[0]
    assert p2.start_us > p1.end_us  # strictly serialized by the ledger


def test_forced_collection_then_late_allow_causes_no_second_pause():
    # 100 ms pauses keep n2's collection holding the only slot while n1,
    # parked in the pending queue, runs out of heap and is forced
    sim, nodes, clients, samples, _ = make_cluster(live=100, trigger=200,
                                                   hard=400, overhead=100_000)
    f = nodes[1]
    sim.schedule_at(1_000, lambda _: nodes[2].runtime.allocate(250))
    sim.schedule_at(2_000, lambda _: f.runtime.allocate(150))
    sim.schedule_at(3_000, lambda _: f.runtime.allocate(300))  # exhaustion
    sim.run_until(3_000_000)
    assert f.runtime.forced_collections == 1
    assert f.runtime.collection_count() == 1  # the eventual allow was a no-op
    assert nodes[0].ledger.used == 0          # done sent anyway, slot freed


def test_ask_resent_to_new_leader_after_switch():
    sim, nodes, clients, samples, trace = make_cluster()
    f = nodes[2]
    # n2 asks while n1 is mid-collection, so the ask parks in n0's queue;
    # n0 then hands leadership to n1 before granting it
    sim.schedule_at(1_000, lambda _: nodes[1].runtime.allocate(250 * MIB))
    sim.schedule_at(2_000, lambda _: f.runtime.allocate(250 * MIB))
    sim.schedule_at(3_000, lambda _: nodes[0].request_leader_switch("n1"))
    sim.run_until(5_000_000)
    assert f.runtime.collection_count() == 1  # re-ask reached the new leader


def test_allow_arriving_at_a_leader_reroutes_through_a_handoff():
    # a node elected while its grant was in flight must not pause as leader;
    # the stray grant is fed back through the admission flow instead
    sim, nodes, clients, samples, trace = make_cluster()
    leader = nodes[0]
    leader.runtime.reg_gc_hand(lambda t: False)  # defer without asking yet
    sim.schedule_at(1_000, lambda _: leader.runtime.allocate(250 * MIB))
    sim.schedule_at(1_010, lambda _: leader.runtime.reg_gc_hand(leader._on_gc_offer))
    sim.schedule_at(1_020, lambda _: leader.deliver("n1", AllowGC(1)))
    sim.run_until(3_000_000)
    assert leader.runtime.collection_count() == 1
    pause = leader.runtime.pauses[0]
    assert trace.role_at("n0", pause.start_us) is not Role.LEADER
    assert len(trace.switches) == 1


def test_grant_timeout_frees_the_slot():
    sim, nodes, clients, samples, _ = make_cluster()
    leader = nodes[0]
    leader._ask_info["n1"] = (1, 10_000)
    assert leader.ledger.ask("n1") == "grant"
    leader._issue_grant("n1")
    nodes[1].deliver = lambda src, msg: None  # swallow the grant: no done ever
    sim.run_until(2_000_000)  # 10 x 10 ms budget elapses
    assert leader.ledger.used == 0


# -- elections ------------------------------------------------------------------------


def test_long_leader_pause_triggers_reelection_and_stays_safe():
    sim, nodes, clients, samples, trace = make_cluster(mode=GcMode.ON,
                                                       live=8 * GIB,
                                                       trigger=9 * GIB,
                                                       hard=12 * GIB)
    # a ~201 ms stop-the-world pause exceeds every election timeout draw
    sim.schedule_at(50_000, lambda _: nodes[0].runtime.allocate(2 * GIB))
    for i in range(200):
        sim.schedule_at(10_000 * (i + 1),
                        lambda _, r=i: clients[r % 2].submit(r, ("set", "x", r)))
    sim.run_until(3_500_000)  # leaves room for the 1 s client retry round
    assert len(trace.leaderships) >= 2  # someone took over
    assert check_history(trace) == []
    assert len(samples) == 200  # every request answered eventually


def test_checker_flags_double_leadership():
    trace = RaftTrace()
    trace.leaderships = [(0, 1, "a"), (10, 1, "b")]
    assert any("multiple leaders" in v for v in check_history(trace))


def test_checker_flags_log_divergence():
    trace = RaftTrace()
    trace.final_logs = {
        "a": [(1, ("set", "k", 1), 1), (1, ("set", "k", 2), 2)],
        "b": [(1, ("set", "k", 9), 1), (1, ("set", "k", 2), 2)],
    }
    assert any("diverge" in v for v in check_history(trace))


def test_checker_flags_conflicting_applies():
    trace = RaftTrace()
    trace.applied = {
        "a": [(1, 1, ("set", "k", 1))],
        "b": [(1, 1, ("set", "k", 2))],
    }
    assert any("applied" in v for v in check_history(trace))


def test_checker_accepts_prefix_histories():
    trace = RaftTrace()
    log = [(1, ("set", "k", 1), 1), (2, ("noop",), None)]
    trace.final_logs = {"a": log, "b": log[:1]}
    trace.applied = {"a": [(1, 1, ("set", "k", 1))], "b": [(1, 1, ("set", "k", 1))]}
    trace.leaderships = [(0, 1, "a"), (5, 2, "a")]
    assert check_history(trace) == []
