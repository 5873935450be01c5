import pytest
from hypothesis import given, settings, strategies as st

from gcsim.raft import (AllowGC, AppendEntries, AppendReply, AskGC, ClientReply,
                        ClientRequest, DoneGC, FastSwitch, LeaderNotice, RaftClient, RaftNode,
                        RaftTrace, Role, VoteReply)
from gcsim.metrics import Completions
from gcsim.raftcheck import check_history, check_log_matching
from gcsim.runtime import (GIB, MIB, CollectorCostModel, GcLedger, GcMode, HeapModel,
                           ManagedRuntime)
from gcsim.simcore import NetworkModel, Simulation

RTT = 48
HALF = RTT // 2


class SampledClient(RaftClient):
    """A client that reports each answered request as the row ``(rid,
    issued, completed, server, kind)``, with the time and kind of the
    request's first submission."""

    def __init__(self, sim, client_id, leader, timeout_us, on_row):
        super().__init__(sim, client_id, leader, timeout_us, self._answered)
        self.first, self.on_row = {}, on_row

    def submit(self, rid, op):
        self.first.setdefault(rid, (self.sim.now, op[0]))
        super().submit(rid, op)

    def _answered(self, rid, completed, server):
        issued, kind = self.first[rid]
        self.on_row((rid, issued, completed, server, kind))


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
        rt = ManagedRuntime(sim, nid, heap, CollectorCostModel(25_000, overhead), mode=mode)
        nodes.append(RaftNode(sim, nid, ids, rt, trace,
                              service_time_us=service_us,
                              bytes_per_request=bytes_per_request,
                              client_ids=client_ids, timer_seed=seed * 100 + i))
    nodes[0].term = 1
    nodes[0].voted_for = nodes[0].id
    nodes[0]._become_leader()
    samples = []
    client_objs = [SampledClient(sim, cid, "n0", 1_000_000, samples.append)
                   for cid in client_ids]
    return sim, nodes, client_objs, samples, trace


# -- admission ledger ----------------------------------------------------------


def recording_ledger(capacity, on_grant=lambda led, node: None):
    """A ledger whose ``allow`` hook records each grant, checking that the
    node holds its slot and that no node is both granted and queued."""
    grants = []

    def allow(node):
        assert node in led.granted and not (led.granted & set(led.pending))
        grants.append(node)
        on_grant(led, node)
    led = GcLedger(capacity, allow)
    return led, grants


def test_ledger_grants_below_quorum_and_queues_at_it():
    led, grants = recording_ledger(1)  # 3 servers, quorum 2: one collector at a time
    assert led.ask("a") == "grant"
    assert led.ask("b") == "queued"
    assert led.ask("c") == "queued"
    assert led.used == 1 and grants == ["a"]


def test_ledger_finish_pulls_pending_fifo():
    led, grants = recording_ledger(1)
    led.ask("a"); led.ask("b"); led.ask("c")
    led.finish("a")
    assert grants == ["a", "b"]
    led.finish("b")
    assert grants == ["a", "b", "c"]
    led.finish("c")
    assert grants == ["a", "b", "c"]
    assert led.used == 0
    assert led.last_finished == "c"


def test_ledger_finish_without_a_grant_keeps_the_queued_ask():
    led, grants = recording_ledger(1)
    led.ask("a"); led.ask("b")
    led.finish("b")  # b holds no grant: nothing is freed
    assert led.granted == {"a"} and list(led.pending) == ["b"] and grants == ["a"]
    led.finish("a")
    assert grants == ["a", "b"]


def test_ledger_duplicate_ask_ignored():
    led, grants = recording_ledger(1)
    assert led.ask("a") == "grant"
    assert led.ask("a") == "duplicate"
    led.ask("b")
    assert led.ask("b") == "duplicate"
    assert grants == ["a"]


def test_ledger_reset_on_leader_change():
    led, grants = recording_ledger(2)
    led.ask("a"); led.ask("b"); led.ask("c")
    led.reset()
    assert led.used == 0 and not led.pending
    # a finish from the pre-reset grant must not drive usage negative
    led.finish("a")
    assert led.used == 0 and grants == ["a", "b"]
    assert led.ask("x") == "grant"
    assert led.ask("y") == "grant"
    assert led.ask("z") == "queued"  # 5-node quorum 3: two may collect
    assert grants == ["a", "b", "x", "y"]


def test_ledger_reset_keeps_carried_grants():
    led, grants = recording_ledger(2)
    led.ask("a"); led.ask("b"); led.ask("c")
    led.reset(["b"])  # a successor takes over a live grant
    assert led.granted == {"b"} and not led.pending
    assert led.ask("b") == "duplicate"
    assert led.ask("x") == "grant"
    assert led.ask("y") == "queued"
    led.finish("b")
    assert grants == ["a", "b", "x", "y"]
    with pytest.raises(ValueError):
        led.reset(["p", "q", "r"])
    assert led.granted == {"x", "y"}  # a refused reset changes nothing


def test_ledger_allow_may_finish_the_node_it_was_just_given():
    # a leader granted its own slot with nothing deferred frees it from
    # inside the grant hook: the slot passes on, and the next asker is
    # granted exactly once
    def on_grant(led, node):
        if node == "self":
            led.finish(node)
    led, grants = recording_ledger(1, on_grant)
    assert led.ask("self") == "grant"
    assert grants == ["self"] and led.used == 0 and led.last_finished == "self"
    led.ask("a"); led.ask("self"); led.ask("b")
    led.finish("a")
    assert grants == ["self", "a", "self", "b"]
    assert led.granted == {"b"} and not led.pending
    assert led.last_finished == "self"


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(["ask", "finish", "reset"]),
                          st.sampled_from(list("abcde"))), max_size=80),
       st.integers(3, 7))
def test_ledger_never_breaks_quorum(ops, size):
    # Even sizes too: a RaftNode built directly may have one.
    led = make_cluster(n=size)[1][0].ledger
    capacity = size - (size // 2 + 1)
    grants = []

    def allow(node):
        assert node in led.granted
        grants.append(node)
    led.allow = allow
    for op, node in ops:
        before, pending = set(led.granted), list(led.pending)
        grants.clear()
        if op == "ask":
            led.ask(node)
        elif op == "finish":
            led.finish(node)
        else:
            led.reset()
            assert led.used == 0 and not led.pending
        # each new grant is allowed once, to the first asker still queued
        assert grants == sorted(led.granted - before)
        assert grants in ([], [node], pending[:1])
        assert led.used <= capacity
        assert not (led.granted & set(led.pending))


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


def test_fan_out_shares_one_message_per_next_index_in_peer_order():
    sim, nodes, clients, samples, _ = make_cluster(n=5)
    sim.run_until(1_000)  # every follower holds the leader's first entry
    leader = nodes[0]
    leader.next_index["n2"] = 1  # n2 lags: it is sent the whole log
    sent = []
    send = sim.send
    sim.send = lambda src, dst, msg: sent.append((dst, msg)) or send(src, dst, msg)
    leader.deliver("c0", ClientRequest("c0", 1, ("set", "k", 7)))
    appends = [(dst, msg) for dst, msg in sent if type(msg) is AppendEntries]
    assert [dst for dst, _ in appends] == ["n1", "n2", "n3", "n4"]
    (_, one), (_, lagging), (_, three), (_, four) = appends
    assert one is three is four
    assert (one.prev_index, one.entries) == (1, tuple(leader.log[1:]))
    assert (lagging.prev_index, lagging.entries) == (0, tuple(leader.log))


# -- the replication handlers against the loops they replaced -----------------------


class ReferenceRaftNode(RaftNode):
    """The per-index commit rescan, per-entry append loop and apply loop that
    the fast paths of :class:`RaftNode` replaced, kept as an oracle."""

    def _on_append(self, src, m):
        if m.term < self.term:
            self._send(src, AppendReply(self.term, False, 0))
            return
        self._become_follower(m.term, m.leader)
        if m.prev_index > len(self.log) or \
                (m.prev_index >= 1 and self._term_at(m.prev_index) != m.prev_term):
            self._send(src, AppendReply(self.term, False, 0))
            return
        for k, entry in enumerate(m.entries):
            idx = m.prev_index + 1 + k
            if idx <= len(self.log):
                if self.log[idx - 1][0] != entry[0]:
                    del self.log[idx - 1:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        new_commit = min(m.leader_commit, len(self.log))
        if new_commit > self.commit_index:
            self.commit_index = new_commit
            self._apply_committed()
        self._send(src, AppendReply(self.term, True, m.prev_index + len(m.entries)))

    def _advance_commit(self):
        n = len(self.log)
        while n > self.commit_index:
            acks = 1 + sum(1 for p in self.peers if self.match_index[p] >= n)
            if acks >= self.majority and self.log[n - 1][0] == self.term:
                break
            n -= 1
        if n > self.commit_index:
            self.commit_index = n
            self._apply_committed()

    def _apply_committed(self):
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            term, op, rid = self.log[self.last_applied - 1]
            if op[0] == "set":
                self.kv[op[1]] = op[2]
                self.runtime.allocate(self.bytes_per_request)
            self.trace.record_apply(self.id, self.last_applied, self.log[self.last_applied - 1])
            pending = self._awaiting_commit.pop(self.last_applied, None)
            if pending is not None and pending[1] == rid and self.role is Role.LEADER:
                self._schedule_reply(pending[0], ClientReply(rid, "ok", self.leader_hint))


def lone_node(cls, size, log_terms, tag):
    """Node n1 of a ``size``-server cluster whose other members and client c0
    only record what they receive; its log holds one set per term given,
    each with its index as its rid."""
    sim = Simulation(seed=1, network=NetworkModel.from_rtt(RTT))
    ids = ["n1"] + [f"n{i}" for i in range(size + 1) if i != 1][:size - 1]
    received = []
    for other in ids[1:] + ["c0"]:
        sim.add_node(other, lambda src, msg, dst=other:
                     received.append((sim.now, src, dst, msg)))
    runtime = ManagedRuntime(sim, "n1", HeapModel(100 * MIB, 200 * MIB, GIB),
                             CollectorCostModel(25_000, 1_000), mode=GcMode.OFF)
    node = cls(sim, "n1", ids, runtime, RaftTrace(), client_ids=["c0"])
    node.log[:] = [(t, ("set", f"k{i % 3}", (tag, i)), i + 1)
                   for i, t in enumerate(log_terms)]
    sim.run_until(1_000)
    return sim, node, received


def node_state(node, received):
    return (node.term, node.role, node.voted_for, node.leader_hint, node.last_contact,
            node.log, node.commit_index, node.last_applied, node.kv,
            node.trace.applied, node.trace.applied_by, node.trace.last_applied,
            node.trace.violations, node.trace.role_changes, node._awaiting_commit,
            [(due, reply, sent) for _client, reply, due, _handle, sent
             in node._replies], received)


_terms = st.lists(st.integers(1, 4), max_size=8).map(sorted)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 7), _terms, st.data())
def test_commit_rule_matches_the_per_index_rescan(size, log_terms, data):
    term = data.draw(st.integers(max(log_terms, default=1), 5), label="term")
    matches = data.draw(st.lists(st.integers(0, len(log_terms) + 1),
                                 min_size=size - 1, max_size=size - 1), label="matches")
    commit = data.draw(st.integers(0, len(log_terms)), label="commit")
    waiting = data.draw(st.sets(st.integers(commit + 1, len(log_terms) + 1)),
                        label="awaiting")
    # a set appended at one of these indexes was lost: another entry is there
    lost = data.draw(st.sets(st.integers(commit + 1, len(log_terms) + 1)), label="lost")
    states = []
    for cls in (RaftNode, ReferenceRaftNode):
        sim, node, received = lone_node(cls, size, log_terms, "l")
        node.term, node.role, node.leader_hint = term, Role.LEADER, "n1"
        node.commit_index = node.last_applied = commit
        node.match_index = dict(zip(node.peers, matches))
        node._awaiting_commit.update((i, ("c0", -i if i in lost else i)) for i in waiting)
        node._advance_commit()
        sim.run_until(2_000)
        states.append(node_state(node, received))
    assert states[0] == states[1]


@settings(max_examples=600, deadline=None)
@given(_terms, st.data())
def test_follower_append_matches_the_entry_loop(log_terms, data):
    """Appends that hit or miss ``prev_index``, overlap the log, conflict
    with it and truncate it, or come from a stale term or an unknown leader."""
    term = data.draw(st.integers(max(log_terms, default=1), 5), label="term")
    role = data.draw(st.sampled_from([Role.FOLLOWER, Role.CANDIDATE]), label="role")
    hint = None if role is Role.CANDIDATE else data.draw(
        st.sampled_from([None, "n0", "n2"]), label="hint")
    commit = data.draw(st.integers(0, len(log_terms)), label="commit")
    prev = data.draw(st.integers(0, len(log_terms) + 1), label="prev_index")
    if prev and prev <= len(log_terms) and data.draw(st.booleans(), label="hit"):
        prev_term = log_terms[prev - 1]
    else:
        prev_term = data.draw(st.integers(0, 5), label="prev_term")
    entries = data.draw(st.lists(st.integers(1, 5), max_size=5).map(sorted),
                        label="entry terms")
    m_term = data.draw(st.integers(max(term - 1, 0), term + 1), label="m.term")
    leader_commit = data.draw(st.integers(0, prev + len(entries) + 1),
                              label="leader_commit")
    msg = AppendEntries(m_term, "n0", prev, prev_term,
                        tuple((t, ("set", "k", ("l", k)), None)
                              for k, t in enumerate(entries)), leader_commit)
    states = []
    for cls in (RaftNode, ReferenceRaftNode):
        sim, node, received = lone_node(cls, 3, log_terms, "f")
        node.term, node.role, node.leader_hint = term, role, hint
        node.commit_index = node.last_applied = commit
        node.deliver("n0", msg)
        sim.run_until(2_000)
        states.append(node_state(node, received))
    assert states[0] == states[1]


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
    client = SampledClient(sim, "c0", "s0", TIMEOUT, lambda row: samples.append(row[:3]))
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


def test_a_duplicate_answer_never_reaches_the_record():
    # s0 answers a get only once it is retried, and then answers both sends:
    # the client records the first answer and drops the second, which the
    # run's completion record would refuse
    sim = Simulation(seed=1, network=NetworkModel.from_rtt(RTT))
    record = Completions([1_000], ["get"], ["s0"], lambda: sim.now)
    sends = []

    def s0(src, msg):
        sends.append(msg)
        if len(sends) == 2:
            for sent in sends:
                sim.send("s0", src, ClientReply(sent.rid, "v", "s0"))
    sim.add_node("s0", s0)
    client = RaftClient(sim, "c0", "s0", TIMEOUT, record.add)
    sim.schedule_at(1_000, lambda _: client.submit(1, ("get", "k")))
    sim.run_until(35_000)
    assert len(sends) == 2 and client.retries == 1 and not client.outstanding
    assert list(record) == [(1, 1_000, 11_000 + RTT, "s0", "get")]


def test_redirect_resends_at_once_and_keeps_the_deadline():
    def redirect_from_s0(dst, msg):
        return ClientReply(msg.rid, None, "s1", redirect=True) if dst == "s0" else None
    sim, client, received, _ = make_client(redirect_from_s0)
    sim.schedule_at(1_000, lambda _: client.submit(1, ("set", "k", 1)))
    sim.run_until(25_000)
    assert received == [(1_000 + HALF, "s0", 1), (1_000 + RTT + HALF, "s1", 1),
                        (11_000 + HALF, "s1", 1), (21_000 + HALF, "s1", 1)]
    assert client.retries == 3


def test_redirect_naming_the_believed_leader_is_resent():
    # after a leadership notice, the old leader's redirect names the node the
    # client already believes in; the request must still go there at once
    def redirect_from_s0(dst, msg):
        return ClientReply(msg.rid, None, "s1", redirect=True) if dst == "s0" else None
    sim, client, received, _ = make_client(redirect_from_s0)
    sim.schedule_at(1_000, lambda _: client.submit(1, ("set", "k", 1)))
    sim.schedule_at(1_010, lambda _: client.deliver("s0", LeaderNotice("s1")))
    sim.run_until(5_000)
    assert received == [(1_000 + HALF, "s0", 1), (1_000 + RTT + HALF, "s1", 1)]
    assert client.retries == 1


def test_reply_hint_older_than_a_leader_notice_is_ignored():
    sim, client, received, samples = make_client(lambda dst, msg: None)
    sim.schedule_at(1_000, lambda _: client.submit(1, ("get", "k")))
    sim.schedule_at(1_100, lambda _: client.deliver("s0", LeaderNotice("s1")))
    # the old leader answered before its handoff, but the answer comes late
    sim.schedule_at(1_110, lambda _: client.deliver("s0", ClientReply(1, "v", "s0")))
    sim.schedule_at(1_200, lambda _: client.submit(2, ("get", "k")))
    sim.run_until(2_000)
    assert samples == [(1, 1_000, 1_110)]
    assert [(server, rid) for _t, server, rid in received] == [("s0", 1), ("s1", 2)]


# -- client replies -------------------------------------------------------------------


def test_a_get_fires_three_events_and_sends_two_messages():
    sim, nodes, clients, samples, trace = make_cluster(mode=GcMode.OFF)
    sim.run_until(1_000)  # the leader's first fan-out is answered
    before = (sim.events_fired, sim.messages_sent)
    sim.schedule_at(2_000, lambda _: clients[0].submit(1, ("get", "k")))
    sim.run_until(3_000)
    # the arrival, the request's delivery and the reply's delivery: the
    # reply is sent to depart when its service ends, with no timer
    assert (sim.events_fired - before[0], sim.messages_sent - before[1]) == (3, 2)
    assert [(s[0], s[2] - s[1]) for s in samples] == [(1, RTT + 400)]


def pausing_leader():
    """A gc-on cluster whose leader n0 pauses each time ``pause`` runs."""
    sim, nodes, clients, samples, trace = make_cluster(mode=GcMode.ON)
    sim.run_until(1_000)
    return sim, nodes[0], clients, samples, lambda _: nodes[0].runtime.allocate(250 * MIB)


def test_a_pause_before_a_reply_departs_holds_it_until_the_wake():
    sim, leader, clients, samples, pause = pausing_leader()
    sent = sim.messages_sent
    # the get reaches n0 at 2_024 and its answer is due to depart at 2_424
    sim.schedule_at(2_000, lambda _: clients[0].submit(1, ("get", "k")))
    sim.schedule_at(2_100, pause)
    sim.run_until(20_000)
    (p,) = leader.runtime.pauses
    assert p.start_us == 2_100 < 2_424 < p.end_us
    assert [(s[0], s[2]) for s in samples] == [(1, p.end_us + HALF)]
    assert sim.messages_sent - sent == 2  # the recalled reply counts once


@pytest.mark.parametrize("queued_first", [True, False])
def test_a_pause_at_a_replys_departure_holds_it_if_queued_before_it(queued_first):
    sim, leader, clients, samples, pause = pausing_leader()
    sim.schedule_at(2_000, lambda _: clients[0].submit(1, ("get", "k")))
    if queued_first:  # before n0 sends the reply at 2_024
        sim.schedule_at(2_424, pause)
    else:
        sim.schedule_at(2_200, lambda _: sim.schedule_at(2_424, pause))
    sim.run_until(20_000)
    (p,) = leader.runtime.pauses
    assert p.start_us == 2_424
    departed = p.end_us if queued_first else 2_424
    assert [(s[0], s[2]) for s in samples] == [(1, departed + HALF)]


def test_no_reply_departs_inside_back_to_back_leader_pauses():
    sim, leader, clients, samples, pause = pausing_leader()
    departures = []
    for client in clients:
        def record(src, msg, client=client):
            if type(msg) is ClientReply:
                departures.append(sim.now - HALF)
            client.deliver(src, msg)
        sim.add_node(client.id, record)
    for i in range(100):
        sim.schedule_at(1_000 + 97 * i, lambda _, r=i: clients[r % 2].submit(r, ("get", "k")))
    first = 2_100 + leader.runtime.cost.pause_us(leader.runtime.heap.live_bytes)
    sim.schedule_at(2_100, pause)
    sim.schedule_at(first, pause)  # queued before the first pause's wake
    sim.run_until(100_000)
    p1, p2 = leader.runtime.pauses
    assert p1.end_us == p2.start_us == first
    assert len(samples) == len(departures) == 100
    assert not [t for t in departures for p in (p1, p2) if p.start_us <= t < p.end_us]
    assert departures.count(p2.end_us) > 1  # held replies leave at the wake


# -- fast leadership handoff ---------------------------------------------------------


def test_switch_activates_successor_half_rtt_after_broadcast():
    sim, nodes, clients, samples, trace = make_cluster()
    sim.schedule_at(10_000, lambda _: nodes[0].request_leader_switch("n1"))
    sim.run_until(100_000)
    (t_switch, old, new, term), = trace.switches
    assert (old, new) == ("n0", "n1")
    leadership = [(t, node) for node, changes in trace.role_changes.items()
                  for t, tm, role in changes if role is Role.LEADER and tm == term]
    assert leadership == [(t_switch + HALF, "n1")]
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


def test_reply_pending_across_a_handoff_names_the_successor():
    sim, nodes, clients, samples, trace = make_cluster()
    hints = []

    def record(src, msg, client=clients[0]):
        if type(msg) is ClientReply:
            hints.append((msg.rid, msg.leader_hint))
        client.deliver(src, msg)
    sim.add_node("c0", record)
    # the get reaches n0 at 1_024 and its answer is due at 1_424, after the
    # handoff: n1 sends it, and the client's next request goes straight to n1
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("get", "k")))
    sim.schedule_at(1_100, lambda _: nodes[0].request_leader_switch("n1"))
    sim.schedule_at(2_000, lambda _: clients[0].submit(2, ("get", "k")))
    sim.run_until(10_000)
    assert [(s[0], s[2] - s[1], s[3]) for s in samples] == \
           [(1, RTT + 400, "n1"), (2, RTT + 400, "n1")]
    assert hints == [(1, "n1"), (2, "n1")]


def test_pending_reply_rides_along_a_second_handoff():
    sim, nodes, clients, samples, trace = make_cluster()
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("get", "k")))
    sim.schedule_at(1_100, lambda _: nodes[0].request_leader_switch("n1"))
    # n1 hands on to n2 before the answer is due, then stalls
    sim.schedule_at(1_200, lambda _: nodes[1].request_leader_switch("n2"))
    sim.schedule_at(1_300, lambda _: setattr(nodes[1].runtime, "paused_until", 50_000))
    sim.run_until(100_000)
    assert [(n, m) for _t, n, m, _term in trace.switches] == [("n0", "n1"), ("n1", "n2")]
    assert [(s[0], s[2] - s[1], s[3]) for s in samples] == [(1, RTT + 400, "n2")]


def test_handoff_waits_until_every_entry_is_committed():
    sim, nodes, clients, samples, trace = make_cluster(n=5)
    for follower in nodes[2:]:
        follower.runtime.paused_until = 20_000  # no majority until they return
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("set", "k", 1)))
    # n1 holds the entry at 1_024, but it is not committed
    sim.schedule_at(2_000, lambda _: nodes[0].request_leader_switch("n1"))
    sim.run_until(200_000)
    (t_switch, old, new, _term), = trace.switches
    assert (old, new) == ("n0", "n1")
    assert t_switch >= 50_000 + RTT  # the first heartbeat after 20_000 commits it
    assert [s[0] for s in samples] == [1]
    for log in trace.final_logs.values():  # appended once, not again by n1
        assert [rid for _term, _op, rid in log if rid is not None] == [1]


def test_handoff_skips_a_successor_granted_while_catching_up():
    sim, nodes, clients, samples, trace = make_cluster(n=5)
    n1 = nodes[1]
    n1.runtime.paused_until = 60_000  # n1 misses the set below
    sim.schedule_at(2_000, lambda _: clients[0].submit(1, ("set", "k", 1)))
    sim.schedule_at(3_000, lambda _: nodes[0].request_leader_switch("n1"))
    # n1 wants to collect but knows no leader until the heartbeat of 100_000
    # reaches it; its ask then reaches n0 just before the append reply that
    # makes it eligible, so n0 grants it first
    sim.schedule_at(99_990, lambda _: n1.runtime.allocate(250 * MIB))
    sim.run_until(300_000)
    (t_switch, old, new, _term), = trace.switches
    assert t_switch == 100_000 + RTT and old == "n0" and new != "n1"
    assert n1.runtime.pauses[0].start_us == 100_000 + HALF + RTT
    assert n1.role is Role.FOLLOWER


def test_successor_keeps_the_grants_of_the_old_leader():
    sim, nodes, clients, samples, trace = make_cluster(n=5)
    n1, n2 = nodes[1], nodes[2]
    sim.schedule_at(1_000, lambda _: n2.runtime.allocate(250 * MIB))
    sim.schedule_at(2_000, lambda _: nodes[0].request_leader_switch("n1"))
    held = []
    sim.schedule_at(3_000, lambda _: held.append(set(n1.ledger.granted)))
    sim.run_until(10_000)
    pause = n2.runtime.pauses[0]
    assert pause.start_us == 1_000 + RTT and pause.end_us < 10_000 - RTT
    assert held == [{"n2"}]
    # n2 learned of the handoff while paused: its done goes to n1
    assert n1.ledger.used == 0 and n1.ledger.last_finished == "n2"


def test_a_done_reaching_the_old_leader_is_passed_on_to_the_successor():
    # n1 is granted at 1,024 us and pauses from 1,048 to 4,489 us; its done
    # is on the wire to n0 when n0, granting itself the second slot, hands
    # off to n3 at 4,470 us.  n2 asks n3 once it hears of the handoff and
    # queues behind the two carried grants.  n0 passes n1's done on, which
    # frees n1's slot at n3 and grants it to n2
    sim, nodes, clients, samples, trace = make_cluster(n=5)
    n0, n2, n3 = nodes[0], nodes[2], nodes[3]
    n0._pick_successor = lambda: "n3"
    log = record_deliveries(sim, nodes)
    sim.schedule_at(1_000, lambda _: nodes[1].runtime.allocate(250 * MIB))
    sim.schedule_at(4_470, lambda _: n0.runtime.allocate(250 * MIB))
    sim.schedule_at(4_475, lambda _: n2.runtime.allocate(250 * MIB))
    held = []
    for t in (4_530, 4_540):
        sim.schedule_at(t, lambda _: held.append(
            (set(n3.ledger.granted), list(n3.ledger.pending))))
    sim.run_until(20_000)
    assert nodes[1].runtime.pauses[0].end_us == 4_489
    assert trace.switches == [(4_470, "n0", "n3", 2)]
    assert held == [({"n0", "n1"}, ["n2"]), ({"n0", "n2"}, [])]
    assert [(t, src, dst) for t, src, dst, kind in log if kind == "DoneGC"][:2] == \
           [(4_489 + HALF, "n1", "n0"), (4_489 + RTT, "n0", "n3")]
    assert n2.runtime.pauses[0].start_us == 4_489 + RTT + HALF


def test_a_done_ahead_of_the_handoff_goes_back_until_the_successor_leads():
    # n0 hands off to n3 at 2,000 us, carrying n1's grant.  A done for n1
    # reaches n3 at 2,005 us, before the switch does (as jitter may let it):
    # n3 still follows n0 and sends it back there, and n0 passes it on again,
    # to reach n3 once it leads
    sim, nodes, clients, samples, trace = make_cluster(n=5)
    n3 = nodes[3]
    sim.schedule_at(1_000, lambda _: nodes[1].runtime.allocate(250 * MIB))
    sim.schedule_at(2_000, lambda _: nodes[0].request_leader_switch("n3"))
    sim.schedule_at(2_005, lambda _: n3.deliver("n0", DoneGC("n1")))
    held = []
    for t in (2_030, 2_060):
        sim.schedule_at(t, lambda _: held.append((n3.role, set(n3.ledger.granted))))
    sim.run_until(4_000)
    assert nodes[1].runtime.is_paused
    assert held == [(Role.LEADER, {"n1"}), (Role.LEADER, set())]


def test_old_leader_is_granted_by_its_successor_without_asking():
    sim, nodes, clients, samples, trace = make_cluster()
    # the followers drop every ask: the grant n0 gave itself travels in the
    # handoff instead
    for node in nodes[1:]:
        sim.add_node(node.id, lambda src, msg, node=node:
                     None if type(msg) is AskGC else node.deliver(src, msg))
    sim.schedule_at(5_000, lambda _: nodes[0].runtime.allocate(250 * MIB))
    sim.run_until(1_000_000)
    (t_switch, _old, _new, _term), = trace.switches
    assert [p.start_us for p in nodes[0].runtime.pauses] == [t_switch + RTT]


def record_deliveries(sim, nodes):
    """Log every message the ``nodes`` receive as (time, src, dst, type name)."""
    log = []
    for node in nodes:
        def deliver(src, msg, node=node):
            log.append((sim.now, src, node.id, type(msg).__name__))
            node.deliver(src, msg)
        sim.add_node(node.id, deliver)
    return log


def test_handoff_carrying_the_own_grant_sends_no_ask():
    sim, nodes, clients, samples, trace = make_cluster()
    log = record_deliveries(sim, nodes)
    sim.schedule_at(5_000, lambda _: nodes[0].runtime.allocate(250 * MIB))
    sim.run_until(1_000_000)
    (t_switch, _old, new, _term), = trace.switches
    assert [(t, src, dst, kind) for t, src, dst, kind in log
            if kind in ("AskGC", "AllowGC")] == [(t_switch + RTT, new, "n0", "AllowGC")]
    assert [p.start_us for p in nodes[0].runtime.pauses] == [t_switch + RTT]


def test_handoff_while_the_own_ask_is_queued_asks_the_successor():
    sim, nodes, clients, samples, trace = make_cluster()
    log = record_deliveries(sim, nodes)
    sim.schedule_at(1_000, lambda _: nodes[1].runtime.allocate(250 * MIB))
    sim.schedule_at(1_100, lambda _: nodes[0].runtime.allocate(250 * MIB))  # queued behind n1
    sim.schedule_at(1_200, lambda _: nodes[0].request_leader_switch("n2"))
    sim.run_until(1_000_000)
    assert trace.switches == [(1_200, "n0", "n2", 2)]
    assert [(t, src, dst) for t, src, dst, kind in log if kind == "AskGC"] == \
           [(1_000 + HALF, "n1", "n0"), (1_200 + HALF, "n0", "n2")]
    n0_pause, n1_pause = nodes[0].runtime.pauses[0], nodes[1].runtime.pauses[0]
    assert n0_pause.start_us == n1_pause.end_us + RTT  # n2 grants it after n1's done


def test_non_successor_ignores_the_carried_replies_and_grants():
    sim, nodes, clients, samples, trace = make_cluster(n=5)
    replies = []

    def record(src, msg, client=clients[0]):
        if type(msg) is ClientReply:
            replies.append((src, msg.rid))
        client.deliver(src, msg)
    sim.add_node("c0", record)
    # the switch carries n2's grant and the pending answer to the get
    sim.schedule_at(1_000, lambda _: nodes[2].runtime.allocate(250 * MIB))
    sim.schedule_at(1_000, lambda _: clients[0].submit(1, ("get", "k")))
    sim.schedule_at(1_100, lambda _: nodes[0].request_leader_switch("n1"))
    held = []
    sim.schedule_at(1_100 + HALF + 1, lambda _: held.append(
        (list(nodes[3]._replies), set(nodes[3].ledger.granted),
         set(nodes[1].ledger.granted))))
    sim.run_until(100_000)
    assert held == [([], set(), {"n2"})]
    assert nodes[3].leader_hint == "n1" and nodes[3].role is Role.FOLLOWER
    assert replies == [("n1", 1)]


def test_a_switch_is_refused_by_a_non_leader_or_to_a_bad_successor():
    sim, nodes, clients, samples, trace = make_cluster()
    with pytest.raises(ValueError, match="n1 is not the leader"):
        nodes[1].request_leader_switch("n2")
    for successor in ("n0", "n9"):
        with pytest.raises(ValueError, match="bad switch successor"):
            nodes[0].request_leader_switch(successor)
    assert nodes[0].switch_target is nodes[1].switch_target is None


def test_a_stale_switch_and_a_duplicate_at_the_new_leader_change_nothing():
    sim, nodes, clients, samples, trace = make_cluster()
    sim.run_until(1_000)
    roles = {node: list(changes) for node, changes in trace.role_changes.items()}
    sent = sim.messages_sent
    # n1 is at term 1: a switch to term 0 is stale; n0 already leads term 1
    nodes[1].deliver("n2", FastSwitch(0, "n2", (), ()))
    nodes[0].deliver("n2", FastSwitch(1, "n0", (("c0", ClientReply(1, "v", "n0"), 1_000),), ()))
    assert [(n.term, n.role, n.leader_hint) for n in nodes[:2]] == \
           [(1, Role.LEADER, "n0"), (1, Role.FOLLOWER, "n0")]
    assert trace.role_changes == roles and sim.messages_sent == sent


def test_a_handoff_carries_a_held_reply_and_cancels_its_timer():
    # n0's pause holds its answer in a timer at the answer's departure; a
    # handoff during the pause cancels that timer, and n1, the successor,
    # sends the answer once, when the switch reaches it
    sim, leader, clients, samples, pause = pausing_leader()
    replies = []

    def record(src, msg, client=clients[0]):
        if type(msg) is ClientReply:
            replies.append((sim.now, src, msg.rid))
        client.deliver(src, msg)
    sim.add_node("c0", record)
    sim.schedule_at(2_000, lambda _: clients[0].submit(1, ("get", "k")))
    sim.schedule_at(2_100, pause)
    sim.schedule_at(2_200, lambda _: leader.request_leader_switch("n1"))
    sim.run_until(100_000)
    (p,) = leader.runtime.pauses
    assert p.start_us == 2_100 < 2_424 < p.end_us
    assert replies == [(p.end_us + RTT, "n1", 1)]


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
    assert sum(p.forced for p in f.runtime.pauses) == 1
    assert f.runtime.collection_count() == 1  # the eventual allow was a no-op
    assert nodes[0].ledger.used == 0          # done sent anyway, slot freed


def test_late_allow_starts_the_collection_deferred_since_a_forced_one():
    # as above, but n1 defers a second collection the instant its forced
    # pause ends, just before the allow for the forced one is handled: the
    # allow admits n1, so it starts the collection it has deferred now
    sim, nodes, clients, samples, _ = make_cluster(live=100, trigger=200,
                                                   hard=400, overhead=100_000)
    f = nodes[1]
    sim.schedule_at(1_000, lambda _: nodes[2].runtime.allocate(250))
    sim.schedule_at(2_000, lambda _: f.runtime.allocate(150))
    sim.schedule_at(3_000, lambda _: f.runtime.allocate(300))  # exhaustion
    sim.schedule_at(103_000, lambda _: f.runtime.allocate(150))
    sim.run_until(3_000_000)
    assert [(p.ticket_id, p.start_us, p.forced) for p in f.runtime.pauses] == \
           [(1, 3_000, True), (2, 103_000, False)]
    assert nodes[0].ledger.used == 0


def test_forced_collection_sends_no_done_and_the_handoff_drops_its_ask():
    # n1's ask waits behind n2's 50 ms collection when exhaustion forces n1
    # to collect.  n1 sends nothing when its pause ends; the ask stays queued
    # at n0 until n0 hands off to n1, whose ledger starts with n2's grant
    # alone.  Leading with nothing deferred, n1 neither asks itself nor hands
    # off.
    sim, nodes, clients, samples, trace = make_cluster(live=100, trigger=200,
                                                       hard=400, overhead=50_000)
    f = nodes[1]
    log = record_deliveries(sim, nodes)
    sim.schedule_at(1_000, lambda _: nodes[2].runtime.allocate(250))
    sim.schedule_at(1_001, lambda _: f.runtime.allocate(150))  # queued behind n2
    sim.schedule_at(1_002, lambda _: f.runtime.allocate(300))  # exhaustion
    queued = []
    sim.schedule_at(51_009, lambda _: queued.append(list(nodes[0].ledger.pending)))
    sim.schedule_at(51_010, lambda _: nodes[0].request_leader_switch("n1"))
    sim.run_until(1_000_000)
    assert [(p.start_us, p.end_us, p.forced) for p in f.runtime.pauses] == \
           [(1_002, 51_002, True)]
    assert queued == [["n1"]]
    assert trace.switches == [(51_010, "n0", "n1", 2)]
    assert [(t, src, dst, kind) for t, src, dst, kind in log if kind.endswith("GC")] == [
        (1_000 + HALF, "n2", "n0", "AskGC"), (1_001 + HALF, "n1", "n0", "AskGC"),
        (1_000 + RTT, "n0", "n2", "AllowGC"),
        (51_048 + HALF, "n2", "n1", "DoneGC")]
    assert f.ledger.used == 0 and not f.ledger.pending


def test_a_leader_granted_its_slot_with_nothing_deferred_passes_it_on():
    # n0 leads and queues its own ask behind n2's grant, then exhaustion
    # forces its collection; n1 asks after it.  n2's done grants n0 its own
    # slot with nothing deferred: n0 frees it at once, without a handoff or a
    # message to itself, and the slot goes to n1
    sim, nodes, clients, samples, trace = make_cluster(live=100, trigger=200,
                                                       hard=400, overhead=50_000)
    n0 = nodes[0]
    log = record_deliveries(sim, nodes)
    ledger = n0.ledger
    calls = []  # (time, "finish" or "allow", node), in the order they are made
    finish, allow = ledger.finish, ledger.allow

    def spy(name, call):
        def record(node):
            calls.append((sim.now, name, node))
            call(node)
        return record
    ledger.finish, ledger.allow = spy("finish", finish), spy("allow", allow)
    sim.schedule_at(1_000, lambda _: nodes[2].runtime.allocate(250))  # granted at 1,024
    sim.schedule_at(1_030, lambda _: n0.runtime.allocate(150))        # queued behind n2
    sim.schedule_at(1_031, lambda _: nodes[1].runtime.allocate(150))  # queued behind n0
    sim.schedule_at(1_040, lambda _: n0.runtime.allocate(300))        # exhaustion
    sim.run_until(1_000_000)
    assert [(p.start_us, p.end_us, p.forced) for p in n0.runtime.pauses] == \
           [(1_040, 51_040, True)]
    assert calls == [(1_024, "allow", "n2"),
                     (51_072, "finish", "n2"), (51_072, "allow", "n0"),
                     (51_072, "finish", "n0"), (51_072, "allow", "n1"),
                     (101_120, "finish", "n1")]
    assert trace.switches == [] and n0.role is Role.LEADER
    assert [(t, src, dst, kind) for t, src, dst, kind in log if kind.endswith("GC")] == [
        (1_000 + HALF, "n2", "n0", "AskGC"), (1_000 + RTT, "n0", "n2", "AllowGC"),
        (1_031 + HALF, "n1", "n0", "AskGC"), (51_048 + HALF, "n2", "n0", "DoneGC"),
        (51_072 + HALF, "n0", "n1", "AllowGC"), (101_096 + HALF, "n1", "n0", "DoneGC")]
    assert [(p.start_us, p.forced) for p in nodes[1].runtime.pauses] == [(51_096, False)]


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
    send_ask = leader.grantee.send_ask
    leader.grantee.send_ask = lambda: None  # defer without asking yet
    sim.schedule_at(1_000, lambda _: leader.runtime.allocate(250 * MIB))
    sim.schedule_at(1_010, lambda _: setattr(leader.grantee, "send_ask", send_ask))
    sim.schedule_at(1_020, lambda _: leader.deliver("n1", AllowGC()))
    sim.run_until(3_000_000)
    assert leader.runtime.collection_count() == 1
    pause = leader.runtime.pauses[0]
    assert trace.role_at("n0", pause.start_us) is not Role.LEADER
    assert len(trace.switches) == 1


def test_no_grant_while_an_earlier_grantee_is_paused():
    # n2 is granted at 1,024 us and pauses from 1,048 to 101,048 us; n1 asks
    # meanwhile and waits for the only slot
    sim, nodes, clients, samples, _ = make_cluster(live=100, trigger=200,
                                                   hard=400, overhead=100_000)
    leader = nodes[0]
    grants, allow = [], leader.ledger.allow

    def spy(node):
        paused = [g for g in grants if g != node and nodes[int(g[1])].runtime.is_paused]
        assert not paused, f"{node} granted at {sim.now} us while {paused} paused"
        grants.append(node)
        allow(node)
    leader.ledger.allow = spy
    sim.schedule_at(1_000, lambda _: nodes[2].runtime.allocate(250))
    sim.schedule_at(2_000, lambda _: nodes[1].runtime.allocate(150))
    sim.run_until(300_000)
    assert grants[0] == "n2" and "n1" in grants


# -- elections ------------------------------------------------------------------------


def test_a_reply_with_a_newer_term_makes_a_candidate_or_a_leader_step_down():
    sim, nodes, clients, samples, trace = make_cluster()
    sim.run_until(1_000)
    nodes[1]._become_candidate()  # term 2
    nodes[1].deliver("n2", VoteReply(3, False))
    nodes[0].deliver("n2", AppendReply(4, False, 0))
    assert [(n.term, n.role) for n in nodes[:2]] == [(4, Role.FOLLOWER), (3, Role.FOLLOWER)]


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
    leaderships = [c for cs in trace.role_changes.values() for c in cs
                   if c[2] is Role.LEADER]
    assert len(leaderships) >= 2  # someone took over
    assert check_history(trace) == []
    assert len(samples) == 200  # every request answered eventually


def test_a_stale_log_never_wins_an_election():
    # n2 hears no appends from 5 ms to 600 ms, so its log stops at the
    # bootstrap entry while n0 and n1 commit sets; its vote requests must be
    # refused, or it would lead and overwrite entries they have applied
    sim, nodes, clients, samples, trace = make_cluster()
    stale = nodes[2]

    def lossy(src, msg):
        if not (isinstance(msg, AppendEntries) and 5_000 <= sim.now < 600_000):
            stale.deliver(src, msg)

    sim.add_node(stale.id, lossy)
    for i in range(40):
        sim.schedule_at(10_000 * (i + 1),
                        lambda _, r=i: clients[r % 2].submit(r, ("set", "x", r)))
    sim.run_until(2_000_000)
    assert any(role is Role.CANDIDATE for _t, _term, role in trace.role_changes["n2"])
    assert check_history(trace) == []
    assert all(role is not Role.LEADER for _t, _term, role in trace.role_changes["n2"])
    assert len(samples) == 40


def faulty_links(sim, nodes):
    """Route every delivery through a filter; returns ``at(ms, step)`` and
    the sets of servers that are down and of (src, dst) links that are cut."""
    down, cut = set(), set()

    def sink(node):
        def deliver(src, msg):
            if not (src in down or node.id in down or (src, node.id) in cut):
                node.deliver(src, msg)
        return deliver
    for node in nodes:
        sim.add_node(node.id, sink(node))

    def at(ms, step):
        sim.schedule_at(round(ms * 1_000), lambda _: step())
    return at, down, cut


def test_an_entry_from_an_earlier_term_committed_by_replicas_survives():
    # Ongaro 2014, Figure 3.7, on five servers.  n0 (term 1) gets x to n1
    # only, then crashes; n4 wins term 2 with n2 and n3 and appends y, which
    # reaches nobody, then crashes.  n0 wins term 3 and replicates x to n2: a
    # majority holds x.  n0 crashes and n4 stands again.  Had n0 committed x
    # by counting replicas before any term-3 entry reached a majority, n4
    # could win and overwrite it; n0's election entry is what makes x safe.
    sim, nodes, clients, samples, trace = make_cluster(n=5)
    at, down, cut = faulty_links(sim, nodes)
    n0, n1, n2, n4 = nodes[0], nodes[1], nodes[2], nodes[4]
    x, y = ("set", "x", 0), ("set", "y", 1)
    at(5, lambda: (cut.update({("n0", "n2"), ("n0", "n3"), ("n0", "n4")}),
                   clients[0].submit(0, x)))
    at(6, lambda: (down.add("n0"), n4._become_candidate()))
    # once the votes are in, nothing n4 sends arrives until it crashes
    sim.schedule_at(6_030, lambda _: cut.update((("n4", p) for p in ("n1", "n2", "n3"))))
    at(6.1, lambda: n4.deliver("c1", ClientRequest("c1", 1, y)))
    at(7, lambda: (down.discard("n0"), down.add("n4"),
                   cut.difference_update({("n0", "n2"), ("n0", "n4")})))
    at(8, n0._become_candidate)  # term 2: n2 and n3 voted for n4
    at(9, n0._become_candidate)  # term 3: n1 and n2 elect it
    at(10, lambda: (down.add("n0"), down.discard("n4"), cut.clear()))
    at(11, n4._become_candidate)
    at(12, n4._become_candidate)
    sim.run_until(20_000)

    assert check_history(trace) == []
    assert (3, Role.LEADER) in [(term, role) for _t, term, role in trace.role_changes["n0"]]
    assert n0.commit_index == 3 and trace.applied[1][1] == x
    assert [log[1][1] for log in (n1.log, n2.log)] == [x, x]
    assert [term for _t, term, role in trace.role_changes["n4"] if role is Role.LEADER] == [2]


def test_a_leader_never_answers_a_set_its_log_lost():
    # n0 (term 1) appends x at index 2 while cut off from both peers.  n1
    # wins term 2 with n2's vote, appends y, and replicates only to n0,
    # which truncates x.  With n1 down, n0 wins term 3 and applies noop,
    # noop, y, noop: x is never applied, so c0 must get no "ok" for it,
    # though n0 still leads and once waited on index 2 for it
    sim, nodes, clients, samples, trace = make_cluster()
    at, down, cut = faulty_links(sim, nodes)
    n0, n1 = nodes[0], nodes[1]
    x, y = ("set", "x", 0), ("set", "y", 1)
    at(5, lambda: (cut.update({("n0", "n1"), ("n1", "n0"), ("n0", "n2"), ("n2", "n0")}),
                   clients[0].submit(0, x)))
    at(6, n1._become_candidate)
    at(6.03, lambda: cut.add(("n1", "n2")))  # once n2's vote is in
    at(6.1, lambda: n1.deliver("c1", ClientRequest("c1", 1, y)))
    at(7, lambda: cut.discard(("n1", "n0")))
    at(7.2, n1._replicate)
    at(8, lambda: (down.add("n1"), cut.clear()))
    at(8.1, n0._become_candidate)
    sim.run_until(20_000)

    assert check_history(trace) == []
    assert [(term, role) for _t, term, role in trace.role_changes["n0"]][-1] == (3, Role.LEADER)
    assert [entry[1] for entry in trace.applied] == [("noop",), ("noop",), y, ("noop",)]
    assert samples == []


def test_checker_flags_double_leadership():
    trace = RaftTrace()
    trace.role_changes = {"a": [(0, 1, Role.LEADER)], "b": [(10, 1, Role.LEADER)]}
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
    trace.record_apply("a", 1, (1, ("set", "k", 1), 1))
    trace.record_apply("b", 1, (1, ("set", "k", 2), 1))
    assert any("applied" in v for v in check_history(trace))


def test_checker_accepts_prefix_histories():
    trace = RaftTrace()
    log = [(1, ("set", "k", 1), 1), (2, ("noop",), None)]
    trace.final_logs = {"a": log, "b": log[:1]}
    trace.record_apply("a", 1, log[0])
    trace.record_apply("b", 1, (1, ("set", "k", 1), 7))  # equal term and op
    trace.role_changes = {"a": [(0, 1, Role.LEADER), (5, 2, Role.LEADER)]}
    assert check_history(trace) == []


def test_checker_flags_an_apply_gap():
    trace = RaftTrace()
    log = [(1, ("set", "k", i), i) for i in range(1, 4)]
    trace.record_apply("a", 1, log[0])
    trace.record_apply("a", 3, log[2])
    trace.record_apply("b", 1, log[0])
    trace.record_apply("b", 2, log[1])
    trace.record_apply("b", 3, log[2])
    assert check_history(trace) == ["a applied index 3 after index 1 (gap or reorder)"]
    assert trace.applied == log and trace.applied_by == ["a", "b", "a"]
    trace.record_apply("c", 1, log[0])
    trace.record_apply("c", 2, (1, ("set", "k", 9), 2))  # conflicts at the skipped index
    assert check_history(trace)[1:] == [
        "index 2 applied as (1, ('set', 'k', 2)) by b but as (1, ('set', 'k', 9)) by c"]


def test_checker_flags_an_apply_reorder():
    trace = RaftTrace()
    log = [(1, ("set", "k", i), i) for i in range(1, 3)]
    trace.record_apply("a", 2, log[1])
    trace.record_apply("a", 1, log[0])
    assert check_history(trace) == [
        "a applied index 2 after index 0 (gap or reorder)",
        "a applied index 1 after index 2 (gap or reorder)",
    ]


def test_checker_flags_a_conflict_reported_after_the_first_entry():
    trace = RaftTrace()
    first, other = (1, ("set", "k", 1), 1), (2, ("set", "k", 2), 2)
    for node in ("a", "b"):
        trace.record_apply(node, 1, first)
    trace.record_apply("c", 1, other)
    trace.record_apply("d", 1, first)
    assert check_history(trace) == [
        "index 1 applied as (1, ('set', 'k', 1)) by a but as (2, ('set', 'k', 2)) by c"]


def replay_state_machine_safety(sequences):
    """Reference: replay each node's applied sequence after the run, the
    check ``RaftTrace.record_apply`` makes as entries are applied.  Returns
    the gap messages and the set of indexes applied as different entries."""
    gaps, conflicts = [], set()
    applied_at = {}
    for node in sorted(sequences):
        seen = 0
        for index, entry in sequences[node]:
            if index != seen + 1:
                gaps.append(f"{node} applied index {index} after index {seen} (gap or reorder)")
            seen = index
            if index in applied_at and applied_at[index] != entry[:2]:
                conflicts.add(index)
            else:
                applied_at[index] = entry[:2]
    return gaps, conflicts


_entries_applied = st.tuples(st.integers(1, 2), st.sampled_from(["x", "y"]),
                             st.integers(0, 1))


@settings(max_examples=400, deadline=None)
@given(st.lists(_entries_applied, max_size=5),
       st.lists(st.tuples(st.integers(0, 5),
                          st.lists(st.tuples(st.integers(1, 6), _entries_applied),
                                   max_size=2)),
                min_size=1, max_size=3),
       st.data())
def test_applied_check_matches_per_node_replay(common, nodes, data):
    # each node applies a prefix of one common log, then any stray applies,
    # and the nodes' reports interleave in a drawn order
    sequences = {f"n{i}": list(enumerate(common[:keep], 1)) + stray
                 for i, (keep, stray) in enumerate(nodes)}
    pending = {node: list(seq) for node, seq in sequences.items()}
    trace = RaftTrace()
    while any(pending.values()):
        node = data.draw(st.sampled_from(sorted(n for n, seq in pending.items() if seq)))
        index, entry = pending[node].pop(0)
        trace.record_apply(node, index, entry)
    gaps, conflicts = replay_state_machine_safety(sequences)
    found = check_history(trace)
    assert sorted(v for v in found if "gap" in v) == sorted(gaps)
    assert {int(v.split()[1]) for v in found if "gap" not in v} == conflicts


def forward_log_matching(trace):
    """Reference: walk every index of each pair to find the last term match."""
    violations = []
    nodes = sorted(trace.final_logs)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            log_a, log_b = trace.final_logs[a], trace.final_logs[b]
            last_match = -1
            for idx in range(min(len(log_a), len(log_b))):
                if log_a[idx][0] == log_b[idx][0]:
                    last_match = idx
            if last_match >= 0 and log_a[:last_match + 1] != log_b[:last_match + 1]:
                for idx in range(last_match + 1):
                    if log_a[idx] != log_b[idx]:
                        violations.append(
                            f"logs of {a} and {b} agree on term at index {last_match + 1} "
                            f"but diverge at index {idx + 1}: "
                            f"{log_a[idx]!r} vs {log_b[idx]!r}")
                        break
    return violations


# Few terms and few ops, so divergent suffixes often agree on a term by chance.
_entries = st.tuples(st.integers(1, 3), st.sampled_from(["x", "y"]), st.just(None))


@given(st.lists(_entries, max_size=12),
       st.lists(st.tuples(st.integers(0, 12), st.lists(_entries, max_size=6)),
                min_size=2, max_size=4))
def test_log_matching_matches_forward_scan(common, forks):
    # each node keeps a prefix of one common log and appends its own suffix
    trace = RaftTrace()
    trace.final_logs = {f"n{i}": common[:keep] + suffix
                        for i, (keep, suffix) in enumerate(forks)}
    assert check_log_matching(trace) == forward_log_matching(trace)
