"""Raft consensus with fast leadership handoff and collection coordination.

Nodes are event-driven state machines over the simulation's message fabric:
leader election with randomized timeouts, log replication committed on a
majority round-trip, and leader-local reads.  On top of plain Raft sit the
two collection-coordination machines:

* Followers ask the leader before pausing and collect once allowed; if the
  leadership changes while an ask is outstanding, the ask is re-sent to the
  new leader.
* The leader runs a :class:`GcLedger` that grants collections only while a
  majority of servers stays live, queueing further askers FIFO.  When the
  leader itself needs to collect, it first hands leadership to the last
  server that finished collecting via a half-RTT authoritative broadcast,
  then follows the ordinary follower protocol under the new leader.

A paused node neither processes nor emits messages: deliveries buffer in an
inbox drained at wake, and outbound sends issued mid-pause depart at wake.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .runtime import CollectionTicket, GcLedger, GcMode, ManagedRuntime
from .simcore import NodeId, Simulation


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


# -- wire messages ------------------------------------------------------------


@dataclass(slots=True)
class RequestVote:
    term: int
    candidate: NodeId
    last_log_index: int
    last_log_term: int


@dataclass(slots=True)
class VoteReply:
    term: int
    granted: bool


@dataclass(slots=True)
class AppendEntries:
    term: int
    leader: NodeId
    prev_index: int
    prev_term: int
    entries: tuple  # of (term, op, rid)
    leader_commit: int


@dataclass(slots=True)
class AppendReply:
    term: int
    success: bool
    match_index: int


@dataclass(slots=True)
class ClientRequest:
    client: NodeId
    rid: int
    op: tuple  # ("get", key) | ("set", key, value)


@dataclass(slots=True)
class ClientReply:
    rid: int
    value: Any
    leader_hint: Optional[NodeId]
    redirect: bool = False


@dataclass(slots=True)
class FastSwitch:
    """Authoritative leadership handoff: recipients adopt the successor on
    receipt, which makes the transfer effective half a round-trip after the
    broadcast.  Outstanding client work rides along to the successor: not yet
    committed requests are re-submitted there, and answers the old leader
    computed but had not sent yet are delivered by the new leader directly.
    """

    new_term: int
    successor: NodeId
    forwarded: tuple = ()        # of ClientRequest
    pending_replies: tuple = ()  # of (client, ClientReply, due_us)


@dataclass(slots=True)
class LeaderNotice:
    leader: NodeId


@dataclass(slots=True)
class AskGC:
    ticket_id: int
    est_pause_us: int


@dataclass(slots=True)
class AllowGC:
    ticket_id: int


@dataclass(slots=True)
class DoneGC:
    ticket_id: int


# -- impact model ----------------------------------------------------------------


@dataclass
class FollowerGcModel:
    t_schedule_us: int  # ask + allow, normally one RTT
    t_gc_us: int


@dataclass
class LeaderGcModel:
    rtt_us: int
    t_proxy_us: int
    t_gc_us: int


@dataclass
class RaftModelResult:
    latency_impact_us: int
    capacity_loss_servers: int
    event_time_us: int


def raft_model_eval(model: FollowerGcModel | LeaderGcModel) -> RaftModelResult:
    """Evaluate the per-collection impact model.

    Follower collections are invisible to clients while a majority stays
    live; a leader collection costs every in-flight request at most the
    handoff (half an RTT to transfer plus proxying), one RTT in total.
    """
    if isinstance(model, FollowerGcModel):
        if model.t_schedule_us < 0 or model.t_gc_us < 0:
            raise ValueError("model inputs must be non-negative")
        return RaftModelResult(0, 0, model.t_schedule_us + model.t_gc_us)
    if model.rtt_us < 0 or model.t_proxy_us < 0 or model.t_gc_us < 0:
        raise ValueError("model inputs must be non-negative")
    return RaftModelResult(
        latency_impact_us=model.rtt_us,
        capacity_loss_servers=0,
        event_time_us=model.rtt_us // 2 + model.t_proxy_us + model.t_gc_us,
    )


# -- history recording -------------------------------------------------------------


class RaftTrace:
    """Observational record consumed by the independent safety checker."""

    def __init__(self) -> None:
        self.leaderships: list[tuple[int, int, NodeId]] = []  # (time, term, node)
        self.role_changes: dict[NodeId, list[tuple[int, int, Role]]] = {}
        self.applied: dict[NodeId, list[tuple[int, int, tuple]]] = {}
        self.switches: list[tuple[int, NodeId, NodeId, int]] = []
        self.final_logs: dict[NodeId, list[tuple]] = {}

    def record_role(self, node: NodeId, time: int, term: int, role: Role) -> None:
        self.role_changes.setdefault(node, []).append((time, term, role))

    def record_apply(self, node: NodeId, index: int, term: int, op: tuple) -> None:
        self.applied.setdefault(node, []).append((index, term, op))

    def role_at(self, node: NodeId, time: int) -> Role:
        role = Role.FOLLOWER
        for t, _term, r in self.role_changes.get(node, []):
            if t <= time:
                role = r
            else:
                break
        return role


# -- the node ---------------------------------------------------------------------


class RaftNode:
    """One Raft server plus its collection-coordination machinery."""

    def __init__(self, sim: Simulation, node_id: NodeId, cluster: list[NodeId],
                 runtime: ManagedRuntime, trace: RaftTrace,
                 heartbeat_us: int = 50_000,
                 election_timeout_us: tuple[int, int] = (150_000, 300_000),
                 service_time_us: int = 400,
                 bytes_per_request: int = 8_192,
                 defer_threshold_us: int = 1_000,
                 proxy_mode: bool = True,
                 collection_timeout_factor: int = 10,
                 client_ids: Optional[list[NodeId]] = None,
                 timer_seed: int = 0):
        self.sim = sim
        self.id = node_id
        self.peers = [n for n in cluster if n != node_id]
        self.cluster_size = len(cluster)
        self.majority = self.cluster_size // 2 + 1
        self.runtime = runtime
        self.trace = trace
        self.heartbeat_us = heartbeat_us
        self.election_range_us = election_timeout_us
        self.service_time_us = service_time_us
        self.bytes_per_request = bytes_per_request
        self.defer_threshold_us = defer_threshold_us
        self.proxy_mode = proxy_mode
        self.collection_timeout_factor = collection_timeout_factor
        self.client_ids = client_ids or []
        self.rng = random.Random(timer_seed)

        # Raft state
        self.role = Role.FOLLOWER
        self.term = 0
        self.voted_for: Optional[NodeId] = None
        self.log: list[tuple[int, tuple, Optional[int]]] = []  # (term, op, rid)
        self.commit_index = 0
        self.last_applied = 0
        self.kv: dict = {}
        self.next_index: dict[NodeId, int] = {}
        self.match_index: dict[NodeId, int] = {}
        self.leader_hint: Optional[NodeId] = None
        self.last_contact = 0
        self.election_timeout_us = self._draw_timeout()
        self._votes: set[NodeId] = set()

        # collection coordination
        self.ledger = GcLedger(self.cluster_size - self.majority)
        self.req_in_flight = 0
        self._ask_info: dict[NodeId, tuple[int, int]] = {}  # node -> (ticket, est)
        self._grant_token: dict[NodeId, int] = {}
        self.switch_target: Optional[NodeId] = None
        self._awaiting_commit: dict[int, tuple[NodeId, int]] = {}  # index -> (client, rid)
        self._pending_replies: dict[int, tuple[NodeId, ClientReply, int, list]] = {}
        self._reply_seq = 0

        # pause plumbing
        self.inbox: deque[tuple[NodeId, Any]] = deque()
        runtime.on_pause = self._on_pause
        if runtime.mode is GcMode.BLADE:
            runtime.reg_gc_hand(self._on_gc_offer)

        sim.add_node(node_id, self.deliver)
        trace.record_role(node_id, 0, 0, Role.FOLLOWER)
        self._arm_election_timer()

    # -- small helpers -------------------------------------------------------

    def _draw_timeout(self) -> int:
        lo, hi = self.election_range_us
        return self.rng.randint(lo, hi)

    @property
    def last_index(self) -> int:
        return len(self.log)

    def _term_at(self, index: int) -> int:
        return self.log[index - 1][0] if index >= 1 else 0

    def _send(self, dst: NodeId, msg: Any) -> None:
        """Send gated by stop-the-world pauses: nothing departs mid-pause."""
        if self.runtime.is_paused:
            self.sim.schedule_at(self.runtime.paused_until, self._deferred_send, (dst, msg))
        else:
            self.sim.send(self.id, dst, msg)

    def _deferred_send(self, arg: tuple) -> None:
        dst, msg = arg
        if self.runtime.is_paused:  # a fresh pause started at the wake tick
            self.sim.schedule_at(self.runtime.paused_until, self._deferred_send, arg)
        else:
            self.sim.send(self.id, dst, msg)

    # -- delivery and pause handling --------------------------------------------

    def deliver(self, src: NodeId, msg: Any) -> None:
        if self.runtime.is_paused:
            self.inbox.append((src, msg))
            return
        self._handle(src, msg)

    def _on_pause(self, start_us: int, end_us: int) -> None:
        self.sim.schedule_at(end_us, self._wake)

    def _wake(self, _arg=None) -> None:
        while self.inbox and not self.runtime.is_paused:
            src, msg = self.inbox.popleft()
            self._handle(src, msg)

    def _handle(self, src: NodeId, msg: Any) -> None:
        kind = type(msg)
        if kind is AppendEntries:
            self._on_append(src, msg)
        elif kind is AppendReply:
            self._on_append_reply(src, msg)
        elif kind is ClientRequest:
            self._on_client(msg)
        elif kind is RequestVote:
            self._on_request_vote(src, msg)
        elif kind is VoteReply:
            self._on_vote_reply(src, msg)
        elif kind is FastSwitch:
            self._on_fast_switch(src, msg)
        elif kind is AskGC:
            self._on_ask_gc(src, msg)
        elif kind is AllowGC:
            self._on_allow_gc(src, msg)
        elif kind is DoneGC:
            self._on_done_gc(src, msg)
        else:
            raise ValueError(f"node {self.id} got unknown message {msg!r}")

    # -- elections ----------------------------------------------------------------

    def _arm_election_timer(self) -> None:
        self.sim.schedule_at(self.last_contact + self.election_timeout_us,
                             self._election_check)

    def _election_check(self, _arg=None) -> None:
        if self.role is Role.LEADER:
            return
        if self.runtime.is_paused:
            self.sim.schedule_at(self.runtime.paused_until, self._election_check)
            return
        if self.sim.now - self.last_contact >= self.election_timeout_us:
            self._become_candidate()
        else:
            self._arm_election_timer()

    def _become_candidate(self) -> None:
        self.term += 1
        self.role = Role.CANDIDATE
        self.voted_for = self.id
        self._votes = {self.id}
        self.leader_hint = None
        self.election_timeout_us = self._draw_timeout()
        self.last_contact = self.sim.now
        self.trace.record_role(self.id, self.sim.now, self.term, Role.CANDIDATE)
        rv = RequestVote(self.term, self.id, self.last_index, self._term_at(self.last_index))
        for peer in self.peers:
            self._send(peer, rv)
        self._arm_election_timer()

    def _on_request_vote(self, src: NodeId, m: RequestVote) -> None:
        if m.term > self.term:
            self._adopt_term(m.term)
        granted = False
        if m.term == self.term and self.voted_for in (None, src):
            mine = (self._term_at(self.last_index), self.last_index)
            theirs = (m.last_log_term, m.last_log_index)
            if theirs >= mine:
                granted = True
                self.voted_for = src
                self.last_contact = self.sim.now
        self._send(src, VoteReply(self.term, granted))

    def _on_vote_reply(self, src: NodeId, m: VoteReply) -> None:
        if m.term > self.term:
            self._adopt_term(m.term)
            return
        if self.role is Role.CANDIDATE and m.term == self.term and m.granted:
            self._votes.add(src)
            if len(self._votes) >= self.majority:
                self._become_leader()

    def _adopt_term(self, term: int) -> None:
        if term > self.term:
            self.term = term
            self.voted_for = None
            self.leader_hint = None
        if self.role is not Role.FOLLOWER:
            self.role = Role.FOLLOWER
            self.trace.record_role(self.id, self.sim.now, self.term, Role.FOLLOWER)
            self.last_contact = self.sim.now
            self._arm_election_timer()
        self.ledger.reset()
        self.switch_target = None

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_hint = self.id
        self.trace.record_role(self.id, self.sim.now, self.term, Role.LEADER)
        self.trace.leaderships.append((self.sim.now, self.term, self.id))
        self.next_index = {p: self.last_index + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self.ledger.reset()
        self.switch_target = None
        # A fresh entry in the new term is what lets the commit rule advance
        # over entries inherited from previous leaders.
        self.log.append((self.term, ("noop",), None))
        for peer in self.peers:
            self._send_append(peer)
        self.sim.schedule_after(self.heartbeat_us, self._heartbeat)
        if self.req_in_flight:
            self._on_ask_gc(self.id, AskGC(self.req_in_flight, self._pending_est()))

    def _heartbeat(self, _arg=None) -> None:
        if self.role is not Role.LEADER:
            return
        if self.runtime.is_paused:
            self.sim.schedule_at(self.runtime.paused_until, self._heartbeat)
            return
        for peer in self.peers:
            self._send_append(peer)
        self.sim.schedule_after(self.heartbeat_us, self._heartbeat)

    # -- log replication -------------------------------------------------------------

    def _send_append(self, peer: NodeId) -> None:
        nxt = self.next_index[peer]
        prev = nxt - 1
        entries = tuple(self.log[prev:])
        self._send(peer, AppendEntries(self.term, self.id, prev, self._term_at(prev),
                                       entries, self.commit_index))

    def _on_append(self, src: NodeId, m: AppendEntries) -> None:
        if m.term < self.term:
            self._send(src, AppendReply(self.term, False, 0))
            return
        if m.term > self.term or self.role is not Role.FOLLOWER:
            self._adopt_term(m.term)
        self.last_contact = self.sim.now
        self._set_leader(m.leader)
        if m.prev_index > self.last_index or \
                (m.prev_index >= 1 and self._term_at(m.prev_index) != m.prev_term):
            self._send(src, AppendReply(self.term, False, 0))
            return
        for k, entry in enumerate(m.entries):
            idx = m.prev_index + 1 + k
            if idx <= self.last_index:
                if self.log[idx - 1][0] != entry[0]:
                    del self.log[idx - 1:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        new_commit = min(m.leader_commit, self.last_index)
        if new_commit > self.commit_index:
            self.commit_index = new_commit
            self._apply_committed()
        self._send(src, AppendReply(self.term, True, m.prev_index + len(m.entries)))

    def _on_append_reply(self, src: NodeId, m: AppendReply) -> None:
        if m.term > self.term:
            self._adopt_term(m.term)
            return
        if self.role is not Role.LEADER or m.term != self.term:
            return
        if not m.success:
            self.next_index[src] = max(1, self.next_index[src] - 1)
            self._send_append(src)
            return
        if m.match_index > self.match_index[src]:
            self.match_index[src] = m.match_index
        self.next_index[src] = max(self.next_index[src], m.match_index + 1)
        self._advance_commit()
        if self.switch_target is not None and \
                self.match_index.get(self.switch_target, 0) >= self.last_index:
            self.sim.schedule_after(0, self._check_switch)
        elif self.next_index[src] <= self.last_index:
            self._send_append(src)

    def _advance_commit(self) -> None:
        # Commit the highest majority-replicated index whose entry is from the
        # current term; that implicitly commits everything before it.
        n = self.last_index
        while n > self.commit_index:
            acks = 1 + sum(1 for p in self.peers if self.match_index[p] >= n)
            if acks >= self.majority and self.log[n - 1][0] == self.term:
                break
            n -= 1
        if n > self.commit_index:
            self.commit_index = n
            self._apply_committed()

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            term, op, rid = self.log[self.last_applied - 1]
            if op[0] == "set":
                self.kv[op[1]] = op[2]
                self.runtime.allocate(self.bytes_per_request)
            self.trace.record_apply(self.id, self.last_applied, term, op)
            pending = self._awaiting_commit.pop(self.last_applied, None)
            if pending is not None and self.role is Role.LEADER:
                client, rid_ = pending
                self._schedule_reply(client, ClientReply(rid_, "ok", self.leader_hint))

    # -- client requests ------------------------------------------------------------

    def _on_client(self, m: ClientRequest) -> None:
        if self.role is not Role.LEADER:
            if self.proxy_mode and self.leader_hint and self.leader_hint != self.id:
                self._send(self.leader_hint, m)
            else:
                self._send(m.client, ClientReply(m.rid, None, self.leader_hint, redirect=True))
            return
        if m.op[0] == "get":
            value = self.kv.get(m.op[1])
            self._schedule_reply(m.client, ClientReply(m.rid, value, self.id))
        else:
            self.log.append((self.term, m.op, m.rid))
            self._awaiting_commit[self.last_index] = (m.client, m.rid)
            for peer in self.peers:
                self._send_append(peer)
        # Allocation last: a collection offer triggered here may schedule a
        # leadership handoff, which must observe the appended entry above.
        self.runtime.allocate(self.bytes_per_request)

    def _schedule_reply(self, client: NodeId, reply: ClientReply) -> None:
        """Queue a reply to leave after the request's service time.

        Replies still pending when leadership is handed off travel in the
        switch message and are sent by the successor at the same due time,
        so an imminent pause at this node cannot delay them.
        """
        self._reply_seq += 1
        token = self._reply_seq
        due = self.sim.now + self.service_time_us
        handle = self.sim.schedule_at(due, self._fire_reply, token)
        self._pending_replies[token] = (client, reply, due, handle)

    def _fire_reply(self, token: int) -> None:
        entry = self._pending_replies.pop(token, None)
        if entry is not None:
            self._send(entry[0], entry[1])

    def _send_reply(self, arg: tuple) -> None:
        client, reply = arg
        self._send(client, reply)

    # -- fast leadership handoff -------------------------------------------------------

    def request_leader_switch(self, successor: NodeId) -> None:
        """Hand leadership to ``successor`` as soon as its log is caught up.

        The handoff itself always runs as its own event so whatever work the
        current event still has in flight completes under stable leadership.
        """
        if self.role is not Role.LEADER:
            raise ValueError(f"{self.id} is not the leader")
        if successor == self.id or successor not in self.next_index:
            raise ValueError(f"bad switch successor {successor!r}")
        self.switch_target = successor
        self.sim.schedule_after(0, self._check_switch)

    def _check_switch(self, _arg=None) -> None:
        if self.role is not Role.LEADER or self.switch_target is None:
            return
        if self.match_index[self.switch_target] >= self.last_index:
            self._do_fast_switch()
        else:
            self._send_append(self.switch_target)

    def _do_fast_switch(self) -> None:
        successor = self.switch_target
        self.switch_target = None
        new_term = self.term + 1
        forwarded = []
        for idx in sorted(self._awaiting_commit):
            client, rid = self._awaiting_commit[idx]
            entry_term, op, _ = self.log[idx - 1]
            forwarded.append(ClientRequest(client, rid, op))
        self._awaiting_commit.clear()
        pending = []
        for client, reply, due, handle in self._pending_replies.values():
            self.sim.cancel(handle)
            pending.append((client, reply, due))
        self._pending_replies.clear()
        self.trace.switches.append((self.sim.now, self.id, successor, new_term))
        for peer in self.peers:
            if peer == successor:
                self._send(peer, FastSwitch(new_term, successor,
                                            tuple(forwarded), tuple(pending)))
            else:
                self._send(peer, FastSwitch(new_term, successor))
        for client in self.client_ids:
            self._send(client, LeaderNotice(successor))
        self.term = new_term
        self.role = Role.FOLLOWER
        self.voted_for = successor
        self.leader_hint = None
        self.ledger.reset()
        self.trace.record_role(self.id, self.sim.now, new_term, Role.FOLLOWER)
        self.last_contact = self.sim.now
        self._arm_election_timer()
        self._set_leader(successor)

    def _on_fast_switch(self, src: NodeId, m: FastSwitch) -> None:
        if m.new_term < self.term:
            return
        if m.new_term == self.term and self.role is Role.LEADER:
            return  # stale duplicate of a handoff this node already won
        was_role = self.role
        self.term = m.new_term
        self.voted_for = m.successor
        self.last_contact = self.sim.now
        self.ledger.reset()
        self.switch_target = None
        if self.id == m.successor:
            self._become_leader()
            for req in m.forwarded:
                self._on_client(req)
            for client, reply, due in m.pending_replies:
                self.sim.schedule_at(max(self.sim.now, due), self._send_reply,
                                     (client, reply))
        else:
            if was_role is not Role.FOLLOWER:
                self.role = Role.FOLLOWER
                self.trace.record_role(self.id, self.sim.now, self.term, Role.FOLLOWER)
                self._arm_election_timer()
            self.leader_hint = None
            self._set_leader(m.successor)

    # -- collection coordination: follower side ------------------------------------------

    def _pending_est(self) -> int:
        ticket = self.runtime.tickets.get(self.req_in_flight)
        return ticket.estimated_pause_us if ticket else 0

    def _on_gc_offer(self, ticket: CollectionTicket) -> bool:
        if ticket.estimated_pause_us <= self.defer_threshold_us:
            return True
        self.req_in_flight = ticket.id
        if self.role is Role.LEADER:
            self._on_ask_gc(self.id, AskGC(ticket.id, ticket.estimated_pause_us))
        elif self.leader_hint is not None:
            self._send(self.leader_hint, AskGC(ticket.id, ticket.estimated_pause_us))
        return False

    def _set_leader(self, leader: NodeId) -> None:
        if leader != self.leader_hint:
            self.leader_hint = leader
            if self.req_in_flight and leader != self.id:
                self._send(leader, AskGC(self.req_in_flight, self._pending_est()))

    def _on_allow_gc(self, src: NodeId, m: AllowGC) -> None:
        if self.role is Role.LEADER:
            # Elected while the grant was in flight: a leader never pauses as
            # leader, so feed the ticket back through the admission flow (the
            # grantor's timeout reclaims its stale slot).
            self.req_in_flight = m.ticket_id
            self._on_ask_gc(self.id, AskGC(m.ticket_id, self._pending_est()))
            return
        self.req_in_flight = 0
        self.runtime.start_gc(m.ticket_id)
        target = self.leader_hint or src
        self._send(target, DoneGC(m.ticket_id))

    # -- collection coordination: leader side ---------------------------------------------

    def _on_ask_gc(self, src: NodeId, m: AskGC) -> None:
        if self.role is not Role.LEADER:
            return  # asker will retry against the right leader
        self._ask_info[src] = (m.ticket_id, m.est_pause_us)
        if self.ledger.ask(src) == "grant":
            self._issue_grant(src)

    def _issue_grant(self, node: NodeId) -> None:
        ticket_id, est = self._ask_info.get(node, (0, 0))
        if node == self.id:
            self._begin_own_collection()
            return
        token = self._grant_token.get(node, 0) + 1
        self._grant_token[node] = token
        self._send(node, AllowGC(ticket_id))
        budget = max(self.collection_timeout_factor * est, 1_000)
        self.sim.schedule_after(budget, self._grant_timeout, (node, token))

    def _grant_timeout(self, arg: tuple) -> None:
        node, token = arg
        if (self.role is Role.LEADER and self._grant_token.get(node) == token
                and node in self.ledger.granted):
            self._finish_collection(node)

    def _on_done_gc(self, src: NodeId, m: DoneGC) -> None:
        if self.role is not Role.LEADER:
            return
        self._grant_token[src] = self._grant_token.get(src, 0) + 1
        self._finish_collection(src)

    def _finish_collection(self, node: NodeId) -> None:
        nxt = self.ledger.finish(node)
        if nxt is not None:
            self._issue_grant(nxt)

    def _begin_own_collection(self) -> None:
        """The leader never pauses as leader: transfer first, then collect.

        The successor defaults to the last server that finished a collection
        (its heap is the freshest) and falls back to a seeded random pick.
        """
        successor = self.ledger.last_finished
        if successor in (None, self.id) or successor in self.ledger.granted:
            choices = [p for p in self.peers if p not in self.ledger.granted]
            successor = self.rng.choice(choices) if choices else self.peers[0]
        self.request_leader_switch(successor)


class RaftClient:
    """Issues get/set requests to its current idea of the leader.

    The belief updates from replies, redirects, and leadership notices; an
    unanswered request is retried against the current belief after the
    configured timeout, and again every timeout after that (duplicate
    applies of a retried set are harmless for a key-value store).  Latency
    is measured from first submission to first reply.

    ``outstanding`` maps each unanswered request id to ``(op, issued,
    deadline)`` in deadline order: a new or retried request always has the
    latest deadline, so it goes to the end.  One timer, armed at the
    earliest deadline, serves them all.
    """

    def __init__(self, sim: Simulation, client_id: NodeId, initial_leader: NodeId,
                 timeout_us: int,
                 on_sample: Callable[[int, int, int, NodeId, str], None]):
        self.sim = sim
        self.id = client_id
        self.belief = initial_leader
        self.timeout_us = timeout_us
        self.on_sample = on_sample
        self.outstanding: dict[int, tuple[tuple, int, int]] = {}
        self.retries = 0
        self._timer_armed = False
        sim.add_node(client_id, self.deliver)

    def submit(self, rid: int, op: tuple) -> None:
        now = self.sim.now
        self.outstanding[rid] = (op, now, now + self.timeout_us)
        self.sim.send(self.id, self.belief, ClientRequest(self.id, rid, op))
        if not self._timer_armed:
            self._timer_armed = True
            self.sim.schedule_at(now + self.timeout_us, self._retry_check, rid)

    def _retry_check(self, rid: int) -> None:
        """Resend every request whose deadline has come, then re-arm.

        ``rid`` is the request the timer was armed for; it may have been
        answered since, which leaves nothing due at this firing.
        """
        now = self.sim.now
        outstanding = self.outstanding
        while outstanding:
            first = next(iter(outstanding))
            op, issued, deadline = outstanding[first]
            if deadline > now:
                self.sim.schedule_at(deadline, self._retry_check, first)
                return
            del outstanding[first]
            outstanding[first] = (op, issued, now + self.timeout_us)
            self.retries += 1
            self.sim.send(self.id, self.belief, ClientRequest(self.id, first, op))
        self._timer_armed = False

    def deliver(self, src: NodeId, msg: Any) -> None:
        if isinstance(msg, LeaderNotice):
            self.belief = msg.leader
            return
        if msg.redirect:
            if msg.leader_hint and msg.leader_hint != self.belief:
                self.belief = msg.leader_hint
                entry = self.outstanding.get(msg.rid)
                if entry is not None:
                    self.retries += 1
                    self.sim.send(self.id, self.belief,
                                  ClientRequest(self.id, msg.rid, entry[0]))
            return
        entry = self.outstanding.pop(msg.rid, None)
        if entry is None:
            return  # duplicate answer to a retried request
        op, issued, _deadline = entry
        if msg.leader_hint:
            self.belief = msg.leader_hint
        self.on_sample(msg.rid, issued, self.sim.now, src, op[0])
