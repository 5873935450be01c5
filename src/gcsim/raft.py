"""Raft consensus with fast leadership handoff and collection coordination.

Nodes are event-driven state machines over the simulation's message fabric:
leader election with randomized timeouts, log replication committed on a
majority round-trip, and leader-local reads.  A leader's fan-out builds one
``AppendEntries`` per distinct next index, shared by the peers at it, and
commits the largest index a majority has matched once that entry is from the
current term.  On top of plain Raft sit the two collection-coordination
machines:

* Each server's :class:`GcGrantee` asks the leader before every pause and
  collects once allowed; if the leadership changes while an ask is
  outstanding, the ask is re-sent to the new leader.  A server that leads
  when a grant reaches it asks again instead of pausing, and a server that
  has just handed leadership off holds a grant until the requests sent to it
  before the handoff have arrived.  An ask outlives a collection that
  exhaustion forces: its grant finds nothing deferred and is answered with
  a done at once.  A done names the server that collected; a server that
  does not lead passes it on to the leader it knows, so a done that reaches
  a leader which has just handed off still frees its slot at the successor.
* The leader hands each ask and done to a :class:`GcLedger`, which grants
  collections only while a majority of servers stays live, queues further
  askers FIFO, and sends each grant through ``_issue_grant``.  The leader's own
  grant is a handoff: once every entry is committed, it hands leadership to
  the last server that finished collecting and holds no grant, via a half-RTT
  authoritative broadcast.  The successor takes over the old leader's grants,
  its own included, and grants it the collection; the old leader starts it
  once every request a client sent it before the handoff has arrived.  A
  leader granted its own slot with nothing deferred frees the slot instead.

Clients follow a handoff through the :class:`LeaderNotice` the old leader
sends them with the broadcast; requests that still reach the old leader are
proxied to the successor or redirected there.

A paused node neither processes nor emits messages: deliveries buffer in an
inbox drained at wake, and outbound sends issued mid-pause depart at wake.
A leader sends each client reply when it schedules it, to depart once the
request's service time is over, so the reply costs one engine event, its
delivery.  A pause that begins before the reply departs recalls it, to
depart at wake; a handoff recalls it and carries it to the successor.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .runtime import GcGrantee, GcLedger, ManagedRuntime
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
    broadcast.  The old leader hands off only once every entry in its log is
    committed, so no request has to start over at the successor.  Answers
    the old leader sent that had not departed yet are recalled and ride
    along; the new leader sends them to depart at the same time, naming
    itself as their hint.  So do the collections the old leader admitted:
    the successor keeps their ledger slots.  Every peer gets the same
    message; only the successor acts on ``pending_replies`` and ``grants``.
    """

    new_term: int
    successor: NodeId
    pending_replies: tuple = ()  # of (client, ClientReply, due_us)
    grants: tuple = ()           # of nodes


@dataclass(slots=True)
class LeaderNotice:
    leader: NodeId


@dataclass(slots=True)
class AskGC:
    pass


@dataclass(slots=True)
class AllowGC:
    pass


@dataclass(slots=True)
class DoneGC:
    node: NodeId  # the server that collected


# -- history recording -------------------------------------------------------------


class RaftTrace:
    """Observational record consumed by the independent safety checker.

    Nodes report what they do; the record never reads node state.  Applied
    entries are kept once for the cluster: ``applied[i - 1]`` is the log
    entry ``(term, op, rid)`` first applied at index ``i``, by the node
    ``applied_by[i - 1]``, and ``last_applied`` maps each node to the last
    index it applied.  State-machine safety is checked as each entry is
    reported (Ongaro 2014, section 3.6.3): ``violations`` names every index
    a node applies out of order, and every entry whose term or op differs
    from the one first applied at its index.
    """

    def __init__(self) -> None:
        self.role_changes: dict[NodeId, list[tuple[int, int, Role]]] = {}
        self.applied: list[Optional[tuple]] = []  # None at an index skipped so far
        self.applied_by: list[Optional[NodeId]] = []
        self.last_applied: dict[NodeId, int] = {}
        self.violations: list[str] = []
        self.switches: list[tuple[int, NodeId, NodeId, int]] = []
        self.final_logs: dict[NodeId, list[tuple]] = {}  # each node's own log

    def record_role(self, node: NodeId, time: int, term: int, role: Role) -> None:
        self.role_changes.setdefault(node, []).append((time, term, role))

    def record_apply(self, node: NodeId, index: int, entry: tuple) -> None:
        """Record that ``node`` applied its log entry ``entry`` at ``index``."""
        last = self.last_applied.get(node, 0)
        if index != last + 1:
            self.violations.append(
                f"{node} applied index {index} after index {last} (gap or reorder)")
        self.last_applied[node] = index
        applied, applied_by = self.applied, self.applied_by
        if index == len(applied) + 1:  # the first report of the next index
            applied.append(entry)
            applied_by.append(node)
            return
        if index > len(applied):  # the first report of an index past it
            pad = [None] * (index - len(applied))
            applied.extend(pad)
            applied_by.extend(pad)
        first = applied[index - 1]
        if first is None:
            applied[index - 1], applied_by[index - 1] = entry, node
        elif first is not entry and first[:2] != entry[:2]:
            self.violations.append(
                f"index {index} applied as {first[:2]!r} by "
                f"{applied_by[index - 1]} but as {entry[:2]!r} by {node}")

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
                 proxy_mode: bool = True,
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
        self.proxy_mode = proxy_mode
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
        self.ledger = GcLedger(self.cluster_size - self.majority, self._issue_grant)
        self.switch_target: Optional[NodeId] = None
        self._awaiting_commit: dict[int, tuple[NodeId, int]] = {}  # index -> (client, rid)
        # Replies not known to have departed, in the order they were
        # scheduled: (client, reply, due, handle, sent).  A sent reply's
        # handle is its delivery; a held one's is the timer that sends it.
        self._replies: deque[tuple] = deque()
        # After a handoff, the time by which every request a client sent here
        # before it heard of the successor has arrived.
        self._drained_at = 0

        # pause plumbing
        self.inbox: deque[tuple[NodeId, Any]] = deque()
        self._handlers: dict[type, Callable[[NodeId, Any], None]] = {
            AppendEntries: self._on_append,
            AppendReply: self._on_append_reply,
            ClientRequest: self._on_client,
            RequestVote: self._on_request_vote,
            VoteReply: self._on_vote_reply,
            FastSwitch: self._on_fast_switch,
            AskGC: self._on_ask_gc,
            AllowGC: self._on_allow_gc,
            DoneGC: self._on_done_gc,
        }
        runtime.on_pause = self._on_pause
        self.grantee = GcGrantee(runtime, self._send_ask, self._send_done)

        sim.add_node(node_id, self.deliver)
        trace.record_role(node_id, 0, 0, Role.FOLLOWER)
        trace.final_logs[node_id] = self.log  # changed only in place
        self._arm_election_timer()

    # -- small helpers -------------------------------------------------------

    def _draw_timeout(self) -> int:
        lo, hi = self.election_range_us
        return self.rng.randint(lo, hi)

    def _term_at(self, index: int) -> int:
        return self.log[index - 1][0] if index >= 1 else 0

    def _send(self, dst: NodeId, msg: Any) -> None:
        """Send gated by stop-the-world pauses: nothing departs mid-pause."""
        sim, paused_until = self.sim, self.runtime.paused_until
        if sim.now < paused_until:
            sim.schedule_at(paused_until, self._deferred_send, (dst, msg))
        else:
            sim.send(self.id, dst, msg)

    def _deferred_send(self, arg: tuple) -> None:
        self._send(*arg)  # a fresh pause at the wake tick defers it again

    # -- delivery and pause handling --------------------------------------------

    def deliver(self, src: NodeId, msg: Any) -> None:
        if self.sim.now < self.runtime.paused_until:
            self.inbox.append((src, msg))
            return
        self._handlers[type(msg)](src, msg)

    def _on_pause(self, start_us: int, end_us: int) -> None:
        """Wake at the pause's end, and hold every reply sent to depart
        inside the pause: recall it into a timer at its departure's place,
        which ``_send`` defers to the wake, as a reply scheduled mid-pause
        is held (:meth:`_schedule_reply`)."""
        sim = self.sim
        sim.schedule_at(end_us, self._wake)
        replies = self._replies
        for i, (client, reply, due, handle, sent) in enumerate(replies):
            if sent and due < end_us and sim.ahead(due, handle[1]):
                handle = sim.recall(handle, due, self._deferred_send, (client, reply))
                replies[i] = (client, reply, due, handle, False)

    def _wake(self, _arg=None) -> None:
        inbox, handlers = self.inbox, self._handlers
        runtime, sim = self.runtime, self.sim
        while inbox and sim.now >= runtime.paused_until:
            src, msg = inbox.popleft()
            handlers[type(msg)](src, msg)

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
        last = len(self.log)
        rv = RequestVote(self.term, self.id, last, self._term_at(last))
        for peer in self.peers:
            self._send(peer, rv)
        self._arm_election_timer()

    def _on_request_vote(self, src: NodeId, m: RequestVote) -> None:
        if m.term > self.term:
            self._become_follower(m.term)
        granted = False
        if m.term == self.term and self.voted_for in (None, src):
            last = len(self.log)
            mine = (self._term_at(last), last)
            theirs = (m.last_log_term, m.last_log_index)
            if theirs >= mine:
                granted = True
                self.voted_for = src
                self.last_contact = self.sim.now
        self._send(src, VoteReply(self.term, granted))

    def _on_vote_reply(self, src: NodeId, m: VoteReply) -> None:
        if m.term > self.term:
            self._become_follower(m.term)
            return
        if self.role is Role.CANDIDATE and m.term == self.term and m.granted:
            self._votes.add(src)
            if len(self._votes) >= self.majority:
                self._become_leader()

    def _become_follower(self, term: int, leader: Optional[NodeId] = None) -> None:
        """Follow in ``term``, under ``leader`` if a message from it says so.

        A newer term forgets the vote and the leader.  A leader or candidate
        steps down: it drops its admission state (a follower's is always
        empty) and arms its election timer, before any ask goes out.
        """
        if term > self.term:
            self.term = term
            self.voted_for = None
            self.leader_hint = None
        if self.role is not Role.FOLLOWER:
            self.role = Role.FOLLOWER
            self.trace.record_role(self.id, self.sim.now, self.term, Role.FOLLOWER)
            self.ledger.reset()
            self.switch_target = None
            self.last_contact = self.sim.now
            self._arm_election_timer()
        if leader is not None:
            self.last_contact = self.sim.now
            if leader != self.leader_hint:
                self.leader_hint = leader
                self.grantee.ask()

    def _become_leader(self, grants: tuple = ()) -> None:
        """Take the lead, holding the ``grants`` a handoff carried over."""
        self.role = Role.LEADER
        self.leader_hint = self.id
        self.trace.record_role(self.id, self.sim.now, self.term, Role.LEADER)
        self.next_index = {p: len(self.log) + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self.ledger.reset(grants)
        self.switch_target = None
        # A fresh entry in the new term is what lets the commit rule advance
        # over entries inherited from previous leaders.
        self.log.append((self.term, ("noop",), None))
        self._replicate()
        self.sim.schedule_at(self.sim.now + self.heartbeat_us, self._heartbeat)
        self.grantee.ask()

    def _heartbeat(self, _arg=None) -> None:
        if self.role is not Role.LEADER:
            return
        if self.runtime.is_paused:
            self.sim.schedule_at(self.runtime.paused_until, self._heartbeat)
            return
        self._replicate()
        self.sim.schedule_at(self.sim.now + self.heartbeat_us, self._heartbeat)

    # -- log replication -------------------------------------------------------------

    def _append_from(self, nxt: int) -> AppendEntries:
        """The AppendEntries carrying the log from index ``nxt`` on."""
        prev = nxt - 1
        log = self.log
        return AppendEntries(self.term, self.id, prev, log[prev - 1][0] if prev else 0,
                             tuple(log[prev:]), self.commit_index)

    def _send_append(self, peer: NodeId) -> None:
        self._send(peer, self._append_from(self.next_index[peer]))

    def _replicate(self) -> None:
        """Send every peer the log from its next index on, in peer order.

        Peers at the same next index share one message, which no receiver
        mutates.  Sending starts no pause, so one check covers the fan-out.
        """
        built: dict[int, AppendEntries] = {}
        next_index = self.next_index
        sim, node_id = self.sim, self.id
        paused = sim.now < self.runtime.paused_until
        for peer in self.peers:
            nxt = next_index[peer]
            msg = built.get(nxt)
            if msg is None:
                msg = built[nxt] = self._append_from(nxt)
            if paused:
                self._send(peer, msg)
            else:
                sim.send(node_id, peer, msg)

    def _on_append(self, src: NodeId, m: AppendEntries) -> None:
        if m.term != self.term or m.leader != self.leader_hint:
            if m.term < self.term:
                self._send(src, AppendReply(self.term, False, 0))
                return
            self._become_follower(m.term, m.leader)
        else:
            # The known leader of this term (only a follower's hint names
            # another node): _become_follower would only note the contact.
            self.last_contact = self.sim.now
        log = self.log
        prev = m.prev_index
        n = len(log)
        if prev > n or (prev and log[prev - 1][0] != m.prev_term):
            self._send(src, AppendReply(self.term, False, 0))
            return
        entries = m.entries
        if prev == n:
            log.extend(entries)
        elif entries:
            # Keep the entries both logs hold; from the first conflict on,
            # the leader's entries replace this node's.
            end = min(prev + len(entries), n)
            k = prev
            while k < end and log[k][0] == entries[k - prev][0]:
                k += 1
            if k < prev + len(entries):
                del log[k:]
                log.extend(entries[k - prev:])
        n, new_commit = len(log), m.leader_commit
        if new_commit > n:
            new_commit = n
        if new_commit > self.commit_index:
            self.commit_index = new_commit
            self._apply_committed()  # may start a pause
        reply = AppendReply(self.term, True, prev + len(entries))
        sim = self.sim
        if sim.now < self.runtime.paused_until:
            self._send(src, reply)
        else:
            sim.send(self.id, src, reply)

    def _on_append_reply(self, src: NodeId, m: AppendReply) -> None:
        if m.term != self.term or self.role is not Role.LEADER:
            if m.term > self.term:
                self._become_follower(m.term)
            return
        if not m.success:
            self.next_index[src] = max(1, self.next_index[src] - 1)
            self._send_append(src)
            return
        match = m.match_index
        match_index = self.match_index
        if match > match_index[src]:
            match_index[src] = match
            if match > self.commit_index:
                self._advance_commit()
        next_index = self.next_index
        if next_index[src] <= match:
            next_index[src] = match + 1
        last = len(self.log)
        if self.switch_target is not None and \
                match_index.get(self.switch_target, 0) >= last:
            self.sim.schedule_at(self.sim.now, self._check_switch)
        elif next_index[src] <= last:
            self._send_append(src)

    def _advance_commit(self) -> None:
        """Commit the largest index a majority holds, this node included, if
        its entry is from the current term; that commits all before it.

        Terms never fall along a leader's log, so no smaller index can pass
        the term test where that one fails (Ongaro 2014, section 3.6.2).
        Only a rise in some match index past ``commit_index`` can move it.
        """
        others = self.majority - 1  # peers that must hold the entry
        n = len(self.log)
        if others:
            n = min(n, sorted(self.match_index.values(), reverse=True)[others - 1])
        if n > self.commit_index and self.log[n - 1][0] == self.term:
            self.commit_index = n
            self._apply_committed()

    def _apply_committed(self) -> None:
        """Apply the entries up to ``commit_index``; a leader answers the
        clients waiting on them.

        A client waits on the index its set was appended at, and is answered
        only if the entry applied there is its own: a leader that lost its
        log's tail and later leads again may find another entry there.
        Nothing an entry's allocation starts (a pause, an ask, a handoff
        scheduled for later) moves ``commit_index`` or ``last_applied``.
        Only a leader waits on entries, so a follower skips the lookup.
        """
        index, commit = self.last_applied, self.commit_index
        self.last_applied = commit
        log, awaiting = self.log, self._awaiting_commit
        record_apply, node_id = self.trace.record_apply, self.id
        while index < commit:
            entry = log[index]
            index += 1
            op = entry[1]
            if op[0] == "set":
                self.kv[op[1]] = op[2]
                self.runtime.allocate(self.bytes_per_request)
            record_apply(node_id, index, entry)
            if awaiting:
                pending = awaiting.pop(index, None)
                if pending is not None and pending[1] == entry[2] and self.role is Role.LEADER:
                    client, rid = pending
                    self._schedule_reply(client, ClientReply(rid, "ok", self.leader_hint))

    # -- client requests ------------------------------------------------------------

    def _on_client(self, src: NodeId, m: ClientRequest) -> None:
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
            log = self.log
            log.append((self.term, m.op, m.rid))
            self._awaiting_commit[len(log)] = (m.client, m.rid)
            self._replicate()
        # Allocation last: a collection offer triggered here may schedule a
        # leadership handoff, which must observe the appended entry above.
        self.runtime.allocate(self.bytes_per_request)

    def _schedule_reply(self, client: NodeId, reply: ClientReply,
                        due: Optional[int] = None) -> None:
        """Send a reply to depart at ``due``, by default after the request's
        service time, unless a pause under way covers ``due``: then hold it
        in a timer at ``due``, which ``_send`` defers to the wake.

        A pause that begins before a sent reply departs holds it too
        (:meth:`_on_pause`).  A handoff recalls the replies not yet
        departed: they travel in the switch message and the successor
        schedules them at the same due time, so an imminent pause at this
        node cannot delay them, and a further handoff carries them on again.
        """
        sim = self.sim
        now = sim.now
        if due is None:
            due = now + self.service_time_us
        replies = self._replies
        while replies and replies[0][2] < now:  # departed
            replies.popleft()
        if due < self.runtime.paused_until:
            replies.append((client, reply, due,
                            sim.schedule_at(due, self._deferred_send, (client, reply)), False))
        else:
            replies.append((client, reply, due, sim.send_at(self.id, client, reply, due), True))

    # -- fast leadership handoff -------------------------------------------------------

    def request_leader_switch(self, successor: NodeId) -> None:
        """Hand leadership to ``successor`` as soon as its log is caught up
        and every entry is committed.

        The handoff itself always runs as its own event so whatever work the
        current event still has in flight completes under stable leadership.
        """
        if self.role is not Role.LEADER:
            raise ValueError(f"{self.id} is not the leader")
        if successor == self.id or successor not in self.next_index:
            raise ValueError(f"bad switch successor {successor!r}")
        self.switch_target = successor
        self.sim.schedule_at(self.sim.now, self._check_switch)

    def _check_switch(self, _arg=None) -> None:
        if self.role is not Role.LEADER or self.switch_target is None:
            return
        if self.switch_target in self.ledger.granted:
            # granted a collection while its log caught up: it may be paused
            self.switch_target = self._pick_successor()
        last = len(self.log)
        if self.match_index[self.switch_target] < last:
            self._send_append(self.switch_target)
        elif self.commit_index == last:
            self._do_fast_switch()

    def _do_fast_switch(self) -> None:
        successor = self.switch_target
        new_term = self.term + 1
        sim = self.sim
        pending = []
        for client, reply, due, handle, sent in self._replies:
            if sim.ahead(due, handle[1]):  # not departed yet
                if sent:
                    sim.recall(handle, due)
                else:
                    sim.cancel(handle)
                reply.leader_hint = successor  # not this node, which is about to pause
                pending.append((client, reply, due))
        self._replies.clear()
        grants = tuple(sorted(self.ledger.granted))
        net = self.sim.network
        self._drained_at = self.sim.now + 2 * (net.one_way_delay_us + net.jitter_us)
        self.trace.switches.append((self.sim.now, self.id, successor, new_term))
        switch = FastSwitch(new_term, successor, tuple(pending), grants)
        for peer in self.peers:
            self._send(peer, switch)
        for client in self.client_ids:
            self._send(client, LeaderNotice(successor))
        # The successor sends the grant this node gave itself unasked; an ask
        # of its own still queued here is sent there again.
        own_grant = self.id in self.ledger.granted
        self._become_follower(new_term, None if own_grant else successor)
        self.voted_for = self.leader_hint = successor

    def _on_fast_switch(self, src: NodeId, m: FastSwitch) -> None:
        if m.new_term < self.term:
            return
        if m.new_term == self.term and self.role is Role.LEADER:
            return  # stale duplicate of a handoff this node already won
        if self.id != m.successor:
            self._become_follower(m.new_term, m.successor)
            self.voted_for = m.successor
            return
        self.term = m.new_term
        self.voted_for = self.id
        self._become_leader(m.grants)
        for client, reply, due in m.pending_replies:
            self._schedule_reply(client, reply, max(self.sim.now, due))
        if src in self.ledger.granted:
            # the old leader granted itself, then handed off to collect
            self._issue_grant(src)

    # -- collection coordination: grantee side ------------------------------------------

    def _send_ask(self) -> None:
        """Ask the known leader for a grant; a leader asks its own ledger, a
        node that knows no leader asks once it learns of one."""
        if self.role is Role.LEADER:
            self.ledger.ask(self.id)
        elif self.leader_hint is not None:
            self._send(self.leader_hint, AskGC())

    def _on_allow_gc(self, src: NodeId, m: AllowGC) -> None:
        if self.sim.now < self._drained_at:
            # A client may have sent a request here just before it heard of
            # this node's handoff: collect once every such request is in.
            self.sim.schedule_at(self._drained_at, self._redeliver, (src, m))
            return
        if self.role is Role.LEADER:
            # Elected while the grant was in flight: a leader never pauses as
            # leader, so ask again through the admission flow.  The grantor
            # stepped down on the newer term, and its ledger with the stale
            # slot was reset then.
            self.grantee.ask()
            return
        self.grantee.grant(src)

    def _redeliver(self, arg: tuple) -> None:
        self.deliver(*arg)

    def _send_done(self, grantor: NodeId) -> None:
        """Report a collection done to the leader known when its pause ends:
        a handoff during the pause moves the grant to the successor."""
        self._send(self.leader_hint or grantor, DoneGC(self.id))

    # -- collection coordination: leader side ---------------------------------------------

    def _on_ask_gc(self, src: NodeId, m: AskGC) -> None:
        if self.role is Role.LEADER:  # else the asker retries with the right leader
            self.ledger.ask(src)

    def _issue_grant(self, node: NodeId) -> None:
        """Send ``node`` its grant.  The leader's own becomes a handoff, or
        frees the slot if exhaustion forced the collection since it asked."""
        if node != self.id:
            self._send(node, AllowGC())
        elif self.runtime.active_ticket is None:
            self.ledger.finish(node)
        else:
            self.request_leader_switch(self._pick_successor())

    def _on_done_gc(self, src: NodeId, m: DoneGC) -> None:
        """Free the slot of the node that collected.  A server that does not
        lead passes the done on to the leader it knows, even back to the
        sender: a successor that has not yet heard of its handoff sends it
        back, and it moves on until the successor has taken the lead."""
        if self.role is not Role.LEADER:
            hint = self.leader_hint
            if hint is not None and hint != self.id:
                self._send(hint, m)
            return
        self.ledger.finish(m.node)

    def _pick_successor(self) -> NodeId:
        """The last server that finished a collection (its heap is the
        freshest) if it holds no grant, else a seeded random pick among the
        servers that hold none."""
        successor = self.ledger.last_finished
        if successor in (None, self.id) or successor in self.ledger.granted:
            choices = [p for p in self.peers if p not in self.ledger.granted]
            successor = self.rng.choice(choices) if choices else self.peers[0]
        return successor


class RaftClient:
    """Issues get/set requests to its current idea of the leader.

    The belief updates from leadership notices, redirects and the hints in
    replies.  A notice outranks the hint of a reply to a request issued
    before it: with network jitter, an answer the old leader sent just before
    its handoff can arrive after the notice, and would send the client back
    to a node about to pause.  A redirect that names a leader is resent there
    at once.  An unanswered request is retried against the current belief
    after the configured timeout, and again every timeout after that.  A
    retried set may be applied twice; when another client's set to the same
    key lands in between, the repeat overwrites it, which breaks
    linearizability (client sessions that drop duplicates are ROADMAP item
    3).  Latency is measured from first submission to first reply: each
    request reaches ``on_sample(rid, completed, server)`` once, with its
    first answer, and a later answer to it is dropped.

    ``outstanding`` maps each unanswered request id to ``(op, issued,
    deadline)`` in deadline order: a new or retried request always has the
    latest deadline, so it goes to the end.  One timer, armed at the
    earliest deadline, serves them all.
    """

    def __init__(self, sim: Simulation, client_id: NodeId, initial_leader: NodeId,
                 timeout_us: int,
                 on_sample: Callable[[int, int, NodeId], None]):
        self.sim = sim
        self.id = client_id
        self.belief = initial_leader
        self.timeout_us = timeout_us
        self.on_sample = on_sample
        self.outstanding: dict[int, tuple[tuple, int, int]] = {}
        self.retries = 0
        self._timer_armed = False
        self._notice_at = 0  # when the last LeaderNotice arrived
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
            self._notice_at = self.sim.now
            return
        if msg.redirect:
            if msg.leader_hint:
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
        _op, issued, _deadline = entry
        if msg.leader_hint and issued >= self._notice_at:
            self.belief = msg.leader_hint
        self.on_sample(msg.rid, self.sim.now, src)
