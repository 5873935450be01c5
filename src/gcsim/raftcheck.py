"""Independent safety checker for recorded Raft histories.

Works purely on what nodes report to the trace (role changes, final logs,
applied entries), never on node state, so a bug in the protocol
implementation cannot hide itself: every check compares the reports
straight against the Raft safety definitions.

* Election safety: at most one node assumes leadership in any term.
* Log matching: if two logs agree on the term at some index, they are
  identical up to and including that index.
* State-machine safety: no two nodes apply different commands at the same
  log index, and each node applies indexes 1, 2, 3, ... in order.  The
  trace checks this as each entry is applied (``RaftTrace.record_apply``),
  against the entry first applied at that index.
"""

from __future__ import annotations

from .raft import RaftTrace, Role


def check_election_safety(trace: RaftTrace) -> list[str]:
    leaders_by_term: dict[int, set[str]] = {}
    for node, changes in trace.role_changes.items():
        for _time, term, role in changes:
            if role is Role.LEADER:
                leaders_by_term.setdefault(term, set()).add(node)
    return [
        f"term {term} had multiple leaders: {sorted(nodes)}"
        for term, nodes in sorted(leaders_by_term.items()) if len(nodes) > 1
    ]


def check_log_matching(trace: RaftTrace) -> list[str]:
    violations = []
    nodes = sorted(trace.final_logs)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            log_a, log_b = trace.final_logs[a], trace.final_logs[b]
            last_match = -1  # the last index whose terms agree
            for idx in range(min(len(log_a), len(log_b)) - 1, -1, -1):
                if log_a[idx][0] == log_b[idx][0]:
                    last_match = idx
                    break
            if last_match >= 0 and log_a[:last_match + 1] != log_b[:last_match + 1]:
                for idx in range(last_match + 1):
                    if log_a[idx] != log_b[idx]:
                        violations.append(
                            f"logs of {a} and {b} agree on term at index {last_match + 1} "
                            f"but diverge at index {idx + 1}: "
                            f"{log_a[idx]!r} vs {log_b[idx]!r}")
                        break
    return violations


def check_state_machine_safety(trace: RaftTrace) -> list[str]:
    return list(trace.violations)


def check_history(trace: RaftTrace) -> list[str]:
    """Run every safety check; an empty list means the history is clean."""
    return (check_election_safety(trace)
            + check_log_matching(trace)
            + check_state_machine_safety(trace))
