"""Independent safety checker for recorded Raft histories.

Works purely on the observational trace (role changes, final logs,
per-node applied sequences) so a bug in the protocol implementation cannot
hide itself: every check is a brute-force comparison straight from the Raft
safety definitions.

* Election safety: at most one node assumes leadership in any term.
* Log matching: if two logs agree on the term at some index, they are
  identical up to and including that index.
* State-machine safety: no two nodes apply different commands at the same
  log index.
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
    violations = []
    applied_at: dict[int, tuple] = {}
    applied_by: dict[int, str] = {}
    for node in sorted(trace.applied):
        seen = 0
        for index, term, op in trace.applied[node]:
            if index != seen + 1:
                violations.append(
                    f"{node} applied index {index} after index {seen} (gap or reorder)")
            seen = index
            entry = (term, op)
            if index in applied_at and applied_at[index] != entry:
                violations.append(
                    f"index {index} applied as {applied_at[index]!r} by "
                    f"{applied_by[index]} but as {entry!r} by {node}")
            else:
                applied_at[index] = entry
                applied_by[index] = node
    return violations


def check_history(trace: RaftTrace) -> list[str]:
    """Run every safety check; an empty list means the history is clean."""
    return (check_election_safety(trace)
            + check_log_matching(trace)
            + check_state_machine_safety(trace))
