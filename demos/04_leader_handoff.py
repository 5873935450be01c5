"""
Fast leadership handoff in the replicated cluster
=================================================

Followers collect behind the leader's admission ledger without any client
impact.  When the leader itself must collect, it first hands leadership to
the last server that collected -- a half round-trip broadcast -- and only
then pauses, as a follower.  In-flight client work rides the handoff message,
bounding the impact on any request to at most one round-trip.
"""

from gcsim import MIB, default_config, run_scenario

# 60 simulated seconds with every node allocating.
cfg = default_config("raft", duration_s=60, background_alloc_bytes_per_s=16 * MIB)
off = run_scenario(cfg, mode="off")
blade = run_scenario(cfg, mode="blade")

print(f"{len(blade.pauses)} collections, {len(blade.trace.switches)} leadership "
      f"handoffs in 60 s:")
for when, old, new, term in blade.trace.switches:
    print(f"  t={when / 1e6:7.3f} s  {old} -> {new} (term {term})")

base = off.latency_by_rid()
deltas = sorted(blade.latency_by_rid()[rid] - base[rid] for rid in base)
affected = [d for d in deltas if d > 0]
print(f"\nper-request cost of all that collecting, against the no-collector "
      f"baseline:\n  {len(affected)} of {len(deltas)} requests slower, worst "
      f"by {max(deltas)} us (bound: one RTT = {cfg.rtt_us} us)")
