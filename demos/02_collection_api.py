"""
The cooperative collection API
==============================

A node's runtime upcalls the application when heap occupancy crosses the
trigger, passing a ticket with a monotonic id and the current occupancy.
The handler either collects on the spot (True) or defers (False) until
start_gc -- and if the heap runs out while deferred, the collector runs
anyway and the late start_gc is ignored.  The runtime keeps only the open
cycle's ticket; the handler keeps the ones it was offered.
"""

from gcsim import (GIB, MIB, CollectorCostModel, GcMode, HeapModel,
                   ManagedRuntime, Simulation, TicketState)

sim = Simulation()
heap = HeapModel(live_bytes=150 * MIB, trigger_bytes=300 * MIB,
                 hard_limit_bytes=1 * GIB)
# Stop-the-world cost: 25 ms per GiB of live data plus fixed overhead;
# at a 150 MiB live set this lands on the observed 12.423 ms average.
cost = CollectorCostModel(pause_per_gib_us=25_000, fixed_overhead_us=8_761)
rt = ManagedRuntime(sim, "node", heap, cost, mode=GcMode.BLADE)
print(f"modeled pause for a 150 MiB live set: {cost.pause_us(150 * MIB) / 1000:.3f} ms")

offers = []
rt.reg_gc_hand(lambda ticket: offers.append(ticket) or False)  # always defer

# Allocate until the trigger fires.
sim.schedule_at(1_000, lambda _: rt.allocate(200 * MIB))
sim.run_until(1_000)
t = offers[-1]
assert rt.active_ticket is t and t.state is TicketState.DEFERRED
print(f"upcall: id={t.id} occupancy={t.allocated_bytes // MIB} MiB -> {t.state.value}")

# An id that is not the open cycle's changes nothing.
rt.start_gc(t.id + 1)
assert rt.collection_count() == 0

# The application starts the deferred collection at a time of its choosing.
sim.schedule_at(50_000, lambda _: rt.start_gc(t.id))
sim.run_until(100_000)
p = rt.pauses[-1]
print(f"collection {p.ticket_id} ran {p.start_us}..{p.end_us} us "
      f"({(p.end_us - p.start_us) / 1000:.3f} ms), state={t.state.value}; "
      f"start_gc again is a no-op")
rt.start_gc(t.id)
assert rt.collection_count() == 1

# Exhaustion: defer, then allocate right through the hard limit.
sim.schedule_at(200_000, lambda _: rt.allocate(200 * MIB))   # second cycle opens
sim.schedule_at(300_000, lambda _: rt.allocate(700 * MIB))   # forced at the crossing
sim.run_until(400_000)
t2 = offers[-1]
print(f"cycle {t2.id} exhausted the heap: state={t2.state.value}, "
      f"forced collections={sum(p.forced for p in rt.pauses)}")
rt.start_gc(t2.id)
assert rt.collection_count() == 2  # the late start was ignored
