"""
Drain-then-collect in a load-balanced web cluster
=================================================

A backend that wants to collect asks the balancer, drains its in-flight
requests once scheduled, collects while idle, then rejoins the rotation.
Requests never wait on a collector; the cluster briefly loses one server of
capacity instead.
"""

from gcsim import MIB, GIB, default_config, run_scenario
from gcsim.httpcluster import Backend, LoadBalancer
from gcsim.runtime import CollectorCostModel, GcMode, HeapModel, ManagedRuntime
from gcsim.simcore import NetworkModel, Simulation

# One backend with two requests in flight when the grant arrives: requests
# 1 and 2, issued at 10 and 20 us.
sim = Simulation(network=NetworkModel.from_rtt(48))
lb = LoadBalancer(sim, "lb", ["b0"], times=[10, 20])
heap = HeapModel(live_bytes=150 * MIB, trigger_bytes=300 * MIB,
                 hard_limit_bytes=GIB)
rt = ManagedRuntime(sim, "b0", heap, CollectorCostModel(25_000, 8_761), mode=GcMode.BLADE)
backend = Backend(sim, "b0", lb, rt, service_time_us=2_000, parallelism=16,
                  bytes_per_request=0)

# Note when each coordination message lands.
landed = {}
for node, deliver in (("b0", backend.deliver), ("lb", lb.deliver)):
    def watch(src, msg, deliver=deliver):
        landed.setdefault(msg[0], sim.now)
        deliver(src, msg)
    sim.add_node(node, watch)

sim.schedule_at(10, lambda _: lb.route(1, 10))
sim.schedule_at(20, lambda _: lb.route(2, 20))
sim.schedule_at(100, lambda _: rt.allocate(200 * MIB))  # ask goes out here
sim.run_until(1_000_000)

pause = rt.pauses[0]
print("timeline of the coordinated collection, as measured:")
print(f"  trigger crossed, ask sent      {100:>8} us")
print(f"  grant received                 {landed['allow']:>8} us")
print(f"  trailers drained, pause begins {pause.start_us:>8} us")
print(f"  pause ends, done sent          {pause.end_us:>8} us")
print(f"  done received, routing resumes {landed['done']:>8} us")
for rid, issued, done, server, _kind in lb.samples:
    print(f"  request {rid}: {issued} -> {done} us ({(done - issued) / 1000:.3f} ms, "
          f"untouched by the pause)")
# The backend is out of the rotation from the grant to the done report.
print("capacity: one server out of the rotation for "
      f"{(landed['done'] - landed['ask']) / 1000:.3f} ms =")
print(f"  allow in flight {landed['allow'] - landed['ask']} us"
      f" + drain {pause.start_us - landed['allow']} us"
      f" + pause {pause.end_us - pause.start_us} us"
      f" + done in flight {landed['done'] - pause.end_us} us")

# The same protocol at cluster scale: each backend collects about twice.
cfg = default_config("http", duration_s=30)
print("\n30 s cluster comparison (max latency in ms):")
for mode in ("off", "blade", "on"):
    run = run_scenario(cfg, mode=mode)
    lat = sorted(run.latencies_us())
    print(f"  {run.label:6s} max {lat[-1] / 1000:7.3f}   "
          f"collections {len(run.pauses)}")
