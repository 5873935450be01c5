"""
Drain-then-collect in a load-balanced web cluster
=================================================

A backend that wants to collect asks the balancer, drains its in-flight
requests once scheduled, collects while idle, then rejoins the rotation.
Requests never wait on a collector; the cluster briefly loses one server of
capacity instead.
"""

from gcsim import (MIB, GIB, HttpEventModel, default_config, http_model_eval,
                   run_scenario)
from gcsim.httpcluster import Backend, LoadBalancer
from gcsim.runtime import CollectorCostModel, GcMode, HeapModel, ManagedRuntime, PauseEstimator
from gcsim.simcore import NetworkModel, Simulation

# One backend with two requests in flight when the grant arrives.
sim = Simulation(network=NetworkModel.from_rtt(48))
lb = LoadBalancer(sim, "lb", ["b0"])
heap = HeapModel(live_bytes=150 * MIB, trigger_bytes=300 * MIB,
                 hard_limit_bytes=GIB)
rt = ManagedRuntime(sim, "b0", heap, CollectorCostModel(25_000, 8_761),
                    PauseEstimator(), mode=GcMode.BLADE)
backend = Backend(sim, "b0", "lb", rt, service_time_us=2_000, parallelism=16,
                  bytes_per_request=0)

sim.schedule_at(10, lambda _: lb.route(1, 10))
sim.schedule_at(20, lambda _: lb.route(2, 20))
sim.schedule_at(100, lambda _: rt.allocate(200 * MIB))  # ask goes out here
sim.run_until(1_000_000)

pause = rt.pauses[0]
print("timeline of the coordinated collection:")
print(f"  trigger crossed, ask sent      {100:>8} us")
print(f"  grant received (1 RTT later)   {100 + 48:>8} us")
print(f"  trailers drained, pause begins {pause.start_us:>8} us")
print(f"  pause ends, done sent          {pause.end_us:>8} us")
for rid, issued, done, server, _kind in sorted(lb.samples):
    print(f"  request {rid}: {issued} -> {done} us ({(done - issued) / 1000:.3f} ms, "
          f"untouched by the pause)")

# The capacity model for that event.
model = HttpEventModel(t_schedule=48, t_trailers=pause.start_us - 148,
                       t_gc=pause.end_us - pause.start_us, t_rpc=24)
result = http_model_eval(model)
print("\ncapacity model:")
print(f"  latency impact    {result.latency_impact_us} us")
print(f"  capacity loss     {result.capacity_loss_servers} server")
print(f"  capacity downtime {result.capacity_downtime_us / 1000:.3f} ms")
print(f"  event time        {result.event_time_us / 1000:.3f} ms")

# The same protocol at cluster scale: each backend collects about twice.
cfg = default_config("http", duration_s=30)
print("\n30 s cluster comparison (max latency in ms):")
for mode in ("off", "blade", "on"):
    run = run_scenario(cfg, mode=mode)
    lat = sorted(run.latencies_us())
    print(f"  {run.label:6s} max {lat[-1] / 1000:7.3f}   "
          f"collections {len(run.pauses)}")
