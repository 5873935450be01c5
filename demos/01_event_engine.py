"""
The deterministic event engine
==============================

Everything in this package runs on a microsecond-resolution virtual clock.
Events fire in (time, insertion order), messages between nodes take half a
round-trip each way, and two runs with the same seed replay identically.
"""

from gcsim import MS, NetworkModel, Simulation

# A 48 us round-trip network: one-way delivery costs 24 us.
sim = Simulation(seed=1, network=NetworkModel.from_rtt(48))

log = []
sim.add_node("server", lambda src, msg: (
    log.append(f"{sim.now:>6} us  server got {msg!r} from {src}"),
    sim.send("server", src, "pong"),
))
sim.add_node("client", lambda src, msg: log.append(
    f"{sim.now:>6} us  client got {msg!r} back"))

# Timers and sends are just events on the shared queue.
sim.schedule_at(0, lambda _: sim.send("client", "server", "ping"))
sim.schedule_at(5 * MS, lambda _: log.append(f"{sim.now:>6} us  five-ms timer"))
sim.schedule_at(5 * MS, lambda _: log.append(f"{sim.now:>6} us  same tick, inserted later"))

stats = sim.run_until(10 * MS)
print("\n".join(log))
print(f"\nfired {stats.events_fired} events, clock ended at {stats.now} us")

# Determinism: replaying the same construction delivers the same messages
# at the same times.
def replay():
    s = Simulation(seed=1, network=NetworkModel.from_rtt(48, jitter_us=5))
    delivered = []
    s.add_node("a", lambda src, msg: delivered.append((s.now, src, msg)))
    s.add_node("b", lambda src, msg: (delivered.append((s.now, src, msg)),
                                      s.send("b", "a", "r")))
    for i in range(100):
        s.schedule_at(i * 100, lambda _: s.send("a", "b", "m"))
    s.run_until(20 * MS)
    return delivered

assert replay() == replay()
print("two identical runs delivered identical message sequences")
