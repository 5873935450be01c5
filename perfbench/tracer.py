"""Outside-in tracer for the benchmark's traced run.

``Tracer.install`` replaces public entry points of the gcsim modules with
shims that time or count calls, and ``Tracer.uninstall`` puts every original
back.  Nothing under ``src/`` is edited.

A timed shim keeps a stack of open spans.  When a span closes, its duration
is added to the caller's "nested" time, so a key's self time is its spans'
duration minus the traced calls inside them, and self times add up without
double counting.  The shims' own cost lands in the caller's self time, most
of it in ``simcore`` (the event loop calls the handlers); the benchmark
reports that cost as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from gcsim import httpcluster, metrics, raft, raftcheck, runtime, scenarios, simcore

MODES = ("off", "blade", "on")


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- primitives -----------------------------------------------------------

    def timed(self, key: str, fn: Callable) -> Callable:
        stack, clock = self._stack, time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                total_s[key] += elapsed
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
        return shim

    def patch(self, module: Any, path: str, make: Callable[[Any], Callable]) -> None:
        """Replace ``module.<path>`` by ``make(original)``; record it if absent.

        ``path`` is ``name`` or ``Class.name``.  A missing target leaves its
        metrics at zero and is listed in ``missing``, so a refactor that
        removes a hooked function shows in the report instead of crashing it.
        """
        *outer, name = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(name) if owner is not None else None
        if original is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; returns those still not original."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        left = [f"{owner.__qualname__}.{name}" for owner, name, original in self._saved
                if vars(owner).get(name) is not original]
        self._saved.clear()
        return left

    # -- hooks, one block per layer ----------------------------------------------

    def install(self) -> None:
        counts, timed, patch = self.counts, self.timed, self.patch

        # simcore: the event loop, the send path by message class, cancellations.
        def run_until(orig):
            inner = timed("simcore", orig)

            def shim(sim, deadline):
                stats = inner(sim, deadline)
                seq = getattr(sim, "_seq", None)  # events ever scheduled
                if seq is None:
                    self.missing.append("Simulation._seq")
                else:
                    counts["simcore.scheduled"] += seq
                return stats
            return shim

        def send(orig):
            inner = timed("simcore.send", orig)

            def shim(sim, src, dst, msg):
                counts["msg." + type(msg).__name__] += 1
                return inner(sim, src, dst, msg)
            return shim

        def cancel(orig):
            def shim(sim, handle):
                counts["simcore.cancelled"] += 1
                return orig(sim, handle)
            return shim

        patch(simcore, "Simulation.run_until", run_until)
        patch(simcore, "Simulation.send", send)
        patch(simcore, "Simulation.cancel", cancel)

        # runtime: allocation, collection offers, the pause estimator.
        def reg_gc_hand(orig):
            def shim(rt, handler):
                if handler is None:
                    return orig(rt, handler)

                def offer(ticket):
                    collect_now = handler(ticket)
                    counts["runtime.offers"] += 1
                    if not collect_now:
                        counts["runtime.deferred"] += 1
                    return collect_now
                return orig(rt, offer)
            return shim

        patch(runtime, "ManagedRuntime.allocate", lambda f: timed("runtime.allocate", f))
        patch(runtime, "ManagedRuntime.reg_gc_hand", reg_gc_hand)
        patch(runtime, "PauseEstimator.estimate_us", lambda f: timed("runtime.estimate", f))

        # httpcluster: backends and the balancer with its coordinator.
        def lb_deliver(orig):
            inner = timed("httpcluster.balancer", orig)

            def shim(lb, src, msg):
                if msg[0] != "ask":
                    return inner(lb, src, msg)
                waiting = len(lb.wait_queue)
                result = inner(lb, src, msg)
                counts["httpcluster.asks"] += 1
                counts["httpcluster.queued_asks"] += len(lb.wait_queue) > waiting
                return result
            return shim

        def route(orig):
            inner = timed("httpcluster.balancer", orig)

            def shim(lb, rid, issued):
                backend = inner(lb, rid, issued)
                if backend is None:
                    counts["httpcluster.parked_requests"] += 1
                return backend
            return shim

        patch(httpcluster, "Backend.deliver", lambda f: timed("httpcluster.backend", f))
        patch(httpcluster, "LoadBalancer.deliver", lb_deliver)
        patch(httpcluster, "LoadBalancer.on_request",
              lambda f: timed("httpcluster.balancer", f))
        patch(httpcluster, "LoadBalancer.route", route)

        # raft: servers, clients, the client retry timer, the admission ledger.
        def retry_check(orig):
            def shim(client, rid):
                counts["raft.retry_timer_fired"] += 1
                counts["raft.retry_timer_useful"] += rid in client.outstanding
                return orig(client, rid)
            return shim

        def ledger_ask(orig):
            def shim(ledger, node):
                verdict = orig(ledger, node)
                counts["raft.ledger." + verdict] += 1
                return verdict
            return shim

        patch(raft, "RaftNode.deliver", lambda f: timed("raft.node", f))
        patch(raft, "RaftClient.deliver", lambda f: timed("raft.client", f))
        patch(raft, "RaftClient.submit", lambda f: timed("raft.client", f))
        patch(raft, "RaftClient._retry_check", retry_check)
        patch(raft, "GcLedger.ask", ledger_ask)

        # raftcheck and metrics: called by the comparison path itself.
        patch(raftcheck, "check_history", lambda f: timed("raftcheck.check", f))
        patch(metrics, "percentiles", lambda f: timed("metrics.percentiles", f))
        patch(metrics, "overlap_count", lambda f: timed("metrics.overlap", f))
        patch(metrics, "emit_report", lambda f: timed("metrics.report", f))

        # scenarios: one span per mode, plus background-allocator ticks.
        def run_scenario(orig):
            per_mode = {m: timed("scenarios.run." + m, orig) for m in MODES}

            def shim(cfg, mode=None, *args, **kwargs):
                return per_mode[mode or cfg.gc_mode](cfg, mode, *args, **kwargs)
            return shim

        def bg_tick(orig):
            def shim(allocator, arg=None):
                counts["scenarios.bg_ticks"] += 1
                return orig(allocator, arg)
            return shim

        patch(scenarios, "run_scenario", run_scenario)
        patch(scenarios, "_BackgroundAllocator._tick", bg_tick)
