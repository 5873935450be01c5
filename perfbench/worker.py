"""One checked three-mode comparison of a gcsim workload, in a fresh process.

    python3 perfbench/worker.py CONFIG --seed N --out DIR [--trace] [--setup-only]

It follows the ``gcsim compare`` path: ``parse_config``, ``run_compare``
over the modes off, blade and on, ``summary`` and ``emit_report``.  Then it
runs ``raftcheck.check_history`` on each Raft history.  It prints one JSON
object with the host timings, peak RSS, SHA-256 digests of the report files,
the simulated impact of blade over off, and the output checks that failed.
``--trace`` wraps the layers with ``tracer.Tracer`` for the per-layer
figures; ``--setup-only`` stops after importing gcsim and parsing CONFIG.

``run.py`` starts this with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

PARSE_REPEATS = 21
# Host-speed probe: a fixed loop timed every PROBE_PERIOD_S during the
# untraced comparison.  PROBE_REF_S is its time at the reference speed
# (about the median on a 2-vCPU Xeon VM with Python 3.11).
PROBE_PERIOD_S = 0.2
PROBE_LOOPS = 60_000
PROBE_REF_S = 0.005
RAFT_MESSAGES = ("RequestVote", "VoteReply", "AppendEntries", "AppendReply",
                 "ClientRequest", "ClientReply", "FastSwitch", "LeaderNotice",
                 "AskGC", "AllowGC", "DoneGC")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from gcsim import config, metrics, raftcheck, scenarios
    cfg = config.parse_config(args.config)
    record = {"setup_s": time.perf_counter() - start,
              "gcsim_file": os.path.abspath(config.__file__)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        record["config.parse_s"] = _median_time(lambda: config.parse_config(args.config))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    probe = SpeedProbe(enabled=tracer is None)
    with probe:
        start = time.perf_counter()
        results = scenarios.run_compare(cfg, seed=args.seed)
        simulated, probed = time.perf_counter(), probe.spent()
        summaries = [r.summary() for r in results]
        paths = metrics.emit_report(summaries, args.out, prefix="compare")
        violations = {r.mode: raftcheck.check_history(r.trace)
                      for r in results if r.trace is not None}
        end = time.perf_counter()
    wall_s = end - start - probe.spent()
    record.update(wall_s=wall_s, run_s=wall_s * probe.factor(),
                  sim_s=(simulated - start - probed) * probe.factor(),
                  speed_factor=probe.factor(), probes=len(probe.samples),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    if tracer is not None:
        record["not_restored"] = tracer.uninstall()
        record["missing_hooks"] = sorted(set(tracer.missing))
        record["layers"] = _layers(tracer, cfg, args.seed, results, metrics)

    record["failures"] = _check(results, violations)
    record["digests"] = _digests(paths)
    record["impact"] = _impact(cfg, results, summaries)
    record["events"] = sum(r.stats.events_fired for r in results)
    numpy = sys.modules.get("numpy")
    record["numpy"] = numpy.__version__ if numpy is not None else None
    print(json.dumps(record))
    return 0


class SpeedProbe:
    """Corrects a timed region for the host's speed at the time.

    Other tenants of a shared host slow the CPU by up to half, in phases of
    seconds to minutes, and a run's wall time follows.  While enabled, a
    timer signal interrupts the region every ``PROBE_PERIOD_S`` and times a
    fixed loop.  ``factor()`` is the reference loop time over the mean
    sampled one, so host seconds times the factor are host seconds at the
    reference speed.  The probes' own time is returned by ``spent()``, to be
    left out of the region's time.  Disabled, or with no sample taken, the
    factor is 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def spent(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return PROBE_REF_S / statistics.fmean(self.samples)


def _median_time(fn) -> float:
    times = []
    for _ in range(PARSE_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _check(results, violations) -> list[str]:
    """The output checks; each failed one is a line in the returned list."""
    failures = []
    for mode, found in violations.items():
        if found:
            failures.append(f"{mode}: raftcheck found {len(found)} violations, "
                            f"first: {found[0]}")
    for r in results:
        if len(r.samples) + r.in_flight != r.issued:
            failures.append(f"{r.mode}: {len(r.samples)} completed + {r.in_flight} "
                            f"in flight != {r.issued} issued")
        early = sum(1 for s in r.samples if s[2] < s[1])
        if early:
            failures.append(f"{r.mode}: {early} samples complete before they were issued")
    return failures


def _digests(paths: list[str]) -> dict[str, str]:
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _impact(cfg, results, summaries) -> dict:
    """Per-request latency increase of blade over off, and the blade tail."""
    (off, off_sum), (blade, blade_sum) = (
        next((r.latency_by_rid(), s) for r, s in zip(results, summaries) if r.mode == mode)
        for mode in ("off", "blade"))
    deltas = [blade[rid] - off[rid] for rid in blade.keys() & off.keys()]
    over = sum(1 for d in deltas if d > cfg.rtt_us)
    return {
        "common_requests": len(deltas),
        "impact_max_us": max(deltas, default=0),
        "impact_over_rtt": over,
        "impact_over_rtt_frac": over / len(deltas) if deltas else 0.0,
        "rtt_us": cfg.rtt_us,
        "off_p999_us": off_sum.report.quantiles_us[99.9] if off_sum.report else 0,
        "blade_p999_us": blade_sum.report.quantiles_us[99.9] if blade_sum.report else 0,
    }


def _layers(tracer, cfg, seed, results, metrics) -> dict[str, float]:
    """Per-layer figures of the traced run, before the untraced-run ratios."""
    from gcsim.raft import Role
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    raft_runs = [r for r in results if r.trace is not None]
    issued = sum(r.issued for r in results)
    raft_msgs = {name: counts["msg." + name] for name in RAFT_MESSAGES}
    offers = counts["runtime.offers"]
    fired = counts["raft.retry_timer_fired"]
    layers = {
        "simcore.events": sum(r.stats.events_fired for r in results),
        "simcore.scheduled": counts["simcore.scheduled"],
        "simcore.cancelled": counts["simcore.cancelled"],
        "simcore.self_s": self_s["simcore"],
        "simcore.messages": sum(r.stats.messages_sent for r in results),
        "simcore.send_s": self_s["simcore.send"],
        "runtime.allocate_calls": calls["runtime.allocate"],
        "runtime.allocate_s": self_s["runtime.allocate"],
        "runtime.collections": sum(len(r.pauses) for r in results),
        "runtime.forced": sum(p.forced for r in results for p in r.pauses),
        "runtime.offers": offers,
        "runtime.deferred_ratio": counts["runtime.deferred"] / offers if offers else 0.0,
        "runtime.estimate_s": self_s["runtime.estimate"],
        "httpcluster.backend_s": self_s["httpcluster.backend"],
        "httpcluster.balancer_s": self_s["httpcluster.balancer"],
        "httpcluster.asks": counts["httpcluster.asks"],
        "httpcluster.queued_asks": counts["httpcluster.queued_asks"],
        "httpcluster.parked_requests": counts["httpcluster.parked_requests"],
        "raft.node_s": self_s["raft.node"],
        "raft.client_s": self_s["raft.client"],
        "raft.msgs_per_op": sum(raft_msgs.values()) / issued if raft_runs else 0.0,
        "raft.handoffs": sum(len(r.trace.switches) for r in raft_runs),
        "raft.elections": sum(1 for r in raft_runs
                              for changes in r.trace.role_changes.values()
                              for _t, _term, role in changes if role is Role.CANDIDATE),
        "raft.retries": sum(r.retries for r in raft_runs),
        "raft.retry_timers": fired,
        "raft.retry_timer_useful_ratio":
            counts["raft.retry_timer_useful"] / fired if fired else 0.0,
        "raftcheck.check_s": self_s["raftcheck.check"],
        "raftcheck.entries": sum(len(log) for r in raft_runs
                                 for log in r.trace.final_logs.values()),
        "metrics.percentiles_s": self_s["metrics.percentiles"],
        "metrics.report_s": tracer.total_s["metrics.report"],
        "metrics.samples": sum(len(r.samples) for r in results),
        "metrics.workload_s": _drain_workload(cfg, seed, metrics, len(results)),
        "metrics.overlap_s": self_s["metrics.overlap"],
        "scenarios.bg_ticks": counts["scenarios.bg_ticks"],
    }
    for verdict in ("grant", "queued", "duplicate"):
        layers["raft.ledger." + verdict] = counts["raft.ledger." + verdict]
    for name, n in raft_msgs.items():
        layers["raft.msg." + name] = n
    for mode in ("off", "blade", "on"):
        layers["scenarios.run_s." + mode] = tracer.total_s["scenarios.run." + mode]
    return layers


def _drain_workload(cfg, seed, metrics, times) -> float:
    """Host seconds to drain the comparison's workload streams standalone."""
    fields = dict(rate_rps=cfg.rate_rps, duration_s=cfg.duration_s,
                  arrivals=cfg.arrivals, seed=seed)
    if cfg.system == "http":
        wl = metrics.WorkloadConfig(kind="http", **fields)
    else:
        wl = metrics.WorkloadConfig(mix_get=cfg.mix_get, mix_set=cfg.mix_set,
                                    kind="rw", **fields)
    start = time.perf_counter()
    for _ in range(times):
        collections.deque(metrics.generate_workload(wl), maxlen=0)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
