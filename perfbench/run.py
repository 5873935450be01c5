"""Benchmark: host cost of a checked three-mode gcsim comparison.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports gcsim from ``src``.  One
operation is one checked comparison (see ``worker.py``), each in a fresh
single-threaded process given the workload seed ``N + 1`` (config seeds
start at 1).  The run first starts ``SETUP_REPEATS`` processes that only
import gcsim and parse the config, then runs comparisons until ``S`` seconds
are used, and at least ``MIN_RUNS`` of them; ``run_s`` is corrected for the
host's speed (see ``worker.SpeedProbe``).  With ``--trace 1`` each step
is a pair, one untraced comparison and one traced, and the run reports the
per-layer metrics instead of the end-to-end ones.

An operation fails when a Raft history breaks a safety check, when
completed plus in-flight requests differ from those issued, when a sample
completes before it was issued, or when its report digests differ from
the first run's.  The paper's latency bounds are reported, not enforced:
raft_churn breaks the one-RTT bound today.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name and unit, then one JSON line with the report
digests, the simulated impact, the machine record and every run's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    "raft_desk": "configs/raft_desk.cfg",
    "http_cluster": "configs/http_cluster.cfg",
    "raft_churn": "perfbench/raft_churn.cfg",
}
# Seed kept out of tuning; confirm a claimed gain on it (--seed 7918).
HELD_OUT_SEED = 7918
SETUP_REPEATS = 7
MIN_RUNS = 3
# Every child must end by this many seconds after the start, so that the
# whole run stays within 180 seconds.
DEADLINE_S = 165.0
OUT_DIR = ".perfbench_out"
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


class BenchError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)


def run(args) -> int:
    root = os.getcwd()
    spec = _load_spec(root)
    config = WORKLOADS[args.workload]
    for path in ("src/gcsim/__init__.py", config):
        if not os.path.isfile(os.path.join(root, path)):
            raise BenchError(f"{path} not found; run from the root of a gcsim checkout")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    seed = args.seed + 1
    out = os.path.join(root, OUT_DIR)
    started = time.perf_counter()

    def child(*extra: str) -> dict:
        what = " ".join(extra) or "comparison"
        remaining = DEADLINE_S - (time.perf_counter() - started)
        if remaining <= 0:
            raise BenchError("out of time before a child could start")
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, config, "--seed", str(seed), "--out", out, *extra],
                env=env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a child ran past {DEADLINE_S:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{what} child exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{what} child printed no result") from None
        src = os.path.join(root, "src", "gcsim")
        if os.path.dirname(record["gcsim_file"]) != src:
            raise BenchError(f"imported gcsim from {record['gcsim_file']}, not {src}")
        return record

    setups = [child("--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]

    runs: list[dict] = []
    traced: list[dict] = []
    while True:
        step_start = time.perf_counter()
        runs.append(child())
        if args.trace:
            traced.append(child("--trace"))
        step = time.perf_counter() - step_start
        elapsed = time.perf_counter() - started
        enough = len(runs) >= (1 if args.trace else MIN_RUNS)
        if (enough and elapsed + step > args.seconds) or elapsed + step > DEADLINE_S:
            break

    failures = _failures(runs, traced)
    report = _report(args, seed, setups, runs, traced, failures)
    attempted = len(runs) + len(traced)
    failed = sum(1 for f in failures if f)
    section = "per_layer" if args.trace else "end_to_end"
    values = report["layers"] if args.trace else report["end_to_end"]
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is listed in BENCHMARK.json "
                             f"but not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed} (config seed {seed})  "
          f"ops {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    impact = report["impact"]
    print(f"  reported, not gated: impact_max_us {impact['impact_max_us']} us, "
          f"impact_over_rtt_frac {impact['impact_over_rtt_frac']:.6g} frac, "
          f"blade_p999_us {impact['blade_p999_us']} us, "
          f"wall_s {statistics.median(r['wall_s'] for r in runs):.6g} s")
    for i, f in enumerate(failures):
        for line in f:
            print(f"  FAILED op {i}: {line}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def _failures(runs: list[dict], traced: list[dict]) -> list[list[str]]:
    """The failed checks of each operation, untraced runs first."""
    reference = runs[0]["digests"]
    failures = []
    for kind, records in (("run", runs), ("traced run", traced)):
        for r in records:
            found = list(r["failures"])
            if r["digests"] != reference:
                found.append(f"{kind} report digests differ from the first run's")
            if r.get("not_restored"):
                found.append(f"tracer left {r['not_restored']} wrapped")
            failures.append(found)
    return failures


def _report(args, seed, setups, runs, traced, failures) -> dict:
    impact = runs[0]["impact"]
    median = statistics.median
    run_s = [r["run_s"] for r in runs]
    all_setups = setups + [r["setup_s"] for r in runs]
    end_to_end = {
        "run_s": median(run_s),
        "setup_s": median(all_setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "impact_within_rtt_frac": 1.0 - impact["impact_over_rtt_frac"],
        "blade_p999_over_off": impact["blade_p999_us"] / impact["off_p999_us"],
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "ops": len(runs) + len(traced),
        "failed": sum(1 for f in failures if f),
        "failures": failures,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": runs[0]["numpy"],
            "platform": platform.platform(),
        },
        "end_to_end": end_to_end,
        "run_count": len(runs),
        "setup_count": len(all_setups),
        "digests": runs[0]["digests"],
        "impact": impact,
        "runs": [{k: r[k] for k in ("run_s", "wall_s", "speed_factor", "probes",
                                       "sim_s", "setup_s", "peak_rss_mb", "events")}
                 for r in runs],
    }
    if traced:
        layers = {k: median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        sim_s = median(r["sim_s"] for r in runs)
        layers["simcore.events_per_s"] = median(r["events"] for r in runs) / sim_s
        layers["config.parse_s"] = median(t["config.parse_s"] for t in traced)
        layers["trace.overhead_s"] = (median(t["wall_s"] for t in traced)
                                      - median(r["wall_s"] for r in runs))
        layers["scenarios.impact_max_rtt"] = impact["impact_max_us"] / impact["rtt_us"]
        layers["scenarios.impact_over_rtt_frac"] = impact["impact_over_rtt_frac"]
        report["layers"] = layers
        report["missing_hooks"] = traced[0]["missing_hooks"]
        report["traced_runs"] = [{"wall_s": t["wall_s"], "layers": t["layers"]}
                                 for t in traced]
    return report


if __name__ == "__main__":
    sys.exit(main())
