"""Workload generation, latency capture, and tail-latency reporting.

Quantiles use the nearest-rank definition over the sorted sample list (no
interpolation) and the standard deviation is the population deviation; both
conventions are stated in every report header.  Report rendering is fully
deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .runtime import PauseInterval

QUANTILE_LEVELS = (95.0, 99.0, 99.9, 99.99, 99.999, 99.9999)


@dataclass
class PercentileReport:
    count: int
    mean_us: float
    median_us: int
    stddev_us: float
    max_us: int
    quantiles_us: dict[float, int]  # level (e.g. 99.9) -> nearest-rank value


@dataclass
class OverlapStat:
    total_collections: int
    overlapping_collections: int

    @property
    def fraction(self) -> float:
        if self.total_collections == 0:
            return 0.0
        return self.overlapping_collections / self.total_collections


# -- workload ---------------------------------------------------------------


@dataclass
class WorkloadConfig:
    rate_rps: float
    duration_s: float
    mix_get: int = 3
    mix_set: int = 1
    arrivals: str = "uniform"  # uniform | poisson
    seed: int = 1
    kind: str = "rw"  # rw -> get/set interleave, http -> all http


def generate_workload(cfg: WorkloadConfig) -> Iterator[tuple[int, int, str]]:
    """Yield ``(issue_time_us, request_id, kind)`` in issue order.

    Uniform arrivals are exactly periodic at the aggregate rate; Poisson
    arrivals draw exponential gaps from a dedicated RNG seeded by the config,
    so the stream is identical across runs with the same seed.  The get/set
    pattern repeats deterministically (e.g. G,G,G,S for a 3:1 mix), making
    the ratio exact over every pattern-sized window.
    """
    if cfg.rate_rps <= 0:
        raise ValueError("workload rate must be positive")
    if cfg.duration_s <= 0:
        raise ValueError("workload duration must be positive")
    horizon = round(cfg.duration_s * 1_000_000)
    if cfg.kind == "http":
        pattern = ["http"]
    else:
        pattern = ["get"] * cfg.mix_get + ["set"] * cfg.mix_set
    if not pattern:
        raise ValueError("request mix must include at least one request kind")

    if cfg.arrivals == "uniform":
        n = math.floor(cfg.rate_rps * cfg.duration_s)
        for i in range(n):
            t = round((i + 1) * 1_000_000 / cfg.rate_rps)
            if t > horizon:
                break
            yield t, i + 1, pattern[i % len(pattern)]
    elif cfg.arrivals == "poisson":
        rng = random.Random(cfg.seed)
        t = 0.0
        i = 0
        while True:
            t += rng.expovariate(cfg.rate_rps / 1_000_000)
            it = round(t)
            if it > horizon:
                return
            yield it, i + 1, pattern[i % len(pattern)]
            i += 1
    else:
        raise ValueError(f"unknown arrival process {cfg.arrivals!r}")


# -- statistics ---------------------------------------------------------------


def nearest_rank(sorted_values: Sequence[int], level: float) -> int:
    """Nearest-rank quantile: the ceil(level/100 * n)-th smallest value."""
    n = len(sorted_values)
    rank = math.ceil(level / 100.0 * n)
    rank = min(max(rank, 1), n)
    return int(sorted_values[rank - 1])


def percentiles(latencies_us: Iterable[int]) -> PercentileReport:
    """Aggregate a latency sample set; raises on an empty input.

    The mean and the variance come from exact integer sums, each rounded to
    a float once.
    """
    values = sorted(latencies_us)
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarise an empty sample set")
    total = sum(values)
    squares = sum(v * v for v in values)
    return PercentileReport(
        count=n,
        mean_us=total / n,
        median_us=nearest_rank(values, 50.0),
        stddev_us=math.sqrt((n * squares - total * total) / (n * n)),
        max_us=values[-1],
        quantiles_us={q: nearest_rank(values, q) for q in QUANTILE_LEVELS},
    )


def overlap_count(pauses: Iterable[PauseInterval]) -> OverlapStat:
    """Count collections whose pause interval intersects one on another node.

    Intervals are treated as open at the ends: two pauses that merely touch
    (one ends exactly when the other starts) do not overlap.
    """
    items = list(pauses)
    overlapping = 0
    for a in items:
        for b in items:
            if a is b or a.node == b.node:
                continue
            if a.start_us < b.end_us and b.start_us < a.end_us:
                overlapping += 1
                break
    return OverlapStat(total_collections=len(items), overlapping_collections=overlapping)


# -- report rendering ---------------------------------------------------------


@dataclass
class RunSummary:
    """Everything the report renders for one (configuration, mode) run."""

    label: str
    report: Optional[PercentileReport]
    latencies_us: list[int]  # ascending
    in_flight: int
    collections: int
    overlap: OverlapStat
    forced_collections: int
    mean_pause_us: float
    max_pause_us: int


def summarize_run(label: str, latencies_us: list[int], in_flight: int,
                  pauses: list[PauseInterval]) -> RunSummary:
    ordered = sorted(latencies_us)
    report = percentiles(ordered) if ordered else None
    durations = [p.end_us - p.start_us for p in pauses]
    return RunSummary(
        label=label,
        report=report,
        latencies_us=ordered,
        in_flight=in_flight,
        collections=len(pauses),
        overlap=overlap_count(pauses),
        forced_collections=sum(1 for p in pauses if p.forced),
        mean_pause_us=(sum(durations) / len(durations)) if durations else 0.0,
        max_pause_us=max(durations) if durations else 0,
    )


_HEADER = (
    "# quantiles: nearest-rank over the sorted sample list; stddev: population\n"
    "# times in milliseconds to 3 decimals\n"
)

_COLUMNS = (
    "label", "requests", "in_flight", "mean", "median", "stddev", "max",
    "p95", "p99", "p99.9", "p99.99", "p99.999", "p99.9999",
    "collections", "overlapping", "forced", "avg_pause", "max_pause",
)


def _ms(us: float) -> str:
    return f"{us / 1000.0:.3f}"


def render_summary_table(runs: list[RunSummary]) -> str:
    lines = [_HEADER + "\t".join(_COLUMNS)]
    for run in runs:
        r = run.report
        if r is None:
            stats = ["0", str(run.in_flight)] + ["-"] * 11
        else:
            stats = [str(r.count), str(run.in_flight), _ms(r.mean_us), _ms(r.median_us),
                     _ms(r.stddev_us), _ms(r.max_us)]
            stats += [_ms(r.quantiles_us[q]) for q in QUANTILE_LEVELS]
        row = [run.label] + stats + [
            str(run.collections), str(run.overlap.overlapping_collections),
            str(run.forced_collections), _ms(run.mean_pause_us), _ms(run.max_pause_us),
        ]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def render_cdf(latencies_us: list[int]) -> str:
    """Two-column text CDF: latency_ms and cumulative fraction, one rank per line."""
    out = [_HEADER.rstrip("\n")]
    n = len(latencies_us)
    for i, v in enumerate(sorted(latencies_us), start=1):
        out.append(f"{_ms(v)}\t{i / n:.7f}")
    return "\n".join(out) + "\n"


def emit_report(runs: list[RunSummary], out_dir: str, prefix: str = "run") -> list[str]:
    """Write the summary table plus one CDF file per run; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    summary_path = os.path.join(out_dir, f"{prefix}_summary.tsv")
    with open(summary_path, "w") as fh:
        fh.write(render_summary_table(runs))
    paths.append(summary_path)
    for run in runs:
        cdf_path = os.path.join(out_dir, f"{prefix}_cdf_{run.label}.txt")
        with open(cdf_path, "w") as fh:
            if run.latencies_us:
                fh.write(render_cdf(run.latencies_us))
            else:
                fh.write(_HEADER)
        paths.append(cdf_path)
    return paths
