"""Workload generation, latency capture, and tail-latency reporting.

A workload is one column of issue times: request ``rid`` is issued at
``times[rid - 1]``, and its kind repeats the mix pattern.  A run records
each request's reply in one column indexed the same way, 5 bytes a request
(a 32-bit arrival time and a one-byte server code), and reads the issue
time and kind from the workload drawn for it.  A run is summarised from
its ``(latency, count)`` histogram.  Quantiles use the nearest-rank
definition (exact integer ranks, no interpolation) and the standard deviation
is the population deviation; both conventions are stated in every report
header.  Rendering is deterministic: identical inputs give identical files.
"""

from __future__ import annotations

import math
import operator
import os
import random
from array import array
from bisect import bisect_left
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, cycle, repeat, takewhile
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .runtime import PauseInterval

QUANTILE_LEVELS = (95.0, 99.0, 99.9, 99.99, 99.999, 99.9999)
# Lines per write.  A chunk's fractions, its template and its text are the
# CDF's transient memory: emit_report of one 150,000-sample run peaks at
# 0.55 MB by tracemalloc with 8,192 lines, against 4.3 MB with 65,536.
CDF_CHUNK_LINES = 8_192


@dataclass
class PercentileReport:
    count: int
    mean_us: float
    median_us: int
    stddev_us: float
    max_us: int
    quantiles_us: dict[float, int]  # level (e.g. 99.9) -> nearest-rank value
    histogram: list[tuple[int, int]] = field(repr=False)  # (latency, count), ascending


@dataclass
class OverlapStat:
    total_collections: int
    overlapping_collections: int

    @property
    def fraction(self) -> float:
        if self.total_collections == 0:
            return 0.0
        return self.overlapping_collections / self.total_collections


class Completions:
    """A run's replies, as one column indexed by ``rid - 1`` (ids start at 1).

    A request is a place in the run's workload: request ``rid`` was issued
    at ``times[rid - 1]`` and is of kind ``pattern[(rid - 1) % len(pattern)]``.
    So the record keeps only what the run adds, 5 bytes a request:
    ``completed``, the arrival of each reply (us) in an unsigned 32-bit
    column, and the code of the server that sent it, one byte into
    ``servers``.  Both columns are sized to the workload, and their widths
    are fixed as they are built: 64-bit times if the last issue time
    reaches 2**31 us (2,147 s, which leaves as long again for the replies),
    and 16-bit codes for more than 256 servers.  The column's largest value
    marks a request with no reply recorded; each request is recorded once.

    A row counts as completed once its arrival is at or before ``clock()``:
    mid-run, a later arrival is a reply still on the wire, which counts once
    a resumed run reaches it.  ``len``, ``latencies`` and ``latency_by_rid``
    read the completed rows in rid order.  Iteration yields them as
    ``(rid, issued, completed, server, kind)`` tuples in arrival order, and
    rid order within one arrival instant.  ``latency_counts`` and ``len``
    skip that per-row filter: they take every row and subtract the rows not
    yet arrived, which are the unanswered slots unless the latest reply
    recorded (``_last``) lies past the clock.
    """

    def __init__(self, times: Sequence[int], pattern: Sequence[str],
                 servers: Sequence[str], clock: Callable[[], int]):
        self.times, self.servers, self._pattern, self._clock = times, servers, pattern, clock
        typecode = "I" if not times or times[-1] < 2**31 else "Q"
        # a slot of a request in flight: the column's largest value
        self._free = array(typecode, [2 ** (8 * array(typecode).itemsize) - 1])
        self.completed = self._free * len(times)
        self._last = 0  # the latest arrival recorded
        self._server = array("B" if len(servers) <= 256 else "H", [0]) * len(times)
        self._codes = {name: code for code, name in enumerate(servers)}

    def add(self, rid: int, completed: int, server: str) -> None:
        """Record the reply to ``rid`` from ``server``, arriving at
        ``completed``; its issue time and kind are the workload's."""
        if rid < 1 or self.completed[rid - 1] != self._free[0]:
            raise ValueError(f"request {rid} completed twice, or is not in the workload")
        self.completed[rid - 1] = completed
        self._server[rid - 1] = self._codes[server]
        if completed > self._last:
            self._last = completed

    def put(self, rids: list[int], completed: list[int], server: str) -> None:
        """Record the replies to ``rids`` from ``server``, arriving at
        ``completed``.  Ids that step evenly, as a slice of the balancer's
        rotation does, are set by one extended-slice assignment."""
        n, first = len(rids), rids[0]
        step = rids[1] - first if n > 1 else 1
        if step < 1 or rids != list(range(first, first + n * step, step)):
            for rid, at in zip(rids, completed):
                self.add(rid, at, server)
            return
        where = slice(first - 1, first - 1 + n * step, step)
        if self.completed[where] != self._free * n:
            raise ValueError(f"a request of {rids} completed twice, or is not in the workload")
        self.completed[where] = array(self._free.typecode, completed)
        self._server[where] = array(self._server.typecode, [self._codes[server]]) * n
        last = max(completed)
        if last > self._last:
            self._last = last

    def arrived(self) -> Iterator[bool]:
        """Whether each request's reply has arrived by now, in rid order."""
        return map(operator.le, self.completed, repeat(self._clock()))

    def latencies(self) -> Iterator[int]:
        """Each completed row's ``completed - issued``, in rid order."""
        return compress(map(operator.sub, self.completed, self.times), self.arrived())

    def latency_by_rid(self) -> dict[int, int]:
        """Each completed row's latency, by rid."""
        return dict(compress(zip(count(1), map(operator.sub, self.completed, self.times)),
                             self.arrived()))

    def latency_counts(self) -> Counter:
        """How many completed rows have each latency: every row's
        ``completed - issued``, counted in one pass, less the rows still due."""
        completed, times, due = self.completed, self.times, self._due()
        counts = Counter(map(operator.sub, completed, times))
        counts -= Counter(map(operator.sub, map(completed.__getitem__, due),
                              map(times.__getitem__, due)))
        return counts

    def __len__(self) -> int:
        return len(self.times) - len(self._due())

    def _due(self) -> list[int]:
        """The rows whose reply has not arrived by now, in rid order.  While
        no recorded reply lies past the clock these are the unanswered slots,
        found by ``index``; otherwise one scan finds every row past it."""
        completed, free, now = self.completed, self._free[0], self._clock()
        if not self._last <= now < free:
            return list(compress(count(), map(operator.gt, completed, repeat(now))))
        due, at = [], -1
        try:
            while True:
                at = completed.index(free, at + 1)
                due.append(at)
        except ValueError:
            return due

    def __iter__(self) -> Iterator[tuple[int, int, int, str, str]]:
        # One sorted list of keys ``completed << shift | rid - 1`` orders the rows.
        completed, times, pattern = self.completed, self.times, self._pattern
        server, servers = self._server, self.servers
        shift = len(completed).bit_length()
        low = (1 << shift) - 1
        keys = sorted(map(operator.or_, map(operator.lshift, compress(completed, self.arrived()),
                                            repeat(shift)),
                          compress(count(), self.arrived())))
        for key in keys:
            i = key & low
            yield (i + 1, times[i], key >> shift, servers[server[i]],
                   pattern[i % len(pattern)])


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


def _arrivals(cfg: WorkloadConfig) -> tuple[Iterator[int], list[str], int]:
    """The workload's issue times, its kind pattern and its horizon (us)."""
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

    rate = cfg.rate_rps
    if cfg.arrivals == "uniform":
        # Request i + 1 is issued at round((i + 1) * 1e6 / rate).  The times
        # are nondecreasing, so the count stops at the last within the horizon.
        n = math.floor(rate * cfg.duration_s)
        while n and round(n * 1_000_000 / rate) > horizon:
            n -= 1
        numerators = range(1_000_000, (n + 1) * 1_000_000, 1_000_000)
        times = map(float.__round__, map(operator.truediv, numerators, repeat(rate)))
    elif cfg.arrivals == "poisson":
        gaps = map(random.Random(cfg.seed).expovariate, repeat(rate / 1_000_000))
        times = takewhile(horizon.__ge__, map(float.__round__, accumulate(gaps)))
    else:
        raise ValueError(f"unknown arrival process {cfg.arrivals!r}")
    return times, pattern, horizon


class Workload:
    """A workload drawn once, to replay to several runs (common random numbers).

    Uniform arrivals are exactly periodic at the aggregate rate; Poisson
    arrivals draw exponential gaps from a dedicated RNG seeded by the
    config, so the stream is identical across runs with the same seed.
    The uniform stream is a chain of C iterators, with no Python frame per
    arrival; the Poisson stream takes one ``expovariate`` call, Python code,
    per arrival.
    The get/set pattern repeats deterministically (e.g. G,G,G,S for a 3:1
    mix), making the ratio exact over every pattern-sized window.

    Issue times are kept in one 32-bit column, ``times``, 64-bit if the
    horizon reaches 2**32 us; ids (from 1) and kinds (``pattern``, repeated)
    follow from the place in the stream: request ``rid`` is issued at
    ``times[rid - 1]``.  Runs only read the column, so every replay sees the
    draw."""

    def __init__(self, config: WorkloadConfig):
        times, self.pattern, horizon = _arrivals(config)
        self.config = config
        self.times = array("I" if horizon < 2**32 else "Q", times)


def generate_workload(cfg: WorkloadConfig) -> Iterator[tuple[int, int, str]]:
    """The workload ``Workload(cfg)`` as ``(issue_time_us, request_id,
    kind)`` rows."""
    workload = Workload(cfg)
    return zip(workload.times, count(1), cycle(workload.pattern))


# -- statistics ---------------------------------------------------------------


def nearest_rank(level: float, n: int) -> int:
    """The 1-based nearest rank ceil(level/100 * n) of ``level`` percent among
    ``n`` values, exact in integers for levels given to four decimals."""
    return max(1, -(-round(level * 10_000) * n // 1_000_000))


def histogram(latencies_us: Iterable[int]) -> list[tuple[int, int]]:
    """Sorted ``(latency, count)`` pairs, one per distinct latency.

    A ``Counter`` stands for the latencies it counts.
    """
    return sorted(Counter(latencies_us).items())


def percentiles(latencies_us: Iterable[int]) -> PercentileReport:
    """Aggregate a latency sample set; raises on an empty input.

    The mean and the variance come from exact integer sums, each rounded to
    a float once.
    """
    counts = histogram(latencies_us)
    if not counts:
        raise ValueError("cannot summarise an empty sample set")
    cumulative = list(accumulate(c for _, c in counts))
    n = cumulative[-1]
    total = sum(v * c for v, c in counts)
    squares = sum(v * v * c for v, c in counts)

    def at(level: float) -> int:
        return counts[bisect_left(cumulative, nearest_rank(level, n))][0]

    return PercentileReport(
        count=n,
        mean_us=total / n,
        median_us=at(50.0),
        stddev_us=math.sqrt((n * squares - total * total) / (n * n)),
        max_us=counts[-1][0],
        quantiles_us={q: at(q) for q in QUANTILE_LEVELS},
        histogram=counts,
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
    report: Optional[PercentileReport]  # None when no request completed
    in_flight: int
    collections: int
    overlap: OverlapStat
    forced_collections: int
    mean_pause_us: float
    max_pause_us: int


def summarize_run(label: str, latencies_us: Collection[int], in_flight: int,
                  pauses: list[PauseInterval]) -> RunSummary:
    durations = [p.end_us - p.start_us for p in pauses]
    return RunSummary(
        label=label,
        report=percentiles(latencies_us) if len(latencies_us) else None,
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
            stats = ["0", str(run.in_flight)] + ["-"] * (4 + len(QUANTILE_LEVELS))
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


def render_cdf(counts: Collection[tuple[int, int]]) -> Iterator[str]:
    """Two-column text CDF of a histogram: latency_ms and cumulative fraction,
    one rank per line, in chunks of at most ``CDF_CHUNK_LINES`` lines."""
    yield _HEADER
    n = sum(count for _, count in counts)
    seen = 0
    for v, count in counts:
        # formatted once per distinct latency; _ms writes no "%", so each
        # line holds one conversion
        row = _ms(v) + "\t%.7f\n"
        for start in range(seen, seen + count, CDF_CHUNK_LINES):
            stop = min(start + CDF_CHUNK_LINES, seen + count)
            fractions = tuple(map(operator.truediv, range(start + 1, stop + 1), repeat(n)))
            yield (row * (stop - start)) % fractions
        seen += count


def emit_report(runs: list[RunSummary], out_dir: str, prefix: str = "run") -> list[str]:
    """Write the summary table plus one CDF file per run; returns the paths.

    Each distinct histogram is rendered once, and each chunk written to
    every CDF file that shows it.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    summary_path = os.path.join(out_dir, f"{prefix}_summary.tsv")
    with open(summary_path, "w") as fh:
        fh.write(render_summary_table(runs))
    paths.append(summary_path)
    shown: dict[str, list[tuple[int, int]]] = {}  # a repeated label shows its last run
    for run in runs:
        cdf_path = os.path.join(out_dir, f"{prefix}_cdf_{run.label}.txt")
        shown[cdf_path] = run.report.histogram if run.report else []
        paths.append(cdf_path)
    showing: dict[tuple, list[str]] = {}  # each distinct histogram -> its files
    for cdf_path, counts in shown.items():
        showing.setdefault(tuple(counts), []).append(cdf_path)
    for counts, files in showing.items():
        with ExitStack() as stack:
            writes = [stack.enter_context(open(path, "w")).write for path in files]
            for chunk in render_cdf(counts):
                for write in writes:
                    write(chunk)
                del chunk  # free it before the next chunk is built
    return paths
