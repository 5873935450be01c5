"""Workload generation, latency capture, and tail-latency reporting.

Completed requests are kept as narrow columns, 14 bytes a row (32-bit
integers and one-byte name codes), and a run is summarised from its
``(latency, count)`` histogram.  Quantiles use the nearest-rank
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
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice, repeat
from typing import Collection, Iterable, Iterator, Optional

from .runtime import PauseInterval

QUANTILE_LEVELS = (95.0, 99.0, 99.9, 99.99, 99.999, 99.9999)
# Lines per write.  A chunk's formatted lines and their join are the CDF's
# transient memory: emit_report of one 150,000-sample run peaks at 0.74 MB
# by tracemalloc with 8,192 lines, against 5.9 MB with 65,536.
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


class SampleLog:
    """Completed requests as columns, 14 bytes a row: 32-bit unsigned arrays
    for rid, issued and completed, and one-byte codes for server and kind
    into a name table the log keeps.  Iteration and indexing yield
    ``(rid, issued, completed, server, kind)`` tuples, with names decoded.

    A time or id of 2**32 or more (a run past 4,294 simulated seconds)
    widens the integer columns to 64 bits, and a 257th distinct name widens
    the code columns to 32 bits; each happens at most once.

    Rows are read in the order they were added, or, in a log kept
    ``by_arrival``, in arrival order and rid order within one arrival
    instant (a row's ``completed`` is its arrival).  Such a log takes rows
    in any order and sorts them when they are next read, through
    iteration, indexing, ``==`` or a column.  ``len``, ``latencies`` and
    ``latency_by_rid`` need no order and sort nothing.
    """

    _COLUMNS = ("rid", "issued", "completed", "server", "kind")

    def __init__(self, by_arrival: bool = False) -> None:
        # Unsigned: ids and times are never negative, and the array module
        # appends "I" and "Q" items without the format parsing it does for
        # signed or one-byte codes; a bytearray appends a byte faster still.
        self._rid, self._issued, self._completed = array("I"), array("I"), array("I")
        self._server, self._kind = bytearray(), bytearray()  # codes into _names
        self._names: list[str] = []
        self._codes: dict[str, int] = {}  # the inverse of _names
        self._by_arrival = by_arrival
        self._unsorted = False  # rows added since the last sort
        self._on_wire: list = []  # the columns of the rows keep_arrived set aside

    def _column(name: str) -> property:
        def read(self):
            if self._unsorted:
                self._sort()
            column = getattr(self, "_" + name)
            return map(self._names.__getitem__, column) if name in ("server", "kind") else column
        return property(read)

    rid, issued, completed, server, kind = map(_column, _COLUMNS)
    del _column

    def add(self, rid: int, issued: int, completed: int, server: str, kind: str) -> None:
        if self._on_wire:
            self._put_back()
        codes = self._codes
        # Codes first: a new name may widen, and so replace, the code columns.
        try:
            server_code = codes[server]
        except KeyError:
            server_code = self._new_code(server)
        try:
            kind_code = codes[kind]
        except KeyError:
            kind_code = self._new_code(kind)
        try:
            self._rid.append(rid)
            self._issued.append(issued)
            self._completed.append(completed)
        except OverflowError as error:
            self._widen(len(self._completed), error)  # completed is appended last
            return self.add(rid, issued, completed, server, kind)
        self._server.append(server_code)
        self._kind.append(kind_code)
        self._unsorted = self._by_arrival

    def extend(self, rid: list[int], issued: list[int], completed: list[int],
               server: str, kind: str) -> None:
        """Add rows given as columns, all from one server and of one kind."""
        if self._on_wire:
            self._put_back()
        codes = self._codes
        server_code = codes[server] if server in codes else self._new_code(server)
        kind_code = codes[kind] if kind in codes else self._new_code(kind)
        rows = len(self._rid)
        try:
            self._rid.extend(rid)
            self._issued.extend(issued)
            self._completed.extend(completed)
        except OverflowError as error:
            self._widen(rows, error)
            return self.extend(rid, issued, completed, server, kind)
        self._server.extend(repeat(server_code, len(rid)))
        self._kind.extend(repeat(kind_code, len(rid)))
        self._unsorted = self._by_arrival

    def _new_code(self, name: str) -> int:
        code = len(self._names)
        if code == 256:  # iter(): array() would take a bytearray's bytes as raw items
            self._server, self._kind = array("I", iter(self._server)), array("I", iter(self._kind))
        self._names.append(name)
        self._codes[name] = code
        return code

    def _widen(self, rows: int, error: OverflowError) -> None:
        """Cut the integer columns back to ``rows`` rows, undoing a failed
        append, and widen them to 64 bits for the caller to retry; re-raise
        ``error`` if they are that wide already."""
        for column in (self._rid, self._issued, self._completed):
            del column[rows:]
        if self._rid.typecode == "Q":
            raise error
        self._rid, self._issued, self._completed = (
            array("Q", column) for column in (self._rid, self._issued, self._completed))

    def keep_arrived(self, until: int) -> None:
        """Set aside the rows that arrive after ``until``; the log still
        reads the others in arrival order, and rid order within one arrival
        instant.  Only a log built ``by_arrival`` may do this.

        The rows set aside are still on the wire: the next :meth:`add` puts
        them back first, so a run may be resumed and no row is lost.
        """
        if not self._by_arrival:
            raise ValueError("keep_arrived needs a log built with by_arrival=True")
        if self._on_wire:
            self._put_back()
        completed = self._completed
        if not completed or max(completed) <= until:
            return
        columns = [getattr(self, "_" + name) for name in self._COLUMNS]
        late = list(compress(range(len(completed)), map(until.__lt__, completed)))
        self._on_wire = [[column[i] for i in late] for column in columns]
        for i in reversed(late):  # order is restored on read: move the last row in
            for column in columns:
                column[i] = column[-1]
                del column[-1]
        self._unsorted = True

    def _put_back(self) -> None:
        for name, rows in zip(self._COLUMNS, self._on_wire):
            getattr(self, "_" + name).extend(rows)
        self._on_wire = []
        self._unsorted = self._by_arrival

    def _sort(self) -> None:
        """Put the rows in arrival order, then rid order."""
        rid = self._rid
        width = max(rid, default=0).bit_length()
        keys = list(map(operator.or_, map(operator.lshift, self._completed, repeat(width)), rid))
        if not all(map(operator.le, keys, islice(keys, 1, None))):
            order = sorted(range(len(keys)), key=keys.__getitem__)
            for name in self._COLUMNS:
                column = getattr(self, "_" + name)
                picked = map(column.__getitem__, order)
                setattr(self, "_" + name, array(column.typecode, picked)
                        if isinstance(column, array) else bytearray(picked))
        self._unsorted = False

    def latencies(self) -> Iterator[int]:
        """Each row's ``completed - issued``, in no particular order."""
        return map(operator.sub, self._completed, self._issued)

    def latency_by_rid(self) -> dict[int, int]:
        return dict(zip(self._rid, self.latencies()))

    def __len__(self) -> int:
        return len(self._rid)

    def __iter__(self) -> Iterator[tuple[int, int, int, str, str]]:
        return zip(self.rid, self.issued, self.completed, self.server, self.kind)

    def __getitem__(self, i: int) -> tuple[int, int, int, str, str]:
        if self._unsorted:
            self._sort()
        names = self._names
        return (self._rid[i], self._issued[i], self._completed[i],
                names[self._server[i]], names[self._kind[i]])

    def _wire_rows(self) -> list:
        """The rows set aside by keep_arrived, as decoded tuples."""
        if not self._on_wire:
            return []
        *times, server, kind = self._on_wire
        decode = self._names.__getitem__
        return list(zip(*times, map(decode, server), map(decode, kind)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SampleLog)
                and self.rid == other.rid and self.issued == other.issued
                and self.completed == other.completed
                and all(map(operator.eq, self.server, other.server))
                and all(map(operator.eq, self.kind, other.kind))
                and self._wire_rows() == other._wire_rows())


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


def render_cdf(counts: list[tuple[int, int]]) -> Iterator[str]:
    """Two-column text CDF of a histogram: latency_ms and cumulative fraction,
    one rank per line, in chunks of at most ``CDF_CHUNK_LINES`` lines."""
    yield _HEADER
    n = sum(count for _, count in counts)
    seen = 0
    for v, count in counts:
        row = _ms(v) + "\t%.7f\n"  # formatted once per distinct latency
        for start in range(seen, seen + count, CDF_CHUNK_LINES):
            stop = min(start + CDF_CHUNK_LINES, seen + count)
            yield "".join([row % (rank / n) for rank in range(start + 1, stop + 1)])
        seen += count


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
            fh.writelines(render_cdf(run.report.histogram if run.report else []))
        paths.append(cdf_path)
    return paths
