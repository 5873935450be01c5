import itertools
import math
import operator
import os
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gcsim import metrics
from gcsim.metrics import (_COLUMNS, _HEADER, CDF_CHUNK_LINES, QUANTILE_LEVELS, OverlapStat,
                           SampleLog, Workload, WorkloadConfig, _ms, emit_report,
                           generate_workload, histogram, overlap_count, percentiles,
                           render_cdf, render_summary_table, summarize_run)
from gcsim.runtime import PauseInterval


# -- workload ------------------------------------------------------------------


def test_uniform_arrivals_are_exactly_periodic():
    stream = list(generate_workload(WorkloadConfig(rate_rps=100, duration_s=10)))
    assert len(stream) == 1000
    assert [t for t, _, _ in stream] == [10_000 * (i + 1) for i in range(1000)]


def per_request_arrivals(rate, duration_s, pattern):
    """The uniform stream as one loop step per request."""
    horizon = round(duration_s * 1_000_000)
    for i in range(math.floor(rate * duration_s)):
        t = round((i + 1) * 1_000_000 / rate)
        if t > horizon:
            break
        yield t, i + 1, pattern[i % len(pattern)]


@pytest.mark.parametrize("duration_s", [1, 7.5])
@pytest.mark.parametrize("rate", [8, 100, 333.3, 6_000])
def test_uniform_arrivals_match_the_per_request_loop(rate, duration_s):
    stream = generate_workload(WorkloadConfig(rate_rps=rate, duration_s=duration_s))
    assert list(stream) == list(per_request_arrivals(rate, duration_s,
                                                     ["get", "get", "get", "set"]))


def test_mix_pattern_repeats_three_gets_one_set():
    stream = list(generate_workload(WorkloadConfig(rate_rps=8, duration_s=1)))
    assert [k for _, _, k in stream] == ["get", "get", "get", "set"] * 2


def test_http_workload_is_all_http_kind():
    stream = list(generate_workload(WorkloadConfig(rate_rps=10, duration_s=1, kind="http")))
    assert {k for _, _, k in stream} == {"http"}


def test_poisson_arrivals_reproducible_per_seed():
    cfg = WorkloadConfig(rate_rps=500, duration_s=2, arrivals="poisson", seed=11)
    a = list(generate_workload(cfg))
    b = list(generate_workload(cfg))
    assert a == b
    c = list(generate_workload(WorkloadConfig(rate_rps=500, duration_s=2,
                                              arrivals="poisson", seed=12)))
    assert a != c


def tuple_workload(cfg):
    """The workload as a generator of ``(t, rid, kind)`` rows, one Python
    step per Poisson arrival: the reference for the column chunks."""
    horizon = round(cfg.duration_s * 1_000_000)
    pattern = ["http"] if cfg.kind == "http" else ["get"] * cfg.mix_get + ["set"] * cfg.mix_set
    if cfg.arrivals == "uniform":
        n = math.floor(cfg.rate_rps * cfg.duration_s)
        numerators = range(1_000_000, (n + 1) * 1_000_000, 1_000_000)
        times = map(round, map(operator.truediv, numerators, itertools.repeat(cfg.rate_rps)))
        yield from zip(itertools.takewhile(horizon.__ge__, times), itertools.count(1),
                       itertools.cycle(pattern))
        return
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


def assert_chunks(chunks, want, size):
    """``chunks`` hold the rows ``want`` in column chunks of ``size``."""
    # full chunks but the last, which the horizon may cut short; none empty
    assert [len(times) for times, _, _ in chunks] == (
        [size] * (len(want) // size) + [len(want) % size] * bool(len(want) % size))
    assert all(isinstance(rids, range) and len(rids) == len(kinds) == len(times)
               for times, rids, kinds in chunks)
    # read across every chunk boundary, the rows are the reference's
    assert [row for chunk in chunks for row in zip(*chunk)] == want


# Workload configs over both arrival processes, fractional rates, http and
# get/set mixes, seeds and chunk sizes 1-40
workload_cases = given(
    arrivals=st.sampled_from(["uniform", "poisson"]),
    rate=st.one_of(st.sampled_from([1, 333.3, 1_000]), st.floats(0.5, 1_000)),
    duration_s=st.one_of(st.integers(1, 2), st.floats(0.001, 2)),
    kind=st.sampled_from(["http", "rw"]),
    mix=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    seed=st.integers(0, 2**32), size=st.integers(1, 40))


@settings(deadline=None)
@workload_cases
# 666 arrivals in chunks of 7: the workload ends one row into its last chunk
@example(arrivals="uniform", rate=333.3, duration_s=2, kind="rw", mix=(3, 1), seed=1, size=7)
# 188 Poisson arrivals in chunks of 8: the horizon cuts the last chunk at 4
@example(arrivals="poisson", rate=100, duration_s=2, kind="rw", mix=(1, 3), seed=7918, size=8)
def test_workload_chunks_match_the_tuple_generator(arrivals, rate, duration_s, kind, mix,
                                                  seed, size):
    # a drawn workload's column chunks hold the reference's rows, and
    # generate_workload yields those rows
    cfg = WorkloadConfig(rate_rps=rate, duration_s=duration_s, mix_get=mix[0],
                         mix_set=mix[1], arrivals=arrivals, seed=seed, kind=kind)
    want = list(tuple_workload(cfg))
    assert_chunks(list(Workload(cfg, size).chunks()), want, size)
    assert list(generate_workload(cfg)) == want


@settings(deadline=None)
@workload_cases
# 666 arrivals in chunks of 7: the last chunk holds one row
@example(arrivals="uniform", rate=333.3, duration_s=2, kind="rw", mix=(3, 1), seed=1, size=7)
# the first Poisson gap passes a 1 ms horizon: the stream is empty
@example(arrivals="poisson", rate=1, duration_s=0.001, kind="http", mix=(3, 1), seed=1,
         size=5)
# a 4,295 s horizon reaches 2**32 us and the last issue time passes it, so the
# times need the 64-bit column
@example(arrivals="uniform", rate=1, duration_s=4_295, kind="rw", mix=(2, 3), seed=1, size=40)
def test_workload_replays_the_chunks_it_was_drawn_from(arrivals, rate, duration_s, kind, mix,
                                                       seed, size):
    cfg = WorkloadConfig(rate_rps=rate, duration_s=duration_s, mix_get=mix[0],
                         mix_set=mix[1], arrivals=arrivals, seed=seed, kind=kind)
    want = list(tuple_workload(cfg))
    workload = Workload(cfg, size)
    first = list(workload.chunks())
    assert_chunks(first, want, size)
    # a run that changes the lists it was handed leaves the next replay intact
    for times, _, kinds in first:
        times.append(-1)
        kinds.clear()
    assert_chunks(list(workload.chunks()), want, size)


def test_workload_rejects_bad_rate():
    with pytest.raises(ValueError):
        next(generate_workload(WorkloadConfig(rate_rps=0, duration_s=1)))


# -- percentiles ----------------------------------------------------------------


def test_single_sample_statistics():
    r = percentiles([5_000])
    assert r.mean_us == 5_000 and r.median_us == 5_000 and r.stddev_us == 0
    assert r.max_us == 5_000
    assert all(v == 5_000 for v in r.quantiles_us.values())


def test_nearest_rank_on_one_to_hundred():
    r = percentiles(range(1_000, 101_000, 1_000))  # 1..100 ms
    assert r.quantiles_us[99.0] == 99_000
    assert r.median_us == 50_000
    assert r.max_us == 100_000


def test_empty_sample_set_rejected():
    with pytest.raises(ValueError):
        percentiles([])


def test_nearest_rank_is_exact_at_a_multiple_of_1000():
    # 99.9 / 100.0 * 1000 is 999.0000000000001 in floating point
    assert percentiles(range(1, 1_001)).quantiles_us[99.9] == 999


def _oracle_nearest_rank(values, level):
    # independent re-derivation: smallest v with count(<= v) >= ceil(level% * n),
    # the rank in exact rationals
    need = math.ceil(Fraction(str(level)) / 100 * len(values))
    for v in sorted(set(values)):
        if sum(1 for x in values if x <= v) >= need:
            return v
    return max(values)


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=400))
def test_quantiles_match_counting_oracle(values):
    r = percentiles(values)
    for level in (50.0, 95.0, 99.0, 99.9):
        assert _oracle_nearest_rank(values, level) == (
            r.median_us if level == 50.0 else r.quantiles_us.get(level, r.median_us))
    assert r.max_us == max(values)
    assert r.mean_us == pytest.approx(sum(values) / len(values))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 300)), min_size=1, max_size=8),
       st.integers(0, 10_000))
def test_histogram_quantiles_match_exact_oracle_at_multiples_of_1000(runs, filler):
    # a few distinct latencies, padded with one more to a multiple of 1,000 samples
    values = [v for v, count in runs for _ in range(count)]
    values += [filler] * (-len(values) % 1_000)
    r = percentiles(values)
    assert r.count % 1_000 == 0 and r.histogram == sorted(Counter(values).items())
    assert r.median_us == _oracle_nearest_rank(values, 50.0)
    for level in QUANTILE_LEVELS:
        assert r.quantiles_us[level] == _oracle_nearest_rank(values, level)


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=400))
def test_quantiles_non_decreasing_in_rank(values):
    r = percentiles(values)
    ordered = [r.quantiles_us[q] for q in sorted(r.quantiles_us)]
    assert ordered == sorted(ordered)
    assert r.median_us <= r.quantiles_us[95.0]


# -- overlap accounting ------------------------------------------------------------


def _pause(node, start, end):
    return PauseInterval(node, start, end, ticket_id=1, forced=False)


def test_disjoint_intervals_do_not_overlap():
    stat = overlap_count([_pause("a", 0, 10), _pause("b", 20, 30), _pause("c", 40, 50)])
    assert stat == OverlapStat(total_collections=3, overlapping_collections=0)
    assert stat.fraction == 0.0


def test_identical_intervals_on_three_nodes_all_overlap():
    stat = overlap_count([_pause(n, 100, 200) for n in "abc"])
    assert stat.overlapping_collections == 3 and stat.total_collections == 3


def test_touching_intervals_are_not_overlapping():
    stat = overlap_count([_pause("a", 0, 10), _pause("b", 10, 20)])
    assert stat.overlapping_collections == 0


def test_same_node_intervals_never_count():
    stat = overlap_count([_pause("a", 0, 10), _pause("a", 5, 15)])
    assert stat.overlapping_collections == 0


@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 100), st.integers(1, 50)),
                max_size=30))
def test_overlap_matches_pairwise_intersection_oracle(raw):
    pauses = [_pause(n, s, s + d) for n, s, d in raw]
    stat = overlap_count(pauses)
    expected = sum(
        1 for a in pauses
        if any(a.node != b.node and a.start_us < b.end_us and b.start_us < a.end_us
               for b in pauses))
    assert stat.overlapping_collections == expected


# -- report rendering -----------------------------------------------------------------


def test_cdf_is_monotone_in_both_columns():
    text = "".join(render_cdf(histogram([5_000, 1_000, 3_000, 3_000])))
    rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
    lats = [float(r[0]) for r in rows]
    fracs = [float(r[1]) for r in rows]
    assert lats == sorted(lats)
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1.0


def reference_cdf(latencies_us):
    """Reference: formats both columns of every line."""
    out = [_HEADER.rstrip("\n")]
    n = len(latencies_us)
    for i, v in enumerate(sorted(latencies_us), start=1):
        out.append(f"{_ms(v)}\t{i / n:.7f}")
    return "\n".join(out) + "\n"


_rng = random.Random(5)


@pytest.mark.parametrize("latencies", [
    [5_000, 1_000, 48_123, 3_000, 999, 3_000, 0, 1],  # unsorted
    [2_048] * 1_000,  # all equal
    [_rng.choice([2_048, 2_049, 2_100, 14_471, 51_007]) for _ in range(3_000)],
    # sizes where i / n is exact to 7 decimals, e.g. 1 / 3200 = 0.0003125
    [_rng.randrange(0, 60_000) for _ in range(8)],
    [_rng.randrange(0, 60_000) for _ in range(16)],
    [_rng.randrange(2_000, 2_010) for _ in range(3_200)],
    # chunk boundaries fall inside both runs of equal latencies
    [3_000] * 80_000 + [2_048] * 70_000,
], ids=["unsorted", "all-equal", "few-distinct", "n8", "n16", "n3200", "n150k-chunked"])
def test_cdf_matches_per_line_reference(latencies, tmp_path):
    expected = reference_cdf(latencies)
    chunks = list(render_cdf(histogram(latencies)))
    assert max(chunk.count("\n") for chunk in chunks) <= CDF_CHUNK_LINES
    # line lists keep every byte and make a mismatch cheap to report
    got = "".join(chunks).splitlines(keepends=True)
    assert got == expected.splitlines(keepends=True)
    _, cdf_path = emit_report([summarize_run("x", latencies, 0, [])], str(tmp_path))
    with open(cdf_path, "rb") as fh:
        assert fh.read() == expected.encode()



def test_emit_report_renders_each_distinct_histogram_once(tmp_path, monkeypatch):
    # equal histograms get identical files, each what render_cdf gives; a
    # distinct one and an empty report are unaffected, and the paths and
    # their order are as before
    same = [2_048] * 20_000 + [3_000] * 3  # more than one chunk
    runs = [summarize_run("gc-off", same, 0, []), summarize_run("empty", [], 2, []),
            summarize_run("blade", list(reversed(same)), 0, []),
            summarize_run("gc-on", same + [14_471], 0, [])]
    rendered = []
    monkeypatch.setattr(metrics, "render_cdf",
                        lambda counts: rendered.append(list(counts)) or render_cdf(counts))
    paths = emit_report(runs, str(tmp_path), prefix="cmp")
    assert paths == [str(tmp_path / name) for name in (
        "cmp_summary.tsv", "cmp_cdf_gc-off.txt", "cmp_cdf_empty.txt", "cmp_cdf_blade.txt",
        "cmp_cdf_gc-on.txt")]
    assert sorted(rendered) == sorted([histogram(same), [], histogram(same + [14_471])])
    files = {path: (tmp_path / path).read_text() for path in map(os.path.basename, paths)}
    assert files["cmp_summary.tsv"] == render_summary_table(runs)
    for run in runs:
        want = "".join(render_cdf(run.report.histogram if run.report else []))
        assert files[f"cmp_cdf_{run.label}.txt"] == want
    assert files["cmp_cdf_gc-off.txt"] == files["cmp_cdf_blade.txt"]
    assert files["cmp_cdf_empty.txt"] == _HEADER


@pytest.mark.parametrize("first,last", [([1_000], [2_000]), ([1_000], [1_000])])
def test_emit_report_with_a_repeated_label_keeps_the_last_run(tmp_path, first, last):
    runs = [summarize_run("x", first, 0, []), summarize_run("x", last, 0, [])]
    paths = emit_report(runs, str(tmp_path))
    assert paths[1] == paths[2]
    with open(paths[1]) as fh:
        assert fh.read() == "".join(render_cdf(histogram(last)))

def test_summary_table_has_row_per_run_and_ms_precision():
    runs = [summarize_run("blade", [2_048] * 10, 0, []),
            summarize_run("gc-on", [2_048] * 9 + [14_471], 1,
                          [_pause("b0", 0, 12_423)])]
    text = render_summary_table(runs)
    lines = text.splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 rows
    assert "blade\t10\t0\t2.048\t2.048" in text
    assert "12.423" in text  # pause duration in ms columns


def test_summary_row_without_samples_keeps_the_column_count():
    runs = [summarize_run("gc-off", [], 3, [_pause("b0", 0, 12_423)]),
            summarize_run("blade", [2_048] * 10, 0, [])]
    rows = [l.split("\t") for l in render_summary_table(runs).splitlines()
            if not l.startswith("#")]
    assert [len(r) for r in rows] == [len(_COLUMNS)] * 3
    empty = dict(zip(_COLUMNS, rows[1]))
    assert (empty["requests"], empty["in_flight"], empty["max"]) == ("0", "3", "-")
    assert (empty["collections"], empty["overlapping"], empty["forced"]) == ("1", "0", "0")


# -- memory -----------------------------------------------------------------------


def _held_bytes(build):
    """Bytes still allocated after ``build()`` returns, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_sample_log_holds_at_most_16_bytes_per_sample():
    def build():
        log = SampleLog()
        for rid in range(100_000):
            log.add(rid, 10 * rid, 10 * rid + 2_048, "b0", "http")
        return log

    held, log = _held_bytes(build)
    assert len(log) == 100_000
    assert log[-1] == list(log)[-1] == (99_999, 999_990, 1_002_038, "b0", "http")
    assert held / len(log) <= 16  # 14 bytes a row; a list of tuples holds about 176


def test_emit_report_of_150k_samples_peaks_under_1_5_mb(tmp_path):
    run = summarize_run("blade", [2_048] * 150_000, 0, [])
    tracemalloc.start()
    try:
        emit_report([run], str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000  # measured 0.74 MB; chunks of 65,536 lines peak at 5.9 MB


def test_reading_a_log_in_arrival_order_peaks_under_67_bytes_a_row():
    # An HTTP-shaped log: three backends at 6,000 requests/s, each adding
    # its completions 64 at a time, so arrivals interleave out of rid order.
    # The bound is 24 MB for 360,000 rows, scaled to 60,000 rows, since
    # tracemalloc makes the full-size read take seconds.  Measured 2.67 MB;
    # sorting rows by a key list and a separate order list peaks at 5.70 MB.
    rows, log = 60_000, SampleLog(by_arrival=True)
    for first in range(0, rows, 192):
        for b in range(3):
            rid = list(range(first + b, min(first + 192, rows), 3))
            issued = [r * 10_000 // 6 for r in rid]
            log.extend(rid, issued, [i + 2_048 + r % 7 * 100 for r, i in zip(rid, issued)],
                       f"b{b}", "http")
    tracemalloc.start()
    try:
        first_row = log[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000 * rows // 360_000
    assert first_row == (0, 0, 2_048, "b0", "http")
    order = list(zip(log.completed, log.rid))
    assert order == sorted(order) and sorted(log.rid) == list(range(rows))


BIG = 2 ** 32  # the least value a 32-bit column cannot hold


@pytest.mark.parametrize("by_arrival", [False, True], ids=["plain", "by-arrival"])
@pytest.mark.parametrize("case", ["add", "extend", "names"])
def test_a_widened_log_reads_every_row_back_in_order(case, by_arrival):
    # 300 rows whose arrivals are out of rid order, added in batches of 20
    # rows of one server.  Row 150, in the middle of its batch, completes
    # at 2**32 or more; in the names case every row has its own server, so
    # b255 is the 257th name (after "http").
    rows = [(rid, 10 * rid, 10 * rid + 2_048 - 30 * (rid % 4), f"b{rid // 20 % 3}", "http")
            for rid in range(300)]
    if case == "names":
        rows = [row[:3] + (f"b{row[0]}", "http") for row in rows]
        split = 240
    else:
        rows[150] = rows[150][:2] + (BIG + 5,) + rows[150][3:]
        split = 140
    log = SampleLog(by_arrival=by_arrival)

    def put(part):
        for first in range(0, len(part), 20):
            batch = part[first:first + 20]
            if case == "extend":
                rid, issued, completed, _, _ = map(list, zip(*batch))
                log.extend(rid, issued, completed, batch[0][3], "http")
            else:
                for row in batch:
                    log.add(*row)

    def reads(expected):
        if by_arrival:
            expected = sorted(expected, key=lambda row: (row[2], row[0]))
        assert list(log) == expected
        assert [log[i] for i in range(len(log))] == expected
        assert list(log.server) == [row[3] for row in expected]
        assert sorted(log.latencies()) == sorted(c - i for _, i, c, _, _ in expected)

    put(rows[:split])
    reads(rows[:split])
    until = rows[split - 1][2] - 100
    if by_arrival:  # the widening add puts these rows back first
        log.keep_arrived(until)
        reads([row for row in rows[:split] if row[2] <= until])
    put(rows[split:])
    reads(rows)
    if case == "names":
        assert isinstance(log._server, array) and isinstance(log._kind, array)
    else:
        assert log.rid.typecode == log.issued.typecode == log.completed.typecode == "Q"
    last = (300, 3_000, BIG + 9, "b0", "http")
    if by_arrival:
        log.keep_arrived(until)
        reads([row for row in rows if row[2] <= until])
    log.add(*last)  # puts back the rows set aside
    reads(rows + [last])


def test_logs_with_equal_rows_are_equal_whatever_order_they_met_names_in():
    a, b, c = SampleLog(by_arrival=True), SampleLog(by_arrival=True), SampleLog(by_arrival=True)
    a.add(1, 0, 50, "b0", "get")
    a.add(2, 0, 40, "b1", "set")
    b.add(2, 0, 40, "b1", "set")
    b.add(1, 0, 50, "b0", "get")
    c.add(2, 0, 40, "b1", "set")
    c.add(1, 0, 50, "b2", "get")
    assert a[0] == b[0] == (2, 0, 40, "b1", "set")
    assert a[1] == b[1] == (1, 0, 50, "b0", "get")
    assert a == b and a != c
    for log in (a, b, c):
        log.keep_arrived(45)  # rows on the wire compare by name too
    assert a == b and a != c


def test_a_log_by_arrival_reads_rows_in_arrival_then_rid_order():
    log = SampleLog(by_arrival=True)
    log.extend([5, 2], [0, 0], [70, 50], "b1", "http")
    log.add(4, 0, 50, "b0", "http")
    log.add(3, 0, 90, "b0", "http")
    assert len(log) == 4 and sorted(log.latencies()) == [50, 50, 70, 90]
    assert list(log) == [(2, 0, 50, "b1", "http"), (4, 0, 50, "b0", "http"),
                         (5, 0, 70, "b1", "http"), (3, 0, 90, "b0", "http")]
    log.keep_arrived(60)  # the rows arriving after 60 are still on the wire
    assert list(log.rid) == [2, 4]
    log.add(1, 0, 55, "b2", "http")  # puts them back first
    assert list(log.rid) == [2, 4, 1, 5, 3]
    with pytest.raises(ValueError):
        SampleLog().keep_arrived(60)  # a plain log keeps insertion order


def test_summary_of_equal_latencies_holds_a_one_row_histogram():
    latencies = [2_048] * 100_000
    held, summary = _held_bytes(lambda: summarize_run("blade", latencies, 0, []))
    assert summary.report.histogram == [(2_048, 100_000)]
    assert held < 16_384  # a sorted copy of the samples holds 800,000
