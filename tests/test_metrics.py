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
                           Completions, Workload, WorkloadConfig, _ms, emit_report,
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
    step per Poisson arrival: the reference for the drawn column."""
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


def rows(workload):
    """A drawn workload's ``(t, rid, kind)`` rows: request ``rid`` is issued at
    ``times[rid - 1]`` and is of kind ``pattern[(rid - 1) % len(pattern)]``."""
    return [(t, rid, workload.pattern[(rid - 1) % len(workload.pattern)])
            for rid, t in enumerate(workload.times, 1)]


# Workload configs over both arrival processes, fractional rates, and http
# and get/set mixes and seeds
workload_cases = given(
    arrivals=st.sampled_from(["uniform", "poisson"]),
    rate=st.one_of(st.sampled_from([1, 333.3, 1_000]), st.floats(0.5, 1_000)),
    duration_s=st.one_of(st.integers(1, 2), st.floats(0.001, 2)),
    kind=st.sampled_from(["http", "rw"]),
    mix=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    seed=st.integers(0, 2**32))


@settings(deadline=None)
@workload_cases
# 666 uniform arrivals: the last is a get, one row into its pattern
@example(arrivals="uniform", rate=333.3, duration_s=2, kind="rw", mix=(3, 1), seed=1)
# 188 Poisson arrivals: the horizon cuts the stream mid-pattern
@example(arrivals="poisson", rate=100, duration_s=2, kind="rw", mix=(1, 3), seed=7918)
# rate * duration_s is 50.0, but the 50th arrival, round(55835.5), is 55,836
# us, past the 55,835 us horizon: the count is trimmed to 49
@example(arrivals="uniform", rate=895.4876377931603, duration_s=0.055835499999999996,
         kind="http", mix=(3, 1), seed=1)
# rate * duration_s is 100.0 and the 100th arrival, round(100700.5), is the
# 100,700 us horizon itself: no arrival is trimmed
@example(arrivals="uniform", rate=993.0437286805925, duration_s=0.1007005, kind="rw",
         mix=(3, 1), seed=1)
# rate * duration_s is one ulp under 101: 100 arrivals
@example(arrivals="uniform", rate=993.1414243221318, duration_s=0.10169749999999998,
         kind="rw", mix=(3, 1), seed=1)
def test_workload_times_match_the_tuple_generator(arrivals, rate, duration_s, kind, mix,
                                                 seed):
    # a drawn workload's column and pattern hold the reference's rows, and
    # generate_workload yields those rows
    cfg = WorkloadConfig(rate_rps=rate, duration_s=duration_s, mix_get=mix[0],
                         mix_set=mix[1], arrivals=arrivals, seed=seed, kind=kind)
    want = list(tuple_workload(cfg))
    assert rows(Workload(cfg)) == want
    assert list(generate_workload(cfg)) == want


@settings(deadline=None)
@workload_cases
# 666 uniform arrivals
@example(arrivals="uniform", rate=333.3, duration_s=2, kind="rw", mix=(3, 1), seed=1)
# the first Poisson gap passes a 1 ms horizon: the stream is empty
@example(arrivals="poisson", rate=1, duration_s=0.001, kind="http", mix=(3, 1), seed=1)
# a 4,295 s horizon reaches 2**32 us and the last issue time passes it, so the
# times need the 64-bit column
@example(arrivals="uniform", rate=1, duration_s=4_295, kind="rw", mix=(2, 3), seed=1)
def test_workload_replays_the_times_it_was_drawn_from(arrivals, rate, duration_s, kind, mix,
                                                      seed):
    # the column is 64-bit only if the horizon reaches 2**32 us, and it reads
    # the reference's rows after generate_workload and a second draw have run
    cfg = WorkloadConfig(rate_rps=rate, duration_s=duration_s, mix_get=mix[0],
                         mix_set=mix[1], arrivals=arrivals, seed=seed, kind=kind)
    want = list(tuple_workload(cfg))
    workload = Workload(cfg)
    assert workload.times.typecode == ("Q" if round(duration_s * 1e6) >= 2**32 else "I")
    drawn = workload.times.tobytes()
    assert list(generate_workload(cfg)) == want
    assert Workload(cfg).times.tobytes() == drawn
    assert rows(workload) == want


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


def test_a_completion_record_holds_5_bytes_a_request():
    times = array("I", range(10, 1_000_001, 10))  # the workload's column, held by the run

    def build():
        record = Completions(times, ["http"], ["b0"], lambda: 2_000_000)
        for rid in range(1, len(times) + 1):
            record.add(rid, 10 * rid + 2_048, "b0")
        return record

    held, record = _held_bytes(build)
    assert len(record) == 100_000
    assert list(record)[-1] == (100_000, 1_000_000, 1_002_048, "b0", "http")
    assert held <= 5 * len(times) + 1_024  # a 32-bit time and a one-byte server code


def test_a_request_completes_at_most_once():
    record = Completions([0] * 9, ["http"], ["b0", "b1"], lambda: 100)
    record.add(1, 10, "b0")
    record.put([2, 5, 8], [20, 20, 30], "b1")  # a rotation slice
    record.put([3, 4, 9], [30, 40, 50], "b0")  # ids that do not step evenly
    with pytest.raises(ValueError, match="request 1 completed twice"):
        record.add(1, 12, "b1")
    with pytest.raises(ValueError, match="completed twice"):
        record.put([6, 7, 8], [60, 60, 60], "b0")
    with pytest.raises(ValueError, match="request 9 completed twice"):
        record.put([9, 6], [60, 60], "b0")
    with pytest.raises(ValueError, match="request 0 completed twice, or is not in the"):
        record.add(0, 60, "b0")  # ids start at 1: 0 would index the last slot
    for rids in ([0], [0, 6]):
        with pytest.raises(ValueError, match="not in the workload"):
            record.put(rids, [60] * len(rids), "b0")
    with pytest.raises(IndexError):
        record.add(10, 60, "b0")
    assert [row[:3] for row in record] == [(1, 0, 10), (2, 0, 20), (5, 0, 20), (3, 0, 30),
                                           (8, 0, 30), (4, 0, 40), (9, 0, 50)]


def _record_of(rids, put):
    """The columns a record of 12 requests holds once ``rids`` are recorded,
    by one ``put`` of the batch or by one ``add`` a row."""
    record = Completions([0] * 12, ["http"], ["b0", "b1"], lambda: 100)
    record.add(12, 7, "b0")  # a slot filled before the batch
    completed = [10 * rid + 3 for rid in rids]
    if put:
        record.put(rids, completed, "b1")
    else:
        for rid, at in zip(rids, completed):
            record.add(rid, at, "b1")
    return record.completed, record._server


@given(st.lists(st.integers(1, 11), unique=True, min_size=1, max_size=11))
# ids off a rotation's step at both ends, with evenly stepping ids between
@example([5, 1, 2, 3, 9])
# a rotation slice whose step changes where the rotation does
@example([1, 4, 7, 9, 11])
# a rotation slice, set by one assignment
@example([2, 5, 8, 11])
def test_a_batch_records_what_one_add_a_row_does(rids):
    assert _record_of(rids, put=True) == _record_of(rids, put=False)


def test_emit_report_of_150k_samples_peaks_under_1_5_mb(tmp_path):
    run = summarize_run("blade", [2_048] * 150_000, 0, [])
    tracemalloc.start()
    try:
        emit_report([run], str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000  # measured 0.55 MB; chunks of 65,536 lines peak at 4.3 MB


def test_reading_a_log_in_arrival_order_peaks_under_67_bytes_a_row():
    # An HTTP-shaped record: three backends at 6,000 requests/s, each putting
    # its completions 64 at a time, so arrivals interleave out of rid order.
    # The bound is 24 MB for 360,000 rows, scaled to 60,000 rows, since
    # tracemalloc makes the full-size read take seconds.
    rows = 60_000
    times = array("I", (rid * 10_000 // 6 for rid in range(1, rows + 1)))
    record = Completions(times, ["http"], ["b0", "b1", "b2"], lambda: 2**31)
    for first in range(1, rows + 1, 192):
        for b in range(3):
            rid = list(range(first + b, min(first + 192, rows + 1), 3))
            record.put(rid, [times[r - 1] + 2_048 + r % 7 * 100 for r in rid], f"b{b}")
    tracemalloc.start()
    try:
        first_row = next(iter(record))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000 * rows // 360_000
    assert first_row == (1, 1_666, 1_666 + 2_048 + 100, "b0", "http")
    order = [(completed, rid) for rid, _, completed, _, _ in record]
    assert order == sorted(order) and sorted(rid for _, rid in order) == list(range(1, rows + 1))


BIG = 2 ** 32  # the least value a 32-bit column cannot hold


@pytest.mark.parametrize("by_arrival", [False, True], ids=["plain", "by-arrival"])
@pytest.mark.parametrize("case", ["add", "extend", "names"])
def test_a_widened_log_reads_every_row_back_in_order(case, by_arrival):
    # A record built wide: for a run past 4,294 s, whose times take 64 bits
    # (add, extend), or for 300 servers, whose codes take more than a byte
    # (names).  300 requests whose arrivals are out of rid order, recorded
    # one at a time (add, names) or in batches of 20 rows of one server
    # (extend).  Read by arrival, the clock first stops at an arrival in the
    # middle, so the rows after it are still on the wire; plain, it is past
    # every arrival.
    base = 0 if case == "names" else BIG
    servers = [f"b{i}" for i in range(300 if case == "names" else 3)]
    rows = [(rid, base + 10 * rid, base + 10 * rid + 2_048 - 30 * (rid % 4),
             servers[rid - 1] if case == "names" else servers[(rid - 1) // 20 % 3], "http")
            for rid in range(1, 301)]
    now = [2 * BIG]
    record = Completions([row[1] for row in rows], ["http"], servers, lambda: now[0])
    assert (record.completed.typecode, record._server.typecode) == \
           (("I", "H") if case == "names" else ("Q", "B"))
    if case == "extend":
        for first in range(0, len(rows), 20):
            rid, _, completed, server, _ = zip(*rows[first:first + 20])
            record.put(list(rid), list(completed), server[0])
    else:
        for row in rows:
            record.add(row[0], row[2], row[3])

    def reads(expected):
        expected = sorted(expected, key=lambda row: (row[2], row[0]))
        assert list(record) == expected and len(record) == len(expected)
        assert sorted(record.latencies()) == sorted(c - i for _, i, c, _, _ in expected)
        assert record.latency_counts() == Counter(c - i for _, i, c, _, _ in expected)
        assert record.latency_by_rid() == {rid: c - i for rid, i, c, _, _ in expected}

    if by_arrival:
        now[0] = rows[150][2]
        reads([row for row in rows if row[2] <= now[0]])
        now[0] = 2 * BIG
    reads(rows)


# Records of up to 40 requests, in 32-bit columns or in 64-bit ones (issue
# times from 2**31 us): each row's issue offset and its reply's latency, or
# None for a request with no reply recorded, and a clock that may stop before
# some recorded replies.  Replies are written one add a row, or by put in
# batches of ``batch`` rows of one residue mod ``step``, which step evenly
# unless an unanswered row falls between them.
@given(rows=st.lists(st.tuples(st.integers(0, 1_000), st.one_of(st.none(),
                                                                 st.integers(0, 2_000))),
                     max_size=40),
       clock=st.integers(0, 3_000), wide=st.booleans(), put=st.booleans(),
       step=st.integers(1, 3), batch=st.integers(1, 8))
# replies past the clock beside unanswered slots, put in one evenly stepping batch
@example(rows=[(0, 10), (1, None), (2, 500), (3, None), (4, 20)], clock=100, wide=False,
         put=True, step=2, batch=3)
# every reply by the clock, unanswered slots in a 64-bit column
@example(rows=[(0, 10), (1, None), (2, 10), (3, 30)], clock=100, wide=True, put=False,
         step=1, batch=1)
def test_latency_counts_match_the_filtered_latencies(rows, clock, wide, put, step, batch):
    base = 2**31 if wide else 0
    issued = sorted(base + offset for offset, _ in rows)
    record = Completions(issued, ["http"], ["b0", "b1"], lambda: base + clock)
    assert record.completed.typecode == ("Q" if wide and rows else "I")
    answered = sorted((rid % step, rid) for rid, (_, latency) in enumerate(rows, 1)
                      if latency is not None)
    replies = [(rid, issued[rid - 1] + rows[rid - 1][1]) for _, rid in answered]
    if put:
        for first in range(0, len(replies), batch):
            rids, at = zip(*replies[first:first + batch])
            record.put(list(rids), list(at), "b1")
    else:
        for rid, at in replies:
            record.add(rid, at, "b0")
    assert record.latency_counts() == Counter(record.latencies())
    assert len(record) == sum(record.arrived())


def test_a_log_by_arrival_reads_rows_in_arrival_then_rid_order():
    now = [100]
    record = Completions([0, 5, 5, 10, 10, 10], ["get", "get", "set"], ["b0", "b1", "b2"],
                         lambda: now[0])
    record.put([2, 5], [50, 70], "b1")
    record.add(4, 50, "b0")
    record.add(3, 90, "b0")
    record.add(1, 55, "b2")
    assert len(record) == 5 and sorted(record.latencies()) == [40, 45, 55, 60, 85]
    assert list(record) == [(2, 5, 50, "b1", "get"), (4, 10, 50, "b0", "get"),
                            (1, 0, 55, "b2", "get"), (5, 10, 70, "b1", "get"),
                            (3, 5, 90, "b0", "set")]
    now[0] = 60  # the replies arriving after 60 are still on the wire
    assert [row[0] for row in record] == [2, 4, 1] and len(record) == 3
    assert record.latency_by_rid() == {1: 55, 2: 45, 4: 40}


def test_summary_of_equal_latencies_holds_a_one_row_histogram():
    latencies = [2_048] * 100_000
    held, summary = _held_bytes(lambda: summarize_run("blade", latencies, 0, []))
    assert summary.report.histogram == [(2_048, 100_000)]
    assert held < 16_384  # a sorted copy of the samples holds 800,000
