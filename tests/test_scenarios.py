import hashlib
import os
import pathlib

import pytest

from gcsim.config import ConfigError, default_config, parse_config
from gcsim.metrics import emit_report, percentiles
from gcsim.raftcheck import check_history
from gcsim.runtime import MIB
from gcsim import scenarios
from gcsim.scenarios import run_compare, run_scenario
from gcsim.simcore import NetworkModel, Simulation


def small_raft(**kw):
    base = dict(duration_s=60, background_alloc_bytes_per_s=16 * MIB)
    base.update(kw)
    return default_config("raft", **base)


def test_compare_runs_all_three_modes_on_one_seed():
    runs = run_compare(small_raft(), duration_s=30)
    assert [r.mode for r in runs] == ["off", "blade", "on"]
    assert len({r.issued for r in runs}) == 1


@pytest.mark.parametrize("override", [{"seed": 0}, {"duration_s": -1}, {"mode": "never"}])
def test_run_overrides_are_validated(override):
    with pytest.raises(ConfigError):
        run_scenario(small_raft(), **override)


def test_raft_compare_blade_tail_within_one_rtt_of_baseline():
    cfg = small_raft()
    off, blade, on = run_compare(cfg)
    off_p = percentiles(off.latencies_us())
    blade_p = percentiles(blade.latencies_us())
    assert len(blade.pauses) > 0 and len(blade.trace.switches) > 0
    assert blade_p.quantiles_us[99.9] <= off_p.quantiles_us[99.9] + cfg.rtt_us
    # uncoordinated collection pays at least one full modeled pause at the max
    assert percentiles(on.latencies_us()).max_us >= 13_644


def test_http_compare_blade_max_equals_baseline_max():
    cfg = default_config("http", duration_s=20)
    off, blade, on = run_compare(cfg)
    assert max(blade.latencies_us()) == max(off.latencies_us())
    assert max(on.latencies_us()) > max(off.latencies_us())


def test_sample_conservation_every_request_accounted():
    for result in run_compare(small_raft(), duration_s=30):
        assert result.issued == len(result.samples) + result.in_flight
        assert result.in_flight >= 0
        rids = [s[0] for s in result.samples]
        assert len(rids) == len(set(rids))  # answered exactly once


def test_raft_trace_is_always_safe_at_scenario_scale():
    for result in run_compare(small_raft(), duration_s=30):
        assert check_history(result.trace) == []


def test_jitter_runs_are_reproducible_per_seed():
    cfg = small_raft(jitter_us=10, duration_s=20)
    a = run_scenario(cfg, mode="blade")
    b = run_scenario(cfg, mode="blade")
    assert a.samples == b.samples
    assert [(p.node, p.start_us, p.end_us) for p in a.pauses] == \
           [(p.node, p.start_us, p.end_us) for p in b.pauses]


def test_gcoff_slowdown_stretches_service_time():
    cfg = default_config("http", duration_s=5, gcoff_slowdown=1.5)
    off = run_scenario(cfg, mode="off")
    # 48 us round trip + 2 ms service stretched by 1.5x
    assert max(off.latencies_us()) == 48 + 3_000
    blade = run_scenario(cfg, mode="blade")
    assert max(blade.latencies_us()) == 48 + 2_000  # factor applies to off only


def test_poisson_scenarios_share_arrivals_across_modes():
    cfg = small_raft(arrivals="poisson", duration_s=20)
    off, blade, _on = run_compare(cfg)
    assert off.issued == blade.issued
    assert [s[0] for s in off.samples] == [s[0] for s in blade.samples]


def test_peak_heap_growth_unbounded_only_in_off_mode():
    cfg = small_raft(duration_s=60)
    off = run_scenario(cfg, mode="off")
    blade = run_scenario(cfg, mode="blade")
    assert max(off.peak_allocated.values()) > cfg.hard_limit_bytes // 2
    assert all(v <= cfg.hard_limit_bytes for v in blade.peak_allocated.values())


# Digests of the summary and CDF files of small fixed-seed comparisons,
# recorded before the admission ledger and the scenario wiring were merged.
# Every case collects; both HTTP cases queue asks in blade mode.  The first
# case's summary and blade CDF were re-recorded when leader handoffs stopped
# sending clients back to the old leader (its blade mean fell by 1 us).
_OFF_RAFT = "ea7f7956ba8f035f2dec08cb73745a4ee665b6cbd161476fe42d6f7be6ea659b"
_OFF_HTTP = "0efe6e1c5114064ad37fff16e9f7c4fd9ec1096befab86d7d927a97586d34f9f"
_ON_HTTP = "ec5247fb0dbfd8b276f9b1549d56123342ada0d45ea47dbc4f0c9ca9e6208c1d"
PINNED_REPORTS = [
    (dict(system="raft", background_alloc_bytes_per_s=16 * MIB), {
        "run_summary.tsv": "7185655f51d5b417540a02a698aa83f4e8a29ca3fd4a17b89f71b286edbb21de",
        "run_cdf_gc-off.txt": _OFF_RAFT,
        "run_cdf_blade.txt": "5c256d266e86b7c4140b38a54dda8c96f0c0b571ef6b94aea8b202bc0516f064",
        "run_cdf_gc-on.txt": "c44d66f51684c1a70857cc49c92ab93bd64b48da77811564c89290b0cbdead1c",
    }),
    (dict(system="raft", background_alloc_bytes_per_s=16 * MIB, gc_nodes="followers",
          proxy_mode="retry", seed=3), {
        "run_summary.tsv": "8b22865f651a76e660b5be00becddb90b60fe2d743b561195fae06276a43e2d3",
        "run_cdf_gc-off.txt": _OFF_RAFT,
        "run_cdf_blade.txt": _OFF_RAFT,
        "run_cdf_gc-on.txt": "5beadf4bc13a45f492eccf5a02817c76860e36205bf79438ea48b98ba430c7d4",
    }),
    (dict(system="http", rate_rps=2_000, max_concurrent=1), {
        "run_summary.tsv": "0a68148a240b54d86376217d580913e7056d354a16774049a3ef68842a424fa9",
        "run_cdf_gc-off.txt": _OFF_HTTP,
        "run_cdf_blade.txt": _OFF_HTTP,
        "run_cdf_gc-on.txt": _ON_HTTP,
    }),
    (dict(system="http", rate_rps=2_000, max_concurrent=2), {
        "run_summary.tsv": "fede91f7b75c90f141c0ea5c38b73e0745181bdf63027ed7c35ba3c1a8a4dc70",
        "run_cdf_gc-off.txt": _OFF_HTTP,
        "run_cdf_blade.txt": _OFF_HTTP,
        "run_cdf_gc-on.txt": _ON_HTTP,
    }),
]


@pytest.mark.parametrize("overrides,digests", PINNED_REPORTS)
def test_compare_reports_match_pinned_digests(tmp_path, overrides, digests):
    overrides = dict(overrides)
    cfg = default_config(overrides.pop("system"), duration_s=5, live_bytes=16 * MIB,
                         trigger_bytes=24 * MIB, **overrides)
    paths = emit_report([r.summary() for r in run_compare(cfg)], str(tmp_path))
    got = {os.path.basename(p): hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
           for p in paths}
    assert got == digests


# Digest of each mode's Raft record (role changes, handoffs, each node's
# applied sequence and final logs) for the 5-server churn config at 3
# simulated seconds, recorded before the duplicate records were removed.
# Report digests do not cover this record; raftcheck and the benchmark's Raft
# counts read it.  The blade entry was re-recorded when clients stopped
# reaching a new leader through the old one: the handoffs are the same, the
# order of sets in the log is not.  The trace keeps one entry per applied
# index for the cluster, so each node's sequence of (index, term, op) is
# rebuilt from it as entries 1 to that node's last applied index.
_RAFT_RECORD_OFF_ON = "705595160d8cdd837be6062b60c246d1762c7565634ba854b07afa15f51dafc1"
PINNED_RAFT_RECORD = {
    "off": _RAFT_RECORD_OFF_ON,
    "blade": "89bb8e0dc0dc35e0d59137fdb5a7990f9bb3a4e19aa91b0fe2b6abe3822bdb98",
    "on": _RAFT_RECORD_OFF_ON,
}


def test_compare_raft_record_matches_pinned_digest():
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = parse_config(str(root / "perfbench" / "raft_churn.cfg"))
    got = {}
    for run in run_compare(cfg, duration_s=3):
        t = run.trace
        assert t.violations == []
        applied = {node: [(i, term, op) for i, (term, op, _rid)
                          in enumerate(t.applied[:last], 1)]
                   for node, last in t.last_applied.items()}
        record = repr((sorted(t.role_changes.items()), t.switches,
                       sorted(applied.items()), sorted(t.final_logs.items())))
        got[run.mode] = hashlib.sha256(record.encode()).hexdigest()
    assert got == PINNED_RAFT_RECORD


# Digest of each mode's HTTP sample log, rows in order with the server
# column, and its pauses.  Report digests cover neither.  Two slots per
# backend at 2,500 requests/s keep queues filled, so completions drain them;
# the gc-on pauses start with requests in service, so their completions
# shift; jitter reorders deliveries.  Re-recorded when each HTTP message's
# jitter became a pure function of the seed and the message, instead of the
# next draw of the simulation's RNG, after tests/refmodel.py agreed with
# every row and pause of all three modes.
PINNED_HTTP_SAMPLE_LOG = {
    "off": "23fdbbf5451d7a69a4c7db37d2f91eddfa4a92e2c2f0b59af141320e3fb17a99",
    "blade": "9d44f3ea306b8436c583579029e0f0889290a19ef1fb949a517b5a20060ec4f8",
    "on": "8bd795e0fdaae944b3393c2411f0ce71e9ef144c308dd4b6ee00a1cee8e360a9",
}


def test_compare_http_sample_log_matches_pinned_digest():
    cfg = default_config("http", duration_s=3, jitter_us=5, live_bytes=16 * MIB,
                         trigger_bytes=24 * MIB, rate_rps=2_500, parallelism=2)
    got = {run.mode: hashlib.sha256(repr((list(run.samples), run.pauses)).encode()).hexdigest()
           for run in run_compare(cfg)}
    assert got == PINNED_HTTP_SAMPLE_LOG


# Digest of each mode's Raft sample log, rows in order with the server
# column, its pauses, its SimStats and the number of events it scheduled,
# recorded before the message path's and the background ticks' fast paths.
# Background ticks cross the trigger between requests, every server pauses
# in blade and gc-on (gc-off never collects), the blade leader hands off to
# collect, and jitter reorders deliveries.  A crossing event that is not
# re-armed when it must be changes the count of scheduled events.
# Re-recorded when each message's jitter became a draw keyed by its link and
# its place on that link, instead of the next draw of the simulation's RNG.
PINNED_RAFT_SAMPLE_LOG = {
    "off": "ff80487aacc4173ec9995331f2d183dcb53ffa658b5944651cef572d02ed6ae8",
    "blade": "5b1c61b57a01fda8cbcfc602f70242df11b94dd005a3439a32047f72b8081cfb",
    "on": "22a9d0e8cf154abfb7355cd3cb531ed040fefc2bafd564596e20e00d8d6ba313",
}


def test_compare_raft_sample_log_matches_pinned_digest(monkeypatch):
    sims = []

    class RecordedSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)
    monkeypatch.setattr(scenarios, "Simulation", RecordedSimulation)
    cfg = default_config("raft", duration_s=3, jitter_us=5, live_bytes=16 * MIB,
                         trigger_bytes=24 * MIB, background_alloc_bytes_per_s=16 * MIB,
                         rate_rps=1_000)
    runs = run_compare(cfg)
    assert all(run.pauses for run in runs if run.mode != "off")
    got = {run.mode: hashlib.sha256(repr((
        list(run.samples), run.pauses, run.stats.events_fired, run.stats.messages_sent,
        sim._seq)).encode()).hexdigest() for run, sim in zip(runs, sims)}
    assert got == PINNED_RAFT_SAMPLE_LOG


def _drive(sim, times, on_arrival=lambda rid: None):
    """Feed arrivals at ``times`` into ``sim``; returns the log they write."""
    log = []

    def dispatch(rid, kind):
        log.append(("arrival", rid, sim.now))
        on_arrival(rid)

    stream = ((t, rid, "http") for rid, t in enumerate(times))
    return log, scenarios._WorkloadDriver(sim, stream, dispatch)


def test_an_arrival_due_with_a_queued_event_fires_after_it():
    # a timer queued before the run, and a message the previous arrival's
    # dispatch sends, are each due at the same instant as the next arrival
    sim = Simulation(network=NetworkModel(one_way_delay_us=5))
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: log.append(("message", msg, sim.now)))
    log, driver = _drive(sim, [5, 10, 15, 16],
                         lambda rid: rid == 1 and sim.send("a", "b", rid))
    sim.schedule_at(10, lambda _: log.append(("timer", None, sim.now)))
    sim.run_until(20)
    assert log == [("arrival", 0, 5), ("timer", None, 10), ("arrival", 1, 10),
                   ("message", 1, 15), ("arrival", 2, 15), ("arrival", 3, 16)]
    # six events: four arrivals, the timer and the message
    assert (driver.issued, sim._seq, sim.events_fired, sim.messages_sent) == (4, 6, 6, 1)


def test_an_arrival_past_the_deadline_waits_for_the_next_run():
    sim = Simulation()
    log, driver = _drive(sim, range(10))
    for deadline in (4, 7, 20):
        sim.run_until(deadline)
        log.append(("deadline", None, sim.now))
    assert log == ([("arrival", rid, rid) for rid in range(5)] + [("deadline", None, 4)]
                   + [("arrival", rid, rid) for rid in range(5, 8)] + [("deadline", None, 7)]
                   + [("arrival", rid, rid) for rid in range(8, 10)]
                   + [("deadline", None, 20)])
    assert (driver.issued, sim._seq, sim.events_fired) == (10, 10, 10)
