import dataclasses
import hashlib
import os
import pathlib
from types import SimpleNamespace

import pytest

from gcsim.config import ConfigError, default_config, parse_config
from gcsim.metrics import Workload, WorkloadConfig, emit_report, percentiles
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


# Short configs where every server of blade and gc-on collects in the 2 s
# the tests cut them to.
_SHORT = {
    "http": lambda **kw: default_config("http", duration_s=9, rate_rps=2_500, parallelism=2,
                                        live_bytes=16 * MIB, trigger_bytes=24 * MIB, **kw),
    "raft": lambda **kw: small_raft(duration_s=9, rate_rps=1_000, live_bytes=16 * MIB,
                                    trigger_bytes=24 * MIB, **kw),
}


def _outcome(runs, out_dir):
    summaries = [r.summary() for r in runs]
    files = {os.path.basename(p): pathlib.Path(p).read_bytes()
             for p in emit_report(summaries, str(out_dir))}
    return summaries, files, [(r.mode, list(r.samples), r.pauses, r.issued,
                               r.stats.events_fired, r.stats.messages_sent) for r in runs]


@pytest.mark.parametrize("jitter", [0, 5])
@pytest.mark.parametrize("system", sorted(_SHORT))
def test_compare_equals_three_independent_runs(tmp_path, system, jitter):
    # one workload replayed to the three modes gives what each mode's own draw does
    cfg = _SHORT[system](jitter_us=jitter)
    together = run_compare(cfg, seed=7919, duration_s=2)
    alone = [run_scenario(cfg, mode=m, seed=7919, duration_s=2)
             for m in scenarios.COMPARE_ORDER]
    assert all(len({p.node for p in run.pauses}) == cfg.nodes
               for run in together if run.mode != "off")
    assert _outcome(together, tmp_path / "together") == _outcome(alone, tmp_path / "alone")


@pytest.mark.parametrize("system", sorted(_SHORT))
def test_a_comparison_leaves_its_drawn_workload_as_drawn(monkeypatch, system):
    # the three replays are independent because no run writes the column
    drawn, draw = [], scenarios.Workload
    monkeypatch.setattr(scenarios, "Workload",
                        lambda config: drawn.append(draw(config)) or drawn[-1])
    run_compare(_SHORT[system](jitter_us=5), seed=7919, duration_s=2)
    (workload,) = drawn
    assert workload.times.tobytes() == draw(workload.config).times.tobytes()


@pytest.mark.parametrize("system", sorted(_SHORT))
def test_two_replays_of_one_workload_give_identical_runs(tmp_path, system):
    cfg = dataclasses.replace(_SHORT[system](jitter_us=5), duration_s=2)
    workload = Workload(scenarios._workload_config(cfg))
    for mode in scenarios.COMPARE_ORDER:
        first, second = (run_scenario(cfg, mode=mode, workload=workload) for _ in range(2))
        assert first.samples.completed == second.samples.completed
        assert _outcome([first], tmp_path / "first") == _outcome([second], tmp_path / "second")


def test_run_refuses_a_workload_drawn_for_another_config():
    cfg = small_raft(duration_s=2)
    drawn = Workload(WorkloadConfig(rate_rps=cfg.rate_rps, duration_s=2, mix_get=cfg.mix_get,
                                    mix_set=cfg.mix_set, seed=cfg.seed, kind="rw"))
    assert list(run_scenario(cfg, workload=drawn).samples) == list(run_scenario(cfg).samples)
    for override in [{"seed": 2}, {"duration_s": 1}]:
        with pytest.raises(ValueError, match="workload drawn for"):
            run_scenario(cfg, workload=drawn, **override)
    with pytest.raises(ValueError, match="workload drawn for"):
        run_scenario(dataclasses.replace(cfg, system="http"), workload=drawn)


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
    assert a.samples.completed == b.samples.completed
    assert list(a.samples) == list(b.samples)
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



# The shipped http_cluster config at 5 simulated seconds: 16 slots per
# backend and 6,000 requests/s, 30,000 requests per mode.  As shipped no
# backend collects before 12 s, so every mode equals gc-off.  With a 24 MiB
# trigger gap each backend collects twice; a gc-on pause holds 16 requests
# in service and about 25 arrive during it, which start as it ends.  Each
# case pins the report files, each mode's sample log and pauses, and each
# mode's events fired and messages sent.
_SHIPPED_CDF = "1c79d2ae9c22693bfd232083b02bc1e930a63b560064ed71b300bcd09219cb6a"
_SHIPPED_LOG = "1a5d0347d74bc6b5a23967c05eef7e0ccf1561dcac8bc5df9b6a96e4837c0a40"
PINNED_HTTP_CLUSTER = [
    ({}, {
        "run_summary.tsv": "3a60b6d820d39e384b036cadc35e3f1d0a6095f77cb317ea6631ef48de589aab",
        "run_cdf_gc-off.txt": _SHIPPED_CDF,
        "run_cdf_blade.txt": _SHIPPED_CDF,
        "run_cdf_gc-on.txt": _SHIPPED_CDF,
    }, {"off": _SHIPPED_LOG, "blade": _SHIPPED_LOG, "on": _SHIPPED_LOG},
     {"off": (30_000, 59_987), "blade": (30_000, 59_987), "on": (30_000, 59_987)}),
    (dict(trigger_bytes=174 * MIB), {
        "run_summary.tsv": "27a8c523f1e28131e6f5792f67ed1a9628593267a0331e53fdc8472410d6389b",
        "run_cdf_gc-off.txt": _SHIPPED_CDF,
        "run_cdf_blade.txt": _SHIPPED_CDF,
        "run_cdf_gc-on.txt": "e90ca4a6e57e36f25a3c2a8dbb8ea8b136eddeb248053b43a49aac5084c885f6",
    }, {"off": _SHIPPED_LOG,
        "blade": "93ec62415b20d34abaa6468b19a0738f9c6bca84791052829af4f5ab3d77696f",
        "on": "4eb15f1a529e942570753ce08bbe3c71643b906e87cd12d2ce4d9a2268957857"},
     {"off": (30_000, 59_987), "blade": (30_036, 60_005), "on": (30_006, 59_987)}),
]


@pytest.mark.parametrize("overrides,reports,logs,counts", PINNED_HTTP_CLUSTER)
def test_shipped_http_cluster_matches_pinned_digests(tmp_path, overrides, reports, logs,
                                                     counts):
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = dataclasses.replace(parse_config(str(root / "configs" / "http_cluster.cfg")),
                              **overrides)
    runs = run_compare(cfg, duration_s=5)
    assert all(len(run.pauses) == (6 if overrides and run.mode != "off" else 0)
               for run in runs)
    paths = emit_report([r.summary() for r in runs], str(tmp_path))
    assert {os.path.basename(p): hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
            for p in paths} == reports
    assert {run.mode: hashlib.sha256(repr((list(run.samples), run.pauses)).encode())
            .hexdigest() for run in runs} == logs
    assert {run.mode: (run.stats.events_fired, run.stats.messages_sent)
            for run in runs} == counts

# Digest of each mode's Raft sample log, rows in order with the server
# column, its pauses, its SimStats and the number of events it scheduled,
# recorded before the message path's and the background ticks' fast paths.
# Background ticks cross the trigger between requests, every server pauses
# in blade and gc-on (gc-off never collects), the blade leader hands off to
# collect, and jitter reorders deliveries.  A crossing event that is not
# re-armed when it must be changes the count of scheduled events.
# Re-recorded when each message's jitter became a draw keyed by its link and
# its place on that link, instead of the next draw of the simulation's RNG.
# Re-recorded again when a reply was sent as it was scheduled instead of by a
# timer when due: each mode fires one event fewer per reply, and the seq
# counter moves with it.  A reply now takes its place on its link when it is
# scheduled, and one recalled by a handoff keeps that place unused, so the
# blade handoffs change later draws on the old leader's links; the off and
# gc-on rows and pauses are unchanged.  The blade digest was re-recorded when
# the Raft grant timeout was deleted: its rows, pauses and messages are
# unchanged, and it fires 21 events fewer (and schedules 22 fewer), the
# timeout's own, which never freed a slot in this run.
PINNED_RAFT_SAMPLE_LOG = {
    "off": "ddb4b9c8ee9e3adbd5916563961e0c4073161cc917eddb24570a061a56f9167e",
    "blade": "3eadb2e361dcd3da9f25e1058ab7aef98b210c5368de312acb0a2577d4438adc",
    "on": "c5d40f554eaa713e86450869e8b7048c4238ced6e6ce32fb8b839c53fb11c11d",
}


def record_raft_rows(monkeypatch) -> dict:
    """Have each Raft client of a scenario also note the rows it records, in
    event order, in the returned dict: one list per simulation, in the order
    the runs are built."""
    rows = {}

    class RecordingClient(scenarios.RaftClient):
        def __init__(self, sim, client_id, leader, timeout_us, on_sample):
            log = rows.setdefault(sim, [])
            self.first = {}  # each request's issue time and kind, at its first submission

            def record(rid, completed, server):
                issued, kind = self.first[rid]
                log.append((rid, issued, completed, server, kind))
                on_sample(rid, completed, server)
            super().__init__(sim, client_id, leader, timeout_us, record)

        def submit(self, rid, op):
            self.first.setdefault(rid, (self.sim.now, op[0]))
            super().submit(rid, op)
    monkeypatch.setattr(scenarios, "RaftClient", RecordingClient)
    return rows


def test_compare_raft_sample_log_matches_pinned_digest(monkeypatch):
    rows = record_raft_rows(monkeypatch)
    cfg = default_config("raft", duration_s=3, jitter_us=5, live_bytes=16 * MIB,
                         trigger_bytes=24 * MIB, background_alloc_bytes_per_s=16 * MIB,
                         rate_rps=1_000)
    runs = run_compare(cfg)
    assert all(run.pauses for run in runs if run.mode != "off")
    got = {run.mode: hashlib.sha256(repr((
        log, run.pauses, run.stats.events_fired, run.stats.messages_sent,
        sim._seq)).encode()).hexdigest() for run, (sim, log) in zip(runs, rows.items())}
    assert got == PINNED_RAFT_SAMPLE_LOG
    assert [sorted(log, key=lambda row: (row[2], row[0])) for log in rows.values()] == \
           [list(run.samples) for run in runs]


# Digest of each mode's sample log, rows in order, its pauses and its
# retries, with no jitter.  Every request takes 2 ms of service and allocates
# 1 MiB, so a server collects every few requests, often with answers waiting
# to depart; in gc-on the leader pauses again at each wake.  Recorded while
# each answer was still a timer that sent it when due.
PINNED_PENDING_REPLIES = {
    "off": "96203da2ae74384c5fe3b739db62e751f182db01b3a30a0c0caf5e1ce1f7d57c",
    "blade": "3281994780afef9c9c877f97bcc70bd750a48cf8412981cae7a66ba7fbaee1a5",
    "on": "2c7c603199de860fbcad66d752b8c276ec7cd7cbf4bf885909de0f6995e72541",
}


def test_replies_pending_across_back_to_back_pauses_match_pinned_digest(monkeypatch):
    rows = record_raft_rows(monkeypatch)
    cfg = default_config("raft", duration_s=10, service_time_us=2_000, rate_rps=1_000,
                         live_bytes=16 * MIB, trigger_bytes=24 * MIB,
                         hard_limit_bytes=30 * MIB, bytes_per_request=1 * MIB, seed=2)
    runs = run_compare(cfg)
    leader_pauses = [p for p in runs[2].pauses if p.node == "n0"]
    assert any(b.start_us == a.end_us for a, b in zip(leader_pauses, leader_pauses[1:]))
    got = {run.mode: hashlib.sha256(repr((log, run.pauses, run.retries))
                                    .encode()).hexdigest()
           for run, log in zip(runs, rows.values())}
    assert got == PINNED_PENDING_REPLIES


def _drive(sim, times, on_arrival=lambda rid: None):
    """Feed requests 1, 2, ... issued at ``times`` into ``sim``; returns the
    log they write and the driver."""
    log = []

    def dispatch(rid):
        log.append(("arrival", rid, sim.now))
        on_arrival(rid)

    return log, scenarios._WorkloadDriver(sim, SimpleNamespace(times=list(times)), dispatch)


def test_an_arrival_due_with_a_queued_event_fires_after_it():
    # a timer queued before the run, and a message the previous arrival's
    # dispatch sends, are each due at the same instant as the next arrival
    sim = Simulation(network=NetworkModel(one_way_delay_us=5))
    sim.add_node("a", lambda src, msg: None)
    sim.add_node("b", lambda src, msg: log.append(("message", msg, sim.now)))
    log, driver = _drive(sim, [5, 10, 15, 16],
                         lambda rid: rid == 2 and sim.send("a", "b", rid))
    sim.schedule_at(10, lambda _: log.append(("timer", None, sim.now)))
    sim.run_until(20)
    assert log == [("arrival", 1, 5), ("timer", None, 10), ("arrival", 2, 10),
                   ("message", 2, 15), ("arrival", 3, 15), ("arrival", 4, 16)]
    # six events: four arrivals, the timer and the message
    assert (driver.issued, sim._seq, sim.events_fired, sim.messages_sent) == (4, 6, 6, 1)


def test_an_arrival_past_the_deadline_waits_for_the_next_run():
    sim = Simulation()
    log, driver = _drive(sim, range(10))
    for deadline in (4, 7, 20):
        sim.run_until(deadline)
        log.append(("deadline", None, sim.now))
    assert log == ([("arrival", t + 1, t) for t in range(5)] + [("deadline", None, 4)]
                   + [("arrival", t + 1, t) for t in range(5, 8)] + [("deadline", None, 7)]
                   + [("arrival", t + 1, t) for t in range(8, 10)]
                   + [("deadline", None, 20)])
    assert (driver.issued, sim._seq, sim.events_fired) == (10, 10, 10)
