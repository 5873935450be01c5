import hashlib
import os

import pytest

from gcsim.config import ConfigError, default_config
from gcsim.metrics import emit_report, percentiles
from gcsim.raftcheck import check_history
from gcsim.runtime import MIB
from gcsim.scenarios import run_compare, run_scenario


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
# Every case collects; both HTTP cases queue asks in blade mode.
_OFF_RAFT = "ea7f7956ba8f035f2dec08cb73745a4ee665b6cbd161476fe42d6f7be6ea659b"
_OFF_HTTP = "0efe6e1c5114064ad37fff16e9f7c4fd9ec1096befab86d7d927a97586d34f9f"
_ON_HTTP = "ec5247fb0dbfd8b276f9b1549d56123342ada0d45ea47dbc4f0c9ca9e6208c1d"
PINNED_REPORTS = [
    (dict(system="raft", background_alloc_bytes_per_s=16 * MIB), {
        "run_summary.tsv": "19818276f747c7d14350234a136e63e2e1dfae921fea526fe3d54b71bb74834b",
        "run_cdf_gc-off.txt": _OFF_RAFT,
        "run_cdf_blade.txt": "e9e8a560de3b75aa574b61bf9f2c6c94e728061384b4298af8937ee0b47891a2",
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
    got = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
           for p in paths}
    assert got == digests
