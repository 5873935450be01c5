import pytest

from gcsim.config import ConfigError, default_config
from gcsim.metrics import percentiles
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


def test_latency_samples_view():
    result = run_scenario(small_raft(), mode="blade", duration_s=10)
    samples = result.latency_samples()
    assert len(samples) == len(result.samples)
    s = samples[0]
    assert s.completed_at >= s.issued_at
    assert s.latency_us == s.completed_at - s.issued_at
    assert s.kind in ("get", "set")


def test_peak_heap_growth_unbounded_only_in_off_mode():
    cfg = small_raft(duration_s=60)
    off = run_scenario(cfg, mode="off")
    blade = run_scenario(cfg, mode="blade")
    assert max(off.peak_allocated.values()) > cfg.hard_limit_bytes // 2
    assert all(v <= cfg.hard_limit_bytes for v in blade.peak_allocated.values())
