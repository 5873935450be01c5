import dataclasses
import math
import pathlib
import subprocess
import sys

import pytest

from gcsim.cli import main
from gcsim.config import (ConfigError, ScenarioConfig, config_from_pairs,
                          default_config, parse_config, parse_lines, serialize)
from gcsim.raft import RaftTrace
from gcsim.runtime import MIB, GIB
from gcsim.scenarios import run_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = ["configs/raft_desk.cfg", "configs/http_cluster.cfg", "perfbench/raft_churn.cfg"]


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- parsing ------------------------------------------------------------------


def test_empty_file_yields_reference_raft_setup(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg.system == "raft"
    assert (cfg.nodes, cfg.rate_rps, cfg.rtt_us) == (3, 100, 48)
    assert (cfg.mix_get, cfg.mix_set) == (3, 1)
    assert cfg.duration_s == 600


def test_http_system_switches_default_block(tmp_path):
    cfg = parse_config(write(tmp_path, "system = http\n"))
    assert cfg.rate_rps == 6_000
    assert cfg.service_time_us == 2_000
    assert cfg.live_bytes == 150 * MIB


def test_fig_scale_http_setup(tmp_path):
    text = (
        "system = http\n"
        "rate_rps = 6000\n"
        "nodes = 3\n"
        "hard_limit_bytes = 1073741824\n"
        "live_bytes = 157286400\n"
        "bytes_per_request = 8_192\n"
    )
    cfg = parse_config(write(tmp_path, text))
    assert cfg.hard_limit_bytes == GIB
    assert cfg.bytes_per_request == 8_192
    assert cfg.live_bytes == 150 * MIB
    assert cfg.effective_trigger_bytes() == 300 * MIB


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = parse_config(write(tmp_path, "# full line\n\nrate_rps = 250  # trailing\n"))
    assert cfg.rate_rps == 250


def test_unknown_key_rejected():
    # a misspelling, and three keys that no longer exist
    for key in ("rate_rsp", "defer_threshold_us", "collection_timeout_factor",
                "default_pause_estimate_us"):
        with pytest.raises(ConfigError, match=f"unknown key {key!r}"):
            config_from_pairs({key: "100"})


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_lines(["rate_rps = 1\n", "not a pair\n"])


def test_duplicate_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_lines(["seed = 1\n", "\n", "seed = 2\n"])


def test_negative_rate_names_the_field():
    with pytest.raises(ConfigError, match="rate_rps"):
        config_from_pairs({"rate_rps": "-5"})


def test_bad_value_type_names_the_field():
    with pytest.raises(ConfigError, match="nodes"):
        config_from_pairs({"nodes": "three"})


def test_bad_mode_choice_rejected():
    with pytest.raises(ConfigError, match="gc_mode"):
        config_from_pairs({"gc_mode": "sometimes"})


def test_trigger_low_water_budget_enforced():
    with pytest.raises(ConfigError, match="headroom"):
        config_from_pairs({"trigger_bytes": str(900 * MIB),
                           "hard_limit_bytes": str(GIB)})


def test_even_cluster_size_rejected():
    with pytest.raises(ConfigError, match="odd"):
        config_from_pairs({"nodes": "4"})


def test_round_trip_is_idempotent(tmp_path):
    configs = [default_config("http", seed=9, rate_rps=1234, jitter_us=3),
               default_config("raft"), default_config("http")]
    configs += [parse_config(str(ROOT / name)) for name in SHIPPED]
    for cfg in configs:
        text = serialize(cfg)
        reparsed = parse_config(write(tmp_path, text))
        assert reparsed == cfg
        assert serialize(reparsed) == text


def test_default_config_rejects_unknown_override():
    with pytest.raises(ConfigError):
        default_config("raft", no_such_field=1)


def test_config_is_frozen():
    cfg = default_config("raft")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 2


# (key, value as Python, value as file text); None marks a path that cannot
# carry the value: "5" is valid file text, and "_5_" has no Python form.
BAD_INPUTS = [
    ("nodes", "5", None),
    ("nodes", True, "True"),
    ("nodes", 48.5, "48.5"),
    ("seed", "5", None),
    ("seed", True, "True"),
    ("duration_s", 48.5, "48.5"),
    ("gcoff_slowdown", math.inf, "inf"),
    ("gcoff_slowdown", math.nan, "nan"),
    ("seed", 0, "0"),
    ("duration_s", -1, "-1"),
    ("gc_mode", "never", "never"),
    ("rtt_us", 49, "49"),
    ("rate_rsp", 100, "100"),
    ("nodes", None, "_5_"),
    ("rtt_us", None, "1__0"),
]
# run_scenario keyword for each field it can override
OVERRIDES = {"gc_mode": "mode", "seed": "seed", "duration_s": "duration_s"}


@pytest.mark.parametrize("key,value,text", BAD_INPUTS)
def test_every_input_path_refuses_a_bad_value_naming_its_field(tmp_path, capsys, key,
                                                               value, text):
    if text is not None:
        path = write(tmp_path, f"{key} = {text}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(path)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
    if value is not None:
        with pytest.raises(ConfigError, match=key):
            default_config("raft", **{key: value})
        if key in OVERRIDES:
            with pytest.raises(ConfigError, match=key):
                run_scenario(default_config("raft"), **{OVERRIDES[key]: value})


# -- command line ----------------------------------------------------------------


def tiny_raft_cfg(tmp_path):
    return write(tmp_path, "system = raft\nduration_s = 2\nrate_rps = 50\n")


def test_cli_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", tiny_raft_cfg(tmp_path), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "blade" in stdout
    assert (out / "run_summary.tsv").exists()
    assert (out / "run_cdf_blade.txt").exists()


def test_cli_run_mode_and_seed_override(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", tiny_raft_cfg(tmp_path), "--out", str(out),
               "--mode", "off", "--seed", "5"])
    assert rc == 0
    assert "gc-off" in capsys.readouterr().out
    assert (out / "run_cdf_gc-off.txt").exists()


def test_cli_compare_writes_three_rows(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["compare", tiny_raft_cfg(tmp_path), "--out", str(out),
               "--deadline-s", "2"])
    assert rc == 0
    table = (out / "compare_summary.tsv").read_text()
    rows = [l for l in table.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 4  # header + off/blade/on
    assert [r.split("\t")[0] for r in rows[1:]] == ["gc-off", "blade", "gc-on"]


@pytest.mark.parametrize("command,first_mode", [("run", "blade"), ("compare", "off")])
def test_cli_fails_on_an_unsafe_raft_history(tmp_path, capsys, monkeypatch, command,
                                             first_mode):
    record_apply = RaftTrace.record_apply

    def forge_on_n2(trace, node, index, entry):  # n2 applies another op
        if node == "n2":
            entry = (entry[0], ("set", "forged", index), None)
        record_apply(trace, node, index, entry)

    monkeypatch.setattr(RaftTrace, "record_apply", forge_on_n2)
    out = tmp_path / "out"
    rc = main([command, tiny_raft_cfg(tmp_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"gcsim: {first_mode} raft history is unsafe: index 1 ")
    assert "('set', 'forged'," in err[0] and err[0].endswith(" by n2")
    assert not out.exists()


def test_cli_rejects_invalid_config(tmp_path, capsys):
    bad = write(tmp_path, "rate_rps = -1\n")
    rc = main(["run", bad])
    assert rc == 2
    assert "rate_rps" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,field", [
    ("run", ["--seed", "-5"], "seed"),
    ("compare", ["--seed", "0"], "seed"),
    ("run", ["--deadline-s", "0"], "duration_s"),
    ("compare", ["--deadline-s", "-1"], "duration_s"),
])
def test_cli_overrides_are_validated_like_file_values(tmp_path, capsys, command, flags,
                                                      field):
    out = tmp_path / "out"
    rc = main([command, tiny_raft_cfg(tmp_path), "--out", str(out)] + flags)
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_missing_config(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_cli_entry_point_runs_as_module(tmp_path):
    cfg = tiny_raft_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "gcsim.cli", "run", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- shipped sample configs ---------------------------------------------------------


@pytest.mark.parametrize("name", ["configs/raft_desk.cfg", "configs/http_cluster.cfg"])
def test_shipped_configs_parse(name):
    cfg = parse_config(str(ROOT / name))
    assert cfg.gc_mode == "blade"
