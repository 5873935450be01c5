"""Scenario configuration: a flat ``key = value`` text format.

Lines are ``key = value`` pairs; ``#`` starts a comment and blank lines are
skipped.  The ``system`` key (``raft`` or ``http``) selects the default
block, so an empty file yields the reference replicated key-value setup:
3 nodes, 100 requests/s at a 3:1 get/set mix over a 48 us RTT network.
Unknown keys and malformed values are rejected with the offending line
number; every field is validated before a run starts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .runtime import GIB, MIB


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    # topology
    system: str = "raft"            # raft | http
    nodes: int = 3
    rtt_us: int = 48
    jitter_us: int = 0
    seed: int = 1
    gc_mode: str = "blade"          # on | off | blade
    # managed runtime
    live_bytes: int = 200 * MIB
    trigger_bytes: int = 0          # 0 -> twice the live set
    hard_limit_bytes: int = 1 * GIB
    pause_per_gib_us: int = 25_000
    pause_overhead_us: int = 8_761
    default_pause_estimate_us: int = 10_000
    defer_threshold_us: int = 1_000
    gcoff_slowdown: float = 1.0
    # workload
    rate_rps: int = 100
    duration_s: int = 600
    mix_get: int = 3
    mix_set: int = 1
    arrivals: str = "uniform"       # uniform | poisson
    bytes_per_request: int = 8_192
    background_alloc_bytes_per_s: int = 0
    background_alloc_interval_us: int = 10_000
    service_time_us: int = 400
    # http cluster
    parallelism: int = 16
    max_concurrent: int = 1
    # raft cluster
    clients: int = 10
    client_timeout_us: int = 1_000_000
    election_timeout_min_ms: int = 150
    election_timeout_max_ms: int = 300
    heartbeat_ms: int = 50
    proxy_mode: str = "proxy"       # proxy | retry
    collection_timeout_factor: int = 10
    gc_nodes: str = "all"           # all | followers

    # -- derived values -----------------------------------------------------

    def effective_trigger_bytes(self) -> int:
        return self.trigger_bytes if self.trigger_bytes else 2 * self.live_bytes

    def duration_us(self) -> int:
        return self.duration_s * 1_000_000


_HTTP_DEFAULTS = {
    "rate_rps": 6_000,
    "duration_s": 60,
    "live_bytes": 150 * MIB,
    "bytes_per_request": 6_554,   # ~12.5 MiB/s per backend at 2000 req/s
    "service_time_us": 2_000,
}

_INT_FIELDS = {
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type in ("int",)
}
_FLOAT_FIELDS = {
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type in ("float",)
}
_STR_FIELDS = {
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type in ("str",)
}

_CHOICES = {
    "system": ("raft", "http"),
    "gc_mode": ("on", "off", "blade"),
    "arrivals": ("uniform", "poisson"),
    "proxy_mode": ("proxy", "retry"),
    "gc_nodes": ("all", "followers"),
}

_POSITIVE = {
    "nodes", "rtt_us", "seed", "live_bytes", "hard_limit_bytes",
    "pause_per_gib_us", "rate_rps", "duration_s", "service_time_us",
    "parallelism", "max_concurrent", "clients", "client_timeout_us",
    "election_timeout_min_ms", "election_timeout_max_ms", "heartbeat_ms",
    "collection_timeout_factor", "background_alloc_interval_us",
}
_NON_NEGATIVE = {
    "jitter_us", "trigger_bytes", "pause_overhead_us",
    "default_pause_estimate_us", "defer_threshold_us", "mix_get", "mix_set",
    "bytes_per_request", "background_alloc_bytes_per_s",
}


def _defaults(system: str) -> ScenarioConfig:
    """The default block for ``system``; an unknown system is left to ``validate``."""
    cfg = ScenarioConfig(system=system)
    if system == "http":
        for key, value in _HTTP_DEFAULTS.items():
            setattr(cfg, key, value)
    return cfg


def default_config(system: str = "raft", **overrides) -> ScenarioConfig:
    """Reference configuration for a system, with keyword overrides applied."""
    if system not in _CHOICES["system"]:
        raise ConfigError(f"field 'system': must be one of raft, http")
    cfg = _defaults(system)
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown key {key!r}")
        setattr(cfg, key, value)
    validate(cfg)
    return cfg


def parse_lines(lines: list[str]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def config_from_pairs(pairs: dict[str, str]) -> ScenarioConfig:
    cfg = _defaults(pairs.get("system", "raft"))
    known = _INT_FIELDS | _FLOAT_FIELDS | _STR_FIELDS
    for key, value in pairs.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")
        try:
            if key in _INT_FIELDS:
                setattr(cfg, key, int(value.replace("_", "")))
            elif key in _FLOAT_FIELDS:
                setattr(cfg, key, float(value))
            else:
                setattr(cfg, key, value)
        except ValueError:
            raise ConfigError(f"field {key!r}: cannot parse {value!r}") from None
    validate(cfg)
    return cfg


def parse_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; defaults fill every omitted key."""
    with open(path) as fh:
        return config_from_pairs(parse_lines(fh.readlines()))


def validate(cfg: ScenarioConfig) -> None:
    for name, choices in _CHOICES.items():
        if getattr(cfg, name) not in choices:
            raise ConfigError(f"field {name!r}: must be one of {', '.join(choices)}")
    for name in _POSITIVE:
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"field {name!r}: must be positive")
    for name in _NON_NEGATIVE:
        if getattr(cfg, name) < 0:
            raise ConfigError(f"field {name!r}: must be non-negative")
    if cfg.gcoff_slowdown < 1.0:
        raise ConfigError("field 'gcoff_slowdown': must be >= 1.0")
    if cfg.mix_get + cfg.mix_set <= 0:
        raise ConfigError("field 'mix_get'/'mix_set': the request mix is empty")
    if cfg.live_bytes >= cfg.effective_trigger_bytes():
        raise ConfigError("field 'trigger_bytes': must exceed the live set")
    # A deferred collection needs room to wait: keep 20% of the hard limit
    # between the trigger and the limit.
    if cfg.effective_trigger_bytes() + cfg.hard_limit_bytes // 5 > cfg.hard_limit_bytes:
        raise ConfigError(
            "field 'trigger_bytes': trigger plus 20% headroom exceeds the hard limit")
    if cfg.election_timeout_min_ms > cfg.election_timeout_max_ms:
        raise ConfigError("field 'election_timeout_min_ms': exceeds the maximum")
    if cfg.system == "raft" and cfg.nodes < 3:
        raise ConfigError("field 'nodes': a replicated cluster needs at least 3 servers")
    if cfg.system == "raft" and cfg.nodes % 2 == 0:
        raise ConfigError("field 'nodes': use an odd cluster size")


def serialize(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back yields an identical config."""
    lines = [f"# scenario ({cfg.system})"]
    for f in dataclasses.fields(ScenarioConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"
