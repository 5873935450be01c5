"""Scenario configuration: a flat ``key = value`` text format.

Lines are ``key = value`` pairs; ``#`` starts a comment and blank lines are
skipped.  The ``system`` key (``raft`` or ``http``) selects the default
block, so an empty file yields the reference replicated key-value setup:
3 nodes, 100 requests/s at a 3:1 get/set mix over a 48 us RTT network.
A malformed or duplicate line is rejected with its line number, an unknown
key or an unparsable value with the key's name.

A :class:`ScenarioConfig` is immutable and valid once it is built.  Its
constructor checks each field against its declared type (an ``int`` field
takes an int and not a bool, ``gcoff_slowdown`` an int or a float, a ``str``
field a str) and then every range and cross-field rule, among them a finite
``gcoff_slowdown`` of at least 1.0 and an even ``rtt_us``.  A scenario file,
``default_config(**overrides)`` and the overrides of ``run_scenario`` all
build through that constructor, so they refuse the same values with a
:class:`ConfigError` that names the field.  A variant is made with
``default_config(...)`` or ``dataclasses.replace``, which checks it again.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass

from .runtime import GIB, MIB


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    # topology
    system: str = "raft"            # raft | http
    nodes: int = 3
    rtt_us: int = 48                # even: each direction takes half
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

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise ConfigError(f"field {name!r}: expected {kind.__name__}, got {value!r}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"field {name!r}: must be one of {', '.join(choices)}")
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise ConfigError(f"field {name!r}: must be positive")
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ConfigError(f"field {name!r}: must be non-negative")
        if not 1.0 <= self.gcoff_slowdown < math.inf:  # also refuses nan
            raise ConfigError("field 'gcoff_slowdown': must be finite and >= 1.0")
        if self.rtt_us % 2:
            raise ConfigError("field 'rtt_us': must be even, each direction takes half")
        if self.mix_get + self.mix_set <= 0:
            raise ConfigError("field 'mix_get'/'mix_set': the request mix is empty")
        if self.live_bytes >= self.effective_trigger_bytes():
            raise ConfigError("field 'trigger_bytes': must exceed the live set")
        # A deferred collection needs room to wait: keep 20% of the hard limit
        # between the trigger and the limit.
        if self.effective_trigger_bytes() + self.hard_limit_bytes // 5 > self.hard_limit_bytes:
            raise ConfigError(
                "field 'trigger_bytes': trigger plus 20% headroom exceeds the hard limit")
        if self.election_timeout_min_ms > self.election_timeout_max_ms:
            raise ConfigError("field 'election_timeout_min_ms': exceeds the maximum")
        if self.system == "raft" and self.nodes < 3:
            raise ConfigError("field 'nodes': a replicated cluster needs at least 3 servers")
        if self.system == "raft" and self.nodes % 2 == 0:
            raise ConfigError("field 'nodes': use an odd cluster size")

    # -- derived values -----------------------------------------------------

    def effective_trigger_bytes(self) -> int:
        return self.trigger_bytes if self.trigger_bytes else 2 * self.live_bytes

    def duration_us(self) -> int:
        return self.duration_s * 1_000_000


# Field name -> declared type (int, float or str): the parser and the
# constructor's type check both read it.
_FIELD_TYPES: dict[str, type] = typing.get_type_hints(ScenarioConfig)

_HTTP_DEFAULTS = {
    "rate_rps": 6_000,
    "duration_s": 60,
    "live_bytes": 150 * MIB,
    "bytes_per_request": 6_554,   # ~12.5 MiB/s per backend at 2000 req/s
    "service_time_us": 2_000,
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


def default_config(system: str = "raft", **overrides) -> ScenarioConfig:
    """Reference configuration for a system, with keyword overrides applied."""
    for key in overrides:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
    defaults = _HTTP_DEFAULTS if system == "http" else {}
    return ScenarioConfig(system=system, **{**defaults, **overrides})


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
    """Parse each value by its field's type, in file order, then build the config."""
    values = {}
    for key, text in pairs.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](text)
        except ValueError:
            raise ConfigError(f"field {key!r}: cannot parse {text!r}") from None
    return default_config(**values)


def parse_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; defaults fill every omitted key."""
    with open(path) as fh:
        return config_from_pairs(parse_lines(fh.readlines()))


def serialize(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back yields an identical config."""
    lines = [f"# scenario ({cfg.system})"]
    for f in dataclasses.fields(ScenarioConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"
