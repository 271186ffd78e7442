"""Run configuration: one flat record, fillable from flags and a config file.

The optional config file is plain ``key = value`` lines (``#`` comments);
keys are the RunConfig field names. Command-line flags override file values,
which override the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .controller import STRATEGIES, _MODES, WHICHEVER_FIRST
from .simulator import to_ticks
from .workload import GeneratorSpec


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    strategy: str = "batched"
    requests: int = 1500
    seed: int = 0
    batch_size: int = 5
    window: float = None  # time units; defaults to 5 * batch_size
    mode: str = WHICHEVER_FIRST
    split_paths: int = 2
    substrate: str = "default"
    interarrival_mean: float = 5.0
    lifetime_mean: float = 120.0
    hop_delay: float = 1.0
    wait_delay: float = 1.0
    horizon: float = None  # time units, optional
    out: str = None
    check_invariants: bool = False
    vnodes_min: int = 3
    vnodes_max: int = 10
    edge_prob: float = 0.5
    node_demand_min: int = 1
    node_demand_max: int = 35
    link_demand_min: int = 1
    link_demand_max: int = 4
    cap_min: int = 100
    cap_max: int = 250

    def validate(self) -> "RunConfig":
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; choose from {', '.join(STRATEGIES)}")
        if self.mode not in _MODES:
            raise ConfigError(f"unknown batch mode {self.mode!r}; choose from {', '.join(_MODES)}")
        if self.requests < 0:
            raise ConfigError("requests must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.window is not None and self.window <= 0:
            raise ConfigError("window must be positive")
        if to_ticks(self.effective_window()) < 1:
            raise ConfigError(f"window {self.window} rounds to 0 ticks (one tick is 1e-6 time units)")
        if self.split_paths < 1:
            raise ConfigError("split_paths must be at least 1")
        if self.interarrival_mean <= 0 or self.lifetime_mean <= 0:
            raise ConfigError("arrival and lifetime means must be positive")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.substrate.startswith("random:"):
            try:
                size = int(self.substrate.split(":", 1)[1])
            except ValueError:
                size = 0
            if size < 2:
                raise ConfigError(f"substrate {self.substrate!r}: random:<n> needs an integer n >= 2")
        try:
            self.generator_spec().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def effective_window(self) -> float:
        """Window in time units; default couples to the batch size."""
        return self.window if self.window is not None else 5.0 * self.batch_size

    def generator_spec(self) -> GeneratorSpec:
        return GeneratorSpec(
            substrate=self.substrate,
            vnodes_min=self.vnodes_min,
            vnodes_max=self.vnodes_max,
            edge_prob=self.edge_prob,
            node_demand_min=self.node_demand_min,
            node_demand_max=self.node_demand_max,
            link_demand_min=self.link_demand_min,
            link_demand_max=self.link_demand_max,
            cap_min=self.cap_min,
            cap_max=self.cap_max,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key, raw, lineno):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return None if raw.lower() == "none" else float(raw)
        if ftype == "bool":
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {raw!r} for {key}") from None


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into a dict of RunConfig field values."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            values[key] = _coerce(key, value, lineno)
    return values


def build_config(file_values: dict = None, flag_values: dict = None) -> RunConfig:
    """Defaults, overridden by file values, overridden by flag values."""
    merged = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (flag_values or {}).items() if v is not None})
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return RunConfig(**merged).validate()
