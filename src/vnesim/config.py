"""Run configuration: one flat record, fillable from flags and a config file.

The optional config file is plain ``key = value`` lines (``#`` comments);
keys are the RunConfig field names. Command-line flags override file values,
which override the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .controller import STRATEGIES, _MODES, WHICHEVER_FIRST
from .simulator import (DEFAULT_INTERARRIVAL_MEAN, DEFAULT_LIFETIME_MEAN, MAX_DRAW_FACTOR,
                        TICKS_PER_UNIT, to_ticks)
from .workload import GeneratorSpec, random_size


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig(GeneratorSpec):
    """Everything one run reads; the generator knobs are GeneratorSpec's."""

    strategy: str = "batched"
    requests: int = 1500
    seed: int = 0
    batch_size: int = 5
    window: float = None  # time units; defaults to 5 * batch_size
    mode: str = WHICHEVER_FIRST
    split_paths: int = 2
    interarrival_mean: float = DEFAULT_INTERARRIVAL_MEAN
    lifetime_mean: float = DEFAULT_LIFETIME_MEAN
    hop_delay: float = 1.0
    wait_delay: float = 1.0
    horizon: float = None  # time units, optional
    out: str = None
    check_invariants: bool = False

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value}")
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
        try:
            window = self.effective_window()
        except OverflowError:  # an int batch_size past float range
            raise ConfigError("batch_size is too large: the default window, 5 * batch_size "
                              "time units, overflows a float") from None
        if not _fits_ticks(window):
            raise ConfigError(f"window {window} overflows the tick count")
        if to_ticks(window) < 1:
            raise ConfigError(f"window {self.window} rounds to 0 ticks (one tick is 1e-6 time units)")
        if self.split_paths < 1:
            raise ConfigError("split_paths must be at least 1")
        if self.interarrival_mean <= 0 or self.lifetime_mean <= 0:
            raise ConfigError("arrival and lifetime means must be positive")
        for name in ("interarrival_mean", "lifetime_mean"):
            mean = getattr(self, name)
            if not _fits_ticks(MAX_DRAW_FACTOR * mean):
                raise ConfigError(f"{name} {mean}: a draw of up to {MAX_DRAW_FACTOR:.1f} times "
                                  "the mean overflows the tick count")
        if self.hop_delay < 0 or self.wait_delay < 0:
            raise ConfigError("hop_delay and wait_delay must be nonnegative")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.horizon is not None and not _fits_ticks(self.horizon):
            raise ConfigError(f"horizon {self.horizon} overflows the tick count")
        if self.horizon is not None and to_ticks(self.horizon) < 1:
            raise ConfigError(f"horizon {self.horizon} rounds to 0 ticks (one tick is 1e-6 time units)")
        try:
            random_size(self.substrate)
            super().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def effective_window(self) -> float:
        """Window in time units; default couples to the batch size."""
        return self.window if self.window is not None else 5.0 * self.batch_size

    def generator_spec(self) -> GeneratorSpec:
        return GeneratorSpec(**{f.name: getattr(self, f.name) for f in fields(GeneratorSpec)})


def _fits_ticks(units) -> bool:
    """Whether ``units`` time units convert to a finite tick count."""
    return math.isfinite(units * TICKS_PER_UNIT)


_FIELDS = {f.name: f for f in fields(RunConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key, raw, where):
    """One flag or file value from text to the field's type; ``where`` names
    its source ("line 3", "--window") in the error."""
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type == "int":
            return int(raw)
        if f.type == "float":
            # "none" only where None is the default (window, horizon)
            return None if raw.lower() == "none" and f.default is None else float(raw)
        if f.type == "bool":
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: bad value {raw!r} for {key}") from None


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into a dict of RunConfig field values."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value, f"line {lineno}")
    return values


def build_config(file_values: dict = None, flag_values: dict = None) -> RunConfig:
    """Defaults, overridden by file values, overridden by flag values."""
    merged = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (flag_values or {}).items() if v is not None})
    unknown = set(merged) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return RunConfig(**merged).validate()
