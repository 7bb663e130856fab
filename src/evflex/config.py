"""Configuration types: parameter distributions, scenario settings, JSON I/O."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

# Rejection-sampling budget for truncated normals, draws per value.
REJECTION_BUDGET = 1000


def _reject_unknown_keys(cls, d: dict) -> None:
    """A key that names no field of `cls` is a typo; fail at load time instead
    of silently keeping the default."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")


def _number(cls, name: str, value, integral: bool = False):
    """A finite float, or an int when `integral`: a NaN window start or 5.7
    vehicles fails at load time instead of propagating or truncating."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if not ok or (integral and not float(value).is_integer()):
        kind = "an integer" if integral else "a finite number"
        raise ValueError(f"{cls.__name__} {name} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _shaped(cls, name: str, value, shape: type, noun: str):
    if not isinstance(value, shape):
        raise ValueError(f"{cls.__name__} {name} must be {noun}, got {value!r}")
    return value


def _parse(cls, name: str, hint, value):
    """JSON `value` of field `name` of `cls`, parsed by its declared type `hint`:
    numbers through `_number`, a list into a tuple, a nested config recursively."""
    if hint in (int, float):
        return _number(cls, name, value, integral=hint is int)
    if hint is str:
        return _shaped(cls, name, value, str, "a string")
    if get_origin(hint) is tuple:
        items = _shaped(cls, name, value, list, "a list")
        return tuple(_parse(cls, name, get_args(hint)[0], v) for v in items)
    return from_dict(hint, _shaped(cls, name, value, dict, "an object"))


def from_dict(cls, data):
    """The config dataclass `cls` built from parsed JSON. Each key is parsed by
    its field's declared type; a field left out keeps its default, and a
    missing required field or an unknown key is an error."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    _reject_unknown_keys(cls, data)
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            kwargs[f.name] = _parse(cls, f.name, hints[f.name], data[f.name])
        elif f.default is MISSING:
            raise ValueError(f"{cls.__name__} {f.name} is required")
    return cls(**kwargs)


@dataclass(frozen=True)
class DistributionSpec:
    """A bounded scalar distribution.

    kind "uniform" draws U(low, high); kind "normal" draws N(mean, std)
    truncated to [low, high] by rejection sampling.
    """

    kind: str
    low: float
    high: float
    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not self.low <= self.high:
            raise ValueError(f"empty support: low={self.low} > high={self.high}")
        if self.kind == "normal" and self.std < 0:
            raise ValueError("std must be >= 0")
        if self.kind == "normal" and self.std == 0 and not self.low <= self.mean <= self.high:
            raise ValueError(f"degenerate normal {self} has its mean outside [low, high]")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size)
        if self.std == 0.0:
            return np.full(size, self.mean)
        out = np.empty(size)
        pending = np.ones(size, dtype=bool)
        for _ in range(REJECTION_BUDGET):
            n_pending = int(pending.sum())
            if n_pending == 0:
                return out
            draws = rng.normal(self.mean, self.std, n_pending)
            ok = (draws >= self.low) & (draws <= self.high)
            hit = np.flatnonzero(pending)[ok]
            out[hit] = draws[ok]
            pending[hit] = False
        raise ValueError(
            f"rejection budget ({REJECTION_BUDGET}) exceeded for {self}: "
            "truncation range has vanishing probability mass"
        )


@dataclass(frozen=True)
class FleetDistributions:
    """Per-vehicle parameter distributions.

    Plug-in / plug-out hours are absolute on a day-anchored clock: a plug-in
    above 24 is an after-midnight arrival, plug-out is the absolute departure
    of the same session (plug_out > plug_in, session < 24 h). The schedule
    repeats daily, so a session drawn as [17.5, 32.9] appears in a 0-24 h run
    both as yesterday's arrival still connected at t=0 and as tonight's
    re-arrival at 17.5 h.
    """

    rated_power_kw: DistributionSpec = DistributionSpec("uniform", 5.0, 7.0)
    efficiency: DistributionSpec = DistributionSpec("uniform", 0.88, 0.95)
    capacity_kwh: DistributionSpec = DistributionSpec("uniform", 20.0, 30.0)
    initial_soc: DistributionSpec = DistributionSpec("normal", 0.2, 0.4, mean=0.3, std=0.5)
    demanded_soc: DistributionSpec = DistributionSpec("normal", 0.7, 0.9, mean=0.8, std=0.03)
    plug_in_hour: DistributionSpec = DistributionSpec("normal", 5.5, 29.5, mean=17.5, std=3.4)
    plug_out_hour: DistributionSpec = DistributionSpec("normal", 20.9, 44.9, mean=32.9, std=3.4)
    soc_min: float = 0.0
    soc_max: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError(f"bad SOC bounds [{self.soc_min}, {self.soc_max}]")
        for name in ("initial_soc", "demanded_soc"):
            spec = getattr(self, name)
            if spec.low < self.soc_min or spec.high > self.soc_max:
                raise ValueError(f"{name} range outside [soc_min, soc_max]")
        if self.rated_power_kw.low <= 0 or self.capacity_kwh.low <= 0:
            raise ValueError("rated power and capacity must be strictly positive")
        if self.efficiency.low <= 0 or self.efficiency.high > 1.0:
            raise ValueError("efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class ScriptedStep:
    """Reference override window: hold a level at `depth` of the one-sided
    live headroom ("provide" pushes toward the upper bound, "consume" toward
    the lower bound), frozen at the window start."""

    kind: str
    start_h: float
    duration_h: float
    depth: float = 0.9

    def __post_init__(self):
        if self.kind not in ("provide", "consume"):
            raise ValueError(f"unknown scripted step kind {self.kind!r}")
        if self.duration_h <= 0 or not 0.0 <= self.depth <= 1.0:
            raise ValueError("scripted step needs duration > 0 and depth in [0, 1]")


@dataclass(frozen=True)
class ReferenceConfig:
    period_hours: float = 3.0
    central_fraction: float = 0.8
    scripted: tuple[ScriptedStep, ...] = ()

    def __post_init__(self):
        if self.period_hours <= 0:
            raise ValueError("reference period must be > 0")
        if not 0.0 < self.central_fraction <= 1.0:
            raise ValueError("central_fraction must lie in (0, 1]")


VARIANTS = ("ssm", "essm")


@dataclass(frozen=True)
class SimulationConfig:
    n_ev: int = 10_000
    n_intervals: int = 10
    dt_seconds: float = 15.0
    resync_minutes: float = 5.0
    horizon_hours: float = 24.0
    seed: int = 1
    variants: tuple[str, ...] = VARIANTS
    transition_samples: int = 100_000
    measurement_noise_kw: tuple[float, float, float] = (0.0, 0.0, 0.0)
    reference: ReferenceConfig = ReferenceConfig()
    distributions: FleetDistributions = FleetDistributions()

    def __post_init__(self):
        for name in ("n_ev", "transition_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_intervals < 2:
            raise ValueError("n_intervals must be >= 2")
        if self.dt_seconds <= 0 or self.resync_minutes <= 0 or self.horizon_hours <= 0:
            raise ValueError("time settings must be strictly positive")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        if not self.variants or len(set(self.variants)) < len(self.variants):
            raise ValueError(f"variants must be non-empty and distinct, got {self.variants!r}")
        if len(self.measurement_noise_kw) != 3 or min(self.measurement_noise_kw) < 0:
            raise ValueError("measurement_noise_kw must be three standard deviations >= 0 "
                             f"(power, upper, lower), got {self.measurement_noise_kw!r}")
        resync_s = self.resync_minutes * 60.0
        if abs(resync_s / self.dt_seconds - round(resync_s / self.dt_seconds)) > 1e-9:
            raise ValueError("dt must divide the resync period")
        horizon_s = self.horizon_hours * 3600.0
        if abs(horizon_s / resync_s - round(horizon_s / resync_s)) > 1e-9:
            raise ValueError("resync period must divide the horizon")

    @property
    def dt_hours(self) -> float:
        return self.dt_seconds / 3600.0

    @property
    def n_steps(self) -> int:
        return round(self.horizon_hours * 3600.0 / self.dt_seconds)

    @property
    def resync_steps(self) -> int:
        return round(self.resync_minutes * 60.0 / self.dt_seconds)

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """`dataclasses.replace`; the program calls that directly, this name
        stays only for perfbench/setup_probe.py."""
        return replace(self, **kwargs)


def load_config(path: str | Path) -> SimulationConfig:
    with open(path) as fh:
        return from_dict(SimulationConfig, json.load(fh))


def save_config(config: SimulationConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
