"""Configuration types: parameter distributions, scenario settings, JSON I/O."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size)
        if self.std == 0.0:
            if not self.low <= self.mean <= self.high:
                raise ValueError(f"degenerate normal {self} lies outside its range")
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

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "low": self.low, "high": self.high}
        if self.kind == "normal":
            d["mean"] = self.mean
            d["std"] = self.std
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionSpec":
        _reject_unknown_keys(cls, d)
        return cls(
            kind=d["kind"],
            low=_number(cls, "low", d["low"]),
            high=_number(cls, "high", d["high"]),
            mean=_number(cls, "mean", d.get("mean", 0.0)),
            std=_number(cls, "std", d.get("std", 0.0)),
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

    _FIELDS = (
        "rated_power_kw", "efficiency", "capacity_kwh", "initial_soc",
        "demanded_soc", "plug_in_hour", "plug_out_hour",
    )

    def to_dict(self) -> dict:
        d = {name: getattr(self, name).to_dict() for name in self._FIELDS}
        d["soc_min"] = self.soc_min
        d["soc_max"] = self.soc_max
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FleetDistributions":
        _reject_unknown_keys(cls, d)
        kwargs = {
            name: DistributionSpec.from_dict(d[name]) for name in cls._FIELDS if name in d
        }
        if "soc_min" in d:
            kwargs["soc_min"] = _number(cls, "soc_min", d["soc_min"])
        if "soc_max" in d:
            kwargs["soc_max"] = _number(cls, "soc_max", d["soc_max"])
        return cls(**kwargs)


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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "start_h": self.start_h,
            "duration_h": self.duration_h, "depth": self.depth,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScriptedStep":
        _reject_unknown_keys(cls, d)
        return cls(d["kind"], _number(cls, "start_h", d["start_h"]),
                   _number(cls, "duration_h", d["duration_h"]),
                   _number(cls, "depth", d.get("depth", 0.9)))


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

    def to_dict(self) -> dict:
        return {
            "period_hours": self.period_hours,
            "central_fraction": self.central_fraction,
            "scripted": [s.to_dict() for s in self.scripted],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReferenceConfig":
        _reject_unknown_keys(cls, d)
        return cls(
            period_hours=_number(cls, "period_hours", d.get("period_hours", 3.0)),
            central_fraction=_number(cls, "central_fraction", d.get("central_fraction", 0.8)),
            scripted=tuple(ScriptedStep.from_dict(s) for s in d.get("scripted", ())),
        )


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
        if self.n_ev < 1:
            raise ValueError("n_ev must be >= 1")
        if self.n_intervals < 2:
            raise ValueError("n_intervals must be >= 2")
        if self.dt_seconds <= 0 or self.resync_minutes <= 0 or self.horizon_hours <= 0:
            raise ValueError("time settings must be strictly positive")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        if not self.variants or len(set(self.variants)) < len(self.variants):
            raise ValueError(f"variants must be non-empty and distinct, got {self.variants!r}")
        if len(self.measurement_noise_kw) != 3:
            raise ValueError("measurement_noise_kw must be three standard deviations "
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
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "n_ev": self.n_ev,
            "n_intervals": self.n_intervals,
            "dt_seconds": self.dt_seconds,
            "resync_minutes": self.resync_minutes,
            "horizon_hours": self.horizon_hours,
            "seed": self.seed,
            "variants": list(self.variants),
            "transition_samples": self.transition_samples,
            "measurement_noise_kw": list(self.measurement_noise_kw),
            "reference": self.reference.to_dict(),
            "distributions": self.distributions.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        _reject_unknown_keys(cls, d)
        kwargs = {}
        for name in ("n_ev", "n_intervals", "seed", "transition_samples"):
            if name in d:
                kwargs[name] = _number(cls, name, d[name], integral=True)
        for name in ("dt_seconds", "resync_minutes", "horizon_hours"):
            if name in d:
                kwargs[name] = _number(cls, name, d[name])
        if "variants" in d:
            kwargs["variants"] = tuple(d["variants"])
        if "measurement_noise_kw" in d:
            kwargs["measurement_noise_kw"] = tuple(
                _number(cls, "measurement_noise_kw", v) for v in d["measurement_noise_kw"])
        if "reference" in d:
            kwargs["reference"] = ReferenceConfig.from_dict(d["reference"])
        if "distributions" in d:
            kwargs["distributions"] = FleetDistributions.from_dict(d["distributions"])
        return cls(**kwargs)


def load_config(path: str | Path) -> SimulationConfig:
    with open(path) as fh:
        return SimulationConfig.from_dict(json.load(fh))


def save_config(config: SimulationConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
