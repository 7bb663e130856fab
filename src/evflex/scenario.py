"""Experiment orchestration: 24 h prediction and tracking loops, reference
generation, error metrics and CSV surfaces.

The prediction loop runs the fleet uncontrolled and propagates every
configured model variant alongside it (recursion each step with the observed
plug-in/out churn, hard resync from telemetry every resync period). The
tracking loop closes the loop per variant: each step the controller plans a
dispatch against the model's predicted pre-control state, broadcasts
switching probabilities, and the fleet actuates them; variants drive clones
of the same fleet (same seed, same per-step draws) against the same reference
so their tracking is directly comparable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .aggregate import (ESSM, SSM, AggregateModel, FlexibilityEnvelope, StateLayout, churn_keys,
                        measure)
from .config import ReferenceConfig, ScriptedStep, SimulationConfig
from .control import plan_dispatch, to_switching_probabilities
from .fleet import Fleet, sample_fleet
from .imm import imm_flexibility

_STREAM_REFERENCE = 7
_STREAM_NOISE = 11


def error_metrics(model_series, baseline_series) -> float:
    """Aggregate L1 error ratio in percent:
    100 * sum|model - baseline| / sum|baseline|."""
    model = np.asarray(model_series, dtype=float)
    base = np.asarray(baseline_series, dtype=float)
    if model.shape != base.shape:
        raise ValueError("series lengths differ")
    denom = np.abs(base).sum()
    if denom == 0.0:
        raise ValueError("baseline series is identically zero")
    return float(100.0 * np.abs(model - base).sum() / denom)


def _draw_level(rng: np.random.Generator, p_l: float, p_u: float,
                central_fraction: float) -> float:
    """Uniform draw from the central fraction of [p_l, p_u]; a degenerate
    band holds its forced level."""
    if p_u <= p_l:
        return p_l
    center = 0.5 * (p_l + p_u)
    half = 0.5 * central_fraction * (p_u - p_l)
    return float(rng.uniform(center - half, center + half))


@dataclass
class _ScriptedWindow:
    start_step: int
    end_step: int
    kind: str
    depth: float
    level: float = np.nan


def _scripted_windows(scripted: tuple[ScriptedStep, ...], dt_h: float,
                      k_steps: int) -> list[_ScriptedWindow]:
    windows = []
    for s in scripted:
        start = round(s.start_h / dt_h)
        end = min(k_steps, round((s.start_h + s.duration_h) / dt_h))
        if start < end:
            windows.append(_ScriptedWindow(start, end, s.kind, s.depth))
    return sorted(windows, key=lambda w: w.start_step)


class ReferenceGenerator:
    """Piecewise-constant reference, one level per step from the envelope of
    that step.

    Outside the scripted windows a fresh level is drawn from the central
    fraction of the band at every period boundary (and at the first step
    after a window) and held. Inside a window the level sits at the window's
    depth of the one-sided headroom, frozen at the window start.
    """

    def __init__(self, reference: ReferenceConfig, dt_hours: float, k_steps: int, seed: int):
        self._rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(_STREAM_REFERENCE,)))
        self._windows = _scripted_windows(reference.scripted, dt_hours, k_steps)
        self._period_steps = max(1, round(reference.period_hours / dt_hours))
        self._central_fraction = reference.central_fraction
        self._held = np.nan

    def level(self, k: int, env: FlexibilityEnvelope) -> float:
        window = next((w for w in self._windows if w.start_step <= k < w.end_step), None)
        if window is None:
            if k % self._period_steps == 0 or np.isnan(self._held):
                self._held = _draw_level(self._rng, env.p_l_kw, env.p_u_kw,
                                         self._central_fraction)
            return self._held
        if k == window.start_step:
            top = env.p_u_kw if window.kind == "provide" else env.p_l_kw
            window.level = env.p_ev_kw + window.depth * (top - env.p_ev_kw)
        return window.level


@dataclass
class VariantSeries:
    """Per-variant time series of one run: model outputs and the ground
    truth of the fleet that run drove, each as (power, upper, lower) rows."""

    variant: str
    model_kw: np.ndarray
    imm_kw: np.ndarray
    states: np.ndarray
    n_connected: np.ndarray
    achieved_delta_kw: np.ndarray
    saturated: np.ndarray

    model_p_kw, model_u_kw, model_l_kw = (property(lambda self, i=i: self.model_kw[i])
                                          for i in range(3))
    imm_p_kw, imm_u_kw, imm_l_kw = (property(lambda self, i=i: self.imm_kw[i]) for i in range(3))

    @classmethod
    def zeros(cls, variant: str, k_steps: int, dimension: int) -> "VariantSeries":
        """Empty series for a run of `k_steps` steps (k_steps + 1 samples)."""
        n = k_steps + 1
        return cls(variant, *np.zeros((2, 3, n)), states=np.zeros((n, dimension)),
                   n_connected=np.zeros(n, dtype=np.int64), achieved_delta_kw=np.zeros(k_steps),
                   saturated=np.zeros(k_steps, dtype=bool))


@dataclass
class RunResult:
    kind: str
    config: SimulationConfig
    time_h: np.ndarray
    reference_kw: np.ndarray
    variants: dict[str, VariantSeries]

    def prediction_errors(self) -> list[dict]:
        rows = []
        for name in self.config.variants:
            vs = self.variants[name]
            rows.append({
                "n_ev": self.config.n_ev,
                "variant": name,
                "upper_err_pct": error_metrics(vs.model_u_kw, vs.imm_u_kw),
                "lower_err_pct": error_metrics(vs.model_l_kw, vs.imm_l_kw),
                "power_err_pct": error_metrics(vs.model_p_kw, vs.imm_p_kw),
            })
        return rows

    def tracking_rms_kw(self, variant: str) -> float:
        vs = self.variants[variant]
        err = vs.imm_p_kw - self.reference_kw
        return float(np.sqrt(np.mean(err ** 2)))


def _fleet(config: SimulationConfig) -> Fleet:
    params = sample_fleet(config.distributions, config.n_ev, config.seed)
    return Fleet(params, config.dt_hours, config.seed)


def _model(config: SimulationConfig, variant: str) -> AggregateModel:
    d = config.distributions
    layout = StateLayout(config.n_intervals, variant, d.soc_min, d.soc_max)
    return AggregateModel.from_distributions(
        layout, d, config.dt_hours, n_samples=config.transition_samples, seed=config.seed)


def _noise_rng_or_none(config: SimulationConfig, variant_idx: int):
    std = np.asarray(config.measurement_noise_kw, dtype=float)
    if not std.any():
        return None, None
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(_STREAM_NOISE, variant_idx)))
    return std, rng


def run_prediction_experiment(config: SimulationConfig) -> RunResult:
    """Uncontrolled 24 h run: every vehicle charges until full or gone, every
    variant's model predicts alongside from telemetry."""
    k_steps = config.n_steps
    fleet = _fleet(config)
    models = {name: _model(config, name) for name in config.variants}
    series = {name: VariantSeries.zeros(name, k_steps, models[name].layout.dimension)
              for name in config.variants}
    noise = {name: _noise_rng_or_none(config, i) for i, name in enumerate(config.variants)}

    _record(config, fleet, series, models, noise, None, 0)

    layout = models[config.variants[0]].layout  # keys depend only on N and the SOC range
    for k in range(k_steps):
        step = fleet.step(None)
        keys = churn_keys(step, layout) if step.n_in or step.n_out else None
        for model in models.values():
            model.advance(step, keys=keys)
        _record(config, fleet, series, models, noise, step, k + 1)

    return RunResult(
        kind="prediction",
        config=config,
        time_h=np.arange(k_steps + 1) * config.dt_hours,
        reference_kw=np.zeros(k_steps + 1),
        variants=series,
    )


def _record(config: SimulationConfig, fleet: Fleet, series, models, noise, step, k: int) -> None:
    """Record step k: each model's output C x, and the ground truth, which is
    the step's running sums or, at a resync (k = 0 included), the exact sum
    over fresh telemetry, which also resets the models."""
    if k % config.resync_steps:
        env_true = step.envelope
    else:
        snap = fleet.snapshot()
        for model in models.values():
            model.resync(snap)
        env_true = imm_flexibility(snap, config.distributions.soc_min,
                                   config.distributions.soc_max)
    truth = np.array([env_true.p_ev_kw, env_true.p_u_kw, env_true.p_l_kw])
    for name, model in models.items():
        vs = series[name]
        vs.model_kw[:, k] = measure(model.mats.C, model.state.x, *noise[name])
        vs.imm_kw[:, k] = truth
        vs.states[k], vs.n_connected[k] = model.state.x, model.state.n_ev_connected


def _run_tracking_single(config: SimulationConfig, variant: str,
                         reference: np.ndarray | None, variant_idx: int):
    """Drive one fleet with one variant's controller. When no reference is
    given, levels are drawn online from the live model envelope (plus the
    configured scripted windows) and the generated series is returned."""
    k_steps = config.n_steps
    fleet = _fleet(config)
    model = _model(config, variant)
    vs = VariantSeries.zeros(variant, k_steps, model.layout.dimension)
    noise = {variant: _noise_rng_or_none(config, variant_idx)}
    series = {variant: vs}
    models = {variant: model}

    online = reference is None
    if online:
        generator = ReferenceGenerator(config.reference, config.dt_hours, k_steps, config.seed)
        reference = np.zeros(k_steps + 1)

    _record(config, fleet, series, models, noise, None, 0)

    for k in range(k_steps):
        if online:
            reference[k + 1] = generator.level(k, model.envelope())
            if k == 0:
                reference[0] = reference[1]

        pre = model.pre_control()
        plan = plan_dispatch(reference[k + 1] - model.power_kw(pre), pre)
        command = to_switching_probabilities(plan)
        vs.achieved_delta_kw[k] = plan.achieved_delta_kw
        vs.saturated[k] = plan.saturated

        step = fleet.step(command)
        model.advance(step, u=plan.expected_u, pre=pre)
        _record(config, fleet, series, models, noise, step, k + 1)

    return vs, reference


def run_tracking_experiment(config: SimulationConfig,
                            reference: np.ndarray | None = None) -> RunResult:
    """Closed-loop tracking for every configured variant against one shared
    reference. Without an explicit reference, the extended-variant run
    generates it online from its live envelope and the others replay it."""
    k_steps = config.n_steps
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (k_steps + 1,):
            raise ValueError("reference must cover the horizon (n_steps + 1 samples)")
    series: dict[str, VariantSeries] = {}
    for name in sorted(config.variants, key=lambda v: v != ESSM):
        series[name], reference = _run_tracking_single(
            config, name, reference, config.variants.index(name))

    return RunResult(
        kind="tracking",
        config=config,
        time_h=np.arange(k_steps + 1) * config.dt_hours,
        reference_kw=reference,
        variants={name: series[name] for name in config.variants},
    )


def sweep_prediction(config: SimulationConfig, n_ev_list) -> list[dict]:
    """Prediction-error table over fleet sizes."""
    rows = []
    for n in n_ev_list:
        result = run_prediction_experiment(replace(config, n_ev=int(n)))
        rows.extend(result.prediction_errors())
    return rows


# ---------------------------------------------------------------------------
# CSV surfaces: fixed-format, 6 significant digits, CRLF line ends.

_CELL = "%.6g"


def _write_table(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One row per sample; `columns` holds 1-d columns or 2-d column blocks."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=_CELL, delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


def write_timeseries_csv(result: RunResult, path: str | Path) -> None:
    """time_h, reference_kw, ground truth triple, then one model triple per
    variant. For tracking runs the ground-truth columns belong to the
    extended-variant-driven fleet when present (each variant drives its own
    clone); variants not run are filled with nan."""
    truth = result.variants[next(v for v in (ESSM, SSM) if v in result.variants)]
    header = ["time_h", "reference_kw", "imm_p_kw", "imm_u_kw", "imm_l_kw"]
    columns = [result.time_h, result.reference_kw, truth.imm_p_kw, truth.imm_u_kw,
               truth.imm_l_kw]
    missing = np.full(result.time_h.size, np.nan)
    for name in (SSM, ESSM):
        header += [f"{name}_p_kw", f"{name}_u_kw", f"{name}_l_kw"]
        vs = result.variants.get(name)
        columns += ([vs.model_p_kw, vs.model_u_kw, vs.model_l_kw] if vs is not None
                    else [missing] * 3)
    _write_table(path, header, columns)


def write_errors_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_ev", "variant", "upper_err_pct", "lower_err_pct",
                         "power_err_pct"])
        for row in rows:
            writer.writerow([row["n_ev"], row["variant"], _CELL % row["upper_err_pct"],
                             _CELL % row["lower_err_pct"], _CELL % row["power_err_pct"]])


def write_states_csv(result: RunResult, variant: str, path: str | Path) -> None:
    states = result.variants[variant].states
    header = ["time_h"] + [f"x_{j + 1}" for j in range(states.shape[1])]
    _write_table(path, header, [result.time_h, states])


def write_tracking_csv(result: RunResult, variant: str, path: str | Path) -> None:
    vs = result.variants[variant]
    _write_table(path, ["time_h", "reference_kw", "achieved_kw", "model_p_kw", "abs_err_kw"],
                 [result.time_h, result.reference_kw, vs.imm_p_kw, vs.model_p_kw,
                  np.abs(vs.imm_p_kw - result.reference_kw)])
