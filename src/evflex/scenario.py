"""Experiment orchestration: 24 h prediction and tracking runs, reference
generation, error metrics and CSV surfaces.

The prediction run builds no fleet: it counts the resync states and churn of
its parameters' `Schedule` (`schedule_states`) and runs the extended model's
pass over each resync period (`AggregateModel.run_period`). The plain model's
rows are that pass's fold, whichever variants run. The tracking run steps the
fleet and closes the loop per variant: each step the controller plans a
dispatch against the model's predicted pre-control state, broadcasts switching
rates, and the fleet actuates them. Variants drive clones of the same fleet
(same seed, same per-step draws) that step in lockstep against one reference,
so their tracking is directly comparable. Scripted reference windows lie on
the step grid and never overlap (checked at load time).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .aggregate import (ESSM, SSM, AggregateModel, FlexibilityEnvelope, StateLayout,
                        build_transition_matrix, churn_keys, fold, measure, move_probabilities,
                        schedule_states)
from .config import VARIANTS, ReferenceConfig, ScriptedStep, SimulationConfig
from .control import plan_dispatch, to_switching_probabilities
from .fleet import Fleet, Schedule, sample_fleet

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
    spans = [(s, *s.steps(dt_h)) for s in scripted]
    return sorted((_ScriptedWindow(start, min(k_steps, end), s.kind, s.depth)
                   for s, start, end in spans if start < k_steps), key=lambda w: w.start_step)


class ReferenceGenerator:
    """Piecewise-constant reference, one level per step from the envelope of
    that step.

    Outside the scripted windows a fresh level is drawn from the central
    fraction of the band at every period boundary and held; after a window
    the level held before it resumes until the next boundary. Inside a window
    the level sits at the window's depth of the one-sided headroom, frozen at
    the window start.
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
    config: SimulationConfig
    time_h: np.ndarray
    reference_kw: np.ndarray
    variants: dict[str, VariantSeries]

    def prediction_errors(self) -> list[dict]:
        """Per variant, `error_metrics` of each bound and of power; nan where its baseline is 0."""
        rows = []
        for name in self.config.variants:
            vs = self.variants[name]
            rows.append({"n_ev": self.config.n_ev, "variant": name} | {
                f"{column}_err_pct": error_metrics(model, base) if base.any() else np.nan
                for column, model, base in (("upper", vs.model_u_kw, vs.imm_u_kw),
                                            ("lower", vs.model_l_kw, vs.imm_l_kw),
                                            ("power", vs.model_p_kw, vs.imm_p_kw))})
        return rows

    def tracking_rms_kw(self, variant: str) -> float:
        return float(np.sqrt(np.mean((self.variants[variant].imm_p_kw - self.reference_kw) ** 2)))


def _models(config: SimulationConfig) -> dict[str, AggregateModel]:
    """Both variants' models, from one draw of the move probabilities: the
    layouts share the interval width."""
    d = config.distributions
    layouts = [StateLayout(config.n_intervals, v, d.soc_min, d.soc_max) for v in VARIANTS]
    moves = move_probabilities(d, layouts[0].width, config.dt_hours, config.transition_samples,
                               config.seed)
    return {lay.variant: AggregateModel(lay, build_transition_matrix(lay, *moves))
            for lay in layouts}


def _noise_rng_or_none(config: SimulationConfig, variant: str):
    """The variant's measurement noise, keyed by the variant itself, so a run
    of a subset of the variants draws the same noise for each."""
    std = np.asarray(config.measurement_noise_kw, dtype=float)
    if not std.any():
        return None, None
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(_STREAM_NOISE, VARIANTS.index(variant))))
    return std, rng


def _run(config: SimulationConfig, reference: np.ndarray | None) -> RunResult:
    """The tracking loop, over one fleet with a lane per variant, a clone of the fleet: each
    variant plans for its own lane, then the fleet steps and each model advances and records.
    Without a `reference`, each step's level is drawn once, from the live envelope of the
    extended model (the first variant when it is not run), before any lane plans. Every random
    stream is keyed by seed, step or stream tag, never by run order, so each lane's run equals
    its solo run."""
    k_steps, names = config.n_steps, config.variants
    params = sample_fleet(config.distributions, config.n_ev, config.seed)
    fleet = Fleet(params, config.dt_hours, config.seed, lanes=len(names))
    models = _models(config)
    layout = models[names[0]].layout  # keys depend only on N and the SOC range
    series = {name: VariantSeries.zeros(name, k_steps, models[name].layout.dimension)
              for name in names}
    noise = {name: _noise_rng_or_none(config, name) for name in names}
    generator = None
    if reference is None:
        reference = np.zeros(k_steps + 1)
        generator = ReferenceGenerator(config.reference, config.dt_hours, k_steps, config.seed)
        lead = models[ESSM if ESSM in names else names[0]]
    for r, name in enumerate(names):
        _record(fleet, r, name, series, models, noise, True, 0)

    resync_steps = config.resync_steps
    for k in range(k_steps):
        if generator is not None:
            reference[k + 1] = generator.level(k, lead.envelope())
        commands, inputs = [], []
        for name in names:
            model, vs = models[name], series[name]
            pre = model.pre_control()
            plan = plan_dispatch(reference[k + 1] - model.power_kw(pre), pre)
            commands.append(to_switching_probabilities(plan))
            inputs.append((plan.expected_u, pre))
            vs.achieved_delta_kw[k], vs.saturated[k] = plan.achieved_delta_kw, plan.saturated
        step = fleet.step(*commands)
        keys = churn_keys(step, layout, len(names)) if step.n_in or step.n_out else None
        for r, name in enumerate(names):
            models[name].advance(step, *inputs[r], None if keys is None else keys[r])
            _record(fleet, r, name, series, models, noise, (k + 1) % resync_steps == 0, k + 1)
    if generator is not None:
        reference[0] = reference[1]
    return RunResult(config, np.arange(k_steps + 1) * config.dt_hours, reference, series)


def _record(fleet: Fleet, lane: int, name: str, series, models, noise, resync: bool,
            k: int) -> None:
    """Record step k of the variant `name` that the fleet's `lane` serves: its model's output
    C x, after a `resync` (k = 0 included) resets the model from fresh telemetry, and the
    ground truth, the lane's running envelope."""
    model, vs = models[name], series[name]
    if resync:
        model.resync(fleet.snapshot(lane))
    env = fleet.envelopes[lane]
    vs.model_kw.T[k] = measure(model.mats.C, model.state.x, *noise[name])
    vs.imm_kw.T[k] = env.p_ev_kw, env.p_u_kw, env.p_l_kw
    vs.states[k], vs.n_connected[k] = model.state.x, model.state.n_ev_connected


def run_prediction_experiment(config: SimulationConfig) -> RunResult:
    """Uncontrolled 24 h run: every vehicle charges until full or gone, every
    variant's model predicts alongside from telemetry.

    No `Fleet` is built: the whole run is the `Schedule` of the fleet's parameters, whose rows
    are the ground truth. Whichever variants run, one model pass, essm's, runs per resync
    period (`AggregateModel.run_period`) from the state and churn counts of `schedule_states`,
    in place in essm's rows (a private buffer when essm is not run); one stacked product gives
    the period's outputs. ssm's rows are the pass's fold (`fold`: X F, C on the kept columns).
    The count of connected vehicles that the pass propagates must equal the next resync's."""
    k_steps, names, every = config.n_steps, config.variants, config.resync_steps
    # The parameters, the models, then the schedule: the schedule first measured a higher peak RSS.
    params = sample_fleet(config.distributions, config.n_ev, config.seed)
    models = _models(config)
    schedule, model = Schedule(params, config.dt_hours, k_steps), models[ESSM]
    resyncs, churn = schedule_states(schedule, model.layout, every)
    series = {name: VariantSeries.zeros(name, k_steps, models[name].layout.dimension)
              for name in names}
    noise = {name: _noise_rng_or_none(config, name) for name in names}
    states = (series[ESSM].states if ESSM in series
              else np.zeros((k_steps + 1, model.layout.dimension)))
    f, keep = fold(models[SSM].layout, model.layout)
    outputs, n = np.empty((min(every, k_steps + 1), *model.mats.C.shape)), None  # C stacks
    for s, st in zip(range(0, k_steps + 1, every), resyncs):  # rows s, its resync, to e - 1
        e = min(s + every, k_steps + 1)
        if n is not None and n[-1] != st.n_ev_connected:
            raise ValueError(f"step {s}: the model pass propagated {n[-1]} connected vehicles, "
                             f"the snapshot has {st.n_ev_connected}")
        x, c = states[s:e], outputs[:e - s]
        n = model.run_period(st, churn[s + 1:e + 1], x, c)
        for name in names:  # ssm: essm folded, C its kept columns, contiguous
            vs = series[name]
            y = (c, x) if name == ESSM else (c.take(keep, 2), np.matmul(x, f, out=vs.states[s:e]))
            vs.model_kw.T[s:e] = measure(*y, *noise[name])
            vs.n_connected[s:e], vs.imm_kw.T[s:e] = n[:e - s], schedule.rows[s:e]
    return RunResult(config, np.arange(k_steps + 1) * config.dt_hours, np.zeros(k_steps + 1),
                     series)


def run_tracking_experiment(config: SimulationConfig,
                            reference: np.ndarray | None = None) -> RunResult:
    """Closed-loop tracking for every configured variant against one shared
    reference, each variant on its own clone of the fleet. Without an explicit
    reference, it is generated online from the extended model's live envelope."""
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (config.n_steps + 1,):
            raise ValueError("reference must cover the horizon (n_steps + 1 samples)")
    return _run(config, reference)


def sweep_prediction(config: SimulationConfig, n_ev_list) -> list[dict]:
    """Prediction-error table over fleet sizes."""
    return [row for n in n_ev_list
            for row in run_prediction_experiment(replace(config, n_ev=int(n))).prediction_errors()]


# ---------------------------------------------------------------------------
# CSV surfaces: fixed-format, 6 significant digits, CRLF line ends.

_CELL = "%.6g"
_BLOCK = 256  # rows per write: a whole table's cells as Python floats raised peak RSS by ~8 MB


def _write_table(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One row per sample; `columns` holds float 1-d columns or 2-d column blocks. The bytes
    of np.savetxt(fmt=_CELL, delimiter=",", newline="\r\n"), a block of rows per write; a
    column that is +0.0 throughout a block is written as the "0" it formats to."""
    table = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in np.split(table, range(_BLOCK, len(table), _BLOCK)):
            zero = ~block.view(np.int64).any(axis=0)
            row = ",".join(["0" if z else _CELL for z in zero.tolist()]) + "\r\n"
            fh.write("".join([row % tuple(values) for values in block[:, ~zero].tolist()]))


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
