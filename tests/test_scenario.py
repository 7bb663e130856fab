import json
import re
from copy import deepcopy
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from evflex import cli, scenario
from evflex.aggregate import FlexibilityEnvelope, StateLayout, fold, measure, schedule_states
from evflex.cli import main
from evflex.config import (
    DistributionSpec,
    ReferenceConfig,
    ScriptedStep,
    SimulationConfig,
    from_dict,
    load_config,
)
from evflex.fleet import Fleet, sample_fleet
from evflex.scenario import (
    ReferenceGenerator,
    error_metrics,
    run_prediction_experiment,
    run_tracking_experiment,
    write_errors_csv,
    write_states_csv,
    write_timeseries_csv,
    write_tracking_csv,
)

from conftest import deterministic_distributions, edge_case_params, fold_of


ROOT = Path(__file__).resolve().parents[1]
PROBES = ROOT / "configs" / "tracking_probes.json"


def small_config(**kw):
    defaults = dict(n_ev=150, horizon_hours=3.0, transition_samples=2000, seed=21)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestErrorMetrics:
    def test_identical_series_zero(self):
        s = np.array([1.0, -2.0, 3.0])
        assert error_metrics(s, s) == 0.0

    def test_scaled_series(self):
        base = np.array([100.0, -200.0, 50.0])
        assert error_metrics(1.05 * base, base) == pytest.approx(5.0)

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError, match="zero"):
            error_metrics(np.ones(3), np.zeros(3))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths"):
            error_metrics(np.ones(3), np.ones(4))


def reference_series(p_l, p_u, dt_hours, period_hours, seed):
    """ReferenceGenerator driven over a fixed envelope series, no scripted
    windows."""
    gen = ReferenceGenerator(ReferenceConfig(period_hours), dt_hours, len(p_l), seed)
    return np.array([gen.level(k, FlexibilityEnvelope(0.0, u, l))
                     for k, (l, u) in enumerate(zip(p_l, p_u))])


class TestGenerateReference:
    def test_levels_within_central_band(self):
        n = 1000
        ref = reference_series(np.full(n, -600.0), np.full(n, 600.0),
                               dt_hours=1 / 240, period_hours=1.0, seed=5)
        assert ref.min() >= -480.0
        assert ref.max() <= 480.0

    def test_single_period_constant(self):
        n = 241
        ref = reference_series(np.full(n, -600.0), np.full(n, 600.0),
                               dt_hours=1 / 240, period_hours=2.0, seed=5)
        assert np.unique(ref).size == 1

    def test_piecewise_constant_with_period(self):
        n = 480
        ref = reference_series(np.full(n, -600.0), np.full(n, 600.0),
                               dt_hours=1 / 240, period_hours=1.0, seed=5)
        assert np.unique(ref).size == 2
        assert (ref[:240] == ref[0]).all()

    def test_degenerate_band_holds_forced_level(self):
        n = 100
        ref = reference_series(np.full(n, -55.0), np.full(n, -55.0),
                               dt_hours=1 / 240, period_hours=1.0, seed=5)
        np.testing.assert_array_equal(ref, -55.0)

    def test_seeded_determinism(self):
        n = 480
        args = (np.full(n, -600.0), np.full(n, 600.0))
        a = reference_series(*args, dt_hours=1 / 240, period_hours=0.5, seed=9)
        b = reference_series(*args, dt_hours=1 / 240, period_hours=0.5, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_level_held_before_a_window_resumes_after_it(self):
        # A window [1.0, 1.5) h inside one 3 h period: nothing is drawn after
        # it, the level held before it comes back until the next boundary.
        reference = ReferenceConfig(3.0, scripted=(ScriptedStep("provide", 1.0, 0.5, 0.5),))
        gen = ReferenceGenerator(reference, 0.25, 12, seed=3)
        ref = [gen.level(k, FlexibilityEnvelope(0.0, 100.0, -100.0)) for k in range(12)]
        assert ref[4:6] == [50.0, 50.0] and ref[0] != 50.0
        assert ref[:4] + ref[6:] == [ref[0]] * 10

    def test_each_window_freezes_on_its_own_first_step(self):
        # Under an envelope that moves at every step, a window's level tells the step it froze
        # on: a window from step 0, two touching windows (steps 4-5 and 6-7) and one over steps
        # 10-19, cut at the 12 steps of the run.
        scripted = (ScriptedStep("provide", 0.0, 0.5, 0.5), ScriptedStep("provide", 1.0, 0.5, 0.5),
                    ScriptedStep("consume", 1.5, 0.5, 0.5), ScriptedStep("consume", 2.5, 2.5, 0.5))
        gen = ReferenceGenerator(ReferenceConfig(3.0, scripted=scripted), 0.25, 12, seed=3)
        ref = [gen.level(k, FlexibilityEnvelope(k, k + 100.0, k - 100.0)) for k in range(12)]
        assert [ref[k] for k in (0, 1, 4, 5, 6, 7, 10, 11)] == [50, 50, 54, 54, -44, -44, -40, -40]
        assert ref[2:4] + ref[8:10] == [ref[2]] * 4 and -78.0 <= ref[2] <= 82.0  # drawn at step 2
        assert sorted(gen._windows) == [0, 1, 4, 5, 6, 7, 10, 11]


class TestPredictionExperiment:
    def test_series_lengths_and_bracketing(self):
        config = small_config()
        res = run_prediction_experiment(config)
        k = config.n_steps
        assert res.time_h.size == k + 1
        for vs in res.variants.values():
            assert vs.model_p_kw.size == k + 1
            assert (vs.imm_l_kw <= vs.imm_p_kw + 1e-9).all()
            assert (vs.imm_p_kw <= vs.imm_u_kw + 1e-9).all()
        essm = res.variants["essm"]
        assert (essm.model_l_kw <= essm.model_p_kw + 1e-9).all()
        assert (essm.model_p_kw <= essm.model_u_kw + 1e-9).all()

    def test_model_matches_truth_at_resyncs(self):
        config = small_config()
        res = run_prediction_experiment(config)
        idx = np.arange(0, config.n_steps + 1, config.resync_steps)
        for vs in res.variants.values():
            np.testing.assert_allclose(vs.model_p_kw[idx], vs.imm_p_kw[idx],
                                       rtol=1e-9, atol=1e-6)

    def test_state_vectors_are_distributions(self):
        res = run_prediction_experiment(small_config())
        for vs in res.variants.values():
            occupied = vs.n_connected > 0
            sums = vs.states[occupied].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)
            assert vs.states.min() >= 0.0

    def test_identical_fleet_no_boundaries_variants_agree(self):
        # Fleet (and model mass, up to resync-window diffusion) stays well
        # inside the interior, where the two layouts' dynamics coincide.
        dists = deterministic_distributions(initial=0.2, plug_in=24.0, plug_out=47.9)
        config = small_config(n_ev=50, horizon_hours=1.0, distributions=dists)
        res = run_prediction_experiment(config)
        ssm, essm = res.variants["ssm"], res.variants["essm"]
        np.testing.assert_allclose(ssm.model_p_kw, essm.model_p_kw, atol=1e-3)
        np.testing.assert_allclose(ssm.model_u_kw, essm.model_u_kw, atol=1e-3)
        np.testing.assert_allclose(ssm.model_l_kw, essm.model_l_kw, atol=1e-3)

    def test_never_connected_fleet_all_zero(self):
        dists = deterministic_distributions(plug_in=26.0, plug_out=27.5)
        config = small_config(n_ev=20, horizon_hours=1.0, distributions=dists)
        res = run_prediction_experiment(config)
        for vs in res.variants.values():
            np.testing.assert_array_equal(vs.imm_p_kw, 0.0)
            np.testing.assert_array_equal(vs.model_p_kw, 0.0)
            np.testing.assert_array_equal(vs.n_connected, 0)

    def test_lower_bound_error_ordering(self):
        res = run_prediction_experiment(small_config(horizon_hours=6.0, seed=2))
        rows = {r["variant"]: r for r in res.prediction_errors()}
        assert rows["ssm"]["lower_err_pct"] >= rows["essm"]["lower_err_pct"]
        assert rows["ssm"]["power_err_pct"] == pytest.approx(
            rows["essm"]["power_err_pct"], rel=1e-9)

    def test_measurement_noise_perturbs_recordings(self):
        clean = run_prediction_experiment(small_config(horizon_hours=1.0))
        noisy_config = small_config(horizon_hours=1.0,
                                    measurement_noise_kw=(25.0, 25.0, 25.0))
        noisy = run_prediction_experiment(noisy_config)
        again = run_prediction_experiment(noisy_config)
        diff = noisy.variants["essm"].model_p_kw - clean.variants["essm"].model_p_kw
        assert np.abs(diff).max() > 1.0
        np.testing.assert_array_equal(noisy.variants["essm"].model_p_kw,
                                      again.variants["essm"].model_p_kw)


def day_config(**kw):
    """A whole day with one-minute steps, so the evening plug events count."""
    return small_config(horizon_hours=24.0, dt_seconds=60.0, **kw)


def run_with_fleet(monkeypatch, config, transform):
    """Prediction run on the sampled fleet after `transform`, which maps its
    parameters to those of another fleet."""
    params = transform(sample_fleet(config.distributions, config.n_ev, config.seed))
    monkeypatch.setattr(scenario, "sample_fleet", lambda *args: params)
    return run_prediction_experiment(config)


def reindexed(index):
    """A transform giving vehicle i the parameters of vehicle index[i]."""
    def transform(params):
        return replace(params, **{f.name: getattr(params, f.name)[index(params.n_ev)]
                                  for f in fields(params)
                                  if isinstance(getattr(params, f.name), np.ndarray)})
    return transform


def imm_series(vs):
    return np.stack([vs.imm_p_kw, vs.imm_u_kw, vs.imm_l_kw])


class TestMetamorphic:
    """Relations between runs on related fleets: the ground truth is a sum
    over vehicles and the model state a distribution over states."""

    def test_permuting_vehicle_ids(self, monkeypatch):
        config = day_config(variants=("essm",))
        base = run_with_fleet(monkeypatch, config, lambda p: p).variants["essm"]
        perm = run_with_fleet(monkeypatch, config, reindexed(
            lambda n: np.random.default_rng(3).permutation(n))).variants["essm"]
        np.testing.assert_allclose(imm_series(perm), imm_series(base), rtol=1e-12)
        np.testing.assert_array_equal(perm.states, base.states)

    def test_duplicating_every_vehicle(self, monkeypatch):
        config = day_config(variants=("essm",))
        base = run_with_fleet(monkeypatch, config, lambda p: p).variants["essm"]
        twice = run_with_fleet(monkeypatch, config, reindexed(
            lambda n: np.repeat(np.arange(n), 2))).variants["essm"]
        np.testing.assert_allclose(imm_series(twice), 2.0 * imm_series(base), rtol=1e-12)
        np.testing.assert_array_equal(twice.states, base.states)

    def test_variants_share_power_and_upper_bound(self):
        # Equal up to rounding: the two state vectors have different lengths,
        # so their output sums round differently in the last bits.
        res = run_prediction_experiment(day_config())
        ssm, essm = res.variants["ssm"], res.variants["essm"]
        np.testing.assert_allclose(ssm.model_p_kw, essm.model_p_kw, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(ssm.model_u_kw, essm.model_u_kw, rtol=1e-12, atol=1e-9)
        assert np.abs(ssm.model_l_kw - essm.model_l_kw).max() > 1.0

    def test_track_replays_its_own_reference_csv(self, tmp_path):
        # The probes scenario cut to 3 h. The replayed reference is the online
        # one rounded to the CSV's 6 significant digits, which may move the
        # plans and model power by that rounding but switches no vehicle.
        config = json.loads(PROBES.read_text()) | {"n_ev": 150, "horizon_hours": 3.0}
        (tmp_path / "config.json").write_text(json.dumps(config))
        flags = ["--config", str(tmp_path / "config.json")]
        assert main(["track", *flags, "--out", str(tmp_path / "online")]) == 0
        reference = tmp_path / "online" / "tracking_essm.csv"
        assert main(["track", *flags, "--reference", str(reference),
                     "--out", str(tmp_path / "replay")]) == 0
        for name in ("essm", "ssm"):
            online, replay = (np.genfromtxt(tmp_path / run / f"tracking_{name}.csv",
                                            delimiter=",", names=True)
                              for run in ("online", "replay"))
            np.testing.assert_array_equal(replay["achieved_kw"], online["achieved_kw"])
            # Two roundings to 6 significant digits of the reference level.
            tol = 1e-5 * np.abs(online["reference_kw"])
            for column in ("reference_kw", "model_p_kw", "abs_err_kw"):
                assert (np.abs(replay[column] - online[column]) <= tol).all(), (name, column)


class TestTrackingExperiment:
    def test_self_reference_needs_no_commands(self):
        config = small_config(seed=3)
        pre = run_prediction_experiment(config)
        reference = pre.variants["essm"].model_p_kw.copy()
        res = run_tracking_experiment(config, reference)
        essm = res.variants["essm"]
        rated = config.n_ev * 6.0
        assert np.abs(essm.achieved_delta_kw).mean() <= 0.01 * rated

    def test_replay_reproduces_online_run(self):
        config = small_config(seed=5, reference=ReferenceConfig(period_hours=1.0,
                                                                central_fraction=0.5))
        online = run_tracking_experiment(config)
        replay = run_tracking_experiment(config, online.reference_kw)
        for name in config.variants:
            np.testing.assert_array_equal(online.variants[name].imm_p_kw,
                                          replay.variants[name].imm_p_kw)
        np.testing.assert_array_equal(online.reference_kw, replay.reference_kw)

    def test_scripted_window_overrides_levels(self):
        scripted = (ScriptedStep("provide", 1.0, 0.5, depth=0.5),)
        config = small_config(seed=5, reference=ReferenceConfig(
            period_hours=3.0, central_fraction=0.5, scripted=scripted))
        res = run_tracking_experiment(config)
        dt = config.dt_hours
        inside = res.reference_kw[int(1.25 / dt)]
        outside = res.reference_kw[int(0.5 / dt)]
        assert inside != outside

    def test_reference_shape_validated(self):
        config = small_config()
        with pytest.raises(ValueError, match="horizon"):
            run_tracking_experiment(config, np.zeros(5))

    def test_variants_in_lockstep_equal_their_solo_runs(self):
        # The pair steps two clones in lockstep; each equals its solo run byte
        # for byte: essm online with the same reference, ssm replaying it.
        # Measurement noise is on, so its streams must not depend on which
        # variants run either.
        config = replace(load_config(PROBES), n_ev=150, horizon_hours=3.0,
                         measurement_noise_kw=(25.0, 25.0, 25.0))
        pair = run_tracking_experiment(config)
        essm = run_tracking_experiment(replace(config, variants=("essm",)))
        ssm = run_tracking_experiment(replace(config, variants=("ssm",)), pair.reference_kw)
        assert essm.reference_kw.tobytes() == pair.reference_kw.tobytes()
        for name, solo in (("essm", essm), ("ssm", ssm)):
            for field in ("model_kw", "imm_kw", "states", "n_connected", "achieved_delta_kw",
                          "saturated"):
                ours, theirs = (getattr(r.variants[name], field) for r in (solo, pair))
                assert ours.dtype == theirs.dtype, (name, field)
                assert ours.tobytes() == theirs.tobytes(), (name, field)

    def test_tracking_follows_reference(self):
        config = small_config(n_ev=400, horizon_hours=6.0, seed=8,
                              reference=ReferenceConfig(period_hours=1.0,
                                                        central_fraction=0.5))
        res = run_tracking_experiment(config)
        rated = 400 * 6.0
        assert res.tracking_rms_kw("essm") <= 0.05 * rated


class TestFleetPaths:
    """`predict` reads the uncontrolled fleet from its schedule and never builds it; `track`
    steps its fleet once a step."""

    def test_predict_and_sweep_build_no_fleet(self, monkeypatch, tmp_path):
        def build(self, *args, **kwargs):
            raise AssertionError("an uncontrolled run built a fleet")

        monkeypatch.setattr(Fleet, "__init__", build)
        config = small_config(horizon_hours=1.0)
        assert run_prediction_experiment(config).variants["essm"].n_connected.all()
        assert len(scenario.sweep_prediction(config, [50, 100])) == 4
        assert main(["sweep", "--sizes", "60", "--out", str(tmp_path)]) == 0

    def test_track_steps_the_fleet_every_step(self, monkeypatch):
        calls, step = [], Fleet.step
        monkeypatch.setattr(Fleet, "step", lambda self, *commands: calls.append(commands)
                            or step(self, *commands))
        config = small_config(horizon_hours=1.0)
        run_tracking_experiment(config)
        assert len(calls) == config.n_steps
        assert all(len(commands) == 2 for commands in calls)  # one lane per variant


def stepwise_prediction(config) -> tuple[dict, dict]:
    """The uncontrolled run stepped, the model pass's oracle: at every step `Fleet.step`, then
    each model's `advance`, a resync every `resync_steps` (k = 0 included) and `measure` of
    its output; the truth is the fleet's running envelope. Returns the series and each
    model's output matrix C at every step."""
    k_steps, names = config.n_steps, config.variants
    fleet = Fleet(scenario.sample_fleet(config.distributions, config.n_ev, config.seed),
                  config.dt_hours, config.seed)
    models = scenario._models(config)
    noise = {name: scenario._noise_rng_or_none(config, name) for name in names}
    series = {name: scenario.VariantSeries.zeros(name, k_steps, models[name].layout.dimension)
              for name in names}
    c = {name: np.zeros((k_steps + 1, 3, models[name].layout.dimension)) for name in names}
    for k in range(k_steps + 1):
        step = fleet.step() if k else None
        for name in names:
            model, vs = models[name], series[name]
            if k:
                model.advance(step)
            if k % config.resync_steps == 0:
                model.resync(fleet.snapshot())
            env = fleet.envelopes[0]
            vs.model_kw.T[k] = measure(model.mats.C, model.state.x, *noise[name])
            vs.imm_kw.T[k] = env.p_ev_kw, env.p_u_kw, env.p_l_kw
            vs.states[k], vs.n_connected[k] = model.state.x, model.state.n_ev_connected
            c[name][k] = model.mats.C
    return series, c


def assert_bitwise(a, b, what) -> None:
    """Equal dtype, shape and bytes (signed zeros too); a failure names the first rows that
    differ."""
    assert a.dtype == b.dtype and a.shape == b.shape, what
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    rows = np.flatnonzero((a.view(np.uint8) != b.view(np.uint8)).reshape(a.shape[0], -1).any(
        axis=1))
    assert rows.size == 0, (what, rows[:5])


def with_variants(config, variants):
    """`config` with other variants, its other fields as they are (set after load, so a horizon
    off the resync grid stays)."""
    config = deepcopy(config)
    object.__setattr__(config, "variants", variants)
    return config


def assert_pass_matches_steps(config):
    """`run_prediction_experiment` against `stepwise_prediction`: essm bitwise, the one model
    the pass propagates; ssm, whenever it runs, as the fold of essm's rows
    (`assert_ssm_is_the_fold`); a run of ssm alone bitwise as the ssm of a run of both."""
    ours = run_prediction_experiment(config).variants
    theirs, c = stepwise_prediction(with_variants(config, ("ssm", "essm")))
    assert list(ours) == list(config.variants)
    for name in config.variants:
        for column in ("n_connected", "imm_kw") + (("states", "model_kw") if name == "essm"
                                                   else ()):
            assert_bitwise(getattr(ours[name], column), getattr(theirs[name], column),
                           (name, column))
    if "ssm" in ours:
        assert_ssm_is_the_fold(config, ours["ssm"], theirs, c)
    if "essm" not in ours:
        both = run_prediction_experiment(with_variants(config, ("ssm", "essm"))).variants
        for column in ("states", "model_kw", "n_connected"):
            assert_bitwise(getattr(ours["ssm"], column), getattr(both["ssm"], column),
                           ("ssm", column, "alone"))
    return ours


def assert_ssm_is_the_fold(config, ssm, theirs, c) -> None:
    """ssm's rows are essm's folded, bitwise: its states X F (each boundary state added to its
    edge idle interval) and its outputs through essm's C on the kept columns, which is ssm's
    own C bitwise, plus noise from ssm's own stream; the product reads C contiguous, as every
    output does (on a strided stack numpy's matmul takes its own loop, which rounds
    otherwise). ssm's own stepwise recursion stays the oracle: the fold is within 1e-12 of it,
    states absolute and outputs relative (the chain lumps; only the rounding of the merged
    sums differs)."""
    fold, keep = fold_of(config.n_intervals)
    x = theirs["essm"].states
    folded = np.zeros((x.shape[0], keep.size))
    for j, i in enumerate(fold):
        folded[:, i] += x[:, j]
    assert_bitwise(ssm.states, folded, ("ssm", "states", "fold"))
    assert_bitwise(c["ssm"], c["essm"][:, :, keep], ("ssm", "C", "fold"))
    y = measure(np.ascontiguousarray(c["essm"][:, :, keep]), folded,
                *scenario._noise_rng_or_none(config, "ssm"))
    assert_bitwise(ssm.model_kw, y.T, ("ssm", "model_kw", "fold"))
    own = theirs["ssm"]
    assert np.abs(ssm.states - own.states).max() <= 1e-12
    assert (np.abs(ssm.model_kw - own.model_kw) <= 1e-12 * np.abs(own.model_kw)).all()


def assert_the_fold_is_exact(config) -> None:
    """Uncontrolled, no vehicle idles below the ceiling, discharges or idles empty, so essm's
    interior idle, discharging and empty-idle states are exactly +0.0 in every row; each of
    ssm's states then adds one state of essm's to exact zeros, and ssm's rows are X F bitwise."""
    run, n = run_prediction_experiment(config).variants, config.n_intervals
    x = run["essm"].states
    assert_bitwise(x[:, n:3 * n + 1], np.zeros((x.shape[0], 2 * n + 1)), "zero states")
    f = fold(StateLayout(n, "ssm"), StateLayout(n, "essm"))[0]
    assert_bitwise(run["ssm"].states, x @ f, "X F")


def with_params(monkeypatch, params):
    """Both runs of a test build their fleet from a copy of `params`."""
    monkeypatch.setattr(scenario, "sample_fleet", lambda *args: deepcopy(params))


class TestModelPass:
    """The prediction run's model pass, a resync period at a time, propagates essm alone and
    equals the stepwise loop bitwise, derives ssm as essm's fold whichever variants run, and
    refuses a schedule whose plug events disagree with its snapshots."""

    def test_the_edge_case_fleet(self, monkeypatch, table_distributions):
        config = small_config(n_ev=200, horizon_hours=24.0, dt_seconds=300.0,
                              resync_minutes=60.0, distributions=table_distributions)
        with_params(monkeypatch, edge_case_params(table_distributions, seed=21))
        assert_pass_matches_steps(config)

    @pytest.mark.parametrize("seed", [7, 1, 29])
    def test_a_day_of_500_vehicles(self, seed):
        assert_pass_matches_steps(SimulationConfig(n_ev=500, seed=seed, transition_samples=2000))

    def test_the_fold_is_exact_on_the_edge_case_fleet(self, monkeypatch, table_distributions):
        config = small_config(n_ev=200, horizon_hours=24.0, dt_seconds=300.0,
                              resync_minutes=60.0, distributions=table_distributions)
        with_params(monkeypatch, edge_case_params(table_distributions, seed=21))
        assert_the_fold_is_exact(config)

    @pytest.mark.parametrize("seed", [7, 29])
    def test_the_fold_is_exact_over_a_day(self, seed):
        assert_the_fold_is_exact(SimulationConfig(n_ev=500, seed=seed, transition_samples=2000))

    def test_a_fleet_that_empties_and_refills_between_resyncs(self, monkeypatch,
                                                              table_distributions):
        # Sessions of about [0.5, 4), [1, 5), [2, 6.06) h from yesterday, then [6.5, 14) and
        # [11, 16) h today, with a resync every hour: the fleet empties and refills between the
        # resyncs at 6 and 7 h, and then stays empty from 16 h.
        config = small_config(n_ev=5, horizon_hours=24.0, dt_seconds=60.0, resync_minutes=60.0,
                              distributions=table_distributions)
        params = replace(sample_fleet(table_distributions, 5, seed=3),
                         plug_in_h=np.array([24.52, 25.07, 26.13, 6.52, 11.11]),
                         plug_out_h=np.array([28.03, 29.09, 30.06, 14.04, 16.07]))
        with_params(monkeypatch, params)
        for vs in assert_pass_matches_steps(config).values():
            n, refilled = vs.n_connected[360:420], vs.n_connected[360:420].nonzero()[0][-1]
            assert n[0] == n[-1] == 1 and not n.all() and vs.n_connected[-1] == 0
            # Refilled, the model keeps the zero pattern of the empty fleet up to the resync.
            assert (vs.model_kw[:, 360 + refilled] == 0).all() and vs.imm_kw[:, 419].any()

    def test_measurement_noise(self):
        assert_pass_matches_steps(small_config(measurement_noise_kw=(25.0, 5.0, 12.5)))

    def test_a_horizon_off_the_resync_grid(self):
        # Load time refuses a horizon that the resync period does not divide, so the test
        # sets it after: 183 steps, resyncs every 20, the last period rows 180 to 183.
        config = small_config()
        object.__setattr__(config, "horizon_hours", 3.0 + 3 * config.dt_hours)
        assert config.n_steps % config.resync_steps == 3
        assert_pass_matches_steps(config)

    def test_a_resync_at_every_step(self):
        assert_pass_matches_steps(small_config(dt_seconds=60.0, resync_minutes=1.0))

    @pytest.mark.parametrize("variant", ["ssm", "essm"])
    def test_a_single_variant(self, variant):
        assert_pass_matches_steps(small_config(variants=(variant,)))

    @pytest.mark.parametrize("seed", [7, 29])
    def test_a_run_of_ssm_alone_is_the_ssm_of_both(self, seed):
        config = SimulationConfig(n_ev=500, seed=seed, transition_samples=2000)
        alone = run_prediction_experiment(replace(config, variants=("ssm",))).variants["ssm"]
        both = run_prediction_experiment(config).variants["ssm"]
        for column in ("states", "model_kw", "n_connected"):
            assert_bitwise(getattr(alone, column), getattr(both, column), column)

    def test_the_variants_in_reverse_order(self):
        assert_pass_matches_steps(small_config(variants=("essm", "ssm")))

    def test_a_miscounted_plug_event_is_refused(self, monkeypatch):
        def miscounted(*args):
            """Counts a departure as an arrival: the first that a churn row nets in a state."""
            states, churn = schedule_states(*args)
            churn[tuple(np.argwhere(churn < 0)[0])] += 2
            return states, churn

        monkeypatch.setattr(scenario, "schedule_states", miscounted)
        with pytest.raises(ValueError, match="the model pass propagated") as refused:
            run_prediction_experiment(small_config())
        propagated, observed = map(int, re.findall(r"(\d+) connected vehicles, the snapshot "
                                                   r"has (\d+)", str(refused.value))[0])
        assert propagated == observed + 2


class TestCsvSurfaces:
    def test_timeseries_schema_and_determinism(self, tmp_path):
        config = small_config(n_ev=60, horizon_hours=1.0)
        res = run_prediction_experiment(config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeseries_csv(res, p1)
        write_timeseries_csv(run_prediction_experiment(config), p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ("time_h,reference_kw,imm_p_kw,imm_u_kw,imm_l_kw,"
                            "ssm_p_kw,ssm_u_kw,ssm_l_kw,essm_p_kw,essm_u_kw,essm_l_kw")
        assert len(lines) == config.n_steps + 2

    def test_six_significant_digits(self, tmp_path):
        res = run_prediction_experiment(small_config(n_ev=60, horizon_hours=1.0))
        path = tmp_path / "t.csv"
        write_timeseries_csv(res, path)
        cell = path.read_text().splitlines()[40].split(",")[2]
        assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 7

    def test_errors_csv_layout(self, tmp_path):
        res = run_prediction_experiment(small_config(n_ev=60, horizon_hours=1.0))
        path = tmp_path / "errors.csv"
        write_errors_csv(res.prediction_errors(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n_ev,variant,upper_err_pct,lower_err_pct,power_err_pct"
        assert len(lines) == 3

    def test_zero_baseline_reads_nan(self, capsys, tmp_path):
        # One vehicle, connected full and idle: its power and lower bound are zero throughout,
        # so their error ratios are undefined; its upper bound is not.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_ev": 1, "horizon_hours": 0.25, "seed": 1}))
        assert main(["predict", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = [row.split(",") for row in (tmp_path / "errors.csv").read_text().splitlines()]
        assert [row[1:] for row in rows[1:]] == [[v, rows[1][2], "nan", "nan"]
                                                 for v in ("ssm", "essm")]
        assert rows[1][2] != "nan"
        printed = capsys.readouterr().out.splitlines()
        assert all("lower=nan% power=nan%" in line for line in printed[:2])

    def test_states_csv_dimensions(self, tmp_path):
        config = small_config(n_ev=60, horizon_hours=1.0)
        res = run_prediction_experiment(config)
        path = tmp_path / "states_essm.csv"
        write_states_csv(res, "essm", path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[0] == "time_h"
        assert len(lines[0].split(",")) == 1 + 33
        assert len(lines) == config.n_steps + 2

    @pytest.mark.parametrize("rows", [0, 1, 255, 2 * scenario._BLOCK + 3])
    def test_block_writer_writes_savetxt_bytes(self, tmp_path, rows):
        # Cells savetxt formats one by one: non-finite, signed zero, a subnormal,
        # 1e16, ties at the 6th digit, all-zero columns and a column zero but for
        # one -0.0, in 1-d columns mixed with a 2-d column block.
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1234565.0, 0.1234565,
                    -2.5e-7, 1.0000005, 999999.5]
        rng = np.random.default_rng(rows)
        cells = rng.choice(specials, size=(rows, 3))
        block = np.column_stack([rng.normal(0.0, 10.0 ** rng.integers(-8, 9, rows)),
                                 cells, np.zeros(rows), np.zeros(rows)])
        if rows:
            block[rows // 2, -1] = -0.0
        columns = [np.arange(rows) * 0.25, block, cells[:, 0], np.zeros(rows)]
        header = [f"c{i}" for i in range(3 + block.shape[1])]
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        scenario._write_table(ours, header, columns)
        with open(theirs, "w", newline="") as fh:
            np.savetxt(fh, np.column_stack(columns), fmt="%.6g", delimiter=",", newline="\r\n",
                       header=",".join(header), comments="")
        assert ours.read_bytes() == theirs.read_bytes()
        assert ours.read_bytes().count(b"\r\n") == rows + 1

    def test_tracking_csv(self, tmp_path):
        config = small_config(n_ev=60, horizon_hours=1.0)
        res = run_tracking_experiment(config)
        path = tmp_path / "tracking_essm.csv"
        write_tracking_csv(res, "essm", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_h,reference_kw,achieved_kw,model_p_kw,abs_err_kw"
        assert len(lines) == config.n_steps + 2

    def test_reference_replay_checks_time_axis(self, tmp_path, capsys):
        config = small_config(n_ev=60, horizon_hours=1.0)
        (tmp_path / "run.json").write_text(json.dumps(asdict(config)))
        run = ["track", "--config", str(tmp_path / "run.json")]
        assert main(run + ["--out", str(tmp_path / "online")]) == 0
        reference = str(tmp_path / "online" / "tracking_essm.csv")
        assert main(run + ["--reference", reference, "--out", str(tmp_path / "replay")]) == 0
        # Same sample count, twice the step: refused instead of replayed.
        coarse = replace(config, dt_seconds=30.0, horizon_hours=2.0)
        (tmp_path / "coarse.json").write_text(json.dumps(asdict(coarse)))
        with pytest.raises(SystemExit) as exit_info:
            main(["track", "--config", str(tmp_path / "coarse.json"),
                  "--reference", reference, "--out", str(tmp_path / "coarse")])
        assert exit_info.value.code == 2
        assert "time_h" in capsys.readouterr().err


class TestCli:
    """Bad input ends in one `evflex: error: ...` line and exit code 2."""

    def error_line(self, capsys, argv) -> str:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        return capsys.readouterr().err.strip().splitlines()[-1]

    def test_repeated_variant(self, capsys, tmp_path):
        line = self.error_line(capsys, ["predict", "--n-ev", "50", "--variants", "essm", "essm",
                                        "--out", str(tmp_path)])
        assert line.startswith("evflex: error: variants must be")

    def test_negative_seed_override(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--n-ev", "50", "--seed", "-1", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if "error" in line] == ["evflex: error: seed must be >= 0"]

    def test_fractional_count_in_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_ev": 5.7}))
        line = self.error_line(capsys, ["predict", "--config", str(path),
                                        "--out", str(tmp_path)])
        assert line.startswith("evflex: error: ") and "n_ev must be" in line

    @pytest.mark.parametrize("data, named", [
        ({"distributions": {"efficiency": {"kind": "uniform", "low": 0.9}}},
         "DistributionSpec high is required"),
        ({"reference": {"scripted": [{"kind": "provide", "start_h": 0.0}]}},
         "ScriptedStep duration_h is required"),
        ({"reference": 3}, "SimulationConfig reference must be an object"),
        ({"measurement_noise_kw": 5}, "SimulationConfig measurement_noise_kw must be a list"),
        ({"variants": "essm"}, "SimulationConfig variants must be a list"),
        ({"reference": {"scripted": {"kind": "provide"}}}, "ReferenceConfig scripted must be a list"),
        ([{"n_ev": 50}], "SimulationConfig must be a JSON object"),
        ({"distributions": {"efficiency": {"kind": 3, "low": 0.9, "high": 0.95}}},
         "DistributionSpec kind must be a string"),
        ({"transition_samples": 0}, "transition_samples must be >= 1"),
        ({"distributions": {"plug_in_hour": {"kind": "normal", "low": 5.5, "high": 29.5,
                                             "mean": 40.0, "std": 0.0}}}, "degenerate normal"),
        ({"measurement_noise_kw": [1.0, -1.0, 0.0]}, "measurement_noise_kw must be"),
        ({"distributions": {"efficiency": {"kind": "uniform", "low": 0.9, "high": 0.95,
                                           "std": 0.01}}}, "uniform distribution takes no std"),
        # Windows [1, 2) h and [1.5, 2.5) h: from 2 h on no window froze a level.
        ({"n_ev": 100, "horizon_hours": 3.0, "transition_samples": 2000,
          "reference": {"scripted": [{"kind": "provide", "start_h": 1.0, "duration_h": 1.0},
                                     {"kind": "consume", "start_h": 1.5, "duration_h": 1.0}]}},
         "reference.scripted windows overlap"),
        ({"n_ev": 100, "horizon_hours": 3.0, "transition_samples": 2000,
          "reference": {"scripted": [{"kind": "provide", "start_h": -1.0, "duration_h": 1.5}]}},
         "ScriptedStep start_h must be >= 0"),
        # 7.2 s at 15 s steps: both ends round to the same step.
        ({"n_ev": 100, "horizon_hours": 3.0, "transition_samples": 2000,
          "reference": {"scripted": [{"kind": "provide", "start_h": 1.0, "duration_h": 0.002}]}},
         "ScriptedStep duration_h 0.002 h holds no step"),
        ({"seed": -1}, "seed must be >= 0"),
        # 7 kW into 20 kWh at 88 %: 0.0331 SOC per 300 s step, above a 1/40 interval.
        ({"dt_seconds": 300, "n_intervals": 40}, "dt_seconds 300 moves the fastest vehicle"),
        # N(0, 0.03) holds next to nothing in [0.7, 0.9]: no draw would ever land there.
        ({"distributions": {"demanded_soc": {"kind": "normal", "low": 0.7, "high": 0.9,
                                             "mean": 0.0, "std": 0.03}}},
         "demanded_soc keeps too little normal mass"),
        # A vehicle that plugs in after 22 h can draw no plug-out in [20.9, 22] h after it.
        ({"horizon_hours": 0.25, "distributions": {"plug_out_hour": {
            "kind": "uniform", "low": 20.9, "high": 22.0}}}, "plug_out_hour keeps too little mass"),
    ])
    def test_malformed_config_is_one_line(self, capsys, tmp_path, data, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        for command in ("predict", "track"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--config", str(path), "--out", str(tmp_path)])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert [line for line in err if "error" in line] == [err[-1]]
            assert err[-1].startswith("evflex: error: ") and named in err[-1]

    @pytest.mark.parametrize("cell", ["", "n/a"])
    def test_reference_with_missing_level(self, capsys, tmp_path, cell):
        config = small_config(n_ev=60, horizon_hours=1.0)
        (tmp_path / "run.json").write_text(json.dumps(asdict(config)))
        rows = [f"{k * config.dt_hours:.6g},{cell if k == 5 else 10.0}"
                for k in range(config.n_steps + 1)]
        (tmp_path / "ref.csv").write_text("time_h,reference_kw\n" + "\n".join(rows) + "\n")
        line = self.error_line(capsys, ["track", "--config", str(tmp_path / "run.json"),
                                        "--reference", str(tmp_path / "ref.csv"),
                                        "--out", str(tmp_path)])
        assert line.startswith("evflex: error: ") and "reference_kw" in line and "line 7" in line

    def test_missing_config_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        line = self.error_line(capsys, ["predict", "--config", missing,
                                        "--out", str(tmp_path)])
        assert line.startswith("evflex: error: ") and missing in line

    def test_sweep_rejects_empty_fleet(self, capsys, tmp_path):
        line = self.error_line(capsys, ["sweep", "--sizes", "0", "--out", str(tmp_path)])
        assert line.startswith("evflex sweep: error: argument --sizes")

    def test_errors_inside_a_run_propagate(self, monkeypatch, tmp_path):
        def fail(config):
            raise ValueError("inside the run")

        monkeypatch.setattr(cli, "run_prediction_experiment", fail)
        with pytest.raises(ValueError, match="inside the run"):
            main(["predict", "--n-ev", "5", "--out", str(tmp_path)])


class TestConfigIO:
    def test_json_roundtrip(self, tmp_path):
        config = small_config(reference=ReferenceConfig(
            period_hours=1.5, central_fraction=0.7,
            scripted=(ScriptedStep("consume", 2.0, 0.5, 0.8),)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(config)))
        loaded = load_config(path)
        assert loaded == config

    @pytest.mark.parametrize("name", [
        "configs/default.json", "configs/tracking_probes.json", "perfbench/track3k.json"])
    def test_shipped_configs_load(self, name):
        config = load_config(ROOT / name)
        assert (config == SimulationConfig()) == (name == "configs/default.json")

    def test_grid_constraints_validated(self):
        with pytest.raises(ValueError, match="divide"):
            SimulationConfig(dt_seconds=14.0)
        with pytest.raises(ValueError, match="divide"):
            SimulationConfig(resync_minutes=7.0)

    @pytest.mark.parametrize("d, key", [
        ({"n_evs": 5}, "n_evs"),
        ({"reference": {"period_hour": 9}}, "period_hour"),
        ({"reference": {"scripted": [{"kind": "provide", "start_h": 0.0,
                                      "duration_h": 1.0, "dept": 0.5}]}}, "dept"),
        ({"distributions": {"soc_mx": 0.9}}, "soc_mx"),
        ({"distributions": {"efficiency": {"kind": "uniform", "low": 0.9,
                                           "high": 0.95, "sd": 0.1}}}, "sd"),
    ])
    def test_unknown_keys_rejected(self, d, key):
        with pytest.raises(ValueError, match=f"unknown .* key.*'{key}'"):
            from_dict(SimulationConfig, d)

    @pytest.mark.parametrize("d, name", [
        ({"n_ev": 5.7}, "n_ev"),
        ({"transition_samples": "100"}, "transition_samples"),
        ({"horizon_hours": float("inf")}, "horizon_hours"),
        ({"measurement_noise_kw": [0.0, float("nan"), 0.0]}, "measurement_noise_kw"),
        ({"reference": {"scripted": [{"kind": "provide", "start_h": float("nan"),
                                      "duration_h": 1.0}]}}, "start_h"),
        ({"reference": {"period_hours": float("nan")}}, "period_hours"),
        ({"distributions": {"soc_max": float("nan")}}, "soc_max"),
        ({"distributions": {"capacity_kwh": {"kind": "uniform", "low": 20.0,
                                             "high": float("inf")}}}, "high"),
        ({"variants": []}, "variants"),
        ({"variants": ["essm", "essm"]}, "variants"),
        ({"measurement_noise_kw": [1.0, 2.0]}, "measurement_noise_kw"),
        ({"measurement_noise_kw": [1.0]}, "measurement_noise_kw"),
        # Outside the one-day schedule: a 48 h run has no vehicle connected
        # from about 40 h on, a session at [-3, 10) h would start at t = 0 at
        # its initial SOC, one at [47, 70) h would miss its connection over
        # [0, 22) h.
        ({"horizon_hours": 48.0}, "horizon_hours"),
        ({"distributions": {"plug_in_hour": {"kind": "uniform", "low": -3.0,
                                             "high": 10.0}}}, "plug_in_hour low"),
        ({"distributions": {"plug_out_hour": {"kind": "uniform", "low": 50.0,
                                              "high": 70.0}}}, "plug_out_hour high"),
    ])
    def test_bad_numbers_rejected(self, d, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            from_dict(SimulationConfig, d)

    def test_scripted_windows_may_touch_but_not_overlap(self):
        def config(*windows):
            scripted = tuple(ScriptedStep("provide", start, duration) for start, duration in windows)
            return SimulationConfig(reference=ReferenceConfig(scripted=scripted))

        config((0.0, 0.5), (0.5, 0.25), (0.75, 4.25))
        with pytest.raises(ValueError, match="overlap"):
            config((1.0, 2.0), (1.5, 0.25))  # nested
        # Checked on the 15 s step grid: a 5 s overlap rounds to touching
        # windows, a 10 s one to a shared step.
        config((1.0, 1.0), (2.0 - 5 / 3600, 1.0))
        with pytest.raises(ValueError, match="overlap"):
            config((1.0, 1.0), (2.0 - 10 / 3600, 1.0))

    def test_integral_float_count_accepted(self):
        config = from_dict(SimulationConfig, {"n_ev": 200.0, "seed": 3})
        assert config.n_ev == 200 and isinstance(config.n_ev, int)

    def test_distribution_spec_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec("uniform", 2.0, 1.0)
        with pytest.raises(ValueError):
            DistributionSpec("triangular", 0.0, 1.0)
