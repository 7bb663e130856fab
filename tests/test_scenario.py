import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from evflex import cli, scenario
from evflex.aggregate import FlexibilityEnvelope
from evflex.cli import main
from evflex.config import (
    DistributionSpec,
    ReferenceConfig,
    ScriptedStep,
    SimulationConfig,
    from_dict,
    load_config,
    save_config,
)
from evflex.fleet import sample_fleet
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

from conftest import deterministic_distributions


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

    def test_tracking_follows_reference(self):
        config = small_config(n_ev=400, horizon_hours=6.0, seed=8,
                              reference=ReferenceConfig(period_hours=1.0,
                                                        central_fraction=0.5))
        res = run_tracking_experiment(config)
        rated = 400 * 6.0
        assert res.tracking_rms_kw("essm") <= 0.05 * rated


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

    def test_states_csv_dimensions(self, tmp_path):
        config = small_config(n_ev=60, horizon_hours=1.0)
        res = run_prediction_experiment(config)
        path = tmp_path / "states_essm.csv"
        write_states_csv(res, "essm", path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[0] == "time_h"
        assert len(lines[0].split(",")) == 1 + 33
        assert len(lines) == config.n_steps + 2

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
        save_config(config, tmp_path / "run.json")
        run = ["track", "--config", str(tmp_path / "run.json")]
        assert main(run + ["--out", str(tmp_path / "online")]) == 0
        reference = str(tmp_path / "online" / "tracking_essm.csv")
        assert main(run + ["--reference", reference, "--out", str(tmp_path / "replay")]) == 0
        # Same sample count, twice the step: refused instead of replayed.
        save_config(replace(config, dt_seconds=30.0, horizon_hours=2.0),
                    tmp_path / "coarse.json")
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
    ])
    def test_malformed_config_is_one_line(self, capsys, tmp_path, data, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--config", str(path), "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if "error" in line] == [err[-1]]
        assert err[-1].startswith("evflex: error: ") and named in err[-1]

    @pytest.mark.parametrize("cell", ["", "n/a"])
    def test_reference_with_missing_level(self, capsys, tmp_path, cell):
        config = small_config(n_ev=60, horizon_hours=1.0)
        save_config(config, tmp_path / "run.json")
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
        save_config(config, path)
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
    ])
    def test_bad_numbers_rejected(self, d, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            from_dict(SimulationConfig, d)

    def test_integral_float_count_accepted(self):
        config = from_dict(SimulationConfig, {"n_ev": 200.0, "seed": 3})
        assert config.n_ev == 200 and isinstance(config.n_ev, int)

    def test_distribution_spec_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec("uniform", 2.0, 1.0)
        with pytest.raises(ValueError):
            DistributionSpec("triangular", 0.0, 1.0)
