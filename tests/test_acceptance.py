"""Acceptance suite: one test per criterion, each printing a pass line with
the measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.

Criteria:
  1. prediction-error table over fleet sizes (uncontrolled 24 h runs)
  2. boundary-saturation output identities on random states
  3. transition/input matrix invariants and population conservation
  4. churn-free oracle equivalence of the extended model vs the baseline
  5. closed-loop tracking accuracy plus plain-variant failure reproduction
  6. broadcast actuation statistics
  7. byte-identical outputs for identical config and seed
"""

import time

import numpy as np
import pytest

from evflex.aggregate import (
    ESSM,
    SSM,
    AggregateModel,
    AggregateState,
    StateLayout,
    build_input_matrix,
    discretize,
    estimate_transition_matrix,
)
from evflex.config import (
    DistributionSpec,
    FleetDistributions,
    ReferenceConfig,
    ScriptedStep,
    SimulationConfig,
)
from evflex.control import DispatchCommand, actuate_array
from evflex.fleet import Connection, Fleet, sample_fleet, step_stream
from evflex.imm import imm_flexibility
from evflex.scenario import (
    run_prediction_experiment,
    run_tracking_experiment,
    write_errors_csv,
    write_states_csv,
    write_timeseries_csv,
    write_tracking_csv,
)

from conftest import deterministic_distributions, output

DT_15S = 15.0 / 3600.0
LAY = StateLayout(10, ESSM)

# Tracking acceptance scenario: an early consumption request while most of
# the fleet sits fully charged, an overnight provision drain that strands a
# block of vehicles fully discharged, then a provision request on top of it.
TRACKING_CONFIG = SimulationConfig(
    n_ev=3000,
    seed=11,
    transition_samples=20_000,
    reference=ReferenceConfig(
        period_hours=1.5,
        central_fraction=0.6,
        scripted=(
            ScriptedStep("provide", 0.0, 0.5, depth=0.10),
            ScriptedStep("consume", 0.5, 0.25, depth=0.6),
            ScriptedStep("provide", 0.75, 4.25, depth=0.30),
            ScriptedStep("provide", 5.0, 0.25, depth=0.8),
        ),
    ),
)
DEFECT_WINDOWS = ((0.5, "consume"), (5.0, "provide"))


@pytest.fixture(scope="module")
def prediction_sweep():
    """Uncontrolled 24 h runs at the three reference fleet sizes."""
    rows = {}
    runtimes = {}
    for n_ev in (500, 5000, 10000):
        config = SimulationConfig(n_ev=n_ev, seed=7)
        start = time.perf_counter()
        result = run_prediction_experiment(config)
        runtimes[n_ev] = time.perf_counter() - start
        rows[n_ev] = {r["variant"]: r for r in result.prediction_errors()}
    return rows, runtimes


@pytest.fixture(scope="module")
def tracking_runs():
    return run_tracking_experiment(TRACKING_CONFIG)


def test_criterion_1_prediction_error_table(prediction_sweep):
    rows, runtimes = prediction_sweep
    for n_ev, by_variant in rows.items():
        essm, ssm = by_variant["essm"], by_variant["ssm"]
        assert essm["lower_err_pct"] <= 10.0
        assert essm["power_err_pct"] <= 10.0
        assert ssm["lower_err_pct"] >= 40.0
        assert essm["upper_err_pct"] <= 1.0
        assert ssm["upper_err_pct"] <= 1.0
    assert runtimes[10000] <= 60.0
    lines = [
        f"n_ev={n_ev}: essm lower/power/upper = "
        f"{v['essm']['lower_err_pct']:.3g}/{v['essm']['power_err_pct']:.3g}/"
        f"{v['essm']['upper_err_pct']:.3g}%, ssm lower = {v['ssm']['lower_err_pct']:.4g}%"
        for n_ev, v in rows.items()
    ]
    print("\nPASS criterion 1 (prediction errors, 24 h uncontrolled): "
          + "; ".join(lines) + f"; 10k-run wall time {runtimes[10000]:.1f}s <= 60s")


def test_criterion_2_boundary_saturation_identities():
    rng = np.random.default_rng(2024)
    n = LAY.n_intervals
    for _ in range(1000):
        x = np.zeros(LAY.dimension)
        x[:n] = rng.random(n) * rng.integers(0, 2)
        x[LAY.full_idle_index] = rng.random()
        x[LAY.fcs_index] = rng.random() * rng.integers(0, 2)
        x /= x.sum()
        state = AggregateState(LAY, x, 1000, rng.uniform(5, 7), rng.uniform(5, 7))
        env = output(state)
        assert env.p_l_kw == pytest.approx(env.p_ev_kw, rel=1e-9, abs=1e-9)

        y = np.zeros(LAY.dimension)
        y[2 * n:3 * n] = rng.random(n) * rng.integers(0, 2)
        y[LAY.empty_idle_index] = rng.random()
        y[LAY.fcs_index] = rng.random() * rng.integers(0, 2)
        y /= y.sum()
        state = AggregateState(LAY, y, 1000, rng.uniform(5, 7), rng.uniform(5, 7))
        env = output(state)
        assert env.p_u_kw == pytest.approx(env.p_ev_kw, rel=1e-9, abs=1e-9)
    print("\nPASS criterion 2 (boundary-saturation identities): 1000 random "
          "charge-side and discharge-side states, p_l==p_ev / p_u==p_ev to 1e-9")


def test_criterion_3_matrix_invariants():
    rng = np.random.default_rng(99)
    worst_col_sum = 0.0
    worst_conservation = 0.0
    for case in range(100):
        lo_p = rng.uniform(2.0, 8.0)
        lo_q = rng.uniform(15.0, 35.0)
        dists = FleetDistributions(
            rated_power_kw=DistributionSpec("uniform", lo_p, lo_p + rng.uniform(0.1, 2.0)),
            efficiency=DistributionSpec("uniform", 0.85, 0.95),
            capacity_kwh=DistributionSpec("uniform", lo_q, lo_q + rng.uniform(0.1, 5.0)),
        )
        variant = ESSM if case % 2 == 0 else SSM
        layout = StateLayout(int(rng.integers(4, 16)), variant)
        a = estimate_transition_matrix(dists, layout, DT_15S, n_samples=500,
                                       seed=int(rng.integers(1 << 30)))
        col_sums = a.sum(axis=0)
        worst_col_sum = max(worst_col_sum, np.abs(col_sums - 1.0).max())
        assert np.abs(col_sums - 1.0).max() <= 1e-9
        assert a.min() >= 0.0 and a.max() <= 1.0

        b = build_input_matrix(layout)
        np.testing.assert_allclose(b.sum(axis=0), 0.0)

        x = rng.random(layout.dimension)
        x /= x.sum()
        u = np.zeros(layout.input_dimension)
        for j in range(layout.input_dimension):
            source = int(np.argmin(b[:, j]))
            u[j] = 0.45 * rng.random() * x[source]
        drift = abs((a @ x + b @ u).sum() - x.sum())
        worst_conservation = max(worst_conservation, drift)
        assert drift <= 1e-9
    print("\nPASS criterion 3 (matrix invariants): 100 random configs, worst "
          f"column-sum deviation {worst_col_sum:.2e}, worst population drift "
          f"{worst_conservation:.2e} (tolerance 1e-9)")


def test_criterion_4_oracle_equivalence():
    # Identical parameters chosen so one interval is exactly 120 steps of
    # rated charging: power 6 kW, efficiency 0.9, capacity 27 kWh.
    m = 5000
    dists = deterministic_distributions(power=6.0, eff=0.9, capacity=27.0,
                                        initial=0.5, demanded=0.0,
                                        plug_in=24.0, plug_out=47.9)
    params = sample_fleet(dists, m, seed=1)
    delta_s = 6.0 * 0.9 / 27.0 * DT_15S
    width = LAY.width

    # (a) k-step open-loop prediction against the per-vehicle baseline.
    fleet = Fleet(params, DT_15S, seed=1)
    soc = (np.arange(m) + 0.5) / m
    fleet.set_state(np.arange(m), soc,
                    np.where(soc >= 1.0, Connection.IDLE, Connection.CHARGING))
    model = AggregateModel.from_distributions(LAY, dists, DT_15S, n_samples=100, seed=1)
    model.resync(fleet.snapshot())
    checkpoints = {30, 60, 90, 120, 240}
    scale = m * 6.0
    details = []
    for k in range(1, 241):
        model.advance(fleet.step(None))
        if k in checkpoints:
            err = abs(model.envelope().p_ev_kw - imm_flexibility(fleet.snapshot()).p_ev_kw)
            bound = scale * ((k * delta_s) % width + 0.01)
            assert err <= bound, f"k={k}: {err:.1f} kW > {bound:.1f} kW"
            details.append(f"k={k}: {err:.1f}<= {bound:.0f} kW")

    # (b) hard resyncs reproduce the discretized telemetry exactly.
    fleet = Fleet(sample_fleet(FleetDistributions(), 2000, seed=5), DT_15S, seed=5)
    model = AggregateModel.from_distributions(LAY, FleetDistributions(), DT_15S,
                                              n_samples=2000, seed=5)
    model.resync(fleet.snapshot())
    resync_steps = 20
    for k in range(1, 121):
        model.advance(fleet.step(None))
        if k % resync_steps == 0:
            snap = fleet.snapshot()
            model.resync(snap)
            expected = discretize(snap, LAY)
            assert np.array_equal(model.state.x, expected.x)
            assert model.state.n_ev_connected == expected.n_ev_connected
    print("\nPASS criterion 4 (oracle equivalence): open-loop error within "
          "N*P_ac*((k*dS mod width)+0.01) at " + ", ".join(details)
          + "; resync state equals discretized telemetry exactly at all 6 resyncs")


def test_criterion_5_control_tracking(tracking_runs):
    res = tracking_runs
    config = res.config
    dt = config.dt_hours
    rated = config.n_ev * 6.0  # mean rated power of the U(5,7) fleet
    rms = res.tracking_rms_kw("essm")
    assert rms <= 0.05 * rated

    ratios = []
    for start_h, kind in DEFECT_WINDOWS:
        k0 = round(start_h / dt)
        window = slice(k0 + 2, k0 + 8)
        errs = {}
        for name in ("ssm", "essm"):
            vs = res.variants[name]
            errs[name] = np.abs(vs.imm_p_kw[window] - res.reference_kw[window]).mean()
        ratio = errs["ssm"] / errs["essm"]
        assert ratio >= 5.0, f"{kind} window at {start_h} h: ratio {ratio:.1f} < 5"
        ratios.append(f"{kind}@{start_h}h: ssm {errs['ssm']:.0f} kW vs essm "
                      f"{errs['essm']:.0f} kW ({ratio:.0f}x)")
    print(f"\nPASS criterion 5 (control tracking): essm rms {rms:.0f} kW = "
          f"{100 * rms / rated:.2f}% of rated (<= 5%); defect windows " + "; ".join(ratios))


def test_criterion_6_actuation_statistics():
    m = 10_000
    lines = []
    for i, p in enumerate((0.1, 0.5, 0.9)):
        every = np.ones(LAY.n_intervals, bool)
        cmd = DispatchCommand(LAY, True, 0.0, p, every, every)
        alpha = step_stream(seed=404, step_index=i).random(m)
        mode = np.full(m, Connection.IDLE, dtype=np.int8)
        soc = np.full(m, 0.45)
        new = actuate_array(mode, soc, cmd, alpha)
        frac = float((new == Connection.DISCHARGING).mean())
        tol = 4.0 * np.sqrt(p * (1 - p) / m)
        assert abs(frac - p) <= tol
        lines.append(f"p={p}: {frac:.4f} (|err| {abs(frac - p):.4f} <= {tol:.4f})")
    print("\nPASS criterion 6 (actuation statistics): " + "; ".join(lines))


def test_criterion_7_determinism(tmp_path):
    predict_config = SimulationConfig(n_ev=200, horizon_hours=6.0, seed=33,
                                      transition_samples=2000)
    track_config = SimulationConfig(
        n_ev=150, horizon_hours=3.0, seed=33, transition_samples=2000,
        reference=ReferenceConfig(period_hours=1.0, central_fraction=0.6))
    outputs = []
    for run in range(2):
        base = tmp_path / f"run{run}"
        base.mkdir()
        pred = run_prediction_experiment(predict_config)
        write_timeseries_csv(pred, base / "timeseries.csv")
        write_errors_csv(pred.prediction_errors(), base / "errors.csv")
        for name in predict_config.variants:
            write_states_csv(pred, name, base / f"states_{name}.csv")
        track = run_tracking_experiment(track_config)
        write_timeseries_csv(track, base / "timeseries_track.csv")
        for name in track_config.variants:
            write_tracking_csv(track, name, base / f"tracking_{name}.csv")
        outputs.append(sorted(base.iterdir()))
    checked = 0
    for f0, f1 in zip(*outputs):
        assert f0.name == f1.name
        assert f0.read_bytes() == f1.read_bytes(), f"{f0.name} differs between runs"
        checked += 1
    print(f"\nPASS criterion 7 (determinism): {checked} output files byte-identical "
          "across two runs with the same config and seed")
