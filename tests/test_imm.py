import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex.aggregate import AggregateModel, StateLayout, build_transition_matrix
from evflex.fleet import Connection, Fleet, sample_fleet
from evflex.imm import imm_flexibility

from conftest import deterministic_distributions, make_snapshot

DT_15S = 15.0 / 3600.0


class TestImmPower:
    def test_uniform_charging_fleet(self):
        snap = make_snapshot([0.5] * 100, [Connection.CHARGING] * 100, pc=6.0)
        assert imm_flexibility(snap).p_ev_kw == pytest.approx(-600.0)

    def test_idle_fleet_zero(self):
        snap = make_snapshot([0.5] * 10, [Connection.IDLE] * 10)
        assert imm_flexibility(snap).p_ev_kw == 0.0

    def test_mixed_fleet_cancels(self):
        conn = [Connection.DISCHARGING] * 50 + [Connection.CHARGING] * 50
        snap = make_snapshot([0.5] * 100, conn, pc=6.0)
        assert imm_flexibility(snap).p_ev_kw == pytest.approx(0.0)

    def test_equals_running_power_sum(self, table_distributions):
        fleet = Fleet(sample_fleet(table_distributions, 300, seed=1), DT_15S, seed=1)
        fleet.step(None)
        power = fleet.envelopes[0].p_ev_kw
        assert power != 0.0
        assert imm_flexibility(fleet.snapshot()).p_ev_kw == pytest.approx(power, rel=1e-9)


class TestImmFlexibility:
    def test_fully_charged_idle_vehicle(self):
        snap = make_snapshot([1.0], [Connection.IDLE], pc=6.5)
        env = imm_flexibility(snap)
        assert (env.p_ev_kw, env.p_u_kw, env.p_l_kw) == (0.0, 6.5, 0.0)

    def test_forced_charging_vehicle(self):
        snap = make_snapshot([0.5], [Connection.FORCED_CHARGING], pc=6.5)
        env = imm_flexibility(snap)
        assert env.p_ev_kw == env.p_u_kw == env.p_l_kw == -6.5

    def test_fully_discharged_idle_vehicle(self):
        snap = make_snapshot([0.0], [Connection.IDLE], pc=6.5)
        env = imm_flexibility(snap)
        assert (env.p_ev_kw, env.p_u_kw, env.p_l_kw) == (0.0, 0.0, -6.5)

    def test_empty_snapshot(self):
        env = imm_flexibility(make_snapshot([], []))
        assert (env.p_ev_kw, env.p_u_kw, env.p_l_kw) == (0.0, 0.0, 0.0)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_envelope_brackets_power(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        soc = rng.random(n)
        conn = rng.choice([Connection.CHARGING, Connection.IDLE, Connection.DISCHARGING,
                           Connection.FORCED_CHARGING], n).astype(np.int8)
        # keep states physical: no charging at ceiling, no discharging at floor
        conn[(soc >= 1.0) & np.isin(conn, [Connection.CHARGING, Connection.FORCED_CHARGING])] \
            = Connection.IDLE
        conn[(soc <= 0.0) & (conn == Connection.DISCHARGING)] = Connection.IDLE
        snap = make_snapshot(soc, conn, pc=rng.uniform(5, 7, n))
        env = imm_flexibility(snap)
        assert env.p_l_kw <= env.p_ev_kw + 1e-9
        assert env.p_ev_kw <= env.p_u_kw + 1e-9


class TestModelConvergence:
    def test_fine_grid_matches_baseline_within_one_percent(self):
        """With enough intervals, an identical-parameter churn-free fleet's
        model envelope matches the per-vehicle baseline closely."""
        dists = deterministic_distributions(initial=0.5)
        params = sample_fleet(dists, 400, seed=3)
        fleet = Fleet(params, DT_15S, seed=3)
        fleet.set_state(np.arange(400), np.linspace(0.05, 0.85, 400), Connection.CHARGING)
        layout = StateLayout(100, "essm")
        rate = 6.0 * 0.9 / 24.0
        p_move = rate * DT_15S / layout.width
        model = AggregateModel(layout, build_transition_matrix(layout, p_move, p_move))
        model.resync(fleet.snapshot())
        for k in range(240):
            model.advance(fleet.step(None))
        true_env = imm_flexibility(fleet.snapshot())
        model_env = model.envelope()
        scale = 400 * 6.0
        assert abs(model_env.p_ev_kw - true_env.p_ev_kw) <= 0.01 * scale
        assert abs(model_env.p_u_kw - true_env.p_u_kw) <= 0.01 * scale
        assert abs(model_env.p_l_kw - true_env.p_l_kw) <= 0.01 * scale
