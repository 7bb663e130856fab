from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex.aggregate import (
    ESSM,
    SSM,
    AggregateModel,
    AggregateState,
    StateLayout,
    SystemMatrices,
    build_input_matrix,
    build_output_matrix,
    build_transition_matrix,
    compute_noise,
    discretize,
    estimate_transition_matrix,
    output,
    step,
)
from evflex.fleet import Connection, Fleet, sample_fleet

from conftest import deterministic_distributions, make_events, make_snapshot

DT_15S = 15.0 / 3600.0
LAY10 = StateLayout(10, ESSM)
LAY10_SSM = StateLayout(10, SSM)


def state_from_x(x, layout=LAY10, n_ev=100, p_ac=6.0, p_ad=6.0):
    x = np.asarray(x, dtype=float)
    return AggregateState(layout, x, n_ev, p_ac, p_ad)


def unit_state(index, layout=LAY10, **kw):
    x = np.zeros(layout.dimension)
    x[index] = 1.0
    return state_from_x(x, layout, **kw)


class TestLayout:
    def test_dimensions(self):
        assert LAY10.dimension == 33
        assert LAY10.input_dimension == 42
        assert LAY10_SSM.dimension == 31
        assert LAY10_SSM.input_dimension == 40

    def test_small_extended_input_matrix_shape(self):
        lay = StateLayout(2, ESSM)
        b = build_input_matrix(lay)
        assert b.shape == (9, 10)
        np.testing.assert_allclose(b.sum(axis=0), 0.0)

    def test_interval_index(self):
        assert LAY10.interval_index(0.05) == 0
        assert LAY10.interval_index(0.0) == 0
        assert LAY10.interval_index(1.0) == 9
        assert LAY10.interval_index(0.35) == 3

    def test_state_index_boundary_split(self):
        conn = np.full(3, Connection.IDLE, dtype=np.int8)
        soc = np.array([1.0, 0.0, 0.5])
        idx = LAY10.state_index(conn, soc)
        assert idx[0] == LAY10.full_idle_index
        assert idx[1] == LAY10.empty_idle_index
        assert idx[2] == 10 + 4
        idx_ssm = LAY10_SSM.state_index(conn, soc)
        assert idx_ssm[0] == 10 + 9  # folded into the top idle interval
        assert idx_ssm[1] == 10 + 0  # folded into the bottom idle interval

    def test_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            StateLayout(1, ESSM)
        with pytest.raises(ValueError):
            StateLayout(10, "other")


def branchy_state_index(layout, connection, soc):
    """The per-mode rule the state table replaced: each mode's block start
    plus the SOC interval (none for forced charging), and in the extended
    layout idle vehicles at a bound in that bound's state."""
    connection = np.asarray(connection, dtype=np.intp)
    soc = np.asarray(soc, dtype=float)
    if (connection == Connection.DISCONNECTED).any():
        raise ValueError("cannot discretize disconnected vehicles")
    first = np.array([0, layout.charging.start, layout.idle.start, layout.discharging.start,
                      layout.fcs_index])
    out = first[connection] + layout.interval_index(soc) * (
        connection != Connection.FORCED_CHARGING)
    if layout.variant == ESSM:
        idle = connection == Connection.IDLE
        out[idle & (soc >= layout.soc_max)] = layout.full_idle_index
        out[idle & (soc <= layout.soc_min)] = layout.empty_idle_index
    return out


class TestStateTable:
    @given(variant=st.sampled_from([SSM, ESSM]), n=st.integers(2, 12),
           bounds=st.sampled_from([(0.0, 1.0), (0.1, 0.9), (0.05, 0.95)]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_branchy_rule(self, variant, n, bounds, data):
        layout = StateLayout(n, variant, *bounds)
        lo, hi = bounds
        # The bounds, every interval edge and the floats either side of each.
        edges = [lo + k * layout.width for k in range(n + 1)] + [lo, hi]
        edges += [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        soc = st.one_of(st.sampled_from(edges), st.floats(lo - 0.05, hi + 0.05))
        socs = data.draw(st.lists(soc, min_size=1, max_size=40))
        modes = data.draw(st.lists(st.sampled_from([Connection.CHARGING, Connection.IDLE,
                                                    Connection.DISCHARGING,
                                                    Connection.FORCED_CHARGING]),
                                   min_size=len(socs), max_size=len(socs)))
        modes = np.array(modes, dtype=np.int8)
        np.testing.assert_array_equal(layout.state_index(modes, socs),
                                      branchy_state_index(layout, modes, socs))

    @pytest.mark.parametrize("layout", [LAY10, LAY10_SSM])
    def test_disconnected_rejected(self, layout):
        with pytest.raises(ValueError, match="disconnected"):
            layout.state_index(np.array([Connection.IDLE, Connection.DISCONNECTED]), [0.5, 0.5])


class TestDiscretize:
    def test_low_soc_charging_ev_lands_in_first_interval(self):
        snap = make_snapshot([0.05], [Connection.CHARGING])
        st_ = discretize(snap, LAY10)
        assert st_.x[0] == 1.0
        assert st_.x.sum() == 1.0

    def test_full_idle_variant_split(self):
        snap = make_snapshot([1.0], [Connection.IDLE])
        assert discretize(snap, LAY10).x[LAY10.full_idle_index] == 1.0
        assert discretize(snap, LAY10_SSM).x[10 + 9] == 1.0

    def test_all_forced_charging(self):
        snap = make_snapshot([0.5] * 100, [Connection.FORCED_CHARGING] * 100)
        st_ = discretize(snap, LAY10)
        assert st_.x[LAY10.fcs_index] == 1.0
        assert st_.x.sum() == 1.0

    def test_average_powers_over_active_sets(self):
        snap = make_snapshot([0.4, 0.6, 0.5], [Connection.CHARGING, Connection.DISCHARGING,
                                               Connection.IDLE], pc=[4.0, 8.0, 6.0])
        st_ = discretize(snap, LAY10)
        assert st_.p_ac_kw == 4.0
        assert st_.p_ad_kw == 8.0

    def test_average_power_fallback_when_sets_empty(self):
        snap = make_snapshot([0.5, 0.6], [Connection.IDLE, Connection.IDLE], pc=[4.0, 8.0])
        st_ = discretize(snap, LAY10)
        assert st_.p_ac_kw == 6.0
        assert st_.p_ad_kw == 6.0

    def test_empty_snapshot_flagged(self):
        snap = make_snapshot([], [])
        st_ = discretize(snap, LAY10)
        assert st_.empty
        assert st_.x.sum() == 0.0


class TestTransitionMatrix:
    def test_deterministic_up_probability(self):
        dists = deterministic_distributions(power=6.0, eff=0.9, capacity=24.0)
        a = estimate_transition_matrix(dists, LAY10, DT_15S, n_samples=200, seed=0)
        assert a[1, 0] == pytest.approx(0.009375, abs=1e-15)
        assert a[0, 0] == pytest.approx(1 - 0.009375, abs=1e-15)

    def test_idle_block_is_identity(self):
        dists = deterministic_distributions()
        a = estimate_transition_matrix(dists, LAY10, DT_15S, n_samples=100, seed=0)
        np.testing.assert_array_equal(a[LAY10.idle, LAY10.idle], np.eye(10))

    def test_column_stochastic(self, table_distributions):
        for variant in (ESSM, SSM):
            lay = StateLayout(10, variant)
            a = estimate_transition_matrix(table_distributions, lay, DT_15S,
                                           n_samples=5000, seed=2)
            np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-9)
            assert a.min() >= 0.0 and a.max() <= 1.0

    def test_boundary_routing_by_variant(self, table_distributions):
        a_e = estimate_transition_matrix(table_distributions, LAY10, DT_15S, 5000, 2)
        a_s = estimate_transition_matrix(table_distributions, LAY10_SSM, DT_15S, 5000, 2)
        # top charging interval spills into the fully-charged state / top idle
        assert a_e[LAY10.full_idle_index, 9] > 0.0
        assert a_s[10 + 9, 9] > 0.0
        # bottom discharging interval spills into fully-discharged / bottom idle
        assert a_e[LAY10.empty_idle_index, 20] > 0.0
        assert a_s[10 + 0, 20] > 0.0
        # boundary and forced states absorb
        for idx in (LAY10.empty_idle_index, LAY10.full_idle_index, LAY10.fcs_index):
            assert a_e[idx, idx] == 1.0

    def test_one_interval_per_step_guard(self, table_distributions):
        with pytest.raises(ValueError, match="interval width"):
            estimate_transition_matrix(table_distributions, LAY10, dt_hours=1.0,
                                       n_samples=100, seed=0)

    def test_seeded_estimation_deterministic(self, table_distributions):
        a = estimate_transition_matrix(table_distributions, LAY10, DT_15S, 2000, 9)
        b = estimate_transition_matrix(table_distributions, LAY10, DT_15S, 2000, 9)
        np.testing.assert_array_equal(a, b)


class TestInputMatrix:
    def test_first_mode_column_two_entries(self):
        b = build_input_matrix(LAY10)
        col = b[:, 0]
        assert col[0] == -1.0 and col[10] == 1.0
        assert np.count_nonzero(col) == 2

    def test_forced_charging_row_untouched(self):
        for lay in (LAY10, LAY10_SSM):
            b = build_input_matrix(lay)
            np.testing.assert_array_equal(b[lay.fcs_index], 0.0)

    def test_boundary_columns(self):
        b = build_input_matrix(LAY10)
        col_empty = b[:, 40]
        assert col_empty[0] == 1.0 and col_empty[LAY10.empty_idle_index] == -1.0
        col_full = b[:, 41]
        assert col_full[29] == 1.0 and col_full[LAY10.full_idle_index] == -1.0

    @given(n=st.integers(2, 25), variant=st.sampled_from([ESSM, SSM]))
    @settings(max_examples=30, deadline=None)
    def test_columns_conserve_population(self, n, variant):
        lay = StateLayout(n, variant)
        b = build_input_matrix(lay)
        np.testing.assert_allclose(b.sum(axis=0), 0.0)
        assert set(np.unique(b)).issubset({-1.0, 0.0, 1.0})


class TestOutputMatrix:
    def test_full_idle_column(self):
        c = build_output_matrix(state_from_x(np.zeros(33), n_ev=100, p_ac=5.0, p_ad=7.0))
        np.testing.assert_array_equal(c[:, LAY10.full_idle_index], [0.0, 700.0, 0.0])

    def test_empty_idle_column(self):
        c = build_output_matrix(state_from_x(np.zeros(33), n_ev=100, p_ac=5.0, p_ad=7.0))
        np.testing.assert_array_equal(c[:, LAY10.empty_idle_index], [0.0, 0.0, -500.0])

    def test_forced_charging_column(self):
        c = build_output_matrix(state_from_x(np.zeros(33), n_ev=100, p_ac=5.0, p_ad=7.0))
        np.testing.assert_array_equal(c[:, LAY10.fcs_index], [-500.0, -500.0, -500.0])

    def test_idle_only_envelope(self):
        x = np.zeros(33)
        x[LAY10.idle] = 0.1
        env = output(state_from_x(x))
        assert env.p_ev_kw == pytest.approx(0.0, abs=1e-9)
        assert env.p_u_kw == pytest.approx(600.0)
        assert env.p_l_kw == pytest.approx(-600.0)

    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            build_output_matrix(state_from_x(np.zeros(33), p_ac=-1.0))


class TestOutput:
    def test_charging_mass_pins_lower_bound(self):
        x = np.zeros(33)
        x[:10] = 0.1
        env = output(state_from_x(x))
        assert env.p_ev_kw == env.p_l_kw == pytest.approx(-600.0)

    def test_empty_idle_state_output(self):
        env = output(unit_state(LAY10.empty_idle_index))
        assert env.p_u_kw == 0.0
        assert env.p_l_kw == pytest.approx(-600.0)

    def test_empty_fleet_outputs_zero(self):
        st_ = AggregateState(LAY10, np.zeros(33), 0, 0.0, 0.0)
        env = output(st_)
        assert (env.p_ev_kw, env.p_u_kw, env.p_l_kw) == (0.0, 0.0, 0.0)

    def test_measurement_noise_applied(self):
        x = np.zeros(33)
        x[LAY10.idle] = 0.1
        rng = np.random.default_rng(0)
        env = output(state_from_x(x), noise_std_kw=[10.0, 10.0, 10.0], rng=rng)
        assert env.p_ev_kw != 0.0

    def test_boundary_saturation_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = np.zeros(33)
            x[:10] = rng.random(10)
            x[LAY10.full_idle_index] = rng.random()
            x[LAY10.fcs_index] = rng.random()
            x /= x.sum()
            env = output(state_from_x(x))
            assert env.p_l_kw == pytest.approx(env.p_ev_kw, rel=1e-9)
            y = np.zeros(33)
            y[20:30] = rng.random(10)
            y[LAY10.empty_idle_index] = rng.random()
            y[LAY10.fcs_index] = rng.random()
            y /= y.sum()
            env = output(state_from_x(y))
            assert env.p_u_kw == pytest.approx(env.p_ev_kw, rel=1e-9)

    def test_variant_lower_bound_difference(self):
        # A fully charged idle vehicle: flexibility-free in the extended
        # layout, credited with charging capacity in the plain one.
        snap = make_snapshot([1.0, 0.5], [Connection.IDLE, Connection.CHARGING])
        env_e = output(discretize(snap, LAY10))
        env_s = output(discretize(snap, LAY10_SSM))
        assert env_s.p_l_kw < env_e.p_l_kw
        assert env_s.p_ev_kw == pytest.approx(env_e.p_ev_kw)
        snap2 = make_snapshot([0.5, 0.6], [Connection.IDLE, Connection.CHARGING])
        env_e2 = output(discretize(snap2, LAY10))
        env_s2 = output(discretize(snap2, LAY10_SSM))
        assert env_s2.p_l_kw == pytest.approx(env_e2.p_l_kw)


def predict_step(state, mats, u=None, w=None):
    """One step of the recursion x' = A x + B u + w (see `aggregate.step`)."""
    return replace(state, x=step(mats.A @ state.x, mats.B, u, w))


class TestPredict:
    def mats(self, layout=LAY10, p_up=0.009375, p_down=0.011574):
        a = build_transition_matrix(layout, p_up, p_down)
        st_ = state_from_x(np.zeros(layout.dimension), layout)
        return SystemMatrices(a, build_input_matrix(layout), build_output_matrix(st_))

    def test_identity_recursion(self):
        mats = self.mats(p_up=0.0, p_down=0.0)
        st_ = unit_state(14)
        out = predict_step(st_, mats)
        np.testing.assert_array_equal(out.x, st_.x)

    def test_input_moves_mass_between_states(self):
        mats = self.mats(p_up=0.0, p_down=0.0)
        st_ = unit_state(14)  # idle interval 5
        u = np.zeros(42)
        u[10 + 4] = 0.25  # start-discharging input for interval 5
        out = predict_step(st_, mats, u=u)
        assert out.x[14] == pytest.approx(0.75)
        assert out.x[24] == pytest.approx(0.25)

    def test_population_conserved(self):
        mats = self.mats()
        rng = np.random.default_rng(1)
        x = rng.random(33)
        x /= x.sum()
        st_ = state_from_x(x)
        u = np.zeros(42)
        u[5] = x[5] * 0.5
        out = predict_step(st_, mats, u=u)
        assert out.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_inadmissible_input_raises(self):
        mats = self.mats(p_up=0.0, p_down=0.0)
        st_ = unit_state(14)
        u = np.zeros(42)
        u[10 + 4] = 0.5
        u[3 * 10 + 4] = 0.6  # start-charging pulls more idle mass than exists
        with pytest.raises(ValueError, match="negative"):
            predict_step(st_, mats, u=u)

    def test_churn_noise_clamped_and_renormalized(self):
        mats = self.mats(p_up=0.0, p_down=0.0)
        st_ = unit_state(14)
        w = np.zeros(33)
        w[14] = -0.2
        w[0] = 0.1
        out = predict_step(st_, mats, w=w)
        assert out.x.min() >= 0.0
        assert out.x.sum() == pytest.approx(1.0, abs=1e-9)


def noise_of(n_ev, in_soc, in_conn, out_soc, out_conn, layout):
    """compute_noise of plug events given as (SOC, mode) sequences."""
    keys = layout.keys(np.concatenate([in_conn, out_conn]), np.concatenate([in_soc, out_soc]))
    return compute_noise(n_ev, len(in_soc), keys, layout)


class TestComputeNoise:
    def test_no_churn_zero(self):
        w = noise_of(100, [], [], [], [], LAY10)
        np.testing.assert_array_equal(w, 0.0)

    def test_arrivals_fraction(self):
        soc_in = np.full(10, 0.05)
        conn_in = np.full(10, Connection.CHARGING, dtype=np.int8)
        w = noise_of(100, soc_in, conn_in, [], [], LAY10)
        assert w[0] == pytest.approx(10.0 / 110.0)
        assert np.count_nonzero(w) == 1

    def test_balanced_identical_flows_cancel(self):
        soc = np.full(5, 0.45)
        conn = np.full(5, Connection.CHARGING, dtype=np.int8)
        w = noise_of(100, soc, conn, soc, conn, LAY10)
        np.testing.assert_array_equal(w, 0.0)

    def test_emptied_fleet_raises(self):
        soc = np.full(3, 0.45)
        conn = np.full(3, Connection.CHARGING, dtype=np.int8)
        with pytest.raises(ValueError, match="emptied"):
            noise_of(3, [], [], soc, conn, LAY10)


class TestResyncAndModel:
    def test_resync_matches_discretize_exactly(self, table_distributions):
        fleet = Fleet(sample_fleet(table_distributions, 200, seed=5), DT_15S, seed=5)
        fleet.step(None)
        snap = fleet.snapshot()
        model = AggregateModel(LAY10, np.eye(33))
        model.resync(snap)
        np.testing.assert_array_equal(model.state.x, discretize(snap, LAY10).x)

    def test_model_resync_refreshes_forced_state(self):
        snap = make_snapshot([0.5] * 4, [Connection.FORCED_CHARGING] * 4)
        model = AggregateModel(LAY10, np.eye(33))
        model.resync(snap)
        assert model.state.x[LAY10.fcs_index] == 1.0

    def test_model_advance_tracks_churn_count(self):
        model = AggregateModel(LAY10, np.eye(33))
        model.resync(make_snapshot([0.5] * 10, [Connection.CHARGING] * 10))
        arrivals = (np.arange(2), np.full(2, 0.25), np.full(2, Connection.CHARGING, np.int8))
        model.advance(make_events(in_events=arrivals))
        assert model.state.n_ev_connected == 12
        assert model.state.x.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("variant", [SSM, ESSM])
    def test_cached_output_matrix_bitwise_fresh(self, table_distributions, variant):
        # Sessions of about [0.5, 4), [1, 5), [2, 6) h from yesterday and
        # [10, 14), [11, 16) h today, off the resync grid: the fleet empties
        # after 6 h and 16 h and refills after 10 h.
        dt, resync_steps = 60.0 / 3600.0, 5
        params = replace(sample_fleet(table_distributions, 5, seed=3),
                         plug_in_h=np.array([24.52, 25.07, 26.13, 10.02, 11.11]),
                         plug_out_h=np.array([28.03, 29.09, 30.06, 14.04, 16.07]))
        fleet = Fleet(params, dt, seed=3)
        model = AggregateModel.from_distributions(StateLayout(10, variant), table_distributions,
                                                  dt, n_samples=2000, seed=3)
        model.resync(fleet.snapshot())
        connected = []
        for k in range(1, round(24.0 / dt) + 1):
            model.advance(fleet.step(None))
            if k % resync_steps == 0:
                model.resync(fleet.snapshot())
            connected.append(model.state.n_ev_connected)
            assert model.mats.C.tobytes() == build_output_matrix(model.state).tobytes(), k
        changes = np.flatnonzero(np.diff(connected)) + 2  # steps at which the count changed
        assert (changes % resync_steps).any()
        assert connected[-1] == 0 and 0 in connected[:600] and max(connected[600:]) == 2

    def test_model_survives_fleet_emptying(self):
        model = AggregateModel(LAY10, np.eye(33))
        model.resync(make_snapshot([0.5, 0.6], [Connection.CHARGING] * 2))
        leaving = (np.arange(2), np.array([0.5, 0.6]),
                   np.full(2, Connection.CHARGING, np.int8))
        model.advance(make_events(out_events=leaving))
        assert model.state.empty
        env = model.envelope()
        assert env.p_ev_kw == 0.0

