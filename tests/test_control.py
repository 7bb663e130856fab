from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex.aggregate import (
    ESSM,
    SSM,
    AggregateState,
    StateLayout,
    SystemMatrices,
    build_input_matrix,
    build_output_matrix,
    build_transition_matrix,
    output,
)
from evflex.control import (
    DispatchCommand,
    actuate_array,
    plan_dispatch,
    to_switching_probabilities,
)
from evflex.fleet import Connection

LAY = StateLayout(10, ESSM)
LAY_SSM = StateLayout(10, SSM)


def state_from_x(x, layout=LAY, n_ev=100, p_ac=6.0, p_ad=6.0):
    return AggregateState(layout, np.asarray(x, dtype=float), n_ev, p_ac, p_ad)


def mats_for(state):
    a = build_transition_matrix(state.layout, 0.0, 0.0)
    return SystemMatrices(a, build_input_matrix(state.layout), build_output_matrix(state))


def idle_state(mass_per_interval=0.1, layout=LAY, **kw):
    x = np.zeros(layout.dimension)
    x[layout.idle] = mass_per_interval
    return state_from_x(x, layout, **kw)


class TestPlanDispatch:
    def test_zero_target_null_plan(self):
        st_ = idle_state()
        plan = plan_dispatch(0.0, st_)
        np.testing.assert_array_equal(plan.u, 0.0)
        assert not plan.saturated
        assert plan.achieved_delta_kw == 0.0

    def test_idle_fleet_discharge_allocation(self):
        st_ = idle_state()
        plan = plan_dispatch(300.0, st_)
        n = LAY.n_intervals
        assert plan.u[n:2 * n].sum() == pytest.approx(0.5)
        assert plan.achieved_delta_kw == pytest.approx(300.0)
        assert not plan.saturated

    def test_fully_charged_fleet_cannot_absorb(self):
        x = np.zeros(LAY.dimension)
        x[LAY.full_idle_index] = 1.0
        st_ = state_from_x(x)
        plan = plan_dispatch(-300.0, st_)
        assert plan.saturated
        assert plan.achieved_delta_kw == 0.0
        # but it can still provide through its dedicated input
        plan_up = plan_dispatch(300.0, st_)
        assert not plan_up.saturated
        assert plan_up.u[4 * LAY.n_intervals + 1] == pytest.approx(0.5)

    def test_variant_failure_fully_charged_consumption(self):
        """The plain layout claims a consumption target on fully charged
        vehicles is feasible; actuating its command moves nothing."""
        soc = np.full(200, 1.0)
        conn = np.full(200, Connection.IDLE, dtype=np.int8)
        x_ssm = np.zeros(LAY_SSM.dimension)
        x_ssm[10 + 9] = 1.0  # where the plain layout files them
        st_ssm = state_from_x(x_ssm, LAY_SSM, n_ev=200)
        plan = plan_dispatch(-300.0, st_ssm)
        assert not plan.saturated  # claims feasibility
        cmd = to_switching_probabilities(plan)
        alpha = np.random.default_rng(0).random(200)
        new_mode = actuate_array(conn, soc, cmd, alpha, 0.0, 1.0)
        np.testing.assert_array_equal(new_mode, conn)  # nothing switched

        x_essm = np.zeros(LAY.dimension)
        x_essm[LAY.full_idle_index] = 1.0
        st_essm = state_from_x(x_essm, LAY, n_ev=200)
        plan_e = plan_dispatch(-300.0, st_essm)
        assert plan_e.saturated
        assert plan_e.achieved_delta_kw == 0.0

    def test_two_stage_swing_reaches_envelope_edge(self):
        x = np.zeros(LAY.dimension)
        x[LAY.charging] = 0.06
        x[LAY.idle] = 0.04
        st_ = state_from_x(x)
        env = output(st_, build_output_matrix(st_))
        edge = env.p_u_kw - env.p_ev_kw
        plan = plan_dispatch(edge + 5000.0, st_)
        assert plan.saturated
        assert plan.achieved_delta_kw == pytest.approx(edge, abs=1e-9 * 100 * 6.0)

    def test_stage_two_draws_on_stage_one_arrivals(self):
        x = np.zeros(LAY.dimension)
        x[LAY.charging] = 0.1
        st_ = state_from_x(x)
        # no idle mass at all: discharge capacity comes from stopped chargers
        plan = plan_dispatch(900.0, st_)
        n = LAY.n_intervals
        assert plan.u[:n].sum() == pytest.approx(1.0)  # all charging stopped
        assert plan.u[n:2 * n].sum() == pytest.approx(0.5)
        # one broadcast cannot reach mass that has not arrived yet
        assert plan.expected_u[n:2 * n].sum() == 0.0
        assert plan.achieved_delta_kw == pytest.approx(900.0)

    def test_expected_matches_plan_without_inflight(self):
        st_ = idle_state()
        plan = plan_dispatch(300.0, st_)
        np.testing.assert_array_equal(plan.expected_u, plan.u)

    def test_empty_state(self):
        st_ = AggregateState(LAY, np.zeros(LAY.dimension), 0, 0.0, 0.0)
        plan = plan_dispatch(100.0, st_)
        assert plan.achieved_delta_kw == 0.0

    @given(seed=st.integers(0, 10_000), target=st.floats(-5000.0, 5000.0))
    @settings(max_examples=120, deadline=None)
    def test_plans_admissible_and_envelope_consistent(self, seed, target):
        rng = np.random.default_rng(seed)
        x = rng.random(LAY.dimension)
        x /= x.sum()
        st_ = state_from_x(x, n_ev=500)
        mats = mats_for(st_)
        plan = plan_dispatch(target, st_)
        # updated state stays a distribution
        x1 = x + mats.B @ plan.u
        assert x1.min() >= -1e-12
        assert x1.sum() == pytest.approx(1.0, abs=1e-9)
        # allocation never exceeds the mass it was drawn against
        assert (plan.u <= plan.source_mass + 1e-12).all()
        assert (plan.expected_u <= plan.u + 1e-15).all()
        env = output(st_, mats.C)
        headroom = env.p_u_kw - env.p_ev_kw if target > 0 else env.p_ev_kw - env.p_l_kw
        tol = 1e-9 * 500 * 6.0
        if plan.saturated:
            assert abs(target) > headroom - tol
            assert abs(plan.achieved_delta_kw) == pytest.approx(headroom, abs=tol)
        else:
            assert plan.achieved_delta_kw == pytest.approx(target, abs=tol)


class TestSwitchingProbabilities:
    def test_probability_is_mass_ratio(self):
        st_ = idle_state(0.2)
        plan = plan_dispatch(0.0, st_)
        plan.u[10] = 0.1
        plan.source_mass[10] = 0.2
        cmd = to_switching_probabilities(plan)
        assert cmd.start_discharging[0] == pytest.approx(0.5)

    def test_full_interval_switch_probability_one(self):
        st_ = idle_state(0.1)
        plan = plan_dispatch(600.0, st_)
        cmd = to_switching_probabilities(plan)
        np.testing.assert_allclose(cmd.start_discharging, 1.0)

    def test_zero_input_zero_probability(self):
        st_ = idle_state()
        cmd = to_switching_probabilities(plan_dispatch(0.0, st_))
        np.testing.assert_array_equal(cmd.start_discharging, 0.0)

    def test_boundary_inputs_give_frozen_checked_command(self):
        x = np.zeros(LAY.dimension)
        x[LAY.empty_idle_index] = x[LAY.full_idle_index] = 0.5
        plan = plan_dispatch(0.0, state_from_x(x))
        n = LAY.n_intervals
        plan.u[4 * n:] = [0.125, 0.5]
        plan.source_mass[4 * n:] = 0.5
        cmd = to_switching_probabilities(plan)
        assert (cmd.empty_to_charging, cmd.full_to_discharging) == (0.25, 1.0)
        with pytest.raises(FrozenInstanceError):
            cmd.full_to_discharging = 0.0
        assert cmd in {cmd}  # hashable despite its array fields
        with pytest.raises(ValueError, match="lie in"):
            replace(cmd, empty_to_charging=1.5)

    def test_overdraw_raises(self):
        st_ = idle_state()
        plan = plan_dispatch(0.0, st_)
        plan.u[10] = 0.2
        plan.source_mass[10] = 0.1
        with pytest.raises(ValueError, match="admissibility"):
            to_switching_probabilities(plan)


def actuate(mode: Connection, soc: float, command: DispatchCommand,
            alpha: float) -> Connection:
    """actuate_array on a single connected vehicle."""
    out = actuate_array(np.array([mode], dtype=np.int8), np.array([soc]), command,
                        np.array([alpha]), 0.0, 1.0)
    return Connection(int(out[0]))


class TestActuation:
    def command_with(self, **kw):
        return replace(DispatchCommand.zero(LAY), **kw)

    def test_zero_probability_never_switches(self):
        cmd = self.command_with()
        assert actuate(Connection.IDLE, 0.5, cmd, alpha=0.0) == Connection.IDLE

    def test_unit_probability_always_switches(self):
        cmd = self.command_with(start_discharging=np.ones(10))
        assert actuate(Connection.IDLE, 0.5, cmd, alpha=0.999999) == Connection.DISCHARGING

    def test_stacked_idle_thresholds(self):
        cmd = self.command_with(start_discharging=np.full(10, 0.3),
                                start_charging=np.full(10, 0.3))
        assert actuate(Connection.IDLE, 0.5, cmd, alpha=0.2) == Connection.DISCHARGING
        assert actuate(Connection.IDLE, 0.5, cmd, alpha=0.4) == Connection.CHARGING
        assert actuate(Connection.IDLE, 0.5, cmd, alpha=0.7) == Connection.IDLE

    def test_forced_charging_ignores_commands(self):
        cmd = self.command_with(stop_charging=np.ones(10))
        assert actuate(Connection.FORCED_CHARGING, 0.5, cmd, alpha=0.0) \
            == Connection.FORCED_CHARGING

    def test_refusal_at_soc_bounds_under_plain_layout(self):
        cmd = replace(DispatchCommand.zero(LAY_SSM), start_charging=np.ones(10))
        assert actuate(Connection.IDLE, 1.0, cmd, alpha=0.0) == Connection.IDLE
        cmd2 = replace(DispatchCommand.zero(LAY_SSM), start_discharging=np.ones(10))
        assert actuate(Connection.IDLE, 0.0, cmd2, alpha=0.0) == Connection.IDLE

    def test_extended_layout_boundary_inputs(self):
        cmd = self.command_with(full_to_discharging=1.0, empty_to_charging=1.0)
        assert actuate(Connection.IDLE, 1.0, cmd, alpha=0.5) == Connection.DISCHARGING
        assert actuate(Connection.IDLE, 0.0, cmd, alpha=0.5) == Connection.CHARGING

    def test_boundary_vehicles_not_addressed_by_interval_modes(self):
        cmd = self.command_with(start_discharging=np.ones(10))
        assert actuate(Connection.IDLE, 1.0, cmd, alpha=0.0) == Connection.IDLE

    def test_charging_stop_applies_per_interval(self):
        probs = np.zeros(10)
        probs[3] = 1.0
        cmd = self.command_with(stop_charging=probs)
        assert actuate(Connection.CHARGING, 0.35, cmd, alpha=0.5) == Connection.IDLE
        assert actuate(Connection.CHARGING, 0.55, cmd, alpha=0.5) == Connection.CHARGING

    def test_switched_fraction_concentrates(self):
        m = 20_000
        rng = np.random.default_rng(7)
        alpha = rng.random(m)
        cmd = self.command_with(start_discharging=np.full(10, 0.25))
        mode = np.full(m, Connection.IDLE, dtype=np.int8)
        soc = np.full(m, 0.45)
        new = actuate_array(mode, soc, cmd, alpha, 0.0, 1.0)
        frac = (new == Connection.DISCHARGING).mean()
        assert abs(frac - 0.25) <= 4.0 * np.sqrt(0.25 * 0.75 / m)

    def test_realized_power_change_matches_plan(self):
        # One idle interval, no in-flight mass: the broadcast's realized power
        # change concentrates on the planned delta.
        m = 10_000
        soc = np.full(m, 0.45)
        mode = np.full(m, Connection.IDLE, dtype=np.int8)
        x = np.zeros(LAY.dimension)
        x[LAY.idle.start + 4] = 1.0
        st_ = state_from_x(x, n_ev=m)
        plan = plan_dispatch(18_000.0, st_)
        cmd = to_switching_probabilities(plan)
        alpha = np.random.default_rng(12).random(m)
        new = actuate_array(mode, soc, cmd, alpha, 0.0, 1.0)
        realized_kw = 6.0 * (new == Connection.DISCHARGING).sum()
        p = cmd.start_discharging[4]
        sigma_kw = 6.0 * np.sqrt(m * p * (1 - p))
        assert abs(realized_kw - plan.achieved_delta_kw) <= 4.0 * sigma_kw

    def test_validation_rejects_oversubscribed_idle(self):
        with pytest.raises(ValueError, match="outgoing"):
            self.command_with(start_discharging=np.full(10, 0.7),
                              start_charging=np.full(10, 0.7))


def full_mask_actuation(mode, soc, command, alpha, soc_min, soc_max):
    """The actuation rule with every mask evaluated over every vehicle,
    whatever the command addresses."""
    layout = command.layout
    new_mode = mode.copy()
    iv = layout.interval_index(soc)
    new_mode[(mode == Connection.CHARGING) & (alpha < command.stop_charging[iv])] = \
        Connection.IDLE
    new_mode[(mode == Connection.DISCHARGING) & (alpha < command.stop_discharging[iv])] = \
        Connection.IDLE
    idle = mode == Connection.IDLE
    at_max, at_min = soc >= soc_max, soc <= soc_min
    regular = idle
    if layout.variant == ESSM:
        regular = idle & ~at_max & ~at_min
        new_mode[idle & at_max & (alpha < command.full_to_discharging)] = Connection.DISCHARGING
        new_mode[idle & at_min & (alpha < command.empty_to_charging)] = Connection.CHARGING
    p_b, p_d = command.start_discharging[iv], command.start_charging[iv]
    new_mode[regular & (alpha < p_b) & ~at_min] = Connection.DISCHARGING
    new_mode[regular & ~(alpha < p_b) & (alpha < p_b + p_d) & ~at_max] = Connection.CHARGING
    return new_mode


class TestActuationBlocks:
    @given(seed=st.integers(0, 10_000), variant=st.sampled_from([SSM, ESSM]),
           blocks=st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_skipping_zero_blocks_matches_full_masks(self, seed, variant, blocks):
        rng = np.random.default_rng(seed)
        m = 60
        mode = rng.choice([Connection.CHARGING, Connection.IDLE, Connection.DISCHARGING,
                           Connection.FORCED_CHARGING], m).astype(np.int8)
        soc = rng.choice([0.0, 1.0, 0.1, 0.5], m)  # bounds and interval edges
        soc[m // 2:] = rng.random(m - m // 2)
        start = rng.random((2, 10)) * 0.5
        command = DispatchCommand(
            StateLayout(10, variant),
            stop_charging=rng.random(10) * blocks[0],
            start_discharging=start[0] * blocks[1],
            stop_discharging=rng.random(10) * blocks[2],
            start_charging=start[1] * blocks[3],
            empty_to_charging=float(rng.random()) * blocks[4],
            full_to_discharging=float(rng.random()) * blocks[5],
        )
        alpha = rng.random(m)
        np.testing.assert_array_equal(
            actuate_array(mode, soc, command, alpha, 0.0, 1.0),
            full_mask_actuation(mode, soc, command, alpha, 0.0, 1.0))

    @given(seed=st.integers(0, 10_000), variant=st.sampled_from([SSM, ESSM]),
           scale=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_draws_below_threshold_match_full_addressed_set(self, seed, variant, scale):
        # The fleet actuates only addressed vehicles drawing below the
        # command's threshold; every other addressed vehicle must keep its mode.
        rng = np.random.default_rng(seed)
        m = 80
        mode = rng.choice([Connection.CHARGING, Connection.IDLE, Connection.DISCHARGING,
                           Connection.FORCED_CHARGING], m).astype(np.int8)
        soc = rng.choice([0.0, 1.0, 0.1, 0.5], m)  # bounds and interval edges
        soc[m // 2:] = rng.random(m - m // 2)
        start = rng.random((2, 10)) * 0.5 * scale
        command = DispatchCommand(
            StateLayout(10, variant),
            stop_charging=rng.random(10) * scale,
            start_discharging=start[0],
            stop_discharging=rng.random(10) * scale,
            start_charging=start[1],
            empty_to_charging=float(rng.random()) * scale,
            full_to_discharging=float(rng.random()) * scale,
        )
        alpha = rng.random(m)
        alpha[:10] = command.threshold  # ties with the threshold never switch
        alpha[10:20] = np.concatenate([command.stop_charging, command.start_discharging])[
            rng.integers(0, 20, 10)]

        def actuated(ids):
            new = mode.copy()
            new[ids] = actuate_array(mode[ids], soc[ids], command, alpha[ids], 0.0, 1.0)
            return new

        addressed = command.addressed.take(mode)
        np.testing.assert_array_equal(
            actuated(np.flatnonzero(addressed & (alpha < command.threshold))),
            actuated(np.flatnonzero(addressed)))
