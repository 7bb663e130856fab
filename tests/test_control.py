from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

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
)
from evflex.control import (
    DispatchCommand,
    actuate_array,
    plan_dispatch,
    to_switching_probabilities,
)
from evflex.fleet import Connection

from conftest import interval_index, output

LAY = StateLayout(10, ESSM)
LAY_SSM = StateLayout(10, SSM)
ALL = np.ones(10, bool)
EPS = np.finfo(float).eps


def make_command(layout=LAY, provide=True, stop=0.0, start=0.0, stop_mask=ALL,
                 start_mask=ALL, boundary=False) -> DispatchCommand:
    """A command addressing every interval unless told otherwise."""
    return DispatchCommand(layout, provide, stop, start, stop_mask, start_mask, boundary)


def expand(command: DispatchCommand) -> SimpleNamespace:
    """The per-interval probability vectors a command stands for: each
    stage's rate on the intervals it addresses and zero elsewhere, the start
    rate on the boundary input it addresses (extended layout only), and zero
    for the other direction."""
    stop = command.stop_rate * command.stop_mask
    start = command.start_rate * command.start_mask
    edge = command.start_rate * command.boundary * (command.layout.variant == ESSM)
    zero = np.zeros(command.layout.n_intervals)
    if command.provide:
        return SimpleNamespace(layout=command.layout, stop_charging=stop, start_discharging=start,
                               stop_discharging=zero, start_charging=zero,
                               empty_to_charging=0.0, full_to_discharging=edge)
    return SimpleNamespace(layout=command.layout, stop_charging=zero, start_discharging=zero,
                           stop_discharging=stop, start_charging=start,
                           empty_to_charging=edge, full_to_discharging=0.0)


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
        new_mode = actuate_array(conn, soc, cmd, alpha)
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
    @given(seed=st.integers(0, 10_000), variant=st.sampled_from([SSM, ESSM]),
           target=st.floats(-5000.0, 5000.0).filter(lambda t: t != 0.0),
           holes=st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    @settings(max_examples=150, deadline=None)
    def test_command_rates_reproduce_expected_input(self, seed, variant, target, holes):
        # Each stage's rate times the mass its source holds now is the
        # plan's one-step expected input, element by element, and the command
        # addresses exactly the intervals that held source mass; stage 2's
        # source includes what stage 1 moved into idle.
        layout = StateLayout(10, variant)
        rng = np.random.default_rng(seed)
        x = rng.random(layout.dimension) * (rng.random(layout.dimension) >= holes)
        x[layout.idle.start + rng.integers(10)] += 0.01  # not all empty
        x /= x.sum()
        plan = plan_dispatch(target, state_from_x(x, layout, n_ev=500))
        cmd = to_switching_probabilities(plan)
        n = layout.n_intervals
        assert cmd.provide == (target > 0.0)
        assert cmd.stop_rate <= 1.0 and cmd.start_rate <= 1.0
        if cmd.provide:
            active, stage1, stage2, edge, edge_input = (
                layout.charging, slice(0, n), slice(n, 2 * n), layout.full_idle_index, 4 * n + 1)
        else:
            active, stage1, stage2, edge, edge_input = (
                layout.discharging, slice(2 * n, 3 * n), slice(3 * n, 4 * n),
                layout.empty_idle_index, 4 * n)
        np.testing.assert_array_equal(cmd.stop_mask, x[active] > 0.0)
        np.testing.assert_array_equal(cmd.start_mask, x[layout.idle] + plan.u[stage1] > 0.0)
        assert cmd.boundary == (edge is not None and x[edge] > 0.0)

        reached = np.zeros(layout.input_dimension)
        reached[stage1] = cmd.stop_rate * x[active]
        reached[stage2] = cmd.start_rate * x[layout.idle]
        if edge is not None:
            reached[edge_input] = cmd.start_rate * x[edge]
        np.testing.assert_allclose(reached, plan.expected_u, rtol=4 * EPS, atol=0.0)

    def test_full_interval_switch_probability_one(self):
        st_ = idle_state(0.1)
        plan = plan_dispatch(600.0, st_)
        cmd = to_switching_probabilities(plan)
        np.testing.assert_allclose(expand(cmd).start_discharging, 1.0)

    def test_zero_input_zero_probability(self):
        st_ = idle_state()
        cmd = to_switching_probabilities(plan_dispatch(0.0, st_))
        np.testing.assert_array_equal(expand(cmd).start_discharging, 0.0)

    def test_boundary_inputs_give_frozen_checked_command(self):
        x = np.zeros(LAY.dimension)
        x[LAY.empty_idle_index] = x[LAY.full_idle_index] = 0.5
        st_ = state_from_x(x)
        absorb = to_switching_probabilities(plan_dispatch(-0.125 * 600.0, st_))
        provide = to_switching_probabilities(plan_dispatch(0.5 * 600.0, st_))
        assert (expand(absorb).empty_to_charging, expand(provide).full_to_discharging) \
            == (0.25, 1.0)
        assert absorb.boundary and provide.boundary and not provide.start_mask.any()
        with pytest.raises(FrozenInstanceError):
            provide.start_rate = 0.0
        assert provide in {provide}  # hashable despite its array fields
        with pytest.raises(ValueError, match="lie in"):
            replace(absorb, start_rate=1.5)

    def test_overdraw_raises(self):
        st_ = idle_state()
        plan = replace(plan_dispatch(300.0, st_), start_rate=2.0)
        with pytest.raises(ValueError, match="admissibility"):
            to_switching_probabilities(plan)


def actuate(mode: Connection, soc: float, command: DispatchCommand,
            alpha: float) -> Connection:
    """actuate_array on a single connected vehicle."""
    out = actuate_array(np.array([mode], dtype=np.int8), np.array([soc]), command,
                        np.array([alpha]))
    return Connection(int(out[0]))


class TestActuation:
    def test_zero_probability_never_switches(self):
        cmd = make_command()
        assert actuate(Connection.IDLE, 0.5, cmd, alpha=0.0) == Connection.IDLE

    def test_unit_probability_always_switches(self):
        cmd = make_command(start=1.0)
        assert actuate(Connection.IDLE, 0.5, cmd, alpha=0.999999) == Connection.DISCHARGING

    def test_forced_charging_ignores_commands(self):
        cmd = make_command(stop=1.0)
        assert actuate(Connection.FORCED_CHARGING, 0.5, cmd, alpha=0.0) \
            == Connection.FORCED_CHARGING

    def test_refusal_at_soc_bounds_under_plain_layout(self):
        cmd = make_command(LAY_SSM, provide=False, start=1.0)
        assert actuate(Connection.IDLE, 1.0, cmd, alpha=0.0) == Connection.IDLE
        cmd2 = make_command(LAY_SSM, start=1.0)
        assert actuate(Connection.IDLE, 0.0, cmd2, alpha=0.0) == Connection.IDLE

    def test_extended_layout_boundary_inputs(self):
        none = np.zeros(10, bool)
        cmd = make_command(start=1.0, start_mask=none, boundary=True)
        assert actuate(Connection.IDLE, 1.0, cmd, alpha=0.5) == Connection.DISCHARGING
        cmd2 = make_command(provide=False, start=1.0, start_mask=none, boundary=True)
        assert actuate(Connection.IDLE, 0.0, cmd2, alpha=0.5) == Connection.CHARGING

    def test_plain_layout_rejects_boundary_flag(self):
        none = np.zeros(10, bool)
        with pytest.raises(ValueError, match="no boundary state"):
            DispatchCommand(LAY_SSM, True, 0.0, 1.0, none, none, True)

    def test_soc_bounds_come_from_the_layout(self):
        # On (0.1, 0.9) the extended layout bins an idle vehicle at 0.95 as
        # full and one at 0.05 as empty; actuation addresses those states.
        layout = StateLayout(10, ESSM, 0.1, 0.9)
        none = np.zeros(10, bool)
        provide = make_command(layout, start=1.0, start_mask=none, boundary=True)
        assert actuate(Connection.IDLE, 0.95, provide, alpha=0.5) == Connection.DISCHARGING
        assert actuate(Connection.IDLE, 0.05, provide, alpha=0.5) == Connection.IDLE
        absorb = make_command(layout, provide=False, start=1.0, start_mask=~none)
        assert actuate(Connection.IDLE, 0.95, absorb, alpha=0.5) == Connection.IDLE
        assert actuate(Connection.IDLE, 0.85, absorb, alpha=0.5) == Connection.CHARGING

    def test_boundary_vehicles_not_addressed_by_interval_modes(self):
        cmd = make_command(start=1.0)
        assert actuate(Connection.IDLE, 1.0, cmd, alpha=0.0) == Connection.IDLE

    def test_charging_stop_applies_per_interval(self):
        mask = np.zeros(10, bool)
        mask[3] = True
        cmd = make_command(stop=1.0, stop_mask=mask)
        assert actuate(Connection.CHARGING, 0.35, cmd, alpha=0.5) == Connection.IDLE
        assert actuate(Connection.CHARGING, 0.55, cmd, alpha=0.5) == Connection.CHARGING

    def test_switched_fraction_concentrates(self):
        m = 20_000
        rng = np.random.default_rng(7)
        alpha = rng.random(m)
        cmd = make_command(start=0.25)
        mode = np.full(m, Connection.IDLE, dtype=np.int8)
        soc = np.full(m, 0.45)
        new = actuate_array(mode, soc, cmd, alpha)
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
        new = actuate_array(mode, soc, cmd, alpha)
        realized_kw = 6.0 * (new == Connection.DISCHARGING).sum()
        p = cmd.start_rate
        sigma_kw = 6.0 * np.sqrt(m * p * (1 - p))
        assert abs(realized_kw - plan.achieved_delta_kw) <= 4.0 * sigma_kw


def full_mask_actuation(mode, soc, command, alpha, soc_min, soc_max):
    """The six-vector actuation rule, with every mask evaluated over every
    vehicle: `command` holds the per-interval probabilities of `expand`."""
    layout = command.layout
    new_mode = mode.copy()
    iv = interval_index(layout, soc)
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


def random_case(rng, m: int, variant: str, provide: bool, scale: float = 1.0, on=(True, True)):
    """Modes and SOCs of `m` vehicles (half at bounds and interval edges),
    and a command with random rates (scaled, each off unless `on`) whose
    interval masks have random holes, as has the boundary flag of the extended
    layout (the plain one has no boundary state to address)."""
    mode = rng.choice([Connection.CHARGING, Connection.IDLE, Connection.DISCHARGING,
                       Connection.FORCED_CHARGING], m).astype(np.int8)
    soc = rng.choice([0.0, 1.0, 0.1, 0.5], m)  # bounds and interval edges
    soc[m // 2:] = rng.random(m - m // 2)
    stop, start = rng.random(2) * scale * np.asarray(on)
    masks = rng.random((2, 10)) < 0.6
    cmd = DispatchCommand(StateLayout(10, variant), provide, float(stop), float(start),
                          masks[0], masks[1], bool(rng.random() < 0.6) and variant == ESSM)
    return mode, soc, cmd


def tie_draws(rng, alpha: np.ndarray, cmd: DispatchCommand) -> None:
    """Set the first third of the draws to one of the command's rates."""
    k = alpha.size // 3
    alpha[:k] = rng.choice([cmd.stop_rate, cmd.start_rate], k)


class TestActuationBlocks:
    @given(seed=st.integers(0, 10_000), variant=st.sampled_from([SSM, ESSM]),
           provide=st.booleans(), on=st.tuples(st.booleans(), st.booleans()))
    @settings(max_examples=120, deadline=None)
    def test_skipping_zero_blocks_matches_full_masks(self, seed, variant, provide, on):
        rng = np.random.default_rng(seed)
        mode, soc, cmd = random_case(rng, 60, variant, provide, on=on)
        alpha = rng.random(60)
        tie_draws(rng, alpha, cmd)
        np.testing.assert_array_equal(
            actuate_array(mode, soc, cmd, alpha),
            full_mask_actuation(mode, soc, expand(cmd), alpha, 0.0, 1.0))

    @given(seed=st.integers(0, 10_000), variant=st.sampled_from([SSM, ESSM]),
           provide=st.booleans(), scale=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_draws_below_threshold_match_full_addressed_set(self, seed, variant, provide, scale):
        # The fleet actuates only addressed vehicles drawing below the
        # command's threshold; every other addressed vehicle must keep its mode.
        rng = np.random.default_rng(seed)
        m = 80
        mode, soc, cmd = random_case(rng, m, variant, provide, scale)
        alpha = rng.random(m)
        tie_draws(rng, alpha, cmd)  # ties with a rate never switch

        def actuated(ids):
            new = mode.copy()
            new[ids] = actuate_array(mode[ids], soc[ids], cmd, alpha[ids])
            return new

        addressed = cmd.addressed.take(mode)
        below = actuated(np.flatnonzero(addressed & (alpha < cmd.threshold)))
        np.testing.assert_array_equal(below, actuated(np.flatnonzero(addressed)))
        np.testing.assert_array_equal(below, full_mask_actuation(mode, soc, expand(cmd), alpha,
                                                                 0.0, 1.0))
