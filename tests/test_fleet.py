from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex.config import DistributionSpec, FleetDistributions
from evflex.control import DispatchCommand, actuate_array
from evflex.aggregate import ESSM, SSM, StateLayout, schedule_states
from evflex.fleet import (Connection, Fleet, FleetSnapshot, FleetStep, FlexibilityEnvelope,
                          Schedule, _deadline, _events, sample_fleet, step_stream)
from evflex.imm import imm_flexibility

from conftest import (DAY_5MIN, DT_5MIN, deterministic_distributions, edge_case_params,
                      edge_case_sessions, point, schedule_snapshot)

DT_15S = 15.0 / 3600.0


def one_vehicle(soc=None, mode=None, **dists) -> Fleet:
    """One connected vehicle: 6 kW, efficiency 0.9, 24 kWh (0.225 SOC/h of
    charging), optionally placed at `soc` in `mode`."""
    fleet = Fleet(sample_fleet(deterministic_distributions(**dists), 1, seed=1),
                  DT_15S, seed=1)
    if soc is not None:
        fleet.set_state([0], soc, mode)
    return fleet


def stepped(fleet: Fleet, command=None) -> FleetSnapshot:
    """Telemetry after one more step, uncontrolled by default."""
    fleet.step(command)
    return fleet.snapshot()


class TestSampling:
    def test_table_config_ranges(self, table_distributions):
        params = sample_fleet(table_distributions, 2000, seed=3)
        assert params.rated_charge_kw.min() >= 5.0
        assert params.rated_charge_kw.max() <= 7.0
        assert params.capacity_kwh.min() >= 20.0
        assert params.capacity_kwh.max() <= 30.0
        assert params.charge_eff.min() >= 0.88
        assert params.charge_eff.max() <= 0.95
        assert params.initial_soc.min() >= 0.2 and params.initial_soc.max() <= 0.4
        assert params.demanded_soc.min() >= 0.7 and params.demanded_soc.max() <= 0.9

    def test_charge_discharge_sampled_equal(self, table_distributions):
        params = sample_fleet(table_distributions, 100, seed=4)
        np.testing.assert_array_equal(params.rated_charge_kw, params.rated_discharge_kw)
        np.testing.assert_array_equal(params.charge_eff, params.discharge_eff)

    def test_degenerate_uniform_identical_fleet(self):
        params = sample_fleet(deterministic_distributions(power=6.0), 50, seed=1)
        assert (params.rated_charge_kw == 6.0).all()
        assert (params.capacity_kwh == 24.0).all()

    def test_seed_determinism_bitwise(self, table_distributions):
        a = sample_fleet(table_distributions, 500, seed=11)
        b = sample_fleet(table_distributions, 500, seed=11)
        np.testing.assert_array_equal(a.rated_charge_kw, b.rated_charge_kw)
        np.testing.assert_array_equal(a.plug_in_h, b.plug_in_h)
        np.testing.assert_array_equal(a.initial_soc, b.initial_soc)

    def test_session_windows_valid(self, table_distributions):
        params = sample_fleet(table_distributions, 2000, seed=5)
        assert (params.plug_out_h > params.plug_in_h).all()
        assert (params.plug_out_h < params.plug_in_h + 24.0).all()

    def test_infeasible_truncation_raises(self):
        spec = DistributionSpec("normal", 10.0, 11.0, mean=0.0, std=0.1)
        with pytest.raises(ValueError, match="budget"):
            spec.sample(np.random.default_rng(0), 5)

    def test_rejects_bad_fleet_size(self, table_distributions):
        with pytest.raises(ValueError):
            sample_fleet(table_distributions, 0, seed=1)


class TestStepSoc:
    def test_charging_quarter_minute(self):
        snap = stepped(one_vehicle(0.5, Connection.CHARGING))
        assert snap.soc[0] == pytest.approx(0.5009375, abs=1e-12)

    def test_idle_holds(self):
        snap = stepped(one_vehicle(0.5, Connection.IDLE))
        assert snap.soc[0] == 0.5

    def test_discharging_quarter_minute(self):
        snap = stepped(one_vehicle(0.5, Connection.DISCHARGING))
        assert snap.soc[0] == pytest.approx(0.49884259259259256, abs=1e-12)

    def test_forced_charging_same_as_charging(self):
        snap = stepped(one_vehicle(0.5, Connection.FORCED_CHARGING))
        assert snap.connection[0] == Connection.FORCED_CHARGING
        assert snap.soc[0] == pytest.approx(0.5009375, abs=1e-12)

    def test_clamps_at_bounds(self):
        assert stepped(one_vehicle(0.99999, Connection.CHARGING)).soc[0] == 1.0
        assert stepped(one_vehicle(0.0001, Connection.DISCHARGING)).soc[0] == 0.0

    def test_rejects_nonpositive_dt(self):
        params = sample_fleet(deterministic_distributions(), 1, seed=1)
        with pytest.raises(ValueError):
            Fleet(params, 0.0, seed=1)


class TestFcsRequired:
    """Forced-charging promotion on the first step of a session [0, plug_out)."""

    def promoted(self, soc, plug_out_h, demanded=0.8, **dists):
        fleet = one_vehicle(initial=soc, demanded=demanded, plug_in=24.0,
                            plug_out=24.0 + plug_out_h, **dists)
        return stepped(fleet).connection[0] == Connection.FORCED_CHARGING

    def test_deadline_already_met(self):
        assert not self.promoted(0.8, plug_out_h=10.0)

    def test_equality_point_enters(self):
        # 0.125 missing, and 0.5 h at 0.25 /h (6 kW, efficiency 1, 24 kWh)
        # supplies exactly 0.125: every number is a binary fraction, so the
        # rule compares two equal floats, and binds.
        assert self.promoted(0.625, plug_out_h=0.5, demanded=0.75, eff=1.0)

    def test_ample_slack_stays_out(self):
        assert not self.promoted(0.70, plug_out_h=10.0)


class TestFleetStep:
    def test_uncontrolled_charging_step(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(initial=0.5), 20, seed=1),
                      DT_15S, seed=1)
        assert (fleet.snapshot().connection == Connection.CHARGING).all()
        snap = stepped(fleet)
        assert snap.n_connected == 20
        np.testing.assert_allclose(snap.soc, 0.5009375, atol=1e-12)
        assert (snap.connection == Connection.CHARGING).all()
        assert imm_flexibility(snap).p_ev_kw == -6.0 * 20

    def test_session_starting_at_zero_is_not_carried_over(self):
        # Plug-in at 0.0 h opens today's session; only a vehicle whose session
        # from yesterday holds t = 0 is fast-forwarded, here by 4 h at 0.225/h.
        today = one_vehicle(initial=0.3, plug_in=0.0, plug_out=10.0).snapshot()
        np.testing.assert_array_equal(today.soc, 0.3)
        assert (today.connection == Connection.CHARGING).all()
        carried = one_vehicle(initial=0.05, plug_in=20.0, plug_out=30.0).snapshot()
        np.testing.assert_allclose(carried.soc, 0.05 + 4.0 * 0.225, rtol=1e-12)
        assert (carried.connection == Connection.CHARGING).all()

    def test_boundary_absorption_same_step(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 4, seed=1), DT_15S, seed=1)
        fleet.set_state(np.arange(4), 0.9999, Connection.CHARGING)
        snap = stepped(fleet)
        np.testing.assert_array_equal(snap.soc, 1.0)
        assert (snap.connection == Connection.IDLE).all()
        assert imm_flexibility(snap).p_ev_kw == 0.0

    def test_discharge_absorption_at_floor(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 4, seed=1), DT_15S, seed=1)
        fleet.set_state(np.arange(4), 0.0001, Connection.DISCHARGING)
        snap = stepped(fleet)
        np.testing.assert_array_equal(snap.soc, 0.0)
        assert (snap.connection == Connection.IDLE).all()

    def test_switch_and_absorption_in_one_step(self):
        # Idle less than one step's discharge above the floor and told to
        # discharge: the vehicle starts and reaches the floor in that step.
        fleet = one_vehicle(0.001, Connection.IDLE)
        fleet.step(None)
        every = np.ones(10, bool)
        snap = stepped(fleet, DispatchCommand(StateLayout(10, "essm"), True, 0.0, 1.0, every,
                                              every))
        assert snap.connection[0] == Connection.IDLE and snap.soc[0] == 0.0

    def test_fcs_promotion_from_discharging(self):
        # Session [0, 1.0): 0.225 SOC/h of charging cannot close a 0.3 gap.
        dists = deterministic_distributions(initial=0.5, demanded=0.8,
                                            plug_in=24.0, plug_out=25.0)
        fleet = Fleet(sample_fleet(dists, 3, seed=1), DT_15S, seed=1)
        fleet.set_state(np.arange(3), 0.5, Connection.DISCHARGING)
        snap = stepped(fleet)
        assert (snap.connection == Connection.FORCED_CHARGING).all()
        assert imm_flexibility(snap).p_ev_kw == -6.0 * 3
        assert (snap.soc > 0.5).all()

    def test_forced_charging_sticky_until_full(self):
        dists = deterministic_distributions(initial=0.5, demanded=0.8,
                                            plug_in=24.0, plug_out=25.0)
        fleet = Fleet(sample_fleet(dists, 1, seed=1), DT_15S, seed=1)
        fleet.step(None)
        snap = stepped(fleet)
        assert (snap.connection == Connection.FORCED_CHARGING).all()

    def test_floor_absorbed_vehicle_promoted_on_its_binding_step(self):
        # Discharged to the floor and absorbed idle below its demand, in a
        # session [0, 2) h with no other event: promoted at the first step
        # whose rule binds, found here from the step loop's own floats.
        fleet = one_vehicle(0.0001, Connection.DISCHARGING, demanded=0.3, plug_out=26.0)
        snap = stepped(fleet)
        assert snap.connection[0] == Connection.IDLE and snap.soc[0] == 0.0
        params, deadline = fleet.params, fleet.params.plug_out_h[0] - 24.0
        k0 = np.arange(1, 480)
        binding = (params.demanded_soc[0] - params.soc_min
                   >= (deadline - k0 * fleet.dt_hours) * params.charge_rate_per_h[0])
        first = int(k0[binding.argmax()])  # the step starting there promotes it
        assert binding.any() and first > 1
        for _ in range(first - 1):
            fleet.step()
        assert fleet.step_index == first and fleet.snapshot().connection[0] == Connection.IDLE
        assert stepped(fleet).connection[0] == Connection.FORCED_CHARGING

    def test_departed_vehicle_stays_disconnected(self):
        # Discharging above its demand when it leaves at 2 h: its SOC law
        # would fall below the demand later, but no check may reconnect it.
        fleet = one_vehicle(initial=0.9, demanded=0.5, plug_in=1.0, plug_out=2.0)
        for _ in range(250):
            fleet.step()
        fleet.set_state([0], 0.9, Connection.DISCHARGING)
        connected = [stepped(fleet).n_connected for _ in range(470)]
        assert connected[:200] == [1] * 200 and connected[-200:] == [0] * 200

    def test_demanded_soc_met_at_plugout(self, table_distributions):
        params = sample_fleet(table_distributions, 300, seed=9)
        fleet = Fleet(params, DT_15S, seed=9)
        eps = (params.charge_rate_per_h * DT_15S).max() + 1e-12
        checked = 0
        for _ in range(24 * 240):
            snap = fleet.step(None)
            for i, ev in enumerate(snap.out_ids):
                window = params.plug_out_h[ev] - params.plug_in_h[ev]
                feasible = (params.initial_soc[ev]
                            + window * params.charge_rate_per_h[ev]
                            >= params.demanded_soc[ev])
                if feasible:
                    assert snap.out_soc[i] >= params.demanded_soc[ev] - eps
                    checked += 1
        assert checked > 100

    def test_soc_bounds_and_mode_invariants(self, table_distributions):
        fleet = Fleet(sample_fleet(table_distributions, 200, seed=2), DT_15S, seed=2)
        for _ in range(400):
            snap = stepped(fleet)
            assert (snap.soc >= 0.0).all() and (snap.soc <= 1.0).all()
            charging = np.isin(snap.connection,
                               [Connection.CHARGING, Connection.FORCED_CHARGING])
            assert (snap.soc[charging] < 1.0).all()
            discharging = snap.connection == Connection.DISCHARGING
            assert (snap.soc[discharging] > 0.0).all()

    def test_plug_events_disjoint_and_carry_state(self, table_distributions):
        params = sample_fleet(table_distributions, 400, seed=8)
        fleet = Fleet(params, 0.25, seed=8)  # coarse steps to bunch events
        seen_in = 0
        for _ in range(96):
            step = fleet.step(None)
            snap = fleet.snapshot()
            assert not np.isin(snap.ids, np.array([-1])).any()
            assert snap.connection.min() > Connection.DISCONNECTED
            assert not np.intersect1d(step.in_ids, step.out_ids).size
            if step.n_in:
                np.testing.assert_array_equal(step.in_connection, Connection.CHARGING)
                np.testing.assert_array_equal(step.in_soc, params.initial_soc[step.in_ids])
                seen_in += step.n_in
        assert seen_in > 50

    def test_trajectory_determinism_bitwise(self, table_distributions):
        runs = []
        for _ in range(2):
            fleet = Fleet(sample_fleet(table_distributions, 150, seed=13), DT_15S, seed=13)
            for _ in range(240):
                fleet.step(None)
            snap = fleet.snapshot()
            runs.append((snap.soc, snap.connection))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_yesterday_plug_out_on_the_grid(self):
        # Yesterday's session [-2, 8) h ends on a point of the 0.25 h grid:
        # the vehicle leaves at that step. Windows are half-open, so at 8 h
        # the session that holds it is today's [22, 32) h. No check reads
        # the deadline there, as the vehicle is gone, so the rule is pinned
        # directly.
        dists = deterministic_distributions(initial=0.1, demanded=0.9, plug_in=22.0,
                                            plug_out=32.0)
        fleet = Fleet(sample_fleet(dists, 1, seed=1), 0.25, seed=1)
        assert [k + 1 for k in range(40) if fleet.step().n_out] == [32]
        np.testing.assert_array_equal(
            _deadline(np.array([7.75, 8.0]), fleet._m_end[0], fleet._plug_out[0]), [8.0, 32.0])

    def test_malformed_command_rejected(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 5, seed=1), DT_15S, seed=1)
        every = np.ones(10, bool)
        with pytest.raises(ValueError, match="probabilities"):
            fleet.step(DispatchCommand(StateLayout(10, "essm"), False, 0.0, 1.5, every, every))

    def test_command_layout_must_span_the_fleet_soc_range(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 5, seed=1), DT_15S, seed=1)
        every = np.ones(10, bool)
        with pytest.raises(ValueError, match="SOC range"):
            fleet.step(DispatchCommand(StateLayout(10, "essm", 0.1, 0.9), True, 0.0, 0.5, every,
                                       every))


class StepwiseOracle:
    """The stepwise kernel the event-driven one replaced: each step reads
    its plug events from the fleet's buckets, then promotes, actuates,
    integrates SOC and absorbs over every connected vehicle."""

    def __init__(self, fleet: Fleet):
        self.params, self.dt_hours, self.seed = fleet.params, fleet.dt_hours, fleet.seed
        self.step_index = 0
        self._arrivals, self._departures = fleet._arrivals, fleet._departures
        self._m_end = fleet._m_end
        self._rate_c = self.params.charge_rate_per_h
        self._dsoc_c = self._rate_c * self.dt_hours
        self._dsoc_d = self.params.discharge_rate_per_h * self.dt_hours
        snap = fleet.snapshot()
        self.soc = np.zeros(self.params.n_ev)
        self.mode = np.full(self.params.n_ev, Connection.DISCONNECTED, dtype=np.int8)
        self.soc[snap.ids], self.mode[snap.ids] = snap.soc, snap.connection
        self.connected = self.mode != Connection.DISCONNECTED

    def _deadline(self, idx, t):
        m_end = self._m_end[idx]
        return np.where(t < m_end, m_end, self.params.plug_out_h[idx])

    def step(self, command=None) -> SimpleNamespace:
        """One step; returns the connected ids and the plug events, with the
        SOC and mode at each event."""
        params = self.params
        t0 = self.step_index * self.dt_hours
        j = self.step_index + 1
        t1 = j * self.dt_hours

        arrivals = _events(self._arrivals, j)
        departures = _events(self._departures, j)
        out_soc, out_mode = self.soc[departures], self.mode[departures]
        self.soc[arrivals] = params.initial_soc[arrivals]
        self.mode[arrivals] = Connection.CHARGING
        self.mode[departures] = Connection.DISCONNECTED
        self.connected[arrivals] = True
        self.connected[departures] = False

        idx = np.flatnonzero(self.connected)
        soc = self.soc[idx]
        mode = self.mode[idx]
        binding = (mode != Connection.FORCED_CHARGING) & (
            params.demanded_soc[idx] - soc >= (self._deadline(idx, t1) - t0) * self._rate_c[idx])
        mode[binding] = Connection.FORCED_CHARGING
        if command is not None:
            alpha = step_stream(self.seed, self.step_index).random(params.n_ev)
            mode = actuate_array(mode, soc, command, alpha[idx])
        charging = (mode == Connection.CHARGING) | (mode == Connection.FORCED_CHARGING)
        discharging = mode == Connection.DISCHARGING
        soc += self._dsoc_c[idx] * charging
        soc -= self._dsoc_d[idx] * discharging
        full = charging & (soc >= params.soc_max)
        empty = discharging & (soc <= params.soc_min)
        soc[full] = params.soc_max
        soc[empty] = params.soc_min
        mode[full | empty] = Connection.IDLE
        self.soc[idx] = soc
        self.mode[idx] = mode
        self.step_index = j
        return SimpleNamespace(ids=idx, in_ids=arrivals, in_soc=params.initial_soc[arrivals],
                               out_ids=departures, out_soc=out_soc, out_connection=out_mode)


class WindowOracle:
    """The full-length kernel the plug-event buckets replaced: both
    connection windows of every vehicle are tested again at every step, and
    every update runs over the whole fleet."""

    def __init__(self, fleet: StepwiseOracle):
        self.p, self.dt, self.seed = fleet.params, fleet.dt_hours, fleet.seed
        self.m_start = self.p.plug_in_h - 24.0
        self.m_end = self.p.plug_out_h - 24.0
        self.soc, self.mode = fleet.soc.copy(), fleet.mode.copy()
        self.connected = self.connected_at(0.0)
        self.k = 0

    def connected_at(self, t):
        p = self.p
        return ((self.m_start <= t) & (t < self.m_end)) | \
               ((p.plug_in_h <= t) & (t < p.plug_out_h))

    def session_end(self, t):
        return np.where(t < self.m_end, self.m_end, self.p.plug_out_h)

    def step(self, command):
        """One step; returns the arrival ids, the departure ids and the
        deadlines of the connected vehicles."""
        p = self.p
        t0, t1 = self.k * self.dt, (self.k + 1) * self.dt
        now = self.connected_at(t1)
        arrivals, departures = now & ~self.connected, self.connected & ~now
        self.soc[arrivals] = p.initial_soc[arrivals]
        self.mode[arrivals] = Connection.CHARGING
        self.mode[departures] = Connection.DISCONNECTED
        self.connected = now
        deadline = self.session_end(t1)
        binding = now & (self.mode != Connection.FORCED_CHARGING) & (
            p.demanded_soc - self.soc >= (deadline - t0) * p.charge_rate_per_h)
        self.mode[binding] = Connection.FORCED_CHARGING
        if command is not None:
            alpha = step_stream(self.seed, self.k).random(p.n_ev)
            self.mode = actuate_array(self.mode, self.soc, command, alpha)
        charging = now & np.isin(self.mode, [Connection.CHARGING, Connection.FORCED_CHARGING])
        discharging = now & (self.mode == Connection.DISCHARGING)
        self.soc[charging] += p.charge_rate_per_h[charging] * self.dt
        self.soc[discharging] -= p.discharge_rate_per_h[discharging] * self.dt
        full = charging & (self.soc >= p.soc_max)
        empty = discharging & (self.soc <= p.soc_min)
        self.soc[full] = p.soc_max
        self.soc[empty] = p.soc_min
        self.mode[full | empty] = Connection.IDLE
        self.k += 1
        return np.flatnonzero(arrivals), np.flatnonzero(departures), deadline[now]


class TestEventKernel:
    """The bucketed stepwise kernel against the full-length oracle, bitwise,
    at every step: connection mask, plug events, deadlines, SOC and modes."""

    @pytest.mark.parametrize("dt, n_steps", [(0.25, 240), (60.0 / 3600.0, 24 * 60)])
    def test_matches_full_length_oracle(self, table_distributions, dt, n_steps):
        sessions = edge_case_sessions(dt)
        params = sample_fleet(table_distributions, 200, seed=21)
        params.plug_in_h[:len(sessions)], params.plug_out_h[:len(sessions)] = zip(*sessions)
        params.demanded_soc[:len(sessions)] = 0.9  # deadlines bind early
        fleet = StepwiseOracle(Fleet(params, dt, seed=21))
        oracle = WindowOracle(fleet)
        np.testing.assert_array_equal(fleet.connected, oracle.connected)
        # Directions alternate over the controlled (odd) steps.
        commands = random_commands("essm", n_steps, seed=5, fleet=fleet, hold=2)
        events = 0
        for k, command in enumerate(commands):
            cmd = command if k % 2 else None
            in_ids, out_ids, deadline = oracle.step(cmd)
            snap = fleet.step(cmd)
            t1 = (k + 1) * dt
            np.testing.assert_array_equal(fleet.connected, oracle.connected)
            np.testing.assert_array_equal(snap.in_ids, in_ids)
            np.testing.assert_array_equal(snap.out_ids, out_ids)
            np.testing.assert_array_equal(fleet._deadline(snap.ids, t1), deadline)
            np.testing.assert_array_equal(fleet.soc, oracle.soc)
            np.testing.assert_array_equal(fleet.mode, oracle.mode)
            events += in_ids.size + out_ids.size
        assert events > 200


def sampled_edge_fleet(distributions, seed: int) -> Fleet:
    """`edge_case_params` as a fleet with 5 min steps."""
    return Fleet(edge_case_params(distributions, seed), DT_5MIN, seed=seed)


def random_commands(variant, n_steps: int, seed: int, fleet, hold: int = DAY_5MIN // 6,
                    ties: bool = True):
    """A command per step of `fleet` (None when uncontrolled). The direction
    holds for `hold` steps at a time (four hours at 5 min steps), so vehicles
    reach both SOC bounds. Each rate is switched off at random, and each
    interval and the boundary input (extended layout only) are left out at random. A rate that is
    on lies below 0.4 and, with `ties`, equals one of the step's draws, so a
    vehicle's draw ties with it."""
    if variant is None:
        yield from [None] * n_steps
        return
    layout = StateLayout(10, variant)
    rng = np.random.default_rng(seed)
    for k in range(n_steps):
        if ties:
            alpha = step_stream(fleet.seed, k).random(fleet.params.n_ev)
            low = alpha[alpha < 0.4]
            stop, start = low[rng.integers(low.size, size=2)] * (rng.random(2) < 0.7)
        else:
            stop, start = 0.4 * rng.random(2) * (rng.random(2) < 0.7)
        masks = rng.random((2, 10)) < 0.8
        provide = k // hold % 2 == 0  # else absorb
        yield DispatchCommand(layout, provide, float(stop), float(start), masks[0], masks[1],
                              bool(rng.random() < 0.7) and variant == "essm")


def float_edge(oracle: StepwiseOracle, soc: np.ndarray, ids: np.ndarray, k: int) -> bool:
    """Whether the pre-step SOC of every vehicle of `ids` lies within 1e-9
    of a threshold the step compares it against (absorption, the
    forced-charging deadline, an interval edge), so that SOC differences of
    float rounding can flip the decision."""
    p, dt = oracle.params, oracle.dt_hours
    soc = soc[ids]
    width = (p.soc_max - p.soc_min) / 10
    steps = (soc - p.soc_min) / width
    margins = np.stack([
        np.abs(soc + oracle._dsoc_c[ids] - p.soc_max),
        np.abs(soc - oracle._dsoc_d[ids] - p.soc_min),
        np.abs(p.demanded_soc[ids] - soc
               - (oracle._deadline(ids, (k + 1) * dt) - k * dt) * oracle._rate_c[ids]),
        np.abs(steps - np.round(steps)) * width,
    ])
    return bool((margins.min(axis=0) < 1e-9).all())


def matches_stepwise_oracle(fleet: Fleet, commands) -> list:
    """Step `fleet` and the stepwise oracle under `commands` and compare them
    at every step: plug events and their SOC and modes, the connected set,
    and SOC; modes may differ only at a float edge, where the oracle takes
    the fleet's state. Returns the float-edge steps."""
    oracle = StepwiseOracle(fleet)
    edges = []
    for k, command in enumerate(commands):
        soc_before = oracle.soc.copy()
        ref = oracle.step(command)
        step = fleet.step(command)
        snap = fleet.snapshot()
        assert np.array_equal(step.in_ids, ref.in_ids), k
        assert np.array_equal(step.in_soc, ref.in_soc), k
        assert np.array_equal(step.out_ids, ref.out_ids), k
        assert np.abs(step.out_soc - ref.out_soc).max(initial=0.0) <= 1e-12, k
        assert np.array_equal(step.out_connection, ref.out_connection), k
        assert np.array_equal(snap.ids, ref.ids), k
        differ = snap.ids[snap.connection != oracle.mode[snap.ids]]
        if differ.size:
            assert float_edge(oracle, soc_before, differ, k), (
                f"step {k}: modes of vehicles {differ.tolist()} differ off any float edge")
            edges.append((k, differ.tolist()))
            agree = snap.connection == oracle.mode[snap.ids]
            np.testing.assert_allclose(snap.soc[agree], oracle.soc[snap.ids][agree],
                                       rtol=0, atol=1e-12)
            oracle.soc[snap.ids], oracle.mode[snap.ids] = snap.soc, snap.connection
        assert np.abs(snap.soc - oracle.soc[snap.ids]).max(initial=0.0) <= 1e-12, k
    return edges


class TestEventDrivenKernel:
    """The event-driven kernel against the stepwise oracle and its running
    sums against the exact per-vehicle sum, on sampled fleets with the
    plug-event edge cases, uncontrolled and under random commands in both
    layouts."""

    @pytest.mark.parametrize("variant", [None, "ssm", "essm"])
    def test_matches_stepwise_oracle(self, table_distributions, variant):
        fleet = sampled_edge_fleet(table_distributions, seed=21)
        edges = matches_stepwise_oracle(
            fleet, random_commands(variant, DAY_5MIN, seed=4, fleet=fleet))
        print(f"\n{len(edges)} float-edge steps: {edges}")

    @pytest.mark.parametrize("variant", [None, "essm"])
    def test_matches_stepwise_oracle_over_a_day(self, table_distributions, variant):
        # 500 vehicles, 24 h at 15 s steps: a day of quiet steps between the
        # events, which must still check the watched vehicles for forced charging.
        # Commands, when on, act on every other step.
        fleet = Fleet(sample_fleet(table_distributions, 500, seed=7), DT_15S, seed=7)
        commands = random_commands(variant, 24 * 240, seed=4, fleet=fleet, hold=4 * 240,
                                   ties=False)
        matches_stepwise_oracle(fleet, (c if k % 2 else None for k, c in enumerate(commands)))

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_envelope_at_construction_matches_exact_sum(self, table_distributions, lanes):
        params = sampled_edge_fleet(table_distributions, seed=33).params
        params.initial_soc[[4, 5]] = params.soc_min  # placed at t = 0 charging at the floor
        fleet = Fleet(params, DT_5MIN, seed=33, lanes=lanes)
        assert (fleet.snapshot().soc == params.soc_min).sum() == 2
        for _ in range(2):  # at t = 0, and after step 1 has lifted those two off the floor
            assert len(fleet.envelopes) == lanes
            for r, envelope in enumerate(fleet.envelopes):
                snap = fleet.snapshot(r)
                assert snap.n_connected > 2  # with yesterday's sessions carried over
                exact = imm_flexibility(snap, params.soc_min, params.soc_max)
                np.testing.assert_allclose(astuple(envelope),
                                           [exact.p_ev_kw, exact.p_u_kw, exact.p_l_kw], rtol=1e-9)
            fleet.step()

    @pytest.mark.parametrize("variant", [None, "ssm", "essm"])
    def test_running_envelope_matches_exact_sum(self, table_distributions, variant):
        fleet = sampled_edge_fleet(table_distributions, seed=33)
        p = fleet.params
        placed = fleet.snapshot().ids[:4]  # moving away from a bound on the first step
        fleet.set_state(placed[:2], p.soc_min, Connection.CHARGING)
        fleet.set_state(placed[2:], p.soc_max, Connection.DISCHARGING)
        prev = fleet.snapshot()
        floor_arrivals = left_floor = left_ceiling = 0
        for command in random_commands(variant, DAY_5MIN, seed=8, fleet=fleet):
            step = fleet.step(command)
            snap = fleet.snapshot()
            exact = imm_flexibility(snap, p.soc_min, p.soc_max)
            np.testing.assert_allclose(
                astuple(fleet.envelopes[0]),
                [exact.p_ev_kw, exact.p_u_kw, exact.p_l_kw], rtol=1e-9)
            floor_arrivals += np.count_nonzero(step.in_soc == p.soc_min)
            mode = np.full(p.n_ev, Connection.DISCONNECTED, dtype=np.int8)
            mode[snap.ids] = snap.connection
            idle = prev.connection == Connection.IDLE
            now = mode[prev.ids]
            left_floor += np.count_nonzero(idle & (prev.soc <= p.soc_min)
                                           & (now == Connection.CHARGING))
            left_ceiling += np.count_nonzero(idle & (prev.soc >= p.soc_max)
                                             & (now == Connection.DISCHARGING))
            prev = snap
        assert floor_arrivals > 0
        if variant is not None:
            assert left_floor > 0 and left_ceiling > 0


def same(ours, theirs) -> bool:
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


def assert_schedule_matches_steps(fleet: Fleet, n_steps: int,
                                  every: int = 1) -> tuple[Schedule, list[FleetStep]]:
    """The `Schedule` of `fleet`'s parameters against `fleet` stepped uncontrolled, bitwise:
    each step's four sums and envelope, its churn counts (`schedule_states`, both layouts)
    against the step's plug events binned by `StateLayout.keys`, arrivals less departures, and
    the snapshot (ids, SOC, mode, rated powers) at t = 0 and every `every` steps. Returns the
    schedule and the fleet's steps."""
    p = fleet.params
    schedule = Schedule(p, fleet.dt_hours, n_steps)
    layouts = [StateLayout(10, variant, p.soc_min, p.soc_max) for variant in (ESSM, SSM)]
    churns = [schedule_states(schedule, layout, every)[1] for layout in layouts]
    steps = []
    for k in range(n_steps + 1):
        if k:
            steps.append(step := fleet.step())
            for layout, churn in zip(layouts, churns):
                d, states = layout.dimension, layout.state_table.take(layout.keys(
                    np.r_[step.in_connection, step.out_connection],
                    np.r_[step.in_soc, step.out_soc]))
                assert np.array_equal(churn[k], np.bincount(states[:step.n_in], minlength=d)
                                      - np.bincount(states[step.n_in:], minlength=d)), k
        assert same(schedule.sums[k], fleet._sums[0]), k
        assert same(astuple(FlexibilityEnvelope(*schedule.rows[k].tolist())),
                    astuple(fleet.envelopes[0])), k
        if k % every == 0:
            assert all(map(same, astuple(schedule_snapshot(schedule, k)),
                           astuple(fleet.snapshot()))), k
    assert all(churn.shape == (n_steps + 1, layout.dimension) and not churn[0].any()
               for layout, churn in zip(layouts, churns))  # no plug event at t = 0, none after
    return schedule, steps


def leaving_charging(params, dt):
    """`params` with two more hand-placed sessions after the edge cases', as vehicles 9 and 10,
    that leave charging before they are full (their demanded SOC is the floor, so the deadline
    never binds): a 1 h session whose plug-out is a grid point near 15 h, and a merged one,
    yesterday's window ending inside the step in which today's starts near 0.5 h, with a
    1,000 kWh battery so that its 48 h of charging leave it short of full. The merged session
    leaves 7 steps past 24 h."""
    j, k = round(14.0 / dt), round(0.5 / dt)
    params.plug_in_h[[9, 10]] = j * dt + 0.4 * dt, k * dt + 0.6 * dt
    params.plug_out_h[[9, 10]] = (j + 12) * dt, k * dt + 0.3 * dt + 24.0
    params.demanded_soc[[9, 10]] = params.soc_min
    params.capacity_kwh[10] = 1000.0
    return params


class TestSchedule:
    """The uncontrolled run as one event schedule equals the stepped kernel, bitwise."""

    @pytest.mark.parametrize("seed, n_steps", [(21, DAY_5MIN), (33, DAY_5MIN), (33, 40),
                                               (21, DAY_5MIN + 12)])
    def test_matches_steps_on_the_edge_cases(self, table_distributions, seed, n_steps):
        fleet = Fleet(leaving_charging(edge_case_params(table_distributions, seed), DT_5MIN),
                      DT_5MIN, seed=seed)
        assert fleet.snapshot().n_connected > 0  # carried-over sessions
        _, steps = assert_schedule_matches_steps(fleet, n_steps)
        if n_steps >= DAY_5MIN:  # floor arrivals; departures charging, forced and idle
            assert any((step.in_soc == fleet.params.soc_min).any() for step in steps)
            assert np.isin([Connection.IDLE, Connection.FORCED_CHARGING],
                           np.concatenate([step.out_connection for step in steps])).all()
            left = {int(i): c for step in steps
                    for i, c in zip(step.out_ids.tolist(), step.out_connection.tolist())}
            assert left[9] == Connection.CHARGING  # on the grid point
            assert left.get(10) == (Connection.CHARGING if n_steps > DAY_5MIN else None)

    @pytest.mark.parametrize("dt, n_steps, every",
                             [(DT_15S, 24 * 240, 20), (DT_5MIN, DAY_5MIN, 1)])
    @pytest.mark.parametrize("seed", [7, 1, 29])
    def test_matches_steps_over_a_day(self, table_distributions, seed, dt, n_steps, every):
        fleet = Fleet(sample_fleet(table_distributions, 500, seed=seed), dt, seed=seed)
        _, steps = assert_schedule_matches_steps(fleet, n_steps, every)
        assert sum(step.n_in + step.n_out for step in steps) > 500
        assert np.isin([Connection.CHARGING, Connection.IDLE, Connection.FORCED_CHARGING],
                       np.concatenate([step.out_connection for step in steps])).all()

    def test_a_session_leaving_on_its_first_step_is_not_checked(self):
        # Yesterday's session ends inside step 1, its rule binding (a 300 kWh battery that
        # today's session, the deadline read at t1, cannot fill): it leaves charging, as the
        # kernel lets it go before any check.
        fleet = one_vehicle(capacity=300.0, initial=0.1, demanded=0.9, plug_in=23.0,
                            plug_out=24.0 + DT_15S / 2)
        schedule, steps = assert_schedule_matches_steps(fleet, 2)
        assert steps[0].out_connection.tolist() == [Connection.CHARGING]
        assert schedule.sessions[7][0] == Connection.CHARGING  # yesterday's, never promoted

    @pytest.mark.parametrize("seed", [7, 29])
    def test_snapshots_in_any_order_leave_the_fleet_alone(self, table_distributions, seed):
        params = sample_fleet(table_distributions, 500, seed=seed)
        fields = {name: value.copy() for name, value in vars(params).items()
                  if isinstance(value, np.ndarray)}
        schedule = Schedule(params, DT_5MIN, DAY_5MIN)
        in_order = [astuple(schedule_snapshot(schedule, k)) for k in range(DAY_5MIN + 1)]
        for k in [*range(DAY_5MIN, -1, -1), 0, 0, 150, 150, DAY_5MIN, 1]:  # reversed, repeated
            assert all(map(same, astuple(schedule_snapshot(schedule, k)), in_order[k])), k
        assert all(same(value, getattr(params, name)) for name, value in fields.items())
        assert_schedule_matches_steps(Fleet(params, DT_5MIN, seed=seed), DAY_5MIN)

    def test_its_tables_are_read_only(self, table_distributions):
        schedule = Schedule(sample_fleet(table_distributions, 20, seed=3), DT_5MIN, DAY_5MIN)
        for array in (*schedule.sessions, schedule.sums, schedule.rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


class TestLanes:
    """A fleet of several lanes steps each lane as its own fleet would."""

    def test_two_lanes_equal_two_solo_fleets(self, table_distributions):
        params = sampled_edge_fleet(table_distributions, seed=21).params
        solo = [Fleet(params, DT_5MIN, seed=21) for _ in range(2)]
        pair = Fleet(params, DT_5MIN, seed=21, lanes=2)
        # Different streams per lane; lane 1 is uncontrolled on every third step.
        streams = zip(random_commands("essm", DAY_5MIN, seed=4, fleet=pair),
                      random_commands("ssm", DAY_5MIN, seed=9, fleet=pair, hold=DAY_5MIN // 5))
        events = 0
        for k, (first, second) in enumerate(streams):
            commands = (first, second if k % 3 else None)
            both = pair.step(*commands)
            d = both.n_out
            for r, (fleet, command) in enumerate(zip(solo, commands)):
                one = fleet.step(command)
                lane = slice(r * d, (r + 1) * d)
                assert np.array(astuple(pair.envelopes[r])).tobytes() == \
                    np.array(astuple(fleet.envelopes[0])).tobytes(), (k, r)
                for ours, theirs in [(both.in_ids, one.in_ids), (both.in_soc, one.in_soc),
                                     (both.in_connection, one.in_connection),
                                     (both.out_ids, one.out_ids), (both.out_soc[lane], one.out_soc),
                                     (both.out_connection[lane], one.out_connection),
                                     *zip(astuple(pair.snapshot(r)), astuple(fleet.snapshot()))]:
                    assert np.asarray(ours).dtype == np.asarray(theirs).dtype, (k, r)
                    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), (k, r)
            events += both.n_in + both.n_out
        assert events > 100

    def test_lanes_take_one_command_each(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 5, seed=1), DT_15S, seed=1,
                      lanes=2)
        with pytest.raises(ValueError, match="2 lanes take 2 commands, not 1"):
            fleet.step(None)
        fleet.step()
        fleet.step(None, None)


class TestTypes:
    def test_characteristics_validation(self):
        with pytest.raises(ValueError, match="positive"):
            FleetDistributions(rated_power_kw=point(0.0))
        with pytest.raises(ValueError, match="efficiency"):
            FleetDistributions(efficiency=point(1.2))

    def test_travel_plan_validation(self):
        # Load time refuses a plug-out that cannot follow its plug-in; sampling still would.
        with pytest.raises(ValueError, match="plug_out_hour keeps too little mass"):
            deterministic_distributions(plug_in=18.0, plug_out=17.0)
        unchecked = deterministic_distributions(plug_in=18.0, plug_out=30.0)
        object.__setattr__(unchecked, "plug_out_hour", point(17.0))
        with pytest.raises(ValueError, match="session windows"):
            sample_fleet(unchecked, 1, seed=1)
        with pytest.raises(ValueError, match="demanded_soc"):
            FleetDistributions(demanded_soc=point(1.2))

    def test_plug_out_checked_at_the_plug_in_extremes(self):
        late = DistributionSpec("uniform", 20.9, 22.0)
        with pytest.raises(ValueError, match="plug_in_hour of 23 h"):
            FleetDistributions(plug_in_hour=DistributionSpec("uniform", 18.0, 23.0),
                               plug_out_hour=late)
        # A degenerate normal draws only its mean, wherever its range ends.
        FleetDistributions(plug_in_hour=DistributionSpec("normal", 0.0, 30.0, mean=19.0),
                           plug_out_hour=late)

    @given(soc=st.floats(0.0, 1.0), mode=st.sampled_from(
        [Connection.CHARGING, Connection.IDLE, Connection.DISCHARGING]))
    @settings(max_examples=60, deadline=None)
    def test_step_soc_stays_in_bounds(self, soc, mode):
        new = stepped(one_vehicle(soc, mode)).soc[0]
        assert 0.0 <= new <= 1.0
