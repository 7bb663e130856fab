from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex.config import DistributionSpec, FleetDistributions
from evflex.control import DispatchCommand, actuate_array
from evflex.aggregate import StateLayout
from evflex.fleet import Connection, Fleet, sample_fleet, step_stream

from conftest import deterministic_distributions, point

DT_15S = 15.0 / 3600.0


def one_vehicle(soc=None, mode=None, **dists) -> Fleet:
    """One connected vehicle: 6 kW, efficiency 0.9, 24 kWh (0.225 SOC/h of
    charging), optionally forced to `soc` and `mode`."""
    fleet = Fleet(sample_fleet(deterministic_distributions(**dists), 1, seed=1),
                  DT_15S, seed=1)
    if soc is not None:
        fleet.soc[:] = soc
    if mode is not None:
        fleet.mode[:] = mode
    return fleet


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
        snap = one_vehicle(0.5, Connection.CHARGING).step(None)
        assert snap.soc[0] == pytest.approx(0.5009375, abs=1e-12)

    def test_idle_holds(self):
        snap = one_vehicle(0.5, Connection.IDLE).step(None)
        assert snap.soc[0] == 0.5

    def test_discharging_quarter_minute(self):
        snap = one_vehicle(0.5, Connection.DISCHARGING).step(None)
        assert snap.soc[0] == pytest.approx(0.49884259259259256, abs=1e-12)

    def test_forced_charging_same_as_charging(self):
        snap = one_vehicle(0.5, Connection.FORCED_CHARGING).step(None)
        assert snap.connection[0] == Connection.FORCED_CHARGING
        assert snap.soc[0] == pytest.approx(0.5009375, abs=1e-12)

    def test_clamps_at_bounds(self):
        assert one_vehicle(0.99999, Connection.CHARGING).step(None).soc[0] == 1.0
        assert one_vehicle(0.0001, Connection.DISCHARGING).step(None).soc[0] == 0.0

    def test_rejects_nonpositive_dt(self):
        params = sample_fleet(deterministic_distributions(), 1, seed=1)
        with pytest.raises(ValueError):
            Fleet(params, 0.0, seed=1)


class TestFcsRequired:
    """Forced-charging promotion on the first step of a session [0, plug_out)."""

    def promoted(self, soc, plug_out_h):
        fleet = one_vehicle(initial=soc, demanded=0.8, plug_in=24.0,
                            plug_out=24.0 + plug_out_h)
        return fleet.step(None).connection[0] == Connection.FORCED_CHARGING

    def test_deadline_already_met(self):
        assert not self.promoted(0.8, plug_out_h=10.0)

    def test_equality_point_enters(self):
        # 0.10 needed, 0.4444 h at 0.225/h supplies 0.09999: binding.
        assert self.promoted(0.70, plug_out_h=0.4444)

    def test_ample_slack_stays_out(self):
        assert not self.promoted(0.70, plug_out_h=10.0)


class TestFleetStep:
    def test_uncontrolled_charging_step(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(initial=0.5), 20, seed=1),
                      DT_15S, seed=1)
        assert (fleet.mode[fleet.connected] == Connection.CHARGING).all()
        snap = fleet.step(None)
        assert snap.n_connected == 20
        np.testing.assert_allclose(snap.soc, 0.5009375, atol=1e-12)
        assert (snap.connection == Connection.CHARGING).all()
        np.testing.assert_array_equal(snap.power_kw, -6.0)

    def test_boundary_absorption_same_step(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 4, seed=1), DT_15S, seed=1)
        fleet.soc[:] = 0.9999
        snap = fleet.step(None)
        np.testing.assert_array_equal(snap.soc, 1.0)
        assert (snap.connection == Connection.IDLE).all()
        np.testing.assert_array_equal(snap.power_kw, 0.0)

    def test_discharge_absorption_at_floor(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 4, seed=1), DT_15S, seed=1)
        fleet.soc[:] = 0.0001
        fleet.mode[fleet.connected] = Connection.DISCHARGING
        snap = fleet.step(None)
        np.testing.assert_array_equal(snap.soc, 0.0)
        assert (snap.connection == Connection.IDLE).all()

    def test_fcs_promotion_from_discharging(self):
        # Session [0, 1.0): 0.225 SOC/h of charging cannot close a 0.3 gap.
        dists = deterministic_distributions(initial=0.5, demanded=0.8,
                                            plug_in=24.0, plug_out=25.0)
        fleet = Fleet(sample_fleet(dists, 3, seed=1), DT_15S, seed=1)
        fleet.mode[fleet.connected] = Connection.DISCHARGING
        snap = fleet.step(None)
        assert (snap.connection == Connection.FORCED_CHARGING).all()
        np.testing.assert_array_equal(snap.power_kw, -6.0)
        assert (snap.soc > 0.5).all()

    def test_forced_charging_sticky_until_full(self):
        dists = deterministic_distributions(initial=0.5, demanded=0.8,
                                            plug_in=24.0, plug_out=25.0)
        fleet = Fleet(sample_fleet(dists, 1, seed=1), DT_15S, seed=1)
        fleet.step(None)
        snap = fleet.step(None)
        assert (snap.connection == Connection.FORCED_CHARGING).all()

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
            snap = fleet.step(None)
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
            snap = fleet.step(None)
            assert not np.isin(snap.ids, np.array([-1])).any()
            assert snap.connection.min() > Connection.DISCONNECTED
            assert not np.intersect1d(snap.in_ids, snap.out_ids).size
            if snap.n_in:
                np.testing.assert_array_equal(snap.in_connection, Connection.CHARGING)
                np.testing.assert_array_equal(snap.in_soc, params.initial_soc[snap.in_ids])
                seen_in += snap.n_in
        assert seen_in > 50

    def test_trajectory_determinism_bitwise(self, table_distributions):
        runs = []
        for _ in range(2):
            fleet = Fleet(sample_fleet(table_distributions, 150, seed=13), DT_15S, seed=13)
            for _ in range(240):
                snap = fleet.step(None)
            runs.append((fleet.soc.copy(), fleet.mode.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_malformed_command_rejected(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 5, seed=1), DT_15S, seed=1)
        layout = StateLayout(10, "essm")
        with pytest.raises(ValueError, match="probabilities"):
            fleet.step(replace(DispatchCommand.zero(layout), start_charging=np.full(10, 1.5)))


class WindowOracle:
    """The full-length kernel the plug-event buckets replaced: both
    connection windows of every vehicle are tested again at every step, and
    every update runs over the whole fleet."""

    def __init__(self, fleet: Fleet):
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
            self.mode = actuate_array(self.mode, self.soc, command, alpha,
                                      p.soc_min, p.soc_max)
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


def edge_case_sessions(dt):
    """(plug_in_h, plug_out_h) of one vehicle per plug-event edge case."""
    j = round(10.0 / dt)  # grid point j * dt lies near 10 h

    def at(i):
        return i * dt

    return [
        # Yesterday's window ends inside the step in which today's starts.
        (at(j) + 0.6 * dt, at(j) + 0.3 * dt + 24.0),
        (at(j) + 0.2 * dt, at(j) + 0.7 * dt),  # shorter than a step, no grid point inside
        (at(j) + 0.8 * dt, at(j) + 1.3 * dt),  # shorter than a step, one grid point inside
        (20.0, 30.0),  # carried over: connected at t = 0
        (24.0, 30.0),  # yesterday's plug-in exactly at t = 0
        (0.0, 10.0),  # today's plug-in exactly at t = 0
        (25.0, 40.0),  # plug-in >= 24 h: arrives after midnight
        (at(j), at(j + 20)),  # plug-in and plug-out exactly on grid points
        (at(j) + 8.0, at(j) + 24.0),  # yesterday's plug-out on a grid point (exact for 0.25 h)
    ]


class TestEventKernel:
    """The bucketed kernel against the full-length oracle, bitwise, at every
    step: connection mask, plug events, deadlines, SOC and modes."""

    @pytest.mark.parametrize("dt, n_steps", [(0.25, 240), (60.0 / 3600.0, 24 * 60)])
    def test_matches_full_length_oracle(self, table_distributions, dt, n_steps):
        sessions = edge_case_sessions(dt)
        params = sample_fleet(table_distributions, 200, seed=21)
        params.plug_in_h[:len(sessions)], params.plug_out_h[:len(sessions)] = zip(*sessions)
        params.demanded_soc[:len(sessions)] = 0.9  # deadlines bind early
        fleet = Fleet(params, dt, seed=21)
        oracle = WindowOracle(fleet)
        np.testing.assert_array_equal(fleet.connected, oracle.connected)
        command = DispatchCommand(StateLayout(10, "essm"), np.full(10, 0.2), np.full(10, 0.1),
                                  np.full(10, 0.1), np.full(10, 0.2), 0.3, 0.3)
        events = 0
        for k in range(n_steps):
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


class TestTypes:
    def test_characteristics_validation(self):
        with pytest.raises(ValueError, match="positive"):
            FleetDistributions(rated_power_kw=point(0.0))
        with pytest.raises(ValueError, match="efficiency"):
            FleetDistributions(efficiency=point(1.2))

    def test_travel_plan_validation(self):
        with pytest.raises(ValueError, match="session windows"):
            sample_fleet(deterministic_distributions(plug_in=18.0, plug_out=17.0), 1, seed=1)
        with pytest.raises(ValueError, match="demanded_soc"):
            FleetDistributions(demanded_soc=point(1.2))

    @given(soc=st.floats(0.0, 1.0), mode=st.sampled_from(
        [Connection.CHARGING, Connection.IDLE, Connection.DISCHARGING]))
    @settings(max_examples=60, deadline=None)
    def test_step_soc_stays_in_bounds(self, soc, mode):
        new = one_vehicle(soc, mode).step(None).soc[0]
        assert 0.0 <= new <= 1.0
