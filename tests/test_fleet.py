from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evflex.config import DistributionSpec, FleetDistributions
from evflex.control import DispatchCommand, actuate_array
from evflex.aggregate import StateLayout
from evflex.fleet import Connection, Fleet, FleetSnapshot, _events, sample_fleet, step_stream
from evflex.imm import imm_flexibility

from conftest import deterministic_distributions, point

DT_15S = 15.0 / 3600.0


def one_vehicle(soc=None, mode=None, **dists) -> Fleet:
    """One connected vehicle: 6 kW, efficiency 0.9, 24 kWh (0.225 SOC/h of
    charging), optionally placed at `soc` in `mode`."""
    fleet = Fleet(sample_fleet(deterministic_distributions(**dists), 1, seed=1),
                  DT_15S, seed=1)
    if soc is not None:
        fleet.set_state([0], soc, mode)
    return fleet


def stepped(fleet: Fleet) -> FleetSnapshot:
    """Telemetry after one more uncontrolled step."""
    fleet.step(None)
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

    def promoted(self, soc, plug_out_h):
        fleet = one_vehicle(initial=soc, demanded=0.8, plug_in=24.0,
                            plug_out=24.0 + plug_out_h)
        return stepped(fleet).connection[0] == Connection.FORCED_CHARGING

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
        assert (fleet.snapshot().connection == Connection.CHARGING).all()
        snap = stepped(fleet)
        assert snap.n_connected == 20
        np.testing.assert_allclose(snap.soc, 0.5009375, atol=1e-12)
        assert (snap.connection == Connection.CHARGING).all()
        np.testing.assert_array_equal(snap.power_kw, -6.0)

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
        np.testing.assert_array_equal(snap.power_kw, 0.0)

    def test_discharge_absorption_at_floor(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 4, seed=1), DT_15S, seed=1)
        fleet.set_state(np.arange(4), 0.0001, Connection.DISCHARGING)
        snap = stepped(fleet)
        np.testing.assert_array_equal(snap.soc, 0.0)
        assert (snap.connection == Connection.IDLE).all()

    def test_fcs_promotion_from_discharging(self):
        # Session [0, 1.0): 0.225 SOC/h of charging cannot close a 0.3 gap.
        dists = deterministic_distributions(initial=0.5, demanded=0.8,
                                            plug_in=24.0, plug_out=25.0)
        fleet = Fleet(sample_fleet(dists, 3, seed=1), DT_15S, seed=1)
        fleet.set_state(np.arange(3), 0.5, Connection.DISCHARGING)
        snap = stepped(fleet)
        assert (snap.connection == Connection.FORCED_CHARGING).all()
        np.testing.assert_array_equal(snap.power_kw, -6.0)
        assert (snap.soc > 0.5).all()

    def test_forced_charging_sticky_until_full(self):
        dists = deterministic_distributions(initial=0.5, demanded=0.8,
                                            plug_in=24.0, plug_out=25.0)
        fleet = Fleet(sample_fleet(dists, 1, seed=1), DT_15S, seed=1)
        fleet.step(None)
        snap = stepped(fleet)
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

    def test_malformed_command_rejected(self):
        fleet = Fleet(sample_fleet(deterministic_distributions(), 5, seed=1), DT_15S, seed=1)
        layout = StateLayout(10, "essm")
        with pytest.raises(ValueError, match="probabilities"):
            fleet.step(replace(DispatchCommand.zero(layout), start_charging=np.full(10, 1.5)))


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
            mode = actuate_array(mode, soc, command, alpha[idx],
                                 soc_min=params.soc_min, soc_max=params.soc_max)
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


DT_5MIN = 5.0 / 60.0
DAY_5MIN = 24 * 12


def sampled_edge_fleet(distributions, seed: int) -> Fleet:
    """200 sampled vehicles with 5 min steps: the edge-case sessions first,
    with deadlines that bind early, and every seventh vehicle arriving at
    the SOC floor."""
    sessions = edge_case_sessions(DT_5MIN)
    params = sample_fleet(distributions, 200, seed=seed)
    params.plug_in_h[:len(sessions)], params.plug_out_h[:len(sessions)] = zip(*sessions)
    params.demanded_soc[:len(sessions)] = 0.9
    params.initial_soc[::7] = params.soc_min
    return Fleet(params, DT_5MIN, seed=seed)


def random_commands(variant, n_steps: int, seed: int):
    """A command per step (None when uncontrolled). The direction holds for
    four hours at a time, so vehicles reach both SOC bounds; within a
    direction each block is switched off at random."""
    if variant is None:
        yield from [None] * n_steps
        return
    layout = StateLayout(10, variant)
    rng = np.random.default_rng(seed)
    zero = np.zeros(10)
    for k in range(n_steps):
        on = rng.random(3) < 0.7
        stop, start = rng.random(10) * 0.2 * on[0], rng.random(10) * 0.4 * on[1]
        edge = 0.3 * on[2] if variant == "essm" else 0.0
        if (k * DT_5MIN) // 4.0 % 2 == 0:  # provide: stop charging, start discharging
            yield DispatchCommand(layout, stop, start, zero, zero, full_to_discharging=edge)
        else:  # absorb: stop discharging, start charging
            yield DispatchCommand(layout, zero, zero, stop, start, empty_to_charging=edge)


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


class TestEventDrivenKernel:
    """The event-driven kernel against the stepwise oracle and its running
    sums against the exact per-vehicle sum, on sampled fleets with the
    plug-event edge cases, uncontrolled and under random commands in both
    layouts."""

    @pytest.mark.parametrize("variant", [None, "ssm", "essm"])
    def test_matches_stepwise_oracle(self, table_distributions, variant):
        fleet = sampled_edge_fleet(table_distributions, seed=21)
        oracle = StepwiseOracle(fleet)
        edges = []
        for k, command in enumerate(random_commands(variant, DAY_5MIN, seed=4)):
            soc_before = oracle.soc.copy()
            ref = oracle.step(command)
            step = fleet.step(command)
            snap = fleet.snapshot()
            np.testing.assert_array_equal(step.in_ids, ref.in_ids)
            np.testing.assert_array_equal(step.in_soc, ref.in_soc)
            np.testing.assert_array_equal(step.out_ids, ref.out_ids)
            np.testing.assert_allclose(step.out_soc, ref.out_soc, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(step.out_connection, ref.out_connection)
            np.testing.assert_array_equal(snap.ids, ref.ids)
            differ = snap.ids[snap.connection != oracle.mode[snap.ids]]
            if differ.size:
                assert float_edge(oracle, soc_before, differ, k), (
                    f"step {k}: modes of vehicles {differ.tolist()} differ off any float edge")
                edges.append((k, differ.tolist()))
                agree = snap.connection == oracle.mode[snap.ids]
                np.testing.assert_allclose(snap.soc[agree], oracle.soc[snap.ids][agree],
                                           rtol=0, atol=1e-12)
                oracle.soc[snap.ids], oracle.mode[snap.ids] = snap.soc, snap.connection
            np.testing.assert_allclose(snap.soc, oracle.soc[snap.ids], rtol=0, atol=1e-12)
        print(f"\n{len(edges)} float-edge steps: {edges}")

    @pytest.mark.parametrize("variant", [None, "ssm", "essm"])
    def test_running_envelope_matches_exact_sum(self, table_distributions, variant):
        fleet = sampled_edge_fleet(table_distributions, seed=33)
        p = fleet.params
        placed = fleet.snapshot().ids[:4]  # moving away from a bound on the first step
        fleet.set_state(placed[:2], p.soc_min, Connection.CHARGING)
        fleet.set_state(placed[2:], p.soc_max, Connection.DISCHARGING)
        prev = fleet.snapshot()
        floor_arrivals = left_floor = left_ceiling = 0
        for command in random_commands(variant, DAY_5MIN, seed=8):
            step = fleet.step(command)
            snap = fleet.snapshot()
            exact = imm_flexibility(snap, p.soc_min, p.soc_max)
            np.testing.assert_allclose(
                [step.envelope.p_ev_kw, step.envelope.p_u_kw, step.envelope.p_l_kw],
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
        new = stepped(one_vehicle(soc, mode)).soc[0]
        assert 0.0 <= new <= 1.0
