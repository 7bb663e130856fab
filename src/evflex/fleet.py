"""Per-vehicle ground-truth microsimulation.

Every vehicle carries rated charge/discharge power, efficiency and capacity,
a daily travel session (plug-in / plug-out hours, arrival SOC, departure SOC
target) and a live state (SOC, connection mode). Connected vehicles charge or
discharge at rated power only; SOC integrates the rated-speed law with
efficiency on the battery side for charging and on the grid side for
discharging. A vehicle whose departure target can no longer be met by
uninterrupted rated charging is promoted to forced charging and stops
responding to dispatch.

Sign convention is grid-injection-positive: charging vehicles contribute
-P_c, discharging +P_d, idle 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .config import REJECTION_BUDGET, FleetDistributions

HOURS_PER_DAY = 24.0

# Independent per-step random streams, keyed by (seed, stream tag, step), so
# skipping a stream on one step never shifts draws on later steps.
_STREAM_ACTUATION = 0


def step_stream(seed: int, step_index: int, tag: int = _STREAM_ACTUATION) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, step_index)))


class Connection(IntEnum):
    DISCONNECTED = 0
    CHARGING = 1        # CS
    IDLE = 2            # IS
    DISCHARGING = 3     # DS
    FORCED_CHARGING = 4  # FCS


@dataclass
class FleetParams:
    """Sampled per-vehicle parameters, struct-of-arrays.

    plug_in_h values >= 24 are after-midnight arrivals; plug_out_h is the
    absolute departure of the same session
    (plug_in_h < plug_out_h < plug_in_h + 24).
    """

    rated_charge_kw: np.ndarray
    rated_discharge_kw: np.ndarray
    charge_eff: np.ndarray
    discharge_eff: np.ndarray
    capacity_kwh: np.ndarray
    plug_in_h: np.ndarray
    plug_out_h: np.ndarray
    initial_soc: np.ndarray
    demanded_soc: np.ndarray
    soc_min: float
    soc_max: float

    @property
    def n_ev(self) -> int:
        return self.rated_charge_kw.size

    @property
    def charge_rate_per_h(self) -> np.ndarray:
        return self.rated_charge_kw * self.charge_eff / self.capacity_kwh

    @property
    def discharge_rate_per_h(self) -> np.ndarray:
        return self.rated_discharge_kw / (self.discharge_eff * self.capacity_kwh)

def sample_fleet(distributions: FleetDistributions, n_ev: int, seed: int) -> FleetParams:
    """Draw a fleet from the configured distributions.

    Rated power and efficiency are shared between charging and discharging at
    sampling time. Plug-in/plug-out pairs are redrawn until the session is a
    proper sub-day window (0 < duration < 24 h).
    """
    if n_ev < 1:
        raise ValueError("n_ev must be >= 1")
    d = distributions
    rng = np.random.default_rng(seed)
    rated = d.rated_power_kw.sample(rng, n_ev)
    eff = d.efficiency.sample(rng, n_ev)
    cap = d.capacity_kwh.sample(rng, n_ev)
    initial = d.initial_soc.sample(rng, n_ev)
    demanded = d.demanded_soc.sample(rng, n_ev)
    plug_in = d.plug_in_hour.sample(rng, n_ev)
    plug_out = d.plug_out_hour.sample(rng, n_ev)
    for _ in range(REJECTION_BUDGET):
        bad = (plug_out <= plug_in) | (plug_out >= plug_in + HOURS_PER_DAY)
        if not bad.any():
            break
        plug_out[bad] = d.plug_out_hour.sample(rng, int(bad.sum()))
    else:
        raise ValueError("could not sample valid plug-in/plug-out session windows")
    return FleetParams(
        rated_charge_kw=rated,
        rated_discharge_kw=rated.copy(),
        charge_eff=eff,
        discharge_eff=eff.copy(),
        capacity_kwh=cap,
        plug_in_h=plug_in,
        plug_out_h=plug_out,
        initial_soc=initial,
        demanded_soc=demanded,
        soc_min=d.soc_min,
        soc_max=d.soc_max,
    )


@dataclass
class FleetSnapshot:
    """Telemetry for one instant: connected vehicles plus the plug events of
    the elapsed step (arrival/departure SOC and mode at the event)."""

    time_h: float
    ids: np.ndarray
    soc: np.ndarray
    connection: np.ndarray
    power_kw: np.ndarray
    rated_charge_kw: np.ndarray
    rated_discharge_kw: np.ndarray
    in_ids: np.ndarray
    in_soc: np.ndarray
    in_connection: np.ndarray
    out_ids: np.ndarray
    out_soc: np.ndarray
    out_connection: np.ndarray

    @property
    def n_connected(self) -> int:
        return self.ids.size

    @property
    def n_in(self) -> int:
        return self.in_ids.size

    @property
    def n_out(self) -> int:
        return self.out_ids.size


_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_M = np.empty(0, dtype=np.int8)


class Fleet:
    """Vectorized fleet state machine.

    Each vehicle has up to two connection windows inside a 0-24 h run: the
    tail of yesterday's session ([plug_in - 24, plug_out - 24), SOC
    fast-forwarded through the pre-run uncontrolled charging) and today's
    session ([plug_in, plug_out)). Steps are sequential; within a step all
    vehicles update independently, with actuation randomness drawn from a
    per-step keyed stream indexed by vehicle id so scheduling order can never
    change results.
    """

    def __init__(self, params: FleetParams, dt_hours: float, seed: int):
        if dt_hours <= 0:
            raise ValueError("dt must be > 0")
        self.params = params
        self.dt_hours = dt_hours
        self.seed = seed
        self.step_index = 0
        n = params.n_ev
        self._ids = np.arange(n, dtype=np.int64)
        # Connection windows (absolute hours; empty when end <= start).
        self._m_start = params.plug_in_h - HOURS_PER_DAY
        self._m_end = params.plug_out_h - HOURS_PER_DAY
        self._e_start = params.plug_in_h.copy()
        self._e_end = params.plug_out_h.copy()
        self._rate_c = params.charge_rate_per_h
        self._rate_d = params.discharge_rate_per_h

        self.soc = np.zeros(n)
        self.mode = np.full(n, Connection.DISCONNECTED, dtype=np.int8)
        self.connected = self._connected_at(0.0)
        # Carried-over vehicles charged without interruption since plugging in
        # yesterday; fast-forward that history.
        carried = self.connected & (self._m_start < 0.0)
        elapsed = np.where(carried, -self._m_start, 0.0)
        soc0 = params.initial_soc + elapsed * self._rate_c
        fresh = self.connected & ~carried
        self.soc[carried] = np.minimum(soc0[carried], params.soc_max)
        self.soc[fresh] = params.initial_soc[fresh]
        full = self.connected & (self.soc >= params.soc_max)
        self.mode[self.connected] = Connection.CHARGING
        self.mode[full] = Connection.IDLE

    @property
    def time_h(self) -> float:
        return self.step_index * self.dt_hours

    def _connected_at(self, t: float) -> np.ndarray:
        return ((self._m_start <= t) & (t < self._m_end)) | \
               ((self._e_start <= t) & (t < self._e_end))

    def _session_end(self, t: float) -> np.ndarray:
        return np.where(t < self._m_end, self._m_end, self._e_end)

    def _power(self, mask: np.ndarray) -> np.ndarray:
        p = np.zeros(self.params.n_ev)
        charging = mask & ((self.mode == Connection.CHARGING) |
                           (self.mode == Connection.FORCED_CHARGING))
        p[charging] = -self.params.rated_charge_kw[charging]
        discharging = mask & (self.mode == Connection.DISCHARGING)
        p[discharging] = self.params.rated_discharge_kw[discharging]
        return p

    def snapshot(self, in_events=None, out_events=None) -> FleetSnapshot:
        ids = self._ids[self.connected]
        power = self._power(self.connected)[self.connected]
        in_ids, in_soc, in_mode = in_events or (_EMPTY_I, _EMPTY_F, _EMPTY_M)
        out_ids, out_soc, out_mode = out_events or (_EMPTY_I, _EMPTY_F, _EMPTY_M)
        return FleetSnapshot(
            time_h=self.time_h,
            ids=ids,
            soc=self.soc[self.connected].copy(),
            connection=self.mode[self.connected].copy(),
            power_kw=power,
            rated_charge_kw=self.params.rated_charge_kw[self.connected],
            rated_discharge_kw=self.params.rated_discharge_kw[self.connected],
            in_ids=in_ids, in_soc=in_soc, in_connection=in_mode,
            out_ids=out_ids, out_soc=out_soc, out_connection=out_mode,
        )

    def step(self, command=None) -> FleetSnapshot:
        """Advance one step: plug events, forced-charging promotion, command
        actuation, SOC integration, boundary absorption. Returns the new
        snapshot with the step's plug events attached."""
        if command is not None:
            command.validate()
        params = self.params
        t0 = self.time_h
        t1 = (self.step_index + 1) * self.dt_hours

        now = self._connected_at(t1)
        arrivals = now & ~self.connected
        departures = self.connected & ~now
        out_events = (self._ids[departures], self.soc[departures].copy(),
                      self.mode[departures].copy())
        self.soc[arrivals] = params.initial_soc[arrivals]
        self.mode[arrivals] = Connection.CHARGING
        self.mode[departures] = Connection.DISCONNECTED
        in_events = (self._ids[arrivals], self.soc[arrivals].copy(),
                     self.mode[arrivals].copy())
        self.connected = now

        # Forced-charging promotion: binding departure deadline. Sticky until
        # plug-out (or SOC-max absorption below).
        deadline = self._session_end(t1)
        binding = now & (self.mode != Connection.FORCED_CHARGING) & (
            params.demanded_soc - self.soc >= (deadline - t0) * self._rate_c)
        self.mode[binding] = Connection.FORCED_CHARGING

        if command is not None:
            from .control import actuate_array
            alpha = step_stream(self.seed, self.step_index).random(params.n_ev)
            self.mode = actuate_array(
                self.mode, self.soc, command, alpha,
                connected=now, soc_min=params.soc_min, soc_max=params.soc_max)

        charging = now & ((self.mode == Connection.CHARGING) |
                          (self.mode == Connection.FORCED_CHARGING))
        discharging = now & (self.mode == Connection.DISCHARGING)
        self.soc[charging] += self._rate_c[charging] * self.dt_hours
        self.soc[discharging] -= self._rate_d[discharging] * self.dt_hours

        # Boundary absorption in the same step: clamp and go idle.
        full = charging & (self.soc >= params.soc_max)
        empty = discharging & (self.soc <= params.soc_min)
        self.soc[full] = params.soc_max
        self.soc[empty] = params.soc_min
        self.mode[full] = Connection.IDLE
        self.mode[empty] = Connection.IDLE

        self.step_index += 1
        return self.snapshot(in_events=in_events, out_events=out_events)
