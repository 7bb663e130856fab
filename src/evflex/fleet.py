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


# The same codes as plain ints for the per-step paths, where looking up an
# IntEnum member costs more than the numpy comparison it feeds.
DISCONNECTED, CS, IS, DS, FCS = (int(c) for c in Connection)


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


# Plug events as (ids, SOC, mode) at the event.
_NO_EVENTS = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int8))


def _bucket(events, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR buckets of plug events given as (step of each vehicle, fires)
    pairs: the ids firing at step j are ids[ptr[j]:ptr[j + 1]], ascending."""
    steps = np.concatenate([step[fires] for step, fires in events])
    ids = np.concatenate([np.flatnonzero(fires) for _, fires in events])
    ptr = np.concatenate([[0], np.cumsum(np.bincount(steps, minlength=n_steps))])
    ids = ids[np.lexsort((ids, steps))]
    ids.flags.writeable = False  # snapshots hand out slices of it
    return ids, ptr


def _events(bucket: tuple[np.ndarray, np.ndarray], j: int) -> np.ndarray:
    ids, ptr = bucket
    return ids[ptr[j]:ptr[j + 1]] if j + 1 < ptr.size else _NO_EVENTS[0]


class Fleet:
    """Vectorized fleet state machine.

    Each vehicle has up to two connection windows inside a 0-24 h run: the
    tail of yesterday's session ([plug_in - 24, plug_out - 24), SOC
    fast-forwarded through the pre-run uncontrolled charging) and today's
    session ([plug_in, plug_out)). Every plug event is bucketed once by the
    step it fires in, so a step touches only its events and the connected
    vehicles. Steps are sequential; within a step all vehicles update
    independently, with actuation randomness drawn from a per-step keyed
    stream indexed by vehicle id so scheduling order can never change
    results.
    """

    def __init__(self, params: FleetParams, dt_hours: float, seed: int):
        if dt_hours <= 0:
            raise ValueError("dt must be > 0")
        self.params = params
        self.dt_hours = dt_hours
        self.seed = seed
        self.step_index = 0
        n = params.n_ev
        m_start = params.plug_in_h - HOURS_PER_DAY
        self._m_end = params.plug_out_h - HOURS_PER_DAY
        self._rate_c = params.charge_rate_per_h
        # SOC gained by one step of charging, lost by one step of discharging.
        self._dsoc_c = self._rate_c * dt_hours
        self._dsoc_d = params.discharge_rate_per_h * dt_hours

        # Window [s, e) holds the vehicle after steps a <= j < b, a and b the
        # first grid points at or after s and e. The grid holds the step
        # loop's own floats and reaches past every plug-out.
        last = max(float(params.plug_out_h.max()), 0.0)
        grid = np.arange(int(np.ceil(last / dt_hours)) + 2) * dt_hours
        a_m, b_m, a_e, b_e = np.searchsorted(grid, np.stack(
            [m_start, self._m_end, params.plug_in_h, params.plug_out_h]))
        m_ok, e_ok = b_m > a_m, b_e > a_e  # a window shorter than a step is empty
        # Yesterday's session ending on the step today's starts is one
        # continuous connection: no departure, no arrival, no SOC reset.
        merged = m_ok & e_ok & (b_m >= a_e)
        self._arrivals = _bucket([(a_m, m_ok & (a_m > 0)),
                                  (a_e, e_ok & ~merged & (a_e > 0))], grid.size)
        self._departures = _bucket([(b_m, m_ok & ~merged), (b_e, e_ok)], grid.size)

        self.soc = np.zeros(n)
        self.mode = np.full(n, DISCONNECTED, dtype=np.int8)
        self.connected = (m_ok & (a_m == 0)) | (e_ok & (a_e == 0))
        # Carried-over vehicles charged without interruption since plugging in
        # yesterday; fast-forward that history.
        carried = self.connected & (m_start < 0.0)
        elapsed = np.where(carried, -m_start, 0.0)
        soc0 = params.initial_soc + elapsed * self._rate_c
        fresh = self.connected & ~carried
        self.soc[carried] = np.minimum(soc0[carried], params.soc_max)
        self.soc[fresh] = params.initial_soc[fresh]
        full = self.connected & (self.soc >= params.soc_max)
        self.mode[self.connected] = CS
        self.mode[full] = IS

    @property
    def time_h(self) -> float:
        return self.step_index * self.dt_hours

    def _deadline(self, idx: np.ndarray, t: float) -> np.ndarray:
        """Plug-out time of the session that holds each vehicle of `idx` at t."""
        m_end = self._m_end[idx]
        return np.where(t < m_end, m_end, self.params.plug_out_h[idx])

    def snapshot(self, in_events=_NO_EVENTS, out_events=_NO_EVENTS) -> FleetSnapshot:
        ids = np.flatnonzero(self.connected)
        mode = self.mode[ids]
        rated_c = self.params.rated_charge_kw[ids]
        rated_d = self.params.rated_discharge_kw[ids]
        power = np.where((mode == CS) | (mode == FCS), -rated_c,
                         np.where(mode == DS, rated_d, 0.0))
        in_ids, in_soc, in_mode = in_events
        out_ids, out_soc, out_mode = out_events
        return FleetSnapshot(
            time_h=self.time_h,
            ids=ids,
            soc=self.soc[ids],
            connection=mode,
            power_kw=power,
            rated_charge_kw=rated_c,
            rated_discharge_kw=rated_d,
            in_ids=in_ids, in_soc=in_soc, in_connection=in_mode,
            out_ids=out_ids, out_soc=out_soc, out_connection=out_mode,
        )

    def step(self, command=None) -> FleetSnapshot:
        """Advance one step: plug events, forced-charging promotion, command
        actuation, SOC integration, boundary absorption. Returns the new
        snapshot with the step's plug events attached."""
        params = self.params
        t0 = self.time_h
        j = self.step_index + 1
        t1 = j * self.dt_hours

        arrivals = _events(self._arrivals, j)
        departures = _events(self._departures, j)
        out_events = (departures, self.soc[departures], self.mode[departures])
        self.soc[arrivals] = params.initial_soc[arrivals]
        self.mode[arrivals] = CS
        self.mode[departures] = DISCONNECTED
        in_events = (arrivals, self.soc[arrivals], self.mode[arrivals])
        self.connected[arrivals] = True
        self.connected[departures] = False

        # The rest of the step works on the connected vehicles, gathered once.
        idx = np.flatnonzero(self.connected)
        soc = self.soc[idx]
        mode = self.mode[idx]

        # Forced-charging promotion: binding departure deadline. Sticky until
        # plug-out (or SOC-max absorption below).
        binding = (mode != FCS) & (params.demanded_soc[idx] - soc >=
                                   (self._deadline(idx, t1) - t0) * self._rate_c[idx])
        mode[binding] = FCS

        if command is not None:
            from .control import actuate_array
            alpha = step_stream(self.seed, self.step_index).random(params.n_ev)
            mode = actuate_array(mode, soc, command, alpha[idx],
                                 soc_min=params.soc_min, soc_max=params.soc_max)

        charging = (mode == CS) | (mode == FCS)
        discharging = mode == DS
        # Adding 0.0 leaves the SOC of the other modes bitwise unchanged.
        soc += self._dsoc_c[idx] * charging
        soc -= self._dsoc_d[idx] * discharging

        # Boundary absorption in the same step: clamp and go idle.
        full = charging & (soc >= params.soc_max)
        empty = discharging & (soc <= params.soc_min)
        soc[full] = params.soc_max
        soc[empty] = params.soc_min
        mode[full | empty] = IS
        self.soc[idx] = soc
        self.mode[idx] = mode

        self.step_index += 1
        return self.snapshot(in_events=in_events, out_events=out_events)
