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

from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .config import HOURS_PER_DAY, REJECTION_BUDGET, FleetDistributions

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


@dataclass(frozen=True)
class FlexibilityEnvelope:
    """Instantaneous power and one-step capability bounds, grid-injection
    positive: p_l <= p_ev <= p_u for truthful layouts."""

    p_ev_kw: float
    p_u_kw: float
    p_l_kw: float


@dataclass
class FleetSnapshot:
    """Telemetry of the connected vehicles at one instant."""

    time_h: float
    ids: np.ndarray
    soc: np.ndarray
    connection: np.ndarray
    power_kw: np.ndarray
    rated_charge_kw: np.ndarray
    rated_discharge_kw: np.ndarray

    @property
    def n_connected(self) -> int:
        return self.ids.size


@dataclass
class FleetStep:
    """One step's plug events (SOC and mode at each) and the envelope after it."""

    in_ids: np.ndarray
    in_soc: np.ndarray
    in_connection: np.ndarray
    out_ids: np.ndarray
    out_soc: np.ndarray
    out_connection: np.ndarray
    envelope: FlexibilityEnvelope

    @property
    def n_in(self) -> int:
        return self.in_ids.size

    @property
    def n_out(self) -> int:
        return self.out_ids.size


_NO_IDS, _NO_SOC, _NO_MODE = np.empty(0, np.int64), np.empty(0), np.empty(0, np.int8)
# Running sums in int64 units of 2**-40 kW (up to 2**22 kW): a vehicle takes
# out bitwise what it put in, and an emptied set sums to exactly zero.
_KW_UNITS = 2.0 ** 40


def _term_table(soc_min: float, soc_max: float) -> np.ndarray:
    """The capability rule of `imm` as coefficients of (P_c, P_d) in the
    running sums (power, dischargeable, chargeable, forced), indexed [mode +
    5 * SOC position (0 inside, 1 floor, 2 ceiling), rated power, sum]."""
    from .imm import capability  # imm reads this module's mode codes
    mode = np.tile(np.arange(5), 3)
    soc = np.repeat([0.5 * (soc_min + soc_max), soc_min, soc_max], 5)
    forced, can_discharge, can_charge = capability(soc, mode, soc_min, soc_max)
    on, none = mode != DISCONNECTED, np.zeros(mode.size, dtype=bool)
    table = [[-1 * ((mode == CS) | forced), none, can_charge & on, forced],
             [mode == DS, can_discharge & on, none, none]]
    return np.array(table, dtype=np.int64).transpose(2, 0, 1)


def _bucket(events, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR buckets of plug events given as (step of each vehicle, fires)
    pairs: the ids firing at step j are ids[ptr[j]:ptr[j + 1]], ascending."""
    steps = np.concatenate([step[fires] for step, fires in events])
    ids = np.concatenate([np.flatnonzero(fires) for _, fires in events])
    ptr = np.concatenate([[0], np.cumsum(np.bincount(steps, minlength=n_steps))])
    ids = ids[np.lexsort((ids, steps))]
    ids.flags.writeable = False  # step results hand out slices of it
    return ids, ptr


def _events(bucket: tuple[np.ndarray, np.ndarray], j: int) -> np.ndarray:
    ids, ptr = bucket
    return ids[ptr[j]:ptr[j + 1]] if j + 1 < ptr.size else _NO_IDS


class Fleet:
    """Event-driven fleet state machine.

    Each vehicle has up to two connection windows inside a 0-24 h run: the
    tail of yesterday's session ([plug_in - 24, plug_out - 24), SOC
    fast-forwarded through the pre-run uncontrolled charging) and today's
    session ([plug_in, plug_out)). A connected vehicle is an anchor (SOC,
    step, mode); plug events and the steps at which anchors reach full or
    empty are filed by step, so a step touches only its events, the vehicles
    whose deadline can bind and those a command addresses, and keeps the imm
    envelope as running sums over them. Actuation draws are keyed by step
    and vehicle id.
    """

    def __init__(self, params: FleetParams, dt_hours: float, seed: int):
        if dt_hours <= 0:
            raise ValueError("dt must be > 0")
        self.params, self.dt_hours, self.seed, self.step_index = params, dt_hours, seed, 0
        n = params.n_ev
        m_start = params.plug_in_h - HOURS_PER_DAY
        self._m_end = params.plug_out_h - HOURS_PER_DAY
        self._rate_c = params.charge_rate_per_h

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

        # Per [mode, vehicle]: SOC change per step, and the SOC below which an
        # anchor is checked for forced charging (charging once; see `step`).
        zero, never = np.zeros(n), np.full(n, -np.inf)
        dsoc_c, dsoc_d = self._rate_c * dt_hours, params.discharge_rate_per_h * dt_hours
        self._slopes = np.stack([zero, dsoc_c, zero, -dsoc_d, dsoc_c])
        self._watch_below = np.stack([never, -never, params.demanded_soc, -never, never])
        # Anchors: SOC `_soc_a` at step `_k_a` (a float: no int conversion in
        # `_soc`) in `_mode`; `_due`, filed in `_calendar`: full or empty.
        self._soc_a, self._k_a, self._slope = np.zeros(n), np.zeros(n), np.zeros(n)
        self._mode = np.full(n, DISCONNECTED, dtype=np.int8)
        self._due = np.full(n, -1, dtype=np.int64)
        self._calendar, self._touched = defaultdict(set), []  # step -> ids; ids since commit
        self._watch = np.zeros(n, dtype=bool)
        rated = np.stack([params.rated_charge_kw, params.rated_discharge_kw], axis=1)
        if rated.sum() >= 2.0 ** 62 / _KW_UNITS:
            raise ValueError("fleet rated power exceeds the running sums' range")
        self._units = np.rint(rated * _KW_UNITS).astype(np.int64)
        self._term_table = _term_table(params.soc_min, params.soc_max)
        self._held = np.zeros((n, 4), dtype=np.int64)  # each vehicle's share of the sums
        self._sums = np.zeros(4, dtype=np.int64)

        # Carried-over vehicles, whose yesterday window holds t = 0, charged
        # without interruption since plugging in; fast-forward that history.
        connected = (m_ok & (a_m == 0)) | (e_ok & (a_e == 0))
        elapsed = np.where(m_ok & (a_m == 0), -m_start, 0.0)
        soc = np.minimum(params.initial_soc + elapsed * self._rate_c, params.soc_max)
        ids = np.flatnonzero(connected)
        self.set_state(ids, soc[ids], np.where(soc[ids] >= params.soc_max, IS, CS))

    def _soc(self, ids: np.ndarray, k: int) -> np.ndarray:
        """The SOC law: SOC at step k of the vehicles `ids` from their
        anchors, clamped at the bounds."""
        soc = self._soc_a[ids] + self._slope[ids] * (k - self._k_a[ids])
        return np.minimum(np.maximum(soc, self.params.soc_min), self.params.soc_max)

    def _anchor(self, ids: np.ndarray, soc, mode, k: int) -> None:
        """Re-anchor `ids` at (soc, mode) as of step k, file the step at
        which each moving one reaches full or empty, and mark them touched."""
        if not ids.size:
            return
        self._touched.append(ids)
        self._soc_a[ids], self._k_a[ids], self._mode[ids] = soc, k, mode
        soc, mode = self._soc_a[ids], self._mode[ids]
        slope = self._slope[ids] = self._slopes[mode, ids]
        self._watch[ids] = soc < self._watch_below[mode, ids]
        self._due[ids] = -1
        if not (moving := np.flatnonzero(slope)).size:
            return
        ids, soc, slope = ids[moving], soc[moving], slope[moving]
        # Steps until the law reaches its bound; rounding may file a step off
        # by one where SOC lands within rounding of it: a float edge.
        bound = np.where(slope > 0.0, self.params.soc_max, self.params.soc_min)
        due = self._due[ids] = k + np.maximum(np.ceil((bound - soc) / slope), 1.0).astype(np.int64)
        for step, i in zip(due.tolist(), ids.tolist()):
            self._calendar[step].add(i)

    def _commit(self, k: int) -> None:
        """Move the touched vehicles' shares of the running sums to step k."""
        if not self._touched:
            return
        ids, more = self._touched[0], self._touched[1:]  # each array holds distinct ids
        if more:  # each vehicle once (np.unique would import numpy.ma)
            ids = np.sort(np.concatenate([ids, *more]))
            ids = ids[np.diff(ids, prepend=-1) > 0]
        self._touched = []
        soc = self._soc(ids, k)
        position = (soc <= self.params.soc_min) + 2 * (soc >= self.params.soc_max)
        coef = self._term_table[self._mode[ids] + 5 * position]
        terms = np.einsum("mk,mks->ms", self._units[ids], coef)
        self._sums += terms.sum(axis=0) - self._held[ids].sum(axis=0)
        self._held[ids] = terms

    def _deadline(self, idx: np.ndarray, t: float) -> np.ndarray:
        """Plug-out time of the session that holds each vehicle of `idx` at t."""
        m_end = self._m_end[idx]
        return np.where(t < m_end, m_end, self.params.plug_out_h[idx])

    def set_state(self, ids, soc, mode) -> None:
        """Place connected vehicles at (soc, mode); the next step touches them."""
        ids = np.asarray(ids, dtype=np.int64)
        later, self._touched = self._touched + [ids], []
        self._anchor(ids, soc, mode, self.step_index)
        self._commit(self.step_index)
        self._touched = later

    def snapshot(self) -> FleetSnapshot:
        ids = np.flatnonzero(self._mode != DISCONNECTED)
        mode = self._mode[ids]
        rated_c, rated_d = self.params.rated_charge_kw[ids], self.params.rated_discharge_kw[ids]
        power = np.where((mode == CS) | (mode == FCS), -rated_c,
                         np.where(mode == DS, rated_d, 0.0))
        k = self.step_index
        return FleetSnapshot(time_h=k * self.dt_hours, ids=ids, soc=self._soc(ids, k),
                             connection=mode, power_kw=power, rated_charge_kw=rated_c,
                             rated_discharge_kw=rated_d)

    def step(self, command=None) -> FleetStep:
        """Advance one step: plug events, forced-charging promotion, command
        actuation, boundary absorption. Returns the step's plug events and
        the envelope after it."""
        params, k0, j = self.params, self.step_index, self.step_index + 1
        t0, t1 = k0 * self.dt_hours, j * self.dt_hours
        departures, arrivals = _events(self._departures, j), _events(self._arrivals, j)
        if not (departures.size or arrivals.size or self._touched or command is not None
                or j in self._calendar or self._watch.any()):
            # A quiet step: its sums and envelope stand (`__init__` leaves its
            # vehicles touched, so a step has set `_envelope` before any quiet one).
            self.step_index = j
            return FleetStep(_NO_IDS, _NO_SOC, _NO_MODE, _NO_IDS, _NO_SOC, _NO_MODE,
                             self._envelope)

        out_soc, out_mode = self._soc(departures, k0), self._mode[departures]
        if departures.size:
            self._sums -= self._held[departures].sum(axis=0)
            self._mode[departures], self._due[departures] = DISCONNECTED, -1
            self._held[departures], self._watch[departures] = 0, False
        in_soc = params.initial_soc[arrivals]
        self._anchor(arrivals, in_soc, CS, k0)
        in_mode = self._mode[arrivals]

        # Forced-charging promotion, sticky until plug-out or full; a charging
        # vehicle's slack demanded - soc - (deadline - t0) * rate stays put.
        check = np.flatnonzero(self._watch)
        if check.size:
            soc = self._soc(check, k0)
            self._watch[check[self._mode[check] == CS]] = False  # checked once
            binding = (params.demanded_soc[check] - soc >=
                       (self._deadline(check, t1) - t0) * self._rate_c[check])
            self._anchor(check[binding], soc[binding], FCS, k0)

        if command is not None:  # only addressed vehicles whose draw can switch them
            from .control import actuate_array
            alpha = step_stream(self.seed, k0).random(params.n_ev)
            ids = np.flatnonzero(command.addressed.take(self._mode) & (alpha < command.threshold))
            soc, mode = self._soc(ids, k0), self._mode[ids]
            new = actuate_array(mode, soc, command, alpha[ids],
                                soc_min=params.soc_min, soc_max=params.soc_max)
            switched = new != mode
            self._anchor(ids[switched], soc[switched], new[switched], k0)

        # Boundary absorption, filed when anchored: clamp and go idle.
        due = self._calendar.pop(j, None)
        if due is not None:
            ids = np.fromiter(due, np.int64, len(due))
            ids = ids[self._due[ids] == j]  # anchors replaced since filing are stale
            self._anchor(ids, np.where(self._slope[ids] > 0.0, params.soc_max, params.soc_min),
                         IS, j)

        self.step_index = j
        self._commit(j)
        power, dischargeable, chargeable, forced = (self._sums / _KW_UNITS).tolist()
        self._envelope = FlexibilityEnvelope(power, dischargeable - forced, -chargeable - forced)
        return FleetStep(arrivals, in_soc, in_mode, departures, out_soc, out_mode, self._envelope)
