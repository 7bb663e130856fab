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
        return soc_rates(self.rated_charge_kw, self.charge_eff, self.capacity_kwh)[0]

    @property
    def discharge_rate_per_h(self) -> np.ndarray:
        return soc_rates(self.rated_discharge_kw, self.discharge_eff, self.capacity_kwh)[1]


def soc_rates(power, eff, cap) -> tuple[np.ndarray, np.ndarray]:
    """The SOC law's change per hour at rated `power` kW: (charging, discharging)."""
    return power * eff / cap, power / (eff * cap)


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
    """Telemetry of the connected vehicles at one instant: ids, SOC, mode and rated powers."""

    ids: np.ndarray
    soc: np.ndarray
    connection: np.ndarray
    rated_charge_kw: np.ndarray
    rated_discharge_kw: np.ndarray

    @property
    def n_connected(self) -> int:
        return self.ids.size


@dataclass
class FleetStep:
    """The plug events of one step of a fleet's lanes: the shared ids, the arrivals' SOC and
    mode, and each lane's departure SOC and mode (lane-major, n_out each)."""

    in_ids: np.ndarray
    in_soc: np.ndarray
    in_connection: np.ndarray
    out_ids: np.ndarray
    out_soc: np.ndarray
    out_connection: np.ndarray

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


def _bucket(step, fires, n_steps: int, lanes: int) -> tuple[np.ndarray, memoryview]:
    """CSR buckets of plug events at each session's `step` where it `fires` (both per [session,
    vehicle]), for every lane: the flat ids firing at step j are ids[ptr[j]:ptr[j + 1]],
    ascending, so lane by lane; ptr reads as Python ints."""
    steps = np.tile(step[fires], lanes)
    ids = (fires.nonzero()[1] + step.shape[1] * np.arange(lanes)[:, None]).ravel()
    ptr = memoryview(np.concatenate([[0], np.cumsum(np.bincount(steps, minlength=n_steps))]))
    ids = ids[np.lexsort((ids, steps))]
    ids.flags.writeable = False  # step results hand out slices of it
    return ids, ptr


def _events(bucket: tuple[np.ndarray, memoryview], j: int) -> np.ndarray:
    ids, ptr = bucket
    return ids[ptr[j]:ptr[j + 1]] if j + 1 < len(ptr) else _NO_IDS


# The rules that the step kernel and the event schedule share.
def _soc(soc_a, slope, k, k_a, lo: float, hi: float) -> np.ndarray:
    """The SOC law: SOC at step k of an anchor (soc_a at step k_a, `slope` a step), clamped."""
    return np.minimum(np.maximum(soc_a + slope * (k - k_a), lo), hi)


def _deadline(t, m_end, plug_out) -> np.ndarray:
    """Plug-out time of the session that holds a vehicle at t."""
    return np.where(t < m_end, m_end, plug_out)


def _binds(demanded, soc, deadline, t0, rate_c) -> np.ndarray:
    """The forced-charging rule: rated charging from t0 no longer meets the target in time."""
    return demanded - soc >= (deadline - t0) * rate_c


def _due(k, bound, soc_a, slope) -> np.ndarray:
    """The step at which an anchor at step k reaches `bound`: at least k + 1 (off by one where
    SOC lands within rounding of the bound: a float edge)."""
    return k + np.maximum(np.ceil((bound - soc_a) / slope), 1.0).astype(np.int64)


def envelope_rule(power, dischargeable, chargeable, forced):
    """imm's envelope (power, upper, lower bound) of the four sums, on floats or arrays."""
    return power, dischargeable - forced, -chargeable - forced


def _terms(table, reach, units, soc, mode) -> np.ndarray:
    """Shares of the running sums: rated powers in int64 `units` times the term table's
    coefficients at the SOC position (how many of `reach` the SOC reaches) and mode."""
    return np.matmul(units[:, None], table[reach.searchsorted(soc, "right"), mode])[:, 0]


class Fleet:
    """Event-driven fleet state machine over one or more lanes: the step kernel.

    Each vehicle has up to two connection windows inside a 0-24 h run: the
    tail of yesterday's session ([plug_in - 24, plug_out - 24), SOC
    fast-forwarded through the pre-run uncontrolled charging) and today's
    session ([plug_in, plug_out)). Each lane is a clone of the fleet with its
    own SOC, modes and running sums, sharing parameters, plug events and
    actuation draws; vehicle v of lane r has the flat id r * n + v. A
    connected vehicle is an anchor (SOC, step, mode) with the step at which it
    reaches full or empty, and a mask marks the anchors whose forced-charging
    rule can still bind, so a step touches only its events, its due and
    watched vehicles and those a command addresses, and keeps each lane's imm
    envelope (`envelopes`, as of the last step or t = 0) as running sums over
    them. Draws are keyed by step and vehicle. A fleet that no command steers
    need not be stepped: its `Schedule` holds the whole run, by the same rules.
    """

    def __init__(self, params: FleetParams, dt_hours: float, seed: int, lanes: int = 1):
        if dt_hours <= 0:
            raise ValueError("dt must be > 0")
        self.params, self.dt_hours, self.seed, self.lanes = params, dt_hours, seed, lanes
        self.step_index = 0
        n = params.n_ev
        m_start = params.plug_in_h - HOURS_PER_DAY
        m_end = params.plug_out_h - HOURS_PER_DAY

        # Window [s, e) holds the vehicle after steps a <= j < b, a and b the
        # first grid points at or after s and e. The grid holds the step
        # loop's own floats and reaches past every plug-out.
        last = max(float(params.plug_out_h.max()), 0.0)
        grid = np.arange(int(np.ceil(last / dt_hours)) + 2) * dt_hours
        a_m, b_m, a_e, b_e = np.searchsorted(grid, np.stack(
            [m_start, m_end, params.plug_in_h, params.plug_out_h]))
        m_ok, e_ok = b_m > a_m, b_e > a_e  # a window shorter than a step is empty
        # Yesterday's session ending on the step today's starts is one
        # continuous connection: no departure, no arrival, no SOC reset.
        merged = m_ok & e_ok & (b_m >= a_e)
        # Sessions per [yesterday's or today's, vehicle], where `_on`: the steps of arrival (0:
        # placed at t = 0) and of plug-out.
        self._start, self._end = (np.stack(s).astype(np.int32) for s in (
            [a_m, a_e], [np.where(merged, b_e, b_m), b_e]))
        self._on = np.stack([m_ok, e_ok & ~merged])
        self._arrivals = _bucket(self._start, self._on & (self._start > 0), grid.size, lanes)
        self._departures = _bucket(self._end, self._on, grid.size, lanes)

        # Per flat id, the parameters the steps read; per [mode, flat id], the
        # SOC change per step and the SOC below which an anchor is watched
        # for forced charging (charging once; see `step`).
        self._m_end, self._plug_out, self._demanded, self._rate_c, rate_d = np.tile([
            m_end, params.plug_out_h, params.demanded_soc, params.charge_rate_per_h,
            params.discharge_rate_per_h], lanes)
        zero, never = np.zeros(n * lanes), np.full(n * lanes, -np.inf)
        dsoc_c, dsoc_d = self._rate_c * dt_hours, rate_d * dt_hours
        self._slopes = np.stack([zero, dsoc_c, zero, -dsoc_d, dsoc_c])
        self._watch_below = np.stack([never, -never, self._demanded, -never, never])
        # Anchors: SOC `_soc_a` at step `_k_a` (a float: no int conversion in `_soc`) in `_mode`;
        # `_due`: the step (-1: none) of full or empty; `_watch`, `_dirty`: to check, to commit.
        self._soc_a, self._k_a, self._slope = np.zeros((3, n * lanes))
        self._mode = np.full(n * lanes, DISCONNECTED, dtype=np.int8)
        self._due = np.full(n * lanes, -1, dtype=np.int64)
        self._watch, self._dirty = np.zeros((2, n * lanes), dtype=bool)
        rated = np.stack([params.rated_charge_kw, params.rated_discharge_kw], axis=1)
        if rated.sum() >= 2.0 ** 62 / _KW_UNITS:
            raise ValueError("fleet rated power exceeds the running sums' range")
        self._units = np.tile(np.rint(rated * _KW_UNITS).astype(np.int64), (lanes, 1))
        from .control import actuate_array  # control and imm read this module's mode codes
        from .imm import term_table
        self._actuate, self._term_table = actuate_array, term_table(params.soc_min, params.soc_max)
        # Per mode, the bound a moving anchor heads for; the range a command's layout must span;
        # a SOC's position in the term table: how many of `_reach` it reaches.
        lo, hi = params.soc_min, params.soc_max
        self._bound, self._range = np.array([lo, hi, lo, lo, hi]), (lo, hi)
        self._reach = np.array([np.nextafter(lo, hi), hi])
        self._held = np.zeros((n * lanes, 4), dtype=np.int64)  # each vehicle's share of the sums
        self._sums = np.zeros((lanes, 4), dtype=np.int64)  # per lane

        # Carried-over vehicles, whose yesterday window holds t = 0, charged
        # without interruption since plugging in; fast-forward that history.
        connected = (m_ok & (a_m == 0)) | (e_ok & (a_e == 0))
        elapsed = np.where(m_ok & (a_m == 0), -m_start, 0.0)
        soc = np.minimum(params.initial_soc + elapsed * params.charge_rate_per_h, params.soc_max)
        ids = np.flatnonzero(connected)
        self.set_state((ids + n * np.arange(lanes)[:, None]).ravel(), np.tile(soc[ids], lanes),
                       np.tile(np.where(soc[ids] >= params.soc_max, IS, CS), lanes))
        # The envelopes at t = 0; step 1 commits the placed vehicles again at its SOC, as it
        # does every anchor (one placed at a bound in a moving mode leaves it on that step).
        self._commit(0)
        self._dirty[:] = self._mode != DISCONNECTED

    def _soc(self, ids: np.ndarray, k: int) -> np.ndarray:
        return _soc(self._soc_a[ids], self._slope[ids], k, self._k_a[ids], *self._range)

    def _anchor(self, ids: np.ndarray, soc, mode, k: int) -> None:
        """Re-anchor `ids` at (soc, mode) as of step k for the commit, watch those whose
        forced-charging rule can bind, and set the step at which each moving one reaches full
        or empty."""
        self._soc_a[ids], self._k_a[ids], self._mode[ids] = soc, k, mode
        mode = self._mode[ids]
        self._watch[ids] = self._soc_a[ids] < self._watch_below[mode, ids]
        slope = self._slope[ids] = self._slopes[mode, ids]
        self._dirty[ids], self._due[ids] = True, -1
        moving = slope.nonzero()[0]
        if moving.size:
            ids, slope = ids[moving], slope[moving]
            bound = self._bound.take(mode[moving])
            self._due[ids] = _due(k, bound, self._soc_a[ids], slope)

    def _commit(self, k: int) -> None:
        """Move the marked vehicles' shares of their lane's sums to step k and refresh
        `envelopes`; with none marked they stand, but for the first build at t = 0."""
        ids = self._dirty.nonzero()[0]
        if ids.size:
            self._dirty[ids] = False
            terms = _terms(self._term_table, self._reach, self._units[ids], self._soc(ids, k),
                           self._mode[ids])
            np.add.at(self._sums, ids // self.params.n_ev, terms - self._held[ids])
            self._held[ids] = terms
        elif k:
            return
        self.envelopes = tuple([FlexibilityEnvelope(*envelope_rule(*sums))
                                for sums in (self._sums / _KW_UNITS).tolist()])

    def set_state(self, ids, soc, mode) -> None:
        """Place connected vehicles (flat ids) at (soc, mode); the next step commits them."""
        self._anchor(np.asarray(ids, dtype=np.int64), soc, mode, self.step_index)

    def snapshot(self, lane: int = 0) -> FleetSnapshot:
        n, k = self.params.n_ev, self.step_index
        ids = (self._mode[lane * n:(lane + 1) * n] != DISCONNECTED).nonzero()[0]
        return FleetSnapshot(ids, self._soc(ids + lane * n, k), self._mode[ids + lane * n],
                             self.params.rated_charge_kw[ids], self.params.rated_discharge_kw[ids])

    def step(self, *commands) -> FleetStep:
        """Advance every lane one step under its command (one per lane; none: all uncontrolled):
        plug events, forced-charging checks, actuation, boundary absorption; then refresh
        `envelopes`. Returns the step's plug events."""
        lanes = self.lanes
        if len(commands) not in (0, lanes):
            raise ValueError(f"{lanes} lanes take {lanes} commands, not {len(commands)}")
        for c in commands:
            if c is not None and (c.layout.soc_min, c.layout.soc_max) != self._range:
                raise ValueError("a command's layout must span the fleet's SOC range")
        k0 = self.step_index
        j = self.step_index = k0 + 1
        params, n, t0, t1 = self.params, self.params.n_ev, k0 * self.dt_hours, j * self.dt_hours
        departures, arrivals = _events(self._departures, j), _events(self._arrivals, j)
        in_ids, out_ids = arrivals[:arrivals.size // lanes], departures[:departures.size // lanes]
        out_soc, out_mode = _NO_SOC, _NO_MODE
        if departures.size:  # the commit takes out their shares
            out_soc, out_mode = self._soc(departures, k0), self._mode[departures]
            self._mode[departures] = DISCONNECTED
            self._due[departures], self._watch[departures] = -1, False
            self._dirty[departures] = True
        in_soc, in_mode = _NO_SOC, _NO_MODE
        if arrivals.size:
            in_soc, in_mode = params.initial_soc[in_ids], np.full(in_ids.size, CS, dtype=np.int8)
            self._anchor(arrivals, np.concatenate([in_soc] * lanes), CS, k0)

        # Forced-charging promotion, sticky until plug-out or full, of the watched vehicles. A
        # charging one is checked once: its slack demanded - soc - (deadline - t0) * rate stays.
        check = self._watch.nonzero()[0]
        if check.size:
            soc = self._soc(check, k0)
            self._watch[check] = self._mode[check] != CS
            binding = _binds(self._demanded[check], soc,
                             _deadline(t1, self._m_end[check], self._plug_out[check]), t0,
                             self._rate_c[check])
            if binding.any():
                self._anchor(check[binding], soc[binding], FCS, k0)

        # A command can switch only vehicles whose draw lies below its threshold.
        live = [(r, c) for r, c in enumerate(commands) if c is not None and c.threshold > 0.0]
        if live:  # each lane's candidates, switched by one rule in one pass
            alpha = step_stream(self.seed, k0).random(n)
            low = (alpha < max(command.threshold for _, command in live)).nonzero()[0]
            bases = [low[alpha[low] < command.threshold] for _, command in live]
            bases = [b[c.addressed.take(self._mode[b + r * n])] for (r, c), b in zip(live, bases)]
            ids = np.concatenate([base + r * n for (r, _), base in zip(live, bases)])
            if ids.size:
                soc, mode, new, at = self._soc(ids, k0), self._mode[ids], [], 0
                for (_, command), base in zip(live, bases):
                    if base.size:
                        cut = slice(at, at := at + base.size)
                        new.append(self._actuate(mode[cut], soc[cut], command, alpha[base]))
                moved = (new := np.concatenate(new)) != mode
                self._anchor(ids[moved], soc[moved], new[moved], k0)

        # Boundary absorption, clamp and go idle: every vehicle due now, this step's anchors too.
        absorbed = (self._due == j).nonzero()[0]
        if absorbed.size:
            self._anchor(absorbed, self._bound.take(self._mode[absorbed]), IS, j)
        self._commit(j)
        return FleetStep(in_ids, in_soc, in_mode, out_ids, out_soc, out_mode)


class Schedule:
    """The uncontrolled run of a one-lane fleet, known at t = 0: each step's four sums and
    envelope row (`sums`, `_rows`), its plug events, and its sessions. A session connects
    charging, is promoted on its first step if its forced-charging rule binds (its only check:
    a charging anchor's slack stays), idles from full and leaves: it holds one share of the
    sums up to full and one up to plug-out, and each step's sums add the changes of share at
    it. The schedule reads the fleet at t = 0 and never writes it. `sessions` (read-only, by
    vehicle, yesterday's first): vehicle id, first step, plug-out step, step of full (or
    plug-out), anchor SOC, slope, anchor step, mode, and mode at t = 0 before promotion."""

    def __init__(self, fleet: Fleet, n_steps: int):
        f, p, dt, (lo, hi) = fleet, fleet.params, fleet.dt_hours, fleet._range
        self._range = lo, hi
        if f.lanes != 1 or f.step_index or (f._watch & (f._mode != CS)).any():
            raise ValueError("a schedule replays a one-lane fleet from t = 0 with no idle vehicle "
                             "watched")
        # Sessions by vehicle, yesterday's first: first step c1 (1 if placed), plug-out step b.
        ids, which = f._on.T.nonzero()
        start, b = f._start[which, ids], f._end[which, ids]
        c1, placed = np.maximum(start, 1), start == 0
        soc = np.where(placed, f._soc_a[ids], p.initial_soc[ids])
        mode = np.where(placed, f._mode[ids], CS)
        k, slope = c1 - 1, f._slopes[mode, ids]  # k: the anchor's step
        check = _soc(soc, slope, k, k, lo, hi)  # a charging session is checked once, if there
        promote = (mode == CS) & (c1 < b) & _binds(f._demanded[ids], check, _deadline(
            c1 * dt, f._m_end[ids], f._plug_out[ids]), k * dt, f._rate_c[ids])
        soc, mode, t0_mode = np.where(promote, check, soc), np.where(promote, FCS, mode), mode
        full, slope = b.copy(), f._slopes[mode, ids]  # full: the step of full, or plug-out
        on = slope.nonzero()[0]
        full[on] = np.minimum(_due(k[on], f._bound.take(mode[on]), soc[on], slope[on]), b[on])
        del which, check, promote, on  # freed early: held to the end, they raised peak RSS
        self.sessions = ids, start, b, full, soc, slope, k, mode, t0_mode
        for array in self.sessions:
            array.flags.writeable = False
        self.rated, self.n_steps = (p.rated_charge_kw, p.rated_discharge_kw), n_steps

        # Each session's share from its first step, then idle at the ceiling from full.
        units = f._units[ids]
        first = _terms(f._term_table, f._reach, units, _soc(soc, slope, c1, k, lo, hi), mode)
        idle = _terms(f._term_table, f._reach, units, hi, IS)
        change = np.zeros((n_steps + 2, 4), dtype=np.int64)  # the last row: after the run
        change[0], change[1] = f._sums[0], -f._sums[0]  # step 1 commits t = 0's shares anew
        for at, share, move in ((c1, first, np.add), (full, first, np.subtract),
                                (full, idle, np.add), (b, idle, np.subtract)):
            move.at(change, np.minimum(at, n_steps + 1), share)
        del units, first, idle
        self.sums = np.cumsum(change[:-1], axis=0)
        self._rows = np.stack(envelope_rule(*(self.sums / _KW_UNITS).T), 1)

        # Step j's arrivals are [ptr[2j], ptr[2j + 1]) of the flat plug events, then its
        # departures, with their state the step before, up to ptr[2j + 2]; ids ascending. Only
        # the run's events are kept.
        arrive, absorbed = (start > 0).nonzero()[0], full < b  # absorbed: full by b - 1
        key = np.concatenate([2 * start[arrive], 2 * b + 1])
        order = np.argsort(key, kind="stable")[:np.count_nonzero(key <= 2 * n_steps + 1)]
        self.ids = np.concatenate([ids[arrive], ids])[order]
        self.soc = np.concatenate([p.initial_soc[ids[arrive]], np.where(
            absorbed, hi, _soc(soc, slope, b - 1, k, lo, hi))])[order]
        self.connection = np.concatenate([np.full(arrive.size, CS, np.int8),
                                          np.where(absorbed, IS, mode)])[order]
        self._ptr = memoryview(np.cumsum(np.r_[0, np.bincount(key, minlength=2 * n_steps + 3)]))

    def session_soc(self, step, on) -> np.ndarray:
        """The SOC law of the sessions `on` at `step` (one, or one each), as if never full."""
        soc, slope, k = (self.sessions[i][on] for i in (4, 5, 6))
        return _soc(soc, slope, step, k, *self._range)
