"""Aggregate state-space models of the fleet.

The SOC range is split into N intervals per connection mode (charging block,
idle block, discharging block, low to high SOC inside each block). Two
layouts share one interface:

* plain variant ("ssm"): 3N interval states plus a forced-charging state.
  Vehicles parked at the SOC boundaries are folded into the edge idle
  intervals, which silently keeps crediting them with flexibility they no
  longer have. That defect is reproduced deliberately.
* extended variant ("essm"): two extra absorbing states for idle-at-floor and
  idle-at-ceiling vehicles, with dedicated control inputs back out of them.

That fold, in `StateLayout.state_table` (the state of each mode and SOC slot),
is the one place where the variants differ; every other structure is read off
the table. Uncontrolled, the plain chain is the extended one lumped by it
(`fold`), and the prediction run derives the plain model from the extended one
that way. The population moves under a column-stochastic transition matrix
estimated by Monte Carlo, is steered by a signed incidence input matrix (one
column per switch between two states), and maps to (power, upper bound, lower
bound) through `imm`'s capability rule scaled by the connected count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FleetDistributions
from .fleet import (CS, DISCONNECTED, DS, IS, FleetSnapshot, FleetStep, FlexibilityEnvelope,
                    Schedule, envelope_rule, soc_rates)
from .imm import term_table

SSM = "ssm"
ESSM = "essm"

# Tolerances for state updates: entries below -HARD_NEG are an admissibility
# bug, anything closer to zero is clamped as float dust / churn mismatch.
HARD_NEG = 1e-9
SUM_TOL = 1e-9


@dataclass(frozen=True)
class StateLayout:
    """Geometry of a state vector: interval count, variant, SOC range."""

    n_intervals: int
    variant: str
    soc_min: float = 0.0
    soc_max: float = 1.0

    def __post_init__(self):
        if self.n_intervals < 2:
            raise ValueError("need at least 2 SOC intervals")
        if self.variant not in (SSM, ESSM):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not self.soc_min < self.soc_max:
            raise ValueError("soc_min must be below soc_max")
        # State of each (mode code, SOC slot), flat; -1 in the disconnected row.
        n = self.n_intervals
        first = np.array([-1, self.charging.start, self.idle.start, self.discharging.start,
                          self.fcs_index])[:, None]
        table = first + np.isin(np.arange(5), (CS, IS, DS))[:, None] * np.r_[:n, 0, n - 1]
        if self.variant == ESSM:
            table[IS, n:] = self.empty_idle_index, self.full_idle_index
        object.__setattr__(self, "state_table", table.ravel())
        # `edges`: the least SOC of each slot rank past the floor: above the floor, then
        # (soc - floor)/width > k for each interval k = 1..N-1, then the ceiling.
        lo, hi, k = self.soc_min, self.soc_max, np.arange(1.0, n)
        edge = lo + k * self.width
        while ((edge - lo) / self.width > k).any():  # lower them all below their edges,
            edge = np.nextafter(edge, lo)
        while ((edge - lo) / self.width <= k).any():  # then raise each to its edge
            edge = np.where((edge - lo) / self.width <= k, np.nextafter(edge, hi), edge)
        object.__setattr__(self, "edges", np.r_[np.nextafter(lo, hi), edge, hi])
        object.__setattr__(self, "_slots", np.r_[n, :n, n + 1])

    @property
    def dimension(self) -> int:
        n = self.n_intervals
        return 3 * n + 3 if self.variant == ESSM else 3 * n + 1

    @property
    def input_dimension(self) -> int:
        n = self.n_intervals
        return 4 * n + 2 if self.variant == ESSM else 4 * n

    @property
    def width(self) -> float:
        return (self.soc_max - self.soc_min) / self.n_intervals

    # Block offsets: charging 0..N-1, idle N..2N-1, discharging 2N..3N-1.
    @property
    def charging(self) -> slice:
        return slice(0, self.n_intervals)

    @property
    def idle(self) -> slice:
        return slice(self.n_intervals, 2 * self.n_intervals)

    @property
    def discharging(self) -> slice:
        return slice(2 * self.n_intervals, 3 * self.n_intervals)

    @property
    def empty_idle_index(self) -> int | None:
        return 3 * self.n_intervals if self.variant == ESSM else None

    @property
    def full_idle_index(self) -> int | None:
        return 3 * self.n_intervals + 1 if self.variant == ESSM else None

    @property
    def fcs_index(self) -> int:
        return self.dimension - 1

    def keys(self, connection, soc) -> np.ndarray:
        """Flat (mode code, SOC slot) keys into `state_table`. The slot is N at
        the floor, N + 1 at the ceiling, and else the 0-based interval
        ceil((soc - floor)/width) - 1, at most N - 1. Keys depend only on the
        interval count and SOC range, so layouts sharing those share them."""
        rank, n = self.edges.searchsorted(soc, "right"), self.n_intervals  # edges reached
        return np.asarray(connection, dtype=np.intp) * (n + 2) + self._slots.take(rank)

    def state_index(self, connection, soc) -> np.ndarray:
        """Map (connection mode, SOC) telemetry to state indices."""
        out = self.state_table.take(self.keys(connection, soc))
        if (out < 0).any():
            raise ValueError("cannot discretize disconnected vehicles")
        return out


@dataclass
class AggregateState:
    layout: StateLayout
    x: np.ndarray
    n_ev_connected: int
    p_ac_kw: float
    p_ad_kw: float

    @property
    def empty(self) -> bool:
        return self.n_ev_connected == 0


@dataclass
class SystemMatrices:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def state_of(layout: StateLayout, counts: np.ndarray, rated, connected: np.ndarray,
             charging: np.ndarray, discharging: np.ndarray) -> AggregateState:
    """The state a resync takes from the connected vehicles' `counts` per state: x = counts / n,
    and the mean rated (charging, discharging) powers, `rated` masked by `charging` and by
    `discharging`, or by `connected` where a set is empty, so the output matrix keeps describing
    what the fleet could do."""
    n = int(counts.sum())
    if n == 0:
        return AggregateState(layout, np.zeros(layout.dimension), 0, 0.0, 0.0)
    sets = (np.compress(m if m.any() else connected, r)
            for r, m in zip(rated, (charging, discharging)))
    p_ac, p_ad = (float(v.sum() / v.size) for v in sets)  # `mean` bitwise, without its wrapper
    return AggregateState(layout, counts / n, n, p_ac, p_ad)


def discretize(snapshot: FleetSnapshot, layout: StateLayout) -> AggregateState:
    """Bin connected vehicles into the layout's states (`state_of`)."""
    mode = snapshot.connection
    counts = np.bincount(layout.state_index(mode, snapshot.soc), minlength=layout.dimension)
    return state_of(layout, counts, (snapshot.rated_charge_kw, snapshot.rated_discharge_kw),
                    mode != DISCONNECTED, mode == CS, mode == DS)


def schedule_states(schedule: Schedule, layout: StateLayout, every: int) -> tuple[list, np.ndarray]:
    """`discretize` of the schedule's snapshot every `every` steps from t = 0, off its sessions,
    and the churn counts: per (step, state), the arrivals less the departures `Fleet.step` gives.
    A session changes state only on its first step, on step 1 if placed (a promotion), where its
    SOC crosses an interior edge (a moving mode's floor and ceiling slots share its edge intervals'
    states), when full and at plug-out: one int64 table of those changes per (row ceil(step /
    every), state) and a cumsum count exactly. A crossing is one division, settled by the SOC law
    there and a step before (it is monotone). Means gather in session order, as the snapshot."""
    ids, start, end, full, soc, slope, k, mode, t0_mode = schedule.sessions
    rows, edges = schedule.n_steps // every + 1, layout.edges
    c1, placed = np.maximum(start, 1), ((start == 0) & (end > 1)).nonzero()[0]
    # The state of each (mode, rank): how many edges a SOC reaches (`StateLayout.keys`).
    bins = layout.state_table.take(layout.keys(np.arange(5)[:, None], np.r_[layout.soc_min, edges]))

    def state(step, on=slice(None)):  # of the sessions `on` at `step`, as the snapshot bins it
        idle = step >= full[on]
        return bins[np.where(idle, IS, np.where(step == 0, t0_mode[on], mode[on])),
                    edges.searchsorted(np.where(idle, layout.soc_max,
                                                schedule.session_soc(step, on)), "right")]

    # Churn in the narrowest ints that hold ±n_ev (int64 measured more peak RSS); last row: after.
    left, arriving, after = state(end - 1), (start > 0).nonzero()[0], schedule.n_steps + 1
    arrived = bins[CS, edges.searchsorted(schedule.params.initial_soc[ids[arriving]], "right")]
    churn = np.zeros((after + 1, layout.dimension), np.min_scalar_type(-schedule.params.n_ev - 1))
    np.add.at(churn, (np.minimum(start[arriving], after), arrived), 1)
    np.subtract.at(churn, (np.minimum(end, after), left), 1)

    def changes():  # (steps, states before them, states from them; None: not connected)
        yield start, None, state(start)
        yield 1, state(0, placed), state(1, placed)
        moving = ((slope > 0) & (c1 + 1 < full)).nonzero()[0]  # may cross an edge in (c1, full)
        soc_a, rate, k_a, c1_m, full_m = (a[moving] for a in (soc, slope, k, c1, full))
        for r in range(1, layout.n_intervals):
            ahead = np.ceil(np.maximum(edges[r] - soc_a, 0.0) / rate)  # steps from the anchor
            at = np.minimum(k_a + ahead, full_m).astype(np.int32)
            reached = schedule.session_soc(np.stack([at - 1, at]), moving) >= edges[r]
            at = at - reached[0] + ~reached[1]
            inside = ((c1_m < at) & (at < full_m)).nonzero()[0]
            yield at[inside], bins[mode[moving[inside]], r], bins[mode[moving[inside]], r + 1]
        filling = ((c1 < full) & (full < end)).nonzero()[0]
        yield full[filling], state(full[filling] - 1, filling), state(full[filling], filling)
        yield end, left, None

    cells = np.zeros((rows + 1) * layout.dimension, np.int64)  # the last row: after the run
    for steps, old, new in changes():
        row = np.minimum(-(-steps // every), rows) * layout.dimension
        for states, sign in ((new, 1), (old, -1)):
            if states is not None:
                cells += sign * np.bincount(row + states, minlength=cells.size)
    counts = np.cumsum(cells.reshape(rows + 1, -1)[:-1], axis=0)
    del cells, row, states, old, c1, placed, left, arrived  # freed before the means

    # Each session's rows from which it is connected, gone and not charging (a session promoted
    # on step 1 charges at t = 0 only). A block of 16 rows gathers the sessions connected in it.
    first, gone, filled = (np.minimum(-(-s // every), rows).astype(np.min_scalar_type(rows))
                           for s in (start, end, full))
    charging_to, out = np.where(mode == CS, filled, t0_mode == CS), []
    rated_kw = schedule.params.rated_charge_kw, schedule.params.rated_discharge_kw
    for i0 in range(0, rows, 16):
        near = ((first < i0 + 16) & (i0 < gone)).nonzero()[0]
        on_from, on_to, cs_to, who = (a.take(near) for a in (first, gone, charging_to, ids))
        rated, nothing = [r.take(who) for r in rated_kw], np.zeros(near.size, bool)
        for i in range(i0, min(i0 + 16, rows)):
            on = (on_from <= i) & (i < on_to)
            out.append(state_of(layout, counts[i], rated, on, on & (i < cs_to), nothing))
    return out, churn[:-1]


def estimate_transition_matrix(distributions: FleetDistributions, layout: StateLayout,
                               dt_hours: float, n_samples: int = 100_000,
                               seed: int = 0) -> np.ndarray:
    """Monte Carlo estimate of the per-step transition matrix.

    Draws parameter triples, converts them to one-step SOC moves, and under the
    uniform-within-interval assumption turns the mean move into an adjacent-interval transfer
    probability move/width: upward through the charging block, downward through the discharging
    block, identity for idle (see `build_transition_matrix`)."""
    return build_transition_matrix(
        layout, *move_probabilities(distributions, layout.width, dt_hours, n_samples, seed))


def move_probabilities(distributions: FleetDistributions, width: float, dt_hours: float,
                       n_samples: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """(p_up, p_down) of `estimate_transition_matrix`, for every layout of this interval `width`."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if dt_hours <= 0:
        raise ValueError("dt must be > 0")
    rng = np.random.default_rng(seed)
    power = distributions.rated_power_kw.sample(rng, n_samples)
    eff = distributions.efficiency.sample(rng, n_samples)
    cap = distributions.capacity_kwh.sample(rng, n_samples)
    ds_charge, ds_discharge = (rate * dt_hours for rate in soc_rates(power, eff, cap))
    worst = max(ds_charge.max(), ds_discharge.max())
    if worst >= width:
        raise ValueError(
            f"one-step SOC move {worst:.4g} reaches a full interval width "
            f"{width:.4g}; shrink dt or widen the intervals")
    return (float(np.minimum(ds_charge / width, 1.0).mean()),
            float(np.minimum(ds_discharge / width, 1.0).mean()))


def build_transition_matrix(layout: StateLayout, p_up: float, p_down: float) -> np.ndarray:
    """Assemble the column-stochastic transition matrix from the two
    adjacent-interval move probabilities: a charging interval moves up one SOC
    slot and a discharging one down one; off the edge of its block a vehicle
    lands where the state table puts an idle one at the ceiling or the floor.
    Every other state holds."""
    if not (0.0 <= p_up <= 1.0 and 0.0 <= p_down <= 1.0):
        raise ValueError("move probabilities must lie in [0, 1]")
    n, table = layout.n_intervals, layout.state_table.reshape(5, -1)
    a = np.eye(layout.dimension)
    for src, dst, p in ((table[CS, :n], np.r_[table[CS, 1:n], table[IS, n + 1]], p_up),
                        (table[DS, :n], np.r_[table[IS, n], table[DS, :n - 1]], p_down)):
        a[src, src] = 1.0 - p
        a[dst, src] = p
    return a


def build_input_matrix(layout: StateLayout) -> np.ndarray:
    """Signed incidence matrix of the responding modes: one column per switch
    of a (mode, SOC slot) to another mode between the states the table gives:
    stop charging, start discharging, stop discharging, start charging over
    the intervals, then start charging at the floor and discharging at the
    ceiling, which the plain table folds into switches listed before."""
    n, table = layout.n_intervals, layout.state_table.reshape(5, -1)
    inside = range(n)
    switches = ((CS, IS, inside), (IS, DS, inside), (DS, IS, inside), (IS, CS, inside),
                (IS, CS, [n]), (IS, DS, [n + 1]))
    moves = dict.fromkeys((table[a, k], table[b, k]) for a, b, slots in switches for k in slots)
    b = np.zeros((layout.dimension, len(moves)))
    for col, (src, dst) in enumerate(moves):
        b[src, col], b[dst, col] = -1.0, 1.0
    return b


def output_coefficients(layout: StateLayout) -> np.ndarray:
    """Per-state output coefficients before scaling, rows (power, upper,
    lower), unit average rated powers: `imm`'s term table at each state's
    representative (mode, SOC position), its smallest key in the state table.
    A negative entry draws on P_ac and a positive one on P_ad; multiply them
    by (p_ac, p_ad) and the connected count to get the output matrix."""
    n = layout.n_intervals
    first = np.unique(layout.state_table, return_index=True)[1][1:]  # [0]: disconnected
    mode, slot = np.divmod(first, n + 2)
    position = np.r_[np.ones(n, np.intp), 0, 2].take(slot)  # inside, the floor, the ceiling
    terms = term_table(layout.soc_min, layout.soc_max)[position, mode].sum(axis=1)
    return np.array(envelope_rule(*terms.T), dtype=float)


def fold(plain: StateLayout, ext: StateLayout) -> tuple[np.ndarray, np.ndarray]:
    """The fold, read off the state tables: the 0/1 matrix F, x_plain = x_ext F, that adds each
    boundary state to its edge idle interval, and `keep`, the extended state of each plain
    state's representative key, so `output_coefficients(ext)[:, keep]` is the plain one's."""
    f, on = np.zeros((ext.dimension, plain.dimension)), plain.state_table >= 0
    f[ext.state_table[on], plain.state_table[on]] = 1.0
    return f, ext.state_table.take(np.unique(plain.state_table, return_index=True)[1][1:])


def build_output_matrix(state: AggregateState) -> np.ndarray:
    """Scale the sign pattern into kW: -1 entries carry the average rated charging power, +1
    entries the average rated discharging power, times the connected count."""
    coeff = output_coefficients(state.layout)
    return state.n_ev_connected * _scale_output(coeff, coeff > 0, state)


def _scale_output(coeff: np.ndarray, positive: np.ndarray, state: AggregateState) -> np.ndarray:
    if state.p_ac_kw < 0 or state.p_ad_kw < 0:
        raise ValueError("average rated powers must be >= 0")
    return np.where(positive, coeff * state.p_ad_kw, coeff * state.p_ac_kw)


def measure(c: np.ndarray, x: np.ndarray, noise_std_kw=None,
            rng: np.random.Generator | None = None) -> np.ndarray:
    """The output map y = C x (power, upper, lower) of a step, or of a stack of steps, plus
    Gaussian noise of std `noise_std_kw` drawn from `rng` when one is given."""
    y = c @ x if x.ndim == 1 else np.matmul(c, x[:, :, None])[:, :, 0]
    if rng is not None:
        y += rng.normal(0.0, 1.0, y.shape) * noise_std_kw
    return y


def churn_keys(events: FleetStep, layout: StateLayout, lanes: int = 1) -> np.ndarray:
    """`StateLayout.keys` of a step's plug events, binned once for the first `lanes` lanes of
    its fleet: one row per lane, the shared arrivals, then the lane's departures."""
    d = events.n_out
    conn, soc = (np.concatenate([part for r in range(lanes) for part in (a, b[r * d:(r + 1) * d])])
                 for a, b in ((events.in_connection, events.out_connection),
                              (events.in_soc, events.out_soc)))
    return layout.keys(conn, soc).reshape(lanes, -1)


def churn_noise(n_in: int, n_new, keys: np.ndarray, layout: StateLayout) -> np.ndarray:
    """The churn disturbance (N_in x_in - N_out x_out) / N_new of one step: `keys` holds its plug
    events' keys, the `n_in` arrivals first, then the departures, and `n_new` the count connected
    after it. Integer counts, one division, as `run_period` takes for its steps."""
    d, states = layout.dimension, layout.state_table.take(keys)
    return (np.bincount(states[:n_in], minlength=d)
            - np.bincount(states[n_in:], minlength=d)) / n_new


class AggregateModel:
    """One variant's running model: matrices plus the current state, with the
    resync / advance cycle used by the scenario loops."""

    def __init__(self, layout: StateLayout, a: np.ndarray):
        self.layout = layout
        self.mats = SystemMatrices(A=a, B=build_input_matrix(layout), C=np.zeros((3, layout.dimension)))
        self.state: AggregateState | None = None
        self._coeff = output_coefficients(layout)
        self._positive = self._coeff > 0
        self._zero = self._coeff * 0.0  # the pattern of an empty fleet: powers (0, 0)

    @classmethod
    def from_distributions(cls, layout: StateLayout, distributions: FleetDistributions,
                           dt_hours: float, n_samples: int = 100_000, seed: int = 0):
        a = estimate_transition_matrix(distributions, layout, dt_hours, n_samples, seed)
        return cls(layout, a)

    def resync(self, telemetry: FleetSnapshot | AggregateState) -> None:
        """Replace the model state with fresh telemetry (periodic hard update): a snapshot, or
        the state `state_of` gives its counts. C is n times the pattern, the sign pattern scaled
        by its (p_ac, p_ad), held to the next resync (`_fill_outputs`). Re-binning every vehicle
        also refreshes forced-charging membership: promotion into forced charging is observed
        here rather than modeled in the transition matrix."""
        state = (telemetry if isinstance(telemetry, AggregateState)
                 else discretize(telemetry, self.layout))
        self._pattern = _scale_output(self._coeff, self._positive, state)
        self.state, self.mats.C = state, state.n_ev_connected * self._pattern

    def pre_control(self) -> AggregateState:
        """Predicted state for the upcoming step before any input acts."""
        st = self.state
        return AggregateState(self.layout, self.mats.A @ st.x, st.n_ev_connected, st.p_ac_kw,
                              st.p_ad_kw)

    def power_kw(self, state: AggregateState) -> float:
        """Aggregate power of `state` under the current output matrix."""
        return float((self.mats.C @ state.x)[0])

    def advance(self, events: FleetStep, u: np.ndarray | None = None,
                pre: AggregateState | None = None, keys: np.ndarray | None = None) -> None:
        """Apply one step of x' = A x + B u + w, w the churn in the plug events of one fleet step;
        `keys` are this model's lane's row of their `churn_keys` (without them, the step's first
        lane's). `pre` is the `pre_control` state `u` was planned on; it is left unchanged.

        Entries of A x + B u below -1e-9 mean an inadmissible input slipped through planning and
        raise; smaller negatives are clamped as float dust. A x alone has none: A and x are >= +0
        (np.maximum(-0.0, 0.0) is +0.0). The rest of the state step is `_finish_step`'s, and C is
        `_fill_outputs`' one row; an emptied fleet keeps the zero pattern to the next resync."""
        st, n_in, n_out = self.state, events.n_in, events.n_out
        n_new, churn = st.n_ev_connected + n_in - n_out, None
        x = self.mats.A @ st.x if pre is None else pre.x.copy()  # finished in place
        if u is not None and n_new > 0:
            x += self.mats.B @ u
            low = np.minimum.reduce(x)
            if low < -HARD_NEG:
                raise ValueError(f"state driven negative ({low:.3e}) by an inadmissible input")
            np.maximum(x, 0.0, out=x)
        if (n_in or n_out) and n_new > 0:
            keys = churn_keys(events, self.layout)[0] if keys is None else keys
            churn = churn_noise(n_in, n_new, keys, self.layout)
        if self._finish_step(x, n_new, churn):
            self._pattern = self._zero
        self._fill_outputs(self.mats.C[None], np.array([max(n_new, 0)]), 1)
        powers = (st.p_ac_kw, st.p_ad_kw) if n_new > 0 else (0.0, 0.0)
        self.state = AggregateState(self.layout, x, max(n_new, 0), *powers)

    def run_period(self, state: AggregateState, churn: np.ndarray, x: np.ndarray,
                   c: np.ndarray) -> np.ndarray:
        """Resync to `state`, then run the uncontrolled recursion over one resync period in place:
        x[0] is the resync's state, x[i] is A x[i - 1] finished by step i's churn (`_finish_step`),
        and `_fill_outputs` then fills the output-matrix stack `c` at once. `churn` holds the churn
        counts of the steps to the next resync's, within the run (`schedule_states`). Returns the
        count connected at each row, then after the period."""
        m = len(x)
        # A schedule's counts are exact, so none falls below 0; the next resync checks them.
        n = np.concatenate(([state.n_ev_connected], churn.sum(axis=1))).cumsum()
        busy, emptied = churn[:m - 1].any(axis=1).tolist(), m
        self.resync(state)
        x[0] = self.state.x
        # A step that empties the fleet resets the state, so its churn, over 1, goes unused. A
        # step whose events cancel in every state skips the add: +0.0 leaves x >= +0 as it is.
        churn = churn[:m - 1] / np.maximum(n[1:m], 1)[:, None]
        for i, n_i in enumerate(n[1:m].tolist(), 1):
            np.matmul(self.mats.A, x[i - 1], out=x[i])
            if self._finish_step(x[i], n_i, churn[i - 1] if busy[i - 1] else None):
                emptied = min(emptied, i)
        self._fill_outputs(c, n[:m], emptied)
        return n

    def _finish_step(self, x: np.ndarray, n_new: int, churn: np.ndarray | None) -> bool:
        """The state step after the recursion, in place, which `advance` and `run_period` share:
        `x`, a step's recursed state, takes the step's `churn` (None: no plug event), is clamped
        and renormalized. The churn term is observed telemetry and may legitimately overdraw an
        interval the model mispredicts between resyncs, hence the clamp. A fleet that empties
        (n_new, the count after the step, is 0) resets to the zero vector, so arrivals into it
        define the state outright through the churn term. Returns whether the fleet emptied."""
        if n_new <= 0:
            x.fill(0.0)
            return True
        if churn is not None:
            x += churn
            np.maximum(x, 0.0, out=x)
        total = np.add.reduce(x)
        if total > 0.0 and abs(total - 1.0) > SUM_TOL:
            x /= total
        return False

    def _fill_outputs(self, c: np.ndarray, n: np.ndarray, emptied: int) -> None:
        """The output-matrix rule, in place over a stack `c` of rows since a resync: C_i = n_i ·
        pattern, n_i the count connected at row i, the held pattern (the resync's until the fleet
        empties) before row `emptied`, the first whose step empties it, and the zero one from it."""
        np.multiply(n[:emptied, None, None], self._pattern, out=c[:emptied])
        if emptied < len(n):
            np.multiply(n[emptied:, None, None], self._zero, out=c[emptied:])

    def envelope(self) -> FlexibilityEnvelope:
        return FlexibilityEnvelope(*measure(self.mats.C, self.state.x).tolist())
