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

The population moves under a column-stochastic transition matrix estimated by
Monte Carlo from the parameter distributions, is steered by a signed
incidence input matrix (one column per responding mode and interval), and
maps to (power, upper bound, lower bound) through a per-state coefficient
matrix scaled by the connected count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FleetDistributions
from .fleet import CS, DS, IS, FleetSnapshot, FleetStep, FlexibilityEnvelope

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

    def interval_index(self, soc) -> np.ndarray:
        """0-based SOC interval: ceil((soc - floor)/width) clamped to [1, N]."""
        soc = np.asarray(soc, dtype=float)
        raw = np.ceil((soc - self.soc_min) / self.width)
        return np.minimum(np.maximum(raw, 1), self.n_intervals).astype(np.int64) - 1

    def keys(self, connection, soc) -> np.ndarray:
        """Flat (mode code, SOC slot) keys into `state_table`, the slot being the
        interval, N at the floor or N + 1 at the ceiling. They depend only on
        the interval count and SOC range, so layouts sharing those share them."""
        soc, n = np.asarray(soc, dtype=float), self.n_intervals
        slot = np.where(soc <= self.soc_min, n,
                        np.where(soc >= self.soc_max, n + 1, self.interval_index(soc)))
        return np.asarray(connection, dtype=np.intp) * (n + 2) + slot

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


def discretize(snapshot: FleetSnapshot, layout: StateLayout) -> AggregateState:
    """Bin connected vehicles into the layout's states.

    Average rated powers are taken over the charging / discharging sets; when
    a set is empty they fall back to the mean over all connected vehicles so
    the output matrix keeps describing what the fleet could do.
    """
    n_conn = snapshot.n_connected
    if n_conn == 0:
        return AggregateState(layout, np.zeros(layout.dimension), 0, 0.0, 0.0)
    idx = layout.state_index(snapshot.connection, snapshot.soc)
    counts = np.bincount(idx, minlength=layout.dimension).astype(float)
    x = counts / n_conn
    cs = snapshot.connection == CS
    ds = snapshot.connection == DS
    p_ac = snapshot.rated_charge_kw[cs].mean() if cs.any() \
        else snapshot.rated_charge_kw.mean()
    p_ad = snapshot.rated_discharge_kw[ds].mean() if ds.any() \
        else snapshot.rated_discharge_kw.mean()
    return AggregateState(layout, x, n_conn, float(p_ac), float(p_ad))


def estimate_transition_matrix(distributions: FleetDistributions, layout: StateLayout,
                               dt_hours: float, n_samples: int = 100_000,
                               seed: int = 0) -> np.ndarray:
    """Monte Carlo estimate of the per-step transition matrix.

    Draws parameter triples, converts them to one-step SOC moves, and under
    the uniform-within-interval assumption turns the mean move into an
    adjacent-interval transfer probability move/width: upward through the
    charging block, downward through the discharging block, identity for
    idle. Block edges feed the boundary states (extended variant) or fold
    into the edge idle intervals (plain variant). Boundary and
    forced-charging states are absorbing.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if dt_hours <= 0:
        raise ValueError("dt must be > 0")
    rng = np.random.default_rng(seed)
    power = distributions.rated_power_kw.sample(rng, n_samples)
    eff = distributions.efficiency.sample(rng, n_samples)
    cap = distributions.capacity_kwh.sample(rng, n_samples)
    ds_charge = power * eff / cap * dt_hours
    ds_discharge = power / (eff * cap) * dt_hours
    width = layout.width
    worst = max(ds_charge.max(), ds_discharge.max())
    if worst >= width:
        raise ValueError(
            f"one-step SOC move {worst:.4g} reaches a full interval width "
            f"{width:.4g}; shrink dt or widen the intervals")
    p_up = float(np.minimum(ds_charge / width, 1.0).mean())
    p_down = float(np.minimum(ds_discharge / width, 1.0).mean())
    return build_transition_matrix(layout, p_up, p_down)


def build_transition_matrix(layout: StateLayout, p_up: float, p_down: float) -> np.ndarray:
    """Assemble the column-stochastic transition matrix from the two
    adjacent-interval move probabilities."""
    if not (0.0 <= p_up <= 1.0 and 0.0 <= p_down <= 1.0):
        raise ValueError("move probabilities must lie in [0, 1]")
    n = layout.n_intervals
    dim = layout.dimension
    a = np.eye(dim)
    for k in range(n - 1):  # charging block, upward
        a[k, k] = 1.0 - p_up
        a[k + 1, k] = p_up
    top = n - 1
    a[top, top] = 1.0 - p_up
    if layout.variant == ESSM:
        a[layout.full_idle_index, top] = p_up
    else:
        a[layout.idle.stop - 1, top] = p_up  # fold into the top idle interval
    ds0 = layout.discharging.start
    for k in range(1, n):  # discharging block, downward
        col = ds0 + k
        a[col, col] = 1.0 - p_down
        a[col - 1, col] = p_down
    a[ds0, ds0] = 1.0 - p_down
    if layout.variant == ESSM:
        a[layout.empty_idle_index, ds0] = p_down
    else:
        a[layout.idle.start, ds0] = p_down  # fold into the bottom idle interval
    return a


def build_input_matrix(layout: StateLayout) -> np.ndarray:
    """Signed incidence matrix of the responding modes.

    Column blocks: stop-charging (charging -> idle), start-discharging
    (idle -> discharging), stop-discharging (discharging -> idle),
    start-charging (idle -> charging); the extended variant appends one
    column from idle-at-floor into the lowest charging interval and one from
    idle-at-ceiling into the highest discharging interval. No column touches
    the forced-charging state.
    """
    n = layout.n_intervals
    b = np.zeros((layout.dimension, layout.input_dimension))
    cs, idle, ds = layout.charging.start, layout.idle.start, layout.discharging.start
    for k in range(n):
        b[cs + k, k] = -1.0          # stop charging
        b[idle + k, k] = 1.0
        b[idle + k, n + k] = -1.0    # start discharging
        b[ds + k, n + k] = 1.0
        b[ds + k, 2 * n + k] = -1.0  # stop discharging
        b[idle + k, 2 * n + k] = 1.0
        b[idle + k, 3 * n + k] = -1.0  # start charging
        b[cs + k, 3 * n + k] = 1.0
    if layout.variant == ESSM:
        b[cs, 4 * n] = 1.0  # idle-at-floor -> lowest charging interval
        b[layout.empty_idle_index, 4 * n] = -1.0
        b[ds + n - 1, 4 * n + 1] = 1.0  # idle-at-ceiling -> top discharging interval
        b[layout.full_idle_index, 4 * n + 1] = -1.0
    return b


def output_coefficients(layout: StateLayout) -> np.ndarray:
    """Per-state output coefficients before scaling, rows (power, upper,
    lower), unit average rated powers. Multiply rows by (p_ac, p_ad) and the
    connected count to get the output matrix."""
    dim = layout.dimension
    coeff = np.zeros((3, dim))
    cs, idle, ds = layout.charging, layout.idle, layout.discharging
    coeff[0, cs] = -1.0   # charging injects -P_ac
    coeff[0, ds] = 1.0
    coeff[1, cs] = 1.0    # anything not pinned low can discharge
    coeff[1, idle] = 1.0
    coeff[1, ds] = 1.0
    coeff[2, cs] = -1.0   # anything not pinned high can charge
    coeff[2, idle] = -1.0
    coeff[2, ds] = -1.0
    if layout.variant == ESSM:
        coeff[2, layout.empty_idle_index] = -1.0  # can only charge
        coeff[1, layout.full_idle_index] = 1.0    # can only discharge
    fcs = layout.fcs_index
    coeff[:, fcs] = -1.0  # forced charging pins all three at -P_ac
    return coeff


def build_output_matrix(state: AggregateState) -> np.ndarray:
    """Scale the sign pattern into kW: -1 entries carry the average rated
    charging power, +1 entries the average rated discharging power, times the
    connected count."""
    coeff = output_coefficients(state.layout)
    return state.n_ev_connected * _scale_output(coeff, coeff > 0, state)


def _scale_output(coeff: np.ndarray, positive: np.ndarray, state: AggregateState) -> np.ndarray:
    if state.p_ac_kw < 0 or state.p_ad_kw < 0:
        raise ValueError("average rated powers must be >= 0")
    return np.where(positive, coeff * state.p_ad_kw, coeff * state.p_ac_kw)


def measure(c: np.ndarray, x: np.ndarray, noise_std_kw=None,
            rng: np.random.Generator | None = None) -> np.ndarray:
    """The output map y = C x (power, upper, lower), plus Gaussian noise of
    std `noise_std_kw` drawn from `rng` when one is given."""
    y = c @ x
    if rng is not None:
        y += rng.normal(0.0, 1.0, 3) * noise_std_kw
    return y


def output(state: AggregateState, c: np.ndarray | None = None,
           noise_std_kw=None, rng: np.random.Generator | None = None) -> FlexibilityEnvelope:
    """`measure` as an envelope, with C built from the state when not given."""
    y = measure(build_output_matrix(state) if c is None else c, state.x, noise_std_kw, rng)
    return FlexibilityEnvelope(p_ev_kw=float(y[0]), p_u_kw=float(y[1]), p_l_kw=float(y[2]))


def churn_keys(events: FleetStep, layout: StateLayout) -> np.ndarray:
    """`StateLayout.keys` of a step's arrivals, then its departures."""
    return layout.keys(np.concatenate([events.in_connection, events.out_connection]),
                       np.concatenate([events.in_soc, events.out_soc]))


def compute_noise(n_ev_connected: int, n_in: int, keys: np.ndarray,
                  layout: StateLayout) -> np.ndarray:
    """Churn disturbance from the step's plug events, given as the keys of
    `n_in` arrivals then of the departures:
    (N_in x_in - N_out x_out) / (N_ev + N_in - N_out)."""
    denom = n_ev_connected + 2 * n_in - keys.size
    if denom == 0:
        raise ValueError("fleet emptied during the interval; reset the state instead")
    sign = np.where(np.arange(keys.size) < n_in, 1.0, -1.0)
    return np.bincount(layout.state_table.take(keys), weights=sign,
                       minlength=layout.dimension) / denom


def step(x_pre: np.ndarray, b: np.ndarray, u: np.ndarray | None = None,
         w: np.ndarray | None = None) -> np.ndarray:
    """Finish one step of x' = A x + B u + w from the pre-control state
    x_pre = A x.

    Entries of A x + B u below -1e-9 mean an inadmissible input slipped
    through planning and raise; smaller negatives are clamped as float dust.
    The churn term is observed telemetry and may legitimately overdraw an
    interval the model mispredicts between resyncs, so post-noise negatives
    are clamped and the vector renormalized.
    """
    x1 = x_pre + b @ u if u is not None else x_pre.copy()
    low = x1.min() if x1.size else 0.0
    if low < -HARD_NEG:
        raise ValueError(f"state driven negative ({low:.3e}) by an inadmissible input")
    np.maximum(x1, 0.0, out=x1)
    if w is not None:
        x1 += w
        np.maximum(x1, 0.0, out=x1)
    total = x1.sum()
    if total > 0.0 and abs(total - 1.0) > SUM_TOL:
        x1 = x1 / total
    return x1


class AggregateModel:
    """One variant's running model: matrices plus the current state, with the
    resync / advance cycle used by the scenario loops."""

    def __init__(self, layout: StateLayout, a: np.ndarray):
        self.layout = layout
        self.mats = SystemMatrices(A=a, B=build_input_matrix(layout), C=np.zeros((3, layout.dimension)))
        self.state: AggregateState | None = None
        self._coeff = output_coefficients(layout)
        self._positive = self._coeff > 0

    @classmethod
    def from_distributions(cls, layout: StateLayout, distributions: FleetDistributions,
                           dt_hours: float, n_samples: int = 100_000, seed: int = 0):
        a = estimate_transition_matrix(distributions, layout, dt_hours, n_samples, seed)
        return cls(layout, a)

    def _set_state(self, state: AggregateState, rescale: bool = False) -> None:
        """Install `state`. C is n times the sign pattern scaled by (p_ac,
        p_ad), which change only where `rescale` is set, so C is rebuilt only
        there and where the connected count n changed."""
        if rescale:
            self._pattern = _scale_output(self._coeff, self._positive, state)
        if rescale or state.n_ev_connected != self.state.n_ev_connected:
            self.mats.C = state.n_ev_connected * self._pattern
        self.state = state

    def resync(self, snapshot: FleetSnapshot) -> None:
        """Replace the model state with fresh telemetry (periodic hard update).

        Re-bins every vehicle, which also refreshes forced-charging
        membership; promotion into forced charging is observed here rather
        than modeled in the transition matrix.
        """
        self._set_state(discretize(snapshot, self.layout), rescale=True)

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
        """Apply one recursion step with the churn in the plug events of one
        fleet step; `keys` are their `churn_keys`, when the caller bins them
        once for several models.

        An empty model holds the zero vector, so arrivals into it define the
        state outright through the churn term.
        """
        st = self.state
        n_new = st.n_ev_connected + events.n_in - events.n_out
        if n_new <= 0:
            self._set_state(AggregateState(self.layout, np.zeros(self.layout.dimension),
                                           0, 0.0, 0.0), rescale=True)
            return
        w = None
        if events.n_in or events.n_out:
            keys = churn_keys(events, self.layout) if keys is None else keys
            w = compute_noise(st.n_ev_connected, events.n_in, keys, self.layout)
        x_pre = self.mats.A @ st.x if pre is None else pre.x
        self._set_state(AggregateState(self.layout, step(x_pre, self.mats.B, u, w), n_new,
                                       st.p_ac_kw, st.p_ad_kw))

    def envelope(self) -> FlexibilityEnvelope:
        return output(self.state, self.mats.C)
