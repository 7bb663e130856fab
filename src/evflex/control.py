"""Dispatch controller: target power delta -> admissible input vector ->
broadcast switching probabilities -> per-vehicle random actuation.

A positive delta asks the fleet to inject more power (stage 1 stops charging
vehicles, stage 2 starts discharging idle ones); a negative delta asks it to
absorb more (stop discharging, then start charging). Stage 2 may draw on the
mass stage 1 moves within the same plan, which is how a full charge-to-
discharge swing is planned; physically each vehicle still switches at most
once per step and the per-step re-planning performs the second hop next step.

Within a stage the requested mass is spread proportionally over the source
intervals (one probability per responding mode), the natural broadcast form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import ESSM, AggregateState, StateLayout
from .fleet import CS, DS, IS

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class DispatchCommand:
    """Broadcast switching probabilities per responding mode and interval,
    checked once when built.

    Vehicles locate themselves by (mode, SOC interval) under this layout and
    compare a uniform draw against the probability addressed to them.
    """

    layout: StateLayout
    stop_charging: np.ndarray      # charging -> idle, per interval
    start_discharging: np.ndarray  # idle -> discharging, per interval
    stop_discharging: np.ndarray   # discharging -> idle, per interval
    start_charging: np.ndarray     # idle -> charging, per interval
    empty_to_charging: float = 0.0   # idle-at-floor -> lowest charging interval
    full_to_discharging: float = 0.0  # idle-at-ceiling -> top discharging interval

    def __post_init__(self):
        arrays = (self.stop_charging, self.start_discharging,
                  self.stop_discharging, self.start_charging)
        if any(arr.shape != (self.layout.n_intervals,) for arr in arrays):
            raise ValueError("probability arrays must have one entry per interval")
        p = np.concatenate([*arrays, [self.empty_to_charging, self.full_to_discharging]])
        if not ((p >= -PROB_TOL) & (p <= 1.0 + PROB_TOL)).all():
            raise ValueError("switching probabilities must lie in [0, 1]")
        if (self.start_discharging + self.start_charging > 1.0 + 1e-9).any():
            raise ValueError("total outgoing probability from an idle interval exceeds 1")
        # Per mode code, whether a nonzero probability can switch a vehicle in
        # that mode; actuation leaves the other modes alone.
        stop_c, start_d, stop_d, start_c = (p[:-2].reshape(4, -1) != 0.0).any(axis=1)
        idle = start_d or start_c or (self.layout.variant == ESSM and (p[-2:] > 0.0).any())
        object.__setattr__(self, "addressed", np.array([0, stop_c, idle, stop_d, 0], bool))
        # No draw at or above the largest threshold switches a vehicle.
        idle_sum = (self.start_discharging + self.start_charging).max()
        object.__setattr__(self, "threshold", max(p.max(), idle_sum))

    @classmethod
    def zero(cls, layout: StateLayout) -> "DispatchCommand":
        n = layout.n_intervals
        return cls(layout, np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))


@dataclass
class DispatchPlan:
    """Input vector in fleet-proportion units plus what it achieves.

    source_mass holds the mass each input element was allocated against
    (post earlier-stage moves), used to convert to probabilities. Where
    stage 2 drew on stage-1 in-flight mass, one broadcast can only move the
    part backed by current occupancy: expected_u is that one-step
    expectation (the remainder is reachable on the following step), while
    achieved_delta_kw/saturated describe the full reachable plan.
    """

    layout: StateLayout
    u: np.ndarray
    source_mass: np.ndarray
    achieved_delta_kw: float
    saturated: bool
    expected_u: np.ndarray


def _spread(amount: float, pool: np.ndarray) -> np.ndarray:
    """Distribute `amount` over `pool` proportionally (pool sums > 0)."""
    total = pool.sum()
    if total <= 0.0:
        return np.zeros_like(pool)
    return pool * (amount / total)


def plan_dispatch(delta_kw: float, state: AggregateState) -> DispatchPlan:
    """Allocate a target power change over the responding modes.

    Infeasible targets never fail: the plan saturates at the reachable edge
    and reports it. The state passed in should be the predicted pre-control
    state for the step the command will act on.
    """
    if not np.isfinite(delta_kw):
        raise ValueError("target delta must be finite")
    layout = state.layout
    n = layout.n_intervals
    u = np.zeros(layout.input_dimension)
    source = np.zeros(layout.input_dimension)
    if state.empty or delta_kw == 0.0:
        return DispatchPlan(layout, u, source, 0.0,
                            saturated=state.empty and delta_kw != 0.0, expected_u=u)

    scale = float(state.n_ev_connected)
    kw_ac = state.p_ac_kw * scale  # kW change per unit mass for charge-side moves
    kw_ad = state.p_ad_kw * scale
    # The direction fixes the route: stage 1 stops the mode pushing the wrong
    # way, stage 2 starts the opposite mode from idle, and in the extended
    # layout the boundary state on that side joins stage 2 through its own
    # input.
    if delta_kw > 0.0:  # provide: stop charging, then start discharging
        sign, active, kw1, kw2 = 1.0, layout.charging, kw_ac, kw_ad
        stage1, stage2 = slice(0, n), slice(n, 2 * n)
        edge_input, edge_state = 4 * n + 1, layout.full_idle_index
    else:  # absorb: stop discharging, then start charging
        sign, active, kw1, kw2 = -1.0, layout.discharging, kw_ad, kw_ac
        stage1, stage2 = slice(2 * n, 3 * n), slice(3 * n, 4 * n)
        edge_input, edge_state = 4 * n, layout.empty_idle_index
    x = state.x
    want = abs(delta_kw)

    active_mass = x[active].copy()
    source[stage1] = active_mass
    take1_kw = min(want, kw1 * active_mass.sum())
    moved = np.zeros(n)
    if kw1 > 0.0 and take1_kw > 0.0:
        moved = _spread(take1_kw / kw1, active_mass)
        u[stage1] = moved

    # Stage 2 may draw on the mass stage 1 just moved into idle.
    idle_mass = x[layout.idle] + moved
    source[stage2] = idle_mass
    edge_mass = 0.0
    if edge_state is not None:
        edge_mass = x[edge_state]
        source[edge_input] = edge_mass
    take2_kw = min(want - take1_kw, kw2 * (idle_mass.sum() + edge_mass))
    taken_sum = 0.0
    expected = u
    if kw2 > 0.0 and take2_kw > 0.0:
        pool = np.concatenate([idle_mass, [edge_mass]]) if edge_state is not None \
            else idle_mass
        taken = _spread(take2_kw / kw2, pool)
        u[stage2] = taken[:n]
        if edge_state is not None:
            u[edge_input] = taken[n]
        taken_sum = taken.sum()
        if moved.any():  # one broadcast moves only the part backed by current occupancy
            expected = u.copy()
            expected[stage2] = taken[:n] * np.divide(x[layout.idle], idle_mass, out=np.zeros(n),
                                                     where=idle_mass > 0.0)

    achieved = sign * (kw1 * moved.sum() + kw2 * taken_sum)
    shortfall = abs(delta_kw - achieved)
    sat_tol = 1e-9 * max(1.0, scale * max(state.p_ac_kw, state.p_ad_kw))
    return DispatchPlan(layout, u, source, achieved, saturated=shortfall > sat_tol,
                        expected_u=expected)


def to_switching_probabilities(plan: DispatchPlan) -> DispatchCommand:
    """Convert an input vector into per-interval switching probabilities
    (allocated mass over the source mass it was drawn from)."""
    layout = plan.layout
    n = layout.n_intervals
    prob = np.divide(plan.u, plan.source_mass, out=np.zeros_like(plan.u),
                     where=plan.source_mass > 0.0)
    if (prob > 1.0 + PROB_TOL).any():
        raise ValueError("input exceeds its source mass; admissibility breach")
    np.minimum(np.maximum(prob, 0.0, out=prob), 1.0, out=prob)
    essm = layout.variant == ESSM
    return DispatchCommand(
        layout=layout,
        stop_charging=prob[0:n],
        start_discharging=prob[n:2 * n],
        stop_discharging=prob[2 * n:3 * n],
        start_charging=prob[3 * n:4 * n],
        empty_to_charging=float(prob[4 * n]) if essm else 0.0,
        full_to_discharging=float(prob[4 * n + 1]) if essm else 0.0,
    )


def actuate_array(mode: np.ndarray, soc: np.ndarray, command: DispatchCommand,
                  alpha: np.ndarray, soc_min: float, soc_max: float) -> np.ndarray:
    """Vectorized actuation: each responding vehicle (charging, idle or
    discharging; forced and disconnected ones match no mode) locates its
    (mode, interval) under the command's layout and switches when its uniform
    draw falls below the addressed probability; at most one switch per step.

    Physically impossible switches are refused: a vehicle at the SOC ceiling
    cannot start charging, one at the floor cannot start discharging. The
    plain layout addresses boundary-parked vehicles through its edge idle
    intervals, so its commands can land on vehicles that must refuse.
    """
    new_mode = mode.copy()
    on = command.addressed  # a block whose probabilities are all zero is skipped
    if not on.any():
        return new_mode
    iv = command.layout.interval_index(soc)
    if on[CS]:
        new_mode[(mode == CS) & (alpha < command.stop_charging[iv])] = IS
    if on[DS]:
        new_mode[(mode == DS) & (alpha < command.stop_discharging[iv])] = IS
    if not on[IS]:
        return new_mode

    idle, at_max, at_min = mode == IS, soc >= soc_max, soc <= soc_min
    regular = idle
    if command.layout.variant == ESSM:
        regular = idle & ~at_max & ~at_min
        new_mode[idle & at_max & (alpha < command.full_to_discharging)] = DS
        new_mode[idle & at_min & (alpha < command.empty_to_charging)] = CS
    # Stacked thresholds: start-discharging first, then start-charging.
    p_b, p_d = command.start_discharging[iv], command.start_charging[iv]
    new_mode[regular & (alpha < p_b) & ~at_min] = DS
    new_mode[regular & ~(alpha < p_b) & (alpha < p_b + p_d) & ~at_max] = CS
    return new_mode
