"""Dispatch controller: target power delta -> admissible input vector ->
broadcast command -> per-vehicle random actuation.

A positive delta asks the fleet to inject more power (stage 1 stops charging
vehicles, stage 2 starts discharging idle ones); a negative delta asks it to
absorb more (stop discharging, then start charging). Stage 2 may draw on the
mass stage 1 moves within the same plan, which is how a full charge-to-
discharge swing is planned; physically each vehicle still switches at most
once per step and the per-step re-planning performs the second hop next step.

Within a stage the requested mass is spread proportionally over the source
intervals, so the broadcast is a direction and one switching rate per stage,
addressed to the intervals that held source mass (in the extended layout the
idle boundary state on the start side shares the stage-2 rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .aggregate import AggregateState, StateLayout
from .fleet import CS, DISCONNECTED, DS, FCS, IS

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class DispatchCommand:
    """A direction and one switching probability per stage, checked once
    when built. Providing stops charging vehicles and starts idle ones
    discharging; absorbing stops discharging ones and starts charging.

    A vehicle is addressed by the state this layout bins it into: an interval
    state a mask marks or, by `boundary`, the idle boundary state on the start
    side (extended layout only). It switches when its uniform draw is below
    its stage's rate.
    """

    layout: StateLayout
    provide: bool
    stop_rate: float        # stage 1: the active mode -> idle
    start_rate: float       # stage 2: idle -> the opposite mode
    stop_mask: np.ndarray   # intervals of the active mode that held mass
    start_mask: np.ndarray  # idle intervals that held mass, stage-1 arrivals included
    boundary: bool = False  # the idle boundary state on the start side held mass

    def __post_init__(self):
        if any(m.shape != (self.layout.n_intervals,) for m in (self.stop_mask, self.start_mask)):
            raise ValueError("interval masks must have one entry per interval")
        if not (0.0 <= self.stop_rate <= 1.0 and 0.0 <= self.start_rate <= 1.0):
            raise ValueError("switching probabilities must lie in [0, 1]")
        if self.boundary and self.layout.full_idle_index is None:
            raise ValueError("the plain layout has no boundary state to address")
        # Per mode code, whether the command can switch a vehicle in that
        # mode; actuation leaves the other modes alone.
        addressed = np.zeros(5, bool)
        addressed[CS if self.provide else DS] = self.stop_rate > 0.0
        addressed[IS] = self.start_rate > 0.0
        object.__setattr__(self, "addressed", addressed)
        # No draw at or above the larger rate switches a vehicle.
        object.__setattr__(self, "threshold", max(self.stop_rate, self.start_rate))


@dataclass
class DispatchPlan:
    """Input vector in fleet-proportion units, what it achieves, and the
    command that broadcasts it: a direction, each stage's rate (moved over
    source mass) and the intervals that held source mass.

    Where stage 2 drew on stage-1 in-flight mass, one broadcast can only move
    the part backed by current occupancy: expected_u is that one-step
    expectation (the remainder is reachable on the following step), while
    achieved_delta_kw/saturated describe the full reachable plan.
    """

    u: np.ndarray
    achieved_delta_kw: float
    saturated: bool
    expected_u: np.ndarray
    command: DispatchCommand


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
    if state.empty or delta_kw == 0.0:
        return DispatchPlan(u, 0.0, state.empty and delta_kw != 0.0, u, to_switching_probabilities(
            layout, delta_kw > 0.0, 0.0, 0.0, np.zeros(n, bool), np.zeros(n, bool), False))

    # Python scalars; sums stay numpy's reductions, which Python's sum() is not.
    scale = float(state.n_ev_connected)
    kw_ac = state.p_ac_kw * scale  # kW change per unit mass for charge-side moves
    kw_ad = state.p_ad_kw * scale
    # The direction fixes the route: stage 1 stops the mode pushing the wrong
    # way, stage 2 starts the opposite mode from idle, and in the extended
    # layout the boundary state on that side joins stage 2 through its own
    # input.
    provide = delta_kw > 0.0
    if provide:  # stop charging, then start discharging
        sign, active, kw1, kw2 = 1.0, layout.charging, kw_ac, kw_ad
        stage1, stage2 = slice(0, n), slice(n, 2 * n)
        edge_input, edge_state = 4 * n + 1, layout.full_idle_index
    else:  # absorb: stop discharging, then start charging
        sign, active, kw1, kw2 = -1.0, layout.discharging, kw_ad, kw_ac
        stage1, stage2 = slice(2 * n, 3 * n), slice(3 * n, 4 * n)
        edge_input, edge_state = 4 * n, layout.empty_idle_index
    x = state.x
    want = abs(float(delta_kw))

    # Each stage spreads its mass over its source in proportion: one rate.
    active_mass = x[active]
    active_total = float(np.add.reduce(active_mass))
    take1_kw = min(want, kw1 * active_total)
    moved, moved_sum, rate1 = 0.0, 0.0, 0.0
    if kw1 > 0.0 and take1_kw > 0.0:
        rate1 = take1_kw / kw1 / active_total
        moved = active_mass * rate1
        u[stage1] = moved
        moved_sum = float(np.add.reduce(moved))

    # Stage 2 may draw on the mass stage 1 just moved into idle.
    idle_mass = x[layout.idle] + moved
    edge_mass = 0.0 if edge_state is None else float(x[edge_state])
    taken_sum, rate2 = 0.0, 0.0
    expected = u
    take2_kw = min(want - take1_kw, kw2 * (float(np.add.reduce(idle_mass)) + edge_mass)) \
        if want > take1_kw else 0.0  # nothing left for it where stage 1 meets the target
    if kw2 > 0.0 and take2_kw > 0.0:
        pool = np.concatenate([idle_mass, [edge_mass]]) if edge_state is not None else idle_mass
        rate2 = take2_kw / kw2 / float(np.add.reduce(pool))
        taken = pool * rate2
        u[stage2] = taken[:n]
        if edge_state is not None:
            u[edge_input] = taken[n]
        taken_sum = float(np.add.reduce(taken))
        if rate1 > 0.0:  # one broadcast moves only the part backed by current occupancy
            expected = u.copy()
            expected[stage2] = taken[:n] * np.divide(x[layout.idle], idle_mass, out=np.zeros(n),
                                                     where=idle_mass > 0.0)

    achieved = sign * (kw1 * moved_sum + kw2 * taken_sum)
    shortfall = abs(delta_kw - achieved)
    sat_tol = 1e-9 * max(1.0, scale * max(state.p_ac_kw, state.p_ad_kw))
    return DispatchPlan(u, achieved, shortfall > sat_tol, expected, to_switching_probabilities(
        layout, provide, rate1, rate2, active_mass > 0.0, idle_mass > 0.0, edge_mass > 0.0))


def to_switching_probabilities(layout: StateLayout, provide: bool, stop_rate: float,
                               start_rate: float, stop_mask: np.ndarray, start_mask: np.ndarray,
                               boundary: bool) -> DispatchCommand:
    """The command of a plan's stage rates: the one place where each rate, moved over its
    source mass, is checked (past 1 + `PROB_TOL` is a breach) and clamped to 1."""
    if max(stop_rate, start_rate) > 1.0 + PROB_TOL:
        raise ValueError("input exceeds its source mass; admissibility breach")
    return DispatchCommand(layout, provide, min(stop_rate, 1.0), min(start_rate, 1.0), stop_mask,
                           start_mask, boundary)


# Per direction (absorb, provide) and mode, the mode a switch leads to (itself if none).
_SWITCHED = np.array([[DISCONNECTED, CS, CS, IS, FCS], [DISCONNECTED, IS, DS, DS, FCS]], np.int8)


@cache
def _rate_slots(layout: StateLayout, provide: bool) -> np.ndarray:
    """Per key of `layout`, the entry of a command's rates (stage 1, stage 2,
    boundary input, none) in direction `provide` that addresses the key's
    state; an idle vehicle at the bound behind the start side cannot start."""
    n, table = layout.n_intervals, layout.state_table.reshape(5, -1)
    active, edge, behind = (CS, n + 1, n) if provide else (DS, n, n + 1)
    by_state = np.full(layout.dimension + 1, 2 * n + 1)  # [-1]: the disconnected row
    by_state[table[IS, edge]] = 2 * n  # an interval's entry below overrides a folded edge
    by_state[table[IS, :n]] = n + np.arange(n)
    by_state[table[active, :n]] = np.arange(n)
    by_key = by_state.take(table)
    by_key[IS, behind] = 2 * n + 1
    by_key.flags.writeable = False  # cached: every call shares it
    return by_key.ravel()


def actuate_array(mode: np.ndarray, soc: np.ndarray, command: DispatchCommand,
                  alpha: np.ndarray) -> np.ndarray:
    """Vectorized actuation: each vehicle is addressed by the state the
    command's layout bins it into, and switches (at most once per step) when
    its uniform draw falls below the rate of that state's stage, if addressed.

    Physically impossible switches are refused: a vehicle at the SOC ceiling
    cannot start charging, one at the floor cannot start discharging. The
    plain layout folds boundary-parked vehicles into its edge idle intervals,
    so its commands can land on vehicles that must refuse."""
    layout = command.layout
    rates = np.concatenate((command.stop_rate * command.stop_mask,
                            command.start_rate * command.start_mask,
                            (command.start_rate * command.boundary, 0.0)))
    slot = _rate_slots(layout, command.provide).take(layout.keys(mode, soc))
    return np.where(alpha < rates.take(slot), _SWITCHED[int(command.provide)].take(mode), mode)
