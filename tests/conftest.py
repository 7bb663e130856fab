import numpy as np
import pytest

from evflex.aggregate import (AggregateState, StateLayout, build_output_matrix, churn_noise,
                              measure)
from evflex.config import DistributionSpec, FleetDistributions
from evflex.fleet import (IS, FleetParams, FleetSnapshot, FleetStep, FlexibilityEnvelope, Schedule,
                          sample_fleet)


DT_5MIN = 5.0 / 60.0
DAY_5MIN = 24 * 12


def point(value: float) -> DistributionSpec:
    """Degenerate uniform: every draw equals `value`."""
    return DistributionSpec("uniform", value, value)


def deterministic_distributions(power=6.0, eff=0.9, capacity=24.0, initial=0.5,
                                demanded=0.0, plug_in=24.0, plug_out=47.9):
    """Identical-parameter fleet, connected for (nearly) the whole day by
    default: session [0, 23.9) on the simulation clock."""
    return FleetDistributions(
        rated_power_kw=point(power),
        efficiency=point(eff),
        capacity_kwh=point(capacity),
        initial_soc=point(initial),
        demanded_soc=point(demanded),
        plug_in_hour=point(plug_in),
        plug_out_hour=point(plug_out),
    )


def fold_of(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The plain state each extended state of an N-interval layout folds into
    (the empty and full idle states into the bottom and top idle intervals),
    and the extended states that are not boundary states."""
    return np.r_[:3 * n, n, 2 * n - 1, 3 * n], np.r_[:3 * n, 3 * n + 2]


def make_snapshot(soc, connection, pc=6.0, pd=None) -> FleetSnapshot:
    """Hand-built telemetry for aggregate/control tests."""
    soc = np.asarray(soc, dtype=float)
    connection = np.asarray(connection, dtype=np.int8)
    n = soc.size
    pc_arr = np.full(n, pc) if np.isscalar(pc) else np.asarray(pc, dtype=float)
    pd_arr = pc_arr.copy() if pd is None else (
        np.full(n, pd) if np.isscalar(pd) else np.asarray(pd, dtype=float))
    return FleetSnapshot(
        ids=np.arange(n, dtype=np.int64),
        soc=soc,
        connection=connection,
        rated_charge_kw=pc_arr,
        rated_discharge_kw=pd_arr,
    )


def compute_noise(n_ev_connected: int, n_in: int, keys: np.ndarray,
                  layout: StateLayout) -> np.ndarray:
    """Churn disturbance from the step's plug events, given as the keys of
    `n_in` arrivals then of the departures:
    (N_in x_in - N_out x_out) / (N_ev + N_in - N_out)."""
    denom = n_ev_connected + 2 * n_in - keys.size
    if denom == 0:
        raise ValueError("fleet emptied during the interval; reset the state instead")
    return churn_noise(n_in, denom, keys, layout)


def schedule_snapshot(schedule: Schedule, step: int) -> FleetSnapshot:
    """The snapshot of the fleet that `schedule` replays, at `step`, in any order: the sessions
    connected then, idle at the ceiling from full and else at their anchor's SOC. The oracle of
    `aggregate.schedule_states`."""
    ids, start, b, full, _, _, _, mode, t0_mode = schedule.sessions
    on, p = ((start <= step) & (step < b)).nonzero()[0], schedule.params
    ids, full = ids[on], step >= full[on]
    soc = np.where(full, p.soc_max, schedule.session_soc(step, on))
    mode = np.where(full, IS, (mode if step else t0_mode)[on])
    return FleetSnapshot(ids, soc, mode, p.rated_charge_kw[ids], p.rated_discharge_kw[ids])


def make_events(in_events=None, out_events=None) -> FleetStep:
    """Hand-built plug events of one step, each given as (ids, SOC, mode)."""
    empty = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int8))
    in_ids, in_soc, in_conn = in_events or empty
    out_ids, out_soc, out_conn = out_events or empty
    return FleetStep(
        in_ids=in_ids, in_soc=np.asarray(in_soc, dtype=float), in_connection=in_conn,
        out_ids=out_ids, out_soc=np.asarray(out_soc, dtype=float), out_connection=out_conn,
    )


def output(state: AggregateState, c: np.ndarray | None = None, noise_std_kw=None,
           rng: np.random.Generator | None = None) -> FlexibilityEnvelope:
    """`measure` as an envelope, with C built from the state when not given."""
    y = measure(build_output_matrix(state) if c is None else c, state.x, noise_std_kw, rng)
    return FlexibilityEnvelope(p_ev_kw=float(y[0]), p_u_kw=float(y[1]), p_l_kw=float(y[2]))


def interval_index(layout, soc) -> np.ndarray:
    """0-based SOC interval of `layout`: ceil((soc - floor)/width) clamped to
    [1, N], minus one; the rule `StateLayout.keys` implements."""
    raw = np.ceil((np.asarray(soc, dtype=float) - layout.soc_min) / layout.width)
    return np.minimum(np.maximum(raw, 1), layout.n_intervals).astype(np.int64) - 1


@pytest.fixture
def table_distributions():
    return FleetDistributions()


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


def edge_case_params(distributions, seed: int) -> FleetParams:
    """200 sampled vehicles for 5 min steps: the edge-case sessions first, with deadlines
    that bind early, and every seventh vehicle arriving at the SOC floor."""
    sessions = edge_case_sessions(DT_5MIN)
    params = sample_fleet(distributions, 200, seed=seed)
    params.plug_in_h[:len(sessions)], params.plug_out_h[:len(sessions)] = zip(*sessions)
    params.demanded_soc[:len(sessions)] = 0.9
    params.initial_soc[::7] = params.soc_min
    return params
