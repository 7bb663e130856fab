"""Individual modeling baseline: exact per-vehicle summation.

The ground truth for power and flexibility is each vehicle's power and one-step capability
rule (`capability`). `term_table` states it as the coefficients that the fleet's running
sums and the aggregate models' output matrices read; `imm_flexibility` sums it over a
snapshot in floats, as the tests' oracle.
"""

from __future__ import annotations

import numpy as np

from .fleet import CS, DISCONNECTED, DS, FCS, FlexibilityEnvelope, FleetSnapshot


def capability(soc: np.ndarray, connection: np.ndarray, soc_min: float, soc_max: float):
    """(forced, can_discharge, can_charge) masks of connected vehicles: a
    forced-charging one is pinned at -P_c on all three components; any other
    can discharge unless at its SOC floor and charge unless at its ceiling."""
    forced = connection == FCS
    return forced, (soc > soc_min) & ~forced, (soc < soc_max) & ~forced


def term_table(soc_min: float, soc_max: float) -> np.ndarray:
    """`capability` as coefficients of (P_c, P_d) in the sums (power, dischargeable, chargeable,
    forced), indexed [SOC position (floor, inside, ceiling), mode, rated power, sum]. The envelope
    is (power, dischargeable - forced, -chargeable - forced), as in `imm_flexibility`; each of its
    terms draws on P_c with a negative sign or on P_d with a positive one."""
    mode = np.tile(np.arange(5), 3)
    soc = np.repeat([soc_min, 0.5 * (soc_min + soc_max), soc_max], 5)
    forced, can_discharge, can_charge = capability(soc, mode, soc_min, soc_max)
    on, none = mode != DISCONNECTED, np.zeros(mode.size, dtype=bool)
    table = [[-1 * ((mode == CS) | forced), none, can_charge & on, forced],
             [mode == DS, can_discharge & on, none, none]]
    return np.array(table, dtype=np.int64).transpose(2, 0, 1).reshape(3, 5, 2, 4)


def imm_flexibility(snapshot: FleetSnapshot, soc_min: float = 0.0,
                    soc_max: float = 1.0) -> FlexibilityEnvelope:
    """The envelope of `snapshot`, summed vehicle by vehicle: a charging or forced one draws
    -P_c, a discharging one +P_d, an idle one 0."""
    mode, p_c, p_d = snapshot.connection, snapshot.rated_charge_kw, snapshot.rated_discharge_kw
    fcs, can_discharge, can_charge = capability(snapshot.soc, mode, soc_min, soc_max)
    forced = p_c[fcs].sum()
    return FlexibilityEnvelope(float(p_d[mode == DS].sum() - p_c[(mode == CS) | fcs].sum()),
                               float(p_d[can_discharge].sum() - forced),
                               float(-p_c[can_charge].sum() - forced))
