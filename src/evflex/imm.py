"""Individual modeling baseline: exact per-vehicle summation.

Ground truth for power and flexibility. Power sums the snapshot's telemetry
directly; the envelope applies each vehicle's one-step capability rule
(`capability`), which the fleet's running sums apply too.
"""

from __future__ import annotations

import numpy as np

from .fleet import FCS, FlexibilityEnvelope, FleetSnapshot


def capability(soc: np.ndarray, connection: np.ndarray, soc_min: float, soc_max: float):
    """(forced, can_discharge, can_charge) masks of connected vehicles: a
    forced-charging one is pinned at -P_c on all three components; any other
    can discharge unless at its SOC floor and charge unless at its ceiling."""
    forced = connection == FCS
    return forced, (soc > soc_min) & ~forced, (soc < soc_max) & ~forced


def imm_flexibility(snapshot: FleetSnapshot, soc_min: float = 0.0,
                    soc_max: float = 1.0) -> FlexibilityEnvelope:
    fcs, can_discharge, can_charge = capability(snapshot.soc, snapshot.connection,
                                                soc_min, soc_max)
    forced = snapshot.rated_charge_kw[fcs].sum()
    upper = snapshot.rated_discharge_kw[can_discharge].sum() - forced
    lower = -snapshot.rated_charge_kw[can_charge].sum() - forced
    return FlexibilityEnvelope(
        p_ev_kw=float(snapshot.power_kw.sum()),
        p_u_kw=float(upper),
        p_l_kw=float(lower),
    )
