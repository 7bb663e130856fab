"""Individual modeling baseline: exact per-vehicle summation.

Ground truth for power and flexibility. Power sums the snapshot's telemetry
directly; the envelope applies each vehicle's one-step capability rules:
anything not at its SOC floor (and not forced-charging) can discharge,
anything not at its ceiling can charge, forced-charging vehicles are pinned
at -P_c on all three components.
"""

from __future__ import annotations

from .aggregate import FlexibilityEnvelope
from .fleet import FCS, FleetSnapshot


def imm_power(snapshot: FleetSnapshot) -> float:
    """Total grid injection in kW, summed over connected vehicles."""
    return float(snapshot.power_kw.sum())


def imm_flexibility(snapshot: FleetSnapshot, soc_min: float = 0.0,
                    soc_max: float = 1.0) -> FlexibilityEnvelope:
    fcs = snapshot.connection == FCS
    can_discharge = (snapshot.soc > soc_min) & ~fcs
    can_charge = (snapshot.soc < soc_max) & ~fcs
    forced = snapshot.rated_charge_kw[fcs].sum()
    upper = snapshot.rated_discharge_kw[can_discharge].sum() - forced
    lower = -snapshot.rated_charge_kw[can_charge].sum() - forced
    return FlexibilityEnvelope(
        p_ev_kw=imm_power(snapshot),
        p_u_kw=float(upper),
        p_l_kw=float(lower),
    )
