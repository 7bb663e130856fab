"""EV-fleet flexibility simulation: per-vehicle Monte Carlo ground truth,
aggregate state-space models with boundary states, and switching-probability
dispatch control."""
