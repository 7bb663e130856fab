"""EV-fleet flexibility simulation: per-vehicle Monte Carlo ground truth,
aggregate state-space models with boundary states, and switching-probability
dispatch control."""

from .aggregate import (
    ESSM,
    SSM,
    AggregateModel,
    AggregateState,
    FlexibilityEnvelope,
    StateLayout,
    SystemMatrices,
    build_input_matrix,
    build_output_matrix,
    build_transition_matrix,
    compute_noise,
    discretize,
    estimate_transition_matrix,
    measure,
)
from .config import (
    DistributionSpec,
    FleetDistributions,
    ReferenceConfig,
    ScriptedStep,
    SimulationConfig,
    load_config,
)
from .control import (
    DispatchCommand,
    DispatchPlan,
    plan_dispatch,
    to_switching_probabilities,
)
from .fleet import (
    Connection,
    Fleet,
    FleetParams,
    FleetSnapshot,
    FleetStep,
    sample_fleet,
)
from .imm import imm_flexibility
from .scenario import (
    RunResult,
    VariantSeries,
    error_metrics,
    run_prediction_experiment,
    run_tracking_experiment,
    sweep_prediction,
    write_errors_csv,
    write_states_csv,
    write_timeseries_csv,
    write_tracking_csv,
)

__version__ = "0.1.0"
