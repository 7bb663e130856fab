"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is everything a job does before step 0: importing the program,
loading its config, and the public set-up calls the experiments make
(`sample_fleet`, `Fleet(...)`, `AggregateModel.from_distributions` per
variant, the first `snapshot` and `resync`). Prints one JSON object.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from jobs import WORKLOADS, import_program  # noqa: E402


def main(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    import_program()
    from evflex.aggregate import AggregateModel, StateLayout
    from evflex.config import SimulationConfig, load_config
    from evflex.fleet import Fleet, sample_fleet
    t_import = time.perf_counter()

    config = load_config(workload.config) if workload.config else SimulationConfig()
    config = config.with_overrides(n_ev=workload.n_ev, seed=seed)
    t_config = time.perf_counter()

    d = config.distributions
    fleets = [Fleet(sample_fleet(d, config.n_ev, config.seed), config.dt_hours, config.seed)
              for _ in range(workload.fleets)]
    snapshots = [fleet.snapshot() for fleet in fleets]
    for i, variant in enumerate(config.variants):
        layout = StateLayout(config.n_intervals, variant, d.soc_min, d.soc_max)
        model = AggregateModel.from_distributions(
            layout, d, config.dt_hours, n_samples=config.transition_samples, seed=config.seed)
        model.resync(snapshots[i % len(snapshots)])
    t_calls = time.perf_counter()
    return {
        "import_s": t_import - T0,
        "config_s": t_config - t_import,
        "calls_s": t_calls - t_config,
        "setup_s": t_calls - T0,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
