"""Command-line interface: predict / track / sweep experiment runners."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import SimulationConfig, load_config
from .scenario import (
    run_prediction_experiment,
    run_tracking_experiment,
    sweep_prediction,
    write_errors_csv,
    write_states_csv,
    write_timeseries_csv,
    write_tracking_csv,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--n-ev", type=int, default=None, help="override the fleet size")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (created if missing)")
    parser.add_argument("--variants", nargs="+", choices=["ssm", "essm"], default=None,
                        help="model variants to run")


def _load(args) -> SimulationConfig:
    config = load_config(args.config) if args.config else SimulationConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.n_ev is not None:
        overrides["n_ev"] = args.n_ev
    if args.variants is not None:
        overrides["variants"] = tuple(args.variants)
    return replace(config, **overrides)


def _fleet_size(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"fleet sizes must be >= 1, got {text}")
    return int(text)


def _write_run(result, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_timeseries_csv(result, out / "timeseries.csv")
    for name in result.config.variants:
        write_states_csv(result, name, out / f"states_{name}.csv")


def _print_errors(rows: list[dict]) -> None:
    for row in rows:
        print(f"n_ev={row['n_ev']} {row['variant']}: "
              f"upper={row['upper_err_pct']:.4g}% lower={row['lower_err_pct']:.4g}% "
              f"power={row['power_err_pct']:.4g}%")


def _cmd_predict(args, config: SimulationConfig) -> int:
    result = run_prediction_experiment(config)
    _write_run(result, args.out)
    rows = result.prediction_errors()
    write_errors_csv(rows, args.out / "errors.csv")
    _print_errors(rows)
    print(f"wrote {args.out}/timeseries.csv, errors.csv, states_*.csv")
    return 0


def _read_reference(path: Path, config: SimulationConfig) -> np.ndarray:
    """Reference column of a timeseries/tracking CSV. Its time_h column must
    be this run's time axis (to the CSV's 6-digit rounding), so a file
    written with another dt or horizon is refused rather than replayed, and
    an empty or non-numeric level is refused by its line."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    time_h = np.atleast_1d(data["time_h"])
    expected = np.arange(config.n_steps + 1) * config.dt_hours
    if time_h.shape != expected.shape or not np.allclose(time_h, expected,
                                                         rtol=1e-5, atol=1e-9):
        raise ValueError(
            f"{path}: time_h does not match the run's time axis "
            f"({config.n_steps + 1} samples, dt {config.dt_seconds:g} s)")
    reference = np.asarray(data["reference_kw"], dtype=float)
    bad = np.flatnonzero(~np.isfinite(reference))
    if bad.size:
        raise ValueError(f"{path}: reference_kw must be a finite number, line {bad[0] + 2} "
                         f"(time_h {time_h[bad[0]]:g}) is not")
    return reference


def _cmd_track(args, config: SimulationConfig) -> int:
    result = run_tracking_experiment(config, args.reference)
    _write_run(result, args.out)
    for name in result.config.variants:
        write_tracking_csv(result, name, args.out / f"tracking_{name}.csv")
        print(f"{name}: rms tracking error {result.tracking_rms_kw(name):.1f} kW")
    print(f"wrote {args.out}/timeseries.csv, tracking_*.csv, states_*.csv")
    return 0


def _cmd_sweep(args, config: SimulationConfig) -> int:
    rows = sweep_prediction(config, args.sizes)
    args.out.mkdir(parents=True, exist_ok=True)
    write_errors_csv(rows, args.out / "errors.csv")
    _print_errors(rows)
    print(f"wrote {args.out}/errors.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evflex",
        description="EV-fleet flexibility simulation: prediction and tracking experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="uncontrolled 24 h prediction experiment")
    _add_common(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("track", help="closed-loop power tracking experiment")
    _add_common(p)
    p.add_argument("--reference", type=Path, default=None,
                   help="CSV with a reference_kw column to replay (default: online)")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("sweep", help="prediction-error table over fleet sizes")
    _add_common(p)
    p.add_argument("--sizes", nargs="+", type=_fleet_size, default=[500, 5000, 10000],
                   help="fleet sizes to sweep")
    p.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    # Bad input ends in one line naming it; errors inside a run propagate.
    try:
        config = _load(args)
        if getattr(args, "reference", None) is not None:
            args.reference = _read_reference(args.reference, config)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
