"""Workloads, one CLI job, and the per-job correctness gate.

A job is one complete `evflex` CLI run (`evflex.cli.main`) that writes all of
its CSVs into a fresh directory. The gate reads only those CSVs: the
acceptance bounds of criterion 1 (predict) or criterion 5 (track), the shape
and mass of every `states_*.csv`, and the SHA-256 of every file against a
reference set of digests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

DT_S = 15.0            # step of the default config, which no workload changes
RATED_KW_PER_EV = 6.0  # mean of the default U(5, 7) kW rated-power draw
DEFECT_WINDOWS_H = (0.5, 5.0)  # scripted probes that expose the plain model

# Criterion-1 bounds on errors.csv, percent: (variant, column, op, bound).
PREDICT_BOUNDS = (
    ("essm", "lower_err_pct", "<=", 10.0),
    ("essm", "power_err_pct", "<=", 10.0),
    ("essm", "upper_err_pct", "<=", 1.0),
    ("ssm", "upper_err_pct", "<=", 1.0),
    ("ssm", "lower_err_pct", ">=", 40.0),
)
TRACK_RMS_MAX_PCT = 5.0
TRACK_DEFECT_RATIO_MIN = 5.0
# Each value in a states row is printed with 6 significant digits, so a value
# v carries at most 5e-6 * v of rounding (half a unit in the sixth digit); a
# row summing to 1 may then read up to 5e-6 (plus the model's own 1e-9
# renormalisation tolerance) away from 1.
STATE_SUM_TOL = 5e-6 + 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # evflex subcommand: "predict" or "track"
    n_ev: int
    default_seed: int
    config: Path | None = None  # JSON config passed with --config
    follows_seed: bool = True   # False: every run uses default_seed

    @property
    def horizon_h(self) -> float:
        if self.config is None:
            return 24.0
        return float(json.loads(self.config.read_text()).get("horizon_hours", 24.0))

    @property
    def n_steps(self) -> int:
        return round(self.horizon_h * 3600.0 / DT_S)

    @property
    def fleets(self) -> int:
        """Fleets driven per job: each tracking variant drives its own clone."""
        return 2 if self.command == "track" else 1

    def simulation_seed(self, seed: int) -> int:
        return seed if self.follows_seed else self.default_seed

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--n-ev", str(self.n_ev), "--seed", str(seed), "--out", str(out)]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        return argv


# track-3k always runs the acceptance seed. Its gate, the criterion-5
# defect-window ratios >= 5, was set on seed 11 and does not hold on every
# seed: of 75 seeds tried, the 5 h ratio was 4.68, 4.45 and 4.23 on seeds 303,
# 419 and 422 (median about 17), although the plain model still fails there.
WORKLOADS = {w.name: w for w in (
    Workload("predict-10k", "predict", 10_000, 7),
    Workload("track-3k", "track", 3_000, 11, BENCH_DIR / "track3k.json", follows_seed=False),
    Workload("predict-500", "predict", 500, 7),
)}


@dataclass
class Job:
    """One CLI job: its timings, its load context and what the gate found."""

    wall_s: float
    cpu_s: float
    load_before: tuple[float, float, float]
    load_after: tuple[float, float, float]
    digests: dict[str, str] = field(default_factory=dict)
    checks: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    layers: dict[str, float] | None = None  # per-layer metrics of a traced job

    @property
    def ok(self) -> bool:
        return not self.problems


def import_program():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    if not (SRC_DIR / "evflex" / "__init__.py").is_file():
        raise FileNotFoundError(f"no evflex sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import evflex.cli
    if SRC_DIR.resolve() not in Path(evflex.cli.__file__).resolve().parents:
        raise ImportError(f"evflex imported from {evflex.cli.__file__}, not {SRC_DIR}")
    return evflex.cli


def run_job(cli, workload: Workload, seed: int, work_dir: Path,
            reference_digests: dict[str, str] | None = None) -> Job:
    """Run one CLI job in a fresh directory under `work_dir`, gate its
    outputs, and remove the directory. `cli.main` is looked up at call time
    so that a trace wrapper installed on it is seen."""
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_dir))
    load_before = os.getloadavg()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main(workload.argv(seed, out))
                error = None if code == 0 else f"exit code {code}"
            except Exception:
                error = traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        job = Job(wall, cpu, load_before, os.getloadavg())
        if error is not None:
            job.problems.append(f"job raised: {error}")
            return job
        job.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        job.digests, job.checks, job.problems = gate(workload, out, reference_digests)
        return job
    finally:
        shutil.rmtree(out, ignore_errors=True)


def gate(workload: Workload, out: Path, reference_digests: dict[str, str] | None
         ) -> tuple[dict[str, str], dict[str, float], list[str]]:
    """Digests, accuracy numbers and problems of one job's output directory."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv"))}
    checks, problems = check_outputs(workload, out)
    if reference_digests is not None and digests != reference_digests:
        changed = sorted(k for k in set(digests) | set(reference_digests)
                         if digests.get(k) != reference_digests.get(k))
        problems.append("outputs differ from the reference digests: " + ", ".join(changed))
    return digests, checks, problems


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload: Workload, out: Path) -> tuple[dict[str, float], list[str]]:
    """Accuracy numbers read from the written CSVs, and every breach of the
    acceptance bounds or of the state-vector shape and mass."""
    checks: dict[str, float] = {}
    problems: list[str] = []
    try:
        if workload.command == "predict":
            _check_prediction(out, checks, problems)
        else:
            _check_tracking(workload, out, checks, problems)
        _check_states(workload, out, problems)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return checks, problems


def _check_prediction(out: Path, checks: dict, problems: list) -> None:
    rows = {r["variant"]: r for r in _read_rows(out / "errors.csv")}
    for variant, column, op, bound in PREDICT_BOUNDS:
        value = float(rows[variant][column])
        checks[f"{variant}.{column}"] = value
        if not (value <= bound if op == "<=" else value >= bound):
            problems.append(f"errors.csv {variant} {column} = {value:g}, want {op} {bound:g}")


def _check_tracking(workload: Workload, out: Path, checks: dict, problems: list) -> None:
    errs = {v: [float(r["abs_err_kw"]) for r in _read_rows(out / f"tracking_{v}.csv")]
            for v in ("ssm", "essm")}
    for v, e in errs.items():
        if len(e) != workload.n_steps + 1:
            problems.append(f"tracking_{v}.csv has {len(e)} rows, want {workload.n_steps + 1}")
            return
    rated = workload.n_ev * RATED_KW_PER_EV
    rms_pct = 100.0 * math.sqrt(sum(x * x for x in errs["essm"]) / len(errs["essm"])) / rated
    checks["essm.rms_pct_of_rated"] = rms_pct
    if rms_pct > TRACK_RMS_MAX_PCT:
        problems.append(f"essm rms {rms_pct:.3g}% of rated, want <= {TRACK_RMS_MAX_PCT:g}%")
    for start_h in DEFECT_WINDOWS_H:
        k0 = round(start_h * 3600.0 / DT_S)
        if k0 + 8 > workload.n_steps + 1:
            continue  # probe lies beyond a shortened horizon
        mean = {v: sum(e[k0 + 2:k0 + 8]) / 6.0 for v, e in errs.items()}
        ratio = mean["ssm"] / mean["essm"]
        checks[f"defect_ratio@{start_h:g}h"] = ratio
        if ratio < TRACK_DEFECT_RATIO_MIN:
            problems.append(f"defect window at {start_h:g} h: ssm/essm error ratio "
                            f"{ratio:.3g}, want >= {TRACK_DEFECT_RATIO_MIN:g}")


def _check_states(workload: Workload, out: Path, problems: list) -> None:
    paths = sorted(out.glob("states_*.csv"))
    if len(paths) != 2:
        problems.append(f"expected states_ssm.csv and states_essm.csv, found {len(paths)} files")
    for path in paths:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != workload.n_steps + 1:
            problems.append(f"{path.name} has {len(rows)} rows, want {workload.n_steps + 1}")
        bad = [i for i, row in enumerate(rows)
               if abs(sum(float(v) for v in row[1:]) - 1.0) > STATE_SUM_TOL]
        if bad:
            problems.append(f"{path.name}: {len(bad)} rows do not sum to 1 (first: row {bad[0]})")


def source_digest() -> str:
    """SHA-256 over the program's sources, which identifies the code under
    test where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "evflex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
