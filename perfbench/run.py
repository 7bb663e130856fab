#!/usr/bin/env python3
"""evflex benchmark: one workload, run through the public CLI for a fixed time.

    python3 perfbench/run.py --workload predict-10k --seed 7 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  predict-10k  `evflex predict`, 10,000 vehicles, 24 h: per-vehicle fleet work
  track-3k     `evflex track`, 3,000 vehicles, 24 h, scripted probes: control
  predict-500  `evflex predict`, 500 vehicles, 24 h: per-step fixed cost

A run repeats complete CLI jobs, one at a time in this process, until the
next job would end more than half a job after `--seconds`. A job fails
unless its CSVs pass the acceptance gate and match the SHA-256 digests of the
first passing job for this program source, workload and seed (kept in
perfbench/.work/digests.json).

--trace 0 reports the end-to-end metrics: wall and CPU time of the fastest
job (at least three run), throughput and peak RSS, plus the median cold
set-up time over seven fresh interpreters spread through the run. The
fastest job is compared because the shared box has slow spells of tens of
seconds: over ten 35 s runs of predict-500 on a 2-vCPU KVM guest, the spread
(interquartile range over median) of the fastest job was 0.08 against 0.59
for the median job. The median job time and its tail are printed beside it.

--trace 1 alternates untraced and traced jobs and reports the per-layer span
totals and self times of the median traced job, and the tracing overhead
(fastest traced minus fastest untraced job).

Every run prints, and writes to perfbench/.work/results/, its environment,
the load average around each job and a machine-speed probe (speed.py). The
last line of stdout is one JSON object: correct, attempted, failed and
metrics. The run exits non-zero without that line when the program sources
are missing or set-up cannot be measured.
"""

from __future__ import annotations

import os

# The benchmark measures the program single-threaded; BLAS pools would only
# add scheduling noise to its tiny matrix products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

WORK_DIR = jobs.BENCH_DIR / ".work"
SETUP_REPEATS = 7
MIN_JOBS = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "ev_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = ("scenario.bytes_written", "trace.wall_s", "trace.untraced_wall_s",
                   "trace.overhead_s")


def per_layer_names() -> list[str]:
    return list(spans.Tracer().summary()) + list(PER_LAYER_EXTRA)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return "tail percentile needs >= 11 samples"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f}"


def measure_setup(workload: jobs.Workload, seed: int) -> dict:
    """One cold set-up in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(jobs.BENCH_DIR / "setup_probe.py"),
                           workload.name, str(seed)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class DigestRegistry:
    """Reference output digests per (program source, workload, seed)."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.entries = json.loads(path.read_text()) if path.is_file() else {}

    def reference(self) -> dict[str, str] | None:
        return self.entries.get(self.key)

    def record(self, digests: dict[str, str]) -> None:
        self.entries[self.key] = digests
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        tmp.replace(self.path)


def run_traced(cli, workload, seed, reference, work_dir) -> tuple[jobs.Job, list]:
    tracer = spans.Tracer()
    with spans.installed(tracer):
        job = jobs.run_job(cli, workload, seed, work_dir, reference)
    leftover = spans.leftover_wrappers()
    if leftover:
        job.problems.append("trace wrappers left installed: " + ", ".join(leftover))
    if tracer.missing:
        print("warning: trace targets missing from the program: " + ", ".join(tracer.missing),
              file=sys.stderr)
    job.layers = tracer.summary()
    job.layers["scenario.bytes_written"] = float(job.bytes_written)
    job.layers["trace.wall_s"] = job.wall_s
    return job, tracer.spans


def run_jobs(cli, workload, seed, seconds, trace, registry, work_dir
             ) -> tuple[list[jobs.Job], list, list[float], list[dict]]:
    """Jobs until the next one would end more than half a job after
    `seconds`, and at least MIN_JOBS; with tracing, untraced and traced jobs
    alternate and each kind runs at least once. The speed probe runs before
    the first job and after each job. Untraced runs also time SETUP_REPEATS
    cold set-ups, spread between the jobs so that they meet the same
    machine states."""
    done: list[jobs.Job] = []
    span_sets: list = []
    setup: list[dict] = []
    start = time.perf_counter()
    probes = [speed.kernel_s()]
    while True:
        traced = trace and len(done) % 2 == 1
        reference = registry.reference()
        if traced:
            job, job_spans = run_traced(cli, workload, seed, reference, work_dir)
            span_sets.append(job_spans)
        else:
            job = jobs.run_job(cli, workload, seed, work_dir, reference)
        done.append(job)
        probes.append(speed.kernel_s())
        if reference is None and job.ok:
            registry.record(job.digests)
        kind = "traced" if traced else "untraced"
        status = "ok" if job.ok else "FAILED: " + "; ".join(job.problems)
        print(f"job {len(done)} {kind}: wall {job.wall_s:.4f} s cpu {job.cpu_s:.4f} s "
              f"load {job.load_before[0]:.2f}->{job.load_after[0]:.2f} {status}", flush=True)
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
        while not trace and len(setup) < math.ceil(SETUP_REPEATS * share):
            setup.append(measure_setup(workload, seed))
        elapsed = time.perf_counter() - start
        typical = statistics.median(j.wall_s for j in done)
        if len(done) >= (2 if trace else MIN_JOBS) and elapsed + typical / 2 > seconds:
            while not trace and len(setup) < SETUP_REPEATS:
                setup.append(measure_setup(workload, seed))
            return done, span_sets, probes, setup


def end_to_end(workload, done, setup) -> tuple[dict[str, float], dict[str, int]]:
    walls = [j.wall_s for j in done]
    cpus = [j.cpu_s for j in done]
    values = {
        "wall_s": min(walls),
        "cpu_s": min(cpus),
        "ev_steps_per_s": workload.n_ev * workload.n_steps * workload.fleets / min(walls),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"wall_s": len(walls), "cpu_s": len(walls), "ev_steps_per_s": len(walls),
              "setup_s": len(setup), "peak_rss_mb": 1}
    print(f"median job: wall {statistics.median(walls):.6g} s, cpu "
          f"{statistics.median(cpus):.6g} s (n={len(walls)}); wall {tail(walls)}")
    for part in ("import_s", "config_s", "calls_s"):
        print(f"setup {part}: {statistics.median(s[part] for s in setup):.4f} s "
              f"(median of {len(setup)})")
    return values, counts


def per_layer(done) -> tuple[dict[str, float], dict[str, int]]:
    untraced = [j.wall_s for j in done if j.layers is None]
    traced = sorted((j for j in done if j.layers is not None), key=lambda j: j.wall_s)
    median_job = traced[(len(traced) - 1) // 2]
    values = dict(median_job.layers)
    values["trace.wall_s"] = min(j.wall_s for j in traced)
    values["trace.untraced_wall_s"] = min(untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    counts = {name: 1 for name in values}
    counts["trace.wall_s"] = len(traced)
    counts["trace.untraced_wall_s"] = len(untraced)
    counts["trace.overhead_s"] = len(traced) + len(untraced)
    return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default: the acceptance tests' seed; "
                             "track-3k always uses it)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer spans instead of end-to-end metrics")
    args = parser.parse_args(argv)
    workload = jobs.WORKLOADS[args.workload]
    seed = workload.simulation_seed(workload.default_seed if args.seed is None else args.seed)

    try:
        cli = jobs.import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK_DIR)
    env = jobs.environment()
    print(f"perfbench {workload.name} seed={args.seed} simulation_seed={seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    registry = DigestRegistry(WORK_DIR / "digests.json",
                              f"{env['src_sha256']}:{workload.name}:{seed}")
    try:
        done, span_sets, probes, setup = run_jobs(cli, workload, seed, args.seconds,
                                                  args.trace, registry, WORK_DIR)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"speed probe: median {statistics.median(probes):.4f} s over {len(probes)} "
          f"(fast state of the reference box: {speed.FAST_S} s; higher means a busy box)")
    first_ok = next((j for j in done if j.ok), None)
    if first_ok is not None:
        print("checks: " + " ".join(f"{k}={v:.4g}" for k, v in first_ok.checks.items()))
        for name, digest in first_ok.digests.items():
            print(f"digest {name} sha256:{digest}")
    if args.trace:
        values, counts = per_layer(done)
        units = {name: layer_unit(name) for name in values}
        (WORK_DIR / "spans").mkdir(exist_ok=True)
        spans.write_spans(WORK_DIR / "spans" / f"{workload.name}.csv", span_sets)
    else:
        values, counts = end_to_end(workload, done, setup)
        units = END_TO_END
    failed = sum(not j.ok for j in done)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]} (n={counts[name]})")
    print(f"fail_ratio = {failed / len(done):.3g} ({failed} failed of {len(done)} attempted)")

    (WORK_DIR / "results").mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "simulation_seed": seed,
              "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup": setup, "speed_probes": probes,
              "jobs": [dataclasses.asdict(j) for j in done], "metrics": values}
    result_path = WORK_DIR / "results" / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
