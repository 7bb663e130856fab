"""Self-tests of the benchmark at a tiny size (200 vehicles, 3 h).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import jobs
import run
import spans

TINY_HOURS = 3.0


@pytest.fixture(scope="module")
def cli():
    return jobs.import_program()


def tiny(tmp_path, command: str) -> jobs.Workload:
    base = json.loads((jobs.BENCH_DIR / "track3k.json").read_text()) if command == "track" else {}
    config = tmp_path / f"tiny-{command}.json"
    config.write_text(json.dumps({**base, "horizon_hours": TINY_HOURS}))
    return jobs.Workload(f"tiny-{command}", command, 200, 7, config)


def test_gate_fails_truncated_or_altered_csv(cli, tmp_path):
    workload = tiny(tmp_path, "predict")
    out = tmp_path / "out"
    assert cli.main(workload.argv(7, out)) == 0
    digests, checks, problems = jobs.gate(workload, out, None)
    assert problems == []
    assert set(checks) == {f"{v}.{c}" for v, c, _, _ in jobs.PREDICT_BOUNDS}

    states = out / "states_essm.csv"
    intact = states.read_bytes()
    states.write_bytes(intact[:intact.rindex(b"\n", 0, len(intact) - 1) + 1])
    problems = jobs.gate(workload, out, digests)[2]
    assert any("states_essm.csv has 720 rows, want 721" in p for p in problems)
    assert any("differ from the reference digests: states_essm.csv" in p for p in problems)
    states.write_bytes(intact)

    series = out / "timeseries.csv"
    data = bytearray(series.read_bytes())
    last_digit = max(data.rfind(d) for d in b"0123456789")
    data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    series.write_bytes(bytes(data))
    problems = jobs.gate(workload, out, digests)[2]
    assert problems == ["outputs differ from the reference digests: timeseries.csv"]

    (out / "errors.csv").write_text("n_ev,variant\n")
    assert any("unreadable output" in p for p in jobs.gate(workload, out, None)[2])


def span_self_times(layers: dict) -> dict:
    return {n: layers[f"{n}_self_s"] for n in spans.SPAN_NAMES}


def test_traced_predict_job(cli, tmp_path):
    workload = tiny(tmp_path, "predict")
    job, job_spans = run.run_traced(cli, workload, 7, None, tmp_path)
    assert job.ok, job.problems
    assert spans.leftover_wrappers() == []
    layers = job.layers
    own = span_self_times(layers)
    assert min(own.values()) >= 0.0
    assert sum(own.values()) <= layers["trace.wall_s"]
    assert layers["trace.missing_targets"] == 0
    assert layers["fleet.step_calls"] == workload.n_steps
    assert layers["imm.calls"] == workload.n_steps + 1  # bound by name in scenario
    assert layers["fleet.step_s"] > 0 and layers["scenario.write_s"] > 0
    assert layers["fleet.plug_events"] > 0 and layers["scenario.bytes_written"] > 0
    control = {k: v for k, v in layers.items() if k.startswith("control.")}
    assert control and not any(control.values())
    assert len(job_spans) == layers["trace.spans"]
    assert sum(parent < 0 for _, parent, _, _ in job_spans) == 1  # cli.main is the root


def test_traced_track_job_reaches_control(cli, tmp_path):
    workload = tiny(tmp_path, "track")
    job, _ = run.run_traced(cli, workload, 11, None, tmp_path)
    assert job.ok, job.problems
    assert spans.leftover_wrappers() == []
    layers = job.layers
    assert layers["control.plans"] == 2 * workload.n_steps
    for name in ("control.plan_dispatch_s", "control.to_switching_probabilities_s",
                 "control.actuate_array_s", "fleet.step_stream_s", "aggregate.pre_control_s"):
        assert layers[name] > 0, name
    assert 0.0 <= layers["control.saturated_ratio"] <= 1.0
    assert min(span_self_times(layers).values()) >= 0.0


def test_traced_and_untraced_jobs_agree(cli, tmp_path):
    workload = tiny(tmp_path, "predict")
    registry = run.DigestRegistry(tmp_path / "digests.json", "key")
    done, span_sets, probes, setup = run.run_jobs(cli, workload, 7, 0.0, 1, registry, tmp_path)
    assert setup == []
    assert len(probes) == 3 and min(probes) > 0
    assert [j.layers is not None for j in done] == [False, True]
    assert all(j.ok for j in done), [j.problems for j in done]
    assert registry.reference() == done[0].digests == done[1].digests
    assert len(span_sets) == 1
    values, _ = run.per_layer(done)
    assert list(values) == run.per_layer_names()


def test_metric_names_match_benchmark_json():
    spec = json.loads((jobs.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(jobs.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(jobs.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "predict-500",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "\"correct\"" not in proc.stdout
    assert "cannot import the program" in proc.stderr
