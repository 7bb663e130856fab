"""Span tracing from outside the program.

`installed(tracer)` wraps the public functions and methods of `fleet`, `imm`,
`aggregate`, `control`, `scenario` and `cli` for the duration of a `with`
block. A function is wrapped at every module-level name that binds it inside
the `evflex` package, because callers import several of them by name
(`scenario` calls its own `imm_flexibility`, `plan_dispatch` ...); wrapping
the defining module alone would record nothing for those calls. Methods are
wrapped on their class. Leaving the block restores every original binding.

Each span records its name, its parent span, and its start and end on
`time.perf_counter`. Spans stay in memory; `write_spans` dumps them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

# (span name, defining module, qualified name). Names are "<layer>.<call>";
# several targets may share one span name.
TARGETS = (
    ("cli.main", "evflex.cli", "main"),
    ("scenario.experiment", "evflex.scenario", "run_prediction_experiment"),
    ("scenario.experiment", "evflex.scenario", "run_tracking_experiment"),
    ("scenario.write", "evflex.scenario", "write_timeseries_csv"),
    ("scenario.write", "evflex.scenario", "write_states_csv"),
    ("scenario.write", "evflex.scenario", "write_errors_csv"),
    ("scenario.write", "evflex.scenario", "write_tracking_csv"),
    ("fleet.sample_fleet", "evflex.fleet", "sample_fleet"),
    ("fleet.init", "evflex.fleet", "Fleet.__init__"),
    ("fleet.step", "evflex.fleet", "Fleet.step"),
    ("fleet.snapshot", "evflex.fleet", "Fleet.snapshot"),
    ("fleet.step_stream", "evflex.fleet", "step_stream"),
    ("imm.flexibility", "evflex.imm", "imm_flexibility"),
    ("aggregate.from_distributions", "evflex.aggregate", "AggregateModel.from_distributions"),
    ("aggregate.estimate_transition_matrix", "evflex.aggregate", "estimate_transition_matrix"),
    ("aggregate.resync", "evflex.aggregate", "AggregateModel.resync"),
    ("aggregate.advance", "evflex.aggregate", "AggregateModel.advance"),
    ("aggregate.pre_control", "evflex.aggregate", "AggregateModel.pre_control"),
    ("aggregate.envelope", "evflex.aggregate", "AggregateModel.envelope"),
    ("aggregate.build_output_matrix", "evflex.aggregate", "build_output_matrix"),
    ("aggregate.state_index", "evflex.aggregate", "StateLayout.state_index"),
    ("control.plan_dispatch", "evflex.control", "plan_dispatch"),
    ("control.to_switching_probabilities", "evflex.control", "to_switching_probabilities"),
    ("control.actuate_array", "evflex.control", "actuate_array"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Call counts reported as metrics, by span.
CALL_METRICS = {
    "fleet.step": "fleet.step_calls",
    "imm.flexibility": "imm.calls",
    "aggregate.build_output_matrix": "aggregate.build_output_matrix_calls",
    "aggregate.state_index": "aggregate.state_index_calls",
    "control.plan_dispatch": "control.plans",
}

_MARK = "__perfbench_span__"


def _count_plug_events(counters: Counter, snapshot) -> None:
    counters["fleet.plug_events"] += snapshot.n_in + snapshot.n_out


def _count_saturated(counters: Counter, plan) -> None:
    counters["control.saturated_plans"] += bool(plan.saturated)


# Counters read from a span's return value.
OBSERVERS = {"fleet.step": _count_plug_events, "control.plan_dispatch": _count_saturated}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if observe is not None:
                observe(counters, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def summary(self) -> dict[str, float]:
        """Per span name: total time, self time (duration minus its direct
        children) and call count; per layer, the sum of its spans' self
        times; plus the counters."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for (name, _, start, end), c in zip(self.spans, child):
            own[name] += (end - start) - c
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = own[name]
        for layer in dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES):
            out[f"{layer}.self_s"] = sum(own[n] for n in SPAN_NAMES if n.startswith(layer + "."))
        for span, metric in CALL_METRICS.items():
            out[metric] = float(calls[span])
        out["fleet.plug_events"] = float(self.counters["fleet.plug_events"])
        plans = calls["control.plan_dispatch"]
        out["control.saturated_ratio"] = self.counters["control.saturated_plans"] / plans if plans else 0.0
        out["trace.spans"] = float(len(self.spans))
        out["trace.missing_targets"] = float(len(self.missing))
        return out


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "evflex" or n.startswith("evflex."))]


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them.
    A target the program no longer has is listed in `tracer.missing`."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for name, module, qualname in TARGETS:
            try:
                owner, attr = _resolve(module, qualname)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                tracer.missing.append(f"{module}.{qualname}")
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    patch(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    patch(owner, attr, tracer.wrap(name, raw))
                continue
            wrapped = tracer.wrap(name, raw)
            for mod in _package_modules():
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        patch(mod, alias, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def leftover_wrappers() -> list[str]:
    """Names in the `evflex` package that still bind a trace wrapper."""
    found = []
    for mod in _package_modules():
        for alias, value in vars(mod).items():
            holders = [(alias, value)]
            if isinstance(value, type) and value.__module__.startswith("evflex"):
                holders += [(f"{alias}.{k}", v) for k, v in vars(value).items()]
            for label, obj in holders:
                obj = obj.__func__ if isinstance(obj, classmethod) else obj
                if hasattr(obj, _MARK):
                    found.append(f"{mod.__name__}.{label}")
    return found


def write_spans(path: Path, jobs: list[list[list]]) -> None:
    """One row per span: job number, span id, parent id, name, start, end."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job", "span", "parent", "name", "start_s", "end_s"])
        for j, spans in enumerate(jobs):
            t0 = spans[0][2] if spans else 0.0
            for i, (name, parent, start, end) in enumerate(spans):
                writer.writerow([j, i, parent, name, f"{start - t0:.7f}", f"{end - t0:.7f}"])
