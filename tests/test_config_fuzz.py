"""Config fuzz: `evflex predict` on a mutated `configs/default.json` exits 0, or exits 2
with one `evflex: error:` line; it never ends in a traceback.

The base config is the default cut to a 0.25 h horizon and 2,000 transition samples, so
that a run of at most 20 vehicles takes tens of milliseconds. An example applies one or
two mutations, each to one key or list item: drop it, retype it, perturb it (a number
only, scaled by -1, 0, 0.5 or 2) or nest it in a list or an object. No perturbation more
than doubles a number, and the horizon is never dropped (its default is a whole day), so
every run spans at most 1 h.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from evflex.cli import main

ROOT = Path(__file__).resolve().parents[1]
BASE = json.loads((ROOT / "configs" / "default.json").read_text()) | {
    "horizon_hours": 0.25, "transition_samples": 2000}


def key_paths(node, path=()):
    """The path of every key and list item in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(list(key_paths(config))))
        holder = config
        for part in parents:
            holder = holder[part]
        value = holder[key]
        kind = draw(st.sampled_from(["drop", "retype", "perturb", "nest"]))
        if kind == "drop" and key != "horizon_hours":
            del holder[key]
        elif kind == "retype":
            holder[key] = draw(st.sampled_from(["1", None, True, [], {}]))
        elif kind == "perturb" and type(value) in (int, float):
            holder[key] = value * draw(st.sampled_from([-1, 0, 0.5, 2]))
        elif kind == "nest":
            holder[key] = draw(st.sampled_from([[value], {"value": value}]))
    return config


@settings(derandomize=True, max_examples=150, deadline=None)
@given(config=mutated_configs(), n_ev=st.integers(1, 20))
# A fleet never connected: every error ratio of its baseline is undefined.
@example(config={"n_ev": 1, "horizon_hours": 0.25, "seed": 1}, n_ev=1)
# 300 s steps move the fastest vehicle more than a 1/40 interval.
@example(config={"dt_seconds": 300, "n_intervals": 40, "horizon_hours": 1.0}, n_ev=20)
# No plug-out in [20.9, 22] h lies within a day after a plug-in past 22 h.
@example(config={"horizon_hours": 0.25, "distributions": {"plug_out_hour": {
    "kind": "uniform", "low": 20.9, "high": 22.0}}}, n_ev=20)
def test_mutated_config_runs_or_is_one_line(config, n_ev):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = main(["predict", "--config", str(path), "--n-ev", str(n_ev),
                             "--out", str(Path(tmp) / "out")])
            except SystemExit as exc:
                code = exc.code
    lines = err.getvalue().strip().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2
        assert [line for line in lines if "error" in line] == [lines[-1]]
        assert lines[-1].startswith("evflex: error: ")
