"""Mutant catalogue of the physical rules.

Each entry names the rule it breaks, a file under `src/evflex` and a patch
that replaces one exact text there. For each entry the script copies the tree
(`src`, `tests`, `configs`, `perfbench`) into a temporary directory, applies
the patch and runs tier-1 there with `-x`, all but `test_mutants.py`; the
unpatched copy must pass it.
Where tier-1 passes, it compares the CSV digests of predict-500 (seed 7) and
of the tracking probes at 1,000 vehicles with those of the unpatched tree.
It prints each mutant as killed, or as surviving with the reason it is
equivalent; a survivor that changes a digest, or one with no stated reason,
is a hole in tier-1 and makes the script exit non-zero.

Run from anywhere, optionally naming mutants by a substring:

    python tests/mutants.py [substring ...]

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {
    "predict-500": ["predict", "--n-ev", "500", "--seed", "7"],
    "probes-1k": ["track", "--config", "configs/tracking_probes.json", "--n-ev", "1000"],
}


@dataclass(frozen=True)
class Mutant:
    rule: str
    name: str
    file: str  # under src/evflex
    old: str
    new: str
    equivalent: str | None = None  # why it survives without changing a workload


MUTANTS = (
    # The rules read off the state table and imm's capability rule.
    Mutant("state table", "the fold sends the ceiling into the bottom idle interval",
           "aggregate.py", "np.r_[:n, 0, n - 1]", "np.r_[:n, 0, 0]"),
    Mutant("state table", "an interval edge is never lowered to its first float",
           "aggregate.py", "while ((edge - lo) / self.width > k).any():", "while False:"),
    Mutant("capability", "a forced vehicle can discharge", "imm.py",
           "(soc > soc_min) & ~forced", "(soc > soc_min)"),
    Mutant("actuation", "the boundary state on the wrong side is addressed", "control.py",
           "(CS, n + 1, n) if provide else (DS, n, n + 1)",
           "(CS, n, n + 1) if provide else (DS, n + 1, n)"),
    Mutant("state step", "the transition's next slot is off by one", "aggregate.py",
           "np.r_[table[CS, 1:n], table[IS, n + 1]]", "np.r_[table[CS, :n - 1], table[IS, n + 1]]"),
    Mutant("state step", "the pre-churn clamp is skipped under a command", "aggregate.py",
           "            np.maximum(x, 0.0, out=x)\n        if (n_in or n_out) and n_new > 0:",
           "        if (n_in or n_out) and n_new > 0:"),
    Mutant("state step", "renormalization is dropped", "aggregate.py", "x /= total", "pass"),
    Mutant("state step", "the planned-on state is changed in place", "aggregate.py",
           "else pre.x.copy()", "else pre.x"),
    Mutant("CSV output", "the block writer drops the last partial block", "scenario.py",
           "np.split(table, range(_BLOCK, len(table), _BLOCK)):",
           "np.split(table, range(_BLOCK, len(table), _BLOCK))[:len(table) // _BLOCK]:"),
    Mutant("running sums", "every lane records lane 0's envelope", "scenario.py",
           "env = fleet.envelopes[r]", "env = fleet.envelopes[0]"),
    # The prediction run's model pass, a resync period at a time (`run_period`, and the loop over
    # the periods); `_finish_step`, which it shares with `advance`, is covered by the state-step
    # mutants above. The output-matrix stack is filled once a period (`_fill_outputs`).
    Mutant("model pass", "the block's churn is read one step early", "aggregate.py",
           "churn[i - 1] if busy[i - 1] else None", "churn[i - 2] if busy[i - 2] else None"),
    Mutant("model pass", "the pattern is kept after the fleet empties", "aggregate.py",
           "np.multiply(n[emptied:, None, None], self._zero,",
           "np.multiply(n[emptied:, None, None], self._pattern,"),
    # One row late would change nothing: the emptying row's n is 0, and 0 · pattern has the
    # bits of 0 · zero pattern (the zero pattern is the coefficients times 0.0, signs kept).
    Mutant("model pass", "the stack takes the zero pattern two steps late", "aggregate.py",
           "emptied = min(emptied, i)", "emptied = min(emptied, i + 2)"),
    Mutant("model pass", "the last partial block is dropped", "scenario.py",
           "zip(range(0, k_steps + 1, every), resyncs)",
           "zip(range(0, k_steps + 2 - every, every), resyncs)"),
    # The fold that derives ssm's rows from essm's in a two-variant pass, and the one-step
    # churn count that `advance` takes.
    Mutant("fold", "the pass folds the ceiling state into the bottom idle interval",
           "aggregate.py", "    f[ext.state_table[on], plain.state_table[on]] = 1.0\n",
           "    f[ext.state_table[on], plain.state_table[on]] = 1.0\n"
           "    f[ext.full_idle_index] = np.eye(plain.dimension)[plain.idle.start]\n"),
    Mutant("fold", "ssm's C takes the empty-idle column for the forced-charging one",
           "scenario.py", "c.take(keep, 2)", "c[:, :, :-2]"),
    Mutant("state step", "the one-step churn count drops the step's first departure",
           "aggregate.py", "np.bincount(states[n_in:], minlength=d)",
           "np.bincount(states[n_in + 1:], minlength=d)"),
    # The reference draw and the dispatch plan.
    Mutant("reference draw", "the draw spans the whole band", "scenario.py",
           "half = 0.5 * central_fraction * (p_u - p_l)", "half = 0.5 * (p_u - p_l)"),
    Mutant("reference draw", "a window's depth is measured from the far side of the band",
           "scenario.py", "top = env.p_u_kw if window.kind == \"provide\" else env.p_l_kw",
           "top = env.p_l_kw if window.kind == \"provide\" else env.p_u_kw"),
    Mutant("reference draw", "the first level waits for a period boundary", "scenario.py",
           "if k % self._period_steps == 0 or np.isnan(self._held):",
           "if k % self._period_steps == 0:"),
    Mutant("reference draw", "a window's level is frozen anew at every step", "scenario.py",
           "if self._windows.get(k - 1) is not window:", "if True:"),
    Mutant("actuation", "the expected input ignores in-flight mass", "control.py",
           "        if rate1 > 0.0:  # one broadcast", "        if False:  # one broadcast"),
    Mutant("actuation", "saturation is never reported", "control.py",
           "return DispatchPlan(u, achieved, shortfall > sat_tol,",
           "return DispatchPlan(u, achieved, False,"),
    Mutant("actuation", "stage 2 runs where stage 1 meets the target", "control.py",
           "if want > take1_kw else 0.0", "if want >= take1_kw else 0.0",
           equivalent="where stage 1 meets the target, stage 2's take is min(0, ...), which is 0"),
    # The fleet kernel: forced charging, the watched mask, the due steps, lanes and absorption.
    Mutant("running sums", "the envelopes lag the sums by one commit", "fleet.py",
           "        self.envelopes = tuple([",
           "        self.envelopes = getattr(self, '_next', None) or (\n"
           "            (FlexibilityEnvelope(0.0, 0.0, 0.0),) * self.lanes)\n"
           "        self._next = tuple(["),
    Mutant("running sums", "construction skips the t = 0 commit", "fleet.py",
           "        self._commit(0)\n", ""),
    Mutant("running sums", "construction does not re-mark its vehicles for step 1", "fleet.py",
           "        self._dirty[:] = self._mode != DISCONNECTED\n", ""),
    Mutant("deadline rule", "the binding rule is strict", "fleet.py",
           "return demanded - soc >= (deadline - t0) * rate_c",
           "return demanded - soc > (deadline - t0) * rate_c"),
    Mutant("deadline rule", "yesterday's deadline holds at its own plug-out", "fleet.py",
           "return np.where(t < m_end, m_end, plug_out)",
           "return np.where(t <= m_end, m_end, plug_out)"),
    Mutant("running sums", "every lane's sums are lane 0's", "fleet.py",
           "np.add.at(self._sums, ids // self.params.n_ev,", "np.add.at(self._sums, 0 * ids,"),
    Mutant("SOC law", "no absorption on the step a vehicle is placed", "fleet.py",
           "np.ceil((bound - soc_a) / slope), 1.0)", "np.ceil((bound - soc_a) / slope), 2.0)"),
    Mutant("SOC law", "vehicles are absorbed a step late", "fleet.py",
           "return k + np.maximum(", "return k + 1 + np.maximum("),
    Mutant("SOC law", "SOC runs a step ahead of its anchor", "fleet.py",
           "soc_a + slope * (k - k_a)", "soc_a + slope * (k - k_a + 1)"),
    Mutant("capability", "a vehicle at the ceiling is read as inside", "fleet.py",
           'reach.searchsorted(soc, "right")', 'reach.searchsorted(soc, "left")'),
    Mutant("SOC law", "only lane 0's vehicles are absorbed", "fleet.py",
           "absorbed = (self._due == j).nonzero()[0]",
           "absorbed = (self._due[:n] == j).nonzero()[0]"),
    Mutant("SOC law", "departures keep their due step", "fleet.py",
           "self._due[departures], self._watch[departures] = -1, False",
           "self._watch[departures] = False"),
    Mutant("deadline rule", "departures stay watched", "fleet.py",
           "self._due[departures], self._watch[departures] = -1, False",
           "self._due[departures] = -1"),
    Mutant("deadline rule", "arrivals are not checked", "fleet.py",
           "self._anchor(arrivals, np.concatenate([in_soc] * lanes), CS, k0)\n",
           "self._anchor(arrivals, np.concatenate([in_soc] * lanes), CS, k0)\n"
           "            self._watch[arrivals] = False\n"),
    Mutant("capability", "the floor is read as inside", "fleet.py",
           "np.array([np.nextafter(lo, hi), hi])", "np.array([lo, hi])"),
    Mutant("deadline rule", "switched vehicles are never watched", "fleet.py",
           "self._anchor(ids[moved], soc[moved], new[moved], k0)\n",
           "self._anchor(ids[moved], soc[moved], new[moved], k0)\n"
           "                self._watch[ids[moved]] = False\n"),
    Mutant("deadline rule", "floor-absorbed vehicles are never watched", "fleet.py",
           "self._anchor(absorbed, self._bound.take(self._mode[absorbed]), IS, j)\n",
           "self._anchor(absorbed, self._bound.take(self._mode[absorbed]), IS, j)\n"
           "            self._watch[absorbed] = False\n"),
    # The event schedule of an uncontrolled fleet: its own code, not the shared rules.
    Mutant("running sums", "the schedule adds a session's first share a step late", "fleet.py",
           "((c1, first, np.add),", "((c1 + 1, first, np.add),"),
    Mutant("running sums", "the schedule takes a departure's share out a step early",
           "fleet.py", "(b, idle, np.subtract)", "(b - 1, idle, np.subtract)"),
    # Each resync's state and each step's churn counted off the schedule's sessions, and the rule
    # it shares with `discretize`.
    Mutant("SOC law", "the schedule reads a departure's state at its own step", "aggregate.py",
           "state(end - 1)", "state(end)"),
    Mutant("SOC law", "an arrival's churn is counted in its first step's state", "aggregate.py",
           'bins[CS, edges.searchsorted(schedule.params.initial_soc[ids[arriving]], "right")]',
           "state(start[arriving], arriving)"),
    Mutant("state step", "the churn's ints cannot hold a whole fleet in one state",
           "aggregate.py", "np.min_scalar_type(-schedule.params.n_ev - 1)",
           "np.min_scalar_type(-schedule.params.n_ev)"),
    Mutant("SOC law", "a full session is counted charging one step longer", "aggregate.py",
           "idle = step >= full[on]", "idle = step > full[on]"),
    Mutant("deadline rule", "a placed session is counted forced at t = 0", "aggregate.py",
           "np.where(step == 0, t0_mode[on], mode[on])", "mode[on]"),
    Mutant("SOC law", "an edge crossing is counted a step late", "aggregate.py",
           "yield at[inside], bins[", "yield at[inside] + 1, bins["),
    Mutant("state table", "the last interval edge is never crossed", "aggregate.py",
           "for r in range(1, layout.n_intervals):", "for r in range(1, layout.n_intervals - 1):"),
    Mutant("capability", "forced vehicles count in p_ac's charging set", "aggregate.py",
           "np.where(mode == CS, filled,", "np.where(mode != IS, filled,"),
    Mutant("SOC law", "a vehicle placed at t = 0 idles below the ceiling", "fleet.py",
           "np.where(soc >= params.soc_max, IS, CS)",
           "np.where(soc >= 0.9 * params.soc_max, IS, CS)"),
    Mutant("running sums", "the schedule's t = 0 shares are taken in the promoted mode",
           "fleet.py", "check[placed], t0_mode[placed])", "check[placed], mode[placed])"),
    Mutant("deadline rule", "the schedule checks a session that left on its first step",
           "fleet.py", "promote = (mode == CS) & (c1 < b) &", "promote = (mode == CS) &"),
    Mutant("deadline rule", "charging vehicles stay watched", "fleet.py",
           "            self._watch[check] = self._mode[check] != CS\n", "",
           equivalent="a charging anchor's slack does not change but for float rounding, so the "
                      "first check decides it"),
)


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests", "configs", "perfbench"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".work"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def environment(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def tier1_passes(root: Path) -> bool:
    # Without `test_mutants.py`, which finds every applied patch's text gone and so would kill
    # every mutant.
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          "--ignore", "tests/test_mutants.py"],
                         cwd=root, env=environment(root), capture_output=True, text=True)
    return run.returncode == 0


def digests(root: Path, workloads: dict[str, list[str]] = WORKLOADS) -> dict[str, str]:
    """sha256 of every CSV the workloads write, keyed by workload and file."""
    out = {}
    for name, argv in workloads.items():
        with tempfile.TemporaryDirectory() as tmp:
            subprocess.run([sys.executable, "-m", "evflex", *argv, "--out", tmp], cwd=root,
                           env=environment(root), check=True, capture_output=True)
            for csv in sorted(Path(tmp).glob("*.csv")):
                out[f"{name}/{csv.name}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return out


def main(selected: list[str]) -> int:
    mutants = [m for m in MUTANTS if not selected or any(s in m.name for s in selected)]
    holes = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        if not tier1_passes(base):
            print("tier-1 fails on the unpatched tree; no mutant can be judged")
            return 1
        reference = digests(base)
        for i, mutant in enumerate(mutants):
            root = Path(tmp) / f"m{i}"
            copy_tree(root)
            path = root / "src" / "evflex" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                print(f"STALE     [{mutant.rule}] {mutant.name}: the patch no longer applies")
                holes += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            if not tier1_passes(root):
                print(f"killed    [{mutant.rule}] {mutant.name}")
            else:
                moved = sorted(k for k, v in digests(root).items() if reference.get(k) != v)
                if moved or mutant.equivalent is None:
                    holes += 1
                    print(f"SURVIVED  [{mutant.rule}] {mutant.name}: changes {moved or 'nothing'}"
                          + ("" if mutant.equivalent is None else f" ({mutant.equivalent})"))
                else:
                    print(f"survived  [{mutant.rule}] {mutant.name}: equivalent on the "
                          f"workloads; {mutant.equivalent}")
            shutil.rmtree(root)
    print(f"{len(mutants)} mutants, {holes} holes")
    return 1 if holes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
