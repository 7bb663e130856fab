"""Byte identity of the command-line outputs against another source tree.

Runs each workload below in this tree and in PARENT_TREE (a checkout or a
`git archive` copy with its own `src`, `configs` and `perfbench`), and
compares the SHA-256 of every CSV that each writes. It prints the workloads,
then each CSV that moved or exists on one side only, and exits non-zero if
any did. The workloads cover predict at 500 and 10,000 vehicles (seeds 7 and
29), each variant alone, predict-500 with measurement noise, a sweep, and the
tracking probes at 1,000 vehicles: as they are, with measurement noise, and
with ssm alone. A tracking run at 1,000 vehicles replays a reference CSV. The
noise configs and the reference CSV are written into the script's temporary
directory and passed to both trees by their absolute paths. predict-500,
predict-10k and track-3k are the three `perfbench` workloads' jobs. The
golden digests of `tests/test_golden.py` are pinned there and checked by
tier-1.

    python tests/identity.py PARENT_TREE

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from mutants import ROOT, digests

PROBES = "configs/tracking_probes.json"
WORKLOADS = {
    **{f"predict-{n}-seed{seed}": ["predict", "--n-ev", str(n), "--seed", str(seed)]
       for n in (500, 10_000) for seed in (7, 29)},
    **{f"predict-500-{variant}": ["predict", "--n-ev", "500", "--seed", "7", "--variants",
                                  variant] for variant in ("ssm", "essm")},
    "sweep-100-300": ["sweep", "--sizes", "100", "300"],
    "track-3k": ["track", "--n-ev", "3000", "--seed", "11", "--config", "perfbench/track3k.json"],
    "probes-1k": ["track", "--config", PROBES, "--n-ev", "1000"],
    "probes-1k-ssm": ["track", "--config", PROBES, "--n-ev", "1000", "--variants", "ssm"],
}


def write_reference(path: Path) -> None:
    """A reference CSV for the default 24 h day at 15 s steps: a 6 h sine about 400 kW."""
    time_h = np.arange(5761) * (15.0 / 3600.0)
    np.savetxt(path, np.column_stack([time_h, 400.0 + 300.0 * np.sin(2 * np.pi * time_h / 6)]),
               fmt="%.17g", delimiter=",", header="time_h,reference_kw", comments="")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "evflex").is_dir():
        print("usage: python tests/identity.py PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        noise = {"measurement_noise_kw": [25.0, 5.0, 12.5]}
        noisy, probes_noisy = Path(tmp) / "noise.json", Path(tmp) / "probes-noise.json"
        noisy.write_text(json.dumps(noise))
        probes_noisy.write_text(json.dumps(json.loads((ROOT / PROBES).read_text()) | noise))
        reference = Path(tmp) / "reference.csv"
        write_reference(reference)
        workloads = {**WORKLOADS, "predict-500-noise": [
            "predict", "--n-ev", "500", "--seed", "7", "--config", str(noisy)],
            "probes-1k-noise": ["track", "--config", str(probes_noisy), "--n-ev", "1000"],
            "track-1k-replay": ["track", "--n-ev", "1000", "--reference", str(reference)]}
        ours, theirs = digests(ROOT, workloads), digests(parent, workloads)
    moved = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    for name in workloads:
        print(f"{name}: {sum(k.startswith(name + '/') for k in ours)} CSVs")
    for key in moved:
        print(f"MOVED     {key}")
    print(f"{len(ours.keys() | theirs.keys())} CSVs, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
