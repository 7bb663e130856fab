"""Byte identity of the command-line outputs against another source tree.

Runs each workload below in this tree and in PARENT_TREE (a checkout or a
`git archive` copy with its own `src`, `configs` and `perfbench`), and
compares the SHA-256 of every CSV that each writes. It prints the workloads,
then each CSV that moved or exists on one side only, and exits non-zero if
any did. The workloads cover predict at 500 and 10,000 vehicles (seeds 7 and
29), each variant alone, predict-500 with measurement noise (from a config
that the script writes into its temporary directory and passes to both trees
by its absolute path), a sweep, and the tracking probes at 1,000 vehicles;
predict-500, predict-10k and track-3k are the three `perfbench` workloads'
jobs. The golden digests of `tests/test_golden.py` are pinned there and
checked by tier-1.

    python tests/identity.py PARENT_TREE

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from mutants import ROOT, digests

WORKLOADS = {
    **{f"predict-{n}-seed{seed}": ["predict", "--n-ev", str(n), "--seed", str(seed)]
       for n in (500, 10_000) for seed in (7, 29)},
    **{f"predict-500-{variant}": ["predict", "--n-ev", "500", "--seed", "7", "--variants",
                                  variant] for variant in ("ssm", "essm")},
    "sweep-100-300": ["sweep", "--sizes", "100", "300"],
    "track-3k": ["track", "--n-ev", "3000", "--seed", "11", "--config", "perfbench/track3k.json"],
    "probes-1k": ["track", "--config", "configs/tracking_probes.json", "--n-ev", "1000"],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "evflex").is_dir():
        print("usage: python tests/identity.py PARENT_TREE", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        noisy = Path(tmp) / "noise.json"
        noisy.write_text(json.dumps({"measurement_noise_kw": [25.0, 5.0, 12.5]}))
        workloads = {**WORKLOADS, "predict-500-noise": [
            "predict", "--n-ev", "500", "--seed", "7", "--config", str(noisy)]}
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
