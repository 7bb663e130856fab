"""Golden digests of the command-line outputs.

SHA-256 of every CSV that `evflex.cli.main` writes for small prediction runs
and a small tracking run with the scripted probes of
`configs/tracking_probes.json`. A refactor must leave every digest unchanged;
only a change whose stated purpose is a behaviour change may record new ones,
and CHANGES.md says so.

The digests are pinned to the random streams of the numpy release they were
recorded with (`PINNED_NUMPY`): the fleet, the transition-matrix estimate,
the reference and the actuation draws all come from numpy's
SeedSequence/PCG64 generators, and another numpy release may draw different
values for the same seed. A failure names the changed CSVs and both numpy
versions.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from evflex.cli import main

PINNED_NUMPY = "2.4.6"

PROBES = Path(__file__).resolve().parents[1] / "configs" / "tracking_probes.json"

PREDICT_DIGESTS = {
    "errors.csv": "7945aeb10a95c7afdac028bc6cd3be379019c492e6f6d738bb2e3c06721a5445",
    "states_essm.csv": "3a0efd019826e240e68c973047f13b2a573e05264555c0f61d2e0561bbb845f2",
    "states_ssm.csv": "0a6d57df70b07b0ce19b352b3c999ca2955763ff962d0edececd25b51abbe12b",
    "timeseries.csv": "31b62a31bd22150a36b76b9f3d5cffa41bca877867d7327ab5be46395abe31be",
}

# A whole day: the 6 h run above ends before nearly all of today's arrivals
# (plug-in mean 17.5 h) and before every one of today's departures (plug-out
# from 20.9 h).
PREDICT_DAY_DIGESTS = {
    "errors.csv": "3ed6fefb07101aeeb91ba96cfc050f4248d99c9c296ba78abbc9356a92b86464",
    "states_essm.csv": "e2ad6c6ae7791d5e38ba38a937aa0dccbbc7e9754f67f405491317dd78f22382",
    "states_ssm.csv": "bad9a0caf60ed5ebae956309711c4f51e2b194a969bc98ff2f8a11d27cbacba7",
    "timeseries.csv": "cc476f0e0bdd490ee13e318b7da2454a120f71aaa62365d3d93139e19fc0dc1c",
}

# One variant: the writers fill the model columns of the variant that was not
# run with nan.
PREDICT_SSM_DIGESTS = {
    "errors.csv": "99eaf3f3f49e27bc0445bb8d7b658ab0be09f8b5385556dbc3c2d8f87b9c37a2",
    "states_ssm.csv": "0a6d57df70b07b0ce19b352b3c999ca2955763ff962d0edececd25b51abbe12b",
    "timeseries.csv": "3357526d193ab3e1b43ee9d6a2edac7fd5c0df8b0356887ff046b7873a62ec66",
}

TRACK_DIGESTS = {
    "states_essm.csv": "2abee5171c4853dbb2fea763043c03c81e06a07582e3dac9247f1ea5a90960ba",
    "states_ssm.csv": "48300c35f7b00a66532f0cd0f0db8dd1c221be353cd1cba8e7dc01ce4c7fa0fd",
    "timeseries.csv": "83dbf7e9f8a20ab1133ea3297a07d6221a50b3fa8271e4f18e18295debcc26e9",
    "tracking_essm.csv": "69179396f7f5823aff407a1867c8cfe0cfe9ce3c9028ec30b75f4182fbd266f9",
    "tracking_ssm.csv": "a52af279fb204756e44b1f4513a11fb27ed0de153d1574d631026dd5b881f19b",
}


def run_digests(tmp_path: Path, command: str, config: dict, *flags: str) -> dict[str, str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def assert_digests(actual: dict[str, str], expected: dict[str, str]) -> None:
    changed = sorted(name for name in actual.keys() | expected.keys()
                     if actual.get(name) != expected.get(name))
    assert not changed, (f"changed outputs: {', '.join(changed)} (digests recorded with "
                         f"numpy {PINNED_NUMPY}, running numpy {np.__version__})")


def test_predict_outputs_unchanged(tmp_path):
    config = {"n_ev": 200, "horizon_hours": 6.0, "seed": 33}
    assert_digests(run_digests(tmp_path, "predict", config), PREDICT_DIGESTS)


def test_predict_day_outputs_unchanged(tmp_path):
    config = {"n_ev": 200, "horizon_hours": 24.0, "seed": 33}
    assert_digests(run_digests(tmp_path, "predict", config), PREDICT_DAY_DIGESTS)


def test_predict_single_variant_outputs_unchanged(tmp_path):
    config = {"n_ev": 200, "horizon_hours": 6.0, "seed": 33}
    assert_digests(run_digests(tmp_path, "predict", config, "--variants", "ssm"),
                   PREDICT_SSM_DIGESTS)


def test_track_outputs_unchanged(tmp_path):
    config = json.loads(PROBES.read_text()) | {"n_ev": 150, "horizon_hours": 3.0}
    assert_digests(run_digests(tmp_path, "track", config), TRACK_DIGESTS)
