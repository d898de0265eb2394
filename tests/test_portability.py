"""Artifact bits that do not depend on the machine.

cyclex adds every dot product and norm in one fixed order
(``cyclex.sums``), so a run writes the same bytes whichever summation
kernel OpenBLAS picks for the CPU.  The configs are acceptance criterion
10's plus a near-tangent ball pair, whose thousands of sweeps each take
two ball projections and a displacement norm.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclex
from cyclex.cli import main

CONFIGS = {
    "falsify": {"kind": "falsify", "candidate": "perimeter", "m": 4, "rho": 2.5, "sphere_samples": 10, "seed": 42},
    "periodic": {
        "kind": "periodic",
        "family": [
            {"type": "singleton", "point": [0, 0]},
            {"type": "segment", "a": [-1, 0], "b": [1, 0]},
            {"type": "singleton", "point": [2, 0]},
        ],
        "start": [5, 5],
        "seed": 42,
    },
    "parallel": {
        "kind": "parallel",
        "family": [
            {"type": "ball", "center": [0, 0], "radius": 1},
            {"type": "ball", "center": [6, 0], "radius": 1},
            {"type": "ball", "center": [0, 6], "radius": 1},
        ],
        "start": [1, 1],
        "seed": 42,
    },
    # centres 2.01 apart: unit balls with a gap of 0.01
    "tangent_balls": {
        "kind": "pair_distance",
        "family": [
            {"type": "ball", "center": [0.1, -0.2, 0.3], "radius": 1},
            {"type": "ball", "center": [0.77, 1.14, 1.64], "radius": 1},
        ],
        "start": [-2.3, 1.7, 0.9],
        "solver": {"cycle_tol": 1e-9},
    },
}

# sha256 of each config's artifacts (see ``digest``)
GOLDEN = {
    "falsify": "761ffd25cc2d45695ff974e6add979f0a3873f7f0b9d891d7ca721ef48f112c1",
    "periodic": "d1d9037264fa4bcb71bf18de1c75c199f6fe55a9db3e9555f8f967c2f2276bd4",
    "parallel": "f70cc1c93c1970f40e317adb6ef6ef74ecd8160bebfe324d58f67b6e1d4cbfe3",
    "tangent_balls": "4cd3a059ce649629b7d0bc466c8e17af7fb99e6b9a010bfde44bfa028c473ca9",
}

# runs every config file given on the command line into the directory after it
_CHILD = """
import sys
from cyclex.cli import main
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main(["run", "--config", config, "--out-dir", out]) == 0
"""


def digest(out_dir: Path) -> str:
    """sha256 over the artifact files of one run, by name, then bytes."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The config files and each config's artifact digest, run in this process."""
    root = tmp_path_factory.mktemp("portability")
    paths, digests = {}, {}
    for name, config in CONFIGS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(config))
        out = root / "here" / name
        assert main(["run", "--config", str(paths[name]), "--out-dir", str(out)]) == 0
        digests[name] = digest(out)
    return root, paths, digests


@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_artifacts_do_not_depend_on_the_blas_kernel(runs, core):
    root, paths, digests = runs
    src = str(Path(cyclex.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = []
    for name, path in paths.items():
        args += [str(path), str(root / core / name)]
    subprocess.run([sys.executable, "-c", _CHILD, *args], env=env, check=True, capture_output=True)
    assert {name: digest(root / core / name) for name in CONFIGS} == digests


def test_artifacts_match_their_golden_sha256(runs):
    _, _, digests = runs
    assert digests == GOLDEN
