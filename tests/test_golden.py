"""Byte-level pins of the files written by seeded CLI runs.

Each case runs one command on small seeded inputs and pins the sha256 of the
file it writes.  The commands run from a scratch directory with relative
paths, because releases echo their flags (paths included) into the output.
A change that must alter released output updates its pin on purpose and
says so in CHANGES.md.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from blowfish.cli import cli_main

DATA = Path(__file__).resolve().parent.parent / "data"

RANGE_MSE_CONFIG = {
    "experiment": "range-mse",
    "seed": 5,
    "domain_size": 33,
    "data": {"kind": "zipf", "n": 2000},
    "trials": 2,
    "queries": 50,
    "fanout": 4,
    "thetas": [1, 8, "full"],
    "epsilons": [0.5, 1.0],
    "baseline": True,
}

CDF_RELEASE_CONFIG = {
    "experiment": "cdf-release",
    "seed": 6,
    "domain_size": 40,
    "data": {"kind": "sparse", "n": 500, "zero_frac": 0.5},
    "trials": 2,
    "thetas": [1, 3],
    "epsilons": [0.5, 1.0],
}

CASES = {
    "release-histogram": (
        ["release", "histogram", "--domain", "domain_abc.json", "--policy", "policy_marginal.json",
         "--data", "rows_abc.csv", "--epsilon", "1.0", "--seed", "3", "--out", "out.json"],
        "0c8a4a7d5d5a6aec1a0da4dece277f40a044d375d010e088ebd92e910c179bda",
    ),
    "release-cdf": (
        ["release", "cdf", "--domain", "domain_abc.json", "--data", "rows_abc.csv",
         "--theta", "2", "--epsilon", "0.5", "--seed", "7", "--out", "out.json"],
        "6629e5a3f1abef4bc5b5d4f4de160d2480994c981debe21e18b1d17ed1a650bb",
    ),
    "release-range": (
        ["release", "range", "--domain", "domain_abc.json", "--data", "rows_abc.csv",
         "--theta", "4", "--fanout", "2", "--epsilon", "0.5", "--seed", "11", "--out", "out.json"],
        "da0253337173069202f0a7f5fd124fd3af2e915f94f3bac81f2ad9e6c9e349e4",
    ),
    "experiment-range-mse": (
        ["experiment", "run", "--config", "range_mse.json", "--out", "out.csv"],
        "fa508159c91d6eb39af68f37fe5fc1c9fc7f18a0047793deeeb300685a6adb9e",
    ),
    "experiment-cdf-release": (
        ["experiment", "run", "--config", "cdf_release.json", "--out", "out.csv"],
        "bd1b66d0783c6f20b4c7ac3d6924db25d0be78833fd0b19abea0efebefb372f8",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    for f in ("domain_abc.json", "policy_marginal.json", "rows_abc.csv"):
        shutil.copy(DATA / f, tmp_path / f)
    (tmp_path / "range_mse.json").write_text(json.dumps(RANGE_MSE_CONFIG))
    (tmp_path / "cdf_release.json").write_text(json.dumps(CDF_RELEASE_CONFIG))
    monkeypatch.chdir(tmp_path)
    argv, digest = CASES[name]
    assert cli_main(argv) == 0
    out = tmp_path / argv[-1]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
