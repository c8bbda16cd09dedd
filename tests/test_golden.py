"""Byte-level pins of seeded releases.

Each CLI case runs one command on small seeded inputs and pins the sha256 of
the file it writes.  The commands run from a scratch directory with relative
paths, because releases echo their flags (paths included) into the output.
The library cases pin the sha256 of the JSON of a release built by calling
the mechanism directly.  A change that must alter released output updates
its pin on purpose and says so in CHANGES.md.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from blowfish import (
    ClusteringPolicy,
    KmeansConfig,
    PrivacyParams,
    build_oh_release,
    kmeans_nonprivate,
    kmeans_private,
    laplace_mechanism,
    optimal_budget_split,
    ordered_mechanism,
)
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

# 60 points in [0, 1]^2 around three centres, from integer arithmetic only so
# that the input cannot drift with a library or numpy version
POINTS = [
    (
        round(0.2 + 0.3 * (i % 3) + ((i * 37) % 11 - 5) / 60, 6),
        round(0.3 + 0.2 * (i % 3) + ((i * 53) % 13 - 6) / 70, 6),
    )
    for i in range(60)
]
POINTS_CSV = "".join(f"{x},{y}\n" for x, y in POINTS)

KMEANS_RATIO_CONFIG = {
    "experiment": "kmeans-ratio",
    "seed": 26,
    "n": 500,
    "dims": 4,
    "k": 4,
    "trials": 2,
    "iterations": 5,
    "epsilons": [0.5, 1.0],
}


def _wide_rows(n: int) -> list[int]:
    """n ranks drawn uniformly from [0, 4096) by a 64-bit LCG (top 12 bits)."""
    x, out = 1, []
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append(x >> 52)
    return out


# one ordinal attribute of 4096 values whose labels are a permutation of
# 000..fff, so label order is not rank order; 2000 uniform rows under a
# descending id column, with every 7th label padded and a blank line
WIDE_LABELS = [f"{(i * 1237) % 4096:03x}" for i in range(4096)]
WIDE_DOMAIN = {"attributes": [{"name": "v", "values": WIDE_LABELS, "ordinal": True}]}
WIDE_CSV = "id,v\n" + "".join(
    f"{2000 - j},{' ' + WIDE_LABELS[r] + ' ' if j % 7 == 0 else WIDE_LABELS[r]}\n" + ("\n" if j == 1000 else "")
    for j, r in enumerate(_wide_rows(2000))
)

CASES = {
    "release-histogram": (
        ["release", "histogram", "--domain", "domain_abc.json", "--policy", "policy_marginal.json",
         "--data", "rows_abc.csv", "--epsilon", "1.0", "--seed", "3", "--out", "out.json"],
        "f008d3d2ef87951072e9839cc7e35775ac6f792583a18d17a9cc689d26804d89",
    ),
    "release-cdf": (
        ["release", "cdf", "--domain", "domain_abc.json", "--data", "rows_abc.csv",
         "--theta", "2", "--epsilon", "0.5", "--seed", "7", "--out", "out.json"],
        "be968e17f774bf9569681a4d5dd93eade01b466bcc5cefb2bb899687711db701",
    ),
    "release-range": (
        ["release", "range", "--domain", "domain_abc.json", "--data", "rows_abc.csv",
         "--theta", "4", "--fanout", "2", "--epsilon", "0.5", "--seed", "11", "--out", "out.json"],
        "d2d13d8fa17648aa22ee40c36355a2e0da4cb8a1ae5752b6921511b0ed946ff6",
    ),
    "wide-histogram": (
        ["release", "histogram", "--domain", "wide_domain.json", "--policy", "policy_distance.json",
         "--data", "wide_rows.csv", "--epsilon", "1.0", "--seed", "31", "--out", "out.json"],
        "31fab8831b570f9acf86d393d372393ab5055bdd9542f03ed18c88b78a38627c",
    ),
    "wide-cdf": (
        ["release", "cdf", "--domain", "wide_domain.json", "--data", "wide_rows.csv",
         "--theta", "3", "--epsilon", "0.5", "--seed", "32", "--out", "out.json"],
        "47c460195df1dffd6d6c87b5b3aafc9557cf7524ffac3cb42a9ead47c8751915",
    ),
    "wide-range": (
        ["release", "range", "--domain", "wide_domain.json", "--data", "wide_rows.csv",
         "--theta", "16", "--fanout", "4", "--epsilon", "1.0", "--seed", "33", "--out", "out.json"],
        "e86385c1cfa474b62d1d45892974da142a272326129fd7732c2353b6c1b2125d",
    ),
    "experiment-range-mse": (
        ["experiment", "run", "--config", "range_mse.json", "--out", "out.csv"],
        "4fd4a0e8fa38260811811c06ab34e75d20adf32c54bf80a557bd141fe5d6e5db",
    ),
    "experiment-cdf-release": (
        ["experiment", "run", "--config", "cdf_release.json", "--out", "out.csv"],
        "02d3a076fda87a59ddfa9d190a7ef48f473bc2aa3e1a1a0c6806e6cd89bd3381",
    ),
    "experiment-kmeans-ratio": (
        ["experiment", "run", "--config", "kmeans_ratio.json", "--out", "out.csv"],
        "85ccfdee1701cddc95e91319bfaa8019c49a3a5a08568587aaed9d276c164a94",
    ),
    "kmeans": (
        ["kmeans", "--data", "points.csv", "--k", "3", "--iterations", "4", "--epsilon", "2.0",
         "--seed", "13", "--graph", "distance", "--theta", "0.3", "--out", "out.json"],
        "408c1cf8722aaa68a0365b9c8c8b337025dccd1ff36ac0ce18060f6ca46b7671",
    ),
    # --format csv writes one row per payload key in insertion order, so these
    # pin the key order that the json pins cannot see
    "release-histogram-csv": (
        ["release", "histogram", "--domain", "domain_abc.json", "--policy", "policy_marginal.json",
         "--data", "rows_abc.csv", "--epsilon", "1.0", "--seed", "3", "--format", "csv", "--out", "out.csv"],
        "1bfa42571b2d642cda1af6c1fe95c2d2d00bc00dafffff7b336e461f8cedd216",
    ),
    "release-cdf-csv": (
        ["release", "cdf", "--domain", "domain_abc.json", "--data", "rows_abc.csv",
         "--theta", "2", "--epsilon", "0.5", "--seed", "7", "--format", "csv", "--out", "out.csv"],
        "f8ac6573354f8a3ba0721db92d13ea81ce782e776e4ad02ab105d6fce2472094",
    ),
    "release-range-csv": (
        ["release", "range", "--domain", "domain_abc.json", "--data", "rows_abc.csv",
         "--theta", "4", "--fanout", "2", "--epsilon", "0.5", "--seed", "11", "--format", "csv", "--out", "out.csv"],
        "6d9fb8d512e64ea452a8ed080a3d4eea355d21597cad4e1f1f5e0a8b120ac532",
    ),
    "kmeans-csv": (
        ["kmeans", "--data", "points.csv", "--k", "3", "--iterations", "4", "--epsilon", "2.0",
         "--seed", "13", "--graph", "distance", "--theta", "0.3", "--format", "csv", "--out", "out.csv"],
        "ba00e1cb0266f8cb014b14080da3ee3d48dc2d5d91fecd2c0a3a23502eeb6f73",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    for f in ("domain_abc.json", "policy_marginal.json", "policy_distance.json", "rows_abc.csv"):
        shutil.copy(DATA / f, tmp_path / f)
    (tmp_path / "range_mse.json").write_text(json.dumps(RANGE_MSE_CONFIG))
    (tmp_path / "cdf_release.json").write_text(json.dumps(CDF_RELEASE_CONFIG))
    (tmp_path / "kmeans_ratio.json").write_text(json.dumps(KMEANS_RATIO_CONFIG))
    (tmp_path / "points.csv").write_text(POINTS_CSV)
    (tmp_path / "wide_domain.json").write_text(json.dumps(WIDE_DOMAIN))
    (tmp_path / "wide_rows.csv").write_text(WIDE_CSV)
    monkeypatch.chdir(tmp_path)
    argv, digest = CASES[name]
    assert cli_main(argv) == 0
    out = tmp_path / argv[-1]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# a |T| = 1000 histogram with empty runs and uneven counts
COUNTS_1000 = [(i * 7919) % 23 if i % 5 else 0 for i in range(1000)]

OH_PINS = {
    (1, 2): "c0ae38f62e4d1e4f552c6a529233fb3e325cea4b0715a8de9eff37787e93e588",
    (7, 3): "16af91530ac8b85aa883f256db2b01336bf990d014a0a04ff22d57d6291049e5",
    (16, 4): "8d514ee2ceec1624452a8756e62a47477a5e56ce8d9de48fc360684f260eb6d7",
    (1000, 16): "8eef47fbd065b9211656177b53cbf0d0d659d129bff4823a7a02bda73ba67a83",
}


@pytest.mark.parametrize("theta,fanout", sorted(OH_PINS))
def test_golden_oh_tree(theta, fanout):
    split = optimal_budget_split(1000, theta, fanout, 1.0)
    tree = build_oh_release(COUNTS_1000, theta, fanout, split.eps_s, split.eps_h, seed=21)
    assert _sha(tree.to_dict()) == OH_PINS[(theta, fanout)]


def test_golden_ordered():
    released = ordered_mechanism(COUNTS_1000, 3, PrivacyParams(0.8, 22))
    pinned = {"release": released.to_dict(), "noisy": released.noisy.tolist()}
    assert _sha(pinned) == "a30759fb9c8d89ab8cb6587d35b076670cbed490e65039d935c7c50def3da2fc"


def test_golden_laplace_2d():
    truth = [[float(3 * r + c) for c in range(6)] for r in range(4)]
    out = laplace_mechanism(truth, 2.0, PrivacyParams(0.7, 23))
    assert out.shape == (4, 6)
    assert _sha(out.tolist()) == "ce9c1fdf38c0a519b655b1298c71f60d93de6d63d3780633e4aa3c7e8a3c9f4b"


KMEANS_PINS = {
    "full": "535ff0f28818fdc705d92659e71ecc4062192b3466ca217c9fedc98301ee295d",
    "distance": "8434d0fa24a83ed05a7e141c9ea46fa1e89bc7a6b86e0786394e261a17afe682",
    "attribute": "274269a609227aa67e25eebc02a57d2f8aea2a90af9c581159b8d7aaf6d67f0a",
}


@pytest.mark.parametrize("kind", sorted(KMEANS_PINS))
def test_golden_kmeans_private(kind):
    policy = ClusteringPolicy(bounds=((0.0, 1.0), (0.0, 1.0)), kind=kind, theta=0.25 if kind == "distance" else 0.0)
    result = kmeans_private(POINTS, KmeansConfig(k=3, iterations=5), policy, PrivacyParams(30.0, 24))
    assert _sha(result.to_dict()) == KMEANS_PINS[kind]


def test_golden_kmeans_nonprivate():
    result = kmeans_nonprivate(POINTS, KmeansConfig(k=3, iterations=5), seed=24)
    assert _sha(result.to_dict()) == "9578e43cbbbc8c21ee61ed2bf2e9e6e1cff6d11c8f35b421efa0282d848b1cb3"
