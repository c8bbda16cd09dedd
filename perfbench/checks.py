"""Checks on what each CLI call wrote or printed.

Every check raises ``CheckFailed`` with its reason.  The noise checks compare
the error of a release against the error its stated calibration predicts, so
a release that adds less noise than it claims fails, and so does one whose
stated scales spend more than the requested epsilon.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# relative band around each predicted squared error; at the sizes the
# benchmark uses, each prediction's standard error is under 4% of it
TOLERANCE = 0.25


class CheckFailed(Exception):
    """An output is missing, malformed or wrong."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _within(observed: float, expected: float, what: str) -> None:
    _require(
        abs(observed - expected) <= TOLERANCE * expected,
        f"{what}: observed {observed:.6g}, predicted {expected:.6g} ± {TOLERANCE:.0%}",
    )


def _same(a: float, b: float, what: str) -> None:
    _require(math.isclose(a, b, rel_tol=1e-9), f"{what}: {a!r} != {b!r}")


def check_histogram(text: str, counts: np.ndarray, epsilon: float) -> None:
    """Laplace histogram under distance(1)|cardinality: sensitivity 2, so the
    summed squared error is 2 b^2 |T| with b = 2 / epsilon."""
    payload = json.loads(text)
    values = np.asarray(payload["values"], dtype=float)
    _require(values.shape == counts.shape, f"{values.size} values for {counts.size} cells")
    _require(payload["sensitivity"] == 2, f"stated sensitivity {payload['sensitivity']}, expected 2")
    _same(payload["epsilon"], epsilon, "epsilon")
    b = 2.0 / epsilon
    _within(float(((values - counts) ** 2).sum()), 2 * b * b * counts.size, "histogram squared error")


def check_cdf(text: str, counts: np.ndarray, theta: int, epsilon: float) -> None:
    """Ordered mechanism: non-decreasing, non-negative, and squared error
    2 (theta / epsilon)^2 |T| (inference rarely pools on uniform rows)."""
    payload = json.loads(text)
    values = np.asarray(payload["values"], dtype=float)
    _require(values.shape == counts.shape, f"{values.size} values for {counts.size} cells")
    _require(payload["theta"] == theta, f"stated theta {payload['theta']}, expected {theta}")
    _same(payload["epsilon"], epsilon, "epsilon")
    _require(bool((values >= 0).all()), "negative cumulative count")
    _require(bool((np.diff(values) >= 0).all()), "cumulative counts decrease")
    b = theta / epsilon
    truth = np.cumsum(counts)
    _within(float(((values - truth) ** 2).sum()), 2 * b * b * counts.size, "cdf squared error")


def _subtree_height(theta: int, fanout: int) -> int:
    h = 0
    while fanout**h < theta:
        h += 1
    return h


def check_range(text: str, counts: np.ndarray, theta: int, fanout: int, epsilon: float) -> None:
    """Ordered-hierarchical tree: each node's error over its stated scale has
    mean square 2, and the stated scales spend exactly epsilon.

    Per the tree's documented calibration: S nodes s_2..s_k use 1/eps_s, H
    nodes of blocks 2..k use 2h/eps_h, and every block-1 node uses
    2h/(eps_s + eps_h), with h the subtree height.
    """
    payload = json.loads(text)
    size = counts.size
    _require(payload["domain_size"] == size, f"domain size {payload['domain_size']}")
    _require(payload["theta"] == theta and payload["fanout"] == fanout, "stated theta/fanout differ")
    _same(payload["epsilon"], epsilon, "epsilon")
    _same(payload["eps_s"] + payload["eps_h"], epsilon, "eps_s + eps_h")
    prefix = np.concatenate([[0], np.cumsum(counts)])
    s_scales, h_scales, block1_scales, z = set(), set(), set(), []
    for node in payload["nodes"]:
        lo, hi = node["interval"]
        _require(1 <= lo <= hi <= size, f"node {node['id']} interval [{lo},{hi}]")
        scale = node["scale"]
        _require(scale > 0, f"node {node['id']} has scale {scale}")
        if hi <= theta:
            block1_scales.add(scale)
        elif node["id"].startswith("S"):
            s_scales.add(scale)
        else:
            h_scales.add(scale)
        z.append((node["value"] - (prefix[hi] - prefix[lo - 1])) / scale)
    _within(float(np.mean(np.square(z))), 2.0, f"mean squared error/scale over {len(z)} nodes")
    h = _subtree_height(theta, fanout)
    _require(len(block1_scales) == 1 and len(s_scales) == 1, "S or block-1 scales are not uniform")
    (b1,) = block1_scales
    (s,) = s_scales
    _same((1.0 if theta == 1 else 2.0 * h) / b1, epsilon, "block-1 budget")
    spent = 1.0 / s
    if theta > 1:
        _require(len(h_scales) == 1, "H scales are not uniform")
        (hs,) = h_scales
        spent += 2.0 * h / hs
    _same(spent, epsilon, "S + H budget")


def check_kmeans(text: str, low: float, high: float, k: int, dims: int, epsilon: float) -> None:
    payload = json.loads(text)
    cents = np.asarray(payload["centroids"], dtype=float)
    _require(cents.shape == (k, dims), f"centroids have shape {cents.shape}")
    _require(bool(((cents >= low) & (cents <= high)).all()), "centroid outside the bounds")
    _same(payload["epsilon_spent"], epsilon, "epsilon spent")


def check_experiment(text: str, rows: int) -> None:
    """Harness CSV: the expected number of rows, each with finite statistics."""
    records = list(csv.DictReader(io.StringIO(text)))
    _require(len(records) == rows, f"{len(records)} rows, expected {rows}")
    for r in records:
        for key in ("mean", "q1", "q3"):
            _require(math.isfinite(float(r[key])), f"non-finite {key} in {r}")


def check_printed(text: str, expected: str) -> None:
    _require(text.strip() == expected, f"printed {text.strip()!r}, expected {expected!r}")
