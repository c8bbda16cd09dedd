"""Aligned-noise replay of every release kind, through ``cli_main``.

Every release adds its noise in one call, ``mechanisms.add_noise``.  For two
databases D1 and D2 that are neighbours under a release's policy, the
replay runs D1 and records each call's stream index, true values a1, scale b
and noisy output r.  It then runs D2 with each call forced to return D1's r,
and records D2's true values a2.  This is randomness alignment used as a
test (LightDP, Zhang & Kifer, POPL 2017; ShadowDP, Wang et al., PLDI 2019):

* the two payloads must be byte-equal, since a field that differs reads the
  data outside the noise;
* the cost of the alignment, sum |a1 - a2| / b over every draw, must be at
  most the epsilon the release charges, and a value of scale 0 must not move.

Laplace(b) noise shifted by |a1 - a2| changes an output's density by at most
a factor exp(|a1 - a2| / b).  So for the histogram and the range tree, which
publish every noisy value, the cost is the exact privacy loss of the pair;
the cdf publishes a post-processing of its noisy values, which can only
lose less.  k-means picks each round's queries from earlier noisy outputs,
and its cost is measured along the outputs that D1 drew: a cost above
epsilon there shows noise that does not cover what the data moved.

Both sides of a pair use the same ``--data`` and ``--out`` names, which the
release echoes among its flags.
"""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from blowfish import mechanisms
from blowfish.cli import cli_main
from blowfish.domain import load_domain
from blowfish.mechanisms import TREE_STREAM
from blowfish.policy import load_policy, neighbor_databases

add_noise = mechanisms.add_noise  # the real call, taken before any test replaces it
DATA = Path(__file__).resolve().parent.parent / "data"
DOMAIN = str(DATA / "domain_abc.json")


class Overspend(AssertionError):
    """An aligned neighbour costs more than the epsilon its release charges."""


class Replay:
    """Stands in for ``mechanisms.add_noise``.  While ``forced`` is None it
    makes the real call and records it in ``calls`` as (index, a1, b, r);
    otherwise each call returns the next recorded r and adds its
    |a1 - a2| / b to ``cost``."""

    def __init__(self):
        self.calls = []
        self.forced = None
        self.cost = 0.0

    def __call__(self, values, seed, index, scale):
        if self.forced is None:
            out = add_noise(values, seed, index, scale)
            self.calls.append((index, np.array(values, dtype=float), np.broadcast_to(scale, out.shape).copy(), out.copy()))
            return out
        values = np.asarray(values, dtype=float)
        scale = np.broadcast_to(scale, values.shape)
        index1, a1, b, r = next(self.forced)
        assert index == index1 and values.shape == a1.shape and np.array_equal(scale, b)
        moved = values != a1
        assert (b[moved] > 0).all(), "a value of noise scale 0 differs between neighbours"
        self.cost += float((np.abs(values - a1)[moved] / b[moved]).sum())
        return r.copy()


@pytest.fixture
def replay(monkeypatch):
    stand_in = Replay()
    monkeypatch.setattr(mechanisms, "add_noise", stand_in)
    return stand_in


def _runner(argv, data, out):
    """The payload of a release of the rows given as text, read from ``data``."""

    def release(text: str) -> bytes:
        data.write_text(text)
        assert cli_main(argv + ["--data", str(data), "--out", str(out)]) == 0
        return out.read_bytes()

    return release


def _worst_cost(replay, release, d1, d2s, streams, epsilon: float, leaks=frozenset()) -> float:
    """The largest alignment cost of D1 against each D2, each of which must
    be at most ``epsilon``.  ``streams`` lists the stream index of each
    noise call.  The payloads must be equal byte for byte or, given
    ``leaks``, differ in exactly those top-level keys."""
    replay.calls, replay.forced = [], None
    want = release(d1)
    assert [index for index, *_ in replay.calls] == streams
    worst = 0.0
    for d2 in d2s:
        replay.forced, replay.cost = iter(replay.calls), 0.0
        payload = release(d2)
        assert next(replay.forced, None) is None, "D2 added noise fewer times than D1"
        if leaks:
            a, b = json.loads(want), json.loads(payload)
            assert {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)} == leaks
        else:
            assert payload == want
        if replay.cost > epsilon * (1 + 1e-9):
            raise Overspend(f"an aligned neighbour costs {replay.cost / epsilon:.4f} epsilon")
        worst = max(worst, replay.cost)
    return worst


# -- release histogram ---------------------------------------------------------

ABC = load_domain(Path(DOMAIN).read_text())
HISTOGRAM_POLICIES = {
    "full": ({"graph": {"kind": "full"}}, 2),
    "attribute": ({"graph": {"kind": "attribute"}, "constraints": {"kind": "cardinality"}}, 2),
    "partition": ({"graph": {"kind": "partition", "cells": [[0, 1, 2, 3, 4, 5], [6, 7], [8, 9, 10, 11]]}}, 2),
    "distance": ({"graph": {"kind": "distance", "theta": 1}, "constraints": {"kind": "cardinality"}}, 2),
    "explicit": ({"graph": {"kind": "explicit", "edges": [[0, 1], [1, 2], [0, 11], [5, 6]]}}, 2),
    "distance-answered": (
        {"graph": {"kind": "distance", "theta": 2}, "constraints": [{"where": {"A3": ["c1"]}, "answer": 1}]},
        3,
    ),
    "marginal": (json.loads((DATA / "policy_marginal.json").read_text()), 4),
}


def _rows_csv(ranks) -> str:
    """The CSV text of a database given as one rank per row."""
    labels = [a.values for a in ABC.attributes]
    lines = [",".join(a.name for a in ABC.attributes)]
    coords = np.stack(np.unravel_index(np.asarray(ranks), ABC.sizes), axis=1)
    lines += [",".join(labels[j][c] for j, c in enumerate(row)) for row in coords.tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(HISTOGRAM_POLICIES))
def test_histogram_spends_at_most_epsilon(name, replay, tmp_path):
    spec, n = HISTOGRAM_POLICIES[name]
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(spec))
    argv = ["release", "histogram", "--domain", DOMAIN, "--policy", str(policy_file), "--epsilon", "1.0", "--seed", "3"]
    release = _runner(argv, tmp_path / "rows.csv", tmp_path / "out.json")
    rng = random.Random(name)
    pairs = itertools.islice(neighbor_databases(load_policy(spec, ABC), n, sorted_d1=True), 2)
    worst = 0.0
    for d1, d2s in pairs:
        d2s = rng.sample(list(d2s), min(len(d2s), 3))
        worst = max(worst, _worst_cost(replay, release, _rows_csv(d1), map(_rows_csv, d2s), [0], 1.0))
    assert worst > 0


# -- release cdf and release range -----------------------------------------------

LINE_SIZE = 8
LINE_ROWS = [0, 1, 2, 3, 5, 7]


def _line_run(tmp_path, command: list[str]):
    """``_runner`` of a release on one 8-value attribute, taking rows as values."""
    domain = tmp_path / "line.json"
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": [str(v) for v in range(LINE_SIZE)]}]}))
    argv = ["release", *command, "--domain", str(domain), "--epsilon", "1.0", "--seed", "5"]
    release = _runner(argv, tmp_path / "rows.csv", tmp_path / "out.json")
    return lambda rows: release("x\n" + "".join(f"{v}\n" for v in rows))


def _moves(rows: list[int], theta: int):
    """Every database that moves one row at most ``theta`` positions: the
    neighbours under distance-theta secrets and a public row count."""
    for i, v in enumerate(rows):
        for w in range(max(0, v - theta), min(LINE_SIZE, v + theta + 1)):
            if w != v:
                yield rows[:i] + [w] + rows[i + 1 :]


@pytest.mark.parametrize("theta", [1, 2])
def test_cdf_spends_at_most_epsilon(theta, replay, tmp_path):
    release = _line_run(tmp_path, ["cdf", "--theta", str(theta)])
    _worst_cost(replay, release, LINE_ROWS, _moves(LINE_ROWS, theta), [TREE_STREAM], 1.0)


RANGE_OVERSPENDS = pytest.mark.xfail(
    raises=Overspend, strict=True, reason="ROADMAP item 18: block 1 of the range tree spends more than it charges"
)


@pytest.mark.parametrize(
    "theta, fanout",
    [
        (1, 2),
        pytest.param(2, 2, marks=RANGE_OVERSPENDS),
        pytest.param(4, 2, marks=RANGE_OVERSPENDS),
        (5, 2),
        (8, 2),  # one block: the hierarchical baseline
    ],
)
def test_range_spends_at_most_epsilon(theta, fanout, replay, tmp_path):
    release = _line_run(tmp_path, ["range", "--theta", str(theta), "--fanout", str(fanout)])
    _worst_cost(replay, release, LINE_ROWS, _moves(LINE_ROWS, theta), [TREE_STREAM], 1.0)


# -- kmeans ----------------------------------------------------------------------

KMEANS_OVERSPENDS = pytest.mark.xfail(
    raises=Overspend, strict=True, reason="ROADMAP item 19: cluster sums move by |x| + |y|, past their calibration"
)
ITERATIONS = 5


def _kmeans_moves(points: np.ndarray, graph: str, theta: float, low: float, high: float, count: int):
    """``count`` databases that each move one point along a secret edge."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        moved = points.copy()
        i = rng.integers(len(points))
        if graph == "full":
            moved[i] = rng.uniform(low, high, points.shape[1])
        elif graph == "attribute":
            # to an edge of the box, where a change of cluster moves the sums most
            moved[i, rng.integers(points.shape[1])] = rng.choice([low, high])
        else:
            step = rng.uniform(-1.0, 1.0, points.shape[1])
            moved[i] = np.clip(moved[i] + theta * step / np.abs(step).sum(), low, high)
        yield moved


def _points_csv(points: np.ndarray) -> str:
    return "".join(f"{x!r},{y!r}\n" for x, y in points.tolist())


@pytest.mark.parametrize(
    "graph, theta, low",
    [
        ("full", 0.0, 0.0),
        pytest.param("distance", 0.25, 0.0, marks=KMEANS_OVERSPENDS),
        pytest.param("attribute", 0.0, 0.0, marks=KMEANS_OVERSPENDS),
        pytest.param("full", 0.0, 100.0, marks=KMEANS_OVERSPENDS),
    ],
)
def test_kmeans_spends_at_most_epsilon(graph, theta, low, replay, tmp_path):
    high = low + 1.0
    argv = ["kmeans", "--k", "3", "--iterations", str(ITERATIONS), "--graph", graph]
    argv += ["--theta", str(theta)] if theta else []
    argv += ["--low", str(low), "--high", str(high), "--epsilon", "1.0", "--seed", "2"]
    release = _runner(argv, tmp_path / "points.csv", tmp_path / "out.json")
    points = np.random.default_rng(3).uniform(low, high, (40, 2))
    moves = map(_points_csv, _kmeans_moves(points, graph, theta, low, high, 40))
    streams = list(range(2, 2 + 2 * ITERATIONS))
    # the objective and its trace read the data outside the noise (ROADMAP item 1)
    _worst_cost(replay, release, _points_csv(points), moves, streams, 1.0, leaks={"objective", "trace"})
