"""Seeded Monte-Carlo harness: error measurements over synthetic workloads.

Every experiment is a pure function of (config, seed): per-trial seeds are
derived from the global seed, the experiment name and the row and trial
indices, so adding or reordering unrelated rows never changes another row's
results and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .domain import load_domain
from .kmeans import ClusteringPolicy, KmeansConfig, kmeans_nonprivate, kmeans_private
from .mechanisms import (
    PrivacyParams,
    build_oh_release,
    oh_range_answers,
    optimal_budget_split,
    ordered_mechanism,
)
from .policy import load_policy
from .sensitivity import QUERY_KINDS, policy_sensitivity

@dataclass(frozen=True)
class Workload:
    """Range queries (i, j), 1-based inclusive, drawn uniformly from the set
    of valid pairs."""

    domain_size: int
    queries: tuple[tuple[int, int], ...]
    seed: int


def random_range_workload(domain_size: int, count: int, seed: int) -> Workload:
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _tag("workload")]))
    total = domain_size * (domain_size + 1) // 2
    picks = rng.integers(0, total, size=count)
    # unrank a uniform draw over {(i, j): 1 <= i <= j <= size}: row i of the
    # pair triangle starts at flat offset (i-1)*size - (i-1)(i-2)/2
    m = np.arange(domain_size, dtype=np.int64)
    starts = m * domain_size - m * (m - 1) // 2
    rows = np.searchsorted(starts, picks, side="right")
    cols = picks - starts[rows - 1] + rows
    queries = tuple(zip(rows.tolist(), cols.tolist()))
    return Workload(domain_size=domain_size, queries=queries, seed=seed)


def mse(truth, estimates) -> float:
    """Mean over estimates of the summed per-component squared error."""
    t = np.asarray(truth, dtype=float)
    if len(estimates) == 0:
        raise ValueError("need at least one estimate")
    total = 0.0
    for est in estimates:
        e = np.asarray(est, dtype=float)
        if e.shape != t.shape:
            raise ValueError("estimate shape does not match truth")
        total += float(((e - t) ** 2).sum())
    return total / len(estimates)


def synth_clusters(n: int, dims: int, k: int, sigma: float, seed: int) -> np.ndarray:
    """n points in (0,1)^dims around k uniform centers with per-coordinate
    Gaussian noise, clipped to [0, 1]."""
    if min(n, dims, k) < 1:
        raise ValueError("n, dims and k must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _tag("clusters")]))
    centers = rng.random((k, dims))
    which = rng.integers(0, k, size=n)
    pts = centers[which] + rng.normal(0.0, sigma, size=(n, dims))
    return np.clip(pts, 0.0, 1.0)


def synth_histogram(kind: str, size: int, n: int, seed: int, zipf_s: float = 1.1, zero_frac: float = 0.9) -> np.ndarray:
    """Synthetic 1-D histograms standing in for real ordinal columns."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _tag("hist-" + kind)]))
    if kind == "uniform":
        probs = np.full(size, 1.0 / size)
    elif kind == "zipf":
        probs = 1.0 / np.arange(1, size + 1) ** zipf_s
        probs /= probs.sum()
    elif kind == "sparse":
        support = max(1, int(round(size * (1.0 - zero_frac))))
        cells = rng.choice(size, size=support, replace=False)
        probs = np.zeros(size)
        probs[cells] = 1.0 / support
    else:
        raise ValueError(f"unknown histogram kind {kind!r}")
    return rng.multinomial(n, probs).astype(np.int64)


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    mechanism: str
    policy: str
    epsilon: float | None
    theta: int | None
    fanout: int | None
    metric: str
    mean: float
    q1: float
    q3: float


@dataclass(frozen=True)
class ExperimentReport:
    seed: int
    rows: tuple[ReportRow, ...]

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["experiment", "mechanism", "policy", "epsilon", "theta", "fanout", "metric", "mean", "q1", "q3"]
        )
        for r in self.rows:
            writer.writerow(
                [
                    r.experiment,
                    r.mechanism,
                    r.policy,
                    _num(r.epsilon),
                    _num(r.theta),
                    _num(r.fanout),
                    r.metric,
                    _num(r.mean),
                    _num(r.q1),
                    _num(r.q3),
                ]
            )
        return buf.getvalue()


def _num(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".12g")


def _tag(label: str) -> int:
    return zlib.crc32(label.encode())


def trial_seed(seed: int, experiment: str, row: int, trial: int) -> int:
    ss = np.random.SeedSequence([seed, _tag(experiment), row, trial])
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _summary(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(np.percentile(arr, 25)), float(np.percentile(arr, 75))


def _range_truth(counts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact count of each (i, j) row of ``queries``, from int64 prefixes."""
    prefix = np.concatenate([[0], np.cumsum(counts)])
    return (prefix[queries[:, 1]] - prefix[queries[:, 0] - 1]).astype(float)


def _theta(value):
    return value if value == "full" else int(value)


# what each field reader accepts, for one value and for a list of them
_SHAPES = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
    _theta: ('an integer or "full"', 'integers or "full"'),
}


def _field(config: dict, key: str, default, kind, least=None, where: str = "experiment"):
    """``config[key]``, or ``default`` when the key is absent, read as a
    ``kind`` of ``_SHAPES`` or, for ``[kind]``, as a list of them.  Numbers
    convert as ``int()`` and ``float()`` do.  A value of another shape, a
    float that is NaN or infinite, or a number below ``least``, is a
    ValueError that names the field."""
    value = config.get(key, default)
    many = isinstance(kind, list)
    item = kind[0] if many else kind
    values = value if many else [value]
    try:
        if not isinstance(values, list) or any(item in (str, dict) and not isinstance(v, item) for v in values):
            raise TypeError
        out = [item(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        shape = "a list of " + _SHAPES[item][1] if many else _SHAPES[item][0]
        raise ValueError(f"{where} {key!r} must be {shape}, got {value!r}") from None
    if item is float and not all(map(math.isfinite, out)):
        raise ValueError(f"{where} {key!r} must be finite, got {value!r}")
    if least is not None and any(v < least for v in out):
        raise ValueError(f"{where} {key!r} must be at least {least}, got {value!r}")
    return out if many else out[0]


def _config_histogram(config: dict, size: int, seed: int) -> np.ndarray:
    """The synthetic histogram described by a config's ``data`` object."""
    data_cfg = _field(config, "data", {"kind": "zipf", "n": 10_000}, dict)
    where = "experiment 'data' field"
    return synth_histogram(
        kind=_field(data_cfg, "kind", "zipf", str, where=where),
        size=size,
        n=_field(data_cfg, "n", 10_000, int, where=where),
        seed=seed,
        zipf_s=_field(data_cfg, "zipf_s", 1.1, float, where=where),
        zero_frac=_field(data_cfg, "zero_frac", 0.9, float, where=where),
    )


def _sweep(name: str, seed: int, trials: int, cells, measure):
    """Yield each cell with its ``trials`` values of ``measure(cell, ts)``;
    trial t of the cell at index i is seeded by ``trial_seed(seed, name, i, t)``."""
    for row, cell in enumerate(cells):
        yield cell, [measure(cell, trial_seed(seed, name, row, t)) for t in range(trials)]


def _run_range_mse(config: dict, seed: int) -> list[ReportRow]:
    size = _field(config, "domain_size", 400, int, least=1)
    trials = _field(config, "trials", 20, int, least=1)
    n_queries = _field(config, "queries", 2000, int, least=1)
    fanout = _field(config, "fanout", 16, int)
    thetas = [size if t == "full" else t for t in _field(config, "thetas", [1, "full"], [_theta])]
    epsilons = _field(config, "epsilons", [0.5, 1.0], [float])

    counts = _config_histogram(config, size, seed)
    queries = np.asarray(random_range_workload(size, n_queries, seed).queries, dtype=np.int64).reshape(-1, 2)
    truth = _range_truth(counts, queries)

    # (mechanism, policy, theta) per row group; the hierarchical baseline is
    # the theta = |T| tree, whose budget split puts all of epsilon on H nodes
    specs = [("ordered-hierarchical", f"distance(theta={theta})", theta) for theta in thetas]
    if config.get("baseline", True):
        specs.append(("hierarchical", "full", size))

    def measure(cell, ts):
        _, _, theta, eps = cell
        split = optimal_budget_split(size, theta, fanout, eps)
        tree = build_oh_release(counts, theta, fanout, split.eps_s, split.eps_h, ts)
        return float(((oh_range_answers(tree, queries) - truth) ** 2).mean())

    cells = [spec + (eps,) for spec in specs for eps in epsilons]
    return [
        ReportRow("range-mse", mechanism, policy, eps, theta, fanout, "range_mse", *_summary(errors))
        for (mechanism, policy, theta, eps), errors in _sweep("range-mse", seed, trials, cells, measure)
    ]


def _run_cdf_release(config: dict, seed: int) -> list[ReportRow]:
    size = _field(config, "domain_size", 400, int, least=1)
    trials = _field(config, "trials", 20, int, least=1)
    thetas = _field(config, "thetas", [1], [int])
    epsilons = _field(config, "epsilons", [0.5, 1.0], [float])

    counts = _config_histogram(config, size, seed)
    truth = np.cumsum(counts).astype(float)

    def measure(cell, ts):
        theta, eps = cell
        released = ordered_mechanism(counts, theta, PrivacyParams(eps, ts))
        return float(((released.inferred - truth) ** 2).sum())

    cells = [(theta, eps) for theta in thetas for eps in epsilons]
    return [
        ReportRow("cdf-release", "ordered", f"distance(theta={theta})", eps, theta, None, "cdf_mse", *_summary(errors))
        for (theta, eps), errors in _sweep("cdf-release", seed, trials, cells, measure)
    ]


def _run_kmeans_ratio(config: dict, seed: int) -> list[ReportRow]:
    n = _field(config, "n", 1000, int)
    dims = _field(config, "dims", 4, int)
    k = _field(config, "k", 4, int)
    sigma = _field(config, "sigma", 0.2, float)
    trials = _field(config, "trials", 50, int, least=1)
    iterations = _field(config, "iterations", 10, int)
    epsilons = _field(config, "epsilons", [0.2], [float])
    policies_cfg = _field(config, "policies", [{"kind": "full"}, {"kind": "distance", "theta": 0.25}], [dict])
    bounds = tuple((0.0, 1.0) for _ in range(dims))

    cfg = KmeansConfig(k=k, iterations=iterations)
    where = "kmeans-ratio policy"
    policies = [
        ClusteringPolicy(bounds, _field(p, "kind", "full", str, where=where), _field(p, "theta", 0.0, float, where=where))
        for p in policies_cfg
    ]

    def measure(cell, ts):
        policy, eps = cell
        pts = synth_clusters(n, dims, k, sigma, ts)
        base = kmeans_nonprivate(pts, cfg, seed=ts, bounds=bounds)
        return kmeans_private(pts, cfg, policy, PrivacyParams(eps, ts)).objective / base.objective

    rows = []
    cells = [(policy, eps) for policy in policies for eps in epsilons]
    for (policy, eps), ratios in _sweep("kmeans-ratio", seed, trials, cells, measure):
        mean, q1, q3 = _summary(ratios)
        theta_col = int(policy.theta) if float(policy.theta).is_integer() else None
        for metric, value in (("objective_ratio", mean), ("objective_ratio_median", float(np.median(ratios)))):
            rows.append(
                ReportRow(
                    "kmeans-ratio", "private-kmeans", policy.describe(), eps, theta_col, None, metric, value, q1, q3
                )
            )
    return rows


def _run_sensitivity_table(config: dict, seed: int) -> list[ReportRow]:
    domain = load_domain(_field(config, "domain", None, dict))
    k = _field(config, "k", 2, int)
    rows = []
    for entry in _field(config, "entries", [], [dict]):
        name = _field(entry, "query", None, str, where="sensitivity-table entry")
        if name not in QUERY_KINDS:
            raise ValueError(f"unknown sensitivity-table query {name!r}; known: {', '.join(QUERY_KINDS)}")
        query = QUERY_KINDS[name](k)
        policy = load_policy(_field(entry, "policy", None, dict, where="sensitivity-table entry"), domain)
        res = policy_sensitivity(query, policy)
        rows.append(
            ReportRow(
                "sensitivity-table", res.method.value, policy.describe(), None, None, None,
                f"sensitivity[{name},{res.exactness.value}]", res.value, res.value, res.value,
            )
        )
    return rows


_RUNNERS = {
    "range-mse": _run_range_mse,
    "cdf-release": _run_cdf_release,
    "kmeans-ratio": _run_kmeans_ratio,
    "sensitivity-table": _run_sensitivity_table,
}
EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(config: str | dict) -> ExperimentReport:
    """Execute a registered experiment described by a config object."""
    if isinstance(config, str):
        config = json.loads(config)
    if not isinstance(config, dict):
        raise ValueError("experiment config must be a JSON object")
    name = config.get("experiment")
    runner = _RUNNERS.get(name) if isinstance(name, str) else None
    if runner is None:
        raise ValueError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}")
    seed = _field(config, "seed", 0, int)
    return ExperimentReport(seed=seed, rows=tuple(runner(config, seed)))
