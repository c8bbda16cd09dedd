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

EXPERIMENTS = ("range-mse", "cdf-release", "kmeans-ratio", "sensitivity-table")


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


def run_experiment(config: str | dict) -> ExperimentReport:
    """Execute a registered experiment described by a config object."""
    if isinstance(config, str):
        config = json.loads(config)
    name = config.get("experiment")
    if name == "range-mse":
        return _run_range_mse(config)
    if name == "cdf-release":
        return _run_cdf_release(config)
    if name == "kmeans-ratio":
        return _run_kmeans_ratio(config)
    if name == "sensitivity-table":
        return _run_sensitivity_table(config)
    raise ValueError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}")


def _range_truth(counts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact count of each (i, j) row of ``queries``, from int64 prefixes."""
    prefix = np.concatenate([[0], np.cumsum(counts)])
    return (prefix[queries[:, 1]] - prefix[queries[:, 0] - 1]).astype(float)


def _config_histogram(config: dict, size: int, seed: int) -> np.ndarray:
    """The synthetic histogram described by a config's ``data`` object."""
    data_cfg = dict(config.get("data", {"kind": "zipf", "n": 10_000}))
    return synth_histogram(
        kind=data_cfg.get("kind", "zipf"),
        size=size,
        n=int(data_cfg.get("n", 10_000)),
        seed=seed,
        zipf_s=float(data_cfg.get("zipf_s", 1.1)),
        zero_frac=float(data_cfg.get("zero_frac", 0.9)),
    )


def _run_range_mse(config: dict) -> ExperimentReport:
    seed = int(config.get("seed", 0))
    size = int(config.get("domain_size", 400))
    trials = int(config.get("trials", 20))
    n_queries = int(config.get("queries", 2000))
    fanout = int(config.get("fanout", 16))
    thetas = config.get("thetas", [1, "full"])
    epsilons = [float(e) for e in config.get("epsilons", [0.5, 1.0])]
    include_baseline = bool(config.get("baseline", True))

    counts = _config_histogram(config, size, seed)
    workload = random_range_workload(size, n_queries, seed)
    queries = np.asarray(workload.queries, dtype=np.int64).reshape(-1, 2)
    truth = _range_truth(counts, queries)

    # (mechanism, policy, theta) per row group; the hierarchical baseline is
    # the theta = |T| tree, whose budget split puts all of epsilon on H nodes
    specs = []
    for theta_raw in thetas:
        theta = size if theta_raw == "full" else int(theta_raw)
        specs.append(("ordered-hierarchical", f"distance(theta={theta})", theta))
    if include_baseline:
        specs.append(("hierarchical", "full", size))

    rows: list[ReportRow] = []
    row_idx = 0
    for mechanism, policy, theta in specs:
        for eps in epsilons:
            errors = []
            for t in range(trials):
                ts = trial_seed(seed, "range-mse", row_idx, t)
                split = optimal_budget_split(size, theta, fanout, eps)
                tree = build_oh_release(counts, theta, fanout, split.eps_s, split.eps_h, ts)
                est = oh_range_answers(tree, queries)
                errors.append(float(((est - truth) ** 2).mean()))
            mean, q1, q3 = _summary(errors)
            rows.append(
                ReportRow(
                    "range-mse",
                    mechanism,
                    policy,
                    eps,
                    theta,
                    fanout,
                    "range_mse",
                    mean,
                    q1,
                    q3,
                )
            )
            row_idx += 1
    return ExperimentReport(seed=seed, rows=tuple(rows))


def _run_cdf_release(config: dict) -> ExperimentReport:
    seed = int(config.get("seed", 0))
    size = int(config.get("domain_size", 400))
    trials = int(config.get("trials", 20))
    thetas = [int(t) for t in config.get("thetas", [1])]
    epsilons = [float(e) for e in config.get("epsilons", [0.5, 1.0])]

    counts = _config_histogram(config, size, seed)
    truth = np.cumsum(counts).astype(float)
    rows: list[ReportRow] = []
    row_idx = 0
    for theta in thetas:
        for eps in epsilons:
            errors = []
            for t in range(trials):
                ts = trial_seed(seed, "cdf-release", row_idx, t)
                released = ordered_mechanism(counts, theta, PrivacyParams(eps, ts))
                errors.append(float(((released.inferred - truth) ** 2).sum()))
            mean, q1, q3 = _summary(errors)
            rows.append(
                ReportRow(
                    "cdf-release",
                    "ordered",
                    f"distance(theta={theta})",
                    eps,
                    theta,
                    None,
                    "cdf_mse",
                    mean,
                    q1,
                    q3,
                )
            )
            row_idx += 1
    return ExperimentReport(seed=seed, rows=tuple(rows))


def _run_kmeans_ratio(config: dict) -> ExperimentReport:
    seed = int(config.get("seed", 0))
    n = int(config.get("n", 1000))
    dims = int(config.get("dims", 4))
    k = int(config.get("k", 4))
    sigma = float(config.get("sigma", 0.2))
    trials = int(config.get("trials", 50))
    iterations = int(config.get("iterations", 10))
    epsilons = [float(e) for e in config.get("epsilons", [0.2])]
    policies_cfg = config.get("policies", [{"kind": "full"}, {"kind": "distance", "theta": 0.25}])
    bounds = tuple((0.0, 1.0) for _ in range(dims))

    cfg = KmeansConfig(k=k, iterations=iterations)
    rows: list[ReportRow] = []
    row_idx = 0
    for pol_cfg in policies_cfg:
        policy = ClusteringPolicy(
            bounds=bounds,
            kind=str(pol_cfg.get("kind", "full")),
            theta=float(pol_cfg.get("theta", 0.0)),
        )
        for eps in epsilons:
            ratios = []
            for t in range(trials):
                ts = trial_seed(seed, "kmeans-ratio", row_idx, t)
                pts = synth_clusters(n, dims, k, sigma, ts)
                base = kmeans_nonprivate(pts, cfg, seed=ts, bounds=bounds)
                priv = kmeans_private(pts, cfg, policy, PrivacyParams(eps, ts))
                ratios.append(priv.objective / base.objective)
            mean, q1, q3 = _summary(ratios)
            median = float(np.median(ratios))
            theta_col = int(policy.theta) if policy.theta == int(policy.theta) else None
            rows.append(
                ReportRow(
                    "kmeans-ratio", "private-kmeans", policy.describe(), eps,
                    theta_col, None, "objective_ratio", mean, q1, q3,
                )
            )
            rows.append(
                ReportRow(
                    "kmeans-ratio", "private-kmeans", policy.describe(), eps,
                    theta_col, None, "objective_ratio_median", median, q1, q3,
                )
            )
            row_idx += 1
    return ExperimentReport(seed=seed, rows=tuple(rows))


def _run_sensitivity_table(config: dict) -> ExperimentReport:
    seed = int(config.get("seed", 0))
    domain = load_domain(config["domain"])
    k = int(config.get("k", 2))
    rows: list[ReportRow] = []
    for entry in config.get("entries", ()):
        query = QUERY_KINDS[str(entry["query"])](k)
        policy = load_policy(entry["policy"], domain)
        res = policy_sensitivity(query, policy)
        rows.append(
            ReportRow(
                "sensitivity-table",
                res.method.value,
                policy.describe(),
                None,
                None,
                None,
                f"sensitivity[{entry['query']},{res.exactness.value}]",
                res.value,
                res.value,
                res.value,
            )
        )
    return ExperimentReport(seed=seed, rows=tuple(rows))
