"""Seeded Monte-Carlo harness: error measurements over synthetic workloads.

Every experiment is a pure function of (config, seed): per-trial seeds are
derived from the global seed, the experiment name and the row and trial
indices, so adding or reordering unrelated rows never changes another row's
results and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import zlib
from dataclasses import astuple, dataclass, fields

import numpy as np

from .domain import load_domain
from .errors import INT64, POSITIVE, read_field, read_json
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
    # map a uniform flat draw to its pair in {(i, j): 1 <= i <= j <= size}:
    # row i of the pair triangle starts at flat offset (i-1)*size - (i-1)(i-2)/2
    m = np.arange(domain_size, dtype=np.int64)
    starts = m * domain_size - m * (m - 1) // 2
    rows = np.searchsorted(starts, picks, side="right")
    cols = picks - starts[rows - 1] + rows
    queries = tuple(zip(rows.tolist(), cols.tolist()))
    return Workload(domain_size=domain_size, queries=queries, seed=seed)


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
        writer.writerow(f.name for f in fields(ReportRow))
        writer.writerows([v if isinstance(v, str) else _num(v) for v in astuple(r)] for r in self.rows)
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


def _config_histogram(config: dict, size: int, seed: int) -> np.ndarray:
    """The synthetic histogram described by a config's ``data`` object."""
    data_cfg = read_field(config, "data", {"kind": "zipf", "n": 10_000}, dict)
    where = "experiment 'data' field"
    kind = read_field(data_cfg, "kind", "zipf", str, where=where)
    if kind not in ("uniform", "zipf", "sparse"):
        raise ValueError(f"{where} 'kind' must be one of uniform, zipf, sparse, got {kind!r}")
    return synth_histogram(
        kind=kind,
        size=size,
        n=read_field(data_cfg, "n", 10_000, INT64, least=0, where=where),
        seed=seed,
        zipf_s=read_field(data_cfg, "zipf_s", 1.1, float, where=where),
        zero_frac=read_field(data_cfg, "zero_frac", 0.9, float, least=0, most=1, where=where),
    )


def _sweep(name: str, seed: int, trials: int, cells, measure):
    """Yield each cell with its ``trials`` values of ``measure(cell, ts)``;
    trial t of the cell at index i is seeded by ``trial_seed(seed, name, i, t)``."""
    for row, cell in enumerate(cells):
        yield cell, [measure(cell, trial_seed(seed, name, row, t)) for t in range(trials)]


def _run_range_mse(config: dict, seed: int) -> list[ReportRow]:
    size = read_field(config, "domain_size", 400, INT64, least=1)
    trials = read_field(config, "trials", 20, INT64, least=1)
    n_queries = read_field(config, "queries", 2000, INT64, least=1)
    fanout = read_field(config, "fanout", 16, INT64, least=2)
    thetas = read_field(config, "thetas", [1, "full"], [(INT64, "full")], least=1, most=size)
    thetas = [size if t == "full" else t for t in thetas]
    epsilons = read_field(config, "epsilons", [0.5, 1.0], [POSITIVE])

    counts = _config_histogram(config, size, seed)
    queries = np.asarray(random_range_workload(size, n_queries, seed).queries, dtype=np.int64).reshape(-1, 2)
    truth = _range_truth(counts, queries)

    # (mechanism, policy, theta) per row group; the hierarchical baseline is
    # the theta = |T| tree, whose budget split puts all of epsilon on H nodes
    specs = [("ordered-hierarchical", f"distance(theta={theta})", theta) for theta in thetas]
    if read_field(config, "baseline", True, bool):
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
    size = read_field(config, "domain_size", 400, INT64, least=1)
    trials = read_field(config, "trials", 20, INT64, least=1)
    thetas = read_field(config, "thetas", [1], [INT64], least=1)
    epsilons = read_field(config, "epsilons", [0.5, 1.0], [POSITIVE])

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
    n = read_field(config, "n", 1000, INT64, least=1)
    dims = read_field(config, "dims", 4, INT64, least=1)
    k = read_field(config, "k", 4, INT64, least=1)
    sigma = read_field(config, "sigma", 0.2, float, least=0)
    trials = read_field(config, "trials", 50, INT64, least=1)
    iterations = read_field(config, "iterations", 10, INT64, least=1)
    epsilons = read_field(config, "epsilons", [0.2], [POSITIVE])
    policies_cfg = read_field(config, "policies", [{"kind": "full"}, {"kind": "distance", "theta": 0.25}], [dict])
    bounds = ((0.0, 1.0),) * dims

    cfg = KmeansConfig(k=k, iterations=iterations)
    where = "kmeans-ratio policy"
    policies = []
    for i, p in enumerate(policies_cfg):
        kind = read_field(p, "kind", "full", str, where=where)
        theta = read_field(p, "theta", 0.0, float, where=where)
        try:
            policies.append(ClusteringPolicy(bounds, kind, theta))
        except ValueError as exc:
            raise ValueError(f"{where} {i}: {exc}") from None

    def measure(cell, ts):
        policy, eps = cell
        pts = synth_clusters(n, dims, k, sigma, ts)
        base = kmeans_nonprivate(pts, cfg, seed=ts, bounds=bounds)
        if base.objective == 0:
            raise ValueError(
                f"kmeans-ratio: policy {policy.describe()} at epsilon {eps}, trial seed {ts}: "
                "the non-private objective is 0, so the ratio is undefined"
            )
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
    domain = load_domain(read_field(config, "domain", None, dict))
    k = read_field(config, "k", 2, INT64, least=1)
    rows = []
    for entry in read_field(config, "entries", [], [dict]):
        name = read_field(entry, "query", None, str, where="sensitivity-table entry")
        if name not in QUERY_KINDS:
            raise ValueError(f"unknown sensitivity-table query {name!r}; known: {', '.join(QUERY_KINDS)}")
        query = QUERY_KINDS[name](k)
        policy = load_policy(read_field(entry, "policy", None, dict, where="sensitivity-table entry"), domain)
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
        config = read_json(config, "experiment config")
    if not isinstance(config, dict):
        raise ValueError("experiment config must be a JSON object")
    name = read_field(config, "experiment", None, str)
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}")
    seed = read_field(config, "seed", 0, int, least=0)
    return ExperimentReport(seed=seed, rows=tuple(_RUNNERS[name](config, seed)))
