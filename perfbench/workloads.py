"""The three workloads: seeded input files, CLI calls, checks and replays.

Each workload writes every domain, policy, CSV and experiment config it needs
into a scratch directory, from its seed alone, and describes its operations.
An operation is one ``blowfish`` CLI call (argv, with paths relative to the
scratch directory, so that outputs echoing them repeat byte for byte across
runs of one seed), a check of what the call
wrote or printed, and a replay: the same work as calls to the layers' public
functions, each call inside a span, returning the values the CLI call must
have released.

The replays follow the call sequence of the CLI and of the experiment harness
as they are at the commit that introduced this benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from blowfish.domain import histogram, ingest_dataset, load_domain
from blowfish.experiments import (
    ExperimentReport,
    ReportRow,
    random_range_workload,
    synth_clusters,
    synth_histogram,
    trial_seed,
)
from blowfish.kmeans import ClusteringPolicy, KmeansConfig, kmeans_nonprivate, kmeans_private
from blowfish.mechanisms import (
    PrivacyParams,
    build_oh_release,
    hierarchical_release,
    isotonic_inference,
    laplace_mechanism,
    oh_range_query,
    optimal_budget_split,
    ordered_mechanism,
)
from blowfish.policy import load_policy
from blowfish.sensitivity import (
    Exactness,
    HistogramQuery,
    Method,
    SensitivityResult,
    alpha_xi,
    build_policy_graph,
    closed_form_sensitivity,
    is_sparse,
)

import checks
from spans import Tracer

# release: |T| = 4096 with rows drawn uniformly, because the cost of looking a
# label up depends on where it sits in the attribute; zipf rows would hide
# most of the ingest cost that dominates this workload
RELEASE_DOMAIN_SIZE = 4096
RELEASE_ROWS = 20_000
RELEASE_EPSILON = 1.0
RANGE_THETA = 16
RANGE_FANOUT = 4
KMEANS_POINTS = 20_000
KMEANS_DIMS = 4
KMEANS_K = 8
KMEANS_THETA = 0.25

# constrained-sensitivity: 4 x 8 x 8 = 256 points.  Five disjoint rectangles
# (index ranges per attribute); each seed reflects this layout along a chosen
# set of axes and shuffles the order.  Reflections keep every L1 distance,
# so the policy graphs, and the sensitivities below, are the same for every
# seed, while the files differ.
SENSITIVITY_SIZES = (4, 8, 8)
RECTANGLES = (
    ((0, 1), (0, 2), (0, 2)),
    ((0, 1), (4, 5), (0, 2)),
    ((2, 3), (4, 6), (3, 5)),
    ((2, 3), (0, 1), (6, 7)),
    ((0, 0), (6, 7), (6, 7)),
)
# what `sensitivity --method auto` and `policy validate` print on these
# inputs at the commit that introduced the benchmark
PRINTED_AT_SEED = {
    "sensitivity_full_s": "12 UpperBound SparseEngine",
    "sensitivity_attribute_s": "8 UpperBound SparseEngine",
    "sensitivity_distance_s": "8 UpperBound SparseEngine",
    "policy_validate_s": "ok: domain size 256, full|general(q=5), 5 queries, sparse",
}

WORKLOADS = ("release", "experiment", "constrained-sensitivity")


@dataclass
class Op:
    name: str  # metric under which the call's wall time is reported
    argv: list[str]
    check: Callable[[str], None]  # raises checks.CheckFailed
    released: Callable[[str], object]  # the part of the output a replay reproduces
    replay: Callable[[Tracer], object]
    out: Path | None = None  # file the call writes; None when it prints its result
    remainder: str = "cli.self"  # layer charged with the time outside replay spans
    trials: int = 0  # Monte-Carlo trials of an experiment call


@dataclass
class Workload:
    ops: list[Op]
    # (domain, policy) files whose secret pairs describe the input
    policies: list[tuple[Path, Path]] = field(default_factory=list)


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    builders = {
        "release": _release,
        "experiment": _experiment,
        "constrained-sensitivity": _constrained,
    }
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(name)]))
    (directory / "out").mkdir(parents=True)
    return builders[name](rng, directory)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _write_json(path: Path, obj) -> Path:
    return _write(path, json.dumps(obj, indent=1))


def _labels(rng: np.random.Generator, n: int, prefix: str = "") -> list[str]:
    return [f"{prefix}{v:06x}" for v in rng.choice(16**6, size=n, replace=False)]


def _arg(path: Path) -> str:
    """Path as given on the command line: relative to the scratch directory."""
    return path.name if path.parent.name != "out" else f"out/{path.name}"


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _payload_part(keys: tuple[str, ...], text: str) -> dict:
    payload = json.loads(text)
    return {k: payload[k] for k in keys}


# -- release -------------------------------------------------------------------


def _release(rng: np.random.Generator, d: Path) -> Workload:
    size, eps = RELEASE_DOMAIN_SIZE, RELEASE_EPSILON
    labels = _labels(rng, size)
    picks = rng.integers(0, size, RELEASE_ROWS)
    counts = np.bincount(picks, minlength=size)
    domain = _write_json(d / "domain.json", {"attributes": [{"name": "value", "values": labels, "ordinal": True}]})
    policy = _write_json(d / "policy.json", {"graph": {"kind": "distance", "theta": 1}, "constraints": {"kind": "cardinality"}})
    data = _write(d / "rows.csv", "value\n" + "\n".join(labels[i] for i in picks) + "\n")
    centers = rng.random((KMEANS_K, KMEANS_DIMS))
    pts = np.clip(
        centers[rng.integers(0, KMEANS_K, KMEANS_POINTS)] + rng.normal(0.0, 0.05, (KMEANS_POINTS, KMEANS_DIMS)),
        0.0,
        1.0,
    )
    points = _write(d / "points.csv", "\n".join(",".join(f"{v:.6f}" for v in row) for row in pts) + "\n")
    seed = int(rng.integers(1, 2**31))
    common = ["--domain", _arg(domain), "--data", _arg(data), "--epsilon", str(eps), "--seed", str(seed)]
    out = {k: d / "out" / f"{k}.json" for k in ("histogram", "cdf", "range", "kmeans")}
    ops = [
        Op(
            "release_histogram_s",
            ["release", "histogram", "--policy", _arg(policy), *common, "--out", _arg(out["histogram"])],
            partial(checks.check_histogram, counts=counts, epsilon=eps),
            partial(_payload_part, ("sensitivity", "exactness", "values")),
            partial(_replay_histogram, domain=domain, policy=policy, data=data, seed=seed, eps=eps),
            out["histogram"],
        ),
        Op(
            "release_cdf_s",
            ["release", "cdf", *common, "--theta", "1", "--out", _arg(out["cdf"])],
            partial(checks.check_cdf, counts=counts, theta=1, epsilon=eps),
            partial(_payload_part, ("mechanism", "theta", "epsilon", "seed", "values")),
            partial(_replay_cdf, domain=domain, data=data, seed=seed, eps=eps),
            out["cdf"],
        ),
        Op(
            "release_range_s",
            ["release", "range", *common, "--theta", str(RANGE_THETA), "--fanout", str(RANGE_FANOUT),
             "--out", _arg(out["range"])],
            partial(checks.check_range, counts=counts, theta=RANGE_THETA, fanout=RANGE_FANOUT, epsilon=eps),
            partial(_payload_part, ("mechanism", "domain_size", "theta", "fanout", "eps_s", "eps_h", "seed", "nodes")),
            partial(_replay_range, domain=domain, data=data, seed=seed, eps=eps),
            out["range"],
        ),
        Op(
            "kmeans_release_s",
            ["kmeans", "--data", _arg(points), "--k", str(KMEANS_K), "--epsilon", str(eps), "--seed", str(seed),
             "--graph", "distance", "--theta", str(KMEANS_THETA), "--out", _arg(out["kmeans"])],
            partial(checks.check_kmeans, low=0.0, high=1.0, k=KMEANS_K, dims=KMEANS_DIMS, epsilon=eps),
            partial(_payload_part, ("centroids", "objective", "trace", "epsilon_spent")),
            partial(_replay_kmeans, points=points, seed=seed, eps=eps),
            out["kmeans"],
        ),
    ]
    return Workload(ops, [(domain, policy)])


def _load(tr: Tracer, domain_path: Path, data_path: Path):
    domain_text, data_text = _read(domain_path), _read(data_path)
    with tr.span("domain.load_domain"):
        domain = load_domain(domain_text)
    with tr.span("domain.ingest_dataset"):
        data = ingest_dataset(data_text, domain)
    tr.count("domain.rows", data.n)
    with tr.span("domain.histogram"):
        counts = histogram(data)
    return domain, counts


def _replay_histogram(tr: Tracer, domain: Path, policy: Path, data: Path, seed: int, eps: float) -> dict:
    dom, counts = _load(tr, domain, data)
    policy_text = _read(policy)
    with tr.span("policy.load_policy"):
        pol = load_policy(policy_text, dom)
    with tr.span("sensitivity.closed_form_sensitivity"):
        res = closed_form_sensitivity(HistogramQuery(), pol)
    with tr.span("mechanisms.laplace_mechanism"):
        values = laplace_mechanism(counts, res.value, PrivacyParams(eps, seed))
    tr.count("mechanisms.noise_draws", values.size)
    return {"sensitivity": res.value, "exactness": res.exactness.value, "values": [float(v) for v in values]}


def _ordered(tr: Tracer, counts, theta: int, pp: PrivacyParams):
    with tr.span("mechanisms.ordered_mechanism"):
        released = ordered_mechanism(counts, theta, pp)
    tr.count("mechanisms.noise_draws", released.noisy.size)
    with tr.span("mechanisms.isotonic_inference", rerun=True):
        inferred = isotonic_inference(released.noisy, lower_bound=0.0)
    if not np.array_equal(inferred, released.inferred):
        raise checks.CheckFailed("isotonic_inference on the noisy prefixes differs from the release")
    return released


def _replay_cdf(tr: Tracer, domain: Path, data: Path, seed: int, eps: float) -> dict:
    _, counts = _load(tr, domain, data)
    released = _ordered(tr, counts, 1, PrivacyParams(eps, seed))
    with tr.span("mechanisms.to_dict"):
        return released.to_dict()


def _replay_range(tr: Tracer, domain: Path, data: Path, seed: int, eps: float) -> dict:
    dom, counts = _load(tr, domain, data)
    split = optimal_budget_split(dom.size, RANGE_THETA, RANGE_FANOUT, eps)
    with tr.span("mechanisms.build_oh_release"):
        tree = build_oh_release(counts, RANGE_THETA, RANGE_FANOUT, split.eps_s, split.eps_h, seed)
    tr.count("mechanisms.noise_draws", len(tree.nodes()))
    with tr.span("mechanisms.to_dict"):
        return tree.to_dict()


def _replay_kmeans(tr: Tracer, points: Path, seed: int, eps: float) -> dict:
    rows = [line.split(",") for line in _read(points).strip().splitlines() if line.strip()]
    pts = np.array([[float(v) for v in row] for row in rows])
    policy = ClusteringPolicy(bounds=((0.0, 1.0),) * pts.shape[1], kind="distance", theta=KMEANS_THETA)
    with tr.span("kmeans.kmeans_private"):
        result = kmeans_private(pts, KmeansConfig(k=KMEANS_K), policy, PrivacyParams(eps, seed))
    return result.to_dict()


# -- experiment ------------------------------------------------------------------


def _experiment(rng: np.random.Generator, d: Path) -> Workload:
    zipf = {"kind": "zipf", "n": 100_000, "zipf_s": 1.1, "zero_frac": 0.9}
    configs = {
        # zipf's empty tail makes isotonic inference pool; trees are rebuilt
        # per trial and each answers the whole query workload
        "range_mse_trials_per_s": {
            "experiment": "range-mse", "seed": int(rng.integers(2**31)), "domain_size": 4096, "data": zipf,
            "trials": 1, "queries": 2000, "fanout": 16, "thetas": [1, 16, 256, "full"], "epsilons": [1.0],
            "baseline": True,
        },
        "cdf_trials_per_s": {
            "experiment": "cdf-release", "seed": int(rng.integers(2**31)), "domain_size": 4096, "data": zipf,
            "trials": 1, "thetas": [1, 8], "epsilons": [1.0],
        },
        "kmeans_trials_per_s": {
            "experiment": "kmeans-ratio", "seed": int(rng.integers(2**31)), "n": 20_000, "dims": 4, "k": 4,
            "sigma": 0.2, "trials": 1, "iterations": 10, "epsilons": [0.2],
            "policies": [{"kind": "full"}, {"kind": "distance", "theta": 0.25}],
        },
    }
    replays = {
        "range_mse_trials_per_s": _replay_range_mse,
        "cdf_trials_per_s": _replay_cdf_release,
        "kmeans_trials_per_s": _replay_kmeans_ratio,
    }
    ops = []
    for name, cfg in configs.items():
        path = _write_json(d / f"{cfg['experiment']}.json", cfg)
        out = d / "out" / f"{cfg['experiment']}.csv"
        rows = _report_rows(cfg)
        ops.append(
            Op(
                name,
                ["experiment", "run", "--config", _arg(path), "--out", _arg(out)],
                partial(checks.check_experiment, rows=rows),
                str,
                partial(replays[name], cfg=cfg),
                out,
                remainder="experiments.self",
                trials=cfg["trials"] * (rows // 2 if cfg["experiment"] == "kmeans-ratio" else rows),
            )
        )
    return Workload(ops)


def _report_rows(cfg: dict) -> int:
    if cfg["experiment"] == "range-mse":
        return (len(cfg["thetas"]) + cfg["baseline"]) * len(cfg["epsilons"])
    if cfg["experiment"] == "cdf-release":
        return len(cfg["thetas"]) * len(cfg["epsilons"])
    return 2 * len(cfg["policies"]) * len(cfg["epsilons"])  # mean and median rows


def _summary(values) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(np.percentile(arr, 25)), float(np.percentile(arr, 75))


def _synth_histogram(tr: Tracer, cfg: dict):
    data = cfg["data"]
    with tr.span("experiments.synth_histogram"):
        return synth_histogram(
            kind=data["kind"], size=cfg["domain_size"], n=data["n"], seed=cfg["seed"],
            zipf_s=data["zipf_s"], zero_frac=data["zero_frac"],
        )


def _range_errors(tr: Tracer, tree, queries, truth) -> float:
    tr.count("mechanisms.noise_draws", len(tree.nodes()))
    with tr.span("mechanisms.oh_range_query"):
        est = np.array([oh_range_query(tree, i, j) for i, j in queries])
    tr.count("mechanisms.range_queries", len(queries))
    return float(((est - truth) ** 2).mean())


def _replay_range_mse(tr: Tracer, cfg: dict) -> str:
    seed, size, fanout = cfg["seed"], cfg["domain_size"], cfg["fanout"]
    counts = _synth_histogram(tr, cfg)
    with tr.span("experiments.random_range_workload"):
        workload = random_range_workload(size, cfg["queries"], seed)
    prefix = np.concatenate([[0], np.cumsum(counts)])
    truth = np.array([prefix[j] - prefix[i - 1] for i, j in workload.queries], dtype=float)
    rows, row_idx = [], 0
    for theta_raw in cfg["thetas"]:
        theta = size if theta_raw == "full" else int(theta_raw)
        for eps in cfg["epsilons"]:
            errors = []
            for t in range(cfg["trials"]):
                ts = trial_seed(seed, "range-mse", row_idx, t)
                split = optimal_budget_split(size, theta, fanout, eps)
                with tr.span("mechanisms.build_oh_release"):
                    tree = build_oh_release(counts, theta, fanout, split.eps_s, split.eps_h, ts)
                errors.append(_range_errors(tr, tree, workload.queries, truth))
            rows.append(ReportRow("range-mse", "ordered-hierarchical", f"distance(theta={theta})", eps, theta,
                                  fanout, "range_mse", *_summary(errors)))
            row_idx += 1
    if cfg["baseline"]:
        for eps in cfg["epsilons"]:
            errors = []
            for t in range(cfg["trials"]):
                ts = trial_seed(seed, "range-mse", row_idx, t)
                with tr.span("mechanisms.hierarchical_release"):
                    tree = hierarchical_release(counts, fanout, eps, ts)
                errors.append(_range_errors(tr, tree, workload.queries, truth))
            rows.append(ReportRow("range-mse", "hierarchical", "full", eps, size, fanout, "range_mse",
                                  *_summary(errors)))
            row_idx += 1
    return ExperimentReport(seed=seed, rows=tuple(rows)).to_csv_string()


def _replay_cdf_release(tr: Tracer, cfg: dict) -> str:
    seed = cfg["seed"]
    counts = _synth_histogram(tr, cfg)
    truth = np.cumsum(counts).astype(float)
    rows, row_idx = [], 0
    for theta in cfg["thetas"]:
        for eps in cfg["epsilons"]:
            errors = []
            for t in range(cfg["trials"]):
                ts = trial_seed(seed, "cdf-release", row_idx, t)
                released = _ordered(tr, counts, theta, PrivacyParams(eps, ts))
                errors.append(float(((released.inferred - truth) ** 2).sum()))
            rows.append(ReportRow("cdf-release", "ordered", f"distance(theta={theta})", eps, theta, None,
                                  "cdf_mse", *_summary(errors)))
            row_idx += 1
    return ExperimentReport(seed=seed, rows=tuple(rows)).to_csv_string()


def _replay_kmeans_ratio(tr: Tracer, cfg: dict) -> str:
    seed, n, dims, k = cfg["seed"], cfg["n"], cfg["dims"], cfg["k"]
    bounds = tuple((0.0, 1.0) for _ in range(dims))
    kcfg = KmeansConfig(k=k, iterations=cfg["iterations"])
    rows, row_idx = [], 0
    for pol_cfg in cfg["policies"]:
        policy = ClusteringPolicy(bounds=bounds, kind=pol_cfg["kind"], theta=float(pol_cfg.get("theta", 0.0)))
        for eps in cfg["epsilons"]:
            ratios = []
            for t in range(cfg["trials"]):
                ts = trial_seed(seed, "kmeans-ratio", row_idx, t)
                with tr.span("experiments.synth_clusters"):
                    pts = synth_clusters(n, dims, k, cfg["sigma"], ts)
                with tr.span("kmeans.kmeans_nonprivate"):
                    base = kmeans_nonprivate(pts, kcfg, seed=ts, bounds=bounds)
                with tr.span("kmeans.kmeans_private"):
                    priv = kmeans_private(pts, kcfg, policy, PrivacyParams(eps, ts))
                ratios.append(priv.objective / base.objective)
            mean, q1, q3 = _summary(ratios)
            theta_col = int(policy.theta) if policy.theta == int(policy.theta) else None
            for metric, value in (("objective_ratio", mean), ("objective_ratio_median", float(np.median(ratios)))):
                rows.append(ReportRow("kmeans-ratio", "private-kmeans", policy.describe(), eps, theta_col, None,
                                      metric, value, q1, q3))
            row_idx += 1
    return ExperimentReport(seed=seed, rows=tuple(rows)).to_csv_string()


# -- constrained-sensitivity -------------------------------------------------------


def _constrained(rng: np.random.Generator, d: Path) -> Workload:
    names = [f"A{i}" for i in range(len(SENSITIVITY_SIZES))]
    labels = [_labels(rng, s, prefix=f"{n.lower()}_") for n, s in zip(names, SENSITIVITY_SIZES)]
    domain = _write_json(d / "domain.json", {"attributes": [{"name": n, "values": v} for n, v in zip(names, labels)]})
    flips = rng.integers(0, 2, len(SENSITIVITY_SIZES))
    rects = []
    for r in rng.permutation(len(RECTANGLES)):
        where = {}
        for a, (lo, hi) in enumerate(RECTANGLES[r]):
            if flips[a]:
                lo, hi = SENSITIVITY_SIZES[a] - 1 - hi, SENSITIVITY_SIZES[a] - 1 - lo
            where[names[a]] = {"range": [int(lo), int(hi)]}
        rects.append({"where": where, "answer": int(rng.integers(0, 5))})
    marginal = [{"where": {names[0]: [v]}, "answer": int(rng.integers(0, 5))} for v in labels[0]]
    policies = {
        "sensitivity_full_s": _write_json(d / "full.json", {"graph": {"kind": "full"}, "constraints": {"kind": "general", "queries": rects}}),
        "sensitivity_attribute_s": _write_json(d / "attribute.json", {"graph": {"kind": "attribute"}, "constraints": {"kind": "general", "queries": marginal}}),
        "sensitivity_distance_s": _write_json(d / "distance.json", {"graph": {"kind": "distance", "theta": 2}, "constraints": {"kind": "general", "queries": rects}}),
    }
    ops = [
        Op(
            name,
            ["sensitivity", "--query", "histogram", "--method", "auto", "--domain", _arg(domain), "--policy", _arg(path)],
            partial(checks.check_printed, expected=PRINTED_AT_SEED[name]),
            str.strip,
            partial(_replay_sensitivity, domain=domain, policy=path),
        )
        for name, path in policies.items()
    ]
    full = policies["sensitivity_full_s"]
    ops.append(
        Op(
            "policy_validate_s",
            ["policy", "validate", "--domain", _arg(domain), "--policy", _arg(full)],
            partial(checks.check_printed, expected=PRINTED_AT_SEED["policy_validate_s"]),
            str.strip,
            partial(_replay_validate, domain=domain, policy=full),
        )
    )
    return Workload(ops, [(domain, p) for p in policies.values()])


def _load_policy(tr: Tracer, domain: Path, policy: Path):
    domain_text, policy_text = _read(domain), _read(policy)
    with tr.span("domain.load_domain"):
        dom = load_domain(domain_text)
    with tr.span("policy.load_policy"):
        return load_policy(policy_text, dom)


def _replay_sensitivity(tr: Tracer, domain: Path, policy: Path) -> str:
    pol = _load_policy(tr, domain, policy)
    with tr.span("sensitivity.is_sparse"):
        sparse = is_sparse(pol.constraints, pol.graph)
    if not sparse:
        return "non-sparse"
    with tr.span("sensitivity.build_policy_graph"):
        pg = build_policy_graph(pol.constraints, pol.graph)
    with tr.span("sensitivity.alpha_xi"):
        alpha, xi = alpha_xi(pg)
    res = SensitivityResult(2.0 * max(alpha, xi), Exactness.UPPER_BOUND, Method.SPARSE_ENGINE)
    value = int(res.value) if float(res.value).is_integer() else res.value
    return f"{value} {res.exactness.value} {res.method.value}"


def _replay_validate(tr: Tracer, domain: Path, policy: Path) -> str:
    pol = _load_policy(tr, domain, policy)
    with tr.span("sensitivity.is_sparse"):
        sparse = is_sparse(pol.constraints, pol.graph)
    n_q = len(pol.constraints.queries)
    return f"ok: domain size {pol.domain.size}, {pol.describe()}, {n_q} queries, {'sparse' if sparse else 'non-sparse'}"
