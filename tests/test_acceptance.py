"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from blowfish import (
    ClusteringPolicy,
    ClusterSizeQuery,
    ClusterSumQuery,
    ConstraintSet,
    CountQuery,
    CumulativeQuery,
    Exactness,
    HistogramQuery,
    KmeansConfig,
    LinearSumQuery,
    PartitionHistogramQuery,
    Policy,
    PrivacyParams,
    SecretGraph,
    alpha_xi,
    brute_force_sensitivity,
    build_oh_release,
    build_policy_graph,
    closed_form_sensitivity,
    enumerate_databases,
    hierarchical_release,
    histogram,
    ingest_dataset,
    is_sparse,
    isotonic_inference,
    kmeans_nonprivate,
    kmeans_private,
    laplace_mechanism,
    load_domain,
    oh_range_answers,
    optimal_budget_split,
    ordered_mechanism,
    random_range_workload,
    run_experiment,
    sparse_constraint_sensitivity,
    specialized_constraint_sensitivity,
)
from blowfish.experiments import synth_clusters, synth_histogram
from blowfish.mechanisms import oh_error_model
from blowfish.policy import load_policy, neighbor_databases
from blowfish.sensitivity import _query_deltas

from oracles import (
    delta_by_loop,
    is_neighbor_by_definition,
    isotonic_by_enumeration,
    random_secret_graph,
    range_query_truth,
)


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS - {text}")


def _grid_domain(*sizes):
    attrs = [{"name": f"A{i}", "values": [f"v{j}" for j in range(s)]} for i, s in enumerate(sizes)]
    return load_domain({"attributes": attrs})


def _line_domain(size):
    return load_domain(
        {"attributes": [{"name": "x", "values": [str(i) for i in range(size)], "ordinal": True}]}
    )


# -- criterion 1: oracle equivalence on unconstrained policies -------------------


def test_c01_oracle_equivalence_unconstrained():
    started = time.monotonic()
    rng = np.random.default_rng(20260101)
    kinds = ["full", "attribute", "partition", "distance", "explicit"]
    checked = 0
    for trial in range(50):
        while True:
            m = int(rng.integers(1, 3))
            sizes = [int(rng.integers(2, 7)) for _ in range(m)]
            if int(np.prod(sizes)) <= 6:
                break
        dom = _grid_domain(*sizes)
        kind = kinds[trial % 5]
        g = random_secret_graph(rng, dom, kind)
        policy = Policy(dom, g, ConstraintSet.none())
        n = int(rng.integers(1, 4))
        ncells = int(rng.integers(1, dom.size + 1))
        queries = [
            HistogramQuery(),
            CumulativeQuery(),
            PartitionHistogramQuery(tuple(int(c) for c in rng.integers(0, ncells, size=dom.size))),
            LinearSumQuery(
                weights=tuple(float(w) for w in rng.uniform(-2, 2, size=n)),
                lo=0.0,
                hi=float(dom.size - 1),
            ),
            ClusterSizeQuery(int(rng.integers(1, 4))),
            ClusterSumQuery(int(rng.integers(1, 4))),
        ]
        for query in queries:
            closed = closed_form_sensitivity(query, policy).value
            oracle = brute_force_sensitivity(query, policy, n).value
            assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-12), (kind, sizes, n, query)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(1, f"closed form == oracle on 50 random policies ({checked} query checks, {elapsed:.1f}s)")


# -- criterion 2: the marginal-constraint worked example --------------------------


def test_c02_marginal_worked_example():
    started = time.monotonic()
    dom = load_domain(
        {
            "attributes": [
                {"name": "A1", "values": ["a1", "a2"]},
                {"name": "A2", "values": ["b1", "b2"]},
                {"name": "A3", "values": ["c1", "c2", "c3"]},
            ]
        }
    )
    graph = SecretGraph.full(dom)
    queries = [
        CountQuery.where(dom, {"A1": [a], "A2": [b]}, answer=1)
        for a, b in itertools.product(["a1", "a2"], ["b1", "b2"])
    ]
    policy = Policy(dom, graph, ConstraintSet.of(queries))

    assert is_sparse(policy.constraints, graph)
    pg = build_policy_graph(policy.constraints, graph)
    expected = {(i, j) for i in range(4) for j in range(4) if i != j} | {(pg.source, pg.sink)}
    assert pg.edges == frozenset(expected)
    assert alpha_xi(pg) == (4, 1)
    engine = sparse_constraint_sensitivity(policy)
    assert engine.value == 8

    dbs = enumerate_databases(policy, 4)
    assert len(dbs) <= 2000

    oracle = brute_force_sensitivity(HistogramQuery(), policy, 4)
    assert oracle.value == 8

    # exhibit one neighbor pair attaining the bound (id relabeling maps
    # neighbors to neighbors, so sorted first databases suffice) and
    # re-check it against the per-pair loop and the independent set-based
    # validator
    hist = HistogramQuery()
    witness = None
    for d1, d2s in neighbor_databases(policy, 4, sorted_d1=True):
        hits = d2s[_query_deltas(hist, dom, d1, d2s) == 8]
        if len(hits):
            witness = (tuple(d1.tolist()), tuple(hits[0].tolist()))
            break
    assert witness is not None
    assert delta_by_loop(hist, dom, *witness) == 8
    assert sum(1 for a, b in zip(*witness) if a != b) == 4
    assert is_neighbor_by_definition(policy, witness[0], witness[1], list(map(tuple, dbs.tolist())))
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(2, f"policy graph, alpha=4 xi=1, S=8 attained over {len(dbs)} databases ({elapsed:.1f}s)")


# -- criterion 3: laplace histogram error -----------------------------------------


def test_c03_laplace_histogram_error():
    size, eps, trials = 64, 1.0, 1000
    truth = np.zeros(size)
    total = 0.0
    for t in range(trials):
        noisy = laplace_mechanism(truth, 2.0, PrivacyParams(eps, 31_000 + t))
        total += float((noisy**2).sum())
    measured = total / trials
    target = 8 * size / eps**2
    assert abs(measured - target) <= 0.10 * target
    _report(3, f"histogram MSE {measured:.1f} within 10% of {target:.0f}")


# -- criterion 4: ordered mechanism bound and dominance ----------------------------


def test_c04_ordered_mechanism_bound():
    size = 1024
    counts = synth_histogram("uniform", size, 100_000, seed=7)
    workload = random_range_workload(size, 10_000, seed=42)
    truth = range_query_truth(counts, workload.queries)
    summary = []
    for eps in (0.5, 1.0):
        released = ordered_mechanism(counts, 1, PrivacyParams(eps, 99))
        cum = np.concatenate([[0.0], released.inferred])
        est = np.array([cum[j] - cum[i - 1] for i, j in workload.queries])
        mse_ordered = float(((est - truth) ** 2).mean())
        bound = 4 / eps**2
        assert mse_ordered <= 1.1 * bound

        tree = hierarchical_release(counts, fanout=16, epsilon=eps, seed=99)
        est_h = oh_range_answers(tree, workload.queries)
        mse_base = float(((est_h - truth) ** 2).mean())
        assert mse_ordered < mse_base / 10
        summary.append(f"eps={eps}: {mse_ordered:.2f} <= {1.1 * bound:.2f}, baseline/{mse_base / mse_ordered:.0f}")
    _report(4, "; ".join(summary))


# -- criterion 5: budget split optimality -------------------------------------------


SPLIT_CONFIGS = [
    (256, 1, 16), (1024, 128, 2), (256, 2, 2), (256, 4, 2), (256, 8, 2),
    (512, 16, 2), (512, 32, 2), (1024, 32, 2), (256, 4, 4), (256, 16, 4),
    (512, 16, 4), (512, 64, 4), (1024, 64, 4), (512, 8, 8), (512, 64, 8),
    (1024, 8, 8), (256, 16, 16), (512, 16, 16), (1024, 16, 16), (1024, 256, 16),
]


def test_c05_budget_split_optimality():
    eps = 1.0
    worst = 0.0
    for idx, (size, theta, fanout) in enumerate(SPLIT_CONFIGS):
        split = optimal_budget_split(size, theta, fanout, eps)
        grid = np.linspace(1e-9, eps - 1e-9, 2001)
        vals = [oh_error_model(size, theta, fanout, x, eps - x) for x in grid]
        assert abs(split.eps_s - grid[int(np.argmin(vals))]) < 1e-3 * eps

        counts = synth_histogram("uniform", size, 20 * size, seed=idx)
        workload = random_range_workload(size, 500, seed=100 + idx)
        truth = range_query_truth(counts, workload.queries)
        errors = []
        for t in range(24):
            tree = build_oh_release(
                counts, theta, fanout, split.eps_s, split.eps_h, seed=5000 + 100 * idx + t
            )
            est = oh_range_answers(tree, workload.queries)
            errors.append(float(((est - truth) ** 2).mean()))
        ratio = float(np.mean(errors)) / split.predicted_mse
        worst = max(worst, abs(ratio - 1))
        assert abs(ratio - 1) <= 0.15, (size, theta, fanout, ratio)
    _report(5, f"20 configs: closed-form split matches grid search; worst MSE deviation {worst:.1%}")


# -- criterion 6: structural degeneracies ---------------------------------------------


def test_c06_structural_degeneracies():
    rng = np.random.default_rng(16)
    counts = rng.integers(0, 5, size=256)

    for size, fanout in itertools.product((1, 2, 17, 256, 257), (2, 4, 16)):
        hist = rng.integers(0, 5, size=size)
        baseline = hierarchical_release(hist, fanout=fanout, epsilon=1.0, seed=17)
        oh_full = build_oh_release(hist, theta=size, fanout=fanout, eps_s=0.0, eps_h=1.0, seed=17)
        nodes_a, nodes_b = baseline.nodes(), oh_full.nodes()
        assert len(nodes_a) == len(nodes_b)
        assert all(a == b for a, b in zip(nodes_a, nodes_b)), (size, fanout)

    split = optimal_budget_split(256, 1, 4, 1.0)
    assert split.eps_s == 1.0
    oh_one = build_oh_release(counts, theta=1, fanout=4, eps_s=split.eps_s, eps_h=split.eps_h, seed=17)
    om = ordered_mechanism(counts, 1, PrivacyParams(1.0, 17))
    prefixes = oh_one.cumulative[1:]
    assert np.array_equal(prefixes, om.noisy)
    assert np.array_equal(isotonic_inference(prefixes, lower_bound=0.0), om.inferred)
    _report(6, "theta=|T| tree == baseline node-for-node over 15 (size, fanout) shapes; theta=1 == ordered mechanism")


# -- criterion 7: isotonic optimality ---------------------------------------------------


def test_c07_isotonic_optimality():
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(200):
        length = int(rng.integers(1, 9))
        y = rng.normal(0, 4, size=length)
        fit = isotonic_inference(y, -np.inf)
        reference = isotonic_by_enumeration(y)
        worst = max(worst, float(np.abs(fit - reference).max()))
    assert worst <= 1e-6
    _report(7, f"200 sequences: max deviation from exhaustive minimization {worst:.2e}")


# -- criterion 8: specialized sensitivities vs oracle -------------------------------------


def test_c08_specialized_vs_oracle():
    # (a) one marginal, full-domain secrets: 2 * size(C)
    dom = _grid_domain(3, 3)
    cells = [CountQuery.where(dom, {"A0": [f"v{i}"]}, answer=1) for i in range(3)]
    pol_a = Policy(dom, SecretGraph.full(dom), ConstraintSet.of(cells))
    spec_a = specialized_constraint_sensitivity(pol_a)
    oracle_a = brute_force_sensitivity(HistogramQuery(), pol_a, 3)
    assert spec_a.exactness is Exactness.EXACT
    assert spec_a.value == oracle_a.value == 2 * 3

    # (b) disjoint marginals, attribute secrets: 2 * max size
    qs_b = cells + [CountQuery.where(dom, {"A1": [f"v{i}"]}, answer=1) for i in range(3)]
    pol_b = Policy(dom, SecretGraph.attribute(dom), ConstraintSet.of(qs_b))
    spec_b = specialized_constraint_sensitivity(pol_b)
    oracle_b = brute_force_sensitivity(HistogramQuery(), pol_b, 3)
    assert spec_b.exactness is Exactness.EXACT
    assert spec_b.value == oracle_b.value == 2 * 3

    # (c) disjoint rectangles, distance-threshold secrets: 2 * (maxcomp + 1)
    line = _line_domain(7)
    rects = [
        CountQuery.where(line, {"x": range(1, 3)}, answer=1),
        CountQuery.where(line, {"x": range(4, 6)}, answer=1),
    ]
    pol_c = Policy(line, SecretGraph.distance(line, 5), ConstraintSet.of(rects))
    spec_c = specialized_constraint_sensitivity(pol_c)
    oracle_c = brute_force_sensitivity(HistogramQuery(), pol_c, 3)
    assert spec_c.exactness is Exactness.EXACT
    assert spec_c.value == oracle_c.value == 2 * (2 + 1)
    _report(8, "marginal 6 == oracle; disjoint marginals 6 == oracle; rectangles 6 == oracle")


# -- criterion 9: k-means trend ----------------------------------------------------------


def test_c09_kmeans_trend():
    cfg = KmeansConfig(k=4, iterations=10)
    bounds = tuple((0.0, 1.0) for _ in range(4))
    policies = {
        "full": ClusteringPolicy(bounds, "full"),
        "distance": ClusteringPolicy(bounds, "distance", theta=0.25),
    }
    ratios = {name: [] for name in policies}
    for trial in range(50):
        seed = 60_000 + trial
        points = synth_clusters(1000, 4, 4, 0.2, seed=seed)
        base = kmeans_nonprivate(points, cfg, seed=seed, bounds=bounds)
        for name, cpolicy in policies.items():
            private = kmeans_private(points, cfg, cpolicy, PrivacyParams(0.2, seed))
            ratios[name].append(private.objective / base.objective)
    med_full = float(np.median(ratios["full"]))
    med_dist = float(np.median(ratios["distance"]))
    assert med_dist < med_full

    points = synth_clusters(1000, 4, 4, 0.2, seed=123)
    base = kmeans_nonprivate(points, cfg, seed=123, bounds=bounds)
    near_exact = kmeans_private(points, cfg, policies["full"], PrivacyParams(1e6, 123))
    max_diff = float(np.abs(near_exact.centroids - base.centroids).max())
    assert max_diff < 1e-3
    _report(
        9,
        f"median objective ratio {med_dist:.2f} (theta=0.25) < {med_full:.2f} (full); "
        f"eps=1e6 drift {max_diff:.1e}",
    )


# -- criterion 10: determinism -------------------------------------------------------------


def test_c10_determinism(tmp_path):
    from blowfish.cli import cli_main

    data_dir = tmp_path
    (data_dir / "domain.json").write_text(
        json.dumps({"attributes": [{"name": "x", "values": [str(i) for i in range(8)], "ordinal": True}]})
    )
    (data_dir / "rows.csv").write_text("x\n" + "\n".join(str(i % 8) for i in range(30)) + "\n")
    out = data_dir / "release.json"
    args = [
        "release", "cdf",
        "--domain", str(data_dir / "domain.json"),
        "--data", str(data_dir / "rows.csv"),
        "--theta", "1", "--epsilon", "1.0", "--seed", "7",
        "--out", str(out),
    ]
    assert cli_main(list(args)) == 0
    first = out.read_bytes()
    assert cli_main(list(args)) == 0
    assert out.read_bytes() == first

    config = {
        "experiment": "range-mse",
        "seed": 3,
        "domain_size": 64,
        "data": {"kind": "zipf", "n": 1000},
        "trials": 3,
        "queries": 200,
        "fanout": 4,
        "thetas": [1, 8],
        "epsilons": [0.5],
    }
    assert run_experiment(config).to_csv_string() == run_experiment(dict(config)).to_csv_string()

    counts = np.arange(64)
    t1 = build_oh_release(counts, 8, 4, 0.5, 0.5, seed=9).to_dict()
    t2 = build_oh_release(counts, 8, 4, 0.5, 0.5, seed=9).to_dict()
    assert t1 == t2
    _report(10, "CLI release, experiment CSV and tree release byte-identical under repeated seeds")


# -- criterion 11: cdf and range releases calibrated to the policy ------------------------


def test_c11_cdf_range_calibrated_to_policy(tmp_path):
    from blowfish.cli import cli_main

    data_dir = Path(__file__).resolve().parent.parent / "data"
    domain = load_domain((data_dir / "domain_abc.json").read_text())
    policy = load_policy((data_dir / "policy_distance.json").read_text(), domain)
    assert policy.describe() == "distance(theta=1)|cardinality"
    closed = closed_form_sensitivity(CumulativeQuery(), policy)
    oracle = brute_force_sensitivity(CumulativeQuery(), policy, n=1)
    assert closed.value == oracle.value == 6

    common = ["--domain", str(data_dir / "domain_abc.json"), "--data", str(data_dir / "rows_abc.csv"),
              "--theta", "1", "--epsilon", "0.5", "--seed", "3"]
    cdf_out, range_out = tmp_path / "cdf.json", tmp_path / "range.json"
    assert cli_main(["release", "cdf", *common, "--out", str(cdf_out)]) == 0
    assert cli_main(["release", "range", *common, "--fanout", "2", "--out", str(range_out)]) == 0
    cdf = json.loads(cdf_out.read_text())
    tree = json.loads(range_out.read_text())
    assert cdf["policy"] == tree["policy"] == "distance(theta=1)|cardinality"
    # one protected change moves a tuple 6 ranks, and both releases are the
    # library's at rank theta 6, not at the flag's 1
    rank_theta = int(oracle.value)
    assert cdf["theta"] == tree["theta"] == rank_theta
    counts = histogram(ingest_dataset((data_dir / "rows_abc.csv").read_text(), domain))
    expected_cdf = ordered_mechanism(counts, rank_theta, PrivacyParams(0.5, 3)).to_dict()
    assert cdf["values"] == expected_cdf["values"]
    split = optimal_budget_split(domain.size, rank_theta, 2, 0.5)
    expected_tree = build_oh_release(counts, rank_theta, 2, split.eps_s, split.eps_h, 3).to_dict()
    assert tree["nodes"] == expected_tree["nodes"]
    under = ordered_mechanism(counts, 1, PrivacyParams(0.5, 3)).to_dict()
    assert cdf["values"] != under["values"]
    _report(11, f"abc theta=1: cdf and range calibrated to {cdf['theta']} == closed form == oracle (n=1)")
