import numpy as np
import pytest

from blowfish import (
    random_range_workload,
    run_experiment,
    synth_clusters,
    synth_histogram,
)
from blowfish.experiments import trial_seed
from blowfish.mechanisms import PrivacyParams, laplace_mechanism

from oracles import range_workload_by_loop


def test_mse_laplace_analytic():
    b = 1.3
    ests = np.concatenate([laplace_mechanism([0.0], b, PrivacyParams(1.0, s)) for s in range(100_000)])
    assert (ests**2).mean() == pytest.approx(2 * b * b, rel=0.05)


def test_workload_reproducible_and_valid():
    a = random_range_workload(50, 500, seed=4)
    b = random_range_workload(50, 500, seed=4)
    assert a == b
    assert all(1 <= i <= j <= 50 for i, j in a.queries)
    assert random_range_workload(10, 0, seed=1).queries == ()


@pytest.mark.parametrize("size", [1, 2, 33, 4096])
def test_workload_matches_loop_unranking(size):
    for seed in (0, 4):
        wl = random_range_workload(size, 3000, seed=seed)
        assert wl == range_workload_by_loop(size, 3000, seed)
        assert all(type(i) is int and type(j) is int for i, j in wl.queries)


def test_workload_uniform_over_pairs():
    # every (i, j) pair should appear with roughly equal frequency
    size, count = 6, 42_000
    wl = random_range_workload(size, count, seed=9)
    freq = {}
    for q in wl.queries:
        freq[q] = freq.get(q, 0) + 1
    n_pairs = size * (size + 1) // 2
    expected = count / n_pairs
    assert len(freq) == n_pairs
    assert max(abs(v - expected) for v in freq.values()) < 5 * np.sqrt(expected)


def test_synth_clusters():
    pts = synth_clusters(1000, 4, 4, 0.2, seed=0)
    assert pts.shape == (1000, 4)
    assert (pts >= 0).all() and (pts <= 1).all()
    assert np.array_equal(pts, synth_clusters(1000, 4, 4, 0.2, seed=0))
    tight = synth_clusters(50, 2, 5, 0.0, seed=1)
    assert len(np.unique(tight, axis=0)) <= 5


def test_synth_histograms():
    for kind in ("uniform", "zipf", "sparse"):
        counts = synth_histogram(kind, 100, 5000, seed=2)
        assert counts.sum() == 5000
        assert counts.shape == (100,)
    sparse = synth_histogram("sparse", 200, 5000, seed=3, zero_frac=0.9)
    assert (sparse == 0).sum() >= 170
    with pytest.raises(ValueError):
        synth_histogram("banana", 10, 10, seed=0)


def test_trial_seeds_stable_and_distinct():
    s1 = trial_seed(7, "range-mse", 0, 0)
    assert s1 == trial_seed(7, "range-mse", 0, 0)
    others = {trial_seed(7, "range-mse", r, t) for r in range(4) for t in range(10)}
    assert len(others) == 40
    assert trial_seed(7, "cdf-release", 0, 0) != s1


def test_run_experiment_deterministic_csv():
    config = {
        "experiment": "range-mse",
        "seed": 11,
        "domain_size": 64,
        "data": {"kind": "zipf", "n": 2000},
        "trials": 3,
        "queries": 200,
        "fanout": 4,
        "thetas": [1, 8],
        "epsilons": [0.5],
    }
    a = run_experiment(config).to_csv_string()
    b = run_experiment(dict(config)).to_csv_string()
    assert a == b
    assert a.splitlines()[0] == "experiment,mechanism,policy,epsilon,theta,fanout,metric,mean,q1,q3"


def test_run_experiment_unknown_name():
    with pytest.raises(ValueError):
        run_experiment({"experiment": "nope"})


@pytest.mark.parametrize(
    "config, field",
    [
        ({"experiment": "range-mse", "epsilons": 3}, "'epsilons' must be a list of numbers"),
        ({"experiment": "range-mse", "thetas": 3}, "'thetas' must be a list of integers or \"full\""),
        ({"experiment": "cdf-release", "thetas": [1.5, "x"]}, "'thetas' must be a list of integers"),
        ({"experiment": "cdf-release", "epsilons": [[1]]}, "'epsilons' must be a list of numbers"),
        ({"experiment": "range-mse", "fanout": [2]}, "'fanout' must be an integer"),
        ({"experiment": "cdf-release", "seed": [1]}, "'seed' must be an integer"),
        ({"experiment": "cdf-release", "trials": 1e400}, "'trials' must be an integer"),
        ({"experiment": "kmeans-ratio", "policies": [{"theta": [1]}]}, "policy 'theta' must be a number"),
        ({"experiment": "cdf-release", "data": {"n": [1]}}, "'data' field 'n' must be an integer"),
        ({"experiment": "cdf-release", "data": {"kind": 3}}, "'data' field 'kind' must be a string"),
        ({"experiment": "range-mse", "domain_size": 0}, "'domain_size' must be at least 1"),
        ({"experiment": "cdf-release", "domain_size": -2}, "'domain_size' must be at least 1"),
        (
            {"experiment": "sensitivity-table", "domain": {"attributes": [{"name": "a", "values": ["0"]}]},
             "entries": [{"query": "nope", "policy": {}}]},
            "unknown sensitivity-table query 'nope'; known: histogram, cumulative, cluster-size, cluster-sum",
        ),
        (
            {"experiment": "kmeans-ratio", "policies": [{"kind": "distance", "theta": float("nan")}]},
            "kmeans-ratio policy 'theta' must be finite, got nan",
        ),
        ({"experiment": "cdf-release", "data": {"zipf_s": float("nan")}}, "'data' field 'zipf_s' must be finite"),
        ({"experiment": "range-mse", "epsilons": [1.0, float("inf")]}, "'epsilons' must be finite"),
        ({"experiment": "kmeans-ratio", "sigma": "-inf"}, "'sigma' must be a number, got '-inf'"),
        ({"experiment": "sensitivity-table", "entries": []}, "experiment 'domain' must be an object, got None"),
        (
            {"experiment": "sensitivity-table", "domain": {"attributes": [{"name": "a", "values": ["0"]}]},
             "entries": [{"query": "histogram"}]},
            "sensitivity-table entry 'policy' must be an object, got None",
        ),
        ({"experiment": "cdf-release", "trials": 1.9}, "experiment 'trials' must be an integer, got 1.9"),
        ({"experiment": "cdf-release", "trials": True}, "experiment 'trials' must be an integer, got True"),
        ({"experiment": "cdf-release", "trials": "2"}, "experiment 'trials' must be an integer, got '2'"),
        (
            {"experiment": "range-mse", "thetas": [1, 1.7]},
            "experiment 'thetas' must be a list of integers or \"full\", got 1.7 at index 1",
        ),
        ({"experiment": "cdf-release", "seed": 2.5}, "experiment 'seed' must be an integer, got 2.5"),
        (
            {"experiment": "cdf-release", "epsilons": ["0.5"]},
            "experiment 'epsilons' must be a list of numbers, got '0.5' at index 0",
        ),
        ({"experiment": "cdf-release", "data": {"n": 100.9}}, "'data' field 'n' must be an integer, got 100.9"),
        ({"experiment": "range-mse", "baseline": "no"}, "experiment 'baseline' must be a boolean, got 'no'"),
        (
            {"experiment": "kmeans-ratio", "policies": [{"kind": "full", "theta": 0.5}]},
            "kmeans-ratio policy 0: theta must be a distance graph's non-negative threshold, got 0.5",
        ),
        (
            {"experiment": "kmeans-ratio", "policies": [{"kind": "ful"}]},
            "kmeans-ratio policy 0: unknown clustering policy kind 'ful'",
        ),
        (
            {"experiment": "kmeans-ratio", "policies": [{"kind": "full"}, {"kind": "distance", "theta": -1}]},
            "kmeans-ratio policy 1: theta must be non-negative, got -1.0",
        ),
        ({"experiment": "cdf-release", "data": {"n": -5}}, "experiment 'data' field 'n' must be at least 0, got -5"),
        ({"experiment": "kmeans-ratio", "sigma": -0.1}, "experiment 'sigma' must be at least 0, got -0.1"),
        (
            {"experiment": "cdf-release", "data": {"kind": "sparse", "zero_frac": -0.5}},
            "experiment 'data' field 'zero_frac' must be in [0, 1], got -0.5",
        ),
        (
            {"experiment": "cdf-release", "data": {"kind": "sparse", "zero_frac": 1.5}},
            "experiment 'data' field 'zero_frac' must be in [0, 1], got 1.5",
        ),
        ({"experiment": "kmeans-ratio", "n": -5}, "experiment 'n' must be at least 1, got -5"),
        ({"experiment": "kmeans-ratio", "dims": 0}, "experiment 'dims' must be at least 1, got 0"),
        ({"experiment": "kmeans-ratio", "k": 0}, "experiment 'k' must be at least 1, got 0"),
        ({"experiment": "kmeans-ratio", "iterations": 0}, "experiment 'iterations' must be at least 1, got 0"),
        (
            {"experiment": "sensitivity-table", "domain": {"attributes": [{"name": "a", "values": ["0"]}]}, "k": 0},
            "experiment 'k' must be at least 1, got 0",
        ),
        ({"experiment": "range-mse", "fanout": 1}, "experiment 'fanout' must be at least 2, got 1"),
        (
            {"experiment": "range-mse", "domain_size": 20, "thetas": [0]},
            "experiment 'thetas' must be in [1, 20], got 0 at index 0",
        ),
        (
            {"experiment": "range-mse", "domain_size": 20, "thetas": ["full", 30]},
            "experiment 'thetas' must be in [1, 20], got 30 at index 1",
        ),
        ({"experiment": "cdf-release", "thetas": [0]}, "experiment 'thetas' must be at least 1, got 0 at index 0"),
        ({"experiment": "range-mse", "epsilons": [0]}, "experiment 'epsilons' must be positive, got 0 at index 0"),
        (
            {"experiment": "cdf-release", "epsilons": [1.0, -0.5]},
            "experiment 'epsilons' must be positive, got -0.5 at index 1",
        ),
        ({"experiment": "kmeans-ratio", "epsilons": [0.0]}, "experiment 'epsilons' must be positive, got 0.0 at index 0"),
        (
            {"experiment": "cdf-release", "data": {"kind": "bogus"}},
            "experiment 'data' field 'kind' must be one of uniform, zipf, sparse, got 'bogus'",
        ),
    ],
)
def test_config_errors_name_the_field(config, field):
    with pytest.raises(ValueError) as exc:
        run_experiment(config)
    assert field in str(exc.value)


def test_config_bounds_admit_their_edges():
    # each bound's own edge, and a cdf-release theta past the domain size, run
    range_mse = {
        "experiment": "range-mse", "domain_size": 20, "trials": 1, "queries": 10, "fanout": 2,
        "thetas": [1, 20, "full"], "epsilons": [1e-3], "baseline": False,
    }
    assert [r.theta for r in run_experiment(range_mse).rows] == [1, 20, 20]
    cdf = {"experiment": "cdf-release", "domain_size": 20, "trials": 1, "thetas": [1, 30], "epsilons": [1e-3]}
    assert [r.theta for r in run_experiment(cdf).rows] == [1, 30]


def test_range_mse_trends():
    size = 1024
    config = {
        "experiment": "range-mse",
        "seed": 5,
        "domain_size": size,
        "data": {"kind": "uniform", "n": 50_000},
        "trials": 4,
        "queries": 800,
        "fanout": 16,
        "thetas": [1, 32, "full"],
        "epsilons": [0.5],
        "baseline": True,
    }
    report = run_experiment(config)
    by_theta = {r.theta: r.mean for r in report.rows if r.mechanism == "ordered-hierarchical"}
    baseline = next(r.mean for r in report.rows if r.mechanism == "hierarchical")
    eps = 0.5
    # pure ordered release meets the distance-1 error bound
    assert by_theta[1] <= 1.1 * 4 / eps**2
    # and beats the hierarchical baseline by an order of magnitude
    assert by_theta[1] < baseline / 10
    # error grows (weakly) as the protected distance grows
    assert by_theta[1] <= by_theta[32] <= by_theta[size]


def test_cdf_release_rows():
    config = {
        "experiment": "cdf-release",
        "seed": 6,
        "domain_size": 50,
        "data": {"kind": "sparse", "n": 1000},
        "trials": 4,
        "thetas": [1, 4],
        "epsilons": [1.0],
    }
    report = run_experiment(config)
    assert len(report.rows) == 2
    assert all(r.metric == "cdf_mse" and r.mean > 0 for r in report.rows)


def test_kmeans_ratio_rows():
    config = {
        "experiment": "kmeans-ratio",
        "seed": 7,
        "n": 200,
        "dims": 2,
        "k": 2,
        "sigma": 0.2,
        "trials": 4,
        "iterations": 3,
        "epsilons": [0.5],
        "policies": [{"kind": "full"}, {"kind": "distance", "theta": 0.25}],
    }
    report = run_experiment(config)
    metrics = {(r.policy, r.metric) for r in report.rows}
    assert ("full", "objective_ratio") in metrics
    assert ("distance(theta=0.25)", "objective_ratio_median") in metrics
    assert all(r.mean >= 0 for r in report.rows)


def test_sensitivity_table_rows():
    config = {
        "experiment": "sensitivity-table",
        "seed": 0,
        "domain": {
            "attributes": [
                {"name": "a", "values": ["0", "1"]},
                {"name": "b", "values": ["0", "1"]},
            ]
        },
        "entries": [
            {"query": "histogram", "policy": {"graph": {"kind": "full"}}},
            {
                "query": "histogram",
                "policy": {
                    "graph": {"kind": "full"},
                    "constraints": {
                        "kind": "general",
                        "queries": [
                            {"where": {"a": ["0"]}, "answer": 1},
                            {"where": {"a": ["1"]}, "answer": 1},
                        ],
                    },
                },
            },
        ],
    }
    report = run_experiment(config)
    assert report.rows[0].mean == 2.0
    assert report.rows[0].mechanism == "ClosedForm"
    assert report.rows[1].mean == 4.0
    assert report.rows[1].mechanism == "SparseEngine"
