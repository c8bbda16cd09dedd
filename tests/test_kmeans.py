import numpy as np
import pytest

from blowfish import (
    ClusteringPolicy,
    ConstraintSet,
    KmeansConfig,
    Policy,
    PrivacyParams,
    SecretGraph,
    compose_budgets,
    kmeans_nonprivate,
    kmeans_objective,
    kmeans_private,
    load_domain,
)
from blowfish.experiments import synth_clusters


def unit_bounds(dims):
    return tuple((0.0, 1.0) for _ in range(dims))


def test_objective_examples():
    assert kmeans_objective([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
    assert kmeans_objective([[0.0], [2.0]], [[1.0]]) == 2.0
    pts = np.random.default_rng(0).random((30, 3))
    cents = np.random.default_rng(1).random((4, 3))
    assert kmeans_objective(pts, cents) == pytest.approx(kmeans_objective(pts, cents[::-1]))


def test_nonprivate_two_blobs():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [0.9, 1.0]])
    cfg = KmeansConfig(k=2, iterations=3, init=((0.05, 0.0), (0.95, 1.0)))
    res = kmeans_nonprivate(pts, cfg, seed=0)
    got = sorted(map(tuple, res.centroids))
    assert np.allclose(got, [(0.05, 0.0), (0.95, 1.0)])


def test_nonprivate_k1_mean():
    pts = np.array([[0.0, 2.0], [4.0, 6.0]])
    cfg = KmeansConfig(k=1, iterations=1, init=((0.0, 0.0),))
    res = kmeans_nonprivate(pts, cfg, seed=0)
    assert np.allclose(res.centroids, [[2.0, 4.0]])


def test_nonprivate_trace_non_increasing():
    pts = synth_clusters(200, 3, 3, 0.15, seed=5)
    res = kmeans_nonprivate(pts, KmeansConfig(k=3, iterations=8), seed=5, bounds=unit_bounds(3))
    assert all(b <= a + 1e-9 for a, b in zip(res.trace, res.trace[1:]))


def test_clustering_policy_sensitivities():
    bounds = unit_bounds(4)
    assert ClusteringPolicy(bounds, "full").qsum_sensitivity(4) == pytest.approx(8.0)
    assert ClusteringPolicy(bounds, "distance", theta=0.25).qsum_sensitivity(4) == pytest.approx(0.5)
    assert ClusteringPolicy(bounds, "attribute").qsum_sensitivity(4) == pytest.approx(2.0)


def test_discrete_policy_accepted():
    dom = load_domain(
        {"attributes": [{"name": "a", "values": ["0", "1", "2"]}, {"name": "b", "values": ["0", "1"]}]}
    )
    pol = Policy(dom, SecretGraph.distance(dom, 1), ConstraintSet.none())
    pts = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
    cfg = KmeansConfig(k=2, iterations=2)
    res = kmeans_private(pts, cfg, pol, PrivacyParams(1.0, 4))
    assert res.centroids.shape == (2, 2)
    assert (res.centroids >= 0).all() and (res.centroids[:, 0] <= 2).all()


def test_private_zero_noise_matches_nonprivate():
    pts = synth_clusters(300, 2, 3, 0.1, seed=9)
    cfg = KmeansConfig(k=3, iterations=6)
    bounds = unit_bounds(2)
    policy = ClusteringPolicy(bounds, "full")
    base = kmeans_nonprivate(pts, cfg, seed=9, bounds=bounds)
    priv = kmeans_private(pts, cfg, policy, PrivacyParams(1.0, 9), zero_noise=True)
    assert np.allclose(priv.centroids, base.centroids)
    assert priv.trace == base.trace


def test_private_budget_ledger():
    pts = synth_clusters(100, 2, 2, 0.2, seed=3)
    cfg = KmeansConfig(k=2, iterations=10, split=0.5)
    policy = ClusteringPolicy(unit_bounds(2), "distance", theta=0.25)
    pp = PrivacyParams(0.2, 3)
    res = kmeans_private(pts, cfg, policy, pp)
    assert res.ledger is not None
    assert compose_budgets(res.ledger) == pytest.approx(pp.epsilon, rel=1e-9)
    charges = res.ledger.charges
    assert len(charges) == 2 * cfg.iterations
    eps_size = pp.epsilon * cfg.split / cfg.iterations
    assert all(c.epsilon == pytest.approx(eps_size) for c in charges[0::2])
    # size noise scale implied by the per-iteration charge
    assert 2.0 / eps_size == pytest.approx(2 * cfg.iterations / (cfg.split * pp.epsilon))


def test_private_huge_epsilon_tracks_nonprivate():
    pts = synth_clusters(500, 4, 4, 0.2, seed=21)
    cfg = KmeansConfig(k=4, iterations=10)
    bounds = unit_bounds(4)
    base = kmeans_nonprivate(pts, cfg, seed=21, bounds=bounds)
    priv = kmeans_private(pts, cfg, ClusteringPolicy(bounds, "full"), PrivacyParams(1e6, 21))
    assert np.abs(priv.centroids - base.centroids).max() < 1e-3


def test_private_reproducible():
    pts = synth_clusters(200, 3, 3, 0.2, seed=8)
    cfg = KmeansConfig(k=3, iterations=5)
    policy = ClusteringPolicy(unit_bounds(3), "distance", theta=0.5)
    a = kmeans_private(pts, cfg, policy, PrivacyParams(0.5, 8))
    b = kmeans_private(pts, cfg, policy, PrivacyParams(0.5, 8))
    assert np.array_equal(a.centroids, b.centroids)
    assert a.trace == b.trace


def test_config_validation():
    with pytest.raises(ValueError):
        KmeansConfig(k=0)
    with pytest.raises(ValueError):
        KmeansConfig(k=2, iterations=0)
    with pytest.raises(ValueError):
        KmeansConfig(k=2, split=1.0)
    with pytest.raises(ValueError):
        kmeans_nonprivate(np.zeros((1, 2)), KmeansConfig(k=2), seed=0, bounds=unit_bounds(2))


@pytest.mark.parametrize(
    "bad,row",
    [((1000.0, 1000.0), 3), ((0.5, -0.01), 2), ((1.0 + 1e-9, 0.5), 4), ((np.nan, 0.5), 1), ((0.5, np.inf), 2)],
)
def test_private_rejects_points_outside_bounds(bad, row):
    # the sum sensitivity is the bounds box's diameter: a point outside it
    # would move the released sums further than the noise was calibrated for
    pts = np.full((5, 2), 0.5)
    pts[-1] = (1.0, 0.0)  # the box's own corners are inside
    pts[row - 1] = bad
    cfg, pp = KmeansConfig(k=2, iterations=2), PrivacyParams(1.0, 4)
    for kind in ("full", "distance", "attribute"):
        policy = ClusteringPolicy(unit_bounds(2), kind, theta=0.25)
        with pytest.raises(ValueError, match=f"point on row {row} "):
            kmeans_private(pts, cfg, policy, pp)
        kmeans_private(np.delete(pts, row - 1, axis=0), cfg, policy, pp)
    # an unbounded box still has a finite distance-threshold sensitivity
    unbounded = ClusteringPolicy(((-np.inf, np.inf),) * 2, "distance", theta=0.25)
    if not np.isfinite(bad).all():
        with pytest.raises(ValueError, match=f"point on row {row} "):
            kmeans_private(pts, cfg, unbounded, pp)


def test_private_rejects_points_outside_discrete_domain():
    dom = load_domain({"attributes": [{"name": "a", "values": ["0", "1", "2"]}]})
    pol = Policy(dom, SecretGraph.distance(dom, 1), ConstraintSet.none())
    pts = np.array([[0.0], [2.0], [3.0], [-1.0]])
    with pytest.raises(ValueError, match="point on row 3 "):
        kmeans_private(pts, KmeansConfig(k=2, iterations=2), pol, PrivacyParams(1.0, 4))
