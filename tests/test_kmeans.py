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
from blowfish.kmeans import _assign
from oracles import (
    assign_by_matrix,
    kmeans_nonprivate_by_loop,
    kmeans_objective_by_loop,
    kmeans_private_by_loop,
    sq_distances_by_loop,
)


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


def _assert_same_release(got, want):
    assert np.array_equal(got.centroids, want.centroids)
    assert got.objective == want.objective
    assert got.trace == want.trace
    assert (got.ledger is None) == (want.ledger is None)
    if want.ledger is not None:
        assert got.ledger.charges == want.ledger.charges


def _discrete_policy(dims: int) -> Policy:
    dom = load_domain({"attributes": [{"name": f"a{j}", "values": ["0", "1", "2"]} for j in range(dims)]})
    return Policy(dom, SecretGraph.full(dom), ConstraintSet.none())


def _kernel_cases(dims: int):
    """(points, config, policy) triples covering k = 1, empty clusters, n == k,
    every clustering policy kind and an unconstrained discrete policy."""
    box = ClusteringPolicy(unit_bounds(dims), "full")
    pts = synth_clusters(400, dims, 3, 0.15, seed=dims)
    far = tuple((0.25,) * dims if c == 0 else (0.75,) * dims if c == 1 else (50.0 + c,) * dims for c in range(5))
    cases = [
        (pts, KmeansConfig(k=1, iterations=3), box),
        (pts, KmeansConfig(k=5, iterations=4, init=far), box),
        (pts[:4], KmeansConfig(k=4, iterations=3), box),
        (pts[:7], KmeansConfig(k=7, iterations=2, split=0.3), box),
    ]
    for kind in ("full", "distance", "attribute"):
        policy = ClusteringPolicy(unit_bounds(dims), kind, theta=0.3)
        cases.append((pts, KmeansConfig(k=4, iterations=5), policy))
    grid = np.random.default_rng(dims).integers(0, 3, size=(300, dims)).astype(float)
    cases.append((grid, KmeansConfig(k=3, iterations=4), _discrete_policy(dims)))
    return cases


@pytest.mark.parametrize("dims", [2, 3, 4, 7])
def test_kernel_bit_identical_to_loop(dims):
    # for 2 <= d <= 7 the column kernel adds every distance and every cluster
    # sum in the loop's order, so each released float is the same
    for i, (pts, cfg, policy) in enumerate(_kernel_cases(dims)):
        seed = 100 * dims + i
        for zero_noise in (False, True):
            pp = PrivacyParams(3.0, seed)
            _assert_same_release(
                kmeans_private(pts, cfg, policy, pp, zero_noise=zero_noise),
                kmeans_private_by_loop(pts, cfg, policy, pp, zero_noise=zero_noise),
            )
        bounds = policy.bounds if isinstance(policy, ClusteringPolicy) else None
        for b in (bounds, None):
            _assert_same_release(
                kmeans_nonprivate(pts, cfg, seed=seed, bounds=b),
                kmeans_nonprivate_by_loop(pts, cfg, seed=seed, bounds=b),
            )
        cents = np.random.default_rng(seed).random((cfg.k, dims))
        assert kmeans_objective(pts, cents) == kmeans_objective_by_loop(pts, cents)


def test_kernel_keeps_empty_clusters_in_place():
    pts = synth_clusters(200, 2, 2, 0.1, seed=4)
    init = ((0.2, 0.2), (0.8, 0.8), (40.0, 40.0))
    res = kmeans_nonprivate(pts, KmeansConfig(k=3, iterations=3, init=init), seed=0)
    assert res.centroids[2].tolist() == [40.0, 40.0]
    # the private variant divides an empty cluster's noisy sum by max(noisy size, 1)
    box = ClusteringPolicy(unit_bounds(2), "full")
    priv = kmeans_private(pts, KmeansConfig(k=3, iterations=3, init=init), box, PrivacyParams(1.0, 4))
    assert ((priv.centroids >= 0) & (priv.centroids <= 1)).all()


@pytest.mark.parametrize("dims", [1, 9])
def test_kernel_close_to_loop_outside_bit_identical_dims(dims):
    # numpy sums d = 1 cluster sums and d >= 8 distance rows pairwise, so only
    # the last bits may differ from the loop
    pts = synth_clusters(500, dims, 4, 0.15, seed=dims)
    cfg = KmeansConfig(k=4, iterations=6)
    box = ClusteringPolicy(unit_bounds(dims), "distance", theta=0.5)
    pp = PrivacyParams(5.0, 3)
    pairs = [
        (kmeans_private(pts, cfg, box, pp), kmeans_private_by_loop(pts, cfg, box, pp)),
        (kmeans_nonprivate(pts, cfg, seed=3), kmeans_nonprivate_by_loop(pts, cfg, seed=3)),
    ]
    for got, want in pairs:
        assert np.allclose(got.centroids, want.centroids, rtol=1e-12, atol=0)
        assert np.array_equal(
            sq_distances_by_loop(pts, got.centroids).argmin(axis=1),
            sq_distances_by_loop(pts, want.centroids).argmin(axis=1),
        )
        assert got.trace == pytest.approx(want.trace, rel=1e-12)


@pytest.mark.parametrize("points", [[], np.zeros((0, 2)), np.zeros(0), [0.5, 0.25], np.zeros((2, 2, 2))])
def test_empty_or_misshapen_points_rejected(points):
    cfg = KmeansConfig(k=2, iterations=2, init=((0.0, 0.0), (1.0, 1.0)))
    policy = ClusteringPolicy(unit_bounds(2), "full")
    message = "no data points|points must be a 2-D array"
    with pytest.raises(ValueError, match=message):
        kmeans_private(points, cfg, policy, PrivacyParams(1.0, 1))
    with pytest.raises(ValueError, match=message):
        kmeans_nonprivate(points, cfg, seed=1, bounds=unit_bounds(2))
    with pytest.raises(ValueError, match=message):
        kmeans_objective(points, [[0.0, 0.0]])


def test_centroid_dimension_mismatch_rejected():
    pts = np.full((4, 2), 0.5)
    with pytest.raises(ValueError, match="different dimensions"):
        kmeans_objective(pts, [[0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="different dimensions"):
        kmeans_nonprivate(pts, KmeansConfig(k=1, iterations=1, init=((0.5, 0.5, 0.5),)), seed=0)
    with pytest.raises(ValueError, match="different dimensions"):
        kmeans_nonprivate(pts, KmeansConfig(k=1, iterations=1, init=((0.5,),)), seed=0)


def _assignment_cases(d: int, k: int):
    """(points, centroids) pairs: uniform points; integer grids, whose
    distances tie exactly; centroids mirrored about x0 = 1 with points on
    that plane; duplicate centroids; +-inf points; a NaN point; a NaN
    centroid after finite ones."""
    rng = np.random.default_rng(100 * d + k)
    pts = rng.random((400, d))
    cents = rng.random((k, d))
    grid = rng.integers(0, 4, size=(300, d)).astype(float)
    gcents = rng.integers(0, 4, size=(k, d)).astype(float)
    mirrored = np.floor(cents * 8) / 4
    mirrored[1::2] = mirrored[: k // 2]
    mirrored[1::2, 0] = 2.0 - mirrored[1::2, 0]
    plane = pts.copy()
    plane[:, 0] = 1.0
    dup = np.repeat(cents[:2], [1, k - 1], axis=0) if k > 1 else cents
    infs = pts.copy()
    infs[::7, 0] = np.inf
    infs[3::7, d - 1] = -np.inf
    nan_pt = grid.copy()
    nan_pt[5, d - 1] = np.nan
    nan_cent = gcents.copy()
    nan_cent[k - 1, 0] = np.nan
    return [
        (pts, cents), (grid, gcents), (plane, mirrored), (grid, dup),
        (infs, cents), (nan_pt, gcents), (grid, nan_cent), (nan_pt, nan_cent),
    ]


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("d", [1, 2, 4, 7, 8, 9, 12])
def test_assign_matches_distance_matrix_argmin(d, k):
    ties = 0
    for pts, cents in _assignment_cases(d, k):
        cols = np.ascontiguousarray(pts.T)
        got, objective = _assign(cols, cents)
        want, want_objective = assign_by_matrix(cols, cents)
        assert np.array_equal(got, want)
        if np.isnan(want_objective):
            assert np.isnan(objective)
        else:
            assert np.float64(objective).view(np.uint64) == np.float64(want_objective).view(np.uint64)
        d2 = np.stack([((pts - c) ** 2).sum(axis=1) for c in cents])
        ties += int(((d2 == d2.min(axis=0)).sum(axis=0) > 1).sum())
    assert ties > 0 if k > 1 else ties == 0


def test_assign_needs_a_centroid():
    with pytest.raises(ValueError, match="at least one centroid"):
        kmeans_objective(np.zeros((3, 2)), np.zeros((0, 2)))
