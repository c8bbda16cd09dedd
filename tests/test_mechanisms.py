import json
import math
import warnings

import numpy as np
import pytest

from blowfish import (
    BudgetLedger,
    InfiniteSensitivityError,
    PrivacyParams,
    build_oh_release,
    compose_budgets,
    hierarchical_release,
    isotonic_inference,
    laplace_mechanism,
    oh_range_answers,
    oh_range_query,
    optimal_budget_split,
    ordered_mechanism,
)
from blowfish import ClusteringPolicy, KmeansConfig, kmeans, kmeans_private, mechanisms
from blowfish.experiments import random_range_workload, trial_seed
from blowfish.mechanisms import TREE_STREAM, add_noise, oh_error_model, stream_generator

from oracles import (
    isotonic_by_enumeration,
    isotonic_by_loop,
    laplace_by_inverse_cdf,
    oh_cumulative_by_walk,
    oh_height_by_powers,
    philox_stream,
    sample_laplace,
)


# -- laplace primitive ---------------------------------------------------------


def _noise(seed: int, index: int, scales) -> np.ndarray:
    """``add_noise`` on zeros: the draws alone, as ``0.0 + x`` is ``x``."""
    return add_noise(np.zeros(np.shape(scales)), seed, index, scales)


def test_sample_laplace_variance():
    b = 1.7
    draws = _noise(10, 0, np.full(1_000_000, b))
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() / (2 * b * b) - 1) < 0.02


def test_sample_laplace_edge_cases():
    rng = np.random.default_rng(0)
    assert sample_laplace(0.0, rng) == 0.0
    assert _noise(0, 0, [0.0, 0.0]).tolist() == [0.0, 0.0]
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sample_laplace(bad, rng)
        with pytest.raises(ValueError, match="scale must be finite and non-negative"):
            _noise(0, 0, [1.0, bad])


def test_sample_laplace_deterministic_given_stream():
    a = sample_laplace(2.0, philox_stream(42, 5))
    b = sample_laplace(2.0, philox_stream(42, 5))
    assert a == b
    assert _noise(42, 5, [2.0]).tolist() == [a]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _in_a_row(seed: int, index: int, scales) -> list[float]:
    """The oracle's draws for ``scales``: draw i of stream ``index`` to scale i."""
    rng = philox_stream(seed, index)
    return [sample_laplace(s, rng) for s in scales]


LAPLACE_EDGE_UNIFORMS = [0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]
KERNEL_SEEDS = [0, 1, 2**63 - 1, 2**64 + 1, trial_seed(5, "range-mse", 3, 1)]
KERNEL_INDICES = [0, 1, TREE_STREAM, 2**64 - 1]


def test_laplace_kernel_bit_identical_to_scalar_transform():
    u = np.concatenate([np.random.default_rng(11).random(1_000_000), LAPLACE_EDGE_UNIFORMS])
    scales = np.resize([1.7, 2.0**-30, 0.0, 3e5, 1.0], u.size)
    want = [laplace_by_inverse_cdf(b, x) for b, x in zip(scales.tolist(), u.tolist())]
    assert np.array_equal(_bits(mechanisms._laplace(scales, u)), _bits(want))
    edges = np.array(LAPLACE_EDGE_UNIFORMS)
    for scale in (1.0, 0.5, 3e5):
        want = [laplace_by_inverse_cdf(scale, x) for x in edges.tolist()]
        assert np.array_equal(_bits(mechanisms._laplace(scale, edges)), _bits(want))
    # u = 0 is clamped to the smallest subnormal, not log(0)
    assert mechanisms._laplace(1.0, np.zeros(1))[0] == math.log(5e-324)


def test_add_noise_mixed_scales_bit_identical_with_positive_zeros():
    scales = [0.0, 1.5, 0.0, 2.0**-40, 7.0, 0.0, 1e6] * 3
    for index in KERNEL_INDICES:
        got = _noise(4, index, scales)
        assert np.array_equal(_bits(got), _bits(_in_a_row(4, index, scales)))
        zero = np.array(scales) == 0
        assert not np.signbit(got[zero]).any() and (got[zero] == 0).all()
        assert (got[~zero] != 0).all()
        # noise comes shaped like the values, drawn in C order
        shaped = _noise(4, index, np.reshape(scales, (3, 7)))
        assert shaped.shape == (3, 7) and np.array_equal(_bits(shaped.ravel()), _bits(got))
        # the draws are added to the values
        values = np.arange(len(scales)) - 3.5
        assert np.array_equal(_bits(add_noise(values, 4, index, scales)), _bits(values + got))


def test_add_noise_takes_one_scale_or_one_per_value():
    values = np.arange(12.0).reshape(3, 4)
    one = add_noise(values, 6, 2, 1.5)
    assert np.array_equal(_bits(one), _bits(add_noise(values, 6, 2, np.full((3, 4), 1.5))))
    for bad in (np.ones(4), np.ones((4, 3)), np.ones(12)):
        with pytest.raises(ValueError, match=r"^scale must be one number or shaped like the values \(3, 4\)"):
            add_noise(values, 6, 2, bad)
    with pytest.raises(ValueError, match="^scale must be finite and non-negative, got -1.0$"):
        add_noise(values, 6, 2, -1.0)


def test_laplace_huge_scale_overflows_to_inf_silently():
    u = np.array(LAPLACE_EDGE_UNIFORMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mechanisms._laplace(1e308, u)
        nodes = _noise(0, 0, [1e308])
    assert np.array_equal(_bits(got), _bits([laplace_by_inverse_cdf(1e308, x) for x in u.tolist()]))
    assert got[0] == -math.inf and got[-1] == math.inf and got[3] == 0.0
    assert nodes.tolist() == _in_a_row(0, 0, [1e308])


# -- the one noise kernel ------------------------------------------------------


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_philox_kernel_matches_numpy_streams(seed):
    scales = np.resize([1.0, 0.0, 2.5, 1e308, 2.0**-40, 7.0, 0.0], 300)
    for index in KERNEL_INDICES:
        got = _noise(seed, index, scales)
        assert np.array_equal(_bits(got), _bits(_in_a_row(seed, index, scales.tolist())))


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_stream_generator_matches_jumped_streams(seed):
    for index in KERNEL_INDICES + [2, 3, 2 * 4096 + 1]:
        want = philox_stream(seed, index)
        got = stream_generator(seed, index)
        assert got.random(9).tolist() == want.random(9).tolist()
        assert got.integers(0, 2**63, size=5).tolist() == want.integers(0, 2**63, size=5).tolist()
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="stream indices"):
            stream_generator(seed, bad)


def test_node_and_stream_noise_match_per_stream_sampling():
    # every value of a release takes the next draw of its mechanism's stream
    zeros = np.zeros(40, dtype=int)
    released = ordered_mechanism(zeros, 2, PrivacyParams(0.5, 9))
    assert released.noisy.tolist() == _in_a_row(9, TREE_STREAM, [4.0] * 40)
    tree = build_oh_release(zeros, 4, 2, 0.3, 0.7, seed=9)
    assert tree.value.tolist() == _in_a_row(9, TREE_STREAM, tree.scale.tolist())
    noisy = laplace_mechanism(np.zeros((4, 5)), 1.5, PrivacyParams(1.0, 9))
    assert noisy.ravel().tolist() == _in_a_row(9, 0, [1.5] * 20)


def test_mechanisms_draw_from_separate_streams(monkeypatch):
    """Under one seed the histogram, k-means and prefix/tree releases read
    disjoint streams, whose uniforms differ."""
    seed, used, streams = 5, [], {}

    def recording(seed, index):
        used.append(index)
        return stream_generator(seed, index)

    monkeypatch.setattr(mechanisms, "stream_generator", recording)
    monkeypatch.setattr(kmeans, "stream_generator", recording)
    zeros = np.zeros(8, dtype=int)
    releases = {
        "histogram": lambda: laplace_mechanism(zeros, 1.0, PrivacyParams(1.0, seed)),
        "ordered": lambda: ordered_mechanism(zeros, 1, PrivacyParams(1.0, seed)),
        "tree": lambda: build_oh_release(zeros, 4, 2, 0.5, 0.5, seed),
        "kmeans": lambda: kmeans_private(
            [(0.25, 0.5), (0.75, 0.5)], KmeansConfig(k=2, iterations=3),
            ClusteringPolicy(bounds=((0.0, 1.0), (0.0, 1.0))), PrivacyParams(1.0, seed),
        ),
    }
    for name, release in releases.items():
        used.clear()
        release()
        streams[name] = set(used)
    assert streams == {
        "histogram": {0}, "ordered": {TREE_STREAM}, "tree": {TREE_STREAM}, "kmeans": set(range(1, 8)),
    }
    uniforms = {tuple(stream_generator(seed, i).random(8).tolist()) for i in set().union(*streams.values())}
    assert len(uniforms) == 9
    # at one scale, the histogram's noise and the ordered mechanism's differ everywhere
    noise = releases["histogram"]() - releases["ordered"]().noisy
    assert (noise != 0).all()


def test_philox_kernel_rejects_bad_indices_and_seeds():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="stream indices"):
            _noise(0, bad, [1.0])
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        _noise(-1, 0, [1.0])
    assert _noise(0, 0, []).size == 0
    assert _noise(0, 0, np.zeros((0, 3))).shape == (0, 3)


def test_zero_uniform_is_clamped_like_sample_laplace(monkeypatch):
    class ZeroRng:
        def random(self, size=None):
            return 0.0 if size is None else np.zeros(size)

    expected = sample_laplace(2.0, ZeroRng())
    assert math.isfinite(expected) and expected < 0
    monkeypatch.setattr(mechanisms, "stream_generator", lambda seed, index: ZeroRng())
    assert _noise(3, 7, [2.0]).tolist() == [expected]


def test_laplace_mechanism_exact_cases():
    truth = np.arange(8, dtype=float)
    out = laplace_mechanism(truth, 0.0, PrivacyParams(1.0, 3))
    assert np.array_equal(out, truth)
    # a zero scale still draws, so the seed is checked
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        laplace_mechanism(truth, 0.0, PrivacyParams(1.0, -1))
    tight = laplace_mechanism(truth, 2.0, PrivacyParams(1e6, 3))
    assert np.abs(tight - truth).max() < 1e-3
    with pytest.raises(InfiniteSensitivityError):
        laplace_mechanism(truth, math.inf, PrivacyParams(1.0, 3))
    with pytest.raises(ValueError, match="^scale must be finite and non-negative, got -1.0$"):
        laplace_mechanism(truth, -1.0, PrivacyParams(1.0, 3))


def test_laplace_mechanism_deterministic():
    truth = np.zeros(16)
    a = laplace_mechanism(truth, 2.0, PrivacyParams(0.5, 99))
    b = laplace_mechanism(truth, 2.0, PrivacyParams(0.5, 99))
    assert np.array_equal(a, b)


# -- isotonic inference ----------------------------------------------------------


def test_isotonic_identity_on_monotone():
    y = np.array([1.0, 1.0, 2.0, 5.0])
    assert np.array_equal(isotonic_inference(y), y)


def test_isotonic_two_element_pool():
    assert isotonic_inference([3.0, 1.0]).tolist() == [2.0, 2.0]


def test_isotonic_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(40):
        y = rng.normal(0, 5, size=int(rng.integers(1, 9)))
        fit = isotonic_inference(y)
        assert np.abs(fit - isotonic_by_enumeration(y)).max() < 1e-9


def test_isotonic_lower_bound_clamp():
    out = isotonic_inference([-3.0, -1.0, 2.0], lower_bound=0.0)
    assert out.tolist() == [0.0, 0.0, 2.0]


def _isotonic_inputs(rng, count):
    """Vectors of the kinds a release pools: normal values, small integers
    with ties, noisy prefix counts and magnitudes up to 1e+-300, every other
    one with a nan, an infinity or a -0.0 in it."""
    for i in range(count):
        size = int(rng.integers(1, 40))
        y = [
            rng.normal(0, 5, size),
            rng.integers(-3, 4, size).astype(float),
            np.cumsum(rng.integers(0, 5, size)) + rng.laplace(0, 2, size),
            rng.normal(0, 1, size) * 10.0 ** rng.uniform(-300, 300, size),
        ][i % 4]
        if i % 2:
            y[rng.integers(size)] = rng.choice([np.nan, np.inf, -np.inf, -0.0])
        yield y


def test_isotonic_matches_the_loop_bit_for_bit():
    # the stack pops and pools with the same float operations, in the same
    # order, as the loop that rewrote its top two blocks, so the release cdf
    # pins hold
    for y in _isotonic_inputs(np.random.default_rng(28), 2000):
        for lower_bound in (None, 0.0):
            got, want = isotonic_inference(y, lower_bound), isotonic_by_loop(y, lower_bound)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (y, lower_bound)


# -- ordered mechanism -------------------------------------------------------------


def test_ordered_mechanism_zero_noise_exact(no_noise):
    counts = np.array([2, 0, 1, 5])
    rel = ordered_mechanism(counts, 1, PrivacyParams(1.0, 7))
    assert rel.noisy.tolist() == rel.inferred.tolist() == [2, 2, 3, 8]


def test_ordered_mechanism_monotone_output():
    rng = np.random.default_rng(12)
    for seed in range(10):
        counts = rng.integers(0, 5, size=30)
        rel = ordered_mechanism(counts, 2, PrivacyParams(0.5, seed))
        assert (np.diff(rel.inferred) >= -1e-12).all()
        assert (rel.inferred >= 0).all()


def test_ordered_mechanism_rejects_bad_theta():
    with pytest.raises(ValueError):
        ordered_mechanism([1, 2], 0, PrivacyParams(1.0, 0))


# -- budget split -------------------------------------------------------------------


def test_optimal_split_degenerate_ends():
    full = optimal_budget_split(128, 128, 16, 1.0)
    assert full.eps_s == 0.0 and full.eps_h == 1.0
    one = optimal_budget_split(128, 1, 16, 1.0)
    assert one.eps_s == 1.0 and one.eps_h == 0.0


def test_optimal_split_matches_grid_search():
    eps = 1.0
    size, theta, fanout = 400, 50, 16
    split = optimal_budget_split(size, theta, fanout, eps)
    grid = np.linspace(1e-6, eps - 1e-6, 20001)
    vals = [oh_error_model(size, theta, fanout, x, eps - x) for x in grid]
    best = grid[int(np.argmin(vals))]
    assert abs(split.eps_s - best) < 1e-3 * eps
    assert split.predicted_mse == pytest.approx(min(vals), rel=1e-6)


def test_tree_budgets_refuse_non_finite():
    # as PrivacyParams does: an infinite budget would release exact counts
    h = np.arange(8)
    for bad in (math.inf, math.nan):
        for call in (
            lambda: hierarchical_release(h, 2, bad, 1),
            lambda: optimal_budget_split(8, 2, 2, bad),
            lambda: PrivacyParams(bad, 1),
        ):
            with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
                call()
        with pytest.raises(ValueError, match="^budgets must be non-negative with a positive and finite total$"):
            build_oh_release(h, 2, 2, bad, 1.0, 1)
    # two finite budgets whose total overflows would give block 1 scale 0
    with pytest.raises(ValueError, match="finite total"):
        build_oh_release(h, 2, 2, 1e308, 1e308, 1)


def test_tree_budget_split_at_extreme_epsilon():
    # dividing by epsilon twice gives inf or 0 where epsilon**2 would raise
    tiny = optimal_budget_split(8, 2, 2, 1e-320)
    assert tiny.predicted_mse == math.inf and 0 < tiny.eps_s and 0 < tiny.eps_h
    huge = optimal_budget_split(8, 2, 2, 1e308)
    assert huge.predicted_mse == 0.0 and math.isfinite(huge.eps_s + huge.eps_h)
    assert oh_error_model(100, 4, 2, 1e-200, 1e-200) == math.inf
    assert oh_error_model(100, 4, 2, 1e200, 1e200) == 0.0
    tree = build_oh_release(np.arange(8), 2, 2, huge.eps_s, huge.eps_h, 1)
    assert (tree.scale > 0).all() and np.isfinite(tree.value).all()
    # epsilon * share, not (epsilon * c1^(1/3)) / total, which overflows to inf
    top = optimal_budget_split(12, 4, 2, 1.7e308)
    assert 0 < top.eps_s < 1.7e308 and 0 < top.eps_h < 1.7e308
    assert top.eps_s + top.eps_h == pytest.approx(1.7e308)
    tree = build_oh_release(np.arange(12), 4, 2, top.eps_s, top.eps_h, 1)
    assert (tree.scale > 0).all() and np.isfinite(tree.value).all()


# -- ordered hierarchical structure -----------------------------------------------


def _blocks(tree):
    """Block b -> {(lo, hi): node} from ``nodes()``, the block-1 root (s_1) included."""
    nodes = tree.nodes()
    out = {b: {} for b in range(1, tree.k + 1)} if tree.theta >= 2 else {}
    for node in nodes[tree.k:]:
        out[(node.lo - 1) // tree.theta + 1][(node.lo, node.hi)] = node
    if tree.theta >= 2:
        out[1][(nodes[0].lo, nodes[0].hi)] = nodes[0]
    return out


def test_oh_structure_blocks_and_heights():
    counts = np.ones(16, dtype=int)
    tree = build_oh_release(counts, theta=4, fanout=2, eps_s=0.5, eps_h=0.5, seed=1)
    assert tree.k == 4
    assert oh_height_by_powers(tree.theta, tree.fanout) == 2
    blocks = _blocks(tree)
    # the block-1 root doubles as s_1; other blocks carry no root interval
    assert (tree.nodes()[0].lo, tree.nodes()[0].hi) == (1, 4)
    assert (1, 4) in blocks[1]
    for b in range(2, 5):
        lo, hi = (b - 1) * 4 + 1, b * 4
        assert (lo, hi) not in blocks[b]
        assert (lo, lo + 1) in blocks[b]
    for b in range(1, 5):
        lo, hi = (b - 1) * 4 + 1, b * 4
        for j in range(lo, hi + 1):
            assert (j, j) in blocks[b]


def test_oh_layout_height_is_integer_rule():
    # the layout's height, which the noise scales use, is the integer rule on every shape
    for size in range(1, 41):
        for theta in range(1, size + 1):
            for fanout in range(2, 9):
                assert mechanisms._tree_layout(size, theta, fanout)[1] == oh_height_by_powers(theta, fanout)


def test_oh_noise_scales():
    counts = np.ones(16, dtype=int)
    eps_s, eps_h = 0.4, 0.6
    tree = build_oh_release(counts, theta=4, fanout=2, eps_s=eps_s, eps_h=eps_h, seed=1)
    h = oh_height_by_powers(tree.theta, tree.fanout)
    for i, node in enumerate(tree.nodes()[: tree.k], start=1):
        if i == 1:
            assert node.scale == pytest.approx(2 * h / (eps_s + eps_h))
        else:
            assert node.scale == pytest.approx(1 / eps_s)
    for b, nodes in _blocks(tree).items():
        expected = 2 * h / (eps_s + eps_h) if b == 1 else 2 * h / eps_h
        for node in nodes.values():
            assert node.scale == pytest.approx(expected)


def test_oh_zero_noise_cumulative_exact(no_noise):
    rng = np.random.default_rng(13)
    counts = rng.integers(0, 6, size=21)  # last block is partial
    prefix = np.cumsum(counts)
    tree = build_oh_release(counts, theta=4, fanout=3, eps_s=0.5, eps_h=0.5, seed=2)
    assert tree.cumulative.tolist() == [0, *prefix.tolist()]
    assert oh_range_query(tree, 1, 21) == pytest.approx(counts.sum())
    with pytest.raises(ValueError):
        oh_range_query(tree, 5, 4)
    with pytest.raises(ValueError, match=r"invalid range \[5,4\]"):
        oh_range_answers(tree, [(1, 2), (5, 4)])
    with pytest.raises(ValueError):
        oh_range_answers(tree, [(0, 3)])
    with pytest.raises(ValueError):
        oh_range_answers(tree, [(1, 22)])


# (size, theta, fanout): theta in {1, 3, 4, 7, 16, 256, |T|}, fanout in
# {2, 3, 4, 16}, last blocks full, one position wide and wider but partial
OH_SHAPES = [
    (1, 1, 2), (40, 1, 4), (12, 3, 2), (13, 3, 3), (14, 4, 3), (64, 4, 16), (66, 7, 2),
    (300, 16, 3), (4096, 256, 16), (4100, 256, 4), (777, 777, 2), (1000, 1000, 16),
    (100_000, 256, 4),
]


@pytest.mark.parametrize("zero_noise", [False, True])
@pytest.mark.parametrize("size,theta,fanout", OH_SHAPES)
def test_oh_prefixes_bit_identical_to_walk(size, theta, fanout, zero_noise, request):
    if zero_noise:
        request.getfixturevalue("no_noise")
    rng = np.random.default_rng(size + theta + fanout)
    counts = rng.integers(0, 9, size=size)
    split = optimal_budget_split(size, theta, fanout, 1.0)
    tree = build_oh_release(counts, theta, fanout, split.eps_s, split.eps_h, seed=31)
    values = {(n.lo, n.hi): n.value for n in tree.nodes()}
    if size <= 5000:
        js = np.arange(size + 1)
    else:
        # every block end and the position before it, plus random positions
        ends = np.minimum(np.arange(1, tree.k + 1) * theta, size)
        js = np.unique(np.concatenate([[0, 1], ends, ends - 1, rng.integers(0, size + 1, 1000)]))
    want = np.array([oh_cumulative_by_walk(values, size, theta, fanout, int(j)) for j in js])
    assert np.array_equal(tree.cumulative[js], want)

    queries = random_range_workload(size, 500, seed=size).queries
    walk = {j: oh_cumulative_by_walk(values, size, theta, fanout, j) for q in queries for j in (q[0] - 1, q[1])}
    want = np.array([walk[j] - walk[i - 1] for i, j in queries])
    assert np.array_equal(oh_range_answers(tree, queries), want)
    assert np.array_equal([oh_range_query(tree, i, j) for i, j in queries], want)


def test_oh_prefixes_bit_identical_to_walk_random_shapes():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        size = int(rng.integers(1, 301))
        theta = int(rng.integers(1, size + 1))
        fanout = int(rng.integers(2, 21))
        counts = rng.integers(0, 9, size=size)
        split = optimal_budget_split(size, theta, fanout, 1.0)
        tree = build_oh_release(counts, theta, fanout, split.eps_s, split.eps_h, seed=int(rng.integers(1 << 31)))
        values = {(n.lo, n.hi): n.value for n in tree.nodes()}
        want = [oh_cumulative_by_walk(values, size, theta, fanout, j) for j in range(size + 1)]
        assert np.array_equal(tree.cumulative, want), (size, theta, fanout)


def test_oh_prefixes_are_cached_and_read_only():
    tree = build_oh_release(np.arange(20), theta=4, fanout=2, eps_s=0.5, eps_h=0.5, seed=3)
    assert tree.cumulative is tree.cumulative
    with pytest.raises(ValueError):
        tree.cumulative[3] = 0.0
    with pytest.raises(ValueError):
        tree.value[0] = 0.0


def test_oh_boundary_uses_s_node_alone():
    counts = np.arange(12)
    tree = build_oh_release(counts, theta=3, fanout=2, eps_s=0.7, eps_h=0.3, seed=5)
    for i, node in enumerate(tree.nodes()[: tree.k], start=1):
        assert tree.cumulative[min(i * 3, 12)] == pytest.approx(node.value)


def test_oh_cumulative_unbiased():
    counts = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    prefix = np.cumsum(counts)
    j = 5
    runs = 4000
    vals = []
    for seed in range(runs):
        tree = build_oh_release(counts, theta=4, fanout=2, eps_s=1.0, eps_h=1.0, seed=seed)
        vals.append(tree.cumulative[j])
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(runs)
    assert abs(vals.mean() - prefix[j - 1]) < 3 * se


def test_oh_edge_change_perturbs_few_nodes():
    # a protected change moves a tuple at most theta positions, which can
    # cross at most one prefix boundary and touch at most 2h interval nodes
    rng = np.random.default_rng(14)
    counts = np.zeros(64, dtype=int)
    theta, fanout = 8, 2
    tree = build_oh_release(counts, theta, fanout, 0.5, 0.5, seed=3)
    h = oh_height_by_powers(tree.theta, tree.fanout)
    for _ in range(200):
        p = int(rng.integers(1, 65))
        q = int(rng.integers(max(1, p - theta), min(64, p + theta) + 1))
        if p == q:
            continue
        lo, hi = min(p, q), max(p, q)
        s_hits = sum(1 for i in range(1, tree.k + 1) if lo <= min(i * theta, 64) < hi)
        h_hits = 0
        for b, nodes in _blocks(tree).items():
            for (nlo, nhi) in nodes:
                if b == 1 and (nlo, nhi) == (1, theta):
                    continue  # the block-1 root is s_1, counted on the S side
                inside = (nlo <= p <= nhi) + (nlo <= q <= nhi)
                if inside == 1:
                    h_hits += 1
        assert s_hits <= 1
        assert h_hits <= 2 * h


def test_hierarchical_matches_oh_at_full_theta():
    rng = np.random.default_rng(15)
    counts = rng.integers(0, 4, size=27)
    split_eps = 0.8
    base = hierarchical_release(counts, fanout=3, epsilon=split_eps, seed=11)
    oh = build_oh_release(counts, theta=27, fanout=3, eps_s=0.0, eps_h=split_eps, seed=11)
    assert len(base.nodes()) == len(oh.nodes())
    assert base.nodes() == oh.nodes()


def test_oh_serialization_round_readable():
    counts = np.ones(8, dtype=int)
    tree = build_oh_release(counts, theta=4, fanout=2, eps_s=0.3, eps_h=0.7, seed=21)
    payload = tree.to_dict()
    assert payload["mechanism"] == "ordered-hierarchical"
    ids = [n["id"] for n in payload["nodes"]]
    assert ids.count("S1") == 1 and ids.count("S2") == 1
    assert all("interval" in n and "value" in n and "scale" in n for n in payload["nodes"])
    json.dumps(payload)  # serializable


def test_oh_determinism():
    counts = np.arange(32)
    a = build_oh_release(counts, 8, 2, 0.5, 0.5, seed=123)
    b = build_oh_release(counts, 8, 2, 0.5, 0.5, seed=123)
    assert a.to_dict() == b.to_dict()


def test_oh_validation():
    counts = np.ones(8, dtype=int)
    with pytest.raises(ValueError):
        build_oh_release(counts, 0, 2, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        build_oh_release(counts, 9, 2, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        build_oh_release(counts, 4, 1, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError):
        build_oh_release(counts, 4, 2, 0.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        # S nodes need budget once there are several blocks
        build_oh_release(counts, 4, 2, 0.0, 1.0, seed=0)


# -- budget ledger -------------------------------------------------------------------


def test_compose_budgets_sequential():
    ledger = BudgetLedger()
    ledger.charge("first", 0.3)
    ledger.charge("second", 0.7)
    assert compose_budgets(ledger) == pytest.approx(1.0)


def test_compose_budgets_parallel_group():
    ledger = BudgetLedger()
    ledger.charge("part a", 0.3, group="split")
    ledger.charge("part b", 0.7, group="split")
    ledger.certify_group("split")
    assert compose_budgets(ledger) == pytest.approx(0.7)


def test_compose_budgets_empty_and_uncertified():
    assert compose_budgets(BudgetLedger()) == 0.0
    ledger = BudgetLedger()
    ledger.charge("part a", 0.3, group="split")
    with pytest.raises(ValueError):
        compose_budgets(ledger)


def test_ledger_round_trip():
    ledger = BudgetLedger()
    ledger.charge("a", 0.2)
    ledger.charge("b", 0.5, group="g")
    ledger.certify_group("g")
    other = BudgetLedger.from_dict(ledger.to_dict())
    assert compose_budgets(other) == pytest.approx(0.7)


@pytest.mark.parametrize(
    "entry,groups,message",
    [
        ({"epsilon": 0.5}, [], "'label' must be a string, got None"),
        ({"label": 3, "epsilon": 0.5}, [], "'label' must be a string, got 3"),
        ({"label": "a"}, [], "'epsilon' must be a number, got None"),
        ({"label": "a", "epsilon": "0.5"}, [], "'epsilon' must be a number, got '0.5'"),
        ({"label": "a", "epsilon": True}, [], "'epsilon' must be a number, got True"),
        ({"label": "a", "epsilon": 10**400}, [], "'epsilon' must be finite"),
        ({"label": "a", "epsilon": 0.5, "group": ["g"]}, ["g"], "'group' must be a string or null, got \\['g'\\]"),
        ({"label": "a", "epsilon": 0.5, "group": {}}, [], "'group' must be a string or null, got \\{\\}"),
        ({"label": "a", "epsilon": 0.5, "group": 1}, [1], "'group' must be a string or null, got 1"),
        ({"label": "a", "epsilon": 0.5, "group": "1"}, [1], "'certified_groups' must be a list of strings, got 1 at"),
    ],
    ids=[
        "label-missing", "label-int", "epsilon-missing", "epsilon-str", "epsilon-bool", "epsilon-huge-int",
        "group-list", "group-dict", "group-int", "certified-int",
    ],
)
def test_ledger_from_dict_names_the_field(entry, groups, message):
    with pytest.raises(ValueError, match=message):
        BudgetLedger.from_dict({"entries": [entry], "certified_groups": groups})
