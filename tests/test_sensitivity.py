import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from blowfish import (
    BudgetExceededError,
    ClusterSizeQuery,
    ClusterSumQuery,
    ConstraintSet,
    CountQuery,
    CumulativeQuery,
    Exactness,
    HistogramQuery,
    InfeasibleConstraintsError,
    LinearSumQuery,
    Method,
    NonSparseConstraintsError,
    PartitionHistogramQuery,
    Policy,
    SecretGraph,
    ShapeNotRecognizedError,
    alpha_xi,
    brute_force_sensitivity,
    build_policy_graph,
    closed_form_sensitivity,
    is_sparse,
    load_domain,
    policy_sensitivity,
    sparse_constraint_sensitivity,
    specialized_constraint_sensitivity,
)
from blowfish.policy import DEFAULT_ENUM_BUDGET, iter_graph_edges, load_policy, neighbor_databases
from blowfish.sensitivity import PolicyGraph, _has_hamiltonian_path, _query_deltas

from oracles import (
    Effect,
    alpha_xi_by_backtracking,
    delta_by_loop,
    hamiltonian_path_by_permutation,
    lifts_lowers,
    matches,
    policy_graph_by_loop,
    random_rectangle,
    random_secret_graph,
    specialized_by_loop,
    unrank,
)


def line_domain(size):
    return load_domain({"attributes": [{"name": "x", "values": [str(i) for i in range(size)], "ordinal": True}]})


def grid_domain(*sizes):
    attrs = [{"name": f"A{i}", "values": [f"v{j}" for j in range(s)]} for i, s in enumerate(sizes)]
    return load_domain({"attributes": attrs})


def abc_domain():
    return load_domain(
        {
            "attributes": [
                {"name": "A1", "values": ["a1", "a2"]},
                {"name": "A2", "values": ["b1", "b2"]},
                {"name": "A3", "values": ["c1", "c2", "c3"]},
            ]
        }
    )


def marginal_cells(dom, attr_values, answer=1):
    out = []
    for combo in itertools.product(*(vals for _, vals in attr_values)):
        where = {name: [v] for (name, _), v in zip(attr_values, combo)}
        out.append(CountQuery.where(dom, where, answer=answer))
    return out


def fig_style_policy():
    dom = abc_domain()
    queries = marginal_cells(dom, [("A1", ["a1", "a2"]), ("A2", ["b1", "b2"])])
    return Policy(dom, SecretGraph.full(dom), ConstraintSet.of(queries))


# -- closed forms --------------------------------------------------------------


def test_closed_form_histogram():
    dom = abc_domain()
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    res = closed_form_sensitivity(HistogramQuery(), pol)
    assert res.value == 2 and res.exactness is Exactness.EXACT
    edgeless = Policy(dom, SecretGraph.distance(dom, 0), ConstraintSet.none())
    assert closed_form_sensitivity(HistogramQuery(), edgeless).value == 0


def test_closed_form_cumulative():
    dom = line_domain(10)
    full = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    assert closed_form_sensitivity(CumulativeQuery(), full).value == 9
    line = Policy(dom, SecretGraph.distance(dom, 1), ConstraintSet.none())
    assert closed_form_sensitivity(CumulativeQuery(), line).value == 1
    g3 = Policy(dom, SecretGraph.distance(dom, 3), ConstraintSet.none())
    assert closed_form_sensitivity(CumulativeQuery(), g3).value == 3


def test_closed_form_linear_sum():
    dom = line_domain(11)
    w = (0.5, 2.0, 1.0)
    q = LinearSumQuery(weights=w, lo=0.0, hi=10.0)
    g2 = Policy(dom, SecretGraph.distance(dom, 2), ConstraintSet.none())
    assert closed_form_sensitivity(q, g2).value == pytest.approx(2 * 2.0)
    full = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    assert closed_form_sensitivity(q, full).value == pytest.approx(10 * 2.0)


def test_closed_form_partition_histogram():
    dom = line_domain(6)
    cells = (0, 0, 0, 1, 1, 1)
    aligned = Policy(dom, SecretGraph.partition(dom, [[0, 1, 2], [3, 4, 5]]), ConstraintSet.none())
    assert closed_form_sensitivity(PartitionHistogramQuery(cells), aligned).value == 0
    full = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    assert closed_form_sensitivity(PartitionHistogramQuery(cells), full).value == 2


def test_closed_form_cluster_queries():
    dom = grid_domain(3, 4)
    full = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    assert closed_form_sensitivity(ClusterSizeQuery(4), full).value == 2
    assert closed_form_sensitivity(ClusterSumQuery(4), full).value == 2 * dom.diameter()
    g2 = Policy(dom, SecretGraph.distance(dom, 2), ConstraintSet.none())
    assert closed_form_sensitivity(ClusterSumQuery(4), g2).value == 4
    attr = Policy(dom, SecretGraph.attribute(dom), ConstraintSet.none())
    assert closed_form_sensitivity(ClusterSumQuery(4), attr).value == 2 * 3
    part = Policy(dom, SecretGraph.partition(dom, [[0, 1, 2, 3], list(range(4, 12))]), ConstraintSet.none())
    assert closed_form_sensitivity(ClusterSumQuery(4), part).value > 0


def test_cluster_sum_closed_form_matches_longest_edge():
    # twice the longest edge in L1, read from the cells or the stored edges
    # and checked against every enumerated edge
    rng = np.random.default_rng(41)
    for _ in range(200):
        dom = grid_domain(*[int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))])
        for g in (random_secret_graph(rng, dom, "partition"), random_secret_graph(rng, dom, "explicit")):
            pairs = iter_graph_edges(g)
            coords = np.stack(np.unravel_index(np.arange(dom.size), dom.sizes), axis=1)
            longest = int(np.abs(coords[pairs[:, 0]] - coords[pairs[:, 1]]).sum(axis=1).max(initial=0))
            pol = Policy(dom, g, ConstraintSet.none())
            assert closed_form_sensitivity(ClusterSumQuery(2), pol).value == 2 * longest, (dom.sizes, g.cells)
    # one 5000-rank cell has 25M candidate pairs, over the 20M edge budget
    dom = line_domain(5000)
    g = SecretGraph.partition(dom, [range(5000)])
    with pytest.raises(BudgetExceededError):
        iter_graph_edges(g)
    assert closed_form_sensitivity(ClusterSumQuery(2), Policy(dom, g, ConstraintSet.none())).value == 9998


def test_cluster_sum_closed_form_cost_follows_the_input():
    # 16 two-value attributes in two-rank cells: 2^15 sign vectors over 65,536
    # ranks, against 131,072 pairs, so the pairs are read
    dom = grid_domain(*[2] * 16)
    pairs = SecretGraph.partition(dom, [[r, dom.size - 1 - r] for r in range(dom.size // 2)])
    assert closed_form_sensitivity(ClusterSumQuery(2), Policy(dom, pairs, ConstraintSet.none())).value == 32
    # one cell: both 2^31 sign-vector values and 2^32 pairs are over budget
    one_cell = SecretGraph.partition(dom, [range(dom.size)])
    with pytest.raises(BudgetExceededError):
        closed_form_sensitivity(ClusterSumQuery(2), Policy(dom, one_cell, ConstraintSet.none()))
    # an explicit graph reads its own endpoints, never the 10^9-rank domain
    dom = grid_domain(1000, 1000, 1000)
    g = SecretGraph.explicit(dom, [(0, dom.size - 1), (1, 2)])
    assert closed_form_sensitivity(ClusterSumQuery(2), Policy(dom, g, ConstraintSet.none())).value == 2 * 2997


def test_closed_form_rejects_constraints():
    pol = fig_style_policy()
    with pytest.raises(ValueError):
        closed_form_sensitivity(HistogramQuery(), pol)


# -- lift / lower and sparsity --------------------------------------------------


def test_lifts_lowers_worked_example():
    dom = abc_domain()
    q1 = CountQuery.where(dom, {"A1": ["a1"], "A2": ["b1"]})
    q4 = CountQuery.where(dom, {"A1": ["a2"], "A2": ["b2"]})
    # value index 0 is a1 / b1 / c1 and index 1 is a2 / b2 / c2
    x, y = (0, 0, 0), (1, 1, 1)
    assert lifts_lowers((x, y), q4) is Effect.LIFTS
    assert lifts_lowers((x, y), q1) is Effect.LOWERS
    u, v = (0, 1, 0), (0, 1, 1)
    for q in (q1, q4):
        assert lifts_lowers((u, v), q) is Effect.NEITHER
    always_true = CountQuery(tuple([None] * 3))
    assert lifts_lowers((x, y), always_true) is Effect.NEITHER


def test_is_sparse_examples():
    pol = fig_style_policy()
    assert is_sparse(pol.constraints, pol.graph)

    dom = line_domain(3)
    ge1 = CountQuery.where(dom, {"x": ["1", "2"]})  # value >= 1
    ge2 = CountQuery.where(dom, {"x": ["2"]})  # value >= 2
    cs = ConstraintSet.of([ge1, ge2])
    assert not is_sparse(cs, SecretGraph.full(dom))  # pair (0,2) lifts both
    with pytest.raises(NonSparseConstraintsError):
        policy_sensitivity(HistogramQuery(), Policy(dom, SecretGraph.full(dom), cs))

    assert is_sparse(ConstraintSet.of([]), SecretGraph.full(dom))


# -- policy graph and alpha/xi ---------------------------------------------------


def test_policy_graph_worked_example():
    pol = fig_style_policy()
    pg = build_policy_graph(pol.constraints, pol.graph)
    expected_q_edges = {(i, j) for i in range(4) for j in range(4) if i != j}
    assert pg.edges == frozenset(expected_q_edges | {(pg.source, pg.sink)})
    assert alpha_xi(pg) == (4, 1)
    # every query edge carries a witnessing secret pair
    assert expected_q_edges <= dict(pg.witnesses).keys()


def test_policy_graph_empty_and_inert_query():
    dom = line_domain(3)
    g = SecretGraph.full(dom)
    pg = build_policy_graph(ConstraintSet.of([]), g)
    assert pg.edges == frozenset({(pg.source, pg.sink)})
    always_true = CountQuery(tuple([None]))
    pg2 = build_policy_graph(ConstraintSet.of([always_true]), g)
    assert pg2.edges == frozenset({(pg2.source, pg2.sink)})
    assert alpha_xi(pg2) == (0, 1)


def test_alpha_xi_chain():
    # source -> q0 -> q1 -> sink, plus the always-present (source, sink)
    pg = PolicyGraph(n_queries=2, edges=frozenset({(2, 0), (0, 1), (1, 3), (2, 3)}))
    assert alpha_xi(pg) == (0, 3)


def test_alpha_xi_vertex_cap():
    # 14 queries and the two sentinels fill the cap: a complete digraph over
    # the queries, the densest graph the table meets, answers
    nq = 14
    edges = {(u, v) for u in range(nq) for v in range(nq) if u != v} | {(nq, nq + 1)}
    assert alpha_xi(PolicyGraph(n_queries=nq, edges=frozenset(edges))) == (14, 1)
    nq = 15
    pg = PolicyGraph(n_queries=nq, edges=frozenset({(nq, nq + 1)}))
    with pytest.raises(BudgetExceededError, match="^policy graph has 17 vertices, exhaustive search capped at 16$"):
        alpha_xi(pg)


def test_alpha_xi_agrees_with_backtracking():
    # source and sink edge densities range over [0, 1]; query edges are
    # dense on up to 7 queries, and sparser on up to 10, where backtracking
    # over a dense graph would walk millions of paths
    rng = np.random.default_rng(6)
    for _ in range(300):
        nq = int(rng.integers(1, 11))
        source, sink = nq, nq + 1
        density = rng.random() * (1.0 if nq <= 7 else 0.4)
        into, out = rng.random(2)
        edges = {(source, sink)}
        for u in range(nq):
            for v in range(nq):
                if u != v and rng.random() < density:
                    edges.add((u, v))
        for q in range(nq):
            if rng.random() < into:
                edges.add((source, q))
            if rng.random() < out:
                edges.add((q, sink))
        pg = PolicyGraph(n_queries=nq, edges=frozenset(edges))
        assert alpha_xi(pg) == alpha_xi_by_backtracking(pg)


# -- sparse engine ----------------------------------------------------------------


def test_sparse_engine_worked_example():
    pol = fig_style_policy()
    res = sparse_constraint_sensitivity(pol)
    assert res.value == 8
    assert res.exactness is Exactness.UPPER_BOUND
    assert res.method is Method.SPARSE_ENGINE
    assert brute_force_sensitivity(HistogramQuery(), pol, 4).value == 8


def test_sparse_engine_empty_constraints():
    dom = line_domain(3)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([]))
    assert sparse_constraint_sensitivity(pol).value == 2


def test_sparse_engine_caps():
    # provable cap 2(|Q|+1); the spec's literal 2*max(|Q|,1) holds on the
    # worked example and empty constraint sets but not in general (ledger)
    pol = fig_style_policy()
    res = sparse_constraint_sensitivity(pol)
    assert res.value <= 2 * max(len(pol.constraints.queries), 1)

    dom = line_domain(4)
    q = CountQuery.where(dom, {"x": ["1", "2"]}, answer=1)
    single = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([q]))
    res_single = sparse_constraint_sensitivity(single)
    assert res_single.value == 4  # exceeds 2*max(|Q|,1): see decisions ledger
    assert res_single.value <= 2 * (len(single.constraints.queries) + 1)
    oracle = brute_force_sensitivity(HistogramQuery(), single, 2)
    assert oracle.value == 4  # the bound is attained, so the literal cap is impossible


def _check_sparse_engine_against_oracles(pol, n):
    """Compare the policy graph (or the non-sparse error) with the per-edge
    loop, and the engine's bound with its cap and the brute-force value.
    Returns whether the constraints were sparse."""
    g = pol.graph
    try:
        expected = policy_graph_by_loop(pol.constraints, g)
    except NonSparseConstraintsError as exc:
        with pytest.raises(NonSparseConstraintsError) as got:
            build_policy_graph(pol.constraints, g)
        assert str(got.value) == str(exc)
        assert not is_sparse(pol.constraints, g)
        return False
    pg = build_policy_graph(pol.constraints, g)
    assert pg.edges == expected.edges, (pol.domain.size, g.kind)
    assert pg.witnesses == expected.witnesses, (pol.domain.size, g.kind)
    engine = sparse_constraint_sensitivity(pol)
    assert engine.value <= 2 * (len(pol.constraints.queries) + 1)
    oracle = brute_force_sensitivity(HistogramQuery(), pol, n)
    assert oracle.value <= engine.value, (pol.domain.size, g.kind, n)
    return True


def test_sparse_engine_random_policies_cap_and_soundness():
    rng = np.random.default_rng(7)
    kinds = ("full", "attribute", "partition", "distance", "explicit")
    sparse = nonsparse = 0
    for trial in range(300):
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        dom = grid_domain(*sizes)
        if dom.size > 8:
            continue
        g = random_secret_graph(rng, dom, kinds[trial % 5])
        n = int(rng.integers(1, 3))
        # answers read off one database keep the constraints satisfiable
        db = [unrank(dom, int(r)) for r in rng.integers(0, dom.size, size=n)]
        queries = []
        for _ in range(int(rng.integers(1, 4))):
            q = random_rectangle(rng, dom)
            queries.append(CountQuery(q.allowed, sum(matches(q, x) for x in db)))
        if _check_sparse_engine_against_oracles(Policy(dom, g, ConstraintSet.of(queries)), n):
            sparse += 1
        else:
            nonsparse += 1
    assert sparse >= 50 and nonsparse >= 20

    # complete single-attribute marginals, one tuple per value, on full and
    # attribute graphs with n equal to the attribute's size
    rng = np.random.default_rng(7)
    marginals = 0
    for trial in range(15):
        sizes = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        dom = grid_domain(*sizes)
        if dom.size > 6:
            continue
        attr_idx = int(rng.integers(len(sizes)))
        queries = []
        for v in range(sizes[attr_idx]):
            queries.append(CountQuery.where(dom, {f"A{attr_idx}": [f"v{v}"]}, answer=1))
        g = SecretGraph.full(dom) if trial % 2 == 0 else SecretGraph.attribute(dom)
        marginals += _check_sparse_engine_against_oracles(Policy(dom, g, ConstraintSet.of(queries)), sizes[attr_idx])
    assert marginals >= 10


# -- specialized shapes -------------------------------------------------------------


def test_specialized_single_marginal():
    pol = fig_style_policy()
    res = specialized_constraint_sensitivity(pol)
    assert res.value == 8 and res.exactness is Exactness.EXACT
    assert res.method is Method.SPECIALIZED


def test_specialized_disjoint_marginals_attribute():
    # sizes 4 and 3 with a spare attribute: 2 * max(4, 3) = 8
    dom = grid_domain(2, 2, 3, 2)
    queries = []
    for a0, a1 in itertools.product(range(2), range(2)):
        queries.append(CountQuery.where(dom, {"A0": [f"v{a0}"], "A1": [f"v{a1}"]}, answer=1))
    for a2 in range(3):
        queries.append(CountQuery.where(dom, {"A2": [f"v{a2}"]}, answer=1))
    pol = Policy(dom, SecretGraph.attribute(dom), ConstraintSet.of(queries))
    res = specialized_constraint_sensitivity(pol)
    assert res.value == 8 and res.exactness is Exactness.EXACT


def test_specialized_rectangles_grid():
    # 10x10 grid, three disjoint rectangles, exactly two within theta
    dom = grid_domain(10, 10)
    r1 = CountQuery.where(dom, {"A0": range(0, 2), "A1": range(0, 2)})
    r2 = CountQuery.where(dom, {"A0": range(3, 5), "A1": range(0, 2)})
    r3 = CountQuery.where(dom, {"A0": range(8, 10), "A1": range(8, 10)})
    pol = Policy(dom, SecretGraph.distance(dom, 2), ConstraintSet.of([r1, r2, r3]))
    res = specialized_constraint_sensitivity(pol)
    assert res.value == 6  # maxcomp = 2
    assert res.exactness is Exactness.EXACT


def test_specialized_rectangles_point_query_upper_bound():
    dom = grid_domain(10, 10)
    r1 = CountQuery.where(dom, {"A0": range(0, 1), "A1": range(0, 1)})
    r2 = CountQuery.where(dom, {"A0": range(3, 5), "A1": range(0, 2)})
    pol = Policy(dom, SecretGraph.distance(dom, 2), ConstraintSet.of([r1, r2]))
    res = specialized_constraint_sensitivity(pol)
    assert res.exactness is Exactness.UPPER_BOUND


def test_specialized_rectangles_covering_domain_upper_bound():
    # rectangles that cover the domain leave no tuple outside them, so the
    # "+1" source-to-sink path of 2 * (maxcomp + 1) cannot occur
    dom = grid_domain(2, 4)
    r1 = CountQuery.where(dom, {"A1": range(0, 2)}, answer=1)
    r2 = CountQuery.where(dom, {"A1": range(2, 4)}, answer=1)
    pol = Policy(dom, SecretGraph.distance(dom, 2), ConstraintSet.of([r1, r2]))
    res = specialized_constraint_sensitivity(pol)
    assert res.value == 6
    assert res.exactness is Exactness.UPPER_BOUND
    oracle = brute_force_sensitivity(HistogramQuery(), pol, n=2)
    assert oracle.value == 4 <= res.value


def test_specialized_rectangles_star_component_upper_bound():
    # a 4-star proximity component has no Hamiltonian path, so the formula
    # exceeds the attainable bound and must be tagged as an upper bound
    dom = grid_domain(13, 13)
    center = CountQuery.where(dom, {"A0": range(6, 7), "A1": range(5, 8)})
    arms = [
        CountQuery.where(dom, {"A0": range(2, 4), "A1": range(5, 8)}),
        CountQuery.where(dom, {"A0": range(9, 11), "A1": range(5, 8)}),
        CountQuery.where(dom, {"A0": range(5, 8), "A1": range(1, 3)}),
    ]
    pol = Policy(dom, SecretGraph.distance(dom, 3), ConstraintSet.of([center] + arms))
    res = specialized_constraint_sensitivity(pol)
    assert res.value == 2 * (4 + 1)
    assert res.exactness is Exactness.UPPER_BOUND


EXACT_UNATTAINED = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="ROADMAP item 17: a specialized Exact value the oracle never reaches"
)


def _item_17_policy(case):
    if case == "marginal":
        dom = grid_domain(2, 2)
        queries = [CountQuery.where(dom, {"A0": [v]}) for v in ("v0", "v1")]
        return Policy(dom, SecretGraph.full(dom), ConstraintSet.of(queries))
    size, theta, ranges = case
    dom = line_domain(size)
    queries = [CountQuery.where(dom, {"x": range(lo, hi + 1)}, answer) for lo, hi, answer in ranges]
    return Policy(dom, SecretGraph.distance(dom, theta), ConstraintSet.of(queries))


@pytest.mark.parametrize(
    "case, max_n",
    [
        # specialized: 4 Exact; the oracle's largest value is 2
        pytest.param((5, 1, [(1, 2, 0)]), 5, marks=EXACT_UNATTAINED, id="line5-theta1-[1,2]=0"),
        pytest.param((5, 1, [(0, 1, 1)]), 5, marks=EXACT_UNATTAINED, id="line5-theta1-[0,1]=1"),
        # specialized: 6 Exact; the oracle's largest value is 4
        pytest.param((6, 2, [(0, 2, 1), (3, 4, 1)]), 5, marks=EXACT_UNATTAINED, id="line6-theta2-two-ranges"),
        # specialized: 4 Exact; the oracle's largest value is 2
        pytest.param("marginal", 6, marks=EXACT_UNATTAINED, id="2x2-full-unanswered-marginal"),
    ],
)
def test_specialized_exact_is_attained_by_the_oracle(case, max_n):
    # an Exact value is the sensitivity at some database size: the oracle
    # reaches it at some n within the enumeration budget
    pol = _item_17_policy(case)
    res = specialized_constraint_sensitivity(pol)
    if res.exactness is Exactness.EXACT:
        reached = []
        for n in range(1, max_n + 1):
            assert pol.domain.size**n <= DEFAULT_ENUM_BUDGET
            try:
                reached.append(brute_force_sensitivity(HistogramQuery(), pol, n).value)
            except InfeasibleConstraintsError:
                continue
        assert res.value in reached, (res.value, reached)


def test_hamiltonian_path_agrees_with_permutations():
    # ids are drawn from 0..49, so they are neither contiguous nor sorted by
    # position; graphs may be disconnected
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(400):
        nodes = rng.choice(50, size=int(rng.integers(1, 10)), replace=False).tolist()
        adj = {v: set() for v in nodes}
        density = rng.random()
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < density:
                adj[a].add(b)
                adj[b].add(a)
        expected = hamiltonian_path_by_permutation(nodes, adj)
        matrix = np.array([[w in adj[v] for w in nodes] for v in nodes], dtype=bool)
        assert _has_hamiltonian_path(matrix) == expected, (nodes, adj)
        found += expected
    assert 50 <= found <= 350


def test_specialized_rejects_unrecognized_shapes():
    dom = grid_domain(2, 2)
    q = CountQuery.where(dom, {"A0": ["v0"]})
    with pytest.raises(ShapeNotRecognizedError):
        # partition secrets have no specialization
        pol = Policy(dom, SecretGraph.partition(dom, [[0, 1], [2, 3]]), ConstraintSet.of([q]))
        specialized_constraint_sensitivity(pol)
    with pytest.raises(ShapeNotRecognizedError):
        # incomplete marginal (one cell missing)
        pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([q]))
        specialized_constraint_sensitivity(pol)
    with pytest.raises(ShapeNotRecognizedError):
        # marginal over every attribute pins the histogram
        cells = marginal_cells(dom, [("A0", ["v0", "v1"]), ("A1", ["v0", "v1"])])
        pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.of(cells))
        specialized_constraint_sensitivity(pol)


def test_specialization_consistent_with_engine():
    pol = fig_style_policy()
    assert (
        specialized_constraint_sensitivity(pol).value
        == sparse_constraint_sensitivity(pol).value
    )
    dom = grid_domain(3, 3)
    queries = [CountQuery.where(dom, {"A0": [f"v{i}"]}, answer=1) for i in range(3)]
    queries += [CountQuery.where(dom, {"A1": [f"v{i}"]}, answer=1) for i in range(3)]
    pol2 = Policy(dom, SecretGraph.attribute(dom), ConstraintSet.of(queries))
    assert (
        specialized_constraint_sensitivity(pol2).value
        == sparse_constraint_sensitivity(pol2).value
    )


def _cell_query(n_attributes, allowed):
    """A count query with the value-index sets ``allowed`` (attribute -> set)."""
    return CountQuery(tuple(frozenset(allowed[i]) if i in allowed else None for i in range(n_attributes)))


def _random_marginals(rng, dom):
    """One or two marginals, each over a random attribute set (possibly empty
    or every attribute), then sometimes a cell dropped, duplicated or widened
    to two values."""
    sizes, nat = dom.sizes, dom.n_attributes
    queries = []
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(1, nat + 1)) if rng.random() < 0.9 else 0
        attrs = rng.choice(nat, size=k, replace=False).tolist()
        for values in itertools.product(*(range(sizes[i]) for i in attrs)):
            queries.append(_cell_query(nat, {i: {v} for i, v in zip(attrs, values)}))
    roll, pick = rng.random(), int(rng.integers(len(queries)))
    if roll < 0.15:
        del queries[pick]
    elif roll < 0.3:
        queries.append(queries[pick])
    elif roll < 0.4:
        wide = [i for i, s in enumerate(queries[pick].allowed) if s is not None and sizes[i] >= 2]
        if wide:
            allowed = {i: s for i, s in enumerate(queries[pick].allowed) if s is not None}
            queries[pick] = _cell_query(nat, {**allowed, wide[0]: {0, 1}})
    return queries


def _random_rectangles(rng, dom):
    """Boxes of a random grid over the domain: all of them (covering it) or
    a few, some shrunk (down to points); sometimes one overlapping rectangle
    or one non-contiguous query is added."""
    sizes, nat = dom.sizes, dom.n_attributes
    runs = []
    for size in sizes:
        cuts = [c for c in range(1, size) if rng.random() < 0.5]
        runs.append(list(zip([0] + cuts, [c - 1 for c in cuts] + [size - 1])))
    boxes = list(itertools.product(*runs))
    if rng.random() >= 0.2:
        keep = rng.choice(len(boxes), size=int(rng.integers(1, min(len(boxes), 8) + 1)), replace=False)
        boxes = [boxes[i] for i in sorted(keep)]
    queries = []
    for box in boxes:
        if rng.random() < 0.3:
            box = [(lo, int(rng.integers(lo, hi + 1))) for lo, hi in box]
        # an interval over the whole attribute may also be left unconstrained
        bounded = [i for i, (lo, hi) in enumerate(box) if (lo, hi) != (0, sizes[i] - 1) or rng.random() < 0.5]
        queries.append(_cell_query(nat, {i: range(box[i][0], box[i][1] + 1) for i in bounded}))
    roll = rng.random()
    if roll < 0.15:
        queries.append(random_rectangle(rng, dom))
    elif roll < 0.25 and max(sizes) >= 3:
        queries.append(_cell_query(nat, {int(np.argmax(sizes)): {0, 2}}))
    return [queries[i] for i in rng.permutation(len(queries))]


def _outcome(engine, *args):
    """A route's value, exactness and method, or the type and message of what
    it raised."""
    try:
        res = engine(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return res.value, res.exactness, res.method


def test_specialized_matches_loop():
    rng = np.random.default_rng(29)
    kinds = ("full", "attribute", "partition", "distance", "explicit")
    outcomes = []
    for _ in range(2400):
        dom = grid_domain(*(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))))
        roll = rng.random()
        if roll < 0.45:
            kind = kinds[int(rng.integers(2))] if rng.random() < 0.8 else kinds[int(rng.integers(5))]
            constraints = ConstraintSet.of(_random_marginals(rng, dom))
        elif roll < 0.95:
            kind = "distance" if rng.random() < 0.8 else kinds[int(rng.integers(5))]
            constraints = ConstraintSet.of(_random_rectangles(rng, dom))
        else:
            kind = kinds[int(rng.integers(5))]
            constraints = ConstraintSet.of([]) if rng.random() < 0.5 else ConstraintSet.none()
        pol = Policy(dom, random_secret_graph(rng, dom, kind), constraints)
        got = _outcome(specialized_constraint_sensitivity, pol)
        assert got == _outcome(specialized_by_loop, pol), (dom.sizes, pol.describe(), constraints)
        outcomes.append(got)
    # a proximity component of 18 unit rectangles is past the traceability search
    dom = line_domain(40)
    rects = [CountQuery.where(dom, {"x": range(r, r + 2)}) for r in range(0, 36, 2)]
    pol = Policy(dom, SecretGraph.distance(dom, 2), ConstraintSet.of(rects))
    assert _outcome(specialized_constraint_sensitivity, pol) == _outcome(specialized_by_loop, pol)
    assert _outcome(specialized_constraint_sensitivity, pol) == (38.0, Exactness.UPPER_BOUND, Method.SPECIALIZED)
    # every result tag and every rejection occurs
    tags = {o[1] for o in outcomes if o[0] is not ShapeNotRecognizedError}
    assert {Exactness.EXACT, Exactness.UPPER_BOUND} <= tags
    messages = {o[1] for o in outcomes if o[0] is ShapeNotRecognizedError}
    assert {
        "empty constraint set",
        "constraints are not complete marginals",
        "marginal covers every attribute",
        "degenerate marginal complement",
        "full-domain secrets support a single marginal",
        "marginals share attributes",
        "distance threshold must be positive",
        "constraint is not a rectangle",
        "rectangles overlap",
        "no specialization for partition secrets",
        "no specialization for explicit secrets",
    } <= messages
    assert (ValueError, "policy has no general constraints") in outcomes


# -- brute force oracle ----------------------------------------------------------


def test_brute_force_unconstrained_histogram():
    dom = line_domain(3)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    res = brute_force_sensitivity(HistogramQuery(), pol, 2)
    assert res.value == 2 and res.exactness is Exactness.EXACT
    assert res.value == closed_form_sensitivity(HistogramQuery(), pol).value


def test_brute_force_swap_instance():
    # the spec's example states 4 here, but the complete histogram is
    # invariant under the only neighbors (the two-tuple swap); 4 is the
    # engine bound, which we assert separately (see decisions ledger)
    dom = line_domain(2)
    q = CountQuery.where(dom, {"x": ["1"]}, answer=1)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([q]))
    oracle = brute_force_sensitivity(HistogramQuery(), pol, 2)
    assert oracle.value == 0
    engine = sparse_constraint_sensitivity(pol)
    assert engine.value == 4
    assert oracle.value <= engine.value


def test_brute_force_partition_aligned_zero():
    dom = line_domain(4)
    g = SecretGraph.partition(dom, [[0, 1], [2, 3]])
    pol = Policy(dom, g, ConstraintSet.none())
    query = PartitionHistogramQuery((0, 0, 1, 1))
    assert brute_force_sensitivity(query, pol, 2).value == 0


def test_query_deltas_match_loop():
    # every neighbor pair of random tiny policies, for all six query kinds:
    # the array function gives the per-pair loop's floats bit for bit
    rng = np.random.default_rng(29)
    kinds = ("full", "attribute", "partition", "distance", "explicit")
    covered, pairs = set(), 0
    for trial in range(120):
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
        n = int(rng.integers(1, 4))
        public = trial % 6 == 3
        if public:
            # a public count per point: every neighbor permutes the tuples,
            # and a 3-cycle changes three ids, where the order of a sum shows
            sizes, n = [int(rng.integers(3, 5))], 3
        dom = grid_domain(*sizes)
        if dom.size**n > 81:
            continue
        g = random_secret_graph(rng, dom, kinds[trial % 5])
        constraints = ConstraintSet.none()
        if trial % 2:
            # answers read off one database keep the constraints satisfiable
            db = [unrank(dom, int(r)) for r in rng.integers(0, dom.size, size=n)]
            rects = [random_rectangle(rng, dom) for _ in range(int(rng.integers(1, 4)))]
            if public:
                rects = [CountQuery(tuple(frozenset({v}) for v in unrank(dom, r))) for r in range(dom.size)]
            constraints = ConstraintSet.of([CountQuery(q.allowed, sum(matches(q, x) for x in db)) for q in rects])
        pol = Policy(dom, g, constraints)
        ncells = int(rng.integers(1, dom.size + 1))
        # weights of unlike magnitudes, so that sums in another order round
        # differently
        weights = rng.uniform(-3, 3, size=n) * 10.0 ** rng.integers(-6, 7, size=n)
        queries = [
            HistogramQuery(),
            PartitionHistogramQuery(tuple(int(c) for c in rng.integers(-1, ncells, size=dom.size))),
            CumulativeQuery(),
            LinearSumQuery(tuple(float(w) for w in weights), lo=-1.0, hi=float(rng.uniform(0, 5))),
            ClusterSizeQuery(1),
            ClusterSizeQuery(2),
            ClusterSumQuery(1),
            ClusterSumQuery(3),
        ]
        for d1, d2s in neighbor_databases(pol, n):
            for query in queries:
                got = _query_deltas(query, dom, d1, d2s)
                loop = [delta_by_loop(query, dom, tuple(d1.tolist()), d2) for d2 in map(tuple, d2s.tolist())]
                expected = np.array(loop, dtype=np.float64)
                assert got.dtype == np.float64 and got.shape == expected.shape
                assert (got.view(np.uint64) == expected.view(np.uint64)).all(), (sizes, g.kind, n, query)
            pairs += len(d2s)
        covered.add((g.kind.value, constraints.unconstrained))
        covered.add(("size-1", dom.size == 1))
    assert len(covered) == 2 * len(kinds) + 2 and pairs > 1000, (covered, pairs)


def test_brute_force_refuses_bad_arguments():
    dom = line_domain(3)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        brute_force_sensitivity(HistogramQuery(), pol, -1)
    # the query kinds refuse k < 1 when constructed, before any route runs
    for kind, k in ((ClusterSizeQuery, 0), (ClusterSumQuery, -1)):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            kind(k)
    with pytest.raises(ValueError, match="^linear-sum 'weights' needs one weight per tuple: 1 for n = 2$"):
        brute_force_sensitivity(LinearSumQuery((1.0,)), pol, 2)
    with pytest.raises(ValueError, match="^partition query needs one cell id per rank$"):
        brute_force_sensitivity(PartitionHistogramQuery((0, 1)), pol, 2)
    # a weight past the n-th is never read: moving tuple 1 from 0 to 2 is the
    # largest change
    assert brute_force_sensitivity(LinearSumQuery((1.0, -2.0, 9.0)), pol, 2).value == 2.0
    # a database holds n tuples, so n is under the enumeration budget even
    # where one value makes one database; such a domain has no neighbor
    one = line_domain(1)
    lone = Policy(one, SecretGraph.full(one), ConstraintSet.none())
    with pytest.raises(BudgetExceededError):
        brute_force_sensitivity(HistogramQuery(), lone, DEFAULT_ENUM_BUDGET + 1)
    assert brute_force_sensitivity(HistogramQuery(), lone, DEFAULT_ENUM_BUDGET).value == 0.0


def test_brute_force_linear_sums_past_float_range():
    # terms that overflow to inf or meet as inf - inf: an unchanged id adds
    # nothing (not inf * 0), and a NaN pair is passed over as max() does,
    # so the result is the per-pair loop's maximum
    dom = line_domain(3)
    infinite = nans_seen = 0
    for labels in (None, ["0"], ["1", "2"]):
        constraints = ConstraintSet.none()
        if labels:
            constraints = ConstraintSet.of([CountQuery.where(dom, {"x": labels}, answer=1)])
        pol = Policy(dom, SecretGraph.full(dom), constraints)
        for query in (
            LinearSumQuery((math.inf, 1.0)),
            LinearSumQuery((1e308, 1e308), hi=2.0),
            LinearSumQuery((1e308, -1e308), hi=4.0),
            # under x in {1, 2} = 1 each database has one neighbor that
            # moves one id and two that move both ids opposite ways, inf - inf
            LinearSumQuery((math.inf, math.inf), hi=2.0),
        ):
            expected, nans = 0.0, 0
            for d1, d2s in neighbor_databases(pol, 2):
                for d2 in map(tuple, d2s.tolist()):
                    delta = delta_by_loop(query, dom, tuple(d1.tolist()), d2)
                    expected, nans = max(expected, delta), nans + math.isnan(delta)
            assert brute_force_sensitivity(query, pol, 2).value == expected
            infinite += expected == math.inf
            nans_seen += nans
    assert infinite >= 4 and nans_seen, (infinite, nans_seen)


def test_oracle_agreement_sample():
    rng = np.random.default_rng(8)
    kinds = ["full", "attribute", "partition", "distance", "explicit"]
    for trial in range(20):
        sizes = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        dom = grid_domain(*sizes)
        if dom.size > 6:
            dom = grid_domain(sizes[0])
        kind = kinds[trial % 5]
        if kind == "full":
            g = SecretGraph.full(dom)
        elif kind == "attribute":
            g = SecretGraph.attribute(dom)
        elif kind == "partition":
            groups = {}
            for r in range(dom.size):
                groups.setdefault(int(rng.integers(2)), []).append(r)
            g = SecretGraph.partition(dom, [v for v in groups.values() if v])
        elif kind == "distance":
            g = SecretGraph.distance(dom, int(rng.integers(0, dom.diameter() + 1)))
        else:
            pairs = list(itertools.combinations(range(dom.size), 2))
            take = int(rng.integers(0, len(pairs) + 1))
            idx = rng.choice(len(pairs), size=take, replace=False) if take else []
            g = SecretGraph.explicit(dom, [pairs[i] for i in idx])
        pol = Policy(dom, g, ConstraintSet.none())
        n = int(rng.integers(1, 4))
        for query in (HistogramQuery(), CumulativeQuery(), ClusterSumQuery(2)):
            cf = closed_form_sensitivity(query, pol).value
            bf = brute_force_sensitivity(query, pol, n).value
            assert math.isclose(cf, bf, rel_tol=1e-9, abs_tol=1e-12), (kind, query, sizes, n)


def test_policy_sensitivity_dispatch_matches_engines():
    # every method name gives the direct engine call's result or error, on
    # the data/ policies and on random tiny policies of all five graph kinds
    data = Path(__file__).resolve().parent.parent / "data"
    abc = load_domain((data / "domain_abc.json").read_text())
    cases = [
        (load_policy((data / name).read_text(), abc), 2)
        for name in ("policy_marginal.json", "policy_distance.json")
    ]
    rng = np.random.default_rng(41)
    kinds = ("full", "attribute", "partition", "distance", "explicit")
    for trial in range(40):
        dom = grid_domain(*(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))))
        n = int(rng.integers(1, 3))
        constraints = ConstraintSet.none()
        if trial % 2:
            db = rng.integers(0, dom.size, size=n)
            rects = [random_rectangle(rng, dom) for _ in range(int(rng.integers(1, 3)))]
            answers = [sum(matches(q, unrank(dom, int(r))) for r in db) for q in rects]
            constraints = ConstraintSet.of([CountQuery(q.allowed, a) for q, a in zip(rects, answers)])
        cases.append((Policy(dom, random_secret_graph(rng, dom, kinds[trial % 5]), constraints), n))
    refusal = (ValueError, "constrained sensitivity is only supported for the complete histogram")
    answered = set()
    for pol, n in cases:
        size = pol.domain.size
        queries = [
            HistogramQuery(),
            PartitionHistogramQuery(tuple(int(c) for c in rng.integers(0, 2, size=size))),
            CumulativeQuery(),
            LinearSumQuery(tuple(float(w) for w in rng.uniform(-2, 2, size=n))),
            ClusterSizeQuery(int(rng.integers(1, 3))),
            ClusterSumQuery(int(rng.integers(1, 3))),
        ]
        for query in queries:
            direct = {
                "closed": _outcome(closed_form_sensitivity, query, pol),
                "sparse": _outcome(sparse_constraint_sensitivity, pol),
                "specialized": _outcome(specialized_constraint_sensitivity, pol),
                "oracle": _outcome(brute_force_sensitivity, query, pol, n),
            }
            if not isinstance(query, HistogramQuery):
                direct["sparse"] = direct["specialized"] = refusal
            direct["auto"] = direct["closed" if pol.constraints.unconstrained else "sparse"]
            for method, want in direct.items():
                got = _outcome(policy_sensitivity, query, pol, method, n)
                assert got == want, (method, query, pol.describe(), n)
                if not isinstance(got[0], type):
                    answered.add(method)
            assert _outcome(policy_sensitivity, query, pol) == direct["auto"]
        with pytest.raises(ValueError, match="^unknown method 'exact'$"):
            policy_sensitivity(HistogramQuery(), pol, "exact")
    assert answered == {"auto", "closed", "sparse", "specialized", "oracle"}, answered


def test_distance_at_the_diameter_answers_as_the_full_graph():
    # theta at or past the diameter gives the full graph's edges, so the
    # closed forms, the sparse engine, the specialized shapes and the oracle
    # give the full graph's result or error, unconstrained, under answered
    # rectangles and under marginals
    rng = np.random.default_rng(28)
    answered = set()
    checked = 0
    while checked < 20:
        dom = grid_domain(*(int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 4)))))
        if dom.size > 12:
            continue
        checked += 1
        n = int(rng.integers(1, 3))
        db = rng.integers(0, dom.size, size=n)
        rects = [random_rectangle(rng, dom) for _ in range(int(rng.integers(1, 4)))]
        answers = [sum(matches(q, unrank(dom, int(r))) for r in db) for q in rects]
        queries = [
            HistogramQuery(),
            PartitionHistogramQuery(tuple(int(c) for c in rng.integers(0, 2, size=dom.size))),
            CumulativeQuery(),
            LinearSumQuery(tuple(float(w) for w in rng.uniform(-2, 2, size=n))),
            ClusterSizeQuery(2),
            ClusterSumQuery(int(rng.integers(1, 3))),
        ]
        routes = [
            (ConstraintSet.none(), ("closed", "oracle"), queries),
            (ConstraintSet.cardinality_only(), ("closed",), queries),
            (ConstraintSet.of([CountQuery(q.allowed, a) for q, a in zip(rects, answers)]), ("sparse", "specialized", "oracle"), queries[:1]),
            (ConstraintSet.of(_random_marginals(rng, dom)), ("specialized",), queries[:1]),
        ]
        for theta in (dom.diameter(), dom.diameter() + 3):
            for constraints, methods, route_queries in routes:
                full = Policy(dom, SecretGraph.full(dom), constraints)
                distance = Policy(dom, SecretGraph.distance(dom, theta), constraints)
                for query, method in itertools.product(route_queries, methods):
                    want = _outcome(policy_sensitivity, query, full, method, n)
                    assert _outcome(policy_sensitivity, query, distance, method, n) == want, (dom.sizes, theta, query, method)
                    if not isinstance(want[0], type):
                        answered.add(method)
    assert answered == {"closed", "sparse", "specialized", "oracle"}
