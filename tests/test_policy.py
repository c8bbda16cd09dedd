import itertools
import tracemalloc

import numpy as np
import pytest

from blowfish import (
    BudgetExceededError,
    ConstraintSet,
    CountQuery,
    InfeasibleConstraintsError,
    Policy,
    SecretGraph,
    build_policy_graph,
    check_parallel_decomposition,
    enumerate_databases,
    load_domain,
    load_policy,
)

from blowfish.policy import _ball_size, iter_graph_edges, match_matrix, neighbor_databases
from oracles import (
    critical_pairs_by_loop,
    is_edge,
    match_matrix_by_isin,
    matches,
    neighbors_by_definition,
    parallel_decomposition_by_loop,
    random_rectangle,
    random_secret_graph,
    rank,
    unrank,
)

GRAPH_KINDS = ("full", "attribute", "partition", "distance", "explicit")


def line_domain(size, name="x"):
    return load_domain({"attributes": [{"name": name, "values": [str(i) for i in range(size)], "ordinal": True}]})


def grid_domain(*sizes):
    attrs = [{"name": f"A{i}", "values": [f"v{j}" for j in range(s)]} for i, s in enumerate(sizes)]
    return load_domain({"attributes": attrs})


# -- edges ------------------------------------------------------------------


def test_is_edge_examples():
    dom = grid_domain(2, 2)
    full = SecretGraph.full(dom)
    assert is_edge(full, (0, 0), (1, 1))
    assert not is_edge(full, (0, 0), (0, 0))

    attr = SecretGraph.attribute(dom)
    assert is_edge(attr, (0, 0), (0, 1))
    assert not is_edge(attr, (0, 0), (1, 1))

    line = line_domain(5)
    g1 = SecretGraph.distance(line, 1)
    assert is_edge(g1, (0,), (1,))
    assert not is_edge(g1, (0,), (2,))


def test_is_edge_symmetric_and_irreflexive():
    rng = np.random.default_rng(3)
    dom = grid_domain(2, 3)
    graphs = [
        SecretGraph.full(dom),
        SecretGraph.attribute(dom),
        SecretGraph.distance(dom, 2),
        SecretGraph.partition(dom, [[0, 1, 2], [3, 4, 5]]),
        SecretGraph.explicit(dom, [(0, 3), (1, 4), (2, 5)]),
    ]
    for g in graphs:
        for _ in range(50):
            x = unrank(dom, int(rng.integers(dom.size)))
            y = unrank(dom, int(rng.integers(dom.size)))
            assert is_edge(g, x, y) == is_edge(g, y, x)
            assert not is_edge(g, x, x)


def test_iter_graph_edges_matches_is_edge():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
        dom = grid_domain(*sizes)
        if dom.size > 24:
            continue
        checked += 1
        points = [unrank(dom, r) for r in range(dom.size)]
        graphs = [random_secret_graph(rng, dom, kind) for kind in GRAPH_KINDS]
        graphs += [
            SecretGraph.distance(dom, 0),
            SecretGraph.distance(dom, dom.diameter() + 1),
            SecretGraph.explicit(dom, []),
        ]
        for g in graphs:
            got = iter_graph_edges(g)
            assert got.dtype == np.int64 and got.shape == (len(got), 2)
            expected = [
                [x, y]
                for x in range(dom.size)
                for y in range(dom.size)
                if is_edge(g, points[x], points[y])
            ]
            assert got.tolist() == expected, (sizes, g.kind, g.theta)


def test_adjacent_matches_is_edge():
    rng = np.random.default_rng(29)
    domains = [grid_domain(1), grid_domain(1, 1, 1)]
    while len(domains) < 60:
        dom = grid_domain(*[int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))])
        if dom.size <= 32:
            domains.append(dom)
    for dom in domains:
        points = [unrank(dom, r) for r in range(dom.size)]
        ranks = np.arange(dom.size)
        graphs = [random_secret_graph(rng, dom, kind) for kind in GRAPH_KINDS]
        graphs += [SecretGraph.distance(dom, theta) for theta in range(dom.diameter() + 2)]
        graphs.append(SecretGraph.explicit(dom, []))
        for g in graphs:
            expected = [[is_edge(g, points[x], points[y]) for y in ranks] for x in ranks]
            got = g.adjacent(ranks[:, None], ranks)
            assert got.shape == (dom.size, dom.size) and got.tolist() == expected, (dom.sizes, g.kind, g.theta)
            x, y = (int(r) for r in rng.integers(dom.size, size=2))
            assert g.adjacent(x, y) == expected[x][y]


def test_cells_and_edges_are_read_only_int64_arrays():
    dom = grid_domain(2, 3)
    part = SecretGraph.partition(dom, [[5, 0], [1, 2, 3, 4]])
    assert part.cells.dtype == np.int64 and part.cells.tolist() == [0, 1, 1, 1, 1, 0]
    g = SecretGraph.explicit(dom, [(4, 1), (0, 3), (1, 4), (0, 2)])
    assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 2], [0, 3], [1, 4]]
    for arr in (part.cells, g.edges):
        with pytest.raises(ValueError):
            arr[0] = 1
    # an edge is a pair: a triple or a one-rank row is refused, not reshaped
    for bad in ([(0, 1, 2), (3, 4, 5)], [(0, 1), (2,)]):
        with pytest.raises(ValueError):
            SecretGraph.explicit(dom, bad)


def test_max_rank_gap_matches_edges():
    rng = np.random.default_rng(23)
    kinds = set()
    for _ in range(300):
        sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 4)))]
        dom = grid_domain(*sizes)
        graphs = [random_secret_graph(rng, dom, kind) for kind in GRAPH_KINDS]
        graphs += [
            SecretGraph.distance(dom, 0),
            SecretGraph.partition(dom, [[r] for r in range(dom.size)]),
            SecretGraph.explicit(dom, []),
        ]
        for g in graphs:
            pairs = iter_graph_edges(g)
            expected = int(np.abs(pairs[:, 0] - pairs[:, 1]).max()) if len(pairs) else 0
            assert g.max_rank_gap() == expected, (sizes, g.kind, g.theta, g.cells)
            assert g.has_any_edge() == (len(pairs) > 0)
            kinds.add((g.kind, expected > 0))
    assert len(kinds) == 2 * len(GRAPH_KINDS)


def test_ball_edges_match_adjacent_and_count():
    # full and distance graphs are one walk over the L1 ball; its budget
    # count holds the pairs x = y too, and is never more than the |T|**2 or
    # size * min(size, 2 theta + 1) counted before the walk
    rng = np.random.default_rng(31)
    domains = [grid_domain(1), grid_domain(5, 1), grid_domain(1, 3, 1, 4)]
    while len(domains) < 30:
        dom = grid_domain(*[int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5)))])
        if dom.size <= 400:
            domains.append(dom)
    for dom in domains:
        ranks = np.arange(dom.size)
        for theta in [*range(dom.diameter() + 2), 10**30, None]:
            g = SecretGraph.full(dom) if theta is None else SecretGraph.distance(dom, theta)
            got = iter_graph_edges(g)
            assert got.dtype == np.int64 and np.array_equal(got, np.argwhere(g.adjacent(ranks[:, None], ranks)))
            count = _ball_size(dom, dom.diameter() if theta is None else min(theta, dom.diameter()))
            assert count == len(got) + dom.size, (dom.sizes, theta)
            one_band = theta is not None and dom.n_attributes == 1
            assert count <= (dom.size * min(dom.size, 2 * theta + 1) if one_band else dom.size**2)


def test_ball_edges_refused_before_allocating():
    # 4,473**2 pairs are just over the budget; the count comes from the
    # attribute sizes, so the refusal builds nothing near the ball's 320 MB
    g = SecretGraph.full(line_domain(4473))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"^edge iteration would visit ~20007729 pairs, budget is 20000000$"):
            iter_graph_edges(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_iter_graph_edges_distance_at_diameter_128():
    # theta at the diameter and one below it, for diameters 128 and 127
    for sizes in ((128, 2), (127, 2)):
        dom = grid_domain(*sizes)
        points = [unrank(dom, r) for r in range(dom.size)]
        coords = np.array(points, dtype=np.int64)
        dist = np.abs(coords[:, None] - coords[None]).sum(-1)
        for theta in (dom.diameter(), dom.diameter() - 1):
            g = SecretGraph.distance(dom, theta)
            # the oracle decides every pair at theta and theta + 1, the
            # distances an int8 sum wrapped
            for x, y in np.argwhere((dist == theta) | (dist == theta + 1)).tolist():
                assert is_edge(g, points[x], points[y]) == (dist[x, y] <= theta), (sizes, theta, x, y)
            expected = np.argwhere((dist <= theta) & ~np.eye(dom.size, dtype=bool)).tolist()
            assert iter_graph_edges(g).tolist() == expected, (sizes, theta)
            assert np.argwhere(g.adjacent(np.arange(dom.size)[:, None], np.arange(dom.size))).tolist() == expected
    # the corner-to-corner pair is the only edge joining the two point queries
    dom = grid_domain(128, 2)
    corners = [CountQuery.rectangle(dom, {"A0": (v, v), "A1": (w, w)}, answer=0) for v, w in ((0, 0), (127, 1))]
    pg = build_policy_graph(ConstraintSet.of(corners), SecretGraph.distance(dom, 128))
    far = rank(dom, (127, 1))
    witness = dict(pg.witnesses)
    assert witness[0, 1] == (0, far) and witness[1, 0] == (far, 0)


# -- constraints and policy files ---------------------------------------------


def test_count_query_matching():
    dom = grid_domain(2, 3)
    q = CountQuery.from_labels(dom, {"A0": ["v1"]}, answer=2)
    assert matches(q, (1, 0)) and matches(q, (1, 2))
    assert not matches(q, (0, 0))
    assert q.support_size(dom) == 3
    rect = CountQuery.rectangle(dom, {"A1": (0, 1)})
    assert rect.is_rectangle() and rect.support_size(dom) == 4
    point = CountQuery.rectangle(dom, {"A0": (1, 1), "A1": (2, 2)})
    assert point.support_size(dom) == 1
    with pytest.raises(ValueError):
        CountQuery.rectangle(dom, {"A1": (2, 5)})


def test_match_matrix_matches_isin():
    rng = np.random.default_rng(11)
    for _ in range(60):
        dom = grid_domain(*rng.integers(1, 6, int(rng.integers(1, 4))))
        queries = []
        for _ in range(int(rng.integers(0, 5))):
            allowed = []
            for attr in dom.attributes:
                if rng.random() < 0.3:
                    allowed.append(None)
                    continue
                # indices in range, past the end and negative (no wrap-around)
                picks = rng.integers(-attr.size - 2, attr.size + 3, int(rng.integers(1, 5)))
                allowed.append(frozenset(int(v) for v in picks))
            queries.append(CountQuery(tuple(allowed)))
        queries.append(random_rectangle(rng, dom))
        got = match_matrix(queries, dom)
        assert got.dtype == bool and got.shape == (len(queries), dom.size)
        assert (got == match_matrix_by_isin(queries, dom)).all()
    dom = grid_domain(3, 4)
    for allowed, hits in [
        ((frozenset({-1}), None), 0),
        ((frozenset({-3, 3, 7}), None), 0),
        ((frozenset({-1, 2}), frozenset({4, 0})), 1),
        ((None, frozenset({-4, -1, 3})), 3),
    ]:
        row = match_matrix([CountQuery(allowed)], dom)[0]
        assert row.sum() == hits
        assert (row == match_matrix_by_isin([CountQuery(allowed)], dom)[0]).all()
    assert match_matrix([], dom).shape == (0, dom.size)


def test_load_policy_round_trip():
    dom = grid_domain(2, 3)
    pol = load_policy(
        {
            "graph": {"kind": "distance", "theta": 2},
            "constraints": {
                "kind": "general",
                "queries": [
                    {"where": {"A0": ["v0"]}, "answer": 1},
                    {"where": {"A1": {"range": [0, 1]}}},
                ],
            },
        },
        dom,
    )
    assert pol.graph.theta == 2
    assert len(pol.constraints.queries) == 2
    assert pol.constraints.queries[0].answer == 1
    assert pol.constraints.queries[1].answer is None
    assert pol.describe() == "distance(theta=2)|general(q=2)"

    unconstrained = load_policy({"graph": {"kind": "full"}}, dom)
    assert unconstrained.constraints.unconstrained

    with pytest.raises(ValueError):
        load_policy({"graph": {"kind": "banana"}}, dom)
    with pytest.raises(ValueError):
        load_policy("{bad json", dom)


@pytest.mark.parametrize("value", ["1e400", "-1e400", "NaN", "1.9", "0.5", "true"])
def test_policy_integers_are_whole_numbers(value):
    # a JSON number that is no whole number would truncate or overflow in
    # int(), and int(true) is 1; each field refuses these by name
    dom = grid_domain(2, 3)
    specs = {
        "distance graph 'theta' must be an integer": '{"graph": {"kind": "distance", "theta": %s}}',
        "constraint 'answer' must be an integer or null":
            '{"graph": {"kind": "full"}, "constraints": [{"where": {"A0": ["v0"]}, "answer": %s}]}',
        "selection of 'A1' 'range' must be a list of integers":
            '{"graph": {"kind": "full"}, "constraints": [{"where": {"A1": {"range": [0, %s]}}}]}',
        "partition graph 'cells' must be a list of lists of integers":
            '{"graph": {"kind": "partition", "cells": [[0, 1, 2, 3, 4], [5, %s]]}}',
        "explicit graph 'edges' must be a list of lists of integers":
            '{"graph": {"kind": "explicit", "edges": [[0, 1], [%s, 2]]}}',
    }
    for message, spec in specs.items():
        with pytest.raises(ValueError, match=f"^{message}, got "):
            load_policy(spec % value, dom)
    whole = load_policy('{"graph": {"kind": "distance", "theta": 2.0}}', dom)
    assert whole.graph.theta == 2 and isinstance(whole.graph.theta, int)


def test_policy_kinds_are_strings_and_keep_their_queries():
    dom = grid_domain(2, 3)
    query = [{"where": {"A0": ["v0"]}, "answer": 1}]
    refusals = {
        "^policy constraints 'kind' must be a string, got None$": {"kind": None, "queries": query},
        "^policy constraints 'kind' must be a string, got 3$": {"kind": 3},
        "^policy constraints of kind 'none' take no 'queries' field$": {"kind": "none", "queries": query},
        "^policy constraints of kind 'cardinality' take no 'queries' field$": {"kind": "Cardinality", "queries": []},
    }
    for message, constraints in refusals.items():
        with pytest.raises(ValueError, match=message):
            load_policy({"graph": {"kind": "full"}, "constraints": constraints}, dom)
    for graph in ({"kind": None}, {"kind": ["full"]}, {}):
        with pytest.raises(ValueError, match="^policy graph 'kind' must be a string, got "):
            load_policy({"graph": graph}, dom)
    general = load_policy({"graph": {"kind": "Full"}, "constraints": {"queries": query}}, dom)
    assert general.describe() == "full|general(q=1)"


# -- neighbor enumeration -----------------------------------------------------


def neighbor_pairs(policy, n):
    """Every ordered neighbor pair (d1, d2) from ``neighbor_databases``, as
    tuples of ranks."""
    pairs = set()
    for d1, d2s in neighbor_databases(policy, n):
        assert d1.shape == (n,) and d2s.shape == (len(d2s), n) and d2s.dtype == np.int64
        pairs.update((tuple(d1.tolist()), d2) for d2 in map(tuple, d2s.tolist()))
    return pairs


def test_neighbors_single_tuple_two_values():
    dom = line_domain(2)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    assert neighbor_pairs(pol, 1) == {((0,), (1,)), ((1,), (0,))}


def test_neighbors_swap_under_count_constraint():
    dom = line_domain(2)
    q = CountQuery.from_labels(dom, {"x": ["1"]}, answer=1)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([q]))
    pairs = neighbor_pairs(pol, 2)
    assert pairs == {((0, 1), (1, 0)), ((1, 0), (0, 1))}
    # each pair swaps both tuples: two secret pairs, four changed (id, value) tuples
    assert all(sum(a != b for a, b in zip(d1, d2)) == 2 for d1, d2 in pairs)


def test_partition_cross_pair_not_neighbor():
    dom = line_domain(4)
    part = SecretGraph.partition(dom, [[0, 1], [2, 3]])
    pol = Policy(dom, part, ConstraintSet.none())
    pairs = neighbor_pairs(pol, 1)
    assert ((0,), (2,)) not in pairs
    assert ((0,), (1,)) in pairs


def test_unconstrained_neighbors_equal_direct_construction():
    rng = np.random.default_rng(5)
    dom = grid_domain(2, 3)
    graphs = [
        SecretGraph.full(dom),
        SecretGraph.attribute(dom),
        SecretGraph.distance(dom, 2),
        SecretGraph.partition(dom, [[0, 1, 2], [3, 4, 5]]),
    ]
    for g in graphs:
        pol = Policy(dom, g, ConstraintSet.none())
        n = int(rng.integers(1, 3))
        got = neighbor_pairs(pol, n)
        points = [unrank(dom, r) for r in range(dom.size)]
        expected = set()
        for db in itertools.product(range(dom.size), repeat=n):
            for i in range(n):
                for v in range(dom.size):
                    if is_edge(g, points[db[i]], points[v]):
                        other = list(db)
                        other[i] = v
                        expected.add((db, tuple(other)))
        assert got == expected


def test_neighbors_match_independent_validator():
    dom = grid_domain(2, 2)
    g = SecretGraph.attribute(dom)
    queries = [
        CountQuery.from_labels(dom, {"A0": ["v0"]}, answer=1),
        CountQuery.from_labels(dom, {"A0": ["v1"]}, answer=1),
    ]
    pol = Policy(dom, g, ConstraintSet.of(queries))
    assert neighbor_pairs(pol, 2) == neighbors_by_definition(pol, 2)

    line = line_domain(4)
    pol2 = Policy(
        line,
        SecretGraph.distance(line, 2),
        ConstraintSet.of([CountQuery.rectangle(line, {"x": (1, 2)}, answer=1)]),
    )
    assert neighbor_pairs(pol2, 2) == neighbors_by_definition(pol2, 2)


def test_neighbors_match_definition_on_random_policies():
    rng = np.random.default_rng(11)
    checked = {kind: 0 for kind in GRAPH_KINDS}
    swaps = 0
    for trial in range(150):
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
        dom = grid_domain(*sizes)
        n = int(rng.integers(1, 4))
        if dom.size**n > 64:
            continue
        g = random_secret_graph(rng, dom, GRAPH_KINDS[trial % 5])
        # answers read off one database keep the constraints satisfiable
        db = [unrank(dom, int(r)) for r in rng.integers(0, dom.size, size=n)]
        queries = []
        for _ in range(int(rng.integers(0, 4))):
            q = random_rectangle(rng, dom)
            queries.append(CountQuery(q.allowed, sum(matches(q, x) for x in db)))
        pol = Policy(dom, g, ConstraintSet.of(queries))
        pairs = neighbor_pairs(pol, n)
        assert pairs == neighbors_by_definition(pol, n), (sizes, g, queries, n)
        checked[g.kind.value] += 1
        # neighbors that change several tuples are where minimality bites
        swaps += any(sum(a != b for a, b in zip(d1, d2)) > 1 for d1, d2 in pairs)
    assert min(checked.values()) >= 10 and swaps >= 10, (checked, swaps)


def test_enumeration_errors():
    dom = line_domain(10)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    with pytest.raises(BudgetExceededError):
        enumerate_databases(pol, 7)
    q = CountQuery.from_labels(dom, {"x": ["0"]}, answer=5)
    infeasible = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([q]))
    with pytest.raises(InfeasibleConstraintsError):
        enumerate_databases(infeasible, 2)


# -- parallel decomposition ---------------------------------------------------


def test_parallel_decomposition_disconnected_components():
    dom = grid_domain(2, 2)
    # cells aligned with A0: counting either side never crosses an edge
    part = SecretGraph.partition(dom, [[0, 1], [2, 3]])
    q_s = CountQuery.from_labels(dom, {"A0": ["v0"]}, answer=1)
    q_rest = CountQuery.from_labels(dom, {"A0": ["v1"]}, answer=1)
    pol = Policy(dom, part, ConstraintSet.of([q_s, q_rest]))
    assert check_parallel_decomposition(pol, [{0}, {1}], n=2)


def test_parallel_decomposition_marginal_full_graph_fails():
    dom = grid_domain(2, 2)
    g = SecretGraph.full(dom)
    q_m = CountQuery.from_labels(dom, {"A0": ["v0"]}, answer=1)
    q_f = CountQuery.from_labels(dom, {"A0": ["v1"]}, answer=1)
    pol = Policy(dom, g, ConstraintSet.of([q_m, q_f]))
    assert not check_parallel_decomposition(pol, [{0}, {1}], n=2)
    # a single non-empty subset is fine
    assert check_parallel_decomposition(pol, [{0, 1}], n=2)


def test_parallel_decomposition_cardinality_only():
    dom = grid_domain(2, 2)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.cardinality_only())
    assert check_parallel_decomposition(pol, [{0}, {1}, {2}], n=3)
    with pytest.raises(ValueError):
        check_parallel_decomposition(pol, [{0, 1}, {1, 2}], n=3)


def test_parallel_decomposition_past_edge_budget():
    # one 5000-rank cell has 25M candidate pairs, over the 20M edge budget;
    # the crossing rule reads the match row, not the edges
    dom = line_domain(5000)
    g = SecretGraph.partition(dom, [range(5000)])
    with pytest.raises(BudgetExceededError):
        iter_graph_edges(g)
    q = CountQuery.from_labels(dom, {"x": ["0"]}, answer=1)
    pol = Policy(dom, g, ConstraintSet.of([q]))
    assert not check_parallel_decomposition(pol, [{0}, {1}], n=2)
    assert check_parallel_decomposition(pol, [{0, 1}], n=2)


def test_neighbors_past_dense_edge_matrix():
    # 5000**2 rank pairs are over the edge budget; one d1's rows of the
    # edge rule are not
    dom = line_domain(5000)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.none())
    d1, d2s = next(neighbor_databases(pol, 1))
    assert d1.tolist() == [0] and d2s.tolist() == [[r] for r in range(1, 5000)]


def test_parallel_decomposition_matches_critical_pair_loop():
    rng = np.random.default_rng(23)
    for trial in range(100):
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        dom = grid_domain(*sizes)
        g = random_secret_graph(rng, dom, GRAPH_KINDS[trial % 5])
        n = int(rng.integers(1, 4))
        queries = [
            random_rectangle(rng, dom, None if rng.random() < 0.2 else int(rng.integers(0, n + 2)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        pol = Policy(dom, g, ConstraintSet.of(queries))
        for q in queries:
            alone = Policy(dom, g, ConstraintSet.of([q]))
            assert check_parallel_decomposition(alone, [{0}, {1}], n=n) == (not critical_pairs_by_loop(pol, q, n))
        for subsets in ([{0}, {1}], [{0, 1}], [{0}, set(), {1, 2}], [set(), {0}]):
            got = check_parallel_decomposition(pol, subsets, n=n)
            assert got == parallel_decomposition_by_loop(pol, subsets, n), (sizes, g.kind, n)
