import itertools
import tracemalloc
from pathlib import Path

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

from blowfish.policy import GraphKind, _signatures, iter_graph_edges, match_matrix, neighbor_databases, signature_edges
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
    signature_edges_by_loop,
    unrank,
)

GRAPH_KINDS = ("full", "attribute", "partition", "distance", "explicit")
DOMAIN_ABC = Path(__file__).resolve().parents[1] / "data" / "domain_abc.json"


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


def test_ball_edges_refused_before_allocating():
    # 4,473**2 pairs are just over the budget; the count comes from the
    # domain size, so the refusal builds nothing near the scan's 320 MB
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
    corners = [CountQuery.where(dom, {"A0": range(v, v + 1), "A1": range(w, w + 1)}, answer=0) for v, w in ((0, 0), (127, 1))]
    pg = build_policy_graph(ConstraintSet.of(corners), SecretGraph.distance(dom, 128))
    far = rank(dom, (127, 1))
    witness = dict(pg.witnesses)
    assert witness[0, 1] == (0, far) and witness[1, 0] == (far, 0)


def _complete_graphs(rng, count, max_size):
    """(domain, [full, distance at the diameter, distance 3 past it]) on
    random domains of 1 to 3 attributes of 1 to 5 values."""
    while count:
        dom = grid_domain(*[int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 4)))])
        if dom.size <= max_size:
            count -= 1
            yield dom, [SecretGraph.full(dom), *(SecretGraph.distance(dom, dom.diameter() + extra) for extra in (0, 3))]


def test_distance_at_the_diameter_is_the_full_graph():
    rng = np.random.default_rng(28)
    for dom, (full, *distance) in _complete_graphs(rng, 60, 125):
        ranks = np.arange(dom.size)
        assert full.theta == dom.diameter()
        for g in distance:
            assert np.array_equal(g.adjacent(ranks[:, None], ranks), full.adjacent(ranks[:, None], ranks))
            assert g.max_rank_gap() == full.max_rank_gap() == dom.size - 1
            assert g.max_edge_l1() == full.max_edge_l1() == dom.diameter()
            assert np.array_equal(iter_graph_edges(g), iter_graph_edges(full))
            for _ in range(3):
                match = rng.random((int(rng.integers(1, 4)), dom.size)) < 0.5
                assert np.array_equal(signature_edges(g, match), signature_edges(full, match))


def test_signature_edges_equal_the_loop_over_rank_pairs():
    # each kind's neighbour-set rule finds the first edge between two
    # signatures; the same edges as an explicit graph take the stored edge
    # list, and the loop over every rank pair finds the same
    rng = np.random.default_rng(29)
    for dom, complete in _complete_graphs(rng, 40, 30):
        graphs = [*complete, *(random_secret_graph(rng, dom, kind) for kind in ("partition", "attribute"))]
        if dom.diameter() > 1:
            graphs.append(SecretGraph.distance(dom, int(rng.integers(1, dom.diameter()))))
        for g in graphs:
            ranks = np.arange(dom.size)
            listed = SecretGraph.explicit(dom, np.argwhere(np.triu(g.adjacent(ranks[:, None], ranks))).tolist())
            for _ in range(3):
                match = rng.random((int(rng.integers(1, 4)), dom.size)) < 0.5
                expected = signature_edges_by_loop(g, match)
                for h in (g, listed):
                    got = signature_edges(h, match)
                    assert got.dtype.kind == "i" and got.tolist() == expected, (dom.sizes, g.kind, g.theta, h.kind)


def test_reaches_matches_the_adjacency_matrix():
    # a rank reaches a set when it lies outside it and some edge joins it to
    # a rank of the set; every kind, theta 0 to past the diameter, and sets
    # that are empty, whole or a single rank
    rng = np.random.default_rng(37)
    domains = [grid_domain(1), grid_domain(1, 1, 1), grid_domain(5, 1), grid_domain(1, 3, 1, 4)]
    while len(domains) < 60:
        dom = grid_domain(*[int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 5)))])
        if dom.size <= 200:
            domains.append(dom)
    for dom in domains:
        ranks = np.arange(dom.size)
        graphs = [random_secret_graph(rng, dom, kind) for kind in GRAPH_KINDS]
        graphs += [SecretGraph.distance(dom, theta) for theta in (*range(dom.diameter() + 2), 10**30)]
        graphs.append(SecretGraph.explicit(dom, []))
        sets = rng.random((4, dom.size)) < rng.random((4, 1))
        sets = np.vstack([sets, np.zeros(dom.size, bool), np.ones(dom.size, bool), ranks == rng.integers(dom.size)])
        for g in graphs:
            adj = g.adjacent(ranks[:, None], ranks)
            expected = (sets[:, :, None] & adj).any(axis=1) & ~sets
            got = g.reaches(sets)
            assert got.dtype == bool and np.array_equal(got, expected), (dom.sizes, g.kind, g.theta)
            assert g.reaches(sets[:0]).shape == (0, dom.size)


@pytest.mark.parametrize("n_queries", [0, 1, 7, 8, 9, 63, 64, 65])
def test_signatures_from_packed_bits_match_unique_columns(n_queries):
    # packed columns number the signatures as np.unique over the bool
    # columns does, at and around every byte boundary; columns are drawn
    # from a small pool, so most signatures repeat, some of them non-adjacent
    rng = np.random.default_rng(31 + n_queries)
    for size in (1, 2, 9, 200):
        for density in (0.1, 0.5, 0.9):
            pool = rng.random((n_queries, int(rng.integers(1, 12)))) < density
            match = pool[:, rng.integers(0, pool.shape[1], size)]
            _, first, sig = np.unique(match.T, axis=0, return_index=True, return_inverse=True)
            got_first, got_sig = _signatures(match)
            assert got_first.tolist() == first.tolist() and got_sig.tolist() == sig.reshape(-1).tolist()


def test_one_rank_domain_has_no_edges():
    for dom in (grid_domain(1), grid_domain(1, 1, 1)):
        for g in (SecretGraph.full(dom), SecretGraph.distance(dom, 0)):
            assert g.theta == 0 and not g.has_any_edge() and g.max_edge_l1() == 0
            assert iter_graph_edges(g).shape == (0, 2) and not g.adjacent(0, 0)
            assert signature_edges(g, np.ones((1, 1), dtype=bool)).shape == (0, 2)


def test_theta_belongs_to_distance_graphs():
    # a complete graph is told by theta reaching the diameter, so no other
    # kind may carry one; a full graph's is the diameter whatever it is given
    dom = grid_domain(2, 3)
    for kind, theta in ((GraphKind.ATTRIBUTE, 3), (GraphKind.DISTANCE, -1)):
        with pytest.raises(ValueError, match=f"^theta must be a distance graph's non-negative threshold, got {theta}$"):
            SecretGraph(dom, kind, theta=theta)
    assert SecretGraph(dom, GraphKind.FULL, theta=1).theta == 3


# -- constraints and policy files ---------------------------------------------


def test_count_query_matching():
    dom = grid_domain(2, 3)
    q = CountQuery.where(dom, {"A0": ["v1"]}, answer=2)
    assert matches(q, (1, 0)) and matches(q, (1, 2))
    assert not matches(q, (0, 0))
    assert q.support_size(dom) == 3
    rect = CountQuery.where(dom, {"A1": range(0, 2)})
    assert rect.is_rectangle() and rect.support_size(dom) == 4
    point = CountQuery.where(dom, {"A0": range(1, 2), "A1": range(2, 3)})
    assert point.support_size(dom) == 1
    with pytest.raises(ValueError):
        CountQuery.where(dom, {"A1": range(2, 6)})


def test_complete_is_theta_at_the_diameter():
    dom = load_domain(DOMAIN_ABC.read_text())  # diameter 4
    one = load_domain({"attributes": [{"name": "v", "values": ["x"]}]})
    graphs = {
        SecretGraph.full(dom): True,
        SecretGraph.distance(dom, 3): False,
        SecretGraph.distance(dom, 4): True,
        SecretGraph.distance(dom, 100): True,
        SecretGraph.attribute(dom): False,
        SecretGraph.partition(dom, [range(12)]): False,
        SecretGraph.attribute(one): True,
        SecretGraph.explicit(one, []): True,
    }
    ranks = np.arange(dom.size)
    for g, complete in graphs.items():
        assert g.complete is complete
        if complete:
            assert (g.adjacent(ranks[:, None], ranks) == (ranks[:, None] != ranks)).all()


def test_answered_lists_the_known_answers():
    dom = load_domain(DOMAIN_ABC.read_text())
    queries = [CountQuery.where(dom, {"A1": ["a1"]}), CountQuery.where(dom, {"A3": range(0, 2)}, 3),
               CountQuery.where(dom, {"A2": ["b2"]}, 0)]
    index, match, answers = Policy(dom, SecretGraph.full(dom), ConstraintSet.of(queries)).answered()
    assert index.tolist() == [1, 2] and answers.dtype == np.int64 and answers.tolist() == [3, 0]
    assert np.array_equal(match, match_matrix(queries[1:], dom))
    index, match, answers = Policy(dom, SecretGraph.full(dom), ConstraintSet.none()).answered()
    assert (index.size, match.shape, answers.size) == (0, (0, 12), 0)


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


def test_where_selections_mix_labels_and_ranges():
    # one query may select labels on one attribute and a range on another
    dom = load_domain(DOMAIN_ABC.read_text())
    where = {"A1": ["a1"], "A3": {"range": [0, 1]}}
    (q,) = load_policy({"graph": {"kind": "full"}, "constraints": [{"where": where, "answer": 1}]}, dom).constraints.queries
    assert q == CountQuery.where(dom, {"A1": ["a1"], "A3": range(0, 2)}, answer=1)
    expected = [matches(q, unrank(dom, r)) for r in range(dom.size)]
    assert match_matrix([q], dom)[0].tolist() == expected
    assert np.flatnonzero(expected).tolist() == [0, 1, 3, 4]


@pytest.mark.parametrize(
    "in_file, in_library", [(["a1"], ["a1"]), ({"range": [0, 1]}, range(0, 2))], ids=["labels", "range"]
)
def test_where_refuses_an_unknown_attribute(in_file, in_library):
    # a misspelled attribute is refused in either form, never dropped
    dom = load_domain(DOMAIN_ABC.read_text())
    policy = {"graph": {"kind": "full"}, "constraints": [{"where": {"Z": in_file}, "answer": 3}]}
    with pytest.raises(ValueError, match=r"^unknown attributes in query: \['Z'\]$"):
        load_policy(policy, dom)
    with pytest.raises(ValueError, match=r"^unknown attributes in query: \['Z'\]$"):
        CountQuery.where(dom, {"Z": in_library})


def test_constraint_answers_are_not_negative():
    dom = grid_domain(2, 3)
    with pytest.raises(ValueError, match="^constraint answer must be at least 0, got -1$"):
        load_policy({"graph": {"kind": "full"}, "constraints": [{"where": {"A0": ["v0"]}, "answer": -1}]}, dom)
    with pytest.raises(ValueError, match="^constraint answer must be at least 0, got -2$"):
        CountQuery((None, None), answer=-2)
    assert CountQuery((None, None), answer=0).answer == 0


def test_constraint_answers_fit_int64():
    # the counts they are compared with are int64, so a larger answer would
    # reach numpy as a Python int too large to convert
    with pytest.raises(ValueError, match=r"^constraint answer must be below 2\*\*63, got 9223372036854775808$"):
        CountQuery((None, None), answer=2**63)
    assert CountQuery((None, None), answer=2**63 - 1).answer == 2**63 - 1


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
    q = CountQuery.where(dom, {"x": ["1"]}, answer=1)
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
        CountQuery.where(dom, {"A0": ["v0"]}, answer=1),
        CountQuery.where(dom, {"A0": ["v1"]}, answer=1),
    ]
    pol = Policy(dom, g, ConstraintSet.of(queries))
    assert neighbor_pairs(pol, 2) == neighbors_by_definition(pol, 2)

    line = line_domain(4)
    pol2 = Policy(
        line,
        SecretGraph.distance(line, 2),
        ConstraintSet.of([CountQuery.where(line, {"x": range(1, 3)}, answer=1)]),
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
    q = CountQuery.where(dom, {"x": ["0"]}, answer=5)
    infeasible = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([q]))
    with pytest.raises(InfeasibleConstraintsError):
        enumerate_databases(infeasible, 2)


# -- parallel decomposition ---------------------------------------------------


def test_parallel_decomposition_disconnected_components():
    dom = grid_domain(2, 2)
    # cells aligned with A0: counting either side never crosses an edge
    part = SecretGraph.partition(dom, [[0, 1], [2, 3]])
    q_s = CountQuery.where(dom, {"A0": ["v0"]}, answer=1)
    q_rest = CountQuery.where(dom, {"A0": ["v1"]}, answer=1)
    pol = Policy(dom, part, ConstraintSet.of([q_s, q_rest]))
    assert check_parallel_decomposition(pol, [{0}, {1}], n=2)


def test_parallel_decomposition_marginal_full_graph_fails():
    dom = grid_domain(2, 2)
    g = SecretGraph.full(dom)
    q_m = CountQuery.where(dom, {"A0": ["v0"]}, answer=1)
    q_f = CountQuery.where(dom, {"A0": ["v1"]}, answer=1)
    pol = Policy(dom, g, ConstraintSet.of([q_m, q_f]))
    assert not check_parallel_decomposition(pol, [{0}, {1}], n=2)
    # a single non-empty subset is fine
    assert check_parallel_decomposition(pol, [{0, 1}], n=2)


def test_parallel_decomposition_works_out_n_from_the_ids():
    # without n the database holds ids 0 to the largest id given: an answer
    # of 3 is critical for three tuples, not for two
    dom = grid_domain(2, 2)
    q = CountQuery.where(dom, {"A0": ["v0"]}, answer=3)
    pol = Policy(dom, SecretGraph.full(dom), ConstraintSet.of([q]))
    assert check_parallel_decomposition(pol, [{0}, {1}]) is check_parallel_decomposition(pol, [{0}, {1}], n=2) is True
    assert check_parallel_decomposition(pol, [{0}, {2}]) is check_parallel_decomposition(pol, [{0}, {2}], n=3) is False
    assert check_parallel_decomposition(pol, [set(), set()]) is True


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
    q = CountQuery.where(dom, {"x": ["0"]}, answer=1)
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
