"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different data structures and
algorithms than the package (sets instead of bitmasks, recursion instead of
subset DP, explicit enumeration instead of closed forms) so agreement is
meaningful.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from enum import Enum
from functools import cache

import numpy as np

from blowfish import (
    ClusterSizeQuery,
    ClusterSumQuery,
    CountQuery,
    CumulativeQuery,
    DomainSpec,
    Exactness,
    HistogramQuery,
    LinearSumQuery,
    Method,
    NonSparseConstraintsError,
    PartitionHistogramQuery,
    Policy,
    SecretGraph,
    SensitivityResult,
    ShapeNotRecognizedError,
    Workload,
)
from blowfish.experiments import _tag
from blowfish.kmeans import ClusteringResult, KmeansConfig, _init_centroids
from blowfish.mechanisms import BudgetLedger, PrivacyParams, add_noise
from blowfish.policy import GraphKind, iter_graph_edges
from blowfish.sensitivity import MAX_POLICY_GRAPH_VERTICES, PolicyGraph

Point = tuple[int, ...]


def validate_point(domain: DomainSpec, point) -> None:
    """Raise ValueError unless ``point`` holds one in-range value index per
    attribute."""
    if len(point) != len(domain.attributes):
        raise ValueError(f"point {point} has {len(point)} indices, expected {len(domain.attributes)}")
    for idx, attr in zip(point, domain.attributes):
        if not 0 <= idx < attr.size:
            raise ValueError(f"index {idx} out of range for attribute {attr.name!r}")


def rank(domain: DomainSpec, point) -> int:
    """Mixed-radix rank of a point, the last attribute varying fastest."""
    validate_point(domain, point)
    out = 0
    for idx, attr in zip(point, domain.attributes):
        out = out * attr.size + idx
    return out


def unrank(domain: DomainSpec, r: int) -> Point:
    """The point of a mixed-radix rank: one value index per attribute."""
    if not 0 <= r < domain.size:
        raise ValueError(f"rank {r} out of range for domain of size {domain.size}")
    out = []
    for attr, w in zip(domain.attributes, domain._weights):
        out.append((r // w) % attr.size)
    return tuple(out)


def l1_distance(x: Point, y: Point) -> int:
    if len(x) != len(y):
        raise ValueError("points come from different domains")
    return sum(abs(a - b) for a, b in zip(x, y))


def matches(q: CountQuery, point) -> bool:
    """Whether a point lies in the query's allowed value sets."""
    return all(s is None or v in s for v, s in zip(point, q.allowed))


def is_edge(g: SecretGraph, x, y) -> bool:
    """Whether (x, y) is a discriminative secret pair, from the points'
    coordinates.  False for x == y."""
    if x == y:
        return False
    validate_point(g.domain, x)
    validate_point(g.domain, y)
    if g.kind is GraphKind.FULL:
        return True
    if g.kind is GraphKind.ATTRIBUTE:
        return sum(1 for a, b in zip(x, y) if a != b) == 1
    if g.kind is GraphKind.PARTITION:
        return g.cells[rank(g.domain, x)] == g.cells[rank(g.domain, y)]
    if g.kind is GraphKind.DISTANCE:
        return l1_distance(x, y) <= g.theta
    rx, ry = rank(g.domain, x), rank(g.domain, y)
    return [min(rx, ry), max(rx, ry)] in g.edges.tolist()


class Effect(str, Enum):
    LIFTS = "Lifts"
    LOWERS = "Lowers"
    NEITHER = "Neither"


def lifts_lowers(pair, q: CountQuery) -> Effect:
    """Effect of changing a tuple from pair[0] to pair[1] on the count query."""
    x, y = pair
    mx, my = matches(q, x), matches(q, y)
    if not mx and my:
        return Effect.LIFTS
    if mx and not my:
        return Effect.LOWERS
    return Effect.NEITHER


def isotonic_by_enumeration(y) -> np.ndarray:
    """Exhaustive minimization over monotone block-mean candidates.

    The L2-nearest non-decreasing vector is piecewise constant with block
    means, so enumerating every split of the sequence into consecutive
    blocks and keeping the cheapest monotone one finds the exact optimum.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    best_cost, best_fit = None, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        edges = [0] + [i for i, c in enumerate(cuts, start=1) if c] + [n]
        means = [y[a:b].mean() for a, b in zip(edges, edges[1:])]
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fit = np.concatenate(
            [np.full(b - a, m) for (a, b), m in zip(zip(edges, edges[1:]), means)]
        )
        cost = float(((fit - y) ** 2).sum())
        if best_cost is None or cost < best_cost:
            best_cost, best_fit = cost, fit
    return best_fit


def isotonic_by_loop(noisy, lower_bound: float | None = None) -> np.ndarray:
    """Pool adjacent violators by rewriting the top two blocks of a list in
    place after each append: the loop that ``isotonic_inference`` replaced,
    whose results it must give bit for bit."""
    y = np.asarray(noisy, dtype=float)
    vals: list[float] = []
    weights: list[int] = []
    for v in y:
        vals.append(float(v))
        weights.append(1)
        while len(vals) >= 2 and vals[-2] > vals[-1]:
            w = weights[-2] + weights[-1]
            merged = (vals[-2] * weights[-2] + vals[-1] * weights[-1]) / w
            vals[-2:] = [merged]
            weights[-2:] = [w]
    out = np.repeat(vals, weights)
    if lower_bound is not None:
        out = np.maximum(out, lower_bound)
    return out


def satisfying_databases(policy: Policy, n: int) -> list[tuple[int, ...]]:
    domain = policy.domain
    points = [unrank(domain, r) for r in range(domain.size)]
    answered = [q for q in policy.constraints.queries if q.answer is not None]
    out = []
    for db in itertools.product(range(domain.size), repeat=n):
        if all(sum(1 for r in db if matches(q, points[r])) == q.answer for q in answered):
            out.append(db)
    return out


def is_neighbor_by_definition(policy: Policy, d1, d2, dbs=None) -> bool:
    """Set-based re-check of the neighbor conditions.

    Both databases satisfy the constraints, every difference realizes a
    discriminative pair, the realized pair set is non-empty, and no
    comparable constraint-satisfying database realizes a strictly smaller
    non-empty pair set (or the same set with a smaller symmetric
    difference).
    """
    domain = policy.domain
    n = len(d1)
    points = [unrank(domain, r) for r in range(domain.size)]
    if dbs is None:
        dbs = satisfying_databases(policy, n)
    if tuple(d1) not in dbs or tuple(d2) not in dbs:
        return False

    @cache
    def edge(a, b):
        return is_edge(policy.graph, points[a], points[b])

    def comparable(da, db):
        return all(a == b or edge(a, b) for a, b in zip(da, db))

    def tset(da, db):
        return frozenset(
            (i, da[i], db[i]) for i in range(n) if da[i] != db[i] and edge(da[i], db[i])
        )

    def delta(da, db):
        return frozenset(
            p for i in range(n) if da[i] != db[i] for p in [(i, da[i]), (i, db[i])]
        )

    if not comparable(d1, d2):
        return False
    t12 = tset(d1, d2)
    if not t12:
        return False
    for d3 in dbs:
        if not comparable(d1, d3):
            continue
        t13 = tset(d1, d3)
        if t13 and t13 < t12:
            return False
        if t13 == t12 and delta(d1, d3) < delta(d1, d2):
            return False
    return True


def neighbors_by_definition(policy: Policy, n: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    dbs = satisfying_databases(policy, n)
    out = set()
    for d1 in dbs:
        for d2 in dbs:
            if d1 != d2 and is_neighbor_by_definition(policy, d1, d2, dbs):
                out.add((d1, d2))
    return out


def delta_by_loop(query, domain: DomainSpec, d1, d2) -> float:
    """L1 difference of the query between two databases, from changed tuples."""
    diffs = [(i, a, b) for i, (a, b) in enumerate(zip(d1, d2)) if a != b]
    if isinstance(query, (HistogramQuery, ClusterSizeQuery)):
        if isinstance(query, ClusterSizeQuery) and query.k == 1:
            return 0.0
        # worst case over cluster assignments separates the gained values
        # from the lost ones, which recovers the histogram L1 difference
        acc: dict[int, int] = {}
        for _, a, b in diffs:
            acc[a] = acc.get(a, 0) - 1
            acc[b] = acc.get(b, 0) + 1
        return float(sum(abs(v) for v in acc.values()))
    if isinstance(query, PartitionHistogramQuery):
        acc2: dict[int, int] = {}
        for _, a, b in diffs:
            acc2[query.cells[a]] = acc2.get(query.cells[a], 0) - 1
            acc2[query.cells[b]] = acc2.get(query.cells[b], 0) + 1
        return float(sum(abs(v) for v in acc2.values()))
    if isinstance(query, CumulativeQuery):
        shift = [0] * domain.size
        for _, a, b in diffs:
            lo, hi = min(a, b), max(a, b)
            sign = 1 if b < a else -1
            for p in range(lo, hi):
                shift[p] += sign
        return float(sum(abs(v) for v in shift))
    if isinstance(query, LinearSumQuery):
        step = query.value_step(domain)
        total = 0.0
        for i, a, b in diffs:
            total += query.weights[i] * step * (b - a)
        return abs(total)
    if isinstance(query, ClusterSumQuery):
        if query.k == 1:
            dims = domain.n_attributes
            net = [0] * dims
            for _, a, b in diffs:
                x, y = unrank(domain, a), unrank(domain, b)
                for j in range(dims):
                    net[j] += y[j] - x[j]
            return float(sum(abs(v) for v in net))
        return float(
            sum(2 * l1_distance(unrank(domain, a), unrank(domain, b)) for _, a, b in diffs)
        )
    raise TypeError(f"unknown query kind {type(query).__name__}")


def alpha_xi_by_backtracking(pg: PolicyGraph) -> tuple[int, int]:
    """Plain recursive backtracking over simple cycles and source-sink paths."""
    adj: dict[int, list[int]] = {v: [] for v in range(pg.n_vertices)}
    for u, v in pg.edges:
        adj[u].append(v)

    best_cycle = 0

    def cycle_search(start, current, visited, length):
        nonlocal best_cycle
        for w in adj[current]:
            if w == start:
                best_cycle = max(best_cycle, length + 1)
            elif w not in visited and w > start and w < pg.n_queries:
                visited.add(w)
                cycle_search(start, w, visited, length + 1)
                visited.discard(w)

    for s in range(pg.n_queries):
        cycle_search(s, s, {s}, 0)

    best_path = 0

    def path_search(current, visited, length):
        nonlocal best_path
        for w in adj[current]:
            if w == pg.sink:
                best_path = max(best_path, length + 1)
            elif w not in visited:
                visited.add(w)
                path_search(w, visited, length + 1)
                visited.discard(w)

    path_search(pg.source, {pg.source}, 0)
    return best_cycle, best_path


@cache
def _ordering_steps(n: int) -> np.ndarray:
    """Row per ordering of range(n): each consecutive pair (a, b) as a * n + b."""
    orders = np.array(list(itertools.permutations(range(n))), dtype=np.int16).reshape(-1, n)
    return orders[:, :-1] * n + orders[:, 1:]


def hamiltonian_path_by_permutation(nodes, adj) -> bool:
    """Whether some ordering of ``nodes`` steps along an edge of the
    undirected graph ``adj`` between every two consecutive vertices.  Every
    ordering is checked at once, n! rows, so n is at most about 10."""
    step = np.array([[b in adj[a] for b in nodes] for a in nodes], dtype=bool)
    return bool(step.ravel()[_ordering_steps(len(nodes))].all(axis=1).any())


def signature_edges_by_loop(g: SecretGraph, match) -> list[list[int]]:
    """The first edge (x, y), in (x, y) order, joining each ordered pair of
    different signatures, a signature being a rank's column of ``match``."""
    sig = [tuple(col) for col in np.asarray(match).T.tolist()]
    points = [unrank(g.domain, r) for r in range(g.domain.size)]
    seen, out = set(), []
    for x, y in itertools.product(range(g.domain.size), repeat=2):
        if sig[x] != sig[y] and (sig[x], sig[y]) not in seen and is_edge(g, points[x], points[y]):
            seen.add((sig[x], sig[y]))
            out.append([x, y])
    return out


def random_secret_graph(rng: np.random.Generator, domain: DomainSpec, kind: str) -> SecretGraph:
    """A secret graph of the named kind with random cells, theta or edges;
    theta runs from 0 to one past the diameter, and explicit graphs may be
    empty."""
    if kind == "full":
        return SecretGraph.full(domain)
    if kind == "attribute":
        return SecretGraph.attribute(domain)
    if kind == "partition":
        ncells = int(rng.integers(1, domain.size + 1))
        groups: dict[int, list[int]] = {}
        for r in range(domain.size):
            groups.setdefault(int(rng.integers(ncells)), []).append(r)
        return SecretGraph.partition(domain, list(groups.values()))
    if kind == "distance":
        return SecretGraph.distance(domain, int(rng.integers(0, domain.diameter() + 2)))
    pairs = list(itertools.combinations(range(domain.size), 2))
    take = int(rng.integers(0, len(pairs) + 1))
    idx = rng.choice(len(pairs), size=take, replace=False) if take else []
    return SecretGraph.explicit(domain, [pairs[i] for i in idx])


def random_rectangle(rng: np.random.Generator, domain: DomainSpec, answer: int | None = None) -> CountQuery:
    """A rectangle that bounds each attribute with probability 0.6."""
    bounds = {}
    for attr in domain.attributes:
        if rng.random() < 0.6:
            lo = int(rng.integers(0, attr.size))
            bounds[attr.name] = range(lo, int(rng.integers(lo, attr.size)) + 1)
    return CountQuery.where(domain, bounds, answer)


def match_matrix_by_isin(queries, domain: DomainSpec) -> np.ndarray:
    """(len(queries), size) bool matrix of which ranks each query matches:
    one ``np.isin`` of each rank's coordinate column against each allowed
    set, so an allowed index that is no coordinate matches nothing."""
    coords = domain.coords()
    out = np.ones((len(queries), domain.size), dtype=bool)
    for row, q in zip(out, queries):
        for col, s in zip(coords.T, q.allowed):
            if s is not None:
                row &= np.isin(col, list(s))
    return out


def policy_graph_by_loop(constraints, g: SecretGraph) -> PolicyGraph:
    """The policy graph from one classification per secret-graph edge: every
    row of ``iter_graph_edges`` is run through ``lifts_lowers`` against every
    query, and each policy edge keeps the first pair that produced it."""
    queries = constraints.queries
    nq = len(queries)
    points = [unrank(g.domain, r) for r in range(g.domain.size)]
    source, sink = nq, nq + 1
    witnesses: dict[tuple[int, int], tuple[int, int]] = {}
    for x_rank, y_rank in iter_graph_edges(g).tolist():
        effects = [lifts_lowers((points[x_rank], points[y_rank]), q) for q in queries]
        lift_idx = [qi for qi, eff in enumerate(effects) if eff is Effect.LIFTS]
        lower_idx = [qi for qi, eff in enumerate(effects) if eff is Effect.LOWERS]
        if len(lift_idx) > 1 or len(lower_idx) > 1:
            raise NonSparseConstraintsError(
                f"constraints are not sparse: secret pair (ranks {x_rank},{y_rank}) "
                f"lifts {len(lift_idx)} and lowers {len(lower_idx)} queries"
            )
        if not lift_idx and not lower_idx:
            continue
        e = (lower_idx[0] if lower_idx else source, lift_idx[0] if lift_idx else sink)
        if e[0] != e[1]:
            witnesses.setdefault(e, (x_rank, y_rank))
    return PolicyGraph(
        n_queries=nq,
        edges=frozenset(witnesses) | {(source, sink)},
        witnesses=tuple(sorted(witnesses.items())),
    )


def _marginal_attrs(q: CountQuery, domain: DomainSpec) -> tuple[int, ...] | None:
    """Indices of attributes pinned to single values, or None if q is not a
    marginal cell (some constrained attribute allows several values)."""
    pinned = []
    for i, s in enumerate(q.allowed):
        if s is None:
            continue
        if len(s) == 1:
            pinned.append(i)
        else:
            return None
    return tuple(pinned)


def _as_marginals(queries, domain: DomainSpec) -> list[tuple[tuple[int, ...], int]] | None:
    """Group queries into complete marginals: [(attr index set, size)] or None.

    A complete marginal over attributes S contributes exactly one cell query
    per value combination of S.
    """
    by_attrs: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for q in queries:
        attrs = _marginal_attrs(q, domain)
        if attrs is None or not attrs:
            return None
        cell = tuple(next(iter(q.allowed[i])) for i in attrs)
        cells = by_attrs.setdefault(attrs, set())
        if cell in cells:
            return None
        cells.add(cell)
    out = []
    for attrs, cells in by_attrs.items():
        size = math.prod(domain.attributes[i].size for i in attrs)
        if len(cells) != size:
            return None
        out.append((attrs, size))
    return out


def _rect_bounds(q: CountQuery, domain: DomainSpec) -> tuple[tuple[int, int], ...]:
    out = []
    for s, attr in zip(q.allowed, domain.attributes):
        if s is None:
            out.append((0, attr.size - 1))
        else:
            vals = sorted(s)
            out.append((vals[0], vals[-1]))
    return tuple(out)


def _rect_distance(a, b) -> int:
    """Min L1 distance between two axis-aligned boxes."""
    d = 0
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if ahi < blo:
            d += blo - ahi
        elif bhi < alo:
            d += alo - bhi
    return d


def _rects_disjoint(a, b) -> bool:
    return any(ahi < blo or bhi < alo for (alo, ahi), (blo, bhi) in zip(a, b))


def specialized_by_loop(policy: Policy) -> SensitivityResult:
    """``specialized_constraint_sensitivity`` with pairwise rectangle loops, a
    set-based component search and per-query marginal cells.

    Exact histogram sensitivity for the three recognized constraint shapes.

    (a) one complete marginal, complete secret graphs (full-domain secrets,
        or a distance threshold at or past the diameter): 2 * size(marginal);
    (b) pairwise-disjoint complete marginals, attribute secrets:
        2 * max size;
    (c) pairwise-disjoint rectangles, distance-threshold secrets below the
        diameter: 2 * (largest proximity component + 1), exact when no
        rectangle is a point query, the rectangles leave part of the domain
        uncovered and the largest components admit a Hamiltonian path in
        the proximity graph (otherwise an upper bound).

    Raises ShapeNotRecognizedError when the policy fits none of these.
    """
    if policy.constraints.unconstrained:
        raise ValueError("policy has no general constraints")
    domain = policy.domain
    g = policy.graph
    queries = policy.constraints.queries
    if not queries:
        raise ShapeNotRecognizedError("empty constraint set")

    complete = g.theta >= domain.diameter()
    if complete or g.kind is GraphKind.ATTRIBUTE:
        marginals = _as_marginals(queries, domain)
        if marginals is None:
            raise ShapeNotRecognizedError("constraints are not complete marginals")
        all_attrs = set(range(domain.n_attributes))
        for attrs, _ in marginals:
            if set(attrs) == all_attrs:
                raise ShapeNotRecognizedError("marginal covers every attribute")
            # the matching construction varies the unconstrained attributes
            rest = math.prod(
                domain.attributes[i].size for i in all_attrs - set(attrs)
            )
            if rest < 2:
                raise ShapeNotRecognizedError("degenerate marginal complement")
        if complete:
            if len(marginals) != 1:
                raise ShapeNotRecognizedError(
                    "full-domain secrets support a single marginal"
                )
            value = 2.0 * marginals[0][1]
            return SensitivityResult(value, Exactness.EXACT, Method.SPECIALIZED)
        seen: set[int] = set()
        for attrs, _ in marginals:
            if seen & set(attrs):
                raise ShapeNotRecognizedError("marginals share attributes")
            seen |= set(attrs)
        value = 2.0 * max(size for _, size in marginals)
        return SensitivityResult(value, Exactness.EXACT, Method.SPECIALIZED)

    if g.kind is GraphKind.DISTANCE:
        if g.theta <= 0:
            raise ShapeNotRecognizedError("distance threshold must be positive")
        rects = [_rect_bounds(q, domain) for q in queries]
        for q in queries:
            if not q.is_rectangle():
                raise ShapeNotRecognizedError("constraint is not a rectangle")
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if not _rects_disjoint(rects[i], rects[j]):
                    raise ShapeNotRecognizedError("rectangles overlap")
        adj: dict[int, set[int]] = {i: set() for i in range(len(rects))}
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if _rect_distance(rects[i], rects[j]) <= g.theta:
                    adj[i].add(j)
                    adj[j].add(i)
        components: list[list[int]] = []
        unvisited = set(range(len(rects)))
        while unvisited:
            start = min(unvisited)
            comp = [start]
            unvisited.discard(start)
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v in unvisited:
                        unvisited.discard(v)
                        comp.append(v)
                        stack.append(v)
            components.append(comp)
        maxcomp = max(len(c) for c in components)
        value = 2.0 * (maxcomp + 1)
        # rectangles that cover the domain leave no tuple outside them, so
        # the source-to-sink path behind the "+1" cannot occur
        covered = sum(q.support_size(domain) for q in queries) == domain.size
        exact = not covered and not any(q.support_size(domain) == 1 for q in queries)
        if exact:
            # the bound is attained along a path through a largest component,
            # which requires the component to be traceable
            for comp in components:
                if len(comp) == maxcomp:
                    if len(comp) > MAX_POLICY_GRAPH_VERTICES or not hamiltonian_path_by_permutation(comp, adj):
                        exact = False
                        break
        tag = Exactness.EXACT if exact else Exactness.UPPER_BOUND
        return SensitivityResult(value, tag, Method.SPECIALIZED)

    raise ShapeNotRecognizedError(f"no specialization for {g.kind.value} secrets")


def critical_pairs_by_loop(policy: Policy, q: CountQuery, n: int) -> set[tuple[int, int]]:
    """Every secret-graph edge (x, y) that lifts or lowers q while the other
    n-1 tuples can still meet q's answer."""
    if q.answer is None:
        return set()
    domain = policy.domain
    supp = q.support_size(domain)
    cosupp = domain.size - supp
    out = set()
    for x_rank, y_rank in iter_graph_edges(policy.graph).tolist():
        mx, my = matches(q, unrank(domain, x_rank)), matches(q, unrank(domain, y_rank))
        if mx == my:
            continue
        need = q.answer - (1 if mx else 0)
        if not 0 <= need <= n - 1:
            continue
        if need > 0 and supp == 0:
            continue
        if (n - 1 - need) > 0 and cosupp == 0:
            continue
        out.add((x_rank, y_rank))
    return out


def parallel_decomposition_by_loop(policy: Policy, subsets, n: int) -> bool:
    """``check_parallel_decomposition`` on disjoint subsets, from the full
    critical-pair set of every answered query."""
    nonempty = sum(1 for s in subsets if s)
    return not any(
        critical_pairs_by_loop(policy, q, n) and nonempty > 1 for q in policy.constraints.queries
    )


def range_query_truth(counts, queries) -> np.ndarray:
    prefix = np.concatenate([[0], np.cumsum(counts)])
    return np.array([prefix[j] - prefix[i - 1] for i, j in queries], dtype=float)


def _oh_children(lo: int, hi: int, fanout: int) -> list[tuple[int, int]]:
    delta = -(-(hi - lo + 1) // fanout)
    return [(start, min(start + delta - 1, hi)) for start in range(lo, hi + 1, delta)]


def oh_height_by_powers(theta: int, fanout: int) -> int:
    """Height of an ordered-hierarchical block's subtree: the least h with
    fanout**h >= theta, in integers."""
    h = 0
    while fanout**h < theta:
        h += 1
    return h


def oh_cumulative_by_walk(
    values: dict[tuple[int, int], float], size: int, theta: int, fanout: int, j: int
) -> float:
    """Prefix estimate of an ordered-hierarchical tree by walking its blocks.

    ``values`` maps each released node's (lo, hi) to its value; the block-1
    root and s_1 share one interval.  A block end is its S node alone; any
    other j adds the previous S node to the H nodes that canonically cover
    [block start, j], found by a stack walk from the block root that pops
    the last child first.
    """
    if j == 0:
        return 0.0
    block = (j + theta - 1) // theta
    blo, bhi = (block - 1) * theta + 1, min(block * theta, size)
    if j == bhi:
        return float(values[(1, bhi)])
    total = values[(1, blo - 1)] if block >= 2 else 0.0
    covered = 0.0
    stack = _oh_children(blo, bhi, fanout)
    while stack:
        lo, hi = stack.pop()
        if lo > j:
            continue
        if hi <= j:
            covered += values[(lo, hi)]
            continue
        stack.extend(_oh_children(lo, hi, fanout))
    return float(total + covered)


def range_workload_by_loop(domain_size: int, count: int, seed: int) -> Workload:
    """The same draws as ``random_range_workload``, unranked by walking the
    rows of the pair triangle one at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _tag("workload")]))
    total = domain_size * (domain_size + 1) // 2
    picks = rng.integers(0, total, size=count)
    queries = []
    for flat in picks:
        i = 1
        remaining = int(flat)
        span = domain_size
        while remaining >= span:
            remaining -= span
            i += 1
            span -= 1
        queries.append((i, i + remaining))
    return Workload(domain_size=domain_size, queries=tuple(queries), seed=seed)


def philox_stream(seed: int, index: int) -> np.random.Generator:
    """numpy's own generator for noise stream ``index``: one jump per stream."""
    return np.random.Generator(np.random.Philox(seed).jumped(index))


def laplace_by_inverse_cdf(scale: float, u: float) -> float:
    """One Laplace(scale) variate from one uniform, in Python floats: the
    scalar transform the library's array kernel must match bit for bit."""
    u -= 0.5
    mag = 1.0 - 2.0 * abs(u)
    if mag <= 0.0:
        mag = 5e-324
    return -scale * math.copysign(1.0, u) * math.log(mag)


def sample_laplace(scale: float, rng: np.random.Generator) -> float:
    """One zero-mean Laplace variate from a single ``rng.random()`` draw,
    which scale 0 spends too; exactly 0.0 at scale 0."""
    if scale < 0 or not math.isfinite(scale):
        raise ValueError(f"scale must be finite and non-negative, got {scale}")
    u = rng.random()
    return laplace_by_inverse_cdf(scale, u) if scale else 0.0


def ingest_by_index(text: str, domain: DomainSpec) -> tuple[list[int], list[int]]:
    """(ids, ranks) of delimited rows, read one cell at a time: each label is
    found with ``tuple.index`` and each point ranked with ``rank``.
    Raises ``ValueError`` on the same inputs, with the same messages, as
    ``ingest_dataset``.  Every record is read by ``csv.reader``, and one it
    cannot read fails before any other check."""
    reader = csv.reader(io.StringIO(text))
    records: list[list[str]] = []
    while True:
        try:
            records.append(next(reader))
        except StopIteration:
            break
        except csv.Error as exc:
            where = f"row {len(records) - 1}" if records else "header"
            raise ValueError(f"{where}: {exc}") from None
    if not records:
        raise ValueError("empty input: missing header")
    header = [h.strip() for h in records[0]]
    has_id = "id" in header
    expected = (["id"] if has_id else []) + [a.name for a in domain.attributes]
    if sorted(header) != sorted(expected):
        raise ValueError(f"header {header} does not match domain attributes {expected}")
    col = {name: header.index(name) for name in header}
    ids: list[int] = []
    ranks: list[int] = []
    for lineno, raw in enumerate(records[1:]):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} columns, got {len(raw)}")
        point = []
        for a in domain.attributes:
            label = raw[col[a.name]].strip()
            try:
                point.append(a.values.index(label))
            except ValueError:
                raise ValueError(f"row {lineno}: unknown value {label!r} for attribute {a.name!r}") from None
        try:
            ids.append(int(raw[col["id"]]) if has_id else len(ids))
        except ValueError as exc:
            raise ValueError(f"row {lineno}: {exc}") from None
        ranks.append(rank(domain, tuple(point)))
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate row ids")
    return ids, ranks


def sq_distances_by_loop(pts: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """(n, k) squared L2 distances, one centroid column at a time, each entry
    a row-sum over that centroid's (n, d) squared differences."""
    d2 = np.empty((len(pts), len(cents)))
    for c, cent in enumerate(cents):
        d2[:, c] = ((pts - cent) ** 2).sum(axis=1)
    return d2


def assign_by_matrix(cols: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest-centroid index and objective from the whole (k, n) matrix of
    squared distances to the (d, n) columns, each entry added one coordinate
    at a time: its argmin over axis 0 and the sum of its minima."""
    d2 = (cols[0] - cents[:, :1]) ** 2
    sq = np.empty_like(d2)
    for j in range(1, len(cols)):
        np.subtract(cols[j], cents[:, j : j + 1], out=sq)
        sq *= sq
        d2 += sq
    return d2.argmin(axis=0), float(d2.min(axis=0).sum())


def kmeans_objective_by_loop(points, centroids) -> float:
    pts = np.asarray(points, dtype=float)
    return float(sq_distances_by_loop(pts, np.asarray(centroids, dtype=float)).min(axis=1).sum())


def kmeans_nonprivate_by_loop(points, cfg: KmeansConfig, seed: int, bounds=None) -> ClusteringResult:
    """Lloyd iteration with one boolean-mask gather and mean per cluster."""
    pts = np.asarray(points, dtype=float)
    lows, highs = (pts.min(axis=0), pts.max(axis=0)) if bounds is None else np.array(bounds).T
    cents = _init_centroids(cfg, lows, highs, seed, len(pts))
    d2 = sq_distances_by_loop(pts, cents)
    trace = []
    for _ in range(cfg.iterations):
        assign = d2.argmin(axis=1)
        new = cents.copy()
        for c in range(cfg.k):
            members = pts[assign == c]
            if len(members):
                new[c] = members.mean(axis=0)
        cents = new
        d2 = sq_distances_by_loop(pts, cents)
        trace.append(float(d2.min(axis=1).sum()))
    return ClusteringResult(centroids=cents, objective=trace[-1], trace=tuple(trace))


def kmeans_private_by_loop(points, cfg: KmeansConfig, policy, pp: PrivacyParams) -> ClusteringResult:
    """Private Lloyd iteration with one boolean-mask gather per cluster: its
    size and coordinate sum get that cluster's slice of the round's noise.
    Each round's budget is halved between sizes and sums."""
    pts = np.asarray(points, dtype=float)
    qsum_sens = policy.qsum_sensitivity(cfg.k)
    lows = np.array([lo for lo, _ in policy.bounds])
    highs = np.array([hi for _, hi in policy.bounds])
    cents = _init_centroids(cfg, lows, highs, pp.seed, len(pts))
    eps_size = eps_sum = pp.epsilon / cfg.iterations / 2
    ledger = BudgetLedger()
    trace = []
    dims = pts.shape[1]
    d2 = sq_distances_by_loop(pts, cents)
    for t in range(cfg.iterations):
        assign = d2.argmin(axis=1)
        size_noise = add_noise(np.zeros(cfg.k), pp.seed, 2 + 2 * t, 2.0 / eps_size)
        sum_noise = add_noise(np.zeros((cfg.k, dims)), pp.seed, 3 + 2 * t, qsum_sens / eps_sum)
        new = np.empty_like(cents)
        for c in range(cfg.k):
            members = pts[assign == c]
            size = float(len(members)) + size_noise[c]
            total = (members.sum(axis=0) if len(members) else np.zeros(dims)) + sum_noise[c]
            new[c] = total / max(size, 1.0)
        cents = np.clip(new, lows, highs)
        ledger.charge(f"iteration {t}: sizes", eps_size)
        ledger.charge(f"iteration {t}: sums", eps_sum)
        d2 = sq_distances_by_loop(pts, cents)
        trace.append(float(d2.min(axis=1).sum()))
    return ClusteringResult(centroids=cents, objective=trace[-1], trace=tuple(trace), ledger=ledger)
