"""Policy-specific global sensitivity.

Four routes are provided and kept deliberately independent of each other:

* closed forms for unconstrained policies, per query kind and graph kind;
* the sparse count-constraint engine, which builds a directed policy graph
  over the constraint queries, from one secret pair per pair of query
  signatures with no secret edge built, and bounds the histogram sensitivity
  by twice the larger of its longest simple cycle and its longest
  source-to-sink path, both read from one subset table of its simple paths;
* specialized exact formulas for three recognized constraint shapes
  (one marginal with full-domain secrets or distance secrets at or past the
  diameter, disjoint marginals with attribute secrets, disjoint rectangles
  with distance-threshold secrets below the diameter); rectangles are
  compared as (queries, attributes) bounds arrays, O(q^2 * attributes) with
  no enumeration of edges or ranks;
* a brute-force oracle that enumerates neighbors and maximizes the actual
  query difference, used to certify the other routes at tiny scale.

``policy_sensitivity`` is the one dispatch from a method name to a route.
Sensitivities are in L1, measured across the policy's neighbor relation.
Every enumeration is capped by the fixed budgets of ``blowfish.policy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import DomainSpec
from .errors import (
    BudgetExceededError,
    NonSparseConstraintsError,
    ShapeNotRecognizedError,
)
from .policy import (
    ConstraintSet,
    GraphKind,
    Policy,
    SecretGraph,
    match_matrix,
    neighbor_databases,
    signature_edges,
)

MAX_POLICY_GRAPH_VERTICES = 16


# -- query kinds -------------------------------------------------------------


@dataclass(frozen=True)
class HistogramQuery:
    """Complete histogram over the domain."""


@dataclass(frozen=True)
class PartitionHistogramQuery:
    """Histogram over a coarser partition, given as a cell id per rank."""

    cells: tuple[int, ...]


@dataclass(frozen=True)
class CumulativeQuery:
    """Prefix-sum vector of the complete histogram in rank order."""


@dataclass(frozen=True)
class LinearSumQuery:
    """Weighted sum over a 1-D-ordered domain mapped onto [lo, hi].

    Tuple i contributes weights[i] * value(x_i) where value maps rank r to
    lo + r * (hi - lo) / (|domain| - 1).
    """

    weights: tuple[float, ...]
    lo: float = 0.0
    hi: float = 1.0

    def value_step(self, domain: DomainSpec) -> float:
        if domain.size == 1:
            return 0.0
        return (self.hi - self.lo) / (domain.size - 1)


@dataclass(frozen=True)
class _ClusterQuery:
    """A query over k >= 1 clusters."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class ClusterSizeQuery(_ClusterQuery):
    """Per-cluster point counts, worst case over assignments of domain values
    to k clusters."""


@dataclass(frozen=True)
class ClusterSumQuery(_ClusterQuery):
    """Per-cluster coordinate sums for k clusters.

    The closed form's premise is that sums are accounted from the cluster
    boundary: a changed tuple moves two sums by at most its L1 displacement
    each.  ``kmeans_private`` sums raw coordinates, which a tuple moves by
    |x|_1 + |y|_1 and which this rule does not yet cover.
    """


QueryKind = (
    HistogramQuery
    | PartitionHistogramQuery
    | CumulativeQuery
    | LinearSumQuery
    | ClusterSizeQuery
    | ClusterSumQuery
)

# the query names of the CLI and the experiment configs; each constructor
# takes the cluster count k
QUERY_KINDS = {
    "histogram": lambda k: HistogramQuery(),
    "cumulative": lambda k: CumulativeQuery(),
    "cluster-size": ClusterSizeQuery,
    "cluster-sum": ClusterSumQuery,
}


class Exactness(str, Enum):
    EXACT = "Exact"
    UPPER_BOUND = "UpperBound"


class Method(str, Enum):
    CLOSED_FORM = "ClosedForm"
    SPARSE_ENGINE = "SparseEngine"
    SPECIALIZED = "Specialized"
    BRUTE_FORCE = "BruteForce"


@dataclass(frozen=True)
class SensitivityResult:
    value: float
    exactness: Exactness
    method: Method

    def __post_init__(self) -> None:
        if not (self.value >= 0):
            raise ValueError("sensitivity must be non-negative")


# -- closed forms (unconstrained policies) ------------------------------------


def _cluster_sum_sensitivity(k: int, reach):
    """Sensitivity of k per-cluster coordinate sums when one changed tuple
    moves at most ``reach`` in L1: with k >= 2 it can also leave one cluster
    for another, moving two sums."""
    return reach if k == 1 else 2 * reach


def closed_form_sensitivity(query: QueryKind, policy: Policy) -> SensitivityResult:
    """Exact sensitivity for unconstrained policies (no general constraints)."""
    if not policy.constraints.unconstrained:
        raise ValueError("closed forms require an unconstrained policy; use the constraint engine")
    g = policy.graph
    if isinstance(query, HistogramQuery):
        value = 2.0 if g.has_any_edge() else 0.0
    elif isinstance(query, PartitionHistogramQuery):
        if len(query.cells) != policy.domain.size:
            raise ValueError("partition query needs one cell id per rank")
        value = 2.0 if g.crosses(query.cells) else 0.0
    elif isinstance(query, CumulativeQuery):
        value = float(g.max_rank_gap())
    elif isinstance(query, LinearSumQuery):
        wmax = max((abs(w) for w in query.weights), default=0.0)
        value = g.max_rank_gap() * query.value_step(policy.domain) * wmax
    elif isinstance(query, ClusterSizeQuery):
        value = 2.0 if query.k >= 2 and g.has_any_edge() else 0.0
    elif isinstance(query, ClusterSumQuery):
        value = float(_cluster_sum_sensitivity(query.k, g.max_edge_l1()))
    else:
        raise TypeError(f"unknown query kind {type(query).__name__}")
    return SensitivityResult(value=value, exactness=Exactness.EXACT, method=Method.CLOSED_FORM)


# -- sparse constraint engine --------------------------------------------------


@dataclass(frozen=True)
class PolicyGraph:
    """Directed graph over constraint queries plus source/sink sentinels.

    Vertices 0..n_queries-1 are the queries, then source (lift without lower)
    and sink (lower without lift).  The (source, sink) edge is always present.
    Every other edge stores its witness: the first secret pair of ranks, in
    (x, y) order, that produces it.
    """

    n_queries: int
    edges: frozenset[tuple[int, int]]
    witnesses: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()

    @property
    def source(self) -> int:
        return self.n_queries

    @property
    def sink(self) -> int:
        return self.n_queries + 1

    @property
    def n_vertices(self) -> int:
        return self.n_queries + 2


def build_policy_graph(constraints: ConstraintSet, g: SecretGraph) -> PolicyGraph:
    """Construct the policy graph of a sparse constraint set.

    Only the signature edges of g are classified, all at once from the
    (n_queries, size) match matrix: pairs of ranks that match the same
    queries act alike.  Each policy edge keeps its first signature edge in
    (x, y) order as witness.  Raises NonSparseConstraintsError, naming the
    first such secret pair, if some edge lifts or lowers more than one query.
    """
    nq = len(constraints.queries)
    source, sink, nv = nq, nq + 1, nq + 2
    match = match_matrix(constraints.queries, g.domain)
    x, y = signature_edges(g, match).T
    # column j: the queries that changing a tuple from x[j] to y[j] moves
    lifts = ~match[:, x] & match[:, y]
    lowers = match[:, x] & ~match[:, y]
    n_lift, n_lower = lifts.sum(axis=0), lowers.sum(axis=0)
    bad = np.flatnonzero((n_lift > 1) | (n_lower > 1))
    if bad.size:
        j = bad[0]
        raise NonSparseConstraintsError(
            f"constraints are not sparse: secret pair (ranks {int(x[j])},{int(y[j])}) "
            f"lifts {int(n_lift[j])} and lowers {int(n_lower[j])} queries"
        )
    # an edge runs from the lowered query (else the source) to the lifted
    # one (else the sink); pairs that move no query give (source, sink)
    qids = np.arange(nq)
    tail = np.where(n_lower > 0, qids @ lowers, source)
    head = np.where(n_lift > 0, qids @ lifts, sink)
    codes, first = np.unique(tail * nv + head, return_index=True)
    witnesses = tuple(
        ((c // nv, c % nv), (int(x[i]), int(y[i])))
        for c, i in zip(codes.tolist(), first.tolist())
        if c != source * nv + sink
    )
    return PolicyGraph(
        n_queries=nq,
        edges=frozenset(e for e, _ in witnesses) | {(source, sink)},
        witnesses=witnesses,
    )


def is_sparse(constraints: ConstraintSet, g: SecretGraph) -> bool:
    """Whether every secret-graph edge lifts at most one query and lowers at
    most one query of the constraint set."""
    if not constraints.queries:
        return True
    try:
        build_policy_graph(constraints, g)
    except NonSparseConstraintsError:
        return False
    return True


def _path_ends(succ: dict[int, int], rooted: bool = True) -> dict[int, int]:
    """The subset table (Bellman 1962; Held & Karp 1962) of the graph that
    ``succ`` maps from each vertex bit to its successors' mask: each simple
    path's vertex mask maps to the mask of the vertices it can end at.  A
    rooted path starts at its mask's lowest vertex, so a cycle is found once."""
    level = dict(zip(succ, succ))
    table = dict(level)
    while level:
        grown: dict[int, int] = {}
        for mask, ends in level.items():
            steps = 0
            while ends:
                steps |= succ[ends & -ends]
                ends &= ends - 1
            steps &= ~mask & (-(mask & -mask) if rooted else -1)
            while steps:
                w = steps & -steps
                grown[mask | w] = grown.get(mask | w, 0) | w
                steps ^= w
        table.update(grown)
        level = grown
    return table


def alpha_xi(pg: PolicyGraph) -> tuple[int, int]:
    """Longest simple cycle length and longest source-to-sink simple path length.

    One rooted subset table holds both: α is its largest mask whose ends have
    an edge back to the mask's lowest vertex, ξ its largest mask holding the
    source, the lowest bit, whose ends have an edge to the sink.  Exhaustive,
    so capped at 16 vertices.  α is 0 for an acyclic graph; ξ is at least 1.
    """
    nv = pg.n_vertices
    if nv > MAX_POLICY_GRAPH_VERTICES:
        raise BudgetExceededError(
            f"policy graph has {nv} vertices, exhaustive search capped at "
            f"{MAX_POLICY_GRAPH_VERTICES}"
        )
    # the sink has no bit, so no mask holds it, and pred[0] holds its
    # predecessors; no edge enters the source, so it lies on no cycle
    bit = {pg.source: 1, pg.sink: 0, **{q: 2 << q for q in range(pg.n_queries)}}
    succ, pred = dict.fromkeys(bit.values(), 0), dict.fromkeys(bit.values(), 0)
    for u, v in pg.edges:
        if v != pg.source:
            succ[bit[u]] |= bit[v]
            pred[bit[v]] |= bit[u]
    table = _path_ends({b: word for b, word in succ.items() if b})
    alpha = max((m.bit_count() for m, ends in table.items() if ends & pred[m & -m]), default=0)
    xi = max((m.bit_count() for m, ends in table.items() if m & 1 and ends & pred[0]), default=0)
    return alpha, xi


def sparse_constraint_sensitivity(policy: Policy) -> SensitivityResult:
    """Histogram sensitivity bound 2*max(alpha, xi) from the policy graph.

    The result is an upper bound: the brute-force oracle certifies it at
    tiny scale.  It never exceeds 2*(|Q| + 1): cycles visit only query
    vertices and a source-to-sink path visits each query at most once.
    """
    if policy.constraints.unconstrained:
        raise ValueError("policy has no general constraints; use closed_form_sensitivity")
    pg = build_policy_graph(policy.constraints, policy.graph)
    alpha, xi = alpha_xi(pg)
    return SensitivityResult(value=2.0 * max(alpha, xi), exactness=Exactness.UPPER_BOUND, method=Method.SPARSE_ENGINE)


# -- specialized shapes --------------------------------------------------------


def _as_marginals(queries, domain: DomainSpec) -> list[tuple[tuple[int, ...], int]] | None:
    """Group queries into complete marginals: [(attr index set, size)] in
    order of first appearance, or None.

    A marginal cell pins each of its attributes to one value and leaves the
    others unconstrained; a complete marginal over attributes S contributes
    exactly one cell query per value combination of S.
    """
    cells = np.full((len(queries), domain.n_attributes), -1, dtype=np.int64)
    for row, q in zip(cells, queries):
        for i, s in enumerate(q.allowed):
            if s is not None:
                if len(s) != 1:
                    return None
                row[i] = next(iter(s))
    pinned = cells >= 0
    if not pinned.any(axis=1).all() or len(np.unique(cells, axis=0)) < len(queries):
        return None
    masks, first, counts = np.unique(pinned, axis=0, return_index=True, return_counts=True)
    out = []
    for j in np.argsort(first):
        attrs = tuple(np.flatnonzero(masks[j]).tolist())
        size = math.prod(domain.attributes[i].size for i in attrs)
        if counts[j] != size:
            return None
        out.append((attrs, size))
    return out


def _has_hamiltonian_path(adj: np.ndarray) -> bool:
    """Whether a simple path visits every vertex of the small undirected
    graph with boolean adjacency matrix ``adj``: the full mask of an
    unrooted subset table."""
    words = np.packbits(adj, axis=1, bitorder="little")
    succ = {1 << i: int.from_bytes(row.tobytes(), "little") for i, row in enumerate(words)}
    return (1 << len(adj)) - 1 in _path_ends(succ, rooted=False)


def _components(near: np.ndarray) -> np.ndarray:
    """Component label per vertex of the symmetric boolean matrix ``near``:
    the smallest vertex of its component.  Each row is read once, by a
    frontier search."""
    label = np.full(len(near), -1)
    for start in range(len(near)):
        if label[start] >= 0:
            continue
        frontier = np.array([start])
        label[start] = start
        while frontier.size:
            frontier = np.flatnonzero(near[frontier].any(axis=0) & (label < 0))
            label[frontier] = start
    return label


def specialized_constraint_sensitivity(policy: Policy) -> SensitivityResult:
    """Exact histogram sensitivity for the three recognized constraint shapes.

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

    if g.complete or g.kind is GraphKind.ATTRIBUTE:
        marginals = _as_marginals(queries, domain)
        if marginals is None:
            raise ShapeNotRecognizedError("constraints are not complete marginals")
        for attrs, size in marginals:
            if len(attrs) == domain.n_attributes:
                raise ShapeNotRecognizedError("marginal covers every attribute")
            # the matching construction varies the unconstrained attributes
            if domain.size // size < 2:
                raise ShapeNotRecognizedError("degenerate marginal complement")
        if g.complete and len(marginals) != 1:
            raise ShapeNotRecognizedError("full-domain secrets support a single marginal")
        used = [i for attrs, _ in marginals for i in attrs]
        if len(set(used)) < len(used):
            raise ShapeNotRecognizedError("marginals share attributes")
        value = 2.0 * max(size for _, size in marginals)
        return SensitivityResult(value, Exactness.EXACT, Method.SPECIALIZED)

    if g.kind is GraphKind.DISTANCE:
        if g.theta <= 0:
            raise ShapeNotRecognizedError("distance threshold must be positive")
        if not all(q.is_rectangle() for q in queries):
            raise ShapeNotRecognizedError("constraint is not a rectangle")
        # (q, attributes) bounds; gap[i, j, a] > 0 when rectangles i and j
        # are apart on attribute a, and then it is their distance along a
        whole = [(0, a.size - 1) for a in domain.attributes]
        bounds = np.array([[w if s is None else (min(s), max(s)) for s, w in zip(q.allowed, whole)] for q in queries])
        lo, hi = bounds[..., 0], bounds[..., 1]
        gap = np.maximum(lo[None, :, :] - hi[:, None, :], lo[:, None, :] - hi[None, :, :])
        overlap = ~(gap > 0).any(axis=2)
        np.fill_diagonal(overlap, False)
        if overlap.any():
            raise ShapeNotRecognizedError("rectangles overlap")
        near = np.maximum(gap, 0).sum(axis=2) <= g.theta
        label = _components(near)
        sizes = np.bincount(label)
        maxcomp = int(sizes.max())
        value = 2.0 * (maxcomp + 1)
        # rectangles that cover the domain leave no tuple outside them, so
        # the source-to-sink path behind the "+1" cannot occur; the bound is
        # attained along a path through a largest component, which requires
        # the component to be traceable
        largest = (np.flatnonzero(label == start) for start in np.flatnonzero(sizes == maxcomp))
        exact = (
            sum(q.support_size(domain) for q in queries) < domain.size
            and not (lo == hi).all(axis=1).any()
            and maxcomp <= MAX_POLICY_GRAPH_VERTICES
            and all(_has_hamiltonian_path(near[np.ix_(comp, comp)]) for comp in largest)
        )
        tag = Exactness.EXACT if exact else Exactness.UPPER_BOUND
        return SensitivityResult(value, tag, Method.SPECIALIZED)

    raise ShapeNotRecognizedError(f"no specialization for {g.kind.value} secrets")


# -- brute-force oracle ---------------------------------------------------------


def _query_is_id_symmetric(query: QueryKind) -> bool:
    if isinstance(query, LinearSumQuery):
        return len(set(query.weights)) <= 1
    return True


def _query_deltas(query: QueryKind, domain: DomainSpec, d1: np.ndarray, d2s: np.ndarray) -> np.ndarray:
    """L1 difference of the query between database d1 and each row of the
    (k, n) array d2s: a (k,) float64 array.  A pair costs O(n log n): only
    the 2n values of its two databases are read."""
    k, n = d2s.shape
    if isinstance(query, LinearSumQuery):
        step = query.value_step(domain)
        total = np.zeros(k)
        # one changed id at a time, in id order, so each sum rounds, and
        # overflows to inf or NaN, as a per-pair loop over the changed ids does
        with np.errstate(over="ignore", invalid="ignore"):
            for i, w in enumerate(query.weights[:n]):
                moved = d2s[:, i] != d1[i]
                total[moved] += w * step * (d2s[moved, i] - d1[i])
        return np.abs(total)
    if isinstance(query, ClusterSumQuery):
        x = np.stack(np.unravel_index(d1, domain.sizes), axis=-1)
        y = np.stack(np.unravel_index(d2s, domain.sizes), axis=-1)
        if query.k == 1:
            return np.abs(y.sum(axis=1) - x.sum(axis=0)).sum(axis=1).astype(float)
        # a changed tuple can leave one cluster for another, moving two sums
        return 2.0 * np.abs(y - x).sum(axis=(1, 2))
    if not isinstance(query, (HistogramQuery, ClusterSizeQuery, PartitionHistogramQuery, CumulativeQuery)):
        raise TypeError(f"unknown query kind {type(query).__name__}")
    if isinstance(query, ClusterSizeQuery) and query.k == 1:
        return np.zeros(k)
    # row j: the n values d1 loses, then the n values d2s[j] gains, sorted;
    # net[j, t] is gained minus lost among the first t + 1, so where a run
    # of equal values ends it is the cumulative histogram difference there
    values = np.concatenate([np.broadcast_to(d1, (k, n)), d2s], axis=1)
    if isinstance(query, PartitionHistogramQuery):
        values = np.asarray(query.cells)[values]
    order = np.argsort(values, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    net = np.where(order < n, -1, 1).cumsum(axis=1)
    if isinstance(query, CumulativeQuery):
        # the difference holds from one value up to the next
        return (np.abs(net[:, :-1]) * np.diff(values, axis=1)).sum(axis=1).astype(float)
    # worst case over cluster assignments separates the gained values from
    # the lost ones, which recovers the histogram L1 difference: the sum
    # over runs of |the run's net change|.  A row's last run leaves net at
    # 0, so the changes can be read off the run ends of all rows at once.
    ends = np.ones(values.shape, dtype=bool)
    ends[:, :-1] = values[:, 1:] != values[:, :-1]
    change = np.diff(net[ends], prepend=0)
    return np.bincount(np.nonzero(ends)[0], weights=np.abs(change), minlength=k).astype(float)


def brute_force_sensitivity(query: QueryKind, policy: Policy, n: int) -> SensitivityResult:
    """Exact sensitivity by enumerating all neighbor pairs at size n.

    For id-symmetric queries and count constraints the outer database can be
    restricted to sorted representatives: relabeling ids maps neighbors to
    neighbors and leaves the query difference unchanged.
    """
    if isinstance(query, PartitionHistogramQuery) and len(query.cells) != policy.domain.size:
        raise ValueError("partition query needs one cell id per rank")
    if isinstance(query, LinearSumQuery) and len(query.weights) < n:
        raise ValueError(f"linear-sum 'weights' needs one weight per tuple: {len(query.weights)} for n = {n}")
    best = 0.0
    for d1, d2s in neighbor_databases(policy, n, sorted_d1=_query_is_id_symmetric(query)):
        # fmax passes over a NaN (inf - inf in a linear sum), as max() does
        best = float(np.fmax.reduce(_query_deltas(query, policy.domain, d1, d2s), initial=best))
    return SensitivityResult(value=best, exactness=Exactness.EXACT, method=Method.BRUTE_FORCE)


def policy_sensitivity(query: QueryKind, policy: Policy, method: str = "auto", n: int = 2) -> SensitivityResult:
    """The sensitivity of ``query`` by the route that ``method`` names.

    ``closed``, ``sparse``, ``specialized`` and ``oracle`` name one route
    each, and ``n`` is the oracle's database size.  ``auto`` takes the closed
    forms when the policy is unconstrained, else the sparse engine.  The two
    constraint engines bound the complete histogram only.

    A non-sparse constraint set raises NonSparseConstraintsError from the
    signature edges that build the policy graph.
    """
    if method == "auto":
        method = "closed" if policy.constraints.unconstrained else "sparse"
    if method == "closed":
        return closed_form_sensitivity(query, policy)
    if method == "oracle":
        return brute_force_sensitivity(query, policy, n)
    if method not in ("sparse", "specialized"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(query, HistogramQuery):
        raise ValueError(
            "constrained sensitivity is only supported for the complete histogram"
        )
    if method == "sparse":
        return sparse_constraint_sensitivity(policy)
    return specialized_constraint_sensitivity(policy)
