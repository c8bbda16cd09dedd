"""Privacy policies: secret graphs, deterministic count constraints, and the
constrained neighbor relation.

A policy bundles a domain, a discriminative secret graph over that domain,
and a set of count-query constraints.  The secret graph's edges are the value
pairs an adversary must not be able to tell apart for any individual.  The
constraints restrict which databases are considered possible; neighbors are
constraint-satisfying database pairs that differ only along secret-graph
edges and are minimal in their realized secret pairs: no proper non-empty
part of the changes gives a satisfying database.

Neighbor enumeration is exact, a rank-array search over every database of n
tuples, and therefore confined to tiny instances by a fixed budget
(``DEFAULT_ENUM_BUDGET`` databases, and as many tuples per database); it is
the ground truth the sensitivity engines are checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import DomainSpec, _int64_column, runs
from .errors import BudgetExceededError, InfeasibleConstraintsError, read_field, read_json

DEFAULT_ENUM_BUDGET = 100_000
DEFAULT_EDGE_BUDGET = 20_000_000


class GraphKind(str, Enum):
    FULL = "full"
    ATTRIBUTE = "attribute"
    PARTITION = "partition"
    DISTANCE = "distance"
    EXPLICIT = "explicit"


def edge_reach(kind: str, spans, theta):
    """The longest L1 move of one changed value along a full, attribute or
    distance secret edge, with ``spans`` the widest move on each attribute
    and ``theta`` the distance kind's threshold."""
    if kind == GraphKind.ATTRIBUTE:
        return max(spans)
    diameter = sum(spans)
    return diameter if kind == GraphKind.FULL else min(theta, diameter)


@dataclass(frozen=True, eq=False)
class SecretGraph:
    """Edge predicate over the ranks of a domain, ``adjacent``, and ``reaches``.

    The edge set is symmetric and irreflexive.  DISTANCE joins ranks 1 to
    ``theta`` apart in L1 over value indices, FULL is DISTANCE with the
    diameter as ``theta``, other kinds hold 0.  The int64 arrays, PARTITION's
    cell ids and EXPLICIT's sorted unique pairs a < b, are read-only.
    """

    domain: DomainSpec
    kind: GraphKind
    theta: int = 0
    cells: np.ndarray | None = None
    edges: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind is GraphKind.FULL:
            object.__setattr__(self, "theta", self.domain.diameter())
        elif self.theta < 0 or (self.theta and self.kind is not GraphKind.DISTANCE):
            raise ValueError(f"theta must be a distance graph's non-negative threshold, got {self.theta}")
        if self.kind is GraphKind.PARTITION:
            if self.cells is None or len(self.cells) != self.domain.size:
                raise ValueError("partition graph needs one cell id per domain rank")
            object.__setattr__(self, "cells", _int64_column("cells", self.cells))
        if self.kind is GraphKind.EXPLICIT:
            if self.edges is None:
                raise ValueError("explicit graph needs an edge set")
            pairs = [(min(a, b), max(a, b)) for a, b in self.edges]
            for a, b in pairs:
                if not (0 <= a < self.domain.size and 0 <= b < self.domain.size):
                    raise ValueError(f"edge ({a},{b}) references an invalid rank")
                if a == b:
                    raise ValueError("self-loops are not allowed")
            edges = np.unique(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=0)
            edges.flags.writeable = False
            object.__setattr__(self, "edges", edges)

    # -- constructors --------------------------------------------------

    @classmethod
    def full(cls, domain: DomainSpec) -> "SecretGraph":
        return cls(domain, GraphKind.FULL)

    @classmethod
    def attribute(cls, domain: DomainSpec) -> "SecretGraph":
        return cls(domain, GraphKind.ATTRIBUTE)

    @classmethod
    def partition(cls, domain: DomainSpec, groups) -> "SecretGraph":
        """Build from rank groups, e.g. ``[[0, 1], [2, 3]]``."""
        cells = [-1] * domain.size
        for cid, group in enumerate(groups):
            for r in group:
                if not 0 <= r < domain.size:
                    raise ValueError(f"rank {r} out of range")
                if cells[r] != -1:
                    raise ValueError(f"rank {r} assigned to two cells")
                cells[r] = cid
        if -1 in cells:
            raise ValueError("partition must cover every domain point")
        return cls(domain, GraphKind.PARTITION, cells=cells)

    @classmethod
    def distance(cls, domain: DomainSpec, theta: int) -> "SecretGraph":
        return cls(domain, GraphKind.DISTANCE, theta=int(theta))

    @classmethod
    def explicit(cls, domain: DomainSpec, edges) -> "SecretGraph":
        return cls(domain, GraphKind.EXPLICIT, edges=edges)

    # -- predicates ----------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether every two ranks are joined: theta reaches the diameter, as
        in the full graph, a distance graph at or past the diameter, or any
        graph over one rank."""
        return self.theta >= self.domain.diameter()

    def adjacent(self, x, y) -> np.ndarray:
        """Whether ranks x and y are joined by an edge, elementwise over the
        broadcast int64 rank arrays x and y: each kind's one edge rule."""
        x, y = np.asarray(x), np.asarray(y)
        if self.complete:
            return x != y
        if self.kind is GraphKind.PARTITION:
            return (self.cells[x] == self.cells[y]) & (x != y)
        if self.kind is GraphKind.EXPLICIT:
            size = self.domain.size
            return np.isin(np.minimum(x, y) * size + np.maximum(x, y), self.edges @ np.array([size, 1]))
        if self.kind is GraphKind.ATTRIBUTE:
            return sum(col[x] != col[y] for col in self.domain.coords().T) == 1
        dist = sum(np.abs(col[x] - col[y]) for col in self.domain.coords().T)
        return (dist >= 1) & (dist <= self.theta)

    def reaches(self, sets) -> np.ndarray:
        """For each row of the (n, size) bool array ``sets``, the ranks outside
        the set adjacent to one of its ranks: each kind's neighbour-set rule,
        linear in n * size, with no edge built."""
        sets = np.asarray(sets, dtype=bool)
        n, sizes = len(sets), self.domain.sizes
        if self.complete:
            # a set that holds a rank reaches every other rank
            near = sets.any(axis=1, keepdims=True)
        elif self.kind is GraphKind.PARTITION:
            # the rank's cell holds a rank of the set
            _, cell = np.unique(self.cells, return_inverse=True)
            held = np.zeros((cell.max() + 1, n), dtype=bool)
            np.logical_or.at(held, cell, sets.T)
            near = held[cell].T
        elif self.kind is GraphKind.EXPLICIT:
            # the other ends of the stored edges
            near = np.zeros_like(sets)
            for a, b in (self.edges.T, self.edges.T[::-1]):
                np.logical_or.at(near.T, b, sets.T[a])
        elif self.kind is GraphKind.ATTRIBUTE:
            # some rank of the set on the line through the rank along one attribute
            grid = sets.reshape(n, *sizes)
            near = np.zeros_like(grid)
            for axis in range(1, grid.ndim):
                near |= grid.any(axis=axis, keepdims=True)
            near = near.reshape(sets.shape)
        else:
            # distance: L1 is separable, so the distance to the set is one
            # forward and one backward pass per attribute (Rosenfeld & Pfaltz
            # 1966), in place; diameter + 1 stands for no rank of the set
            dist = np.where(sets, 0, self.domain.diameter() + 1).reshape(n, *sizes)
            forward = np.empty_like(dist)
            for axis, s in enumerate(sizes, start=1):
                i = np.arange(s).reshape(-1, *[1] * (len(sizes) - axis))
                np.minimum.accumulate(np.subtract(dist, i, out=forward), axis=axis, out=forward)
                forward += i
                backward = np.flip(np.add(dist, i, out=dist), axis)
                np.minimum.accumulate(backward, axis=axis, out=backward)
                np.minimum(np.subtract(dist, i, out=dist), forward, out=dist)
            near = dist.reshape(sets.shape) <= self.theta
        return near & ~sets

    def has_any_edge(self) -> bool:
        return self.max_rank_gap() > 0

    def max_rank_gap(self) -> int:
        """max |rank(x) - rank(y)| over the edges; 0 if there are none."""
        domain = self.domain
        if self.kind is GraphKind.ATTRIBUTE:
            return max((a.size - 1) * w for a, w in zip(domain.attributes, domain._weights))
        if self.kind is GraphKind.PARTITION:
            return _cell_spread(self.cells, np.arange(domain.size))
        if self.kind is not GraphKind.EXPLICIT:
            # maximize sum of d_i * weight_i subject to sum d_i <= theta,
            # 0 <= d_i <= |A_i| - 1: greedy on the largest place values
            budget, gap = self.theta, 0
            for w, span in sorted(zip(domain._weights, (a.size - 1 for a in domain.attributes)), reverse=True):
                take = min(budget, span)
                budget, gap = budget - take, gap + take * w
            return gap
        return int((self.edges[:, 1] - self.edges[:, 0]).max(initial=0))

    def max_edge_l1(self) -> int:
        """max L1 length of an edge, in value indices; 0 if there are none.

        In a partition cell it is the widest spread of the coordinates along
        some sign vector s, as |u - v| in L1 is the largest s.(u - v), and s
        and -s spread alike.  For d attributes of more than one value the
        spreads cost 2^(d-1) * |T|, and a cell's pairs cost k^2 for k ranks:
        the cheaper runs."""
        domain = self.domain
        if self.kind not in (GraphKind.PARTITION, GraphKind.EXPLICIT):
            return edge_reach(self.kind, [a.size - 1 for a in domain.attributes], self.theta)
        pairs = self.edges
        if self.kind is GraphKind.PARTITION:
            varying = [i for i, a in enumerate(domain.attributes) if a.size > 1]
            spread_cost = 2 ** max(len(varying) - 1, 0) * domain.size
            if spread_cost < int((np.unique(self.cells, return_counts=True)[1] ** 2).sum()):
                _check_edge_budget(spread_cost, "cell spreads", "values")
                signs = np.array(list(itertools.product((1,), *[(1, -1)] * (len(varying) - 1))))
                return _cell_spread(self.cells, domain.coords()[:, varying] @ signs.T)
            pairs = iter_graph_edges(self)
        ends = np.unravel_index(pairs, domain.sizes)
        return int(sum(np.abs(c[:, 0] - c[:, 1]) for c in ends).max(initial=0))

    def crosses(self, cells) -> bool:
        """Whether some edge joins two different cells of a partition of the
        ranks, given as a cell id (or a match flag) per rank."""
        if not self.has_any_edge():
            return False
        cells = np.asarray(cells)
        if self.kind is GraphKind.PARTITION:
            # some secret cell holds ranks of two query cells
            return len(np.unique(np.stack([self.cells, cells], axis=1), axis=0)) > len(np.unique(self.cells))
        if self.kind is GraphKind.EXPLICIT:
            return bool((cells[self.edges[:, 0]] != cells[self.edges[:, 1]]).any())
        # unit steps connect the domain and are edges of full, attribute and
        # distance graphs alike (distance needs theta >= 1, given by has_any_edge)
        return bool((cells != cells[0]).any())


def _cell_spread(cells: np.ndarray, values: np.ndarray) -> int:
    """The largest max - min within one cell of ``cells`` of a column of
    ``values``, an (|T|,) or (|T|, k) array with one row per rank."""
    order = np.argsort(cells, kind="stable")
    _, starts = np.unique(cells[order], return_index=True)
    values = values[order]
    return int((np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)).max())


def _check_edge_budget(count: int, what: str = "edge iteration", unit: str = "pairs") -> None:
    if count > DEFAULT_EDGE_BUDGET:
        raise BudgetExceededError(f"{what} would visit ~{count} {unit}, budget is {DEFAULT_EDGE_BUDGET}")


def iter_graph_edges(g: SecretGraph) -> np.ndarray:
    """Ordered rank pairs (x, y), x != y, that are edges of g.

    One (m, 2) int64 array holding both directions of every edge, its rows
    sorted by (x, y), 16 bytes per pair: the cells' runs, the stored edges, or
    for other kinds a scan of ``adjacent`` over every rank pair.  Raises
    BudgetExceededError, before building any pair, if the enumeration would
    visit more than ``DEFAULT_EDGE_BUDGET`` candidate pairs.
    """
    domain = g.domain
    if g.kind is GraphKind.PARTITION:
        order = np.argsort(g.cells, kind="stable")
        ordered = g.cells[order]
        # per rank: where its cell starts in cell order, and the cell's size;
        # a stable sort lists every cell's ranks in ascending order
        start = np.searchsorted(ordered, g.cells)
        k = np.searchsorted(ordered, g.cells, side="right") - start
        _check_edge_budget(int(k.sum()))
        x = np.repeat(np.arange(domain.size, dtype=np.int64), k)
        y = order[runs(start, k)]
        return np.stack([x[x != y], y[x != y]], axis=1)
    if g.kind is GraphKind.EXPLICIT:
        _check_edge_budget(2 * len(g.edges))
        both = np.concatenate([g.edges, g.edges[:, ::-1]])
        return both[np.lexsort((both[:, 1], both[:, 0]))]
    _check_edge_budget(domain.size**2)
    ranks = np.arange(domain.size, dtype=np.int64)
    return np.argwhere(g.adjacent(ranks[:, None], ranks))


def _signatures(match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, sig)`` of ``np.unique(match.T, axis=0, return_index=True,
    return_inverse=True)``: each signature's first rank, and each rank's
    signature, numbered in the columns' lexicographic order.

    A column packs, most significant bit first, into bytes whose order is
    the column's, so one void key per rank sorts as the column does."""
    if not match.shape[0]:
        # no query: every rank has the one empty signature
        return np.zeros(1, dtype=np.intp), np.zeros(match.shape[1], dtype=np.intp)
    packed = np.ascontiguousarray(np.packbits(match, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, sig = np.unique(keys, return_index=True, return_inverse=True)
    return first, sig


def signature_edges(g: SecretGraph, match: np.ndarray) -> np.ndarray:
    """The first edge of g, in (x, y) order, joining each ordered pair of
    different signatures; a (k, 2) int64 array in (x, y) order.

    A rank's signature is its column of the (n_queries, size) bool ``match``
    matrix.  Ranks with the same signature act alike on every query, so a
    per-query scan of these edges sees everything a scan of all edges sees.
    For each signature b, x is the first rank of each other signature that
    ``reaches`` b, and y the first rank of b adjacent to x: signatures * size.
    """
    first, sig = _signatures(match)
    n_sig, size = len(first), g.domain.size
    _check_edge_budget(n_sig * size, f"{n_sig} signatures", "ranks")
    # every signature's ranks, ascending, as one run of ``order``
    order = np.argsort(sig, kind="stable")
    starts = np.searchsorted(sig[order], np.arange(n_sig))
    # entry (b, a): the first rank of signature a that reaches b, else size
    reach = np.where(g.reaches(sig == np.arange(n_sig)[:, None])[:, order], order, size)
    firsts = np.minimum.reduceat(reach, starts, axis=1)
    b, a = np.nonzero(firsts < size)
    x = firsts[b, a]
    if g.complete:
        # x is adjacent to b's first rank
        y = first[b]
    else:
        # the first rank of b's run adjacent to x
        counts = np.diff(starts, append=size)
        at = runs(starts[b], counts[b])
        near = g.adjacent(np.repeat(x, counts[b]), order[at])
        y = order[np.minimum.reduceat(np.where(near, at, size), np.cumsum(counts[b]) - counts[b])]
    return np.stack([x, y], axis=1)[np.lexsort((y, x))]


# -- constraints -----------------------------------------------------------


@dataclass(frozen=True)
class CountQuery:
    """Conjunctive count query: per-attribute allowed value-index sets.

    Attributes without an entry are unconstrained.  Marginal cells are the
    singleton-set special case; rectangles the contiguous-set special case.
    ``answer`` records the publicly known count, if any.
    """

    allowed: tuple[frozenset[int] | None, ...]
    answer: int | None = None

    def __post_init__(self) -> None:
        for s in self.allowed:
            if s is not None and not s:
                raise ValueError("allowed value sets must be non-empty")
        if self.answer is not None and self.answer < 0:
            raise ValueError(f"constraint answer must be at least 0, got {self.answer}")
        if self.answer is not None and self.answer >= 2**63:
            raise ValueError(f"constraint answer must be below 2**63, got {self.answer}")

    @classmethod
    def where(cls, domain: DomainSpec, selections: dict[str, list[str] | range], answer: int | None = None) -> "CountQuery":
        """The query allowing, per named attribute, a list of its labels or a
        ``range`` of its value indices; other attributes are unconstrained."""
        unknown = set(selections) - {a.name for a in domain.attributes}
        if unknown:
            raise ValueError(f"unknown attributes in query: {sorted(unknown)}")
        allowed: list[frozenset[int] | None] = []
        for attr in domain.attributes:
            sel = selections.get(attr.name)
            if sel is None:
                allowed.append(None)
            elif isinstance(sel, range):
                if not 0 <= sel.start < sel.stop <= attr.size:
                    raise ValueError(f"bad range [{sel.start},{sel.stop - 1}] for attribute {attr.name!r}")
                allowed.append(frozenset(sel))
            else:
                allowed.append(frozenset(map(attr.index_of, sel)))
        return cls(tuple(allowed), answer)

    def support_size(self, domain: DomainSpec) -> int:
        out = 1
        for s, attr in zip(self.allowed, domain.attributes):
            out *= attr.size if s is None else len(s)
        return out

    def is_rectangle(self) -> bool:
        for s in self.allowed:
            if s is None:
                continue
            vals = sorted(s)
            if vals[-1] - vals[0] + 1 != len(vals):
                return False
        return True


def match_matrix(queries, domain: DomainSpec) -> np.ndarray:
    """(len(queries), size) bool matrix: whether each rank matches each query.

    Each constrained attribute contributes a lookup table over its value
    indices, read at every rank's coordinate; an allowed index outside
    ``[0, attr.size)`` matches no rank.
    """
    out = np.ones((len(queries), domain.size), dtype=bool)
    for row, q in zip(out, queries):
        for col, s, attr in zip(domain.coords().T, q.allowed, domain.attributes):
            if s is not None:
                table = np.zeros(attr.size, dtype=bool)
                table[np.array([v for v in s if 0 <= v < attr.size], dtype=np.intp)] = True
                row &= table[col]
    return out


class ConstraintKind(str, Enum):
    NONE = "none"
    CARDINALITY = "cardinality"
    GENERAL = "general"


@dataclass(frozen=True)
class ConstraintSet:
    kind: ConstraintKind
    queries: tuple[CountQuery, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is not ConstraintKind.GENERAL and self.queries:
            raise ValueError("only general constraint sets carry queries")

    @classmethod
    def none(cls) -> "ConstraintSet":
        return cls(ConstraintKind.NONE)

    @classmethod
    def cardinality_only(cls) -> "ConstraintSet":
        return cls(ConstraintKind.CARDINALITY)

    @classmethod
    def of(cls, queries) -> "ConstraintSet":
        return cls(ConstraintKind.GENERAL, tuple(queries))

    @property
    def unconstrained(self) -> bool:
        return self.kind is not ConstraintKind.GENERAL


@dataclass(frozen=True)
class Policy:
    """The policy triple: domain, secret graph, constraint set."""

    domain: DomainSpec
    graph: SecretGraph
    constraints: ConstraintSet

    def __post_init__(self) -> None:
        if self.graph.domain != self.domain:
            raise ValueError("secret graph is defined over a different domain")

    def describe(self) -> str:
        g = self.graph
        if g.kind is GraphKind.DISTANCE:
            gdesc = f"distance(theta={g.theta})"
        elif g.kind is GraphKind.PARTITION:
            gdesc = f"partition(cells={len(np.unique(g.cells))})"
        elif g.kind is GraphKind.EXPLICIT:
            gdesc = f"explicit(edges={len(g.edges)})"
        else:
            gdesc = g.kind.value
        c = self.constraints
        cdesc = c.kind.value if c.unconstrained else f"general(q={len(c.queries)})"
        return f"{gdesc}|{cdesc}"

    def answered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The queries whose answer is known: their indices among the
        constraint queries, their (k, size) match rows and int64 answers."""
        queries = self.constraints.queries
        index = np.array([i for i, q in enumerate(queries) if q.answer is not None], dtype=np.intp)
        known = [queries[i] for i in index]
        return index, match_matrix(known, self.domain), np.array([q.answer for q in known], dtype=np.int64)


def load_policy(source: str | dict, domain: DomainSpec) -> Policy:
    """Parse a policy file: ``{"graph": {...}, "constraints": {...}}``."""
    if isinstance(source, str):
        source = read_json(source, "policy")
    if not isinstance(source, dict):
        raise ValueError("policy must be a JSON object")
    gspec = read_field(source, "graph", None, dict, where="policy")
    kind = read_field(gspec, "kind", None, str, where="policy graph").lower()
    if kind == "full":
        graph = SecretGraph.full(domain)
    elif kind == "attribute":
        graph = SecretGraph.attribute(domain)
    elif kind == "distance":
        graph = SecretGraph.distance(domain, read_field(gspec, "theta", None, int, where="distance graph"))
    elif kind == "partition":
        graph = SecretGraph.partition(domain, read_field(gspec, "cells", None, [[int]], where="partition graph"))
    elif kind == "explicit":
        edges = read_field(gspec, "edges", None, [[int]], where="explicit graph")
        if any(len(e) != 2 for e in edges):
            raise ValueError("explicit graph 'edges' must be a list of pairs of ranks")
        graph = SecretGraph.explicit(domain, edges)
    else:
        raise ValueError(f"unknown graph kind {gspec.get('kind')!r}")

    cspec = source.get("constraints", {"kind": "none"})
    if isinstance(cspec, list):
        cspec = {"kind": "general", "queries": cspec}
    if not isinstance(cspec, dict):
        raise ValueError("policy 'constraints' must be an object or a list of queries")
    ckind = read_field(cspec, "kind", "general", str, where="policy constraints").lower()
    if ckind in ("none", "cardinality") and "queries" in cspec:
        raise ValueError(f"policy constraints of kind {ckind!r} take no 'queries' field")
    if ckind == "none":
        constraints = ConstraintSet.none()
    elif ckind == "cardinality":
        constraints = ConstraintSet.cardinality_only()
    elif ckind == "general":
        queries = []
        for q in read_field(cspec, "queries", [], [dict], where="policy constraints"):
            selections: dict[str, list[str] | range] = {}
            for attr, sel in read_field(q, "where", {}, dict, where="constraint").items():
                if isinstance(sel, list):
                    selections[attr] = sel
                elif isinstance(sel, dict) and isinstance(sel.get("range"), list) and len(sel["range"]) == 2:
                    lo, hi = read_field(sel, "range", None, [int], where=f"selection of {attr!r}")
                    selections[attr] = range(lo, hi + 1)
                else:
                    raise ValueError(f"selection of {attr!r} must be a list of labels or {{\"range\": [lo, hi]}}")
            answer = read_field(q, "answer", None, (int, None), where="constraint")
            queries.append(CountQuery.where(domain, selections, answer))
        constraints = ConstraintSet.of(queries)
    else:
        raise ValueError(f"unknown constraint kind {cspec.get('kind')!r}")
    return Policy(domain=domain, graph=graph, constraints=constraints)


# -- neighbor enumeration ----------------------------------------------------


def _database_table(policy: Policy, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every database of n tuples as a (size**n, n) int64 array of ranks in
    lexicographic order, the place value of each tuple in a row's flat
    index, and whether each row satisfies the constraints."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    size = policy.domain.size
    # a row holds n ranks, so n is bounded as well: over a one-value domain
    # the one database grows with n
    if n > DEFAULT_ENUM_BUDGET or size**n > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(
            f"{size}**{n} databases of {n} tuples exceed enumeration budget {DEFAULT_ENUM_BUDGET}"
        )
    total = size**n
    place = size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = np.arange(total, dtype=np.int64)[:, None] // place % size
    _, match, answers = policy.answered()
    counts = match[:, rows].sum(axis=2)
    satisfies = (counts == answers[:, None]).all(axis=0)
    if not satisfies.any():
        raise InfeasibleConstraintsError("constraint answers admit no database")
    return rows, place, satisfies


def enumerate_databases(policy: Policy, n: int) -> np.ndarray:
    """All databases of n tuples satisfying the constraints: an (m, n) int64
    array of ranks, one database per row, in lexicographic order."""
    rows, _, satisfies = _database_table(policy, n)
    return rows[satisfies]


def neighbor_databases(policy: Policy, n: int, sorted_d1: bool = False):
    """Yield (d1, d2s) lazily per database d1: its (n,) row of ranks and a
    (k, n) int64 array of its neighbors, one per row.

    d2 is a neighbor of d1 when it satisfies the constraints, differs from
    d1, changes tuples only along secret-graph edges, and no proper non-empty
    part of its changes, applied to d1 alone, gives a satisfying database.
    Both sides come in ``enumerate_databases`` order.  With ``sorted_d1``
    only the non-decreasing d1 rows are visited: the representatives of
    databases under id permutation.

    Minimality in the realized secret pairs alone is the whole rule: every
    change of a candidate realizes a secret pair, so two candidates with the
    same pairs are the same database and "same pairs, fewer raw changes"
    never separates them.  Over the ``|T|^n`` table of databases, with
    ``reach(x)`` = x satisfies or is dominated (and d1 itself unreachable),
    x is dominated when setting one of its changed tuples back to d1 gives a
    reachable database; both are filled in order of the number of changes,
    O(n * |T|^n) per d1.
    """
    rows, place, satisfies = _database_table(policy, n)
    total = len(rows)
    ranks = np.arange(policy.domain.size)
    ids = np.arange(n)
    d1s = rows[satisfies]
    if sorted_d1:
        d1s = d1s[(d1s[:, 1:] >= d1s[:, :-1]).all(axis=1)]
    for d1 in d1s:
        changed = rows != d1
        n_changed = changed.sum(axis=1)
        # entry (i, r): whether tuple i may change from d1's value to rank r
        edge = policy.graph.adjacent(d1[:, None], ranks)
        along_edges = (edge[ids, rows] | ~changed).all(axis=1)
        # entry (x, i): the database x with tuple i set back to d1's value
        back = np.arange(total)[:, None] - (rows - d1) * place
        reach = np.zeros(total, dtype=bool)
        dominated = np.zeros(total, dtype=bool)
        # no level past the most changes along edges holds a candidate
        for k in range(1, n_changed[along_edges].max() + 1):
            at = np.flatnonzero(along_edges & (n_changed == k))
            dominated[at] = (changed[at] & reach[back[at]]).any(axis=1)
            reach[at] = satisfies[at] | dominated[at]
        yield d1, rows[satisfies & along_edges & ~dominated & (n_changed > 0)]


# -- parallel decomposition --------------------------------------------------


def check_parallel_decomposition(policy: Policy, subsets, n: int | None = None) -> bool:
    """Whether the constraints decompose over the given disjoint id subsets.

    True when the constraint set can be split into disjoint groups, one per
    subset, such that no constraint's critical secret pairs touch ids outside
    its own subset.  Cardinality-only and empty constraint sets always pass.
    Each answered query's match row goes through the closed-form crossing
    rule, so no secret-graph edge is enumerated and no graph is too large.
    """
    subsets = [frozenset(s) for s in subsets]
    for i, a in enumerate(subsets):
        for b in subsets[i + 1 :]:
            if a & b:
                raise ValueError("id subsets must be disjoint")
    if policy.constraints.unconstrained:
        return True
    if n is None:
        n = max((max(s) for s in subsets if s), default=-1) + 1
    nonempty = sum(1 for s in subsets if s)
    _, match, answers = policy.answered()
    # a query is crossed when some edge joins a rank matching it to one that
    # does not: its match row splits the domain into two query cells
    crossed = np.array([policy.graph.crosses(row) for row in match], dtype=bool)
    # secret graphs are symmetric, so a crossed query is both lifted and
    # lowered; a pair is critical when the other n-1 tuples can meet the
    # answer with the changed tuple inside q or outside it
    critical = crossed & (n >= 1) & (answers <= n)
    # secrets are uniform across ids, so a critical pair exists for every
    # id at once; such a query conflicts with every other non-empty subset
    return not (critical.any() and nonempty > 1)
