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
from enum import Enum
from functools import cache

import numpy as np

from blowfish import (
    CountQuery,
    DomainSpec,
    NonSparseConstraintsError,
    Policy,
    SecretGraph,
    Workload,
    l1_distance,
)
from blowfish.experiments import _tag
from blowfish.kmeans import ClusteringResult, KmeansConfig, _init_centroids, _resolve_policy
from blowfish.mechanisms import BudgetLedger, PrivacyParams, stream_laplace
from blowfish.policy import GraphKind, iter_graph_edges
from blowfish.sensitivity import PolicyGraph


def is_edge(g: SecretGraph, x, y) -> bool:
    """Whether (x, y) is a discriminative secret pair, from the points'
    coordinates.  False for x == y."""
    if x == y:
        return False
    g.domain.validate_point(x)
    g.domain.validate_point(y)
    if g.kind is GraphKind.FULL:
        return True
    if g.kind is GraphKind.ATTRIBUTE:
        return sum(1 for a, b in zip(x, y) if a != b) == 1
    if g.kind is GraphKind.PARTITION:
        return g.cells[g.domain.rank(x)] == g.cells[g.domain.rank(y)]
    if g.kind is GraphKind.DISTANCE:
        return l1_distance(x, y) <= g.theta
    rx, ry = g.domain.rank(x), g.domain.rank(y)
    return (min(rx, ry), max(rx, ry)) in g.edge_list


class Effect(str, Enum):
    LIFTS = "Lifts"
    LOWERS = "Lowers"
    NEITHER = "Neither"


def lifts_lowers(pair, q: CountQuery) -> Effect:
    """Effect of changing a tuple from pair[0] to pair[1] on the count query."""
    x, y = pair
    mx, my = q.matches(x), q.matches(y)
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


def satisfying_databases(policy: Policy, n: int) -> list[tuple[int, ...]]:
    domain = policy.domain
    points = [domain.unrank(r) for r in range(domain.size)]
    answered = [q for q in policy.constraints.queries if q.answer is not None]
    out = []
    for db in itertools.product(range(domain.size), repeat=n):
        if all(sum(1 for r in db if q.matches(points[r])) == q.answer for q in answered):
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
    points = [domain.unrank(r) for r in range(domain.size)]
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


def hamiltonian_path_by_permutation(nodes, adj) -> bool:
    """Whether some ordering of ``nodes`` steps along an edge of the
    undirected graph ``adj`` between every two consecutive vertices."""
    return any(
        all(b in adj[a] for a, b in zip(order, order[1:]))
        for order in itertools.permutations(nodes)
    )


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
            bounds[attr.name] = (lo, int(rng.integers(lo, attr.size)))
    return CountQuery.rectangle(domain, bounds, answer)


def policy_graph_by_loop(constraints, g: SecretGraph) -> PolicyGraph:
    """The policy graph from one classification per secret-graph edge: every
    row of ``iter_graph_edges`` is run through ``lifts_lowers`` against every
    query, and each policy edge keeps the first pair that produced it."""
    queries = constraints.queries
    nq = len(queries)
    points = [g.domain.unrank(r) for r in range(g.domain.size)]
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
        mx, my = q.matches(domain.unrank(x_rank)), q.matches(domain.unrank(y_rank))
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


def philox_first_uniform(seed: int, index: int) -> float:
    return philox_stream(seed, index).random()


def ingest_by_index(text: str, domain: DomainSpec) -> tuple[list[int], list[int]]:
    """(ids, ranks) of delimited rows, read one cell at a time: each label is
    found with ``tuple.index`` and each point ranked with ``DomainSpec.rank``.
    Raises ``ValueError`` on the same inputs, with the same messages, as
    ``ingest_dataset``."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty input: missing header") from None
    header = [h.strip() for h in header]
    has_id = "id" in header
    expected = (["id"] if has_id else []) + [a.name for a in domain.attributes]
    if sorted(header) != sorted(expected):
        raise ValueError(f"header {header} does not match domain attributes {expected}")
    col = {name: header.index(name) for name in header}
    ids: list[int] = []
    ranks: list[int] = []
    for lineno, raw in enumerate(reader):
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
        ranks.append(domain.rank(tuple(point)))
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


def kmeans_objective_by_loop(points, centroids) -> float:
    pts = np.asarray(points, dtype=float)
    return float(sq_distances_by_loop(pts, np.asarray(centroids, dtype=float)).min(axis=1).sum())


def kmeans_nonprivate_by_loop(points, cfg: KmeansConfig, seed: int, bounds=None) -> ClusteringResult:
    """Lloyd iteration with one boolean-mask gather and mean per cluster."""
    pts = np.asarray(points, dtype=float)
    if bounds is None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in zip(pts.min(axis=0), pts.max(axis=0)))
    cents = _init_centroids(cfg, bounds, seed, len(pts))
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


def kmeans_private_by_loop(
    points, cfg: KmeansConfig, policy, pp: PrivacyParams, zero_noise: bool = False
) -> ClusteringResult:
    """Private Lloyd iteration with one boolean-mask gather per cluster: its
    size and coordinate sum get that cluster's slice of the round's noise."""
    pts = np.asarray(points, dtype=float)
    cpolicy, qsum_sens = _resolve_policy(policy, cfg)
    lows = np.array([lo for lo, _ in cpolicy.bounds])
    highs = np.array([hi for _, hi in cpolicy.bounds])
    cents = _init_centroids(cfg, cpolicy.bounds, pp.seed, len(pts))
    eps_iter = pp.epsilon / cfg.iterations
    eps_size = eps_iter * cfg.split
    eps_sum = eps_iter - eps_size
    ledger = BudgetLedger()
    trace = []
    dims = pts.shape[1]
    d2 = sq_distances_by_loop(pts, cents)
    for t in range(cfg.iterations):
        assign = d2.argmin(axis=1)
        if not zero_noise:
            size_noise = stream_laplace(pp.seed, 2 + 2 * t, 2.0 / eps_size, cfg.k)
            sum_noise = stream_laplace(pp.seed, 3 + 2 * t, qsum_sens / eps_sum, cfg.k * dims).reshape(cfg.k, dims)
        new = np.empty_like(cents)
        for c in range(cfg.k):
            members = pts[assign == c]
            size = float(len(members))
            total = members.sum(axis=0) if len(members) else np.zeros(dims)
            if not zero_noise:
                size += size_noise[c]
                total = total + sum_noise[c]
            new[c] = total / max(size, 1.0)
        cents = np.clip(new, lows, highs)
        ledger.charge(f"iteration {t}: sizes", eps_size)
        ledger.charge(f"iteration {t}: sums", eps_sum)
        d2 = sq_distances_by_loop(pts, cents)
        trace.append(float(d2.min(axis=1).sum()))
    return ClusteringResult(centroids=cents, objective=trace[-1], trace=tuple(trace), ledger=ledger)
