"""Lloyd k-means and its privacy-preserving variant.

The private variant releases, per iteration, noisy cluster sizes (sensitivity
2, like any histogram) and noisy per-cluster coordinate sums, whose
sensitivity depends on the policy: twice the domain's L1 diameter under
full-domain secrets, but only twice the threshold under distance-threshold
secrets.  Each iteration spends an equal slice of the budget, split between
the two queries; the charges are recorded in a budget ledger that composes
sequentially to the configured epsilon.

Both variants share one Lloyd kernel over the points' (d, n) columns.  It
assigns points one centroid at a time: each centroid's (n,) squared-distance
row is folded into a running minimum, and a point's index moves only on a
strictly smaller distance, so ties go to the lowest index and no (k, n)
matrix is built.  Cluster sizes and sums come from ``np.bincount`` (see
``_sq_rows`` for when its floats equal a per-centroid, per-cluster loop's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfiniteSensitivityError
from .mechanisms import BudgetLedger, PrivacyParams, compose_budgets, stream_generator, stream_laplace
from .policy import Policy
from .sensitivity import ClusterSumQuery, _cluster_sum_sensitivity, _l1_reach, closed_form_sensitivity


@dataclass(frozen=True)
class KmeansConfig:
    k: int
    iterations: int = 10
    split: float = 0.5  # budget fraction for the size query
    init: tuple[tuple[float, ...], ...] | None = None  # None: seeded uniform in bounds

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 < self.split < 1:
            raise ValueError("split must be in (0, 1)")
        if self.init is not None and len(self.init) != self.k:
            raise ValueError("explicit init must provide k centroids")


@dataclass(frozen=True)
class ClusteringPolicy:
    """Secret specification over a continuous box domain.

    ``kind`` is one of full / distance / attribute; ``theta`` applies to the
    distance kind and is in data units.
    """

    bounds: tuple[tuple[float, float], ...]
    kind: str = "full"
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("full", "distance", "attribute"):
            raise ValueError(f"unknown clustering policy kind {self.kind!r}")
        for lo, hi in self.bounds:
            if not lo <= hi:
                raise ValueError("bounds must satisfy lo <= hi")
        if self.kind == "distance" and self.theta < 0:
            raise ValueError("theta must be non-negative")

    def qsum_sensitivity(self, k: int) -> float:
        spans = [hi - lo for lo, hi in self.bounds]
        return _cluster_sum_sensitivity(k, _l1_reach(self.kind, spans, self.theta))

    def describe(self) -> str:
        if self.kind == "distance":
            return f"distance(theta={self.theta})"
        return self.kind


@dataclass(frozen=True)
class ClusteringResult:
    centroids: np.ndarray
    objective: float
    trace: tuple[float, ...]
    ledger: BudgetLedger | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out = {
            "centroids": [[float(v) for v in c] for c in self.centroids],
            "objective": self.objective,
            "trace": list(self.trace),
        }
        if self.ledger is not None:
            out["epsilon_spent"] = compose_budgets(self.ledger)
        return out


def kmeans_objective(points, centroids) -> float:
    """Sum of squared L2 distances to the nearest centroid (ties to the
    lowest centroid index)."""
    return _assign(np.ascontiguousarray(_as_points(points).T), np.asarray(centroids, dtype=float))[1]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("no data points")
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array, one row per point")
    return pts


def _sq_rows(cols: np.ndarray, cents: np.ndarray):
    """Yield each centroid's (n,) squared L2 distances to the (d, n) columns,
    added one coordinate at a time into one reused buffer.  For 2 <= d <= 7
    each entry, and each bincount cluster sum, is the float of a per-centroid,
    per-cluster loop over (n, d) rows; at d = 1 and d >= 8 numpy sums those
    pairwise and the last bits can differ."""
    row = np.empty(cols.shape[1])
    sq = np.empty_like(row)
    for cent in cents.tolist():
        np.subtract(cols[0], cent[0], out=row)
        row *= row
        for col, c in zip(cols[1:], cent[1:]):
            np.subtract(col, c, out=sq)
            sq *= sq
            row += sq
        yield row


def _assign(cols: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest-centroid index of every point and the objective, as argmin and
    min over a (k, n) distance matrix give them, without building it: a
    running minimum row, whose index moves only on a strict ``<`` (ties go to
    the lowest index)."""
    if cents.ndim != 2 or cents.shape[1] != len(cols):
        raise ValueError("points and centroids have different dimensions")
    if not len(cents):
        raise ValueError("need at least one centroid")
    rows = _sq_rows(cols, cents)
    best = next(rows).copy()
    assign = np.zeros(best.size, dtype=np.intp)
    for i, row in enumerate(rows, 1):
        np.copyto(assign, i, where=row < best)
        np.minimum(best, row, out=best)
    objective = float(best.sum())
    if math.isnan(objective):
        # argmin takes a point's first NaN distance, which no "<" ever moves to
        unset = np.isnan(best)
        for i, row in enumerate(_sq_rows(cols, cents)):
            hit = unset & np.isnan(row)
            assign[hit] = i
            unset &= ~hit
    return assign, objective


def _lloyd(pts: np.ndarray, cents: np.ndarray, iterations: int, update) -> ClusteringResult:
    """``iterations`` Lloyd rounds; ``update(t, cents, sizes, sums)`` maps the
    round's (k,) sizes and (k, d) coordinate sums to the next centroids."""
    cols = np.ascontiguousarray(pts.T)
    assign, _ = _assign(cols, cents)
    trace = []
    for t in range(iterations):
        sizes = np.bincount(assign, minlength=len(cents))
        sums = np.stack([np.bincount(assign, weights=col, minlength=len(cents)) for col in cols], axis=1)
        cents = update(t, cents, sizes, sums)
        assign, objective = _assign(cols, cents)
        trace.append(objective)
    return ClusteringResult(centroids=cents, objective=trace[-1], trace=tuple(trace))


def _init_centroids(cfg: KmeansConfig, bounds, seed: int, n: int) -> np.ndarray:
    if cfg.init is not None:
        return np.array(cfg.init, dtype=float)
    if n < cfg.k:
        raise ValueError(f"need at least k={cfg.k} points for random initialization")
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    rng = stream_generator(seed, 1)
    return lows + rng.random((cfg.k, len(bounds))) * (highs - lows)


def kmeans_nonprivate(points, cfg: KmeansConfig, seed: int, bounds=None) -> ClusteringResult:
    """Plain Lloyd iteration for a fixed number of rounds.

    Empty clusters keep their previous centroid.  ``bounds`` feeds the seeded
    uniform initialization; by default the data bounding box is used.
    """
    pts = _as_points(points)
    if bounds is None:
        bounds = tuple(zip(pts.min(axis=0).tolist(), pts.max(axis=0).tolist()))

    def update(t, cents, sizes, sums):
        return np.where(sizes[:, None] > 0, sums / np.maximum(sizes, 1)[:, None], cents)

    return _lloyd(pts, _init_centroids(cfg, bounds, seed, len(pts)), cfg.iterations, update)


def _resolve_policy(policy, cfg: KmeansConfig) -> tuple[ClusteringPolicy, float]:
    if isinstance(policy, ClusteringPolicy):
        return policy, policy.qsum_sensitivity(cfg.k)
    if isinstance(policy, Policy):
        if not policy.constraints.unconstrained:
            raise ValueError("private k-means requires an unconstrained policy")
        bounds = tuple((0.0, float(a.size - 1)) for a in policy.domain.attributes)
        sens = closed_form_sensitivity(ClusterSumQuery(cfg.k), policy).value
        return ClusteringPolicy(bounds=bounds), sens
    raise TypeError("policy must be a ClusteringPolicy or an unconstrained Policy")


def kmeans_private(
    points,
    cfg: KmeansConfig,
    policy,
    pp: PrivacyParams,
    zero_noise: bool = False,
) -> ClusteringResult:
    """Private Lloyd iteration: noisy sizes and sums per round.

    Per iteration, epsilon/iterations is split between the size query
    (sensitivity 2) and the sum query (policy-specific sensitivity).  Noisy
    centroids are noisy_sum / max(noisy_size, 1), clamped to the policy
    bounds.  Initialization is data-independent: seeded uniform points in
    the bounds box (or the explicit centroids from the config).  Every point
    must be finite and inside the bounds box, edges included; otherwise a
    ``ValueError`` names the first offending row (1-based).
    """
    pts = _as_points(points)
    cpolicy, qsum_sens = _resolve_policy(policy, cfg)
    if not math.isfinite(qsum_sens):
        raise InfiniteSensitivityError("sum query has infinite sensitivity under this policy")
    if pts.shape[1] != len(cpolicy.bounds):
        raise ValueError("data dimension does not match policy bounds")
    lows = np.array([lo for lo, _ in cpolicy.bounds])
    highs = np.array([hi for _, hi in cpolicy.bounds])
    # the sum query's sensitivity is calibrated to the bounds box: a point
    # outside it would move the sums further than the noise covers
    bad = ~(np.isfinite(pts) & (pts >= lows) & (pts <= highs)).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"point on row {row + 1} {pts[row].tolist()} is not finite or lies "
            f"outside the bounds {[list(b) for b in cpolicy.bounds]}"
        )

    eps_iter = pp.epsilon / cfg.iterations
    eps_size = eps_iter * cfg.split
    eps_sum = eps_iter - eps_size
    size_scale = 2.0 / eps_size
    sum_scale = qsum_sens / eps_sum
    ledger = BudgetLedger()

    def update(t, cents, sizes, sums):
        if not zero_noise:
            sizes = sizes + stream_laplace(pp.seed, 2 + 2 * t, size_scale, cfg.k)
            sums += stream_laplace(pp.seed, 3 + 2 * t, sum_scale, sums.size).reshape(sums.shape)
        ledger.charge(f"iteration {t}: sizes", eps_size)
        ledger.charge(f"iteration {t}: sums", eps_sum)
        return np.clip(sums / np.maximum(sizes, 1.0)[:, None], lows, highs)

    cents = _init_centroids(cfg, cpolicy.bounds, pp.seed, len(pts))
    return replace(_lloyd(pts, cents, cfg.iterations, update), ledger=ledger)
