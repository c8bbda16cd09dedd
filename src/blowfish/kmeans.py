"""Lloyd k-means and its privacy-preserving variant.

The private variant releases, per iteration, noisy cluster sizes (sensitivity
2, like any histogram) and noisy per-cluster coordinate sums at
``ClusterSumQuery``'s closed form, for k >= 2 twice a secret edge's longest L1
move: the box's L1 diameter under full secrets, its widest span under
attribute secrets, and the threshold under distance secrets.  That form
assumes sums accounted from the cluster boundary; it does not yet cover the
raw-coordinate sums taken here.  Each iteration spends an equal slice of the
budget, halved between the two queries; the charges are recorded in a ledger
that composes sequentially to epsilon.

Both variants share one Lloyd kernel over the points' (d, n) columns, built
once per call.  It assigns points one centroid at a time: each centroid's
(n,) squared-distance row is folded into a running minimum, and a point's
index moves only on a strictly smaller distance, so ties go to the lowest
index and no (k, n) matrix is built.  The move is branch-free: centroid i
exceeds every index assigned before it, so ``max(assign, i * (row < best))``
moves exactly the points a masked store would.  Cluster sizes and sums come
from ``np.bincount`` (see ``_sq_rows`` for when its floats equal a
per-centroid, per-cluster loop's).  The private bounds check and the
non-private default bounds read each column's min and max, not a strided
reduction over the (n, d) points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import mechanisms
from .errors import InfiniteSensitivityError
from .mechanisms import BudgetLedger, PrivacyParams, compose_budgets, stream_generator
from .policy import edge_reach
from .sensitivity import _cluster_sum_sensitivity


# fraction of each iteration's budget spent on the size query
_SIZE_SHARE = 0.5


@dataclass(frozen=True)
class KmeansConfig:
    k: int
    iterations: int = 10
    init: tuple[tuple[float, ...], ...] | None = None  # None: seeded uniform in bounds

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.init is not None and len(self.init) != self.k:
            raise ValueError("explicit init must provide k centroids")


@dataclass(frozen=True)
class ClusteringPolicy:
    """Secret specification over a continuous box domain.

    ``kind`` is one of full / distance / attribute; ``theta`` is the distance
    kind's threshold in data units, finite and non-negative, and 0 for the
    other kinds.
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
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.theta < 0:
            raise ValueError(f"theta must be non-negative, got {self.theta}")
        if self.theta and self.kind != "distance":
            raise ValueError(f"theta must be a distance graph's non-negative threshold, got {self.theta}")

    def qsum_sensitivity(self, k: int) -> float:
        # the largest L1 move of one changed tuple inside the bounds box
        return _cluster_sum_sensitivity(k, edge_reach(self.kind, [hi - lo for lo, hi in self.bounds], self.theta))

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
    the lowest index).  Centroid i is larger than every index assigned so
    far, so ``max(assign, i * (row < best))`` is that move without a masked
    store, whose unpredictable branches on shuffled points cost several
    times the three ufuncs."""
    if cents.ndim != 2 or cents.shape[1] != len(cols):
        raise ValueError("points and centroids have different dimensions")
    if not len(cents):
        raise ValueError("need at least one centroid")
    rows = _sq_rows(cols, cents)
    best = next(rows).copy()
    assign = np.zeros(best.size, dtype=np.intp)
    closer = np.empty(best.size, dtype=bool)
    moved = np.empty_like(assign)
    for i, row in enumerate(rows, 1):
        np.less(row, best, out=closer)
        np.multiply(closer, i, out=moved)
        np.maximum(assign, moved, out=assign)
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


def _lloyd(cols: np.ndarray, cents: np.ndarray, iterations: int, update) -> ClusteringResult:
    """``iterations`` Lloyd rounds over the points' (d, n) columns;
    ``update(t, cents, sizes, sums)`` maps the round's (k,) sizes and (k, d)
    coordinate sums to the next centroids."""
    assign, _ = _assign(cols, cents)
    trace = []
    for t in range(iterations):
        sizes = np.bincount(assign, minlength=len(cents))
        sums = np.stack([np.bincount(assign, weights=col, minlength=len(cents)) for col in cols], axis=1)
        cents = update(t, cents, sizes, sums)
        assign, objective = _assign(cols, cents)
        trace.append(objective)
    return ClusteringResult(centroids=cents, objective=trace[-1], trace=tuple(trace))


def _init_centroids(cfg: KmeansConfig, lows: np.ndarray, highs: np.ndarray, seed: int, n: int) -> np.ndarray:
    if cfg.init is not None:
        return np.array(cfg.init, dtype=float)
    if n < cfg.k:
        raise ValueError(f"need at least k={cfg.k} points for random initialization")
    rng = stream_generator(seed, 1)
    return lows + rng.random((cfg.k, lows.size)) * (highs - lows)


def kmeans_nonprivate(points, cfg: KmeansConfig, seed: int, bounds=None) -> ClusteringResult:
    """Plain Lloyd iteration for a fixed number of rounds.

    Empty clusters keep their previous centroid.  ``bounds`` feeds the seeded
    uniform initialization; by default the data bounding box is used.
    """
    cols = np.ascontiguousarray(_as_points(points).T)
    lows, highs = (cols.min(axis=1), cols.max(axis=1)) if bounds is None else np.array(bounds).T

    def update(t, cents, sizes, sums):
        return np.where(sizes[:, None] > 0, sums / np.maximum(sizes, 1)[:, None], cents)

    return _lloyd(cols, _init_centroids(cfg, lows, highs, seed, cols.shape[1]), cfg.iterations, update)


def kmeans_private(points, cfg: KmeansConfig, policy: ClusteringPolicy, pp: PrivacyParams) -> ClusteringResult:
    """Private Lloyd iteration: noisy sizes and sums per round.

    Per iteration, epsilon/iterations is halved between the size query
    (sensitivity 2) and the sum query (policy-specific sensitivity).  Noisy
    centroids are noisy_sum / max(noisy_size, 1), clamped to the policy
    bounds.  Initialization is data-independent: seeded uniform points in
    the bounds box (or the explicit centroids from the config).  Every point
    must be finite and inside the bounds box, edges included; otherwise a
    ``ValueError`` names the first offending row (1-based).
    """
    pts = _as_points(points)
    qsum_sens = policy.qsum_sensitivity(cfg.k)
    if not math.isfinite(qsum_sens):
        raise InfiniteSensitivityError("sum query has infinite sensitivity under this policy")
    if pts.shape[1] != len(policy.bounds):
        raise ValueError("data dimension does not match policy bounds")
    lows, highs = np.array(policy.bounds).T
    # the sum query's sensitivity is calibrated to the bounds box: a point
    # outside it would move the sums further than the noise covers.  A NaN
    # reaches its column's min and max and +-inf is always one of them, so the
    # extremes decide; only a failing check looks for the row.
    cols = np.ascontiguousarray(pts.T)
    mins, maxs = cols.min(axis=1), cols.max(axis=1)
    if not (np.isfinite(mins) & np.isfinite(maxs) & (mins >= lows) & (maxs <= highs)).all():
        bad = ~(np.isfinite(pts) & (pts >= lows) & (pts <= highs)).all(axis=1)
        row = int(np.argmax(bad))
        raise ValueError(
            f"point on row {row + 1} {pts[row].tolist()} is not finite or lies "
            f"outside the bounds {[list(b) for b in policy.bounds]}"
        )

    eps_iter = pp.epsilon / cfg.iterations
    eps_size = eps_iter * _SIZE_SHARE
    eps_sum = eps_iter - eps_size
    ledger = BudgetLedger()

    def update(t, cents, sizes, sums):
        sizes = mechanisms.add_noise(sizes, pp.seed, 2 + 2 * t, 2.0 / eps_size)
        sums = mechanisms.add_noise(sums, pp.seed, 3 + 2 * t, qsum_sens / eps_sum)
        ledger.charge(f"iteration {t}: sizes", eps_size)
        ledger.charge(f"iteration {t}: sums", eps_sum)
        return np.clip(sums / np.maximum(sizes, 1.0)[:, None], lows, highs)

    cents = _init_centroids(cfg, lows, highs, pp.seed, len(pts))
    return replace(_lloyd(cols, cents, cfg.iterations, update), ledger=ledger)
