"""Noise mechanisms for histogram, cumulative-histogram and range release.

Four release strategies share the primitives here:

* the Laplace mechanism, calibrated to a policy-specific sensitivity;
* the ordered mechanism: independent noise on every prefix count followed by
  isotonic (pool-adjacent-violators) inference;
* the ordered-hierarchical mechanism: noisy prefix counts at every theta-th
  position (S nodes) plus an f-ary subtree of noisy interval counts per block
  (H nodes), with the privacy budget split between the two node kinds;
* the hierarchical baseline, an f-ary interval tree over the whole domain,
  which the ordered-hierarchical structure degenerates to at theta = |domain|.

Every noisy value is drawn from a counter-based stream keyed by (seed, node
index), so construction order and internal parallelism cannot change results.
Stream ``index`` is numpy's ``Philox(seed).jumped(index)``: Philox4x64-10
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011)
under the key numpy derives from the seed, with counter word 2 set to the
index.  A node's single draw is output word 0 of block 0, the block at counter
``(1, 0, index, 0)``; ``philox_uniforms`` evaluates it for every node of a
release in one numpy pass.  Prefix (S) nodes use even indices ``2i`` and
interval (H) nodes odd ones.  Streams that draw several values in a row
(the Laplace histogram, k-means) keep a numpy generator per stream
(``stream_generator``).  Every uniform becomes a Laplace variate in one
array pass (``_laplace``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InfiniteSensitivityError


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float
    seed: int

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> _SHIFT32
    lh = m_lo * x_hi
    hl = m_hi * x_lo
    mid = ((m_lo * x_lo) >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
    hi = m_hi * x_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, np.uint64(m) * x


def philox_uniforms(seed: int, indices) -> np.ndarray:
    """First uniform of each stream: ``Generator(Philox(seed).jumped(i)).random()``
    for every i in ``indices``, bit for bit, in one vectorized pass."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        # numpy turns a list mixing small ints and ints past 2**63 into floats:
        # keep the Python ints exact until they are range-checked
        idx = np.array(indices, dtype=object)
    if idx.size and (idx.min() < 0 or idx.max() >= 2**64):
        raise ValueError("stream indices must be in [0, 2**64)")
    key = [int(k) for k in np.random.Philox(seed).state["state"]["key"]]
    c0 = np.ones(idx.shape, dtype=np.uint64)
    c1 = np.zeros(idx.shape, dtype=np.uint64)
    c2 = idx.astype(np.uint64)
    c3 = np.zeros(idx.shape, dtype=np.uint64)
    for r in range(10):
        k0 = np.uint64((key[0] + r * _PHILOX_W[0]) % 2**64)
        k1 = np.uint64((key[1] + r * _PHILOX_W[1]) % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> np.uint64(11)) * 2.0**-53


def _check_scale(scale: float) -> None:
    if scale < 0 or not math.isfinite(scale):
        raise ValueError(f"scale must be finite and non-negative, got {scale}")


# math.log called once per element: an ndarray of floats in, an object array out
_LOG = np.frompyfunc(math.log, 1, 1)


def _laplace(scale, u: np.ndarray) -> np.ndarray:
    """Zero-mean Laplace(scale) variates by inverse CDF, one per uniform in
    ``u``; ``scale`` is one number or an array shaped like ``u``.

    Elementwise these are the float operations of the one-uniform transform
    ``-scale * copysign(1, u') * log(1 - 2|u'|)`` with ``u' = u - 0.5`` and
    a zero magnitude clamped to 5e-324.  Only the log runs per element, as
    ``math.log`` rather than ``np.log``: the two differ by an ulp on some
    inputs, and released values must not depend on which one ran.  A huge
    finite scale overflows to inf, silently, as Python floats do."""
    u = u - 0.5
    mag = np.maximum(1.0 - 2.0 * np.abs(u), 5e-324)
    with np.errstate(over="ignore"):
        return (-scale * np.copysign(1.0, u)) * _LOG(mag).astype(float)


def node_laplace(seed: int, indices, scales) -> np.ndarray:
    """One Laplace(scale) variate from each node's own stream; a node of
    scale 0 gets +0.0."""
    scales = np.asarray(scales, dtype=float)
    bad = ~(np.isfinite(scales) & (scales >= 0))
    if bad.any():
        _check_scale(float(scales[np.argmax(bad)]))
    uniforms = philox_uniforms(seed, indices)
    return np.where(scales == 0, 0.0, _laplace(scales, uniforms))


def stream_generator(seed: int, index: int) -> np.random.Generator:
    """``Generator(Philox(seed).jumped(index))``, bit for bit, for ``index``
    in [0, 2**64): the seeded state with counter word 2 set to ``index``.
    ``jumped`` first builds a bit generator seeded from OS entropy, which
    costs more than the seeded one itself."""
    if not 0 <= index < 2**64:
        raise ValueError("stream indices must be in [0, 2**64)")
    bits = np.random.Philox(seed)
    state = bits.state
    state["state"]["counter"][2] = index
    bits.state = state
    return np.random.Generator(bits)


def stream_laplace(seed: int, index: int, scale: float, n: int) -> np.ndarray:
    """n Laplace(scale) variates drawn in a row from stream ``index``."""
    _check_scale(scale)
    if scale == 0:
        return np.zeros(n)
    return _laplace(scale, stream_generator(seed, index).random(n))


def laplace_mechanism(truth, sensitivity: float, pp: PrivacyParams) -> np.ndarray:
    """Add iid Laplace(sensitivity / epsilon) noise to each component."""
    if not math.isfinite(sensitivity):
        raise InfiniteSensitivityError(
            "infinite sensitivity: the policy cannot release this query with finite noise"
        )
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    values = np.asarray(truth, dtype=float)
    if sensitivity == 0:
        return values.copy()
    noise = stream_laplace(pp.seed, 0, sensitivity / pp.epsilon, values.size)
    return values + noise.reshape(values.shape)


def isotonic_inference(noisy, lower_bound: float | None = None) -> np.ndarray:
    """L2-nearest non-decreasing vector (pool adjacent violators).

    With ``lower_bound`` set, the result is additionally clipped from below;
    clipping the isotonic fit is the exact projection onto the constrained
    cone.
    """
    y = np.asarray(noisy, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("input must be a non-empty 1-D vector")
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


@dataclass(frozen=True)
class ReleasedCumulative:
    """A released cumulative histogram: raw noisy prefixes and the
    monotone post-inference vector actually published."""

    noisy: np.ndarray
    inferred: np.ndarray
    theta: int
    epsilon: float
    seed: int

    def range_query(self, i: int, j: int) -> float:
        size = self.inferred.size
        if not 1 <= i <= j <= size:
            raise ValueError(f"invalid range [{i},{j}] for domain of size {size}")
        lower = self.inferred[i - 2] if i >= 2 else 0.0
        return float(self.inferred[j - 1] - lower)

    def to_dict(self) -> dict:
        return {
            "mechanism": "ordered",
            "theta": self.theta,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "values": [float(v) for v in self.inferred],
        }


def ordered_mechanism(
    hist,
    theta: int,
    pp: PrivacyParams,
    zero_noise: bool = False,
) -> ReleasedCumulative:
    """Release the cumulative histogram with Laplace(theta / epsilon) noise
    per prefix count, then isotonic inference.

    Under distance-threshold secrets with threshold theta, a protected change
    moves a tuple at most theta rank positions, so each prefix count moves by
    at most theta.
    """
    counts = np.asarray(hist, dtype=np.int64)
    if theta < 1:
        raise ValueError("theta must be >= 1")
    scale = 0.0 if zero_noise else theta / pp.epsilon
    noisy = np.cumsum(counts).astype(float)
    noisy += node_laplace(pp.seed, np.arange(2, 2 * counts.size + 1, 2), np.full(counts.size, scale))
    inferred = isotonic_inference(noisy, lower_bound=0.0)
    return ReleasedCumulative(
        noisy=noisy, inferred=inferred, theta=theta, epsilon=pp.epsilon, seed=pp.seed
    )


# -- ordered hierarchical structure -------------------------------------------


@dataclass(frozen=True)
class BudgetSplit:
    eps_s: float
    eps_h: float
    predicted_mse: float
    c1: float
    c2: float


def oh_error_model(domain_size: int, theta: int, fanout: int, eps_s: float, eps_h: float) -> float:
    """Predicted mean squared error of a random range query: c1/eps_s^2 + c2/eps_h^2."""
    c1, c2 = _error_coefficients(domain_size, theta, fanout)
    out = 0.0
    if c1:
        out += c1 / eps_s**2
    if c2:
        out += c2 / eps_h**2
    return out


def _error_coefficients(domain_size: int, theta: int, fanout: int) -> tuple[float, float]:
    if not 1 <= theta <= domain_size:
        raise ValueError(f"theta must be in [1, {domain_size}]")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    c1 = 4.0 * (domain_size - theta) / (domain_size + 1)
    c2 = 8.0 * (fanout - 1) * math.log(theta, fanout) ** 3 * domain_size / (domain_size + 1)
    return c1, c2


def optimal_budget_split(domain_size: int, theta: int, fanout: int, epsilon: float) -> BudgetSplit:
    """Split epsilon between S and H nodes to minimize the error model.

    Minimizing c1/x^2 + c2/(eps-x)^2 gives x* = eps * c1^(1/3) / (c1^(1/3) +
    c2^(1/3)), with minimum (c1^(1/3) + c2^(1/3))^3 / eps^2.  Theta = 1 puts
    the whole budget on S nodes (pure ordered mechanism); theta = |domain|
    puts it on H nodes (pure hierarchical).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    c1, c2 = _error_coefficients(domain_size, theta, fanout)
    a, b = c1 ** (1 / 3), c2 ** (1 / 3)
    if a + b == 0:
        # single-point domain with theta 1: no error either way
        return BudgetSplit(eps_s=epsilon, eps_h=0.0, predicted_mse=0.0, c1=c1, c2=c2)
    eps_s = epsilon * a / (a + b)
    return BudgetSplit(
        eps_s=eps_s,
        eps_h=epsilon - eps_s,
        predicted_mse=(a + b) ** 3 / epsilon**2,
        c1=c1,
        c2=c2,
    )


@dataclass(frozen=True)
class OHNode:
    index: int
    lo: int
    hi: int
    value: float
    scale: float


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class OHTree:
    """Released ordered-hierarchical structure, one flat array per node field.

    Nodes come in release order: the prefix (S) nodes s_1..s_k first, s_i
    covering [1, min(i*theta, size)], then the interval (H) nodes sorted by
    (lo, hi).  For theta >= 2 the block-1 root doubles as s_1.  Positions are
    1-based.  Per node: ``lo``, ``hi``, stream ``index``, noise ``scale``,
    released ``value``, ``depth`` below its block root (0 for S nodes),
    child ``slot`` within its parent and the parent's ``parent_hi``.

    An H node joins the estimate of prefix j exactly for j in [hi,
    parent_hi - 1]: it lies left of j's path through the block and ends at or
    before j.  ``cumulative`` adds these contributions deepest level first and
    by descending slot within a level, the order in which a walk from the
    block root that pops its last child first adds them, so each entry is
    the same float sum as that walk.
    """

    domain_size: int
    theta: int
    fanout: int
    eps_s: float
    eps_h: float
    seed: int
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    slot: np.ndarray = field(repr=False)
    parent_hi: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return -(-self.domain_size // self.theta)

    @property
    def height(self) -> int:
        return _subtree_height(self.theta, self.fanout)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """``oh_cumulative(self, j)`` for every j in [0, size], read-only.

        Built on first use: a block-end position is its block's S node; any
        other j is the previous block's S node (0 in block 1) plus the H
        contributions accumulated in ``acc``.
        """
        size, theta = self.domain_size, self.theta
        h = self.depth > 0
        key = self.depth[h] * self.fanout + self.slot[h]
        order = np.argsort(-key, kind="stable")
        key, start = key[order], self.hi[h][order]
        length = self.parent_hi[h][order] - start
        position = np.repeat(start, length) + _within(length)
        contribution = np.repeat(self.value[h][order], length)
        # one fancy-indexed add per (depth, slot) group: the group's nodes have
        # disjoint parents, so no position repeats within it
        edges = [0, *np.cumsum(length)[np.flatnonzero(np.diff(key))].tolist(), position.size]
        acc = np.zeros(size + 1)
        for a, b in zip(edges, edges[1:]):
            acc[position[a:b]] += contribution[a:b]
        s = self.value[: self.k]
        out = np.empty(size + 1)
        out[0] = 0.0
        out[1:] = np.concatenate([[0.0], s])[np.arange(size) // theta] + acc[1:]
        out[self.hi[: self.k]] = s
        return _readonly(out)

    def nodes(self) -> list[OHNode]:
        """Every node in release order; the first ``k`` are s_1..s_k."""
        return [
            OHNode(index=i, lo=lo, hi=hi, value=v, scale=s)
            for i, lo, hi, v, s in zip(
                self.index.tolist(), self.lo.tolist(), self.hi.tolist(),
                self.value.tolist(), self.scale.tolist(),
            )
        ]

    def to_dict(self) -> dict:
        k, theta = self.k, self.theta
        items = [
            {
                "id": f"S{n + 1}" if n < k else f"H{(lo - 1) // theta + 1}:{lo}-{hi}",
                "interval": [lo, hi],
                "value": v,
                "scale": s,
            }
            for n, (lo, hi, v, s) in enumerate(
                zip(self.lo.tolist(), self.hi.tolist(), self.value.tolist(), self.scale.tolist())
            )
        ]
        return {
            "mechanism": "ordered-hierarchical",
            "domain_size": self.domain_size,
            "theta": self.theta,
            "fanout": self.fanout,
            "eps_s": self.eps_s,
            "eps_h": self.eps_h,
            "seed": self.seed,
            "nodes": items,
        }


def _subtree_height(theta: int, fanout: int) -> int:
    if theta <= 1:
        return 0
    return math.ceil(math.log(theta, fanout) - 1e-12)


def _within(counts: np.ndarray) -> np.ndarray:
    """0, 1, .., c-1 for each c in ``counts``, concatenated."""
    total = int(counts.sum())
    return np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)


def _h_index(lo, hi, size: int):
    # odd stream indices for H nodes, even (2i) for S nodes
    return (lo * (size + 2) + hi) * 2 + 1


def _h_layout(size: int, theta: int, fanout: int) -> np.ndarray:
    """Rows lo, hi, depth, slot, parent_hi of every H node but the block
    roots, one column per node, sorted by (lo, hi).

    Built level by level from the block roots: a node of width w >= 2 has
    children of width ceil(w / fanout), the last one cut at the parent's end.
    """
    lo = np.arange(1, size + 1, theta, dtype=np.int64)
    hi = np.minimum(lo + theta - 1, size)
    levels = []
    depth = 0
    while lo.size:
        wide = hi > lo
        lo, hi = lo[wide], hi[wide]
        width = hi - lo + 1
        delta = -(-width // fanout)
        count = -(-width // delta)
        slot = _within(count)
        parent_hi = np.repeat(hi, count)
        delta = np.repeat(delta, count)
        lo = np.repeat(lo, count) + slot * delta
        hi = np.minimum(lo + delta - 1, parent_hi)
        depth += 1
        levels.append(np.stack([lo, hi, np.full(lo.size, depth), slot, parent_hi]))
    layout = np.concatenate(levels, axis=1)
    return layout[:, np.lexsort((layout[1], layout[0]))]


def build_oh_release(
    hist,
    theta: int,
    fanout: int,
    eps_s: float,
    eps_h: float,
    seed: int,
    zero_noise: bool = False,
) -> OHTree:
    """Build the noisy ordered-hierarchical structure over a histogram.

    Noise scales: S nodes s_2..s_k get Laplace(1/eps_s); H nodes of blocks
    2..k get Laplace(2h/eps_h) where h = ceil(log_fanout theta); every node
    of block 1, including its root s_1, gets Laplace(2h/(eps_h + eps_s)).
    At theta = 1 there are no H nodes and s_1 carries the combined budget.

    Blocks 2..k carry no root interval node: the full-block prefix is served
    by the block's own S node, so a root would never be queried, and leaving
    it out keeps a protected change (at most theta positions) perturbing at
    most one S node and at most h H nodes per touched block.
    """
    counts = np.asarray(hist, dtype=np.int64)
    size = int(counts.size)
    if size < 1:
        raise ValueError("histogram must be non-empty")
    if not 1 <= theta <= size:
        raise ValueError(f"theta must be in [1, {size}]")
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    if eps_s < 0 or eps_h < 0 or eps_s + eps_h <= 0:
        raise ValueError("budgets must be non-negative with a positive total")
    prefix = np.concatenate([[0], np.cumsum(counts)]).astype(float)
    k = math.ceil(size / theta)
    h = _subtree_height(theta, fanout)
    block1_scale = (1.0 if theta == 1 else 2.0 * h) / (eps_s + eps_h)

    h_layout = _h_layout(size, theta, fanout)
    s_hi = np.minimum(np.arange(1, k + 1, dtype=np.int64) * theta, size)
    s_layout = np.stack([np.ones(k, dtype=np.int64), s_hi, np.zeros_like(s_hi), np.zeros_like(s_hi), s_hi])
    lo, hi, depth, slot, parent_hi = np.concatenate([s_layout, h_layout], axis=1)
    index = np.concatenate([2 * np.arange(1, k + 1, dtype=np.int64), _h_index(lo[k:], hi[k:], size)])

    scale = np.full(lo.size, block1_scale)
    if k >= 2:
        if eps_s == 0:
            raise ValueError("eps_s must be positive when the structure has S nodes")
        scale[1:k] = 1.0 / eps_s
    past_block1 = np.flatnonzero(hi[k:] > theta) + k
    if past_block1.size:
        if eps_h == 0:
            raise ValueError("eps_h must be positive when the structure has H nodes")
        scale[past_block1] = 2.0 * h / eps_h
    noise = np.zeros(scale.size) if zero_noise else node_laplace(seed, index, scale)
    value = (prefix[hi] - prefix[lo - 1]) + noise
    columns = {
        "lo": lo, "hi": hi, "index": index, "scale": scale, "value": value,
        "depth": depth, "slot": slot, "parent_hi": parent_hi,
    }
    return OHTree(
        domain_size=size,
        theta=theta,
        fanout=fanout,
        eps_s=eps_s,
        eps_h=eps_h,
        seed=seed,
        **{name: _readonly(col) for name, col in columns.items()},
    )


def hierarchical_release(
    hist, fanout: int, epsilon: float, seed: int, zero_noise: bool = False
) -> OHTree:
    """Classical f-ary interval tree baseline with uniform budget per level.

    This is the theta = |domain| ordered-hierarchical tree: one block spanning
    the domain, every node holding a noisy interval count at scale
    2h/epsilon, with the whole budget on H nodes.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    size = int(np.asarray(hist).size)
    return build_oh_release(hist, size, fanout, 0.0, epsilon, seed, zero_noise)


def oh_cumulative(tree: OHTree, j: int) -> float:
    """Unbiased estimate of the prefix count up to position j (1-based).

    A position ending its block is served by that block's prefix node alone;
    otherwise the previous prefix node plus the canonical decomposition of
    the residual inside j's block.  j = 0 gives 0.
    """
    if not 0 <= j <= tree.domain_size:
        raise ValueError(f"position {j} out of range [0, {tree.domain_size}]")
    return float(tree.cumulative[j])


def oh_range_query(tree: OHTree, i: int, j: int) -> float:
    """Noisy count of positions in [i, j], as a difference of two prefixes."""
    if not 1 <= i <= j <= tree.domain_size:
        raise ValueError(f"invalid range [{i},{j}]")
    cum = tree.cumulative
    return float(cum[j] - cum[i - 1])


def oh_range_answers(tree: OHTree, queries) -> np.ndarray:
    """``oh_range_query`` for every (i, j) in ``queries``, in one indexing pass."""
    q = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    i, j = q[:, 0], q[:, 1]
    bad = np.flatnonzero((i < 1) | (i > j) | (j > tree.domain_size))
    if bad.size:
        raise ValueError(f"invalid range [{i[bad[0]]},{j[bad[0]]}]")
    cum = tree.cumulative
    return cum[j] - cum[i - 1]


# -- budget accounting ---------------------------------------------------------


@dataclass(frozen=True)
class BudgetCharge:
    label: str
    epsilon: float
    group: str | None = None

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("charges must be positive and finite")


class BudgetLedger:
    """Ordered record of privacy charges.

    Ungrouped charges compose sequentially (they sum).  Charges sharing a
    group name ran on disjoint id subsets and contribute only their maximum,
    but the group must be certified first: either the constraint set is
    cardinality-only or a parallel-decomposition check passed.
    """

    def __init__(self) -> None:
        self.charges: list[BudgetCharge] = []
        self.certified_groups: set[str] = set()

    def charge(self, label: str, epsilon: float, group: str | None = None) -> None:
        self.charges.append(BudgetCharge(label, epsilon, group))

    def certify_group(self, group: str) -> None:
        self.certified_groups.add(group)

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"label": c.label, "epsilon": c.epsilon, "group": c.group}
                for c in self.charges
            ],
            "certified_groups": sorted(self.certified_groups),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BudgetLedger":
        if not isinstance(data, dict):
            raise ValueError("ledger must be a JSON object")
        entries, groups = data.get("entries", []), data.get("certified_groups", [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("ledger 'entries' must be a list of objects")
        if not isinstance(groups, list):
            raise ValueError("ledger 'certified_groups' must be a list")
        ledger = cls()
        for e in entries:
            label = str(e["label"])
            try:
                epsilon = float(e["epsilon"])
            except TypeError:
                raise ValueError("ledger entry 'epsilon' must be a number") from None
            ledger.charge(label, epsilon, e.get("group"))
        for g in groups:
            ledger.certify_group(str(g))
        return ledger


def compose_budgets(ledger: BudgetLedger) -> float:
    """Total privacy cost: sum of sequential charges plus the max within each
    certified parallel group."""
    total = 0.0
    groups: dict[str, float] = {}
    for c in ledger.charges:
        if c.group is None:
            total += c.epsilon
        else:
            if c.group not in ledger.certified_groups:
                raise ValueError(
                    f"parallel group {c.group!r} lacks a decomposition certificate"
                )
            groups[c.group] = max(groups.get(c.group, 0.0), c.epsilon)
    return total + sum(groups.values())
