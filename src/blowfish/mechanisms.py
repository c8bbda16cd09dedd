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

Every release adds its noise in one call, ``add_noise(values, seed, index,
scale)``, the only function that perturbs data: Laplace variates drawn in a
row from one stream of the seed, draw i added to value i in release order.
Stream ``index`` is numpy's
``Generator(Philox(seed).jumped(index))``, Philox4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
``stream_generator`` builds it as ``Generator(Philox(seed, counter=index <<
128))``: the seeded generator whose 256-bit counter starts with ``index`` in
word 2, where ``jumped(index)`` puts it.  Each mechanism draws from its own
fixed index, so that releases of different mechanisms under one seed use
different uniforms:

* the Laplace histogram: 0;
* k-means: 1 for the initial centroids, then 2 + 2t for the cluster sizes
  and 3 + 2t for the coordinate sums of iteration t;
* the ordered mechanism and every ordered-hierarchical or hierarchical tree:
  ``TREE_STREAM`` = 2**63, which k-means cannot reach.  Sharing it makes a
  theta = 1 tree draw exactly the ordered mechanism's noise.

A seed is spent by one release: two releases that share a seed and a stream
share uniforms; without ``--seed`` the command line draws a 128-bit one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import runs
from .errors import InfiniteSensitivityError, read_field


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float
    seed: int

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)


def _check_epsilon(epsilon: float) -> None:
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")


def _check_fanout(fanout: int) -> None:
    if not 2 <= fanout < 2**63:
        raise ValueError(f"fanout must be in [2, 2**63), got {fanout}")


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


def stream_generator(seed: int, index: int) -> np.random.Generator:
    """``Generator(Philox(seed).jumped(index))``, bit for bit, for a seed
    of at least 0 and ``index`` in [0, 2**64): Philox seeded with ``seed``,
    its counter starting at ``index << 128``, so ``index`` in word 2."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= index < 2**64:
        raise ValueError("stream indices must be in [0, 2**64)")
    return np.random.Generator(np.random.Philox(seed, counter=index << 128))


# the stream of the ordered mechanism and of every tree; see the module docstring
TREE_STREAM = 2**63


def add_noise(values, seed: int, index: int, scale) -> np.ndarray:
    """``values`` plus Laplace(scale) variates drawn in a row from stream
    ``index``, one per value in C order; ``scale`` is one number or an array
    shaped like ``values``, and a scale of 0 adds +0.0."""
    values, scale = np.asarray(values, dtype=float), np.asarray(scale, dtype=float)
    if scale.shape not in ((), values.shape):
        raise ValueError(f"scale must be one number or shaped like the values {values.shape}, got {scale.shape}")
    ok = (scale >= 0) & (scale < math.inf)  # False for NaN too
    if not ok.all():
        raise ValueError(f"scale must be finite and non-negative, got {float(scale[~ok][0])}")
    noise = _laplace(scale, stream_generator(seed, index).random(values.shape))
    noise += 0.0  # -0.0 + 0.0 is +0.0 and x + 0.0 is x: a scale of 0 adds +0.0
    return values + noise


def laplace_mechanism(truth, sensitivity: float, pp: PrivacyParams) -> np.ndarray:
    """Add iid Laplace(sensitivity / epsilon) noise to each component."""
    if not math.isfinite(sensitivity):
        raise InfiniteSensitivityError(
            "infinite sensitivity: the policy cannot release this query with finite noise"
        )
    return add_noise(truth, pp.seed, 0, sensitivity / pp.epsilon)


class Table(dict):
    """Columns of one length under their field names, published as one JSON
    object per row.  A column is a list of str or an int64 or float64 array;
    a 2-D array gives each row a list of its row's entries."""


def plain(value):
    """A payload in plain Python, as ``json.dumps`` takes it: arrays become
    lists and a ``Table`` a list of dicts, keys in column order."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Table):
        keys = list(value)
        return [dict(zip(keys, row)) for row in zip(*(plain(value[k]) for k in keys))]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def isotonic_inference(noisy, lower_bound: float) -> np.ndarray:
    """L2-nearest non-decreasing vector at or above ``lower_bound`` (pool
    adjacent violators, then a clip, which is the exact projection onto that
    cone); ``-np.inf`` leaves the fit unclipped."""
    y = np.asarray(noisy, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("input must be a non-empty 1-D vector")
    vals: list[float] = []
    weights: list[int] = []
    for v in y.tolist():
        # pool the incoming value into each block on the stack that exceeds it
        w = 1
        while vals and vals[-1] > v:
            top_v, top_w = vals.pop(), weights.pop()
            v = (top_v * top_w + v * w) / (top_w + w)
            w += top_w
        vals.append(v)
        weights.append(w)
    return np.maximum(np.repeat(vals, weights), lower_bound)


@dataclass(frozen=True)
class ReleasedCumulative:
    """A released cumulative histogram: raw noisy prefixes and the
    monotone post-inference vector actually published."""

    noisy: np.ndarray
    inferred: np.ndarray
    theta: int
    epsilon: float
    seed: int

    def payload(self) -> dict:
        """The published fields in order, the values as an array."""
        return {
            "mechanism": "ordered",
            "theta": self.theta,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "values": self.inferred,
        }

    def to_dict(self) -> dict:
        return plain(self.payload())


def ordered_mechanism(hist, theta: int, pp: PrivacyParams) -> ReleasedCumulative:
    """Release the cumulative histogram with Laplace(theta / epsilon) noise
    per prefix count, then isotonic inference.

    Under distance-threshold secrets with threshold theta, a protected change
    moves a tuple at most theta rank positions, so each prefix count moves by
    at most theta.
    """
    counts = np.asarray(hist, dtype=np.int64)
    if theta < 1:
        raise ValueError("theta must be >= 1")
    noisy = add_noise(np.cumsum(counts), pp.seed, TREE_STREAM, theta / pp.epsilon)
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


def oh_error_model(domain_size: int, theta: int, fanout: int, eps_s: float, eps_h: float) -> float:
    """Predicted mean squared error of a random range query: c1/eps_s^2 + c2/eps_h^2.

    Each term divides by its budget twice, so an extreme budget gives inf or
    0 where ``eps**2`` would raise."""
    c1, c2 = _error_coefficients(domain_size, theta, fanout)
    out = 0.0
    if c1:
        out += c1 / eps_s / eps_s
    if c2:
        out += c2 / eps_h / eps_h
    return out


def _error_coefficients(domain_size: int, theta: int, fanout: int) -> tuple[float, float]:
    if not 1 <= theta <= domain_size:
        raise ValueError(f"theta must be in [1, {domain_size}]")
    _check_fanout(fanout)
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
    _check_epsilon(epsilon)
    c1, c2 = _error_coefficients(domain_size, theta, fanout)
    a, b = c1 ** (1 / 3), c2 ** (1 / 3)
    if a + b == 0:
        # single-point domain with theta 1: no error either way
        return BudgetSplit(eps_s=epsilon, eps_h=0.0, predicted_mse=0.0)
    # the share first: epsilon * a overflows for a finite epsilon near the float max
    eps_s = epsilon * (a / (a + b))
    return BudgetSplit(eps_s=eps_s, eps_h=epsilon - eps_s, predicted_mse=(a + b) ** 3 / epsilon / epsilon)


@dataclass(frozen=True)
class OHNode:
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
    1-based.  Per node: ``lo``, ``hi``, noise ``scale``, released ``value``
    and its parent's ``parent_hi`` (an S node's own ``hi``).

    An H node joins the estimate of prefix j exactly for j in [hi,
    parent_hi - 1]: it lies left of j's path through the block and ends at or
    before j.  The H nodes that join one prefix have distinct ``lo`` (a
    parent and its first child share ``lo`` but join disjoint ranges of j),
    so taking them in reverse release order adds them by descending ``lo``,
    the order in which a walk from the block root that pops its last child
    first adds them: ``cumulative`` gives the same float sums as that walk.
    """

    domain_size: int
    theta: int
    fanout: int
    eps_s: float
    eps_h: float
    seed: int
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)
    parent_hi: np.ndarray = field(repr=False)

    @property
    def k(self) -> int:
        return -(-self.domain_size // self.theta)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Unbiased estimate of the prefix count up to every position j in
        [0, size], read-only.

        Built on first use: a block-end position is its block's S node; any
        other j is the previous block's S node (0 in block 1) plus the H
        contributions accumulated in ``acc``.
        """
        size, theta = self.domain_size, self.theta
        # S nodes have parent_hi == hi and so join no run; np.bincount adds
        # each position's weights in array order
        start = self.hi[::-1]
        length = self.parent_hi[::-1] - start
        acc = np.bincount(runs(start, length), weights=np.repeat(self.value[::-1], length), minlength=size + 1)
        s = self.value[: self.k]
        out = np.empty(size + 1)
        out[0] = 0.0
        out[1:] = np.concatenate([[0.0], s])[np.arange(size) // theta] + acc[1:]
        out[self.hi[: self.k]] = s
        return _readonly(out)

    def nodes(self) -> list[OHNode]:
        """Every node in release order; the first ``k`` are s_1..s_k."""
        return [
            OHNode(lo=lo, hi=hi, value=v, scale=s)
            for lo, hi, v, s in zip(self.lo.tolist(), self.hi.tolist(), self.value.tolist(), self.scale.tolist())
        ]

    def payload(self) -> dict:
        """The published fields in order; ``nodes`` is a ``Table`` of one row
        per node in release order, with ids ``S<i>`` for s_i and
        ``H<block>:<lo>-<hi>`` for interval nodes."""
        k = self.k
        blocks = (self.lo[k:] - 1) // self.theta + 1
        ids = [f"S{i}" for i in range(1, k + 1)]
        ids += map("H%d:%d-%d".__mod__, zip(blocks.tolist(), self.lo[k:].tolist(), self.hi[k:].tolist()))
        nodes = Table(id=ids, interval=np.stack([self.lo, self.hi], axis=1), value=self.value, scale=self.scale)
        return {
            "mechanism": "ordered-hierarchical",
            "domain_size": self.domain_size,
            "theta": self.theta,
            "fanout": self.fanout,
            "eps_s": self.eps_s,
            "eps_h": self.eps_h,
            "seed": self.seed,
            "nodes": nodes,
        }

    def to_dict(self) -> dict:
        return plain(self.payload())


def _tree_layout(size: int, theta: int, fanout: int) -> tuple[np.ndarray, int]:
    """Rows lo, hi, parent_hi of every node in release order, one column per
    node, and the height h of a block's subtree as built.

    s_i ends where the root of block i does.  The H nodes, every one but the
    block roots, are built level by level from the roots: a node of width
    w >= 2 has children of width ceil(w / fanout), the last one cut at the
    parent's end.  Block 1 is the widest, so h counts the levels it takes.
    """
    lo = np.arange(1, size + 1, theta, dtype=np.int64)
    hi = np.minimum(lo + theta - 1, size)
    s_layout = np.stack([np.ones_like(hi), hi, hi])
    levels = []
    while lo.size:
        wide = hi > lo
        lo, hi = lo[wide], hi[wide]
        width = hi - lo + 1
        delta = -(-width // fanout)
        count = -(-width // delta)
        slot = runs(0, count)
        parent_hi = np.repeat(hi, count)
        delta = np.repeat(delta, count)
        lo = np.repeat(lo, count) + slot * delta
        hi = np.minimum(lo + delta - 1, parent_hi)
        levels.append(np.stack([lo, hi, parent_hi]))
    h_layout = np.concatenate(levels, axis=1)
    h_layout = h_layout[:, np.lexsort((h_layout[1], h_layout[0]))]
    # the last pass finds no node wider than 1 and adds an empty level
    return np.concatenate([s_layout, h_layout], axis=1), len(levels) - 1


def build_oh_release(
    hist,
    theta: int,
    fanout: int,
    eps_s: float,
    eps_h: float,
    seed: int,
) -> OHTree:
    """Build the noisy ordered-hierarchical structure over a histogram.

    Noise scales: S nodes s_2..s_k get Laplace(1/eps_s); H nodes of blocks
    2..k get Laplace(2h/eps_h), h the height of a block's subtree as built;
    every node of block 1, including its root s_1, gets Laplace(2h/(eps_h + eps_s)).
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
    _check_fanout(fanout)
    # an infinite total would give block 1 scale 0, releasing its exact counts
    if not (eps_s >= 0 and eps_h >= 0 and 0 < eps_s + eps_h < math.inf):
        raise ValueError("budgets must be non-negative with a positive and finite total")
    prefix = np.concatenate([[0], np.cumsum(counts)]).astype(float)
    k = -(-size // theta)
    (lo, hi, parent_hi), h = _tree_layout(size, theta, fanout)
    block1_scale = (1.0 if theta == 1 else 2.0 * h) / (eps_s + eps_h)

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
    value = add_noise(prefix[hi] - prefix[lo - 1], seed, TREE_STREAM, scale)
    columns = {"lo": lo, "hi": hi, "scale": scale, "value": value, "parent_hi": parent_hi}
    return OHTree(
        domain_size=size,
        theta=theta,
        fanout=fanout,
        eps_s=eps_s,
        eps_h=eps_h,
        seed=seed,
        **{name: _readonly(col) for name, col in columns.items()},
    )


def hierarchical_release(hist, fanout: int, epsilon: float, seed: int) -> OHTree:
    """Classical f-ary interval tree baseline with uniform budget per level.

    This is the theta = |domain| ordered-hierarchical tree: one block spanning
    the domain, every node holding a noisy interval count at scale
    2h/epsilon, with the whole budget on H nodes.
    """
    _check_epsilon(epsilon)
    size = int(np.asarray(hist).size)
    return build_oh_release(hist, size, fanout, 0.0, epsilon, seed)


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
        ledger = cls()
        for e in read_field(data, "entries", [], [dict], where="ledger"):
            ledger.charge(
                read_field(e, "label", None, str, where="ledger entry"),
                read_field(e, "epsilon", None, float, where="ledger entry"),
                read_field(e, "group", None, (str, None), where="ledger entry"),
            )
        for g in read_field(data, "certified_groups", [], [str], where="ledger"):
            ledger.certify_group(g)
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
