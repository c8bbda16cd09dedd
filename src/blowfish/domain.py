"""Discrete domains, datasets, and (cumulative) histograms.

A domain is a cross product of named categorical attributes.  Domain points
are tuples of per-attribute value indices, and every point has a flat rank
under mixed-radix encoding with the last attribute varying fastest.  That
rank order is also the total order used for cumulative histograms and range
queries on multi-attribute domains.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

Point = tuple[int, ...]


@dataclass(frozen=True)
class Attribute:
    name: str
    values: tuple[str, ...]
    ordinal: bool = False

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"attribute {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name!r} has duplicate value labels")

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, label: str) -> int:
        try:
            return self.values.index(label)
        except ValueError:
            raise ValueError(f"unknown value {label!r} for attribute {self.name!r}") from None


@dataclass(frozen=True)
class DomainSpec:
    """An ordered list of attributes with a fixed mixed-radix rank encoding."""

    attributes: tuple[Attribute, ...]
    # place value of each attribute in the flat rank; last attribute fastest
    _weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("domain needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")
        weights = []
        w = 1
        for a in reversed(self.attributes):
            weights.append(w)
            w *= a.size
        object.__setattr__(self, "_weights", tuple(reversed(weights)))

    @property
    def size(self) -> int:
        return math.prod(a.size for a in self.attributes)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.attributes)

    def validate_point(self, point: Point) -> Point:
        if len(point) != len(self.attributes):
            raise ValueError(f"point {point} has {len(point)} indices, expected {len(self.attributes)}")
        for idx, attr in zip(point, self.attributes):
            if not 0 <= idx < attr.size:
                raise ValueError(f"index {idx} out of range for attribute {attr.name!r}")
        return point

    def rank(self, point: Point) -> int:
        self.validate_point(point)
        return sum(i * w for i, w in zip(point, self._weights))

    def unrank(self, r: int) -> Point:
        if not 0 <= r < self.size:
            raise ValueError(f"rank {r} out of range for domain of size {self.size}")
        out = []
        for attr, w in zip(self.attributes, self._weights):
            out.append((r // w) % attr.size)
        return tuple(out)

    def point_from_labels(self, labels: dict[str, str]) -> Point:
        return tuple(a.index_of(labels[a.name]) for a in self.attributes)

    def diameter(self) -> int:
        """Largest L1 distance between two domain points (in index units)."""
        return sum(a.size - 1 for a in self.attributes)


@dataclass(frozen=True)
class Dataset:
    domain: DomainSpec
    rows: tuple[tuple[int, Point], ...]

    def __post_init__(self) -> None:
        ids = [rid for rid, _ in self.rows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate row ids")
        for _, point in self.rows:
            self.domain.validate_point(point)

    @property
    def n(self) -> int:
        return len(self.rows)

    def ranks(self) -> list[int]:
        return [self.domain.rank(p) for _, p in self.rows]


@dataclass(frozen=True)
class CumulativeHistogram:
    """Prefix-sum vector of a histogram over the rank order."""

    prefix: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.prefix, self.prefix[1:])):
            raise ValueError("cumulative histogram must be non-decreasing")

    @property
    def n(self) -> int:
        return self.prefix[-1] if self.prefix else 0

    @property
    def distinct(self) -> int:
        """Number of distinct prefix values."""
        return len(set(self.prefix))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.prefix, dtype=np.int64)


def load_domain(source: str | dict) -> DomainSpec:
    """Parse a domain description from JSON text or an equivalent dict.

    Expected shape: ``{"attributes": [{"name": ..., "values": [...],
    "ordinal": bool?}, ...]}``.  A bare list of attribute objects is also
    accepted.
    """
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed domain spec: {exc}") from exc
    if isinstance(source, dict):
        attrs = source.get("attributes")
        if attrs is None:
            raise ValueError("domain spec missing 'attributes'")
    elif isinstance(source, list):
        attrs = source
    else:
        raise ValueError("domain spec must be a JSON object or list")
    if not isinstance(attrs, list) or not attrs:
        raise ValueError("domain needs at least one attribute")
    parsed = []
    for a in attrs:
        if "name" not in a or "values" not in a:
            raise ValueError("each attribute needs 'name' and 'values'")
        parsed.append(
            Attribute(
                name=str(a["name"]),
                values=tuple(str(v) for v in a["values"]),
                ordinal=bool(a.get("ordinal", False)),
            )
        )
    return DomainSpec(attributes=tuple(parsed))


def ingest_dataset(text: str, domain: DomainSpec) -> Dataset:
    """Read delimited rows (with header) into a Dataset.

    Header names must match the domain's attribute names; an optional ``id``
    column supplies row ids, otherwise ids are assigned 0..n-1 in file order.
    """
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
    rows: list[tuple[int, Point]] = []
    for lineno, raw in enumerate(reader):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} columns, got {len(raw)}")
        point = tuple(
            a.index_of(raw[col[a.name]].strip()) for a in domain.attributes
        )
        rid = int(raw[col["id"]]) if has_id else len(rows)
        rows.append((rid, point))
    return Dataset(domain=domain, rows=tuple(rows))


def histogram(data: Dataset) -> np.ndarray:
    """Complete histogram: counts[rank(x)] = multiplicity of x in the data."""
    counts = np.zeros(data.domain.size, dtype=np.int64)
    for r in data.ranks():
        counts[r] += 1
    return counts


def cumulative_histogram(counts) -> CumulativeHistogram:
    arr = np.asarray(counts, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("histogram must be a non-empty 1-D vector")
    if (arr < 0).any():
        raise ValueError("histogram counts must be non-negative")
    return CumulativeHistogram(prefix=tuple(int(v) for v in np.cumsum(arr)))


def l1_distance(x: Point, y: Point) -> int:
    if len(x) != len(y):
        raise ValueError("points come from different domains")
    return sum(abs(a - b) for a, b in zip(x, y))
