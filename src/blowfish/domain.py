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
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import read_field, read_json


@dataclass(frozen=True)
class Attribute:
    name: str
    values: tuple[str, ...]
    # label -> value index, built once
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"attribute {self.name!r} has no values")
        index = {label: i for i, label in enumerate(self.values)}
        if len(index) != len(self.values):
            raise ValueError(f"attribute {self.name!r} has duplicate value labels")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # an unhashable label is unknown too
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

    def coords(self) -> np.ndarray:
        """(size, n_attributes) int64 value indices of every rank, in rank order."""
        return np.stack(np.unravel_index(np.arange(self.size, dtype=np.int64), self.sizes), axis=1)

    def diameter(self) -> int:
        """Largest L1 distance between two domain points (in index units)."""
        return sum(a.size - 1 for a in self.attributes)


def runs(starts, lengths: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, .., starts[i] + lengths[i] - 1 for each i,
    concatenated; ``starts`` may be one number for every run."""
    out = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    out += np.arange(len(out))
    return out


def _int64_column(name: str, values) -> np.ndarray:
    """A read-only int64 copy of a 1-D integer sequence."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D sequence")
    if arr.size and (arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64)):
        raise ValueError(f"{name} must be integers in the int64 range")
    arr = arr.astype(np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows as two aligned int64 columns: row ids and mixed-radix ranks."""

    domain: DomainSpec
    ids: np.ndarray
    ranks: np.ndarray

    def __post_init__(self) -> None:
        ids = _int64_column("ids", self.ids)
        ranks = _int64_column("ranks", self.ranks)
        if ids.size != ranks.size:
            raise ValueError(f"{ids.size} row ids for {ranks.size} ranks")
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("duplicate row ids")
        if ranks.size and not (0 <= ranks.min() and ranks.max() < self.domain.size):
            raise ValueError(f"rank out of range for domain of size {self.domain.size}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "ranks", ranks)

    @property
    def n(self) -> int:
        return int(self.ranks.size)


def load_domain(source: str | dict | list) -> DomainSpec:
    """Parse a domain description from JSON text or an equivalent value.

    Expected shape: ``{"attributes": [{"name": ..., "values": [...]},
    ...]}``, a name being a JSON string and the values a list of them.  A
    bare list of attribute objects is also accepted.  Other keys are
    ignored.  Values are ordered as listed.
    """
    if isinstance(source, str):
        source = read_json(source, "domain")
    if isinstance(source, list):
        source = {"attributes": source}
    if not isinstance(source, dict):
        raise ValueError("domain must be a JSON object or list")
    parsed = []
    for i, a in enumerate(read_field(source, "attributes", None, [dict], where="domain")):
        name = read_field(a, "name", None, str, where=f"domain attribute {i}")
        values = read_field(a, "values", None, [str], where=f"attribute {name!r}")
        parsed.append(Attribute(name=name, values=tuple(values)))
    return DomainSpec(attributes=tuple(parsed))


def _is_blank(record: list[str]) -> bool:
    """A record of no cells, or of one cell holding only whitespace."""
    return not record or (len(record) == 1 and not record[0].strip())


def _csv_records(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and body records of ``text`` read by ``csv.reader``; a csv
    error becomes a ValueError naming its 0-based record after the header."""
    records: list[list[str]] = []
    try:
        for record in csv.reader(io.StringIO(text)):
            records.append(record)
    except csv.Error as exc:
        where = f"row {len(records) - 1}" if records else "header"
        raise ValueError(f"{where}: {exc}") from None
    if not records:
        raise ValueError("empty input: missing header")
    return records[0], records[1:]


def _record_columns(records: list[list[str]], width: int) -> tuple[int, list | None]:
    """Number of non-blank records and their cells column by column; None
    for the cells when one of them is not ``width`` cells wide."""
    rows = [r for r in records if not _is_blank(r)]
    if any(len(r) != width for r in rows):
        return len(rows), None
    return len(rows), [list(map(itemgetter(c), rows)) for c in range(width)]


def _split_columns(body: str, width: int) -> tuple[int, list | None]:
    """``_record_columns`` of the lines of quote-free, CR-free text, without
    a list per line.  A line with a comma has several cells, so it is blank
    exactly when it holds no comma and strips to nothing."""
    rows = list(filter(str.strip, body.split("\n")))
    if width == 1:
        return len(rows), (None if "," in body else [rows])
    if not {width - 1}.issuperset(map(str.count, rows, repeat(","))):
        return len(rows), None
    # "".split(",") is one empty cell, not zero rows of cells
    cells = ",".join(rows).split(",") if rows else []
    return len(rows), [cells[c::width] for c in range(width)]


def ingest_dataset(text: str, domain: DomainSpec) -> Dataset:
    """Read delimited rows (with header) into a Dataset.

    Header names must match the domain's attribute names; an optional ``id``
    column supplies row ids, otherwise ids are assigned 0..n-1 in file order.

    Text holding no ``"``, no ``\\r`` and no NUL is split on newlines and
    commas directly: there these give exactly the records ``csv.reader``
    gives, with no list built per row.  Any other text is read by
    ``csv.reader``, whose 131,072-character cell limit therefore applies only
    to it; a record it cannot read is a ValueError naming that record (or the
    header) before any other check.  Everything after that is shared: the
    header check, skipping blank rows, the width check, the label lookup, the
    ids, and on a fault a rescan of the records that names the first one.
    """
    # csv.reader before Python 3.11 refuses a NUL, so such text goes to it too
    split = '"' not in text and "\r" not in text and "\0" not in text
    if split:
        if not text:
            raise ValueError("empty input: missing header")
        line, _, body = text.partition("\n")
        # csv.reader reads an empty line as no cells, not one empty cell
        header = line.split(",") if line else []
    else:
        header, records = _csv_records(text)
    header = [h.strip() for h in header]
    has_id = "id" in header
    expected = (["id"] if has_id else []) + [a.name for a in domain.attributes]
    if sorted(header) != sorted(expected):
        raise ValueError(f"header {header} does not match domain attributes {expected}")
    if domain.size > np.iinfo(np.int64).max:
        raise ValueError(f"domain of size {domain.size} has ranks beyond int64")
    width = len(header)
    id_col = header.index("id") if has_id else None
    # (column, attribute, place value) per attribute, in rank order
    cells = [(header.index(a.name), a, w) for a, w in zip(domain.attributes, domain._weights)]
    n, columns = _split_columns(body, width) if split else _record_columns(records, width)
    try:
        if columns is None:
            raise ValueError
        ranks = np.zeros(n, dtype=np.int64)
        for c, attr, w in cells:
            labels = map(str.strip, columns[c])
            ranks += np.fromiter(map(attr._index.__getitem__, labels), dtype=np.int64, count=n) * w
        ids = list(map(int, columns[id_col])) if has_id else np.arange(n)
    except (KeyError, ValueError):
        # the first fault in file order: row width, then labels in attribute
        # order, then the id
        if split:
            records = [line.split(",") for line in body.split("\n")]
        for lineno, raw in enumerate(records):
            if _is_blank(raw):
                continue
            if len(raw) != width:
                raise ValueError(f"row {lineno}: expected {width} columns, got {len(raw)}") from None
            try:
                for c, attr, _ in cells:
                    attr.index_of(raw[c].strip())
                if has_id:
                    int(raw[id_col])
            except ValueError as exc:
                raise ValueError(f"row {lineno}: {exc}") from None
        raise
    return Dataset(domain=domain, ids=ids, ranks=ranks)


def histogram(data: Dataset) -> np.ndarray:
    """Complete histogram: counts[rank(x)] = multiplicity of x in the data."""
    return np.bincount(data.ranks, minlength=data.domain.size).astype(np.int64, copy=False)
