import numpy as np
import pytest

from blowfish import (
    Attribute,
    Dataset,
    histogram,
    ingest_dataset,
    load_domain,
)
from blowfish import domain as domain_module

from oracles import ingest_by_index, l1_distance, rank, unrank

ABC_SPEC = {
    "attributes": [
        {"name": "A1", "values": ["a1", "a2"]},
        {"name": "A2", "values": ["b1", "b2"]},
        {"name": "A3", "values": ["c1", "c2", "c3"]},
    ]
}


def test_load_domain_sizes():
    dom = load_domain(ABC_SPEC)
    assert dom.size == 12
    assert dom.sizes == (2, 2, 3)


def test_coords_are_one_read_only_table():
    dom = load_domain(ABC_SPEC)
    table = dom.coords()
    assert dom.coords() is table and not table.flags.writeable
    assert table.dtype == np.int64 and table.tolist() == [list(unrank(dom, r)) for r in range(dom.size)]
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_load_domain_ignores_ordinal_key():
    # older domain files flag ordered attributes; every attribute is ordered
    # as listed, so the flag is an ignored extra key
    flagged = {"attributes": [dict(a, ordinal=True) for a in ABC_SPEC["attributes"]]}
    assert load_domain(flagged) == load_domain(ABC_SPEC)


def test_load_domain_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        load_domain({"attributes": []})
    with pytest.raises(ValueError):
        load_domain({"attributes": [{"name": "A", "values": ["a", "a"]}]})
    with pytest.raises(ValueError):
        load_domain("{not json")


def test_load_domain_reads_names_and_labels_as_strings():
    # a label is a JSON string, never the text of another JSON value
    for values, bad in (([None, True, 1e2, [1]], "None at index 0"), (["a", True], "True at index 1"),
                        (["a", 1e2], "100.0 at index 1"), (["a", [1]], r"\[1\] at index 1")):
        with pytest.raises(ValueError, match=f"^attribute 'x' 'values' must be a list of strings, got {bad}$"):
            load_domain({"attributes": [{"name": "x", "values": values}]})
    with pytest.raises(ValueError, match="^domain attribute 1 'name' must be a string, got 3$"):
        load_domain({"attributes": [{"name": "x", "values": ["a"]}, {"name": 3, "values": ["a"]}]})
    dom = load_domain({"attributes": [{"name": "x", "values": ["None", "True", "100.0", "[1]"]}]})
    assert dom.attributes[0].values == ("None", "True", "100.0", "[1]")


def test_rank_unrank_bijection():
    dom = load_domain(ABC_SPEC)
    seen = set()
    for r in range(dom.size):
        p = unrank(dom, r)
        assert rank(dom, p) == r
        seen.add(p)
    assert len(seen) == dom.size
    # last attribute varies fastest
    assert unrank(dom, 0) == (0, 0, 0)
    assert unrank(dom, 1) == (0, 0, 1)
    assert unrank(dom, 3) == (0, 1, 0)


def test_ingest_dataset_basic():
    dom = load_domain(ABC_SPEC)
    text = "A1,A2,A3\na1,b1,c1\na1,b1,c1\na2,b2,c3\na1,b2,c2\na2,b1,c1\n"
    data = ingest_dataset(text, dom)
    assert data.n == 5
    assert data.ids.tolist() == [0, 1, 2, 3, 4]
    assert data.ranks.tolist() == [0, 0, 11, 4, 6]


def test_ingest_dataset_with_id_column():
    dom = load_domain(ABC_SPEC)
    text = "id,A1,A2,A3\n7,a1,b1,c1\n3,a2,b1,c2\n"
    data = ingest_dataset(text, dom)
    assert data.ids.tolist() == [7, 3]
    assert data.ranks.tolist() == [0, 7]


def test_ingest_dataset_errors():
    dom = load_domain(ABC_SPEC)
    with pytest.raises(ValueError):
        ingest_dataset("A1,A2,A3\na1,b1,zzz\n", dom)
    with pytest.raises(ValueError):
        ingest_dataset("A1,A2,A3\na1,b1\n", dom)
    with pytest.raises(ValueError):
        ingest_dataset("A1,A9,A3\na1,b1,c1\n", dom)
    huge = load_domain({"attributes": [{"name": f"A{i}", "values": [str(j) for j in range(100)]} for i in range(10)]})
    with pytest.raises(ValueError, match="beyond int64"):
        ingest_dataset(",".join(f"A{i}" for i in range(10)) + "\n" + ",".join(["99"] * 10) + "\n", huge)


def test_ingest_empty_file_with_header():
    dom = load_domain(ABC_SPEC)
    assert ingest_dataset("A1,A2,A3\n", dom).n == 0


def test_histogram_counts():
    dom = load_domain({"attributes": [{"name": "v", "values": ["x1", "x2", "x3"]}]})
    data = ingest_dataset("v\nx1\nx1\nx3\n", dom)
    assert histogram(data).tolist() == [2, 0, 1]
    empty = ingest_dataset("v\n", dom)
    assert histogram(empty).tolist() == [0, 0, 0]


def test_histogram_conservation_random():
    rng = np.random.default_rng(0)
    dom = load_domain(ABC_SPEC)
    for _ in range(20):
        n = int(rng.integers(0, 30))
        ranks = [int(rng.integers(0, dom.size)) for _ in range(n)]
        data = Dataset(domain=dom, ids=np.arange(n), ranks=ranks)
        assert histogram(data).sum() == n


def test_attribute_index_of():
    attr = Attribute("v", ("c", "a", "b"))
    assert [attr.index_of(x) for x in ("a", "b", "c")] == [1, 2, 0]
    with pytest.raises(ValueError, match="unknown value 'd' for attribute 'v'"):
        attr.index_of("d")
    with pytest.raises(ValueError, match="unknown value"):
        attr.index_of(["a"])
    with pytest.raises(ValueError, match="duplicate value labels"):
        Attribute("v", ("a", "b", "a"))
    assert Attribute("v", ("a", "b")) == Attribute("v", ("a", "b"))
    assert hash(Attribute("v", ("a", "b"))) == hash(Attribute("v", ("a", "b")))


def test_dataset_validates_columns():
    dom = load_domain(ABC_SPEC)
    data = Dataset(domain=dom, ids=[5, 2], ranks=np.array([11, 0], dtype=np.int32))
    assert data.n == 2
    assert data.ids.dtype == data.ranks.dtype == np.int64
    with pytest.raises(ValueError):
        data.ranks[0] = 3  # columns are read-only
    assert Dataset(domain=dom, ids=[], ranks=[]).n == 0
    with pytest.raises(ValueError, match="duplicate row ids"):
        Dataset(domain=dom, ids=[1, 1], ranks=[0, 1])
    with pytest.raises(ValueError, match="rank out of range"):
        Dataset(domain=dom, ids=[0], ranks=[12])
    with pytest.raises(ValueError, match="rank out of range"):
        Dataset(domain=dom, ids=[0], ranks=[-1])
    with pytest.raises(ValueError, match="row ids for"):
        Dataset(domain=dom, ids=[0, 1], ranks=[0])
    with pytest.raises(ValueError, match="integers"):
        Dataset(domain=dom, ids=[0.5], ranks=[0])
    with pytest.raises(ValueError, match="integers"):
        Dataset(domain=dom, ids=[2**63], ranks=[0])
    with pytest.raises(ValueError, match="1-D"):
        Dataset(domain=dom, ids=[[0]], ranks=[[0]])


def _ingest_outcome(ingest, text, dom):
    try:
        ids, ranks = ingest(text, dom)
    except ValueError as exc:
        return type(exc), str(exc)
    return list(ids), list(ranks)


def _columnar(text, dom):
    data = ingest_dataset(text, dom)
    assert data.n == len(data.ids) == len(data.ranks)
    return data.ids.tolist(), data.ranks.tolist()


def _random_csv(rng, dom) -> str:
    """Rows in a shuffled column order, sometimes with an id column, blank lines
    and padded labels, and sometimes one fault: an unknown label, a short row,
    a duplicate id or an id that is not an integer."""
    has_id = rng.random() < 0.6
    names = (["id"] if has_id else []) + [a.name for a in dom.attributes]
    order = [names[i] for i in rng.permutation(len(names))]
    n = int(rng.integers(0, 25))
    ids = rng.permutation(1000)[:n] - 500
    rows = []
    for j in range(n):
        cells = {"id": str(ids[j])}
        for a in dom.attributes:
            label = a.values[int(rng.integers(0, a.size))]
            cells[a.name] = f"  {label} " if rng.random() < 0.3 else label
        rows.append([cells[name] for name in order])
    fault = int(rng.integers(0, 8))  # 4..7: no fault
    if n and fault == 0:
        rows[rng.integers(0, n)][rng.integers(0, len(order))] = "zz"
    elif n and fault == 1:
        rows[rng.integers(0, n)].pop()
    elif n and fault == 2 and has_id:
        rows.append(list(rows[rng.integers(0, n)]))
    elif n and fault == 3 and has_id:
        rows[rng.integers(0, n)][order.index("id")] = "7x"
    lines = [" , ".join(order)]
    for row in rows:
        lines.append(",".join(row))
        if rng.random() < 0.1:
            lines.append(" " if rng.random() < 0.5 else "")
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


def _quote_cells(text: str) -> str:
    """Every cell of every non-empty line in double quotes, inner quotes
    doubled: the same records for ``csv.reader``."""
    return "\n".join(
        ",".join('"' + cell.replace('"', '""') + '"' for cell in line.split(",")) if line else ""
        for line in text.split("\n")
    )


EDGE_SPECS = {
    # a label with a comma: an unquoted "a,b" line is still two cells
    "A": {"attributes": [{"name": "A", "values": ["a", "b", "a\0b", "a,b"]}]},
    "AB": {"attributes": [{"name": "A", "values": ["a", "b", "a\0b"]}, {"name": "B", "values": ["x", "y"]}]},
}

EDGE_TEXTS = [
    ("A", ""),
    ("A", "\n"),
    ("A", "\n\n"),
    ("A", "A"),  # a header with no newline
    ("AB", " B , A "),
    ("A", "A\n"),
    ("AB", "\nA,B\na,x\n"),  # a blank line before the header
    ("A", " \nA\na\n"),
    ("AB", "A,B\n,\n"),  # lines of only commas
    ("AB", "A,B\na,x\n,,\n"),
    ("A", "A\n,\n"),
    ("A", "A\nb\na,b\n"),
    ("A", "A\n\t\n\x0b\n\x0c\n\u3000\n \x1c\x1f\x85\u2028 \nb\n"),  # whitespace-only lines
    ("AB", "A,B\n\t\n\x0b\x0c\u3000\n\ta\x0b,\u3000y\x0c\n"),
    ("AB", "id,A,B\n\x0c\n 3 ,a,x\n\u30004\t,b,y\n"),
    ("A", "A\na\0b\na\n"),  # a cell holding a NUL
    ("A", "A\na\0\n"),
    ("AB", "A,B\na,x\nb,y"),  # no final newline
    ("AB", "A,B\na,x\nb,zz"),
    ("AB", "id,B,A\n1,x,a\n2,y"),
]


def test_ingest_matches_index_oracle(monkeypatch):
    """Random files and edge texts, each read as generated (split directly),
    with every cell quoted and with CRLF line ends (read by csv.reader)."""
    csv_reads = []
    csv_records = domain_module._csv_records

    def counted_csv_records(text):
        csv_reads.append(text)
        return csv_records(text)

    monkeypatch.setattr(domain_module, "_csv_records", counted_csv_records)
    cases = []
    for trial in range(400):
        rng = np.random.default_rng(trial)
        n_attr = int(rng.integers(1, 4))
        spec = {
            "attributes": [
                {
                    "name": f"A{i}",
                    "values": [f"v{i}.{j}" if j % 3 else f"v {i} {j}" for j in rng.permutation(int(rng.integers(1, 7)))],
                }
                for i in range(n_attr)
            ]
        }
        dom = load_domain(spec)
        cases.append((dom, _random_csv(rng, dom)))
    cases += [(load_domain(EDGE_SPECS[name]), text) for name, text in EDGE_TEXTS]
    outcomes = set()
    for dom, text in cases:
        expected = _ingest_outcome(ingest_by_index, text, dom)
        for variant in (text, _quote_cells(text), text.replace("\n", "\r\n")):
            csv_reads.clear()
            got = _ingest_outcome(_columnar, variant, dom)
            assert got == _ingest_outcome(ingest_by_index, variant, dom), variant
            assert bool(csv_reads) == any(c in variant for c in '"\r\0'), variant
            # quoting and CRLF change no record, only how it is read
            assert got == expected, variant
        if expected[0] is ValueError:
            # the first word of the message after its "row N: " prefix
            message = expected[1].split(": ", 1)[1] if expected[1].startswith("row ") else expected[1]
            outcomes.add(message.split(" ")[0])
        else:
            outcomes.add("ok")
    # every fault and the clean path occur
    assert {"ok", "unknown", "expected", "duplicate", "invalid", "header", "empty"} <= outcomes, outcomes


def test_ingest_csv_errors_name_their_record():
    dom = load_domain({"attributes": [{"name": "value", "values": ["a", "b"]}]})
    with pytest.raises(ValueError, match=r"^row 0: new-line character seen in unquoted field"):
        ingest_dataset("value\na\rb\n", dom)
    long_cell = '"' + "a" * 131_073 + '"'
    with pytest.raises(ValueError, match=r"^row 3: field larger than field limit \(131072\)$"):
        ingest_dataset(f"value\na\n\nb\n{long_cell}\na\n", dom)
    with pytest.raises(ValueError, match=r"^header: field larger than field limit \(131072\)$"):
        ingest_dataset(f"{long_cell}\na\n", dom)
    # the cell limit is csv.reader's: quote-free text is split with none
    with pytest.raises(ValueError, match=r"^row 1: unknown value 'aaaa"):
        ingest_dataset(f"value\nb\n{long_cell[1:-1]}\n", dom)


TWO_FAULTS = {
    # the earlier row wins even when its fault sits in a later column
    "labels in row 5 col 1 and row 2 col 3": (
        "A1,A2,A3\na1,b1,c1\na1,b1,c9\na2,b2,c3\na1,b2,c2\nzz,b1,c1\n",
        "row 1: unknown value 'c9' for attribute 'A3'",
    ),
    "bad id before bad label": (
        "id,A1,A2,A3\n1,a1,b1,c1\n2x,a1,b1,c1\n3,a1,zz,c1\n",
        "row 1: invalid literal for int() with base 10: '2x'",
    ),
    "bad label before bad id": (
        "id,A1,A2,A3\n1,a1,b1,c1\n2,a1,zz,c1\n3x,a1,b1,c1\n",
        "row 1: unknown value 'zz' for attribute 'A2'",
    ),
    # within one row labels are checked before the id
    "bad id and bad label in one row": (
        "id,A1,A2,A3\n1x,zz,b1,c1\n",
        "row 0: unknown value 'zz' for attribute 'A1'",
    ),
    # and in attribute order, not column order
    "two labels in one row": (
        "A3,A1,A2\nc1,a1,b1\nyy,a1,zz\n",
        "row 1: unknown value 'zz' for attribute 'A2'",
    ),
    "short row after unknown label": (
        "A1,A2,A3\na1,b1,c1\na1,b1,zz\n\na1,b1\n",
        "row 1: unknown value 'zz' for attribute 'A3'",
    ),
    "short row before unknown label": (
        "A1,A2,A3\na1,b1,c1\n\n \na1,b1\na1,b1,zz\n",
        "row 3: expected 3 columns, got 2",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_ingest_reports_first_fault_in_file_order(case):
    text, message = TWO_FAULTS[case]
    dom = load_domain(ABC_SPEC)
    expected = _ingest_outcome(ingest_by_index, text, dom)
    assert expected == (ValueError, message)
    assert _ingest_outcome(_columnar, text, dom) == expected


def test_ingest_quoted_cells_crlf_and_blank_lines():
    dom = load_domain(
        {"attributes": [{"name": "city", "values": ["Paris, FR", "Oslo", 'say "hi"']}, {"name": "n", "values": ["0", "1"]}]}
    )
    text = 'n,id,city\r\n1,7,"Paris, FR"\r\n\r\n0, 3 ,Oslo\r\n  \r\n1,-2,"say ""hi"""\r\n'
    expected = _ingest_outcome(ingest_by_index, text, dom)
    assert expected == ([7, 3, -2], [1, 2, 5])
    assert _ingest_outcome(_columnar, text, dom) == expected
    data = ingest_dataset(text.replace("\r\n", "\n"), dom)
    assert data.ids.tolist() == [7, 3, -2] and data.ranks.tolist() == [1, 2, 5]


def test_l1_distance_examples():
    assert l1_distance((0, 0), (1, 2)) == 3
    assert l1_distance((1, 1, 1), (1, 1, 1)) == 0
    dom = load_domain(
        {"attributes": [{"name": "a", "values": ["0", "1"]}, {"name": "b", "values": ["0", "1", "2"]}]}
    )
    assert dom.diameter() == 3
    with pytest.raises(ValueError):
        l1_distance((0, 0), (0,))


def test_l1_distance_is_a_metric():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y, z = (tuple(int(v) for v in rng.integers(0, 5, size=3)) for _ in range(3))
        assert l1_distance(x, y) >= 0
        assert (l1_distance(x, y) == 0) == (x == y)
        assert l1_distance(x, y) == l1_distance(y, x)
        assert l1_distance(x, z) <= l1_distance(x, y) + l1_distance(y, z)


def test_ingest_error_names_deep_row():
    dom = load_domain(ABC_SPEC)
    rows = [f"{i},a{1 + i % 2},b{1 + i % 3 % 2},c{1 + i % 3}" for i in range(20_000)]
    rows[17_345] = "17345,a1,b2,c9"
    text = "id,A1,A2,A3\n" + "\n".join(rows) + "\n"
    message = "row 17345: unknown value 'c9' for attribute 'A3'"
    with pytest.raises(ValueError) as exc:
        ingest_dataset(text, dom)
    assert str(exc.value) == message
    assert _ingest_outcome(ingest_by_index, text, dom) == (ValueError, message)
    rows[17_345] = "17345x,a1,b2,c1"
    with pytest.raises(ValueError, match=r"^row 17345: invalid literal for int\(\) with base 10: '17345x'$"):
        ingest_dataset("id,A1,A2,A3\n" + "\n".join(rows) + "\n", dom)
