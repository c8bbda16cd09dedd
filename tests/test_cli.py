import argparse
import csv
import inspect
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from blowfish import cli, errors, kmeans
from blowfish.cli import _format_payload, cli_main
from blowfish.domain import ingest_dataset, load_domain
from blowfish.mechanisms import Table, build_oh_release, optimal_budget_split, plain

DATA = Path(__file__).resolve().parent.parent / "data"

DOMAIN = str(DATA / "domain_abc.json")
POLICY_MARGINAL = str(DATA / "policy_marginal.json")
ROWS = str(DATA / "rows_abc.csv")
LEDGER = str(DATA / "ledger_example.json")


def test_policy_validate_ok(capsys):
    assert cli_main(["policy", "validate", "--domain", DOMAIN, "--policy", POLICY_MARGINAL]) == 0
    assert capsys.readouterr().out == "ok: domain size 12, full|general(q=4), 4 queries, sparse\n"


def test_policy_validate_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["policy", "validate", "--domain", DOMAIN, "--policy", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_sensitivity_marginal_policy(capsys):
    argv = ["sensitivity", "--query", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL]
    assert cli_main(argv) == 0
    # the brute-force oracle at n = 4 attains the sparse engine's bound
    assert cli_main(argv + ["--method", "oracle", "--n", "4"]) == 0
    assert capsys.readouterr().out == "8 UpperBound SparseEngine\n8 Exact BruteForce\n"


def test_sensitivity_require_exact_blocks_bound(capsys):
    rc = cli_main(
        [
            "sensitivity",
            "--query",
            "histogram",
            "--domain",
            DOMAIN,
            "--policy",
            POLICY_MARGINAL,
            "--require-exact",
        ]
    )
    assert rc == 1
    assert "upper bound" in capsys.readouterr().err


def test_sensitivity_specialized_method(capsys):
    rc = cli_main(
        [
            "sensitivity",
            "--query",
            "histogram",
            "--domain",
            DOMAIN,
            "--policy",
            POLICY_MARGINAL,
            "--method",
            "specialized",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "8 Exact Specialized"


@pytest.mark.parametrize("theta", [4, 5, 100])
def test_specialized_marginal_under_distance_at_the_diameter(theta, tmp_path, capsys):
    # theta at or past the diameter, 4, is the full graph, so the worked
    # example's marginal takes the full graph's shape, not the rectangles'
    policy = json.loads(Path(POLICY_MARGINAL).read_text())
    policy["graph"] = {"kind": "distance", "theta": theta}
    twin = tmp_path / "policy_marginal_distance.json"
    twin.write_text(json.dumps(policy))
    assert cli_main(["sensitivity", "--domain", DOMAIN, "--policy", str(twin), "--method", "specialized"]) == 0
    assert capsys.readouterr().out == "8 Exact Specialized\n"


# the brute-force oracle's answer at n = 4 on the marginal example; the
# cluster-sum row moves on purpose with ROADMAP item 19
ORACLE_AT_4 = {"cumulative": "8 Exact BruteForce", "cluster-sum": "28 Exact BruteForce"}


@pytest.mark.parametrize("method", ["sparse", "specialized"])
@pytest.mark.parametrize("query", ["cumulative", "cluster-size", "cluster-sum"])
def test_constrained_engines_refuse_other_queries(method, query, capsys):
    # both engines bound the complete histogram; the oracle gives 28 for
    # cluster-sum at n = 4, so printing the histogram's 8 would understate it
    argv = ["sensitivity", "--query", query, "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--method", method]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    if method == "sparse" and query in ORACLE_AT_4:  # the same answer for either method: run it once
        assert cli_main(argv[:-1] + ["oracle", "--n", "4"]) == 0
        assert capsys.readouterr().out == ORACLE_AT_4[query] + "\n"


def test_oracle_at_zero_tuples(capsys):
    # the empty database is the only one, and it has no neighbor
    argv = ["sensitivity", "--domain", DOMAIN, "--policy", str(DATA / "policy_distance.json"), "--method", "oracle"]
    assert cli_main([*argv, "--n", "0"]) == 0
    assert capsys.readouterr().out == "0 Exact BruteForce\n"
    # the marginal policy's answers are not zero, so no empty database meets them
    argv[argv.index("--policy") + 1] = POLICY_MARGINAL
    assert cli_main([*argv, "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: constraint answers admit no database\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--n", "-1"], "n must be >= 0, got -1", id="n-negative"),
        pytest.param(["--n", "4", "--query", "cluster-size", "--k", "0"], "k must be >= 1", id="cluster-size-k-zero"),
        pytest.param(["--n", "4", "--query", "cluster-sum", "--k", "-2"], "k must be >= 1", id="cluster-sum-k-negative"),
    ],
)
def test_oracle_refuses_bad_arguments(flags, message, capsys):
    argv = ["sensitivity", "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--method", "oracle", *flags]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_release_cdf_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "release",
        "cdf",
        "--domain",
        DOMAIN,
        "--data",
        ROWS,
        "--theta",
        "1",
        "--epsilon",
        "1.0",
        "--seed",
        "7",
    ]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes().replace(b"a.json", b"") == out2.read_bytes().replace(b"b.json", b"")
    payload = json.loads(out1.read_text())
    assert payload["mechanism"] == "ordered"
    assert len(payload["values"]) == 12
    # the seed is a secret key: the flags do not echo it
    assert "seed" not in payload["flags"]


def test_release_unreadable_csv_fails_cleanly(tmp_path, capsys):
    # a quoted cell beyond csv.reader's field limit is an error, not a traceback
    data = tmp_path / "rows.csv"
    data.write_text('A1,A2,A3\na1,b1,c1\n"' + "a" * 131_073 + '",b1,c1\n')
    out = tmp_path / "out.json"
    argv = ["release", "cdf", "--domain", DOMAIN, "--data", str(data), "--theta", "1", "--epsilon", "1.0"]
    assert cli_main(argv + ["--seed", "7", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: row 1: field larger than field limit (131072)\n"
    assert not out.exists()


def test_release_histogram_and_require_exact(tmp_path, capsys):
    out = tmp_path / "hist.json"
    base = [
        "release",
        "histogram",
        "--domain",
        DOMAIN,
        "--policy",
        POLICY_MARGINAL,
        "--data",
        ROWS,
        "--epsilon",
        "1.0",
        "--seed",
        "3",
        "--out",
        str(out),
    ]
    assert cli_main(base) == 0
    payload = json.loads(out.read_text())
    assert payload["sensitivity"] == 8.0
    assert payload["exactness"] == "UpperBound"
    assert len(payload["values"]) == 12

    blocked = tmp_path / "blocked.json"
    rc = cli_main(base[:-1] + [str(blocked), "--require-exact"])
    assert rc == 1
    assert not blocked.exists()  # no partial output on error


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_release_histogram_refuses_data_against_its_policy(fmt, tmp_path, capsys):
    # the marginal policy answers 1 per (A1, A2) cell; a fifth row puts 2 in
    # the first, and the policy's sensitivity covers no such database
    data, out = tmp_path / "rows.csv", tmp_path / f"out.{fmt}"
    data.write_text(Path(ROWS).read_text() + "a1,b1,c2\n")
    argv = ["release", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--data", str(data)]
    argv += ["--epsilon", "1.0", "--seed", "3", "--format", fmt, "--out", str(out)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: data contradicts the policy: constraint query 0 matches 2 rows, its answer is 1\n"
    assert captured.out == "" and not out.exists()


def _keys(value):
    """Every dict key at any depth of a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_release_does_not_publish_its_seed(fmt, tmp_path):
    # the seed is the key to the noise: a histogram or k-means release
    # holding it gives back the true counts
    seed = "9" * 40
    points, out = tmp_path / "pts.csv", tmp_path / f"out.{fmt}"
    points.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n")
    releases = [
        ["release", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--data", ROWS],
        ["kmeans", "--data", str(points), "--k", "2"],
    ]
    for argv in releases:
        assert cli_main(argv + ["--epsilon", "1.0", "--seed", seed, "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        assert seed not in text
        if fmt == "json":
            assert "seed" not in _keys(json.loads(text))
        else:
            rows = list(csv.reader(text.splitlines()))[1:]
            cells = [json.loads(v) for _, v in rows if v.startswith(("[", "{"))]
            assert "seed" not in {k for k, _ in rows} | _keys(cells)


def test_sensitivity_of_a_query_mixing_labels_and_a_range(tmp_path, capsys):
    policy = tmp_path / "mixed.json"
    where = {"A1": ["a1"], "A3": {"range": [0, 1]}}
    policy.write_text(json.dumps({"graph": {"kind": "full"}, "constraints": [{"where": where, "answer": 1}]}))
    base = ["--domain", DOMAIN, "--policy", str(policy)]
    assert cli_main(["policy", "validate", *base]) == 0
    assert cli_main(["sensitivity", *base, "--method", "oracle", "--n", "2"]) == 0
    assert capsys.readouterr().out == "ok: domain size 12, full|general(q=1), 1 queries, sparse\n4 Exact BruteForce\n"


def test_release_histogram_malformed_policy_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": {"kind": "nope"}}')
    out = tmp_path / "never.json"
    rc = cli_main(
        [
            "release",
            "histogram",
            "--domain",
            DOMAIN,
            "--policy",
            str(bad),
            "--data",
            ROWS,
            "--epsilon",
            "1",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 1
    assert not out.exists()


def test_release_range(tmp_path):
    out = tmp_path / "tree.json"
    rc = cli_main(
        [
            "release",
            "range",
            "--domain",
            DOMAIN,
            "--data",
            ROWS,
            "--theta",
            "4",
            "--fanout",
            "2",
            "--epsilon",
            "0.5",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["mechanism"] == "ordered-hierarchical"
    assert any(n["id"] == "S1" for n in payload["nodes"])


@pytest.mark.parametrize("command, same_as", [("cdf", 11), ("range", 12)])
def test_release_theta_past_the_size_is_the_complete_graph(command, same_as, tmp_path):
    # on domain_abc (|T| = 12, L1 diameter 4) every theta >= 4 names the
    # complete graph, whose cumulative sensitivity is 11: cdf noise covers 11
    # rank positions, and the range tree is the theta = |T| baseline
    def release(theta):
        out = tmp_path / f"{theta}.json"
        argv = ["release", command, "--domain", DOMAIN, "--data", ROWS, "--theta", str(theta), "--epsilon", "0.5",
                "--seed", "11", "--out", str(out)]
        assert cli_main(argv + (["--fanout", "2"] if command == "range" else [])) == 0
        payload = json.loads(out.read_text())
        return payload["theta"], payload["values" if command == "cdf" else "nodes"]

    want = release(same_as)
    assert want[0] == same_as
    assert release(12) == release(100) == release(10**30) == want


def test_kmeans_cli(tmp_path):
    data = tmp_path / "pts.csv"
    data.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n0.5,0.5\n")
    out = tmp_path / "clusters.json"
    rc = cli_main(
        [
            "kmeans",
            "--data",
            str(data),
            "--k",
            "2",
            "--iterations",
            "3",
            "--epsilon",
            "1.0",
            "--seed",
            "5",
            "--graph",
            "distance",
            "--theta",
            "0.25",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["centroids"]) == 2
    assert payload["epsilon_spent"] == pytest.approx(1.0)


def test_kmeans_cli_point_outside_bounds_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    data.write_text("0.1,0.2\n0.15,0.1\n1000,1000\n0.85,1.95\n")
    out = tmp_path / "clusters.json"
    argv = ["kmeans", "--data", str(data), "--k", "2", "--epsilon", "1.0", "--seed", "5", "--out", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "row 3" in err
    assert not out.exists()
    # widening the box to cover the points makes the same rows releasable
    assert cli_main(argv + ["--high", "1000"]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "no data points"),
        ("\n  \n\t\n", "no data points"),
        ("0.1,0.2\n0.3\n0.5,0.5\n", "row 2 has 1 cells, expected 2"),
        ("0.1,0.2\n\n0.3,0.4\n0.5,0.5,0.5\n", "row 3 has 3 cells, expected 2"),
        ("0.1,0.2\n0.3,0.4\n0.5, abc\n", "row 3: 'abc' is not a number"),
        ("0.1,0.2\n0.3,\n", "row 2: '' is not a number"),
        # numpy's reader refuses these too, in its own words, or would skip
        # the '#' row as a comment
        ("0.1,0.2,\n0.3,0.4,\n", "row 1: '' is not a number"),
        ("0.1,0.2\n#0.1,0.2\n", "row 2: '#0.1' is not a number"),
        ('0.1,0.2\n0.3,"0.4"\n', "row 2: '\"0.4\"' is not a number"),
        ("0.1,0.2\n0x1p-3,0.4\n", "row 2: '0x1p-3' is not a number"),
        ("\ufeff0.1,0.2\n0.3,0.4\n", "row 1: '\\ufeff0.1' is not a number"),
        ("0.1,0.2\n0.3,0.4\x00\n", "row 2: '0.4\\x00' is not a number"),
    ],
    ids=["empty", "blank-lines", "short-row", "long-row", "word", "empty-cell", "trailing-comma", "comment",
         "quoted", "hex", "bom", "nul"],
)
def test_kmeans_cli_bad_points_file_fails_cleanly(tmp_path, capsys, text, message):
    data = tmp_path / "pts.csv"
    data.write_bytes(text.encode())
    out = tmp_path / "clusters.json"
    argv = ["kmeans", "--data", str(data), "--k", "2", "--epsilon", "1.0", "--seed", "5", "--out", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_kmeans_cli_points_parse_like_float(tmp_path):
    # blank and whitespace-only lines are skipped, cells may carry spaces, and
    # every value is the float that float() gives for its cell, in syntax
    # only the per-cell parse accepts too: underscores, non-ASCII digits and
    # lines ended by a bare CR
    cells = [["0.1", " 0.2 "], ["\t1e-1", "0.30000000000000004"], ["1", "0"], ["0.5", "4.9406564584124654e-324"],
             ["0.15", "1"]]
    lines = [",".join(row) for row in cells]
    variants = {
        "plain": "".join(",".join(repr(float(v)) for v in row) + "\n" for row in cells),
        "padded": "\n".join(lines[:2]) + "\n   \n\n" + "\n".join(lines[2:]),
        "crlf": "\r\n".join(lines[:2]) + "\r\n \r\n" + "\r\n".join(lines[2:]) + "\r\n",
        "underscore": "\n".join(lines).replace("0.15", "0.1_5"),
        "digits": "\n".join(lines).replace("1,0\n", "\u0661,\u0660\n"),
        "cr": "\r".join(lines) + "\r",
    }
    outs = {}
    for name, text in variants.items():
        data, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        data.write_bytes(text.encode())
        argv = ["kmeans", "--data", str(data), "--k", "2", "--epsilon", "1.0", "--seed", "5", "--out", str(out)]
        assert cli_main(argv) == 0
        payload = json.loads(out.read_text())
        del payload["flags"]["data"], payload["flags"]["out"]
        outs[name] = payload
    assert all(payload == outs["plain"] for payload in outs.values())


# texts on which numpy's reader and the per-cell parse could part: odd
# syntax, line breaks str.splitlines knows and spaces numpy strips
POINT_TEXTS = [
    "0.1,0.2\n0.3,0.4\n", "0.1,0.2\r\n0.3,0.4\r\n", "0.1,0.2\r0.3,0.4\r", "0.1,0.2\n\n0.3,0.4", "0.1,0.2\n \n0.3,0.4",
    "\t\n0.1,0.2\n", "0.1,0.2\r\n \r\n0.3,0.4\r\n", " 1 , 2 \n\t3,4\t\n", "nan,inf\n-nan,-inf\n",
    "Infinity,-infinity\nNAN,+INF\n", "1e400,-1e400\n1e-400,-0\n", "1" * 400 + ",1\n", "1_000,2\n", "\u0661,2\n",
    "\uff11,2\n", "0x1p-3,1\n", "#0.1,0.2\n", "'1',2\n", '"1",2\n', "\ufeff1,2\n", "1,2\x00\n", "1,\n", "1,2,\n",
    "1\n2\n", "5", "  1\n", "\n\n1,2", "1,2\n3\n", "1 2,3\n", "1;2\n", "1.0d0,2\n", "nan(1),1\n", ".5,5.\n",
    "+1,-0\n", "1e5,1E-5\n", "", " \n\t\n", "\r\n", ",\n", "1,2\n3,4\n  ",
] + [
    template.format(c=c)
    for c in "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u2028\u2029\u3000\r\x00"
    for template in ("1,{c}2\n3,4\n", "1,2{c}\n3,4\n", "{c}1,2\n3,4\n", "1,2\n{c}\n3,4\n", "1,2{c}3,4\n", "1{c},2\n3,4")
]


def _float_per_cell(text: str) -> np.ndarray:
    rows = [[float(c) for c in line.split(",")] for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("no rows")
    return np.array(rows, dtype=float)  # a ragged list is a ValueError


def _fuzzed_points(seed: int, rows: int) -> str:
    """``rows`` lines of 4 cells: mantissas of 1 to 40 digits with a point or
    none, exponents from -330 to 310 or none, signs and space padding."""
    rng = np.random.default_rng(seed)
    n = rows * 4
    digits = (rng.integers(0, 10, (n, 40), dtype=np.uint8) + ord("0")).tobytes().decode()
    draws = [rng.integers(1, 41, n), rng.integers(0, 41, n), rng.integers(-330, 311, n), rng.integers(0, 2, n),
             rng.integers(0, 3, n), rng.integers(0, 6, n), rng.integers(0, 6, n)]
    pads, signs, cells = ["", "", "", " ", "\t", "  "], ["", "-", "+"], []
    for i, (width, point, exponent, scaled, sign, left, right) in enumerate(zip(*(d.tolist() for d in draws))):
        mantissa = digits[40 * i : 40 * i + width]
        if point < width:
            mantissa = f"{mantissa[:point]}.{mantissa[point:]}"
        cells.append(pads[left] + signs[sign] + mantissa + (f"e{exponent}" if scaled else "") + pads[right])
    return "".join(",".join(cells[i : i + 4]) + "\n" for i in range(0, n, 4))


def _assert_reads_like_float(path: Path, text: str):
    path.write_bytes(text.encode())
    try:
        want = _float_per_cell(text)
    except ValueError:
        # refused: the error is the per-cell parse's, in its words
        with pytest.raises(ValueError) as got:
            cli._read_points(str(path))
        with pytest.raises(ValueError) as words:
            cli._parse_cells(str(path), text)
        assert str(got.value) == str(words.value), repr(text)
        assert re.fullmatch(r".*: (no data points|row \d+ has \d+ cells, expected \d+|row \d+: .* is not a number)",
                            str(got.value), re.S), repr(text)
        return
    got = cli._read_points(str(path))
    assert got.dtype == np.float64 and got.shape == want.shape, repr(text)
    assert (got.view(np.uint64) == want.view(np.uint64)).all(), repr(text)


@pytest.mark.filterwarnings("error")
def test_read_points_gives_float_per_cell(tmp_path):
    path = tmp_path / "pts.csv"
    for text in POINT_TEXTS:
        _assert_reads_like_float(path, text)
    # small files from odd pieces, then 100k fuzzed cells: long mantissas and
    # exponents past the float range round as float() rounds them
    rng = random.Random(25)
    pieces = ["1", "0", ".", "e", "-", "+", "_", ",", ",", "\n", "\n", "\r\n", "\r", " ", "\t", "inf", "nan", "#", "\x0b",
              "\x1c", "\x1f", "\x85", "\xa0", "5e-324", "1e309"]
    for _ in range(1000):
        _assert_reads_like_float(path, "".join(rng.choice(pieces) for _ in range(rng.randint(1, 12))))
    for seed in range(4):
        _assert_reads_like_float(path, _fuzzed_points(seed, 6250))


@pytest.mark.filterwarnings("error")
def test_plain_points_file_takes_numpy_reader(tmp_path, monkeypatch):
    def refuse(path, text):
        raise AssertionError("per-cell parse reached")

    monkeypatch.setattr(cli, "_parse_cells", refuse)
    rng = np.random.default_rng(4)
    points = tmp_path / "pts.csv"
    for newline in ("\n", "\r\n"):
        points.write_bytes(newline.join(",".join(f"{v:.6f}" for v in row) for row in rng.random((200, 4))).encode())
        out = tmp_path / "clusters.json"
        argv = ["kmeans", "--data", str(points), "--k", "3", "--epsilon", "1.0", "--seed", "5", "--out", str(out)]
        assert cli_main(argv) == 0 and out.exists()
    # a refused plain file does reach it
    points.write_text("0.1,0.2\n0.3,x\n")
    with pytest.raises(AssertionError, match="per-cell parse reached"):
        cli._read_points(str(points))


def test_budget_total(capsys, tmp_path):
    assert cli_main(["budget", "total", "--ledger", LEDGER]) == 0
    assert capsys.readouterr().out.strip() == "1.4"
    uncertified = tmp_path / "ledger.json"
    uncertified.write_text(json.dumps({"entries": [{"label": "x", "epsilon": 0.5, "group": "g"}]}))
    assert cli_main(["budget", "total", "--ledger", str(uncertified)]) == 1


def test_experiment_run(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "cdf-release",
                "seed": 2,
                "domain_size": 20,
                "data": {"kind": "uniform", "n": 200},
                "trials": 2,
                "thetas": [1],
                "epsilons": [1.0],
            }
        )
    )
    out = tmp_path / "report.csv"
    assert cli_main(["experiment", "run", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,mechanism")
    assert len(lines) == 2
    rc = cli_main(["experiment", "run", "--config", str(config), "--out", str(tmp_path / "r2.csv")])
    assert rc == 0
    assert (tmp_path / "r2.csv").read_text() == out.read_text()
    # the sample config in data/ runs
    assert cli_main(["experiment", "run", "--config", str(DATA / "experiment_range_mse.json"), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:2] == ["experiment", "mechanism"] and len(rows) > 1


def test_unknown_experiment_nonzero(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"experiment": "mystery"}')
    rc = cli_main(["experiment", "run", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("method", ["auto", "sparse"])
def test_sensitivity_non_sparse_policy_fails_cleanly(method, tmp_path, capsys):
    # a change from (a2, b2, .) to (a1, b1, .) lifts both queries
    policy = tmp_path / "overlap.json"
    policy.write_text(
        json.dumps(
            {
                "graph": {"kind": "full"},
                "constraints": {"kind": "general", "queries": [
                    {"where": {"A1": ["a1"]}, "answer": 2},
                    {"where": {"A2": ["b1"]}, "answer": 2},
                ]},
            }
        )
    )
    rc = cli_main(["sensitivity", "--domain", DOMAIN, "--policy", str(policy), "--method", method])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_enumeration_budget_fails_cleanly(tmp_path, capsys):
    rc = cli_main(
        ["sensitivity", "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--method", "oracle", "--n", "12"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # one answered point query per value of a 14-value attribute under full
    # secrets: 14 queries and the two sentinels fill the sparse engine's
    # 16-vertex cap with its densest graph, a complete digraph over the
    # queries, and a 15th value is refused
    domain, policy = tmp_path / "cap.json", tmp_path / "full.json"
    argv = ["sensitivity", "--domain", str(domain), "--policy", str(policy), "--method"]
    for values, method, rc, printed in (
        (15, "sparse", 1, ("", "error: policy graph has 17 vertices, exhaustive search capped at 16\n")),
        (14, "sparse", 0, ("28 UpperBound SparseEngine\n", "")),
        (14, "specialized", 0, ("28 Exact Specialized\n", "")),
    ):
        attributes = [{"name": "x", "values": [str(i) for i in range(values)]}, {"name": "y", "values": ["0", "1"]}]
        domain.write_text(json.dumps({"attributes": attributes}))
        points = [{"where": {"x": [str(i)]}, "answer": 1} for i in range(values)]
        policy.write_text(json.dumps({"graph": {"kind": "full"}, "constraints": points}))
        assert cli_main(argv + [method]) == rc
        assert tuple(capsys.readouterr()) == printed


def test_edge_budget_fails_cleanly(tmp_path, capsys):
    # the budget counts query signatures times ranks: 201 signatures over
    # 100,000 ranks are over it, and are refused before any is scanned
    domain = tmp_path / "wide.json"
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": [str(i) for i in range(100_000)]}]}))
    policy = tmp_path / "points.json"
    points = [{"where": {"x": [str(v)]}, "answer": 1} for v in range(200)]
    policy.write_text(json.dumps({"graph": {"kind": "distance", "theta": 1}, "constraints": points}))
    rc = cli_main(["policy", "validate", "--domain", str(domain), "--policy", str(policy)])
    assert rc == 1
    assert capsys.readouterr().err == "error: 201 signatures would visit ~20100000 ranks, budget is 20000000\n"
    # one 5000-rank cell has 25M candidate pairs, but its two signatures
    # are 10,000 ranks to scan
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": [str(i) for i in range(5000)]}]}))
    policy.write_text(
        json.dumps(
            {
                "graph": {"kind": "partition", "cells": [list(range(5000))]},
                "constraints": {"kind": "general", "queries": [{"where": {"x": ["0"]}, "answer": 1}]},
            }
        )
    )
    assert cli_main(["policy", "validate", "--domain", str(domain), "--policy", str(policy)]) == 0
    assert capsys.readouterr().out == "ok: domain size 5000, partition(cells=1)|general(q=1), 1 queries, sparse\n"


def test_closed_form_past_edge_budget(tmp_path, capsys):
    # one 5000-rank cell, unconstrained: the closed form reads the cell's
    # coordinates, not its 25M candidate pairs
    domain = tmp_path / "wide.json"
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": [str(i) for i in range(5000)]}]}))
    policy = tmp_path / "partition.json"
    policy.write_text(json.dumps({"graph": {"kind": "partition", "cells": [list(range(5000))]}}))
    argv = ["sensitivity", "--domain", str(domain), "--policy", str(policy), "--query", "cluster-sum"]
    assert cli_main(argv + ["--method", "closed"]) == 0
    # moves on purpose with ROADMAP item 19
    assert capsys.readouterr().out == "9998 Exact ClosedForm\n"


def test_distance_past_the_diameter_answers_as_the_full_graph(tmp_path, capsys):
    # 5,000 values: the full graph's 25M pairs are over the edge budget, and
    # a distance graph whose theta reaches the diameter, 4,999, is the full
    # graph and answers from the signatures' first ranks as it does
    domain = tmp_path / "wide.json"
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": [str(i) for i in range(5000)]}]}))
    ranges = [{"where": {"x": {"range": [0, 9]}}, "answer": 3}, {"where": {"x": {"range": [100, 199]}}, "answer": 5}]
    for graph, described in (
        ({"kind": "full"}, "full"),
        ({"kind": "distance", "theta": 4999}, "distance(theta=4999)"),
        ({"kind": "distance", "theta": 100000}, "distance(theta=100000)"),
    ):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"graph": graph, "constraints": ranges}))
        files = ["--domain", str(domain), "--policy", str(policy)]
        assert cli_main(["sensitivity", *files, "--method", "sparse"]) == 0
        assert capsys.readouterr().out == "6 UpperBound SparseEngine\n"
        assert cli_main(["policy", "validate", *files]) == 0
        assert capsys.readouterr().out == f"ok: domain size 5000, {described}|general(q=2), 2 queries, sparse\n"
        # ranges are no marginal, and the rectangle shape is for distance below the diameter
        assert cli_main(["sensitivity", *files, "--method", "specialized"]) == 1
        assert tuple(capsys.readouterr()) == ("", "error: constraints are not complete marginals\n")


def test_read_field_kinds():
    accepted = [
        (1, int, 1), (2.0, int, 2), (np.float64(2.0), int, 2), (10**400, int, 10**400), (None, (int, None), None),
        (1, float, 1.0), (np.float64(2.5), float, 2.5), (True, bool, True), ("s", str, "s"),
        (OrderedDict(a=1), dict, OrderedDict(a=1)), (["a", "b"], [str], ["a", "b"]),
        (2**63 - 1, errors.INT64, 2**63 - 1), (-(2**63), errors.INT64, -(2**63)), (3.0, errors.INT64, 3),
        ([1, 2], [int], [1, 2]), ([False, True], [bool], [False, True]), ([{"a": 1}], [dict], [{"a": 1}]),
        ([1, 2.0], [int], [1, 2]),
    ]
    for value, kind, want in accepted:
        got = errors.read_field({"k": value}, "k", None, kind, where="w")
        assert got == want and type(got) is type(want), (value, kind)
    refused = [
        (True, int, "an integer, got True"), (2.5, int, "an integer, got 2.5"),
        (np.int64(3), int, "an integer, got np.int64(3)"), (math.inf, float, "finite, got inf"),
        (np.float64(math.nan), float, "finite, got np.float64(nan)"), (1, bool, "a boolean, got 1"),
        (1, str, "a string, got 1"), ([1], [str], "a list of strings, got 1 at index 0"),
        (["a", 1], [str], "a list of strings, got 1 at index 1"),
        # a list of one exact type passes in one check: a mixed one still
        # names its first entry at fault
        ([1, True, 2], [int], "a list of integers, got True at index 1"),
        (["a", "b", 3, True], [str], "a list of strings, got 3 at index 2"),
        (2**63, errors.INT64, "below 2**63, got 9223372036854775808"),
        (-(2**63) - 1, errors.INT64, "at least -2**63, got -9223372036854775809"),
        (1e19, errors.INT64, "below 2**63, got 1e+19"), (0.5, errors.INT64, "an integer, got 0.5"),
        ([1, 2**64], [errors.INT64], "below 2**63, got 18446744073709551616 at index 1"),
    ]
    for value, kind, problem in refused:
        with pytest.raises(ValueError) as exc:
            errors.read_field({"k": value}, "k", None, kind, where="w")
        assert str(exc.value) == f"w 'k' must be {problem}", (value, kind)


def test_every_error_is_a_blowfish_error():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__]
    assert len(classes) >= 6
    for cls in classes:
        assert issubclass(cls, errors.BlowfishError)
    # each keeps its builtin base, so `except ValueError` callers still catch it
    assert issubclass(errors.BudgetExceededError, RuntimeError)
    assert issubclass(errors.InfiniteSensitivityError, ValueError)


FILES = {"domain": "d.json", "policy": "p.json"}
NOISE = {"epsilon": 0.5, "seed": 3, "out": "o", "format": "json"}
NAMESPACES = {
    "policy-validate": (
        "policy validate --domain d.json --policy p.json",
        {"command": "policy", "subcommand": "validate", **FILES, "func": cli._cmd_policy_validate},
    ),
    "sensitivity": (
        "sensitivity --domain d.json --policy p.json --query cumulative --k 3 --n 4 --method oracle --require-exact",
        {"command": "sensitivity", **FILES, "query": "cumulative", "method": "oracle", "k": 3, "n": 4,
         "require_exact": True, "func": cli._cmd_sensitivity},
    ),
    "release-histogram": (
        "release histogram --domain d.json --policy p.json --data r.csv --epsilon 0.5 --seed 3 --out o",
        {"command": "release", "subcommand": "histogram", **FILES, "data": "r.csv", **NOISE, "method": "auto",
         "require_exact": False, "func": cli._cmd_release, "release": cli._release_histogram},
    ),
    "release-cdf": (
        "release cdf --domain d.json --data r.csv --epsilon 0.5 --seed 3 --out o --format csv",
        {"command": "release", "subcommand": "cdf", "domain": "d.json", "data": "r.csv", **NOISE, "format": "csv",
         "theta": 1, "func": cli._cmd_release, "release": cli._release_cdf},
    ),
    "release-range": (
        "release range --domain d.json --data r.csv --theta 4 --epsilon 0.5 --seed 3 --out o",
        {"command": "release", "subcommand": "range", "domain": "d.json", "data": "r.csv", **NOISE, "theta": 4,
         "fanout": 16, "func": cli._cmd_release, "release": cli._release_range},
    ),
    "kmeans": (
        "kmeans --data x.csv --k 2 --epsilon 0.5 --seed 3 --out o --theta 0.25",
        {"command": "kmeans", "data": "x.csv", "k": 2, "iterations": 10, **NOISE, "graph": "full", "theta": 0.25,
         "low": 0.0, "high": 1.0, "func": cli._cmd_kmeans},
    ),
    "experiment-run": (
        "experiment run --config c.json --out o",
        {"command": "experiment", "subcommand": "run", "config": "c.json", "out": "o", "func": cli._cmd_experiment_run},
    ),
    "budget-total": (
        "budget total --ledger l.json",
        {"command": "budget", "subcommand": "total", "ledger": "l.json", "func": cli._cmd_budget_total},
    ),
}


@pytest.mark.parametrize("case", sorted(NAMESPACES))
def test_subcommand_namespaces(case):
    # every subcommand parses its flags, and their defaults, into the same
    # names and values however the parser declares them
    argv, want = NAMESPACES[case]
    assert vars(cli.build_parser().parse_args(argv.split())) == want
    assert vars(cli.build_parser(argv.split()).parse_args(argv.split())) == want


def _parsers(parser):
    """``parser`` and every subparser under it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _parse(parser, argv, capsys):
    """(the parsed names or the exit status, stdout, stderr) of parsing ``argv``."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    printed = capsys.readouterr()
    return result, printed.out, printed.err


PARSE_ARGVS = [
    "", "-h", "--version", "bogus", "-1", "-- sensitivity", "--version sensitivity", "sensitivity --version",
    "policy", "policy -h", "policy validate -h", "policy validate", "policy bogus",
    "sensitivity -h", "sensitivity --k two --domain d --policy p", "sensitivity --domain d --policy p --bogus",
    "sensitivity --dom d --pol p", "release", "release -h", "release hist", "release histogram -h",
    "release cdf -h", "release range --theta x", "kmeans -h", "kmeans --k 2", "experiment run -h",
    "budget total --ledger", "sensitivity release --domain d --policy p", "release sensitivity",
    # errors that print the usage line of a parser built with one command
    "policy validate --domain d --policy p extra",
    "release histogram --domain d --policy p --data r --epsilon 1 --out o extra",
    "release range -h", "release histogram", "experiment run --config c --out o extra",
    "budget total --ledger l extra", "kmeans --data d --k 2 --epsilon 1 --out o extra",
    "-h release histogram", "--version release histogram",
]


@pytest.mark.parametrize("argv", PARSE_ARGVS)
def test_call_parser_parses_as_the_whole_parser(argv, capsys, monkeypatch):
    # a call's parser builds only the commands named in the call; its help,
    # its errors and their exit status are the whole parser's, and its usage
    # lines wrap the same at every terminal width
    argv = argv.split()
    for columns in (40, 80, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        assert _parse(cli.build_parser(argv), argv, capsys) == _parse(cli.build_parser(), argv, capsys)


def test_call_parser_builds_only_the_named_command():
    # the parsers and the flags, -h and --version aside, that a call builds
    def built(argv):
        parsers = list(_parsers(cli.build_parser(argv)))
        flags = [a for p in parsers for a in p._actions if a.option_strings and a.dest not in ("help", "version")]
        return len(parsers), len(flags)

    assert built(None) == (13, 47)
    assert built(["sensitivity", "--domain", "d"]) == (2, 7)
    assert built(["policy", "validate"]) == (3, 2)
    assert built(["release", "range"]) == (3, 8)
    assert built(["release"]) == (5, 24)
    assert built([]) == (13, 47)
    # each parser's prog is the one argparse derives when none is given
    assert [p.prog for p in _parsers(cli.build_parser(["release", "range"]))] == [
        "blowfish", "blowfish release", "blowfish release range"]


def test_validate_wide_full_graph_answers(tmp_path, capsys):
    # a full graph is classified per pair of query signatures, not per edge
    domain = tmp_path / "wide.json"
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": [str(i) for i in range(10_000)]}]}))
    policy = tmp_path / "full.json"
    policy.write_text(
        json.dumps(
            {
                "graph": {"kind": "full"},
                "constraints": {"kind": "general", "queries": [{"where": {"x": ["0"]}, "answer": 1}]},
            }
        )
    )
    rc = cli_main(["policy", "validate", "--domain", str(domain), "--policy", str(policy)])
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith(", sparse")


def test_distance_graph_on_a_grid_answers(tmp_path, capsys):
    # 100 x 100 points at theta = 2: the signatures' distance transforms
    # scan 30,000 ranks, where all 1e8 rank pairs would be over the edge budget
    domain, policy = tmp_path / "grid.json", tmp_path / "distance.json"
    domain.write_text(json.dumps({"attributes": [{"name": n, "values": [str(i) for i in range(100)]} for n in "xy"]}))
    rects = [
        {"where": {"x": {"range": [0, 9]}, "y": {"range": [0, 9]}}, "answer": 5},
        {"where": {"x": {"range": [50, 59]}, "y": {"range": [20, 39]}}, "answer": 3},
    ]
    policy.write_text(json.dumps({"graph": {"kind": "distance", "theta": 2}, "constraints": rects}))
    files = ["--domain", str(domain), "--policy", str(policy)]
    assert cli_main(["policy", "validate", *files]) == 0
    assert capsys.readouterr().out == "ok: domain size 10000, distance(theta=2)|general(q=2), 2 queries, sparse\n"
    assert cli_main(["sensitivity", *files, "--method", "sparse"]) == 0
    assert capsys.readouterr().out == "4 UpperBound SparseEngine\n"
    assert cli_main(["sensitivity", *files, "--method", "specialized"]) == 0
    assert capsys.readouterr().out == "4 Exact Specialized\n"
    # 300 x 300 points under attribute secrets (54M secret pairs) and distance
    # secrets at theta = 40 (~269M pairs): both answer from the signatures
    domain.write_text(json.dumps({"attributes": [{"name": n, "values": [str(i) for i in range(300)]} for n in "xy"]}))
    for graph, described, rects in (
        ({"kind": "attribute"}, "attribute",
         [{"where": {"x": {"range": [0, 9]}}, "answer": 5}, {"where": {"y": {"range": [50, 59]}}, "answer": 3}]),
        ({"kind": "distance", "theta": 40}, "distance(theta=40)",
         [{"where": {"x": {"range": [0, 9]}, "y": {"range": [0, 9]}}, "answer": 5},
          {"where": {"x": {"range": [150, 159]}, "y": {"range": [20, 39]}}, "answer": 3}]),
    ):
        policy.write_text(json.dumps({"graph": graph, "constraints": rects}))
        assert cli_main(["policy", "validate", *files]) == 0
        assert cli_main(["sensitivity", *files, "--method", "sparse"]) == 0
        printed = f"ok: domain size 90000, {described}|general(q=2), 2 queries, sparse\n4 UpperBound SparseEngine\n"
        assert capsys.readouterr().out == printed


def test_releases_on_a_one_value_domain(tmp_path):
    # one value has no secret pair: the histogram is released exactly, and
    # the cdf and the tree calibrate to theta 1, not to the 0 of their policy
    domain, rows, policy = tmp_path / "one.json", tmp_path / "one.csv", tmp_path / "full.json"
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": ["only"]}]}))
    rows.write_text("x\nonly\nonly\n")
    policy.write_text(json.dumps({"graph": {"kind": "full"}}))
    common = ["--domain", str(domain), "--data", str(rows), "--epsilon", "0.5", "--seed", "3"]
    payloads = {}
    for name, flags in (("histogram", ["--policy", str(policy)]), ("cdf", []), ("range", ["--theta", "1"])):
        out = tmp_path / f"{name}.json"
        argv = ["release", name, *common, *flags, "--out", str(out)]
        assert cli_main(argv) == 0
        first = out.read_bytes()
        assert cli_main(argv) == 0
        assert out.read_bytes() == first
        payloads[name] = json.loads(first)
    assert payloads["histogram"]["sensitivity"] == 0 and payloads["histogram"]["values"] == [2.0]
    assert payloads["cdf"]["theta"] == 1 and len(payloads["cdf"]["values"]) == 1
    (node,) = payloads["range"]["nodes"]
    assert node["id"] == "S1" and node["interval"] == [1, 1] and payloads["range"]["eps_s"] == 0.5


SEEDED_RELEASES = {
    "histogram": ["release", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL,
                  "--data", ROWS, "--epsilon", "1.0"],
    "cdf": ["release", "cdf", "--domain", DOMAIN, "--data", ROWS, "--theta", "2", "--epsilon", "1.0"],
    "range": ["release", "range", "--domain", DOMAIN, "--data", ROWS, "--theta", "4", "--fanout", "2",
              "--epsilon", "1.0"],
    "kmeans": ["kmeans", "--k", "2", "--iterations", "2", "--epsilon", "1.0"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_RELEASES) + ["histogram-zero-sensitivity", "experiment"])
def test_negative_seed_fails_cleanly(command, tmp_path, capsys):
    out = tmp_path / "out.json"
    if command == "experiment":
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "cdf-release", "domain_size": 4, "trials": 1, "seed": -1}))
        argv = ["experiment", "run", "--config", str(config), "--out", str(out)]
        want = "error: experiment 'seed' must be at least 0, got -1\n"
    elif command == "histogram-zero-sensitivity":
        # distance secrets at theta 0 join no two values: the noise scale is
        # 0, and the release still draws, so it still reads the seed
        policy = tmp_path / "theta0.json"
        policy.write_text(json.dumps({"graph": {"kind": "distance", "theta": 0}}))
        argv = ["release", "histogram", "--domain", DOMAIN, "--policy", str(policy), "--data", ROWS]
        argv += ["--epsilon", "1.0", "--seed", "-1", "--out", str(out)]
        want = "error: seed must be non-negative, got -1\n"
    else:
        argv = list(SEEDED_RELEASES[command]) + ["--seed", "-1", "--out", str(out)]
        want = "error: seed must be non-negative, got -1\n"
    if command == "kmeans":
        data = tmp_path / "pts.csv"
        data.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n")
        argv += ["--data", str(data)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_seed_above_64_bits_releases(tmp_path):
    out = tmp_path / "out.json"
    rc = cli_main(SEEDED_RELEASES["cdf"] + ["--seed", str(2**64 + 1), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 2**64 + 1
    assert len(payload["values"]) == 12


@pytest.mark.parametrize("command", sorted(SEEDED_RELEASES))
def test_seedless_releases_differ(command, tmp_path):
    # without --seed a release draws its seed from the OS; a given seed
    # gives the same bytes every time
    out = tmp_path / "out.json"
    argv = list(SEEDED_RELEASES[command]) + ["--out", str(out)]
    if command == "kmeans":
        data = tmp_path / "pts.csv"
        data.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n")
        argv += ["--data", str(data)]
    texts = []
    for seed in ([], [], ["--seed", "11"], ["--seed", "11"]):
        assert cli_main(argv + seed) == 0
        texts.append(out.read_bytes())
    assert texts[0] != texts[1] and texts[2] == texts[3]


def _random_json(rng: random.Random, depth: int = 0):
    """A plain payload-like value: lists of one kind, rows and records,
    sometimes irregular, which the JSON writer hands to ``json.dumps``."""
    scalars = [
        lambda: rng.random() * 10 ** rng.randint(-8, 8),
        lambda: rng.choice([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324]),
        lambda: np.float64(rng.random()),
        lambda: rng.choice([True, False, None]),
        lambda: rng.randint(-(2**70), 2**70),
        lambda: rng.randint(-3, 3),
        lambda: rng.choice(["", "plain", "caf\u00e9", "50%", "%s%d", "tab\tquote\"", "\u2603"]),
    ]
    keys = ["a", "b", "id", "%s", "100%", "\u00e9t\u00e9", "\u2603"]
    kind = rng.randrange(6) if depth < 3 else 0
    if kind == 0:
        return rng.choice(scalars)()
    if kind == 1:  # a column of one scalar kind, sometimes with one odd element
        make = rng.choice(scalars)
        items = [make() for _ in range(rng.randrange(0, 6))]
        if items and rng.random() < 0.3:
            items[rng.randrange(len(items))] = rng.choice(scalars)()
        return items
    if kind == 2:  # rows of one length, sometimes ragged, int and float mixed
        width = rng.randrange(0, 4)
        rows = [[rng.random() if rng.random() < 0.8 else rng.randint(0, 9) for _ in range(width)]
                for _ in range(rng.randrange(0, 5))]
        if rows and rng.random() < 0.3:
            rows[-1].append(1.5)
        return rows
    if kind == 3:  # records with the same keys, sometimes one with other keys
        names = rng.sample(keys, rng.randrange(0, 4))
        records = [{k: _random_json(rng, depth + 1) for k in names} for _ in range(rng.randrange(0, 5))]
        if records and rng.random() < 0.3:
            records[0][rng.choice(keys)] = 0
        return records
    if kind == 4:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    return {k: _random_json(rng, depth + 1) for k in rng.sample(keys, rng.randrange(0, 4))}


@pytest.mark.parametrize("epsilon", ["inf", "nan", "1e-320"])
def test_range_epsilon_refused_like_other_releases(epsilon, tmp_path, capsys):
    # release range reads epsilon as the histogram release does: the same
    # refusal for a non-finite budget, and the same scale error, not a
    # ZeroDivisionError, for one so small that its noise scale is infinite
    seen = []
    for command in ("histogram", "range"):
        out = tmp_path / f"{command}.json"
        rc = cli_main(SEEDED_RELEASES[command] + ["--epsilon", epsilon, "--seed", "1", "--out", str(out)])
        seen.append((rc, capsys.readouterr(), out.exists()))
    assert seen[0] == seen[1] and seen[0][0] == 1 and seen[0][1].err.startswith("error:"), seen


def test_range_epsilon_near_float_max_releases(tmp_path):
    # the budget split of a total near the float maximum does not overflow:
    # on the three-attribute example the tree runs at rank theta 11, on one
    # 12-value attribute at the flag's 4 (ROADMAP item 18 puts that
    # release's loss at 1.12 epsilon)
    domain, rows, out = tmp_path / "line12.json", tmp_path / "line12.csv", tmp_path / "range.json"
    attribute = {"name": "x", "values": [str(i) for i in range(12)], "ordinal": True}
    domain.write_text(json.dumps({"attributes": [attribute]}))
    rows.write_text("x\n" + "".join(f"{i * 5 % 12}\n" for i in range(40)))
    line12 = ["release", "range", "--domain", str(domain), "--data", str(rows), "--theta", "4", "--fanout", "2"]
    for argv, epsilon in ((SEEDED_RELEASES["range"], "1e308"), (line12, "1.7e308")):
        assert cli_main(argv + ["--epsilon", epsilon, "--seed", "1", "--out", str(out)]) == 0
        assert all(0 < node["scale"] < 1e-300 for node in json.loads(out.read_text())["nodes"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["histogram", "cdf"])
def test_release_with_nonfinite_values_refused(command, fmt, tmp_path, capsys):
    # at this budget the noise overflows: -inf in 4 of the 12 histogram
    # values, and isotonic inference pools infinities into nan in the cdf;
    # JSON has no number for either, so nothing is written
    out = tmp_path / f"out.{fmt}"
    argv = {
        "histogram": ["release", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL],
        "cdf": ["release", "cdf", "--domain", DOMAIN, "--theta", "1"],
    }[command]
    argv += ["--data", ROWS, "--epsilon", "5e-308", "--seed", "1", "--format", fmt, "--out", str(out)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: release field 'values' holds nan or an infinity; nothing written\n"
    assert captured.out == "" and not out.exists()


def test_kmeans_release_with_nonfinite_centroid_refused(tmp_path, capsys, monkeypatch):
    # k-means clips its centroids to the bounds, so the nan is put in by hand:
    # a plain nested list is checked like an array
    result = kmeans.ClusteringResult(centroids=np.array([[0.5, 0.5], [0.5, np.nan]]), objective=1.0, trace=(1.0,))
    monkeypatch.setattr(cli, "kmeans_private", lambda *args: result)
    data, out = tmp_path / "pts.csv", tmp_path / "out.json"
    data.write_text("0.1,0.2\n0.8,0.9\n")
    argv = list(SEEDED_RELEASES["kmeans"]) + ["--seed", "1", "--data", str(data), "--out", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: release field 'centroids' holds nan or an infinity; nothing written\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta", "nan"], "theta must be finite, got nan"),
        (["--graph", "distance", "--theta", "0.25", "--high", "inf"],
         "release flag 'high' holds nan or an infinity; nothing written"),
    ],
    ids=["theta-nan", "high-inf"],
)
def test_kmeans_release_with_nonfinite_flag_refused(flags, message, fmt, tmp_path, capsys):
    # the policy refuses a nan theta; the flags are echoed into the release,
    # so they are checked like its body
    data, out = tmp_path / "pts.csv", tmp_path / f"out.{fmt}"
    data.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n")
    argv = ["kmeans", "--data", str(data), "--k", "2", "--epsilon", "1", "--seed", "1", "--format", fmt]
    assert cli_main(argv + flags + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_kmeans_ratio_with_zero_objective_refused(tmp_path, capsys):
    # one point in one cluster: the non-private objective is 0 and the ratio
    # has no value
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps({"experiment": "kmeans-ratio", "n": 1, "dims": 1, "k": 1, "sigma": 0, "trials": 3}))
    assert cli_main(["experiment", "run", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(
        r"error: kmeans-ratio: policy full at epsilon 0\.2, trial seed \d+: "
        r"the non-private objective is 0, so the ratio is undefined\n",
        captured.err,
    )
    assert captured.out == "" and not out.exists()


def test_range_experiment_at_extreme_epsilon(tmp_path, capsys):
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    argv = ["experiment", "run", "--config", str(path), "--out", str(out)]
    config = {"experiment": "range-mse", "domain_size": 20, "trials": 1, "queries": 5, "thetas": [2]}
    path.write_text(json.dumps({**config, "epsilons": [1e308]}))
    assert cli_main(argv) == 0 and out.exists()
    out.unlink()
    path.write_text(json.dumps({**config, "epsilons": [1e-320]}))
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: scale must be finite and non-negative, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, name",
    [
        pytest.param(
            SEEDED_RELEASES["range"] + ["--fanout", str(10**20), "--seed", "1"], None, "fanout", id="range-fanout"
        ),
        pytest.param(None, {"fanout": 10**20}, "experiment 'fanout'", id="experiment-fanout"),
        pytest.param(
            None, {"data": {"kind": "zipf", "n": 10**20}}, "experiment 'data' field 'n'", id="experiment-zipf-n"
        ),
        pytest.param(None, {"queries": 10**20}, "experiment 'queries'", id="experiment-queries"),
        pytest.param(None, {"experiment": "kmeans-ratio", "k": 10**20}, "experiment 'k'", id="experiment-kmeans-k"),
        # read before a bounds tuple of that length is built
        pytest.param(
            None, {"experiment": "kmeans-ratio", "dims": 10**20}, "experiment 'dims'", id="experiment-kmeans-dims"
        ),
    ],
)
def test_integers_past_int64_fail_cleanly(argv, config, name, tmp_path, capsys):
    out = tmp_path / "out"
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "range-mse", "domain_size": 20, "trials": 1, **config}))
        argv = ["experiment", "run", "--config", str(path)]
    assert cli_main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be ") and captured.out == ""
    assert str(10**20) in captured.err
    assert not out.exists()


@pytest.mark.parametrize("message", ["", "Unable to allocate 64.0 EiB for an array"])
def test_out_of_memory_fails_cleanly(message, tmp_path, capsys, monkeypatch):
    # an experiment size inside int64 but past memory; numpy's allocation
    # error subclasses MemoryError, whose message may be empty
    def run_experiment(text):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    config, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    config.write_text(json.dumps({"experiment": "range-mse", "domain_size": 20}))
    assert cli_main(["experiment", "run", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: out of memory{': ' if message else ''}{message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["release", "kmeans", "experiment"])
def test_unwritable_out_names_the_out_path(command, target, tmp_path, capsys):
    # the error names --out as given, not the temporary file written beside
    # it, and that file is removed
    out = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path / "isdir"
    if target == "directory":
        out.mkdir()
    if command == "release":
        argv = SEEDED_RELEASES["histogram"] + ["--seed", "1"]
    elif command == "kmeans":
        data = tmp_path / "pts.csv"
        data.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n")
        argv = SEEDED_RELEASES["kmeans"] + ["--seed", "1", "--data", str(data)]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": "cdf-release", "domain_size": 4, "trials": 1}))
        argv = ["experiment", "run", "--config", str(config)]
    assert cli_main(argv + ["--out", str(out)]) == 1
    reason = "No such file or directory" if target == "missing-directory" else "Is a directory"
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
    assert not list(tmp_path.rglob("*.tmp"))


I64 = np.iinfo(np.int64)

# columns the writer encodes from arrays, and the ones it hands to json.dumps
COLUMNS = {
    "signed-zeros": np.array([-0.0, 0.0, 1.5, -0.0, 1.5, 0.0, -0.0]),
    "subnormal": np.array([5e-324, -5e-324, 1.0, 5e-324]),
    "nan": np.array([1.0, float("nan"), 1.0]),
    "infinities": np.array([float("inf"), -0.0, -float("inf"), 2.0]),
    "int64-bounds": np.array([I64.min, I64.max, 0, -1, I64.min]),
    "one-float": np.array([2.5]),
    "one-int": np.array([7]),
    "no-floats": np.array([]),
    "no-ints": np.array([], dtype=np.int64),
    "pairs": np.array([[I64.min, 3], [-0, I64.max]]),
    "float-rows": np.array([[0.0, -0.0, 1e300], [5e-324, 0.0, -2.5]]),
    "no-rows": np.zeros((0, 2), dtype=np.int64),
    "no-width": np.zeros((3, 0)),
    "bools": np.array([True, False]),
    "table": Table(
        id=["a", "%s", "caf\u00e9", 'tab\tquote"'],
        interval=np.array([[1, 2], [3, 4], [5, 6], [I64.min, I64.max]]),
        value=np.array([-0.0, 0.0, 0.0, 5e-324]),
    ),
    "table-one-row": Table(**{"100%": np.array([1]), "\u2603": ["x"], "b": np.array([[0.5, -0.0]])}),
    "table-no-rows": Table(id=[], value=np.array([])),
    "table-inf": Table(id=["x", "y"], scale=np.array([1.0, float("inf")])),
}


def test_json_writer_matches_json_dumps(tmp_path):
    rng = random.Random(20131105)
    payloads = [{k: _random_json(rng) for k in rng.sample(["flags", "nodes", "%x", "\u00e9", "v"], 3)}
                for _ in range(2000)]
    payloads += [{"v": column, "flags": {"x": [1, 2]}} for column in COLUMNS.values()]
    payloads.append({"%x": dict(COLUMNS), "nodes": COLUMNS["table"]})
    counts = np.random.default_rng(0).integers(0, 50, size=300)
    payloads.append(build_oh_release(counts, 16, 4, 0.5, 0.5, 7).to_dict())
    out = tmp_path / "tree.json"
    assert cli_main(SEEDED_RELEASES["range"] + ["--seed", "3", "--out", str(out)]) == 0
    payloads.append(json.loads(out.read_text()))
    for payload in payloads:
        expected = json.dumps(plain(payload), indent=2, sort_keys=True) + "\n"
        assert _format_payload(payload, "json") == expected


def test_json_writer_tree_payloads():
    rng = np.random.default_rng(20131105)
    for _ in range(30):
        size = int(rng.integers(1, 400))
        counts = rng.integers(0, 30, size=size)
        fanout = int(rng.integers(2, 17))
        for theta in sorted({1, max(1, size // 2), size}):
            split = optimal_budget_split(size, theta, fanout, 1.0)
            tree = build_oh_release(counts, theta, fanout, split.eps_s, split.eps_h, int(rng.integers(2**31)))
            payload = {**tree.payload(), "epsilon": 1.0}
            written = _format_payload(payload, "json")
            assert written == json.dumps(plain(payload), indent=2, sort_keys=True) + "\n"
            assert json.loads(written)["nodes"] == tree.to_dict()["nodes"]


_LAPLACE = np.random.default_rng(11).laplace(size=5376)
FLOAT_COLUMNS = {
    "all-distinct": _LAPLACE,
    "adjacent-repeats": np.repeat(_LAPLACE[:700], 8),
    "non-adjacent-repeats": np.tile(_LAPLACE[:700], 8),
    "zeros-alternating": np.array([-0.0, 0.0] * 50 + [2.5]),
    "zeros-with-repeats": np.array([-0.0, 0.0, 0.0, -0.0, -0.0, 1.5, 1.5, 0.0]),
}


@pytest.mark.parametrize("case", sorted(FLOAT_COLUMNS))
def test_float_column_written_like_json_dumps(case):
    # a column with adjacent repeats is formatted once per bit pattern, any
    # other entry by entry; both write what json.dumps writes
    col = FLOAT_COLUMNS[case]
    assert cli._column(col) == list(map(repr, col.tolist()))
    for value in (col, col.reshape(-1, 1), Table(id=[str(i) for i in range(col.size)], value=col)):
        payload = {"v": value}
        assert _format_payload(payload, "json") == json.dumps(plain(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["histogram", "cdf", "range"])
def test_csv_release_parses(command, tmp_path):
    out = tmp_path / "a,b \"c\".out"
    argv = SEEDED_RELEASES[command] + ["--seed", "5", "--out", str(out)]
    assert cli_main(argv + ["--format", "csv"]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert cli_main(argv) == 0
    expected = json.loads(out.read_text())
    expected["flags"]["format"] = "csv"
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    assert {key for key, _ in rows[1:]} == set(expected)
    for key, cell in rows[1:]:
        value = expected[key]
        if isinstance(value, (list, dict)):
            assert json.loads(cell) == value, key
        else:
            assert cell == str(value), key


# valid JSON of the wrong shape, one file at a time; each names its field.
# A string is written as it stands, so a number such as 1e400 keeps its text
DOMAIN_SPEC = json.loads(Path(DOMAIN).read_text())
ENTRY = {"label": "a", "epsilon": 0.5}

MALFORMED_FILES = {
    "ledger-list": ("ledger", [1], "ledger must be a JSON object"),
    "ledger-entry-int": ("ledger", {"entries": [1]}, "ledger 'entries' must be a list of objects"),
    "ledger-groups-int": ("ledger", {"certified_groups": 3}, "ledger 'certified_groups' must be a list of strings"),
    "ledger-group-list": ("ledger", {"entries": [{**ENTRY, "group": ["g"]}], "certified_groups": ["g"]},
                          "ledger entry 'group' must be a string or null"),
    "ledger-group-dict": ("ledger", {"entries": [{**ENTRY, "group": {"g": 1}}]},
                          "ledger entry 'group' must be a string or null"),
    "ledger-group-int": ("ledger", {"entries": [{**ENTRY, "group": 1}], "certified_groups": [1]},
                         "ledger entry 'group' must be a string or null"),
    "ledger-certified-int": ("ledger", {"entries": [{**ENTRY, "group": "1"}], "certified_groups": [1]},
                             "ledger 'certified_groups' must be a list of strings"),
    "ledger-label-missing": ("ledger", {"entries": [{"epsilon": 0.5}]}, "ledger entry 'label' must be a string"),
    "ledger-label-int": ("ledger", {"entries": [{"label": 3, "epsilon": 0.5}]},
                         "ledger entry 'label' must be a string"),
    "ledger-epsilon-missing": ("ledger", {"entries": [{"label": "a"}]}, "ledger entry 'epsilon' must be a number"),
    "ledger-epsilon-str": ("ledger", {"entries": [{"label": "a", "epsilon": "0.5"}]},
                           "ledger entry 'epsilon' must be a number"),
    "ledger-epsilon-huge-int": ("ledger", {"entries": [{"label": "a", "epsilon": 10**400}]},
                                "ledger entry 'epsilon' must be finite"),
    "policy-theta-1e400": ("policy", '{"graph": {"kind": "distance", "theta": 1e400}}',
                           "distance graph 'theta' must be an integer"),
    "policy-theta-nan": ("policy", '{"graph": {"kind": "distance", "theta": NaN}}',
                         "distance graph 'theta' must be an integer"),
    "policy-theta-fraction": ("policy", {"graph": {"kind": "distance", "theta": 1.5}},
                              "distance graph 'theta' must be an integer"),
    "policy-answer-1e400": (
        "policy", '{"graph": {"kind": "full"}, "constraints": [{"where": {"A1": ["a1"]}, "answer": 1e400}]}',
        "constraint 'answer' must be an integer or null",
    ),
    "policy-answer-fraction": (
        "policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": ["a1"]}, "answer": 1.9}]},
        "constraint 'answer' must be an integer or null",
    ),
    "policy-range-1e400": (
        "policy", '{"graph": {"kind": "full"}, "constraints": [{"where": {"A1": {"range": [0, 1e400]}}}]}',
        "selection of 'A1' 'range' must be a list of integers",
    ),
    "policy-range-fraction": (
        "policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": {"range": [0.5, 1]}}}]},
        "selection of 'A1' 'range' must be a list of integers",
    ),
    "policy-graph-int": ("policy", {"graph": 3}, "policy 'graph' must be an object"),
    "policy-partition-label": ("policy", {"graph": {"kind": "partition", "cells": [[0, "a"]]}},
                               "partition graph 'cells' must be a list of lists of integers"),
    # read as rank 1, the boolean would complete the partition
    "policy-partition-bool": ("policy", {"graph": {"kind": "partition", "cells": [[0, *range(2, 12)], [True]]}},
                              "partition graph 'cells' must be a list of lists of integers, got [True] at index 1"),
    "policy-constraints-str": ("policy", {"graph": {"kind": "full"}, "constraints": "x"},
                               "policy 'constraints' must be an object or a list of queries"),
    "policy-queries-int": ("policy", {"graph": {"kind": "full"}, "constraints": {"kind": "general", "queries": 3}},
                           "policy constraints 'queries' must be a list of objects"),
    "policy-query-int": ("policy", {"graph": {"kind": "full"}, "constraints": [1]},
                         "policy constraints 'queries' must be a list of objects"),
    "policy-where-list": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": ["A1"]}]},
                          "constraint 'where' must be an object"),
    # a kind that is no string, or a kind without queries, would drop them silently
    "policy-constraints-kind-null": (
        "policy", {"graph": {"kind": "full"}, "constraints": {"kind": None, "queries": [{"where": {"A1": ["a1"]}}]}},
        "policy constraints 'kind' must be a string",
    ),
    "policy-cardinality-queries": (
        "policy", {"graph": {"kind": "full"}, "constraints": {"kind": "cardinality", "queries": [{"where": {"A1": ["a1"]}}]}},
        "policy constraints of kind 'cardinality' take no 'queries' field",
    ),
    "domain-attribute-int": ("domain", {"attributes": [1]}, "domain 'attributes' must be a list of objects"),
    "domain-values-int": ("domain", {"attributes": [{"name": "x", "values": 3}]},
                          "attribute 'x' 'values' must be a list of strings"),
    # the marginal policy reads A1 and A2 only, so a bad A3 is the one fault
    "domain-labels-json-values": (
        "domain", {"attributes": [*DOMAIN_SPEC["attributes"][:2], {"name": "A3", "values": [None, True, 1e2, [1]]}]},
        "attribute 'A3' 'values' must be a list of strings",
    ),
    "domain-label-number": (
        "domain", {"attributes": [*DOMAIN_SPEC["attributes"][:2], {"name": "A3", "values": ["c1", 2]}]},
        "attribute 'A3' 'values' must be a list of strings",
    ),
    "domain-label-bool": (
        "domain", {"attributes": [*DOMAIN_SPEC["attributes"][:2], {"name": "A3", "values": ["c1", True]}]},
        "attribute 'A3' 'values' must be a list of strings",
    ),
    "domain-name-int": ("domain", {"attributes": [*DOMAIN_SPEC["attributes"][:2], {"name": 3, "values": ["c1"]}]},
                        "domain attribute 2 'name' must be a string"),
    "experiment-list": ("experiment", [1], "experiment config must be a JSON object"),
    "policy-selection-str": (
        "policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": "a1"}, "answer": 1}]},
        "selection of 'A1' must be a list of labels or {\"range\": [lo, hi]}",
    ),
    "policy-selection-int": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": 3}, "answer": 1}]},
                             "selection of 'A1' must be a list of labels or {\"range\": [lo, hi]}"),
    "policy-range-int": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": {"range": 3}}}]},
                         "selection of 'A1' must be a list of labels or {\"range\": [lo, hi]}"),
    "policy-answer-negative": (
        "policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": ["a1"]}, "answer": -1}]},
        "constraint answer must be at least 0, got -1",
    ),
    "policy-answer-past-int64": (
        "policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": ["a1"]}, "answer": 10**20}]},
        "constraint answer must be below 2**63, got 100000000000000000000",
    ),
    # a range on a misspelled attribute is refused as a label list is
    "policy-range-unknown-attribute": (
        "policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"Z": {"range": [0, 1]}}, "answer": 3}]},
        "unknown attributes in query: ['Z']",
    ),
    "policy-answer-list": (
        "policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": ["a1"]}, "answer": [1]}]},
        "constraint 'answer' must be an integer or null",
    ),
    "policy-edges-int": ("policy", {"graph": {"kind": "explicit", "edges": [1]}},
                         "explicit graph 'edges' must be a list of lists of integers"),
    "policy-theta-list": ("policy", {"graph": {"kind": "distance", "theta": [1]}},
                          "distance graph 'theta' must be an integer"),
    "ledger-epsilon-list": ("ledger", {"entries": [{"label": "a", "epsilon": [1]}]},
                            "ledger entry 'epsilon' must be a number"),
    "experiment-policies-int": ("experiment", {"experiment": "kmeans-ratio", "policies": [1]},
                                "experiment 'policies' must be a list of objects"),
    "experiment-data-int": ("experiment", {"experiment": "cdf-release", "data": 3},
                            "experiment 'data' must be an object"),
    "experiment-entries-int": ("experiment", {"experiment": "sensitivity-table", "domain": DOMAIN_SPEC, "entries": [1]},
                               "experiment 'entries' must be a list of objects"),
    "experiment-trials-zero": ("experiment", {"experiment": "cdf-release", "trials": 0},
                               "experiment 'trials' must be at least 1"),
    "experiment-trials-negative": ("experiment", {"experiment": "range-mse", "trials": -1},
                                   "experiment 'trials' must be at least 1"),
    "experiment-trials-fraction": ("experiment", {"experiment": "cdf-release", "trials": 1.9},
                                   "experiment 'trials' must be an integer, got 1.9"),
    "experiment-queries-zero": ("experiment", {"experiment": "range-mse", "queries": 0},
                                "experiment 'queries' must be at least 1"),
    "experiment-range-epsilons-int": ("experiment", {"experiment": "range-mse", "epsilons": 3},
                                      "experiment 'epsilons' must be a list of numbers"),
    "experiment-range-thetas-int": ("experiment", {"experiment": "range-mse", "thetas": 3},
                                    "experiment 'thetas' must be a list of integers or \"full\""),
    "experiment-cdf-epsilons-int": ("experiment", {"experiment": "cdf-release", "epsilons": 3},
                                    "experiment 'epsilons' must be a list of numbers"),
    "experiment-cdf-thetas-int": ("experiment", {"experiment": "cdf-release", "thetas": 3},
                                  "experiment 'thetas' must be a list of integers"),
    "experiment-epsilons-nested": ("experiment", {"experiment": "cdf-release", "epsilons": [[1]]},
                                   "experiment 'epsilons' must be a list of numbers"),
    "experiment-fanout-list": ("experiment", {"experiment": "range-mse", "fanout": [2]},
                               "experiment 'fanout' must be an integer"),
    "experiment-seed-list": ("experiment", {"experiment": "cdf-release", "seed": [1]},
                             "experiment 'seed' must be an integer"),
    "experiment-kmeans-theta-list": (
        "experiment", {"experiment": "kmeans-ratio", "policies": [{"kind": "distance", "theta": [1]}]},
        "kmeans-ratio policy 'theta' must be a number",
    ),
    "experiment-data-n-list": ("experiment", {"experiment": "cdf-release", "data": {"n": [1]}},
                               "experiment 'data' field 'n' must be an integer"),
    "experiment-domain-size-zero": ("experiment", {"experiment": "cdf-release", "domain_size": 0},
                                    "experiment 'domain_size' must be at least 1"),
    "experiment-domain-missing": ("experiment", {"experiment": "sensitivity-table", "entries": []},
                                  "experiment 'domain' must be an object"),
    "experiment-entry-policy-missing": (
        "experiment", {"experiment": "sensitivity-table", "domain": DOMAIN_SPEC, "entries": [{"query": "histogram"}]},
        "sensitivity-table entry 'policy' must be an object",
    ),
    "experiment-kmeans-policy-index": (
        "experiment", {"experiment": "kmeans-ratio", "policies": [{"kind": "full"}, {"kind": "distance", "theta": -1}]},
        "kmeans-ratio policy 1: theta must be non-negative, got -1",
    ),
    "experiment-kmeans-theta-nan": (
        "experiment", {"experiment": "kmeans-ratio", "policies": [{"kind": "distance", "theta": float("nan")}]},
        "kmeans-ratio policy 'theta' must be finite",
    ),
    "experiment-zipf-s-nan": ("experiment", {"experiment": "cdf-release", "data": {"zipf_s": float("nan")}},
                              "experiment 'data' field 'zipf_s' must be finite"),
    "experiment-entries-unknown-query": (
        "experiment", {"experiment": "sensitivity-table", "domain": DOMAIN_SPEC, "entries": [{"query": "nope", "policy": {}}]},
        "unknown sensitivity-table query 'nope'",
    ),
    "domain-attributes-str": ("domain", {"attributes": "abc"}, "domain 'attributes' must be a list of objects"),
    "domain-truncated": ("domain", '{"attributes": [', "malformed domain: "),
    "policy-truncated": ("policy", '{"graph": ', "malformed policy: "),
    "policy-graph-missing": ("policy", {}, "policy 'graph' must be an object"),
    "ledger-truncated": ("ledger", '{"entries": [', "malformed ledger: "),
    "ledger-nested-too-deep": ("ledger", "[" * 100_000, "malformed ledger: "),
    "experiment-truncated": ("experiment", '{"experiment": ', "malformed experiment config: "),
    "experiment-name-int": ("experiment", {"experiment": 3}, "experiment 'experiment' must be a string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_fails_cleanly(case, tmp_path, capsys):
    kind, content, fragment = MALFORMED_FILES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = {
        "ledger": ["budget", "total", "--ledger", str(bad)],
        "policy": ["policy", "validate", "--domain", DOMAIN, "--policy", str(bad)],
        "domain": ["policy", "validate", "--domain", str(bad), "--policy", POLICY_MARGINAL],
        "experiment": ["experiment", "run", "--config", str(bad), "--out", str(tmp_path / "out.csv")],
    }[kind]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


POINTS = "0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n"
ABC_RANKS = list(range(12))  # the ranks of the 12-value example domain
# case: (command, file content, the message of its one error line); the
# file is the one the command reads: a policy, a domain, points or a ledger
REFUSED_INPUTS = {
    "explicit-rank-out-of-range": ("policy", {"graph": {"kind": "explicit", "edges": [[0, 99]]}},
                                   "edge (0,99) references an invalid rank"),
    "explicit-self-loop": ("policy", {"graph": {"kind": "explicit", "edges": [[1, 1]]}}, "self-loops are not allowed"),
    "explicit-triple": ("policy", {"graph": {"kind": "explicit", "edges": [[0, 1, 2]]}},
                        "explicit graph 'edges' must be a list of pairs of ranks"),
    "partition-rank-out-of-range": ("policy", {"graph": {"kind": "partition", "cells": [ABC_RANKS, [12]]}},
                                    "rank 12 out of range"),
    "partition-rank-twice": ("policy", {"graph": {"kind": "partition", "cells": [ABC_RANKS, [0]]}},
                             "rank 0 assigned to two cells"),
    "partition-uncovered": ("policy", {"graph": {"kind": "partition", "cells": [ABC_RANKS[:11]]}},
                            "partition must cover every domain point"),
    "policy-empty-labels": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": []}}]},
                            "allowed value sets must be non-empty"),
    "policy-list": ("policy", [1], "policy must be a JSON object"),
    "policy-constraint-kind": ("policy", {"graph": {"kind": "full"}, "constraints": {"kind": "foo"}},
                               "unknown constraint kind 'foo'"),
    "domain-no-values": ("domain", {"attributes": [{"name": "x", "values": []}]}, "attribute 'x' has no values"),
    "domain-duplicate-names": ("domain", {"attributes": [{"name": "x", "values": ["0"]}, {"name": "x", "values": ["1"]}]},
                               "duplicate attribute names"),
    "domain-number": ("domain", 3, "domain must be a JSON object"),
    "kmeans-bounds-reversed": ("kmeans --low 1 --high 0", POINTS, "bounds must satisfy lo <= hi"),
    "kmeans-low-infinite": ("kmeans --low=-inf", POINTS, "sum query has infinite sensitivity under this policy"),
    "kmeans-theta-full-graph": ("kmeans --theta 0.3", POINTS,
                                "theta must be a distance graph's non-negative threshold, got 0.3"),
    # a theta past |T| names the complete graph and releases the theta = |T|
    # tree (test_release_theta_past_the_size_is_the_complete_graph); only
    # theta 0 is still outside [1, |T|]
    "range-theta-past-size": ("release range --theta 0", None, "theta must be in [1, 12]"),
    "ledger-zero-charge": ("ledger", {"entries": [{"label": "a", "epsilon": 0}]}, "charges must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_refused_input_exits_with_its_message(case, tmp_path, capsys):
    command, content, message = REFUSED_INPUTS[case]
    bad = tmp_path / "input"
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    out = ["--out", str(tmp_path / "out.json")]
    release = ["--epsilon", "1.0", "--seed", "1", *out]
    argv = {
        "policy": ["policy", "validate", "--domain", DOMAIN, "--policy", str(bad)],
        "domain": ["policy", "validate", "--domain", str(bad), "--policy", POLICY_MARGINAL],
        "ledger": ["budget", "total", "--ledger", str(bad)],
        "kmeans --low 1 --high 0": ["kmeans", "--data", str(bad), "--k", "2", "--low", "1", "--high", "0", *release],
        "kmeans --low=-inf": ["kmeans", "--data", str(bad), "--k", "2", "--low=-inf", *release],
        "kmeans --theta 0.3": ["kmeans", "--data", str(bad), "--k", "2", "--theta", "0.3", *release],
        "release range --theta 0": ["release", "range", "--domain", DOMAIN, "--data", ROWS, "--theta", "0", *release],
    }[command]
    assert cli_main(argv) == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: {message}\n" and printed.out == ""
    assert not (tmp_path / "out.json").exists()


def _call(argv, out, capsys):
    """(exit status, stdout, stderr, bytes written to ``out`` or None); an
    exit that argparse raises gives its status."""
    if out.exists():
        out.unlink()
    try:
        rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code
    printed = capsys.readouterr()
    return rc, printed.out, printed.err, out.read_bytes() if out.exists() else None


def test_calls_in_one_process_share_no_state(tmp_path, capsys):
    # each call, made after one with other flags, gives what it gives when
    # the sequence runs in reverse order
    out = tmp_path / "out"
    points = tmp_path / "pts.csv"
    points.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n0.5,0.5\n")
    hist = ["release", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--data", ROWS]
    hist += ["--epsilon", "1.0", "--seed", "3", "--out", str(out)]
    sens = ["sensitivity", "--domain", DOMAIN, "--policy", POLICY_MARGINAL]
    km = ["kmeans", "--data", str(points), "--k", "2", "--epsilon", "1.0", "--seed", "5", "--out", str(out)]
    sequence = [
        hist + ["--format", "csv"],
        hist,
        sens + ["--require-exact"],
        sens,
        km + ["--iterations", "2"],
        km,
        sens + ["--k", "two"],
        ["--version"],
    ]
    shared = [_call(argv, out, capsys) for argv in sequence]
    assert shared == [_call(argv, out, capsys) for argv in reversed(sequence)][::-1]
    assert [rc for rc, *_ in shared] == [0, 0, 1, 0, 0, 0, 2, 0]
    assert shared[0][3].startswith(b"key,value\n") and shared[1][3].startswith(b"{\n")
    assert "upper bound" in shared[2][2] and shared[3][1] == "8 UpperBound SparseEngine\n"
    assert json.loads(shared[4][3])["flags"]["iterations"] == 2
    assert json.loads(shared[5][3])["flags"]["iterations"] == 10
    assert "invalid int value: 'two'" in shared[6][2] and shared[7][1] == cli.__version__ + "\n"


def test_main_exits_with_its_call_status():
    # main() is the console script's entry point: run as a process from the
    # copy of the package under test, it hands cli_main's status to the shell
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "blowfish.cli", *argv], capture_output=True, text=True, env=env,
                              timeout=60)
        return done.returncode, done.stdout, done.stderr

    assert run("--version") == (0, cli.__version__ + "\n", "")
    refused = run("sensitivity", "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--method", "oracle", "--n", "-1")
    assert refused == (1, "", "error: n must be >= 0, got -1\n")
    rc, out, err = run("budget", "total", "--ledger", LEDGER, "--bogus")
    assert (rc, out) == (2, "") and err.endswith("error: unrecognized arguments: --bogus\n")


def test_release_reads_file_bytes_as_stored(tmp_path):
    # a quoted CR in a label stays a CR, as in ingest_dataset on the same
    # bytes; CRLF ends give the records of plain newlines
    def cdf(domain_labels, rows: bytes, name):
        domain, data, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv", tmp_path / f"{name}.out.json"
        domain.write_text(json.dumps({"attributes": [{"name": "v", "values": domain_labels}]}))
        data.write_bytes(rows)
        argv = ["release", "cdf", "--domain", str(domain), "--data", str(data), "--theta", "1"]
        assert cli_main(argv + ["--epsilon", "1.0", "--seed", "7", "--out", str(out)]) == 0
        return json.loads(out.read_text())["values"]

    plain = cdf(["p", "x"], b"v\np\nx\nx\n", "plain")
    assert cdf(["a\rb", "x"], b'v\n"a\rb"\nx\nx\n', "cr") == plain
    assert cdf(["a\rb", "x"], b'v\r\n"a\rb"\r\nx\r\nx\r\n', "crlf") == plain
    assert cdf(["p", "x"], b"v\r\np\r\nx\r\nx\r\n", "plain_crlf") == plain
    domain = load_domain({"attributes": [{"name": "v", "values": ["a\rb", "x"]}]})
    assert ingest_dataset((tmp_path / "cr.csv").read_bytes().decode(), domain).ranks.tolist() == [0, 1, 1]


def _readme_commands() -> list[tuple[list[str], str | None]]:
    """(argv, the stdout its ``# ->`` line states, or None) for each
    ``blowfish`` line of README's "## Command line" block, continuations
    joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```bash\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("blowfish "):
            commands.append((shlex.split(line)[1:], None))
        elif line.startswith("# -> "):
            commands[-1] = (commands[-1][0], line.removeprefix("# -> ") + "\n")
    return commands


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # every command runs from a directory holding data/ and points.csv, exits
    # 0, and prints what the README states under it
    shutil.copytree(DATA, tmp_path / "data")
    points = np.random.default_rng(5).random((40, 2))
    (tmp_path / "points.csv").write_text("\n".join(f"{x:.4f},{y:.4f}" for x, y in points) + "\n")
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [argv[0] for argv, _ in commands] == [
        "policy", "sensitivity", "sensitivity", "release", "release", "release", "kmeans", "experiment", "budget",
    ]
    assert sum(expected is not None for _, expected in commands) == 2
    for argv, expected in commands:
        assert cli_main(argv) == 0, argv
        printed = capsys.readouterr()
        assert printed.err == "", argv
        if expected is not None:
            assert printed.out == expected, argv
