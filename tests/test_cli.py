import csv
import inspect
import json
import random
from pathlib import Path

import numpy as np
import pytest

from blowfish import errors
from blowfish.cli import _format_payload, cli_main
from blowfish.mechanisms import build_oh_release

DATA = Path(__file__).resolve().parent.parent / "data"

DOMAIN = str(DATA / "domain_abc.json")
POLICY_MARGINAL = str(DATA / "policy_marginal.json")
ROWS = str(DATA / "rows_abc.csv")
LEDGER = str(DATA / "ledger_example.json")


def test_policy_validate_ok(capsys):
    assert cli_main(["policy", "validate", "--domain", DOMAIN, "--policy", POLICY_MARGINAL]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "sparse" in out


def test_policy_validate_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["policy", "validate", "--domain", DOMAIN, "--policy", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_sensitivity_marginal_policy(capsys):
    assert (
        cli_main(["sensitivity", "--query", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL])
        == 0
    )
    assert capsys.readouterr().out.strip() == "8 UpperBound SparseEngine"


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


@pytest.mark.parametrize("method", ["sparse", "specialized"])
@pytest.mark.parametrize("query", ["cumulative", "cluster-size", "cluster-sum"])
def test_constrained_engines_refuse_other_queries(method, query, capsys):
    # both engines bound the complete histogram; the oracle gives 28 for
    # cluster-sum at n = 4, so printing the histogram's 8 would understate it
    argv = ["sensitivity", "--query", query, "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--method", method]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_oracle_at_zero_tuples(capsys):
    # the empty database is the only one, and it has no neighbor
    argv = ["sensitivity", "--domain", DOMAIN, "--policy", str(DATA / "policy_distance.json"), "--method", "oracle"]
    assert cli_main([*argv, "--n", "0"]) == 0
    assert capsys.readouterr().out == "0 Exact BruteForce\n"
    # the marginal policy's answers are not zero, so no empty database meets them
    argv[argv.index("--policy") + 1] = POLICY_MARGINAL
    assert cli_main([*argv, "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: constraint answers admit no database\n"


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
    assert payload["flags"]["seed"] == 7


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
    ],
    ids=["empty", "blank-lines", "short-row", "long-row", "word", "empty-cell"],
)
def test_kmeans_cli_bad_points_file_fails_cleanly(tmp_path, capsys, text, message):
    data = tmp_path / "pts.csv"
    data.write_text(text)
    out = tmp_path / "clusters.json"
    argv = ["kmeans", "--data", str(data), "--k", "2", "--epsilon", "1.0", "--seed", "5", "--out", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_kmeans_cli_points_parse_like_float(tmp_path):
    # blank and whitespace-only lines are skipped and cells may carry spaces;
    # every value is the float that float() gives for its cell
    cells = [["0.1", " 0.2 "], ["\t1e-1", "0.30000000000000004"], ["1", "0"], ["0.5", "4.9406564584124654e-324"]]
    padded = tmp_path / "padded.csv"
    lines = [",".join(row) for row in cells]
    padded.write_text("\n".join(lines[:2]) + "\n   \n\n" + "\n".join(lines[2:]))
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in cells))
    outs = []
    for data in (padded, plain):
        out = tmp_path / f"{data.stem}.json"
        argv = ["kmeans", "--data", str(data), "--k", "2", "--epsilon", "1.0", "--seed", "5", "--out", str(out)]
        assert cli_main(argv) == 0
        payload = json.loads(out.read_text())
        del payload["flags"]["data"], payload["flags"]["out"]
        outs.append(payload)
    assert outs[0] == outs[1]


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


def test_enumeration_budget_fails_cleanly(capsys):
    rc = cli_main(
        ["sensitivity", "--domain", DOMAIN, "--policy", POLICY_MARGINAL, "--method", "oracle", "--n", "12"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_edge_budget_fails_cleanly(tmp_path, capsys):
    # one 5000-rank cell has 25M candidate pairs, over the 20M budget
    domain = tmp_path / "wide.json"
    domain.write_text(json.dumps({"attributes": [{"name": "x", "values": [str(i) for i in range(5000)]}]}))
    policy = tmp_path / "partition.json"
    policy.write_text(
        json.dumps(
            {
                "graph": {"kind": "partition", "cells": [list(range(5000))]},
                "constraints": {"kind": "general", "queries": [{"where": {"x": ["0"]}, "answer": 1}]},
            }
        )
    )
    rc = cli_main(["policy", "validate", "--domain", str(domain), "--policy", str(policy)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_every_error_is_a_blowfish_error():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__]
    assert len(classes) >= 6
    for cls in classes:
        assert issubclass(cls, errors.BlowfishError)
    # each keeps its builtin base, so `except ValueError` callers still catch it
    assert issubclass(errors.BudgetExceededError, RuntimeError)
    assert issubclass(errors.InfiniteSensitivityError, ValueError)


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


SEEDED_RELEASES = {
    "histogram": ["release", "histogram", "--domain", DOMAIN, "--policy", POLICY_MARGINAL,
                  "--data", ROWS, "--epsilon", "1.0"],
    "cdf": ["release", "cdf", "--domain", DOMAIN, "--data", ROWS, "--theta", "2", "--epsilon", "1.0"],
    "range": ["release", "range", "--domain", DOMAIN, "--data", ROWS, "--theta", "4", "--fanout", "2",
              "--epsilon", "1.0"],
    "kmeans": ["kmeans", "--k", "2", "--iterations", "2", "--epsilon", "1.0"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_RELEASES))
def test_negative_seed_fails_cleanly(command, tmp_path, capsys):
    argv = list(SEEDED_RELEASES[command])
    if command == "kmeans":
        data = tmp_path / "pts.csv"
        data.write_text("0.1,0.2\n0.15,0.1\n0.8,0.9\n0.85,0.95\n")
        argv += ["--data", str(data)]
    out = tmp_path / "out.json"
    rc = cli_main(argv + ["--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_seed_above_64_bits_releases(tmp_path):
    out = tmp_path / "out.json"
    rc = cli_main(SEEDED_RELEASES["cdf"] + ["--seed", str(2**64 + 1), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 2**64 + 1
    assert len(payload["values"]) == 12


def _random_json(rng: random.Random, depth: int = 0):
    """A payload-like value: uniform columns of every kind the JSON writer
    encodes at once, and the irregular values it must hand to ``json.dumps``."""
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


def test_json_writer_matches_json_dumps(tmp_path):
    rng = random.Random(20131105)
    payloads = [{k: _random_json(rng) for k in rng.sample(["flags", "nodes", "%x", "\u00e9", "v"], 3)}
                for _ in range(2000)]
    counts = np.random.default_rng(0).integers(0, 50, size=300)
    payloads.append(build_oh_release(counts, 16, 4, 0.5, 0.5, 7).to_dict())
    out = tmp_path / "tree.json"
    assert cli_main(SEEDED_RELEASES["range"] + ["--seed", "3", "--out", str(out)]) == 0
    payloads.append(json.loads(out.read_text()))
    for payload in payloads:
        assert _format_payload(payload, "json") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


# valid JSON of the wrong shape, one file at a time; each names its field
DOMAIN_SPEC = json.loads(Path(DOMAIN).read_text())

MALFORMED_FILES = {
    "ledger-list": ("ledger", [1]),
    "ledger-entry-int": ("ledger", {"entries": [1]}),
    "ledger-groups-int": ("ledger", {"certified_groups": 3}),
    "policy-graph-int": ("policy", {"graph": 3}),
    "policy-partition-label": ("policy", {"graph": {"kind": "partition", "cells": [[0, "a"]]}}),
    "policy-constraints-str": ("policy", {"graph": {"kind": "full"}, "constraints": "x"}),
    "policy-queries-int": ("policy", {"graph": {"kind": "full"}, "constraints": {"kind": "general", "queries": 3}}),
    "policy-query-int": ("policy", {"graph": {"kind": "full"}, "constraints": [1]}),
    "policy-where-list": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": ["A1"]}]}),
    "domain-attribute-int": ("domain", {"attributes": [1]}),
    "domain-values-int": ("domain", {"attributes": [{"name": "x", "values": 3}]}),
    "experiment-list": ("experiment", [1]),
    "policy-selection-str": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": "a1"}, "answer": 1}]}),
    "policy-selection-int": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": 3}, "answer": 1}]}),
    "policy-range-int": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": {"range": 3}}}]}),
    "policy-answer-list": ("policy", {"graph": {"kind": "full"}, "constraints": [{"where": {"A1": ["a1"]}, "answer": [1]}]}),
    "policy-edges-int": ("policy", {"graph": {"kind": "explicit", "edges": [1]}}),
    "policy-theta-list": ("policy", {"graph": {"kind": "distance", "theta": [1]}}),
    "ledger-epsilon-list": ("ledger", {"entries": [{"label": "a", "epsilon": [1]}]}),
    "experiment-policies-int": ("experiment", {"experiment": "kmeans-ratio", "policies": [1]}),
    "experiment-data-int": ("experiment", {"experiment": "cdf-release", "data": 3}),
    "experiment-entries-int": ("experiment", {"experiment": "sensitivity-table", "domain": DOMAIN_SPEC, "entries": [1]}),
    "experiment-trials-zero": ("experiment", {"experiment": "cdf-release", "trials": 0}),
    "experiment-trials-negative": ("experiment", {"experiment": "range-mse", "trials": -1}),
    "experiment-queries-zero": ("experiment", {"experiment": "range-mse", "queries": 0}),
    "experiment-range-epsilons-int": ("experiment", {"experiment": "range-mse", "epsilons": 3}),
    "experiment-range-thetas-int": ("experiment", {"experiment": "range-mse", "thetas": 3}),
    "experiment-cdf-epsilons-int": ("experiment", {"experiment": "cdf-release", "epsilons": 3}),
    "experiment-cdf-thetas-int": ("experiment", {"experiment": "cdf-release", "thetas": 3}),
    "experiment-epsilons-nested": ("experiment", {"experiment": "cdf-release", "epsilons": [[1]]}),
    "experiment-fanout-list": ("experiment", {"experiment": "range-mse", "fanout": [2]}),
    "experiment-seed-list": ("experiment", {"experiment": "cdf-release", "seed": [1]}),
    "experiment-kmeans-theta-list": ("experiment", {"experiment": "kmeans-ratio", "policies": [{"kind": "distance", "theta": [1]}]}),
    "experiment-data-n-list": ("experiment", {"experiment": "cdf-release", "data": {"n": [1]}}),
    "experiment-domain-size-zero": ("experiment", {"experiment": "cdf-release", "domain_size": 0}),
    "experiment-domain-missing": ("experiment", {"experiment": "sensitivity-table", "entries": []}),
    "experiment-entry-policy-missing": (
        "experiment",
        {"experiment": "sensitivity-table", "domain": DOMAIN_SPEC, "entries": [{"query": "histogram"}]},
    ),
    "experiment-kmeans-theta-nan": (
        "experiment", {"experiment": "kmeans-ratio", "policies": [{"kind": "distance", "theta": float("nan")}]}
    ),
    "experiment-zipf-s-nan": ("experiment", {"experiment": "cdf-release", "data": {"zipf_s": float("nan")}}),
    "experiment-entries-unknown-query": (
        "experiment",
        {"experiment": "sensitivity-table", "domain": DOMAIN_SPEC, "entries": [{"query": "nope", "policy": {}}]},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_fails_cleanly(case, tmp_path, capsys):
    kind, content = MALFORMED_FILES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    argv = {
        "ledger": ["budget", "total", "--ledger", str(bad)],
        "policy": ["policy", "validate", "--domain", DOMAIN, "--policy", str(bad)],
        "domain": ["policy", "validate", "--domain", str(bad), "--policy", POLICY_MARGINAL],
        "experiment": ["experiment", "run", "--config", str(bad), "--out", str(tmp_path / "out.csv")],
    }[kind]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()
