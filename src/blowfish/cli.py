"""Command-line surface.

Subcommands: ``policy validate``, ``sensitivity``, ``release histogram``,
``release cdf``, ``release range``, ``kmeans``, ``experiment run``,
``budget total``.  A release is reproducible from its flags and its seed,
which is a secret key: every flag but the seed is echoed into the output
file, which is written atomically (no partial output on error).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .domain import histogram, ingest_dataset, load_domain
from .errors import BlowfishError, read_json
from .experiments import run_experiment
from .kmeans import ClusteringPolicy, KmeansConfig, kmeans_private
from .mechanisms import (
    BudgetLedger,
    PrivacyParams,
    Table,
    build_oh_release,
    compose_budgets,
    laplace_mechanism,
    optimal_budget_split,
    ordered_mechanism,
    plain,
)
from .policy import ConstraintKind, ConstraintSet, Policy, SecretGraph, load_policy
from .sensitivity import (
    QUERY_KINDS,
    CumulativeQuery,
    Exactness,
    HistogramQuery,
    SensitivityResult,
    is_sparse,
    policy_sensitivity,
)

def _read(path: str) -> str:
    """A file's text as stored: ``newline=""`` keeps every CR, so the command
    line reads the same text as ``ingest_dataset`` given the file's bytes."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it, so that
    an error leaves neither partial output nor the temporary file.  An OS
    error names ``path`` as given, not the temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _load_policy_args(args) -> Policy:
    domain = load_domain(_read(args.domain))
    return load_policy(_read(args.policy), domain)


def _resolve_sensitivity(query, policy: Policy, args) -> SensitivityResult:
    res = policy_sensitivity(query, policy, getattr(args, "method", "auto"), getattr(args, "n", 2))
    if getattr(args, "require_exact", False) and res.exactness is not Exactness.EXACT:
        raise ValueError(
            f"sensitivity is an upper bound ({res.value} via {res.method.value}); "
            "drop --require-exact to calibrate noise to it"
        )
    return res


def _cmd_policy_validate(args) -> int:
    policy = _load_policy_args(args)
    n_q = len(policy.constraints.queries)
    sparse_note = ""
    if policy.constraints.kind is ConstraintKind.GENERAL:
        sparse_note = ", sparse" if is_sparse(policy.constraints, policy.graph) else ", non-sparse"
    print(f"ok: domain size {policy.domain.size}, {policy.describe()}, {n_q} queries{sparse_note}")
    return 0


def _cmd_sensitivity(args) -> int:
    policy = _load_policy_args(args)
    query = QUERY_KINDS[args.query](args.k)
    res = _resolve_sensitivity(query, policy, args)
    value = int(res.value) if float(res.value).is_integer() else res.value
    print(f"{value} {res.exactness.value} {res.method.value}")
    return 0


def _cmd_release(args) -> int:
    """Every ``release`` subcommand: load, ingest, calibrate, then the
    subcommand's mechanism.  ``histogram`` reads its policy file; ``cdf`` and
    ``range`` protect distance-theta secrets under cardinality constraints,
    so a protected change moves a tuple at most ``res.value`` rank positions,
    the cumulative query's sensitivity: the largest rank gap of an L1 move of
    at most theta, which is theta on one attribute below |T|, and |T| - 1
    once theta makes the graph complete."""
    domain = load_domain(_read(args.domain))
    if args.subcommand == "histogram":
        policy, query = load_policy(_read(args.policy), domain), HistogramQuery()
    else:
        policy = Policy(domain, SecretGraph.distance(domain, args.theta), ConstraintSet.cardinality_only())
        query = CumulativeQuery()
    counts = histogram(ingest_dataset(_read(args.data), domain))
    _check_answers(policy, counts)
    res = _resolve_sensitivity(query, policy, args)
    return _write_release(args, args.release(args, policy, counts, res))


def _check_answers(policy: Policy, counts) -> None:
    """Refuse data that contradicts a constraint's answer: the sensitivity
    covers only the databases that meet every answer."""
    index, match, answers = policy.answered()
    found = match @ counts
    for i, count, answer in zip(index.tolist(), found.tolist(), answers.tolist()):
        if count != answer:
            raise ValueError(
                f"data contradicts the policy: constraint query {i} matches {count} rows, its answer is {answer}"
            )


def _release_histogram(args, policy: Policy, counts, res: SensitivityResult) -> dict:
    values = laplace_mechanism(counts, res.value, PrivacyParams(epsilon=args.epsilon, seed=args.seed))
    return {
        "policy": policy.describe(),
        "mechanism": "laplace-histogram",
        "epsilon": args.epsilon,
        "sensitivity": res.value,
        "exactness": res.exactness.value,
        "values": values,
    }


def _release_cdf(args, policy: Policy, counts, res: SensitivityResult) -> dict:
    released = ordered_mechanism(counts, int(res.value) or args.theta, PrivacyParams(args.epsilon, args.seed))
    return {**released.payload(), "policy": policy.describe()}


def _release_range(args, policy: Policy, counts, res: SensitivityResult) -> dict:
    pp = PrivacyParams(args.epsilon, args.seed)
    # the block size: theta = |T|, the hierarchical baseline, stands for
    # every theta that makes the graph complete
    theta = min(max(args.theta, int(res.value)), policy.domain.size)
    split = optimal_budget_split(policy.domain.size, theta, args.fanout, pp.epsilon)
    tree = build_oh_release(counts, theta, args.fanout, split.eps_s, split.eps_h, pp.seed)
    return {**tree.payload(), "epsilon": args.epsilon, "policy": policy.describe()}


def _finite(value) -> bool:
    """Whether no float in a payload value, its arrays, ``Table`` columns and
    nested lists included, is nan or infinite."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        # a column of labels, such as a tree's node ids, holds no number
        return {str}.issuperset(map(type, value)) or all(map(_finite, value))
    return not isinstance(value, (float, np.ndarray)) or bool(np.isfinite(value).all())


def _write_release(args, body: dict) -> int:
    """Write the tool version, every flag but the seed (a secret key) and
    then ``body`` to ``--out``; JSON has no nan or infinity, so a flag or a
    body field holding one writes nothing."""
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "release", "seed") and v is not None}
    for kind, fields in (("flag", flags), ("field", body)):
        for key, value in fields.items():
            if not _finite(value):
                raise ValueError(f"release {kind} {key!r} holds nan or an infinity; nothing written")
    payload = {"tool": f"blowfish {__version__}", "flags": flags, **body}
    _write_atomic(args.out, _format_payload(payload, args.format))
    return 0


# ASCII spaces numpy's reader strips around a cell where str.splitlines
# breaks the line (\v, \f, \x1c-\x1e) or float() refuses the cell (\x1f);
# non-ASCII text is kept from the reader for the same reason (\x85, \u2028)
_SPACES_ONLY_NUMPY_STRIPS = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _read_points(path: str) -> np.ndarray:
    """(n, d) floats of a headerless numeric CSV.

    Each cell is read as ``float()`` reads it, lines are split as
    ``str.splitlines`` splits them, and blank or whitespace-only lines are
    skipped.  Plain ASCII text goes through numpy's C reader in one pass,
    which gives the same floats; text it refuses goes to ``_parse_cells``,
    which alone words every error.
    """
    text = _read(path)
    if (
        text.isascii()
        and text
        and not text.isspace()  # numpy warns on text that holds no data
        and not any(c in text for c in _SPACES_ONLY_NUMPY_STRIPS)
    ):
        try:
            # no comment character: a '#' row is an error, not skipped
            return np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    return _parse_cells(path, text)


def _parse_cells(path: str, text: str) -> np.ndarray:
    """``_read_points``' parse of ``text`` line by line and cell by cell.

    A ragged row or a non-numeric cell is an error naming its 1-based row
    (blank lines not counted, as in ``kmeans_private``'s bounds check).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no data points")
    widths = [line.count(",") + 1 for line in lines]
    width = widths[0]
    if widths.count(width) != len(widths):
        row = next(i for i, w in enumerate(widths) if w != width)
        raise ValueError(f"{path}: row {row + 1} has {widths[row]} cells, expected {width}")
    cells = ",".join(lines).split(",")
    try:
        return np.array(cells, dtype=float).reshape(len(lines), width)
    except ValueError:
        for j, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {j // width + 1}: {cell.strip()!r} is not a number") from None
        raise


def _cmd_kmeans(args) -> int:
    pts = _read_points(args.data)
    bounds = tuple((args.low, args.high) for _ in range(pts.shape[1]))
    policy = ClusteringPolicy(bounds=bounds, kind=args.graph, theta=args.theta)
    cfg = KmeansConfig(k=args.k, iterations=args.iterations)
    result = kmeans_private(pts, cfg, policy, PrivacyParams(args.epsilon, args.seed))
    return _write_release(args, {**result.to_dict(), "mechanism": "private-kmeans"})


def _cmd_experiment_run(args) -> int:
    report = run_experiment(_read(args.config))
    _write_atomic(args.out, report.to_csv_string())
    return 0


def _cmd_budget_total(args) -> int:
    ledger = BudgetLedger.from_dict(read_json(_read(args.ledger), "ledger"))
    print(format(compose_budgets(ledger), ".12g"))
    return 0


def _column(col) -> list | None:
    """Each entry of a str list or a 1-D int64 or float64 array as JSON text,
    or None for a column that ``json.dumps`` must write: another dtype, or a
    nan or an infinity.  A float column in which two adjacent entries repeat,
    such as a tree's scales or pooled cdf values, is formatted once per
    distinct bit pattern, which keeps -0.0 apart from 0.0; any other float
    column is formatted entry by entry, as deduping it costs more than it
    saves."""
    if type(col) is list:
        return list(map(encode_basestring_ascii, col))
    if col.dtype == np.int64:
        return list(map(int.__repr__, col.tolist()))
    if col.dtype != np.float64 or not np.isfinite(col).all():
        return None
    bits = np.ascontiguousarray(col).view(np.uint64)
    if not (bits[1:] == bits[:-1]).any():
        return list(map(float.__repr__, col.tolist()))
    bits, inverse = np.unique(bits, return_inverse=True)
    text = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return list(map(text.__getitem__, inverse.tolist()))


def _rows(value, pad: str):
    """``(template, columns)`` with row i of ``value`` encoded as ``template %
    row i`` of the columns, or None when it has no rows or a column that
    ``_column`` refuses; ``pad`` indents the line a row starts on.

    A 1-D array or a str list is one column, a 2-D array's rows are lists of
    its columns, and a ``Table``'s rows are objects of its fields, keys sorted.
    """
    inner = pad + "  "
    if isinstance(value, Table):
        keys = sorted(value)
        parts = [_rows(value[k], inner) for k in keys]
        if not keys or None in parts:
            return None
        labels = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]
        body = ",\n".join(inner + label + template for label, (template, _) in zip(labels, parts))
        return f"{{\n{body}\n{pad}}}", [col for _, cols in parts for col in cols]
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.shape[1]:
        cols = [_column(value[:, j]) for j in range(value.shape[1])]
        template = "[\n" + ",\n".join([inner + "%s"] * len(cols)) + f"\n{pad}]"
    elif type(value) is list or isinstance(value, np.ndarray) and value.ndim == 1:
        template, cols = "%s", [_column(value)]
    else:
        return None
    return None if None in cols or not cols[0] else (template, cols)


def _to_json(value, pad: str = "") -> str:
    """``json.dumps(plain(value), indent=2, sort_keys=True)`` for a value that
    starts on a line indented by ``pad``.  Arrays and ``Table``s are written a
    column at a time; other lists, and columns holding nan or inf, go through
    ``json.dumps``."""
    inner = pad + "  "
    if type(value) is dict and value and all(type(k) is str for k in value):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_to_json(value[k], inner)}" for k in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (np.ndarray, Table)):
        shape = _rows(value, inner)
        if shape is not None:
            template, cols = shape
            rows = cols[0] if template == "%s" else [template % row for row in zip(*cols)]
            return f"[\n{inner}" + f",\n{inner}".join(rows) + f"\n{pad}]"
        value = plain(value)
    # scalars, lists, empty containers and non-finite columns; a JSON text
    # holds no raw newline inside a string, so re-indenting its lines is exact
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _format_payload(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k, v in plain(payload).items():
            writer.writerow([k, json.dumps(v) if isinstance(v, (list, dict)) else v])
        return out.getvalue()
    return _to_json(payload) + "\n"


# flags several subcommands share, each declared once
def _domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", required=True)


def _policy_flags(p: argparse.ArgumentParser) -> None:
    _domain_flags(p)
    p.add_argument("--policy", required=True)


def _exact_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--require-exact", action="store_true")


def _rows_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)


def _noise_flags(p: argparse.ArgumentParser) -> None:
    """A seeded release written to --out."""
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, help="secret key of the noise; default: 128 random bits from the OS")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _policy_validate_command(p: argparse.ArgumentParser) -> None:
    _policy_flags(p)
    p.set_defaults(func=_cmd_policy_validate)


def _sensitivity_command(p: argparse.ArgumentParser) -> None:
    _policy_flags(p)
    _exact_flag(p)
    p.add_argument("--query", choices=sorted(QUERY_KINDS), default="histogram")
    p.add_argument("--method", choices=["auto", "closed", "sparse", "specialized", "oracle"], default="auto")
    p.add_argument("--k", type=int, default=2, help="cluster count for cluster queries")
    p.add_argument("--n", type=int, default=2, help="database size for the oracle method")
    p.set_defaults(func=_cmd_sensitivity)


def _release_histogram_command(p: argparse.ArgumentParser) -> None:
    _policy_flags(p)
    _rows_flag(p)
    _noise_flags(p)
    _exact_flag(p)
    p.add_argument("--method", choices=["auto", "closed", "sparse", "specialized"], default="auto")
    p.set_defaults(func=_cmd_release, release=_release_histogram)


def _release_cdf_command(p: argparse.ArgumentParser) -> None:
    _domain_flags(p)
    _rows_flag(p)
    _noise_flags(p)
    p.add_argument("--theta", type=int, default=1)
    p.set_defaults(func=_cmd_release, release=_release_cdf)


def _release_range_command(p: argparse.ArgumentParser) -> None:
    _domain_flags(p)
    _rows_flag(p)
    _noise_flags(p)
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--fanout", type=int, default=16)
    p.set_defaults(func=_cmd_release, release=_release_range)


def _kmeans_command(p: argparse.ArgumentParser) -> None:
    _noise_flags(p)
    p.add_argument("--data", required=True, help="headerless numeric CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--graph", choices=["full", "distance", "attribute"], default="full")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.set_defaults(func=_cmd_kmeans)


def _experiment_run_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment_run)


def _budget_total_command(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=_cmd_budget_total)


# each command's help and either the function that adds its flags or the
# table of its subcommands
_COMMANDS = {
    "policy": ("policy file tools", {"validate": ("check a policy file", _policy_validate_command)}),
    "sensitivity": ("policy-specific sensitivity", _sensitivity_command),
    "release": (
        "noisy releases",
        {
            "histogram": ("Laplace histogram release", _release_histogram_command),
            "cdf": ("ordered-mechanism cumulative release", _release_cdf_command),
            "range": ("ordered-hierarchical tree release", _release_range_command),
        },
    ),
    "kmeans": ("private k-means over numeric CSV data", _kmeans_command),
    "experiment": ("seeded evaluation harness", {"run": ("run a config and write CSV", _experiment_run_command)}),
    "budget": ("privacy budget accounting", {"total": ("total a ledger file", _budget_total_command)}),
}


def _add_commands(parser: argparse.ArgumentParser, commands: dict, dest: str, argv) -> None:
    """Give ``parser`` the subcommands in ``commands``.  When ``argv``, the
    arguments left at this level, starts with one of their names, only that
    one is built, and its metavar is the text argparse formats from every
    name, so usage lines do not change.  Otherwise all are built with no
    metavar, for the help and the errors that list them or name their
    argument.  ``prog=parser.prog`` is argparse's own default here, which it
    would otherwise derive by formatting a usage line."""
    name = argv[0] if argv else None
    metavar = rest = None
    if name in commands:
        metavar, rest = "{" + ",".join(commands) + "}", argv[1:]
        commands = {name: commands[name]}
    sub = parser.add_subparsers(dest=dest, required=True, prog=parser.prog, metavar=metavar)
    for name, (summary, add) in commands.items():
        p = sub.add_parser(name, help=summary)
        if isinstance(add, dict):
            _add_commands(p, add, "subcommand", rest)
        else:
            add(p)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the whole command line or, given the arguments of one
    call, of the path that they name.  A first argument that names a command
    gets that command's parser alone, and a second that names one of its
    subcommands gets that subcommand's alone: ``release range`` builds 3 of
    the 13 parsers.  argparse takes the first positional argument as the
    command, by its exact name, so the call parses, fails and prints help as
    with the whole parser.  Any other first argument (``-h``, ``--version``,
    ``--``, an unknown name or none) gets the whole parser, whose help and
    errors list every command."""
    parser = argparse.ArgumentParser(prog="blowfish", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    _add_commands(parser, _COMMANDS, "command", argv)
    return parser


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    if getattr(args, "seed", 0) is None:  # a release run without --seed
        # secrets.randbits(128), without the 5 ms import of secrets
        args.seed = int.from_bytes(os.urandom(16), "big")
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, KeyError, BlowfishError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's allocation failures included
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
