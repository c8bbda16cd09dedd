#!/usr/bin/env python3
"""Outside-in benchmark of the ``blowfish`` command line.

    python3 perfbench/run.py --workload release --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark writes the workload's inputs,
generated from ``--seed``, into a scratch directory under ``.perfbench/``.
It then calls ``blowfish.cli.cli_main(argv)`` in-process, in a closed loop
with one client: each call starts when the previous one returns.  One
untimed warm-up pass over the workload's calls comes first, then passes
repeat until ``--seconds`` have elapsed.  Every output is checked.  Each
call's wall time is rescaled to a reference host speed, probed while the call
runs (see ``hostspeed.py``), because the host's own speed shifts by more than
the program's run-to-run variation.

With ``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json.
With ``--trace 1`` it follows every timed call with a replay of the same work
as calls to the layers' public functions, one span per call, and prints the
per-layer metrics.  A replay whose values differ from what the call wrote or
printed counts as a failure.  The last line of standard output is one JSON
object; a record of the run, with input hashes and spans, goes to
``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAYERS = ("domain", "policy", "sensitivity", "mechanisms", "kmeans", "experiments", "cli")
# spans whose calls draw one noise value per node or cell
NOISE_SPANS = (
    "mechanisms.laplace_mechanism",
    "mechanisms.ordered_mechanism",
    "mechanisms.build_oh_release",
    "mechanisms.hierarchical_release",
)


@dataclass
class Call:
    round: int
    op: object
    seconds: float  # wall seconds rescaled to the reference speed; raw when traced
    wall: float  # wall seconds, less the probe's own time
    speed: float  # the factor that rescaled ``wall`` to ``seconds``
    output_bytes: int
    op_id: int | None = None  # replay operation id in the tracer


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("release", "experiment", "constrained-sensitivity"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> tuple[float, float]:
    """Wall seconds a fresh interpreter takes to run ``import blowfish.cli``,
    timed inside that interpreter, so process creation is left out, and the
    speed factor probed in that interpreter right after the import."""
    code = (
        "import time; t = time.perf_counter(); import blowfish.cli; t = time.perf_counter() - t; "
        "import hostspeed; print(t, hostspeed.speed_factor([hostspeed.probe_seconds() for _ in range(60)]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT / "perfbench")))),
        cwd=ROOT,
        check=True,
        timeout=60,
        capture_output=True,
        text=True,
    )
    seconds, speed = (float(v) for v in done.stdout.split())
    return seconds, speed


def call(cli_main, op, probe) -> tuple[float, float, str, str | None]:
    """One CLI call: (wall seconds, speed factor, output text, error or None).
    With a probe, its own time is left out of the wall seconds."""
    if op.out is not None and op.out.exists():
        op.out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), probe or contextlib.nullcontext():
            rc = cli_main(op.argv)
    except SystemExit as exc:  # argparse rejects argv this way
        rc = exc.code
    except Exception as exc:  # a traceback the CLI let escape is a failed call
        rc, error = None, f"raised {exc!r}"
    seconds, speed = time.perf_counter() - t0, 1.0
    if probe is not None:
        seconds, speed = seconds - probe.spent, probe.factor()
    if error is None and rc != 0:
        error = f"exit status {rc}: {stderr.getvalue().strip()[:300]}"
    text = stdout.getvalue()
    if error is None and op.out is not None:
        text = op.out.read_text(encoding="utf-8") if op.out.exists() else ""
    return seconds, speed, text, error


def verify(op, text: str, reference: dict[str, str]) -> str | None:
    """Check the first output of each call in full; later ones must repeat it."""
    import checks

    ref = reference.get(op.name)
    if ref is not None:
        return None if text == ref else "output differs from the first call with the same inputs"
    try:
        op.check(text)
    except checks.CheckFailed as exc:
        return f"check failed: {exc}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    reference[op.name] = text
    return None


def replay(op, text: str, tracer) -> tuple[str | None, int]:
    with tracer.operation(op.name) as op_id:
        try:
            value = op.replay(tracer)
        except Exception as exc:  # reported as a failed operation
            return f"replay raised {exc!r}", op_id
    if value != op.released(text):
        return "replayed values differ from what the CLI call released", op_id
    return None, op_id


def run_loop(cli_main, ops, seconds: float, tracer, after_pass, new_probe):
    calls: list[Call] = []
    failures: list[str] = []
    reference: dict[str, str] = {}
    rnd, start = 0, None
    while start is None or time.perf_counter() - start < seconds:
        if rnd == 1:
            start = time.perf_counter()
        for op in ops:
            wall, speed, text, error = call(cli_main, op, new_probe())
            if error is None:
                error = verify(op, text, reference)
            op_id = None
            if error is None and tracer is not None and rnd > 0:
                error, op_id = replay(op, text, tracer)
            if error is not None:
                failures.append(f"pass {rnd}, {op.name}: {error}")
            calls.append(Call(rnd, op, wall * speed, wall, speed, len(text.encode()), op_id))
        after_pass()
        rnd += 1
    return calls, failures, reference


def tail(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (None when there are too few samples)."""
    out = {"median": statistics.median(samples), "samples": len(samples), "percentile": None, "value": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - p / 100) >= 10:
            qs = statistics.quantiles(samples, n=1000, method="inclusive")
            out["percentile"], out["value"] = p, qs[round(p * 10) - 1]
            break
    return out


def end_to_end(calls: list[Call], ops) -> tuple[dict, dict]:
    """Per-call timing summaries and the gated end-to-end values."""
    per_op = {}
    for op in ops:
        per_op[op.name] = tail([c.seconds for c in calls if c.round > 0 and c.op is op])
    return per_op, {"round_s": sum(s["median"] for s in per_op.values())}


def per_layer(calls: list[Call], tracer, secret_pairs: int) -> tuple[dict, dict]:
    """Median over passes of each per-layer quantity, and each call's layer shares."""
    by_op: dict[int, list] = {}
    for s in tracer.spans:
        if s.parent is not None:
            by_op.setdefault(s.op, []).append(s)
    counts_by_op: dict[int, dict[str, int]] = {}
    for op_id, name, n in tracer.counts:
        d = counts_by_op.setdefault(op_id, {})
        d[name] = d.get(name, 0) + n
    roots = {s.op: s for s in tracer.spans if s.parent is None}

    rounds: dict[int, dict[str, float]] = {}
    shares: dict[str, list[dict[str, float]]] = {}
    for c in calls:
        if c.op_id is None:
            continue
        m = rounds.setdefault(c.round, {})
        spans = by_op.get(c.op_id, [])
        layer_time = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            m[s.name + "_s"] = m.get(s.name + "_s", 0.0) + s.seconds
            if not s.rerun:
                layer_time[s.name.split(".")[0]] += s.seconds
        remainder = c.seconds - sum(layer_time.values())
        m[c.op.remainder + "_s"] = m.get(c.op.remainder + "_s", 0.0) + remainder
        layer_time[c.op.remainder.split(".")[0]] += remainder
        for name, n in counts_by_op.get(c.op_id, {}).items():
            m[name] = m.get(name, 0) + n
        m["untraced_s"] = m.get("untraced_s", 0.0) + c.seconds
        m["replay_s"] = m.get("replay_s", 0.0) + roots[c.op_id].seconds - sum(s.seconds for s in spans if s.rerun)
        m["cli.output_bytes"] = m.get("cli.output_bytes", 0) + c.output_bytes
        for layer, t in layer_time.items():
            m[layer + ".time_s"] = m.get(layer + ".time_s", 0.0) + t
        shares.setdefault(c.op.name, []).append({k: v / c.seconds for k, v in layer_time.items()})

    values: dict[str, list[float]] = {}
    for m in rounds.values():
        ingest = m.get("domain.ingest_dataset_s", 0.0)
        m["domain.rows_per_s"] = m.get("domain.rows", 0) / ingest if ingest else 0.0
        noise_time = sum(m.get(n + "_s", 0.0) for n in NOISE_SPANS)
        m["mechanisms.noise_draws_per_s"] = m.get("mechanisms.noise_draws", 0) / noise_time if noise_time else 0.0
        m["trace.overhead_ratio"] = m["replay_s"] / m["untraced_s"]
        for layer in LAYERS:
            m[layer + ".share"] = m[layer + ".time_s"] / m["untraced_s"]
        m["policy.secret_pairs"] = secret_pairs
        for k, v in m.items():
            values.setdefault(k, []).append(v)
    medians = {k: statistics.median(v) for k, v in values.items()}
    op_shares = {
        name: {layer: statistics.median(s[layer] for s in rows) for layer in LAYERS}
        for name, rows in shares.items()
    }
    return medians, op_shares


def count_secret_pairs(policies) -> int:
    """Ordered secret pairs of each policy, counted outside any span."""
    from blowfish.domain import load_domain
    from blowfish.policy import iter_graph_edges, load_policy

    total = 0
    for domain_path, policy_path in policies:
        domain = load_domain(domain_path.read_text(encoding="utf-8"))
        policy = load_policy(policy_path.read_text(encoding="utf-8"), domain)
        total += sum(1 for _ in iter_graph_edges(policy.graph))
    return total


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe_inputs(directory: Path) -> list[dict]:
    return [
        {"file": p.name, "bytes": p.stat().st_size, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
        for p in sorted(directory.iterdir())
        if p.is_file()
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blowfish" / "cli.py").is_file():
        print(f"perfbench: the program source {SRC / 'blowfish'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # one BLAS/OpenMP thread, so timings do not depend on the machine's core count
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy

    from blowfish.cli import cli_main

    import hostspeed
    import workloads
    from spans import Tracer

    setup: list[tuple[float, float]] = []  # (wall seconds, speed factor)

    def after_pass() -> None:
        # one set-up sample per pass spreads them over the whole run, like the calls
        if not args.trace:
            setup.append(import_seconds())

    if not args.trace:
        import_seconds()  # compiles the bytecode cache that every later import reads

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, scratch)
        inputs = describe_inputs(scratch)
        secret_pairs = count_secret_pairs(workload.policies) if args.trace else 0
        tracer = Tracer() if args.trace else None
        # untraced calls are probed for the host's speed; traced ones are not
        new_probe = (lambda: None) if args.trace else hostspeed.Probe
        os.chdir(scratch)  # argv paths are relative to the scratch directory
        try:
            calls, failures, outputs = run_loop(cli_main, workload.ops, args.seconds, tracer, after_pass, new_probe)
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(scratch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    per_op, computed = end_to_end(calls, workload.ops)
    computed["setup_s"] = statistics.median(t * f for t, f in setup) if setup else None
    computed["peak_rss_mb"] = peak_rss_mb
    attempted, failed = len(calls), len(failures)
    op_shares = {}
    if args.trace:
        computed, op_shares = per_layer(calls, tracer, secret_pairs)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}

    passes = max(c.round for c in calls)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{passes} timed passes after 1 warm-up, {attempted} calls")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for f in inputs:
        print(f"input {f['file']}: {f['bytes']} bytes sha256={f['sha256']}")
    if not args.trace:
        print("times are wall seconds rescaled to the reference host speed (perfbench/hostspeed.py)")
        for op in workload.ops:
            s = per_op[op.name]
            wall = statistics.median(c.wall for c in calls if c.round > 0 and c.op is op)
            spread = "no percentile has 10 samples beyond it" if s["percentile"] is None else \
                f"p{s['percentile']:g} {s['value']:.6f} s"
            if op.trials:
                print(f"{op.name} = {op.trials / s['median']:.6f} trials/s "
                      f"({op.trials} trials, median call {s['median']:.6f} s of {s['samples']}; {spread}; "
                      f"median wall time {wall:.6f} s)")
            else:
                print(f"{op.name} = {s['median']:.6f} s (median of {s['samples']}; {spread}; "
                      f"median wall time {wall:.6f} s)")
        print(f"setup_s samples (wall s x speed factor): {' '.join(f'{t:.4f}x{f:.3f}' for t, f in setup)}")
    else:
        for name, share in op_shares.items():
            top = sorted(share.items(), key=lambda kv: -kv[1])
            print(f"layer shares of {name}: " + ", ".join(f"{k} {v:.3f}" for k, v in top if abs(v) >= 0.005))
    print(f"failed_ratio = {failed / attempted:.6f} ratio ({failed} of {attempted} calls)")
    for f in failures[:20]:
        print(f"failure: {f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "inputs": inputs,
        "outputs": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()},
        "calls": [{"pass": c.round, "op": c.op.name, "seconds": c.seconds, "wall": c.wall, "speed": c.speed} for c in calls],
        "per_call": per_op,
        "setup_s": [{"wall": t, "speed": f} for t, f in setup],
        "failures": failures,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "layer_shares": op_shares,
        "spans": tracer.to_list() if tracer else [],
    }
    runs = WORK / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
