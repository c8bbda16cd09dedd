"""Tests of the benchmark's own output checks, inputs and speed probe.

    python3 -m pytest perfbench

Each noise check passes on the output of a real CLI call and fails on the
same release with its noise scale halved, so a speed-up that drops noise
cannot pass the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from blowfish.cli import cli_main  # noqa: E402
from blowfish.domain import load_domain  # noqa: E402
from blowfish.policy import load_policy  # noqa: E402
from blowfish.sensitivity import HistogramQuery, policy_sensitivity  # noqa: E402

EPS = workloads.RELEASE_EPSILON


def _run(argv: list[str], directory: Path) -> str:
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(argv) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    """The release workload's inputs and each call's output, by metric name."""
    directory = tmp_path_factory.mktemp("release")
    workload = workloads.build("release", 5, directory)
    outputs = {}
    for op in workload.ops:
        _run(op.argv, directory)
        outputs[op.name] = op.out.read_text(encoding="utf-8")
    counts = workload.ops[0].check.keywords["counts"]  # true counts of the generated rows
    return workload, outputs, counts, directory


def _halve(values, truth) -> list[float]:
    """The same release with every noise value halved."""
    values, truth = np.asarray(values, dtype=float), np.asarray(truth, dtype=float)
    return [float(v) for v in truth + (values - truth) / 2]


def _op(workload, name):
    return next(op for op in workload.ops if op.name == name)


def test_histogram_check_rejects_halved_noise(release):
    workload, outputs, counts, _ = release
    op = _op(workload, "release_histogram_s")
    op.check(outputs[op.name])
    payload = json.loads(outputs[op.name])
    payload["values"] = _halve(payload["values"], counts)
    with pytest.raises(checks.CheckFailed, match="squared error"):
        op.check(json.dumps(payload))


def test_cdf_check_rejects_halved_noise(release):
    workload, outputs, counts, _ = release
    op = _op(workload, "release_cdf_s")
    op.check(outputs[op.name])
    payload = json.loads(outputs[op.name])
    payload["values"] = _halve(payload["values"], np.cumsum(counts))
    with pytest.raises(checks.CheckFailed, match="squared error"):
        op.check(json.dumps(payload))


def test_range_check_rejects_halved_noise(release):
    workload, outputs, counts, _ = release
    op = _op(workload, "release_range_s")
    op.check(outputs[op.name])
    prefix = np.concatenate([[0], np.cumsum(counts)])
    quiet, overspent = json.loads(outputs[op.name]), json.loads(outputs[op.name])
    for q, o in zip(quiet["nodes"], overspent["nodes"]):
        lo, hi = q["interval"]
        (q["value"],) = _halve([q["value"]], [prefix[hi] - prefix[lo - 1]])
        o["value"], o["scale"] = q["value"], o["scale"] / 2
    with pytest.raises(checks.CheckFailed, match="mean squared error/scale"):
        op.check(json.dumps(quiet))
    # halved noise that also states halved scales spends twice the budget
    with pytest.raises(checks.CheckFailed, match="budget"):
        op.check(json.dumps(overspent))


def test_kmeans_check_rejects_halved_noise(release):
    workload, outputs, _, directory = release
    op = _op(workload, "kmeans_release_s")
    op.check(outputs[op.name])
    # twice the epsilon is half of every noise scale, and the ledger shows it
    argv = list(op.argv)
    argv[argv.index("--epsilon") + 1] = str(2 * EPS)
    _run(argv, directory)
    with pytest.raises(checks.CheckFailed, match="epsilon spent"):
        op.check(op.out.read_text(encoding="utf-8"))


def test_experiment_check_needs_every_row_finite():
    text = "experiment,mechanism,policy,epsilon,theta,fanout,metric,mean,q1,q3\n"
    row = "cdf-release,ordered,distance(theta=1),1,1,,cdf_mse,{},1,2\n"
    checks.check_experiment(text + row.format(3) + row.format(4), rows=2)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_experiment(text + row.format(3), rows=2)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_experiment(text + row.format(3) + row.format("nan"), rows=2)


def test_reflected_layouts_keep_the_distance_sensitivity(tmp_path):
    """Every seed's rectangle layout has the sensitivity recorded for it."""
    seen = set()
    for seed in range(40):
        directory = tmp_path / str(seed)
        workloads.build("constrained-sensitivity", seed, directory)
        text = (directory / "distance.json").read_text()
        queries = json.loads(text)["constraints"]["queries"]
        layout = tuple(sorted(tuple(sum((r["where"][a]["range"] for a in ("A0", "A1", "A2")), [])) for r in queries))
        if layout in seen:
            continue
        seen.add(layout)
        domain = load_domain((directory / "domain.json").read_text())
        res = policy_sensitivity(HistogramQuery(), load_policy(text, domain))
        expected = workloads.PRINTED_AT_SEED["sensitivity_distance_s"]
        assert f"{int(res.value)} {res.exactness.value} {res.method.value}" == expected
    assert len(seen) >= 4


def test_inputs_depend_on_the_seed_alone(tmp_path):
    def files(seed, name):
        directory = tmp_path / name
        workloads.build("experiment", seed, directory)
        return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}

    first = files(3, "a")
    assert first == files(3, "b")
    assert first != files(4, "c")


def test_probe_samples_during_a_call_and_restores_the_handler():
    import signal
    import time

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3
    assert 0 < probe.spent < 0.2
    assert hostspeed.speed_factor([hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S]) == 0.75
