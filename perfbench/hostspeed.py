"""A speed probe: how fast the host runs at each moment of a timed call.

The host this benchmark was tuned on is shared with other tenants.  Its speed
switches between levels about 1.6x apart, each lasting from seconds to
minutes, so two runs of the same code can differ by 25% or more.  The probe
measures that speed: while a timed call runs, a timer interrupts it every
``INTERVAL_S`` and runs a small fixed computation, ``_work``, in the signal
handler.  The computation uses no code of the program, so a change to the
program leaves its time alone.  A call's time, minus the time spent in the
handler, is then rescaled to the speed at which ``_work`` takes
``REFERENCE_S``.

``_work`` mirrors the program's kinds of work: label lookups in a list of
strings (ingest), a Python loop over pairs (secret-graph scans) and small
numpy calls (per-node noise).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# CPU seconds ``_work`` takes at the reference speed: the median of the probes
# on the 2-vCPU host the benchmark was tuned on, in its faster state.
REFERENCE_S = 0.0005

_LABELS = [f"v{i:04d}" for i in range(400)]
_LOOKUPS = _LABELS[::5]
_POINTS = [(i % 5, i % 7, i % 11) for i in range(40)]
_RNG = np.random.default_rng(0)


def _work() -> int:
    index = _LABELS.index
    acc = sum(index(label) for label in _LOOKUPS)
    for a in _POINTS:
        for b in _POINTS:
            acc += abs(a[0] - b[0]) + abs(a[1] - b[1]) + abs(a[2] - b[2]) <= 4
    for _ in range(40):
        acc += _RNG.laplace(0.0, 1.0, size=4).size
    return acc


def probe_seconds() -> float:
    """CPU seconds of one run of ``_work``."""
    t0 = time.process_time()
    _work()
    return time.process_time() - t0


def speed_factor(samples: list[float]) -> float:
    """Factor that rescales a time measured while ``samples`` were taken to
    the reference speed.  The mean of REFERENCE_S / p weights each probe by
    the work done per second at its moment, so it is the right average of a
    speed that changes during a call."""
    return statistics.fmean(REFERENCE_S / p for p in samples)


class Probe:
    """Runs ``_work`` every INTERVAL_S of wall time inside a ``with`` block,
    from a SIGALRM handler, and records each run's CPU seconds in
    ``samples`` and the wall seconds spent in the handler in ``spent``."""

    def __enter__(self) -> "Probe":
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._handler(signal.SIGALRM, None)  # every call gets at least one sample
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        return speed_factor(self.samples)

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_seconds())
        self.spent += time.perf_counter() - t0


if __name__ == "__main__":
    print(" ".join(f"{probe_seconds() * 1e3:.3f}" for _ in range(20)), "ms")
