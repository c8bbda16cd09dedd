"""In-memory spans around the benchmark's calls into the program's layers.

A span has a name (``layer.function``), start and end times, a parent span and
the id of the operation it belongs to.  Spans and counts stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int
    # a second call made only to time a step the first call already did; its
    # time is not part of what the operation itself costs
    rerun: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: list[tuple[int, str, int]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _op: int = -1

    @contextmanager
    def operation(self, name: str):
        """Root span of one replayed operation; yields the operation id."""
        self._op += 1
        with self.span(name):
            yield self._op

    @contextmanager
    def span(self, name: str, rerun: bool = False):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), None, parent, self._op, rerun)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts.append((self._op, name, int(n)))

    def to_list(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
