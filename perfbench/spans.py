"""In-memory span recorder for the benchmark's traced run.

A span covers one call the benchmark makes into a layer of ``repro``
(``lang.parse``, ``allocators.coloring.core``, ``sim.allocated``, ...).
Spans nest on one thread; each records its name, the operation it
belongs to, its parent and its start and end.  A span's *self time* is
its duration minus the time its child spans cover, so the self times of
all spans plus the time covered by no span (``unattributed``) add up to
the traced wall time exactly.  The traced wall time is the sum of the
``start``/``stop`` intervals, so untraced work can run between them.

Nothing here reaches inside ``repro``: spans wrap the benchmark's own
calls only.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext


class Spans:
    """Records nested spans; see the module docstring."""

    def __init__(self) -> None:
        # [name, op, parent index, start, end]
        self.records: list[list] = []
        self._stack: list[int] = []
        self.op = ""
        self.wall_s = 0.0
        self._origin = time.perf_counter()
        self._resumed = 0.0

    def start(self) -> None:
        self._resumed = time.perf_counter()

    def stop(self) -> None:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        self.wall_s += time.perf_counter() - self._resumed

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every span of that name."""
        child_time = [0.0] * len(self.records)
        for _name, _op, parent, start, end in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, _op, _parent, start, end) in enumerate(self.records):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def unattributed_s(self) -> float:
        """Traced wall time that no span covers."""
        covered = sum(end - start for _name, _op, parent, start, end
                      in self.records if parent < 0)
        return self.wall_s - covered

    def write(self, path) -> None:
        """Dump every span as one JSON line (times from construction)."""
        with open(path, "w") as fh:
            for name, op, parent, start, end in self.records:
                fh.write(json.dumps({
                    "name": name, "op": op, "parent": parent,
                    "start_s": start - self._origin,
                    "end_s": end - self._origin}) + "\n")


class NullSpans:
    """Stands in for :class:`Spans` with tracing off: spans cost a call."""

    op = ""
    _null = nullcontext()

    def span(self, _name: str) -> nullcontext:
        return self._null


class _Span:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: Spans, name: str):
        self.spans = spans
        self.name = name

    def __enter__(self) -> None:
        spans = self.spans
        parent = spans._stack[-1] if spans._stack else -1
        self.index = len(spans.records)
        spans.records.append([self.name, spans.op, parent,
                              time.perf_counter(), 0.0])
        spans._stack.append(self.index)

    def __exit__(self, *_exc) -> None:
        spans = self.spans
        spans.records[self.index][4] = time.perf_counter()
        spans._stack.pop()
