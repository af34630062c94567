"""Nestable wall-clock phase timers for the whole pipeline.

One :class:`PhaseProfiler` accumulates, per named phase, the number of
entries, the *inclusive* time (children counted) and the *self* time
(children excluded), using ``time.perf_counter_ns``.  Phases nest::

    with profiler.phase("allocate"):
        with profiler.phase("allocate.scan"):
            ...
        with profiler.phase("allocate.resolve"):
            ...

Self time of a parent plus inclusive time of its children equals the
parent's inclusive time *by construction* (same clock reads), which is
what lets ``python -m repro profile`` print a per-phase table whose sum
reconciles exactly with ``AllocationStats.alloc_seconds`` — the stat is
itself measured through this profiler (:mod:`repro.allocators.base`).

Phase names are dotted paths by convention (``allocate.scan``); the
convention is for reading, nesting is tracked dynamically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.stats.report import format_table


@dataclass
class PhaseStat:
    """Accumulated timings of one named phase."""

    name: str
    calls: int = 0
    total_ns: int = 0  # inclusive of nested phases
    self_ns: int = 0  # exclusive of nested phases
    depth: int = 0  # nesting depth at first entry (display indent)
    parent: str | None = None  # enclosing phase at first entry

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_seconds(self) -> float:
        return self.self_ns / 1e9


class _Span:
    """Context manager for one phase entry; ``seconds`` is readable after
    exit (this is how ``alloc_seconds`` reads its measurement back)."""

    __slots__ = ("_profiler", "_name", "_start", "_children_ns", "seconds")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._children_ns = 0
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        self._profiler._push(self)
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter_ns() - self._start
        self.seconds = elapsed / 1e9
        self._profiler._pop(self, elapsed)


class PhaseProfiler:
    """Accumulates nested phase timings; see the module docstring."""

    def __init__(self) -> None:
        self.phases: dict[str, PhaseStat] = {}  # insertion-ordered
        self._stack: list[_Span] = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def phase(self, name: str) -> _Span:
        """A context manager timing one entry of phase ``name``."""
        return _Span(self, name)

    def _push(self, span: _Span) -> None:
        self._stack.append(span)

    def _pop(self, span: _Span, elapsed_ns: int) -> None:
        self._stack.pop()
        stat = self.phases.get(span._name)
        if stat is None:
            stat = self.phases[span._name] = PhaseStat(
                span._name, depth=len(self._stack),
                parent=self._stack[-1]._name if self._stack else None)
        stat.calls += 1
        stat.total_ns += elapsed_ns
        stat.self_ns += elapsed_ns - span._children_ns
        if self._stack:
            self._stack[-1]._children_ns += elapsed_ns

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        """Inclusive seconds of ``name`` (0.0 if the phase never ran)."""
        stat = self.phases.get(name)
        return stat.total_seconds if stat else 0.0

    def self_seconds_total(self) -> float:
        """Sum of every phase's self time == total instrumented time."""
        return sum(stat.self_ns for stat in self.phases.values()) / 1e9

    def summary(self) -> dict:
        """The split every suite record and serve artifact embeds (plus
        the raw per-phase table)."""
        phases = {name: {"calls": stat.calls,
                         "total_s": round(stat.total_seconds, 6),
                         "self_s": round(stat.self_seconds, 6)}
                  for name, stat in self.phases.items()}

        def total(prefix: str) -> float:
            return round(sum(stat.total_seconds
                             for name, stat in self.phases.items()
                             if name == prefix
                             or name.startswith(prefix + ".")), 6)
        return {"phases": phases,
                "setup_s": total("setup"),
                "allocate_s": total("allocate"),
                "resolve_s": total("allocate.resolve"),
                "pipeline_s": total("pipeline")}

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def _tree_order(self) -> list[PhaseStat]:
        """Phases in pre-order: parents before their children, siblings in
        first-entry order.  (Children are *recorded* before their parent —
        a child span pops first — so raw insertion order interleaves.)"""
        children: dict[str | None, list[PhaseStat]] = {}
        for stat in self.phases.values():
            parent = stat.parent if stat.parent in self.phases else None
            children.setdefault(parent, []).append(stat)
        out: list[PhaseStat] = []

        def walk(parent: str | None) -> None:
            for stat in children.get(parent, []):
                out.append(stat)
                walk(stat.name)

        walk(None)
        return out

    def render(self, title: str | None = None) -> str:
        """A per-phase table: calls, inclusive ms, self ms, self %."""
        grand_self = self.self_seconds_total() or 1e-12
        rows = []
        for stat in self._tree_order():
            rows.append(["  " * stat.depth + stat.name, stat.calls,
                         f"{stat.total_seconds * 1e3:.3f}",
                         f"{stat.self_seconds * 1e3:.3f}",
                         f"{100 * stat.self_seconds / grand_self:.1f}%"])
        return format_table(
            ["phase", "calls", "total ms", "self ms", "self %"], rows,
            title=title)
