"""A flat counters/metrics registry shared across the pipeline.

Every layer publishes into one :class:`MetricsRegistry` under dotted,
namespaced keys — ``binpack.evict.store``, ``coloring.rounds``,
``pipeline.dce.removed``, ``sim.dynamic.instructions`` — so one object
answers "what did this compilation do", across allocator, pipeline
passes, and simulator, without each layer growing bespoke stat fields.

``snapshot()`` / ``diff()`` support before/after attribution: snapshot,
run a phase, and diff to see exactly which counters that phase moved.
"""

from __future__ import annotations

from repro.stats.report import format_table

Number = int | float


class MetricsRegistry:
    """Insertion-ordered named counters (ints or floats)."""

    def __init__(self) -> None:
        self._values: dict[str, Number] = {}

    # ------------------------------------------------------------------
    # Publishing.
    # ------------------------------------------------------------------
    def bump(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        self._values[name] = self._values.get(name, 0) + value

    def set(self, name: str, value: Number) -> None:
        """Overwrite gauge ``name`` with ``value``."""
        self._values[name] = value

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def get(self, name: str, default: Number = 0) -> Number:
        return self._values.get(name, default)

    def items(self) -> list[tuple[str, Number]]:
        return list(self._values.items())

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def snapshot(self) -> dict[str, Number]:
        """An immutable-by-copy view of every counter right now."""
        return dict(self._values)

    def restore(self, snapshot: dict[str, Number]) -> "MetricsRegistry":
        """Replace every counter with ``snapshot`` (the inverse of
        :meth:`snapshot`).  This is how batch workers ship their counters
        across process boundaries: a worker returns plain
        ``metrics.snapshot()`` data in its payload and the parent
        rebuilds a registry with ``MetricsRegistry().restore(...)`` —
        no global registry, no leaks between cells.  Returns ``self``
        so the rebuild is a one-liner."""
        self._values = dict(snapshot)
        return self

    def diff(self, before: dict[str, Number]) -> dict[str, Number]:
        """Counters that moved since ``before`` (a :meth:`snapshot`),
        mapped to their delta.  Unchanged counters are omitted."""
        out: dict[str, Number] = {}
        for name, value in self._values.items():
            delta = value - before.get(name, 0)
            if delta:
                out[name] = delta
        return out

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def render(self, title: str | None = None, prefix: str = "") -> str:
        """A two-column table of every counter, optionally filtered to
        names starting with ``prefix``."""
        rows = [[name, value] for name, value in self._values.items()
                if name.startswith(prefix)]
        return format_table(["metric", "value"], rows, title=title)
