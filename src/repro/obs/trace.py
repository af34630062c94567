"""The event-tracing core: typed allocation events and pluggable sinks.

Every consequential allocator decision emits one :class:`TraceEvent`
naming the function, block, linear point, temporary, and register it
concerns.  The taxonomy (:class:`EventKind`) follows the paper's own
vocabulary — second chances, postponed/elided spill stores, lifetime-hole
packing, and edge resolution — so a trace reads as a narration of
Section 2 applied to one compilation.

Tracing is off by default: the shared :data:`NULL_TRACER` has
``enabled = False`` and instrumented sites guard on that flag, so a
disabled build pays one attribute read per site.  An enabled
:class:`Tracer` fans every event out to its sinks:

* :class:`RingBufferSink` — the last *n* events, in memory;
* :class:`TextSink` — one human-readable line per event;
* :class:`JsonlSink` — one JSON object per line, the machine-readable
  interchange format (:func:`read_jsonl_trace` parses it back).
"""

from __future__ import annotations

import enum
import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator


class EventKind(enum.Enum):
    """The allocation-event taxonomy (see docs/OBSERVABILITY.md)."""

    #: Keys the per-kind event counts; the identity hash, as on
    #: :class:`~repro.ir.types.RegClass`.
    __hash__ = object.__hash__

    #: A temporary was given a register (any allocator).
    ASSIGN = "assign"
    #: A live temporary lost its register (scan eviction or coloring spill).
    EVICT = "evict"
    #: A spilled temporary was reloaded into a (possibly different)
    #: register at a later use — the paper's "second chance".
    SECOND_CHANCE_RELOAD = "second_chance_reload"
    #: A defined value's store back to its memory home was postponed
    #: until eviction (Section 2.3's lazy spill store).
    SPILL_STORE_POSTPONED = "spill_store_postponed"
    #: A postponed spill store was actually emitted.
    SPILL_STORE_EMITTED = "spill_store_emitted"
    #: An eviction store was elided because register and memory were
    #: known consistent (``ARE_CONSISTENT``, Section 2.3).
    STORE_ELIDED_CONSISTENT = "store_elided_consistent"
    #: A temporary was packed into another temporary's lifetime hole
    #: (Figure 1's ``T3`` inside ``T1``).
    HOLE_REUSE = "hole_reuse"
    #: Resolution repaired a location mismatch on a CFG edge
    #: (Section 2.4); ``detail`` holds ``store``/``move``/``load``.
    RESOLUTION_EDGE_FIX = "resolution_edge_fix"
    #: A move's destination was placed in its source's register so the
    #: peephole can delete the move (Section 2.5).
    MOVE_ELIMINATED = "move_eliminated"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventKind.{self.name}"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One allocation decision.

    Attributes:
        kind: What happened.
        fn: Function being allocated.
        block: Basic-block label (``None`` for whole-function events).
        point: Linear program point (``None`` when not point-specific);
            an *edge* event stores the edge as ``block -> detail_block``
            inside ``block`` instead.
        temp: The temporary concerned, as printed (e.g. ``"t3"``).
        reg: The register concerned, as printed (e.g. ``"r7"``).
        detail: Free-form qualifier (e.g. ``"store"`` / ``"move"`` /
            ``"load"`` on resolution fixes, ``"dead"`` on free evictions).
    """

    kind: EventKind
    fn: str
    block: str | None = None
    point: int | None = None
    temp: str | None = None
    reg: str | None = None
    detail: str | None = None

    def to_json(self) -> dict:
        """The JSONL wire form (stable field order, nulls included)."""
        return {
            "kind": self.kind.value,
            "fn": self.fn,
            "block": self.block,
            "point": self.point,
            "temp": self.temp,
            "reg": self.reg,
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TraceEvent":
        """Inverse of :meth:`to_json` (raises on unknown kinds)."""
        return cls(kind=EventKind(obj["kind"]), fn=obj["fn"],
                   block=obj.get("block"), point=obj.get("point"),
                   temp=obj.get("temp"), reg=obj.get("reg"),
                   detail=obj.get("detail"))

    def format(self) -> str:
        """One human-readable line (the :class:`TextSink` rendering)."""
        where = self.fn
        if self.block is not None:
            where += f"/{self.block}"
        if self.point is not None:
            where += f"@{self.point}"
        parts = [f"{where:30s} {self.kind.value}"]
        if self.temp is not None:
            parts.append(self.temp)
        if self.reg is not None:
            parts.append(f"-> {self.reg}")
        if self.detail is not None:
            parts.append(f"[{self.detail}]")
        return " ".join(parts)


class TraceSink:
    """Receives every event of one tracer.  Subclass and override."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by :meth:`Tracer.close`."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._buffer)


class TextSink(TraceSink):
    """Writes one :meth:`TraceEvent.format` line per event."""

    def __init__(self, stream: IO[str]):
        self._stream = stream

    def emit(self, event: TraceEvent) -> None:
        self._stream.write(event.format() + "\n")


class JsonlSink(TraceSink):
    """Writes one JSON object per line (the interchange format)."""

    def __init__(self, stream: IO[str]):
        self._stream = stream

    def emit(self, event: TraceEvent) -> None:
        self._stream.write(json.dumps(event.to_json()) + "\n")

    def close(self) -> None:
        self._stream.flush()


def read_jsonl_trace(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """Parse a JSONL trace back into events (blank lines skipped)."""
    for line in lines:
        line = line.strip()
        if line:
            yield TraceEvent.from_json(json.loads(line))


class Tracer:
    """Fans allocation events out to sinks and counts them by kind.

    Instrumented sites share one idiom::

        tr = stats.trace
        if tr.enabled:
            tr.emit(EventKind.EVICT, temp=t, reg=r, point=p)

    so a disabled tracer costs one attribute read.  The current function
    and block are *ambient* (set once per block via :meth:`set_location`)
    rather than passed at every site, which keeps the allocators'
    signatures untouched.
    """

    def __init__(self, sinks: Iterable[TraceSink] = ()):
        self.sinks: list[TraceSink] = list(sinks)
        self.enabled: bool = bool(self.sinks)
        self.counts: Counter[EventKind] = Counter()
        self._fn: str = "?"
        self._block: str | None = None

    def set_location(self, fn: str | None = None,
                     block: str | None = None) -> None:
        """Set the ambient function/block stamped on subsequent events."""
        if fn is not None:
            self._fn = fn
            self._block = None
        if block is not None:
            self._block = block

    def emit(self, kind: EventKind, *, point: int | None = None,
             temp: object = None, reg: object = None,
             detail: str | None = None, block: str | None = None) -> None:
        """Record one event at the ambient location.

        ``temp``/``reg`` accept IR objects and stringify them here, so
        call sites stay terse.
        """
        if not self.enabled:
            return
        event = TraceEvent(
            kind=kind, fn=self._fn,
            block=self._block if block is None else block,
            point=point,
            temp=None if temp is None else str(temp),
            reg=None if reg is None else str(reg),
            detail=detail)
        self.counts[kind] += 1
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


#: The shared disabled tracer every un-instrumented run uses.
NULL_TRACER = Tracer()
