"""Lifetimes, lifetime holes, and the linear numbering they live on.

Linear numbering
----------------

Instructions are numbered ``0..N-1`` in the function's layout (linear)
order.  Instruction ``i`` *reads* its uses at point ``2i`` and *writes*
its defs at point ``2i + 1``; a block spans the half-open point range
``[2*first, 2*(last+1))``.  Splitting each instruction into a read point
and a write point lets a def reuse a register freed by a dying use of the
same instruction, and gives spill loads/stores the "point lifetimes" of
Section 2.2 a natural home.

A point is a position, not an instruction key: whoever needs the points
of a block's instructions counts them from the block's start
(``block_span``), so the numbering holds for any structural clone of the
function.

Lifetimes
---------

A temporary's lifetime is the span from the first point it is live in
linear order to the last (Section 1); the maximal uncovered gaps inside
that span are its *lifetime holes* (Section 2.1, Figure 1).  We compute
all live ranges in a single reverse pass over the linear code, seeded at
each block bottom with the block's liveness (computed once, shared with
the coloring allocator).

Physical registers get the same treatment: explicit references (calling
convention moves, call argument/return registers) and call-site clobbers
of the caller-saved set produce *reserved* ranges; the complement of a
register's reserved set is its own sequence of lifetime holes, which is
exactly how Section 2.5 models usage conventions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.cfg.cfg import CFG
from repro.cfg.loops import LoopInfo
from repro.dataflow.liveness import LivenessInfo, compute_liveness
from repro.ir.function import Function
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.target.machine import MachineDescription


@dataclass(frozen=True, order=True)
class Range:
    """A half-open interval ``[start, end)`` of linear points."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"empty range [{self.start}, {self.end})")

    def __contains__(self, point: int) -> bool:
        return self.start <= point < self.end

    def overlaps(self, other: "Range") -> bool:
        """True when the two ranges share at least one point."""
        return self.start < other.end and other.start < self.end

    def __str__(self) -> str:
        return f"[{self.start},{self.end})"


class RangeSet:
    """A normalized (sorted, disjoint, merged) set of ranges with queries.

    All allocator hole logic reduces to three queries: does the set cover
    a point, where does coverage next begin after a point, and does the
    set intersect a candidate interval.

    Internally the set is two parallel int lists (``_starts``/``_ends``)
    rather than a tuple of :class:`Range` objects — lifetime construction
    builds millions of these across a batch run, and flat lists keep both
    the build (no per-range object allocation) and the bisect queries (no
    attribute loads) cheap.  :class:`Range` objects appear only at the
    iteration boundary (``iter``/``ranges``/``holes``), built lazily.
    """

    __slots__ = ("_starts", "_ends", "_ranges")

    def __init__(self, raw: list[tuple[int, int]] | None = None):
        starts: list[int] = []
        ends: list[int] = []
        for start, end in sorted(raw or []):
            if start >= end:
                continue
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        self._starts = starts
        self._ends = ends
        self._ranges: tuple[Range, ...] | None = None

    @classmethod
    def _from_flat(cls, starts: list[int], ends: list[int]) -> "RangeSet":
        """Adopt already-normalized parallel lists (internal fast path)."""
        rs = cls.__new__(cls)
        rs._starts = starts
        rs._ends = ends
        rs._ranges = None
        return rs

    @classmethod
    def from_reverse_sweep(cls, raw: list[tuple[int, int]]) -> "RangeSet":
        """Normalize ranges recorded by a backward walk (non-increasing
        starts), merging in one reverse pass with no sort.

        This is how :func:`compute_lifetimes` emits every temporary's raw
        ranges; should the input turn out unsorted after all, it falls
        back to the generic sorting constructor rather than misbehave.
        """
        starts: list[int] = []
        ends: list[int] = []
        for i in range(len(raw) - 1, -1, -1):
            start, end = raw[i]
            if start >= end:
                continue
            if ends:
                if start < starts[-1]:
                    return cls(raw)
                if start <= ends[-1]:
                    if end > ends[-1]:
                        ends[-1] = end
                    continue
            starts.append(start)
            ends.append(end)
        return cls._from_flat(starts, ends)

    @property
    def ranges(self) -> tuple[Range, ...]:
        """The ranges as :class:`Range` objects (materialized lazily)."""
        ranges = self._ranges
        if ranges is None:
            ranges = self._ranges = tuple(
                Range(s, e) for s, e in zip(self._starts, self._ends))
        return ranges

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        return iter(self.ranges)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RangeSet) and self._starts == other._starts
                and self._ends == other._ends)

    def __hash__(self) -> int:
        return hash((tuple(self._starts), tuple(self._ends)))

    @property
    def start(self) -> int:
        """First covered point (raises on an empty set)."""
        return self._starts[0]

    @property
    def end(self) -> int:
        """One past the last covered point (raises on an empty set)."""
        return self._ends[-1]

    def covers(self, point: int) -> bool:
        """True when ``point`` lies inside some range."""
        i = bisect_right(self._starts, point) - 1
        return i >= 0 and point < self._ends[i]

    def next_covered_at_or_after(self, point: int) -> int | None:
        """The smallest covered point >= ``point``, or ``None``."""
        starts = self._starts
        i = bisect_right(starts, point)
        if i > 0 and point < self._ends[i - 1]:
            return point
        if i < len(starts):
            return starts[i]
        return None

    def overlaps_interval(self, start: int, end: int) -> bool:
        """True when the set intersects ``[start, end)``."""
        if start >= end:
            return False
        nxt = self.next_covered_at_or_after(start)
        return nxt is not None and nxt < end

    def overlaps(self, other: "RangeSet") -> bool:
        """True when the two sets share at least one point (merge walk)."""
        a_starts, a_ends = self._starts, self._ends
        b_starts, b_ends = other._starts, other._ends
        i = j = 0
        na, nb = len(a_starts), len(b_starts)
        while i < na and j < nb:
            if a_starts[i] < b_ends[j] and b_starts[j] < a_ends[i]:
                return True
            if a_ends[i] <= b_starts[j]:
                i += 1
            else:
                j += 1
        return False

    def clip(self, start: int) -> "RangeSet":
        """The subset of the ranges at or after ``start`` (a straddling
        range is trimmed to begin at ``start``)."""
        i = bisect_right(self._starts, start)
        starts = self._starts[i:]
        ends = self._ends[i:]
        if i > 0 and self._ends[i - 1] > start:
            starts.insert(0, start)
            ends.insert(0, self._ends[i - 1])
        return RangeSet._from_flat(starts, ends)

    def holes(self) -> list[Range]:
        """Maximal uncovered gaps strictly between the first and last range."""
        return [Range(end, start) for end, start
                in zip(self._ends, self._starts[1:])]

    def __str__(self) -> str:
        return " ".join(str(r) for r in self.ranges) or "(empty)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeSet({self})"


@dataclass(eq=False)
class Lifetime:
    """One temporary's (or one register's reserved) live ranges.

    Attributes:
        reg: The temporary (or physical register) described.
        live: The normalized range set of points where a useful value
            exists (for physical registers: where the register is
            reserved by the calling convention).
    """

    reg: Temp | PhysReg
    live: RangeSet

    @property
    def start(self) -> int:
        return self.live.start

    @property
    def end(self) -> int:
        return self.live.end

    def holes(self) -> list[Range]:
        """The lifetime holes (Section 2.1)."""
        return self.live.holes()

    def alive_at(self, point: int) -> bool:
        """True when the value is live at ``point``."""
        return self.live.covers(point)

    def next_live_at_or_after(self, point: int) -> int | None:
        """First live point >= ``point`` (``None`` once the lifetime ended)."""
        return self.live.next_covered_at_or_after(point)

    def remaining(self, point: int) -> RangeSet:
        """The live ranges at or after ``point``.

        This is what binpacking fits into register holes: a temporary
        whose remaining ranges avoid a register's reserved ranges can use
        it even when the *convex* remaining span could not (e.g. a value
        that is dead across every call fits a caller-saved register).
        Never empty: a dead def still occupies ``[point, point + 1)``.
        """
        clipped = self.live.clip(point)
        if not clipped:
            return RangeSet([(point, point + 1)])
        return clipped

    def __str__(self) -> str:
        return f"{self.reg}: {self.live}"


@dataclass(eq=False)
class LifetimeTable:
    """Everything the linear-scan allocators need about one function.

    Nothing in the table refers to an instruction object: every entry is
    a linear point, so the table stays valid for any structural clone of
    the function it was computed on.

    Attributes:
        machine: The target (fixes the caller-saved clobber set).
        block_span: Block label -> (start point, end point) half-open;
            instruction ``n`` of a block reads at ``start + 2*n`` and
            writes at ``start + 2*n + 1``.
        max_point: One past the last linear point of the function.
        temps: Lifetime per temporary (every temporary, including
            block-local ones).
        reserved: Per register class, the reserved-range set of every
            register, indexed by ``PhysReg.index``; registers without a
            reservation share one empty set.
        ref_points: Per temp, the sorted reference points (uses at
            ``2i``, defs at ``2i+1``).
        ref_depths: Parallel loop depths for each reference point.
    """

    machine: MachineDescription
    block_span: dict[str, tuple[int, int]]
    max_point: int
    temps: dict[Temp, Lifetime]
    reserved: dict[RegClass, list[RangeSet]]
    ref_points: dict[Temp, list[int]]
    ref_depths: dict[Temp, list[int]]

    def reserved_for(self, reg: PhysReg) -> RangeSet:
        """The convention-reserved ranges of ``reg`` (possibly empty)."""
        return self.reserved[reg.regclass][reg.index]

    def next_ref_at_or_after(self, temp: Temp, point: int) -> tuple[int, int] | None:
        """The next reference of ``temp`` at or after ``point``.

        Returns ``(ref_point, loop_depth)`` or ``None`` when no reference
        remains — the input to the spill-priority heuristic (Section 2.3).
        """
        points = self.ref_points.get(temp)
        if not points:
            return None
        i = bisect_left(points, point)
        if i == len(points):
            return None
        return points[i], self.ref_depths[temp][i]


def compute_lifetimes(fn: Function, machine: MachineDescription,
                      cfg: CFG | None = None,
                      liveness: LivenessInfo | None = None,
                      loops: LoopInfo | None = None) -> LifetimeTable:
    """Build the :class:`LifetimeTable` with one reverse pass (Section 2.1).

    ``cfg``/``liveness``/``loops`` may be passed in when already
    computed — the evaluation timings exclude these shared setup analyses,
    as the paper's Section 3.2 timings do, and the analysis manager
    (:mod:`repro.pm`) memoizes them per function.
    """
    cfg = cfg or CFG.build(fn)
    liveness = liveness or compute_liveness(fn, cfg)
    loops = loops or LoopInfo.build(cfg)

    block_span: dict[str, tuple[int, int]] = {}
    depth_at: list[int] = []
    max_point = 0
    for block in fn.blocks:
        n = len(block.instrs)
        block_span[block.label] = (max_point, max_point + 2 * n)
        max_point += 2 * n
        depth_at.extend([loops.depth_of(block.label)] * n)

    raw_temp: dict[Temp, list[tuple[int, int]]] = {}
    raw_phys: dict[PhysReg, list[tuple[int, int]]] = {}
    ref_points: dict[Temp, list[int]] = {}
    ref_depths: dict[Temp, list[int]] = {}

    caller_saved = (machine.caller_saved(RegClass.GPR)
                    + machine.caller_saved(RegClass.FPR))

    # Forward sweep: reference points (for the spill heuristic) and call
    # clobber reservations.
    for i, instr in enumerate(fn.instructions()):
        for u in instr.uses:
            if isinstance(u, Temp):
                ref_points.setdefault(u, []).append(2 * i)
                ref_depths.setdefault(u, []).append(depth_at[i])
        for d in instr.defs:
            if isinstance(d, Temp):
                ref_points.setdefault(d, []).append(2 * i + 1)
                ref_depths.setdefault(d, []).append(depth_at[i])
        if instr.is_call:
            for reg in caller_saved:
                raw_phys.setdefault(reg, []).append((2 * i, 2 * i + 2))

    # Reverse sweep: live ranges.  ``active`` maps a register to the end
    # point of the range currently being grown backward.
    for block in reversed(fn.blocks):
        bstart, bend = block_span[block.label]
        active: dict[Temp | PhysReg, int] = {}
        for t in liveness.live_out_temps(block.label):
            active[t] = bend
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            point = bstart + 2 * i
            for d in instr.defs:
                end = active.pop(d, None)
                raw = raw_temp if isinstance(d, Temp) else raw_phys
                if end is None:
                    # Dead def: the value still occupies the register for
                    # one point.
                    raw.setdefault(d, []).append((point + 1, point + 2))
                else:
                    raw.setdefault(d, []).append((point + 1, end))
            for u in instr.uses:
                if u not in active:
                    active[u] = point + 1
        for reg, end in active.items():
            raw = raw_temp if isinstance(reg, Temp) else raw_phys
            raw.setdefault(reg, []).append((bstart, end))

    # Temp ranges come out of the reverse sweep with non-increasing
    # starts, so they normalize in one reverse pass with no sort; phys
    # ranges interleave forward-sweep call clobbers and keep the generic
    # sorting constructor.
    temps = {t: Lifetime(t, RangeSet.from_reverse_sweep(ranges))
             for t, ranges in raw_temp.items()}
    empty = RangeSet()
    reserved = {cls: [empty] * machine.file_size(cls) for cls in RegClass}
    for r, ranges in raw_phys.items():
        if r.index >= len(reserved[r.regclass]):
            raise ValueError(f"{fn.name}: register {r} does not exist on "
                             f"{machine.name}")
        reserved[r.regclass][r.index] = RangeSet(ranges)
    return LifetimeTable(
        machine=machine,
        block_span=block_span,
        max_point=max_point,
        temps=temps,
        reserved=reserved,
        ref_points=ref_points,
        ref_depths=ref_depths,
    )
