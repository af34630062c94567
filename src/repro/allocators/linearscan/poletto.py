"""Poletto-style linear scan (Section 4's related-work baseline).

"Having tried graph coloring, they developed a simpler method that scans
a sorted list of the lifetimes and at each step considers how many
lifetimes are currently active ...  When there are too many active
lifetimes to fit, the longest active lifetime is spilled to memory and
the scan proceeds.  No attempt is made to take advantage of lifetime
holes or to allocate partial lifetimes."

Accordingly this allocator flattens every lifetime to one contiguous
interval ``[start, end)`` (holes ignored), sorts by start point, keeps an
active list, and on pressure spills the interval that ends furthest in
the future.  Calling-convention reservations are respected by refusing a
register whose reserved ranges intersect the interval — which also means
an interval crossing a call can only take a callee-saved register, the
same structural handicap the two-pass baseline has.

Only the home choice lives here: :meth:`PolettoLinearScan.sweep` fixes
every home before the shared walk of
:class:`~repro.allocators.wholelife.WholeLifetimeAllocator`, which gives
memory-resident references their scratch registers and, when a point has
none free, demotes the lowest-priority home covering it and re-sweeps.
The sweep holds one active interval per register, so a register fits
when it has no holder and no reservation over the interval.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter

from repro.allocators.wholelife import Homes, WholeLifetimeAllocator
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.lifetimes.intervals import LifetimeTable, RangeSet
from repro.spill.emitter import SpillCodeEmitter


class PolettoLinearScan(WholeLifetimeAllocator):
    """Sorted-interval linear scan without holes or lifetime splitting."""

    metrics_prefix = "linearscan"

    def __init__(self) -> None:
        self.name = "poletto linear scan"

    def span(self, table: LifetimeTable, temp: Temp) -> RangeSet:
        """The flat interval ``[start, end)``: holes are ignored."""
        lifetime = table.temps[temp]
        return RangeSet([(lifetime.start, lifetime.end)])

    def sweep(self, table: LifetimeTable, emitter: SpillCodeEmitter,
              demoted: set[Temp]) -> Homes:
        # Intervals as ``(start, id, end, temp)``, in scan order.  The
        # active list holds ``(end, seq, temp, register)`` sorted by end;
        # ``seq`` (the scan position) places a newcomer after the active
        # intervals ending with it.  ``held[cls][i]`` says whether register
        # ``i`` of ``cls`` holds an active interval.
        order = sorted((lifetime.start, temp.id, lifetime.end, temp)
                       for temp, lifetime in table.temps.items()
                       if temp not in demoted)
        homes: Homes = {}
        active: list[tuple[int, int, Temp, PhysReg]] = []
        held = {cls: [False] * table.machine.file_size(cls)
                for cls in RegClass}
        for seq, (start, _, end, temp) in enumerate(order):
            while active and active[0][0] <= start:
                reg = active.pop(0)[3]
                held[reg.regclass][reg.index] = False
            cls = temp.regclass
            busy, reserved = held[cls], table.reserved[cls]
            regs = emitter.register_order(cls, prefer_caller_saved=True)
            reg = next((r for r in regs if not busy[r.index]
                        and not reserved[r.index].overlaps_interval(start,
                                                                    end)),
                       None)
            if reg is None:
                # Pressure: spill the furthest-ending compatible active
                # interval, or this one.
                victim = max((a for a in active
                              if a[2].regclass is cls
                              and not reserved[a[3].index]
                              .overlaps_interval(start, end)),
                             key=itemgetter(0), default=None)
                if victim is None or victim[0] <= end:
                    continue  # temp itself stays memory-resident
                reg = homes.pop(victim[2])
                active.remove(victim)
            homes[temp] = reg
            busy[reg.index] = True
            insort(active, (end, seq, temp, reg))
        return homes
