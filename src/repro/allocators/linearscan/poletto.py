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

from repro.allocators.wholelife import Homes, WholeLifetimeAllocator
from repro.ir.temp import PhysReg, Temp
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
        def end_of(temp: Temp) -> int:
            return table.temps[temp].end

        order = sorted((t for t in table.temps
                        if isinstance(t, Temp) and t not in demoted),
                       key=lambda t: (table.temps[t].start, t.id))
        homes: Homes = {}
        active: list[Temp] = []  # kept sorted by interval end
        holder: dict[PhysReg, Temp] = {}  # register -> its active interval
        for temp in order:
            start, end = table.temps[temp].start, end_of(temp)
            while active and end_of(active[0]) <= start:
                del holder[homes[active.pop(0)]]
            regs = emitter.register_order(temp.regclass,
                                          prefer_caller_saved=True)
            reg = next((r for r in regs if r not in holder
                        and not table.reserved_for(r)
                        .overlaps_interval(start, end)), None)
            if reg is None:
                # Pressure: spill the furthest-ending compatible active
                # interval, or this one.
                victim = max((a for a in active
                              if a.regclass is temp.regclass
                              and not table.reserved_for(homes[a])
                              .overlaps_interval(start, end)),
                             key=end_of, default=None)
                if victim is None or end_of(victim) <= end:
                    continue  # temp itself stays memory-resident
                reg = homes.pop(victim)
                active.remove(victim)
            homes[temp] = reg
            holder[reg] = temp
            insort(active, temp, key=end_of)
        return homes
