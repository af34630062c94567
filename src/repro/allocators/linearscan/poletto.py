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

Memory-resident references get scratch registers with the same restart
discipline as two-pass binpacking: when no register is free at a point,
the lowest-priority assigned interval covering that point is demoted to
memory and the decision re-runs.
"""

from __future__ import annotations

from repro.allocators.base import (
    AllocationError,
    AllocationStats,
    RegisterAllocator,
    SharedAnalyses,
    eviction_priority,
)
from repro.allocators.wholelife import rewrite_whole_lifetime
from repro.ir.function import Function
from repro.ir.instr import Instr
from repro.ir.temp import PhysReg, Temp
from repro.lifetimes.intervals import LifetimeTable
from repro.spill.emitter import SpillCodeEmitter
from repro.target.machine import MachineDescription


class PolettoLinearScan(RegisterAllocator):
    """Sorted-interval linear scan without holes or lifetime splitting."""

    def __init__(self) -> None:
        self.name = "poletto linear scan"

    def allocate_function(self, fn: Function, machine: MachineDescription,
                          shared: SharedAnalyses, emitter: SpillCodeEmitter,
                          stats: AllocationStats) -> None:
        table = shared.lifetimes
        # Forced-evict stress pre-seeds memory residents; empty by default.
        forced_memory: set[Temp] = emitter.forced_memory(
            t for t in table.temps if isinstance(t, Temp))
        restarts = 0
        while True:
            assignment = self._scan_intervals(table, emitter, forced_memory)
            scratch, victim = self._assign_scratches(fn, table, emitter,
                                                     assignment)
            if victim is None:
                break
            forced_memory.add(victim)
            restarts += 1
        stats.metrics.bump("linearscan.restarts", restarts)
        stats.metrics.bump("linearscan.memory_resident", len(forced_memory))
        rewrite_whole_lifetime(fn, emitter, stats, assignment, scratch)

    # ------------------------------------------------------------------
    # Interval sweep.
    # ------------------------------------------------------------------
    def _interval(self, table: LifetimeTable, temp: Temp) -> tuple[int, int]:
        lifetime = table.temps[temp]
        return lifetime.start, lifetime.end

    def _scan_intervals(self, table: LifetimeTable,
                        emitter: SpillCodeEmitter,
                        forced_memory: set[Temp]) -> dict[Temp, PhysReg]:
        order = sorted((t for t in table.temps if isinstance(t, Temp)),
                       key=lambda t: (self._interval(table, t)[0], t.id))
        assignment: dict[Temp, PhysReg] = {}
        active: list[Temp] = []  # kept sorted by interval end

        def register_fits(reg: PhysReg, start: int, end: int) -> bool:
            if table.reserved_for(reg).overlaps_interval(start, end):
                return False
            return all(assignment[a] != reg for a in active)

        for temp in order:
            if temp in forced_memory:
                continue
            start, end = self._interval(table, temp)
            active = [a for a in active if self._interval(table, a)[1] > start]
            regs = emitter.register_order(temp.regclass,
                                          prefer_caller_saved=True)
            chosen = next((r for r in regs if register_fits(r, start, end)),
                          None)
            if chosen is not None:
                assignment[temp] = chosen
                active.append(temp)
                active.sort(key=lambda t: self._interval(table, t)[1])
                continue
            # Pressure: spill the furthest-ending compatible active
            # interval, or this one.
            candidates = [a for a in active
                          if a.regclass is temp.regclass
                          and not table.reserved_for(assignment[a])
                          .overlaps_interval(start, end)]
            victim = max(candidates,
                         key=lambda t: self._interval(table, t)[1],
                         default=None)
            if victim is not None and self._interval(table, victim)[1] > end:
                assignment[temp] = assignment.pop(victim)
                active.remove(victim)
                active.append(temp)
                active.sort(key=lambda t: self._interval(table, t)[1])
            # else: temp itself stays memory-resident.
        return assignment

    # ------------------------------------------------------------------
    # Point lifetimes for memory residents.
    # ------------------------------------------------------------------
    def _assign_scratches(self, fn: Function, table: LifetimeTable,
                          emitter: SpillCodeEmitter,
                          assignment: dict[Temp, PhysReg],
                          ) -> tuple[dict[tuple[Instr, Temp], PhysReg],
                                     Temp | None]:
        scratch: dict[tuple[Instr, Temp], PhysReg] = {}
        assigned_spans = {t: self._interval(table, t) for t in assignment}

        def busy(reg: PhysReg, start: int, end: int) -> bool:
            if table.reserved_for(reg).overlaps_interval(start, end):
                return True
            return any(r == reg and s < end and start < e
                       for t, r in assignment.items()
                       for s, e in (assigned_spans[t],))

        for n, instr in enumerate(fn.instructions()):
            start = 2 * n
            end = start + 2
            locked: set[PhysReg] = {r for r in instr.regs()
                                    if isinstance(r, PhysReg)}
            locked |= {assignment[t] for t in instr.temps() if t in assignment}
            for temp in instr.temps():
                if temp in assignment or (instr, temp) in scratch:
                    continue
                regs = emitter.register_order(temp.regclass,
                                              prefer_caller_saved=True)
                chosen = next((r for r in regs
                               if r not in locked and not busy(r, start, end)),
                              None)
                if chosen is None:
                    victim = self._pick_victim(table, assignment, temp, start)
                    return scratch, victim
                scratch[(instr, temp)] = chosen
                locked.add(chosen)
        return scratch, None

    def _pick_victim(self, table: LifetimeTable,
                     assignment: dict[Temp, PhysReg], temp: Temp,
                     point: int) -> Temp:
        candidates = [t for t in assignment
                      if t.regclass is temp.regclass
                      and self._interval(table, t)[0] <= point
                      < self._interval(table, t)[1]]
        if not candidates:
            raise AllocationError(
                f"poletto: no scratch register for {temp} at point {point} "
                f"and nothing to demote (file too small)")
        return min(candidates, key=lambda t: eviction_priority(table, t, point))
