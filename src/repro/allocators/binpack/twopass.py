"""Traditional two-pass binpacking (the Section 3.1 ablation baseline).

"The traditional approach to linear-scan allocation first walks the
sorted list of lifetime intervals deciding which temporaries live in a
register and which live in memory.  A second phase then scans the
procedure code and rewrites each operand" (Section 2.2).  This
implementation keeps the *hole-aware* packing ("this implementation still
takes advantage of lifetime holes during allocation", Section 3.1) but
assigns each whole lifetime to exactly one home:

* **Decision pass.**  At a temporary's first reference it receives a
  register whose reserved ranges and existing commitments are disjoint
  from the temporary's *entire* lifetime — so a lifetime crossing a call
  can never use a caller-saved register, which is precisely the weakness
  the paper's ``wc`` experiment exposes.  If no register fits, the
  temporary lives in memory.
* **Point lifetimes.**  Each reference to a memory-resident temporary
  needs a scratch register for just that instruction ("these point
  lifetimes are always assigned a register", Section 2.2).  When no
  register is free at that point, the lowest-priority committed lifetime
  covering the point is forced to memory and the decision pass restarts —
  a whole-lifetime eviction, never a split.
* **Rewrite pass.**  Register-resident temporaries are renamed; memory-
  resident ones get a load before each use and a store after each def,
  with no consistency tracking ("this algorithm does not avoid
  unnecessary stores", Section 3.1) and no resolution pass (locations
  never vary, so block boundaries always agree).
"""

from __future__ import annotations

from repro.allocators.wholelife import rewrite_whole_lifetime
from repro.allocators.base import (
    AllocationError,
    AllocationStats,
    RegisterAllocator,
    SharedAnalyses,
    eviction_priority,
)
from repro.ir.function import Function
from repro.ir.instr import Instr
from repro.ir.temp import PhysReg, Temp
from repro.lifetimes.intervals import LifetimeTable
from repro.spill.emitter import SpillCodeEmitter
from repro.target.machine import MachineDescription


class _Decision:
    """Result of one decision-pass attempt."""

    def __init__(self) -> None:
        self.assignment: dict[Temp, PhysReg] = {}
        self.memory: set[Temp] = set()
        #: (instr, temp) -> scratch register for that point lifetime.
        self.scratch: dict[tuple[Instr, Temp], PhysReg] = {}
        self.victim: Temp | None = None  # set when a restart is required


class TwoPassBinpacking(RegisterAllocator):
    """Whole-lifetime binpacking with hole-aware packing; see module doc."""

    def __init__(self) -> None:
        self.name = "two-pass binpacking"

    def allocate_function(self, fn: Function, machine: MachineDescription,
                          shared: SharedAnalyses, emitter: SpillCodeEmitter,
                          stats: AllocationStats) -> None:
        table = shared.lifetimes
        # Forced-evict stress pre-seeds memory residents; empty by default.
        forced_memory: set[Temp] = emitter.forced_memory(
            t for t in table.temps if isinstance(t, Temp))
        while True:
            decision = self._decide(fn, table, emitter, forced_memory)
            if decision.victim is None:
                break
            forced_memory.add(decision.victim)
        rewrite_whole_lifetime(fn, emitter, stats, decision.assignment,
                               decision.scratch)

    # ------------------------------------------------------------------
    # Decision pass.
    # ------------------------------------------------------------------
    def _register_order(self, emitter: SpillCodeEmitter,
                        temp: Temp) -> tuple[PhysReg, ...]:
        """Caller-saved first: using a callee-saved register costs a
        save/restore pair, so it is the fallback.  (Stress contexts may
        reorder or shrink this through the emitter.)"""
        return emitter.register_order(temp.regclass, prefer_caller_saved=True)

    def _decide(self, fn: Function, table: LifetimeTable,
                emitter: SpillCodeEmitter,
                forced_memory: set[Temp]) -> _Decision:
        decision = _Decision()
        decision.memory |= forced_memory
        committed: dict[PhysReg, list[Temp]] = {}

        def whole_lifetime_fits(temp: Temp, reg: PhysReg) -> bool:
            live = table.temps[temp].live
            if table.reserved_for(reg).overlaps(live):
                return False
            return all(not table.temps[other].live.overlaps(live)
                       for other in committed.get(reg, []))

        def point_free(reg: PhysReg, start: int, end: int,
                       locked: set[PhysReg]) -> bool:
            if reg in locked:
                return False
            if table.reserved_for(reg).overlaps_interval(start, end):
                return False
            return all(not table.temps[other].live.overlaps_interval(start, end)
                       for other in committed.get(reg, []))

        for n, instr in enumerate(fn.instructions()):
            start = 2 * n
            end = start + 2
            locked: set[PhysReg] = {r for r in instr.regs()
                                    if isinstance(r, PhysReg)}
            # First references decide whole-lifetime homes.
            for temp in instr.temps():
                if temp in decision.assignment or temp in decision.memory:
                    continue
                for reg in self._register_order(emitter, temp):
                    if whole_lifetime_fits(temp, reg):
                        decision.assignment[temp] = reg
                        committed.setdefault(reg, []).append(temp)
                        break
                else:
                    decision.memory.add(temp)
            locked |= {decision.assignment[t] for t in instr.temps()
                       if t in decision.assignment}
            # Point lifetimes for memory-resident references.
            for temp in instr.temps():
                if temp not in decision.memory:
                    continue
                key = (instr, temp)
                if key in decision.scratch:
                    continue
                chosen = None
                for reg in self._register_order(emitter, temp):
                    if point_free(reg, start, end, locked):
                        chosen = reg
                        break
                if chosen is None:
                    victim = self._pick_victim(table, committed, temp, start,
                                               forced_memory)
                    decision.victim = victim
                    return decision
                decision.scratch[key] = chosen
                locked.add(chosen)
        return decision

    def _pick_victim(self, table: LifetimeTable,
                     committed: dict[PhysReg, list[Temp]], temp: Temp,
                     point: int, forced_memory: set[Temp]) -> Temp:
        """The committed lifetime covering ``point`` with the lowest
        keep-priority; forcing it to memory frees a register here."""
        best: Temp | None = None
        best_priority = float("inf")
        for reg, owners in committed.items():
            if reg.regclass is not temp.regclass:
                continue
            for owner in owners:
                if owner in forced_memory:
                    continue
                if not table.temps[owner].live.overlaps_interval(point, point + 2):
                    continue
                priority = eviction_priority(table, owner, point)
                if priority < best_priority:
                    best, best_priority = owner, priority
        if best is None:
            raise AllocationError(
                f"two-pass binpacking: no scratch register for {temp} at "
                f"point {point} and nothing to evict (file too small)")
        return best

