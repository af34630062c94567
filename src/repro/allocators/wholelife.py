"""The shared core of the whole-lifetime allocators.

Two-pass binpacking and the Poletto linear scan give each temporary one
home for its entire lifetime — a register or its memory slot — and
rewrite the code in a second pass.  Each reference to a memory-resident
temporary becomes a "point lifetime" (Section 2.2): a load into a
scratch register before a use, a store from it after a def.  Only the
home choice differs, so :class:`WholeLifetimeAllocator` runs the rest in
rounds of one walk over the code.  At each instruction ``n``:

* Homes are decided at first reference, unless :meth:`sweep` fixed them
  all before the walk: the first register (caller-saved first) whose
  reservations and occupants miss the temporary's whole :meth:`span`.
* The instruction's registers are locked, and each memory reference
  takes the first register not locked, reserved or occupied over the
  window ``[2n, 2n+2)``.  That window then occupies the register like a
  home, so a home decided later (a use laid out before its def) cannot
  take a register over an earlier point lifetime it overlaps.
* A reference with no register ends the round.  The home of its class
  covering ``2n`` with the lowest :func:`eviction_priority` (the first
  decided, on a tie) is demoted to memory and the walk restarts.
  Forced-evict stress seeds the demoted set.

Each allocator publishes ``<prefix>.restarts`` and
``<prefix>.memory_resident`` (every candidate left without a home).
"""

from __future__ import annotations

import abc
from bisect import bisect_left

from repro.allocators.base import (
    AllocationError,
    AllocationStats,
    RegisterAllocator,
    SharedAnalyses,
    eviction_priority,
)
from repro.ir.function import Function
from repro.ir.instr import Instr, SpillPhase
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.lifetimes.intervals import LifetimeTable, RangeSet
from repro.obs.trace import EventKind
from repro.spill.emitter import SpillCodeEmitter
from repro.target.machine import MachineDescription

Homes = dict[Temp, PhysReg]
Scratch = dict[tuple[Instr, Temp], PhysReg]


class WholeLifetimeAllocator(RegisterAllocator):
    """One home per temporary, a scratch register per memory reference;
    subclasses supply only :meth:`span` and, optionally, :meth:`sweep`."""

    #: Namespace of the ``restarts`` and ``memory_resident`` counters.
    metrics_prefix: str

    @abc.abstractmethod
    def span(self, table: LifetimeTable, temp: Temp) -> RangeSet:
        """The ranges a home of ``temp`` blocks in its register."""

    def sweep(self, table: LifetimeTable, emitter: SpillCodeEmitter,
              demoted: set[Temp]) -> Homes | None:
        """Every home, fixed before the walk (``demoted`` temps get none),
        or ``None`` to decide each home at the temp's first reference."""
        return None

    def allocate_function(self, fn: Function, machine: MachineDescription,
                          shared: SharedAnalyses, emitter: SpillCodeEmitter,
                          stats: AllocationStats) -> None:
        table = shared.lifetimes
        candidates = [t for t in table.temps if isinstance(t, Temp)]
        spans = {t: self.span(table, t) for t in candidates}
        # Forced-evict stress pre-seeds memory residents; empty by default.
        demoted = emitter.forced_memory(candidates)
        restarts = 0
        while True:
            homes, scratch, victim = self._walk(fn, table, emitter, spans,
                                                demoted)
            if victim is None:
                break
            demoted.add(victim)
            restarts += 1
        stats.metrics.bump(f"{self.metrics_prefix}.restarts", restarts)
        stats.metrics.bump(f"{self.metrics_prefix}.memory_resident",
                           len(candidates) - len(homes))
        rewrite_whole_lifetime(fn, emitter, stats, homes, scratch)

    def _walk(self, fn: Function, table: LifetimeTable,
              emitter: SpillCodeEmitter, spans: dict[Temp, RangeSet],
              demoted: set[Temp]) -> tuple[Homes, Scratch, Temp | None]:
        """One round: the homes, the scratch registers, and the home to
        demote when some reference found no register (else ``None``)."""
        homes = self.sweep(table, emitter, demoted)
        first_fit = homes is None
        if first_fit:
            homes = {}
        # Per register class and register index: the spans of the
        # register's homes, and the read points of its scratch windows
        # (in walk order, so sorted).
        home_spans = {cls: [[] for _ in regs]
                      for cls, regs in table.reserved.items()}
        windows = {cls: [[] for _ in regs]
                   for cls, regs in table.reserved.items()}
        for temp, reg in homes.items():
            home_spans[reg.regclass][reg.index].append(spans[temp])
        homeless = set(demoted)
        scratch: Scratch = {}

        def home_fits(cls: RegClass, i: int, live: RangeSet) -> bool:
            if table.reserved[cls][i].overlaps(live):
                return False
            if any(other.overlaps(live) for other in home_spans[cls][i]):
                return False
            points = windows[cls][i]
            first = bisect_left(points, live.start - 1)
            return not any(live.overlaps_interval(p, p + 2)
                           for p in points[first:])

        def window_free(cls: RegClass, i: int, start: int, end: int) -> bool:
            # Earlier windows end by ``start``; this instruction's own are
            # locked, so only reservations and homes can occupy ``i``.
            if table.reserved[cls][i].overlaps_interval(start, end):
                return False
            return not any(other.overlaps_interval(start, end)
                           for other in home_spans[cls][i])

        for n, instr in enumerate(fn.instructions()):
            start, end = 2 * n, 2 * n + 2
            temps = instr.temps()
            if first_fit:
                for temp in temps:
                    if temp in homes or temp in homeless:
                        continue
                    live = spans[temp]
                    cls = temp.regclass
                    regs = emitter.register_order(cls,
                                                  prefer_caller_saved=True)
                    reg = next((r for r in regs
                                if home_fits(cls, r.index, live)), None)
                    if reg is None:
                        homeless.add(temp)
                        continue
                    homes[temp] = reg
                    home_spans[cls][reg.index].append(live)
            # Per class, the mask of register indices the instruction uses.
            locked = {RegClass.GPR: 0, RegClass.FPR: 0}
            for r in instr.regs():
                reg = homes.get(r) if isinstance(r, Temp) else r
                if reg is not None:
                    locked[reg.regclass] |= 1 << reg.index
            for temp in temps:
                if temp in homes or (instr, temp) in scratch:
                    continue
                cls = temp.regclass
                mask = locked[cls]
                regs = emitter.register_order(cls, prefer_caller_saved=True)
                reg = next((r for r in regs if not mask >> r.index & 1
                            and window_free(cls, r.index, start, end)), None)
                if reg is None:
                    return homes, scratch, self._victim(table, spans, homes,
                                                        temp, start)
                scratch[(instr, temp)] = reg
                locked[cls] = mask | 1 << reg.index
                windows[cls][reg.index].append(start)
        return homes, scratch, None

    def _victim(self, table: LifetimeTable, spans: dict[Temp, RangeSet],
                homes: Homes, temp: Temp, point: int) -> Temp:
        """The home of ``temp``'s class covering ``point`` that is least
        worth keeping; ``min`` keeps the first decided on a tie."""
        covering = [t for t in homes
                    if t.regclass is temp.regclass and spans[t].covers(point)]
        if not covering:
            raise AllocationError(
                f"{self.name}: no scratch register for {temp} at point "
                f"{point} and nothing to demote (file too small)")
        return min(covering, key=lambda t: eviction_priority(table, t, point))


def rewrite_whole_lifetime(fn: Function, emitter: SpillCodeEmitter,
                           stats: AllocationStats, assignment: Homes,
                           scratch: Scratch) -> None:
    """Apply a whole-lifetime allocation decision to ``fn`` in place.

    ``assignment`` maps register-resident temporaries to their register;
    every other temporary is memory-resident and must have a ``scratch``
    register recorded for each instruction that references it.
    """
    tr = stats.trace
    if tr.enabled:
        for temp, reg in assignment.items():
            tr.emit(EventKind.ASSIGN, temp=temp, reg=reg,
                    detail="whole lifetime")
    for block in fn.blocks:
        if tr.enabled:
            tr.set_location(block=block.label)
        rewritten: list[Instr] = []
        for instr in block.instrs:
            pre: list[Instr] = []
            post: list[Instr] = []
            loaded: set[Temp] = set()
            for i, use in enumerate(instr.uses):
                if not isinstance(use, Temp):
                    continue
                reg = assignment.get(use)
                if reg is None:
                    reg = scratch[(instr, use)]
                    if use not in loaded:
                        pre.append(emitter.reload(use, reg, SpillPhase.EVICT))
                        if tr.enabled:
                            tr.emit(EventKind.SECOND_CHANCE_RELOAD, temp=use,
                                    reg=reg, detail="scratch reload")
                        loaded.add(use)
                instr.uses[i] = reg
            for i, dst in enumerate(instr.defs):
                if not isinstance(dst, Temp):
                    continue
                reg = assignment.get(dst)
                if reg is None:
                    reg = scratch[(instr, dst)]
                    post.append(emitter.store(dst, reg, SpillPhase.EVICT))
                    if tr.enabled:
                        tr.emit(EventKind.SPILL_STORE_EMITTED, temp=dst,
                                reg=reg, detail="scratch store")
                instr.defs[i] = reg
            rewritten.extend(pre)
            rewritten.append(instr)
            rewritten.extend(post)
        block.instrs = rewritten
