"""Per-function spill-code emission shared by every allocator.

The emitter concentrates what used to be duplicated across the
binpacking scan, the resolution pass, the whole-lifetime rewriter, and
the coloring spill phase: slot-home assignment, construction of the
tagged ``STS``/``LDS``/move instructions, the per-category static
accounting behind Figure 3, and — when the context enables it — the
decision to *rematerialize* a constant instead of reloading it.

A temporary is remat-able when it has exactly one definition in the
function and that definition is an original ``li``/``fli``: its value
is the same constant everywhere, so any reload can be replaced by
re-issuing the constant (1 cycle instead of a 3-cycle stack-slot
load).  The store half of the spill is kept — eliding it would change
slot liveness and is a follow-up — so rematerialization can only
remove loads.  Remat instructions carry ``remat_for`` so the dataflow
verifier can check them against the pre-allocation program.

Stress modes perturb *decisions*, never the machine description:
analyses stay shared and cacheable, and excluded registers are simply
never picked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.temp import PhysReg, Reg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.spill.context import (FORCED_EVICT_RATE, FORCED_MEMORY_FRACTION,
                                 MIN_USABLE_REGS, AllocationContext)
from repro.target.machine import MachineDescription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base -> spill)
    from repro.allocators.base import AllocationStats, SpillSlots

#: Opcodes whose single original definition makes a temp remat-able.
_REMAT_OPS = (Op.LI, Op.FLI)


def remat_candidates(fn: Function) -> dict[Temp, tuple[Op, int | float]]:
    """Temps with exactly one definition, an original ``li``/``fli``."""
    seen: dict[Temp, Instr | None] = {}
    for instr in fn.instructions():
        for d in instr.defs:
            if isinstance(d, Temp):
                seen[d] = instr if d not in seen else None
    return {t: (i.op, i.imm) for t, i in seen.items()
            if i is not None and i.spill_phase is None
            and i.op in _REMAT_OPS and i.imm is not None}


class SpillCodeEmitter:
    """Owns spill-code emission for one function.

    Allocators call :meth:`store`/:meth:`reload`/:meth:`move` to build
    tagged spill instructions (the emitter bumps the matching static
    counter), :meth:`register_order` for their selection order, and the
    ``force_evict``/``forced_memory`` hooks under stress.  Placement of
    the returned instructions — and narrative tracing — stays with the
    caller, which knows the surrounding algorithm.
    """

    def __init__(self, fn: Function, machine: MachineDescription,
                 context: AllocationContext, slots: "SpillSlots",
                 stats: "AllocationStats") -> None:
        self.fn = fn
        self.machine = machine
        self.context = context
        self.slots = slots
        self.stats = stats
        self._orders: dict[tuple[RegClass, bool], tuple[PhysReg, ...]] = {}
        self._dropped: dict[RegClass, frozenset[PhysReg]] = {}
        self._evict_rng = (context.rng("force-evict", fn.name)
                          if context.stress == "forced-evict" else None)
        self._remat = remat_candidates(fn) if context.remat else {}

    # ------------------------------------------------------------------
    # Slot homes.
    # ------------------------------------------------------------------
    def home(self, temp: Temp) -> StackSlot:
        """The (lazily created) memory home of ``temp``."""
        return self.slots.home(temp)

    def has_home(self, temp: Temp) -> bool:
        return self.slots.has_home(temp)

    # ------------------------------------------------------------------
    # Emission + accounting.
    # ------------------------------------------------------------------
    def store(self, temp: Temp, reg: Reg, phase: SpillPhase) -> Instr:
        """A tagged spill store of ``reg`` into ``temp``'s home."""
        instr = Instr(Op.STS, uses=[reg], slot=self.slots.home(temp),
                      spill_phase=phase)
        self.stats.bump_spill(phase, "store")
        return instr

    def reload(self, temp: Temp, reg: Reg, phase: SpillPhase) -> Instr:
        """A tagged reload of ``temp`` into ``reg``.

        With rematerialization on and ``temp`` remat-able, this is the
        constant re-issued (``li``/``fli`` tagged ``remat``); the slot
        is untouched, so callers must *not* mark memory consistent.
        Otherwise it is the usual stack-slot load.
        """
        const = self._remat.get(temp) if isinstance(temp, Temp) else None
        if const is not None:
            op, imm = const
            self.stats.bump_spill(phase, "remat")
            return Instr(op, defs=[reg], imm=imm, spill_phase=phase,
                         remat_for=temp)
        instr = Instr(Op.LDS, defs=[reg], slot=self.slots.home(temp),
                      spill_phase=phase)
        self.stats.bump_spill(phase, "load")
        return instr

    def move(self, op: Op, dst: Reg, src: Reg, phase: SpillPhase) -> Instr:
        """A tagged register-to-register copy."""
        self.stats.bump_spill(phase, "move")
        return Instr(op, defs=[dst], uses=[src], spill_phase=phase)

    def rematerialized(self, instr: Instr) -> bool:
        """Whether :meth:`reload` produced ``instr`` by remat."""
        return instr.remat_for is not None

    # ------------------------------------------------------------------
    # Stress hooks.
    # ------------------------------------------------------------------
    def register_order(self, regclass: RegClass,
                       prefer_caller_saved: bool = False
                       ) -> tuple[PhysReg, ...]:
        """The registers an allocator may assign, in selection order.

        Default context: index order, or caller-saved-then-callee-saved
        when ``prefer_caller_saved`` — exactly the orders the allocators
        used before this layer existed.  ``reduced-regs`` removes a
        seeded number of droppable registers (calling-convention
        registers always stay, and at least ``MIN_USABLE_REGS`` remain);
        ``shuffle`` replaces both views with one seeded permutation.
        """
        key = (regclass, prefer_caller_saved)
        order = self._orders.get(key)
        if order is None:
            order = self._compute_order(regclass, prefer_caller_saved)
            self._orders[key] = order
        return order

    def _compute_order(self, regclass: RegClass,
                       prefer_caller_saved: bool) -> tuple[PhysReg, ...]:
        machine, ctx = self.machine, self.context
        if ctx.stress == "shuffle":
            # One permutation per (function, class): both views agree,
            # and the caller-saved preference is deliberately destroyed.
            regs = list(machine.regs(regclass))
            ctx.rng("shuffle", self.fn.name, regclass.name).shuffle(regs)
            return tuple(regs)
        if prefer_caller_saved:
            base = (*machine.caller_saved(regclass),
                    *machine.callee_saved(regclass))
        else:
            base = machine.regs(regclass)
        dropped = self._dropped_regs(regclass)
        if dropped:
            base = tuple(r for r in base if r not in dropped)
        return tuple(base)

    def _dropped_regs(self, regclass: RegClass) -> frozenset[PhysReg]:
        """Registers ``reduced-regs`` stress removes from ``regclass``.

        Seed-dependent in *number*, deterministic in identity (highest
        indices go first), and shared by every order view so the
        function sees one consistent register file.
        """
        dropped = self._dropped.get(regclass)
        if dropped is None:
            ctx, machine = self.context, self.machine
            if ctx.stress != "reduced-regs":
                dropped = frozenset()
            else:
                keep = {machine.ret_reg(regclass),
                        *machine.param_regs(regclass)}
                droppable = [r for r in machine.regs(regclass)
                             if r not in keep]
                limit = min(len(droppable),
                            machine.file_size(regclass) - MIN_USABLE_REGS)
                if limit <= 0:
                    dropped = frozenset()
                else:
                    k = ctx.rng("reduced-regs", regclass.name).randint(1, limit)
                    dropped = frozenset(droppable[-k:])
            self._dropped[regclass] = dropped
        return dropped

    def force_evict(self) -> bool:
        """Under ``forced-evict`` stress: evict even though a register
        is free, with seeded probability.  Consumed once per placement
        decision that has an eviction candidate."""
        return (self._evict_rng is not None
                and self._evict_rng.random() < FORCED_EVICT_RATE)

    def forced_memory(self, temps: Iterable[Temp]) -> set[Temp]:
        """Under ``forced-evict`` stress: a seeded sample of candidates
        the whole-lifetime allocators must keep in memory homes."""
        if self.context.stress != "forced-evict":
            return set()
        pool = sorted(set(temps), key=lambda t: t.id)
        if not pool:
            return set()
        k = max(1, int(len(pool) * FORCED_MEMORY_FRACTION))
        rng = self.context.rng("forced-memory", self.fn.name)
        return set(rng.sample(pool, k))
