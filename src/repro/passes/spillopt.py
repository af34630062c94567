"""Post-allocation spill-code cleanup (the paper's suggested follow-up).

Section 2.4: "A review of the output code shows that a global
optimization pass run after allocation can eliminate unnecessary
load/store pairs as well as partially redundant spill instructions using
hoisting and sinking techniques", and Section 2.5 anticipates replacing a
store/load pair to the same stack location with a register move.  The
paper leaves this pass to future work; this module implements its two
most profitable components over allocated (physical) code:

1. **Store-to-load forwarding.**  A load of slot ``s`` is rewritten into
   a register move when, on the straight-line path since the last store
   to ``s``, the stored register still holds the same value.  The move is
   then ``mov r, r`` whenever the allocator already agreed on registers,
   and the shared peephole deletes it.

2. **Dead spill-store elimination.**  A store to a slot nobody may read
   again (on any CFG path) is removed.  Slot liveness is a standard
   backward bit-vector problem over the function's stack slots — the same
   framework the allocators use for temporaries.

Both transformations work on any allocator's output (they are applied to
none by default — the benchmark ablation measures their effect), preserve
the spill-phase tags of surviving instructions, and never touch
``PROLOGUE`` callee-save traffic (its slots are read by definition at
every return).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.cfg import CFG
from repro.dataflow.framework import DataflowProblem, solve
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.temp import PhysReg, StackSlot
from repro.ir.types import RegClass


@dataclass
class SpillCleanupStats:
    """What the cleanup did to one function."""

    loads_forwarded: int = 0
    stores_removed: int = 0

    def __add__(self, other: "SpillCleanupStats") -> "SpillCleanupStats":
        return SpillCleanupStats(
            self.loads_forwarded + other.loads_forwarded,
            self.stores_removed + other.stores_removed)


def _forward_stores(fn: Function) -> int:
    """Within each block, turn ``sts r, [s] ... lds r', [s]`` into a move
    when ``r`` provably still holds the stored value at the load."""
    forwarded = 0
    for block in fn.blocks:
        # slot -> register whose current value equals the slot's contents.
        available: dict[StackSlot, PhysReg] = {}
        rewritten: list[Instr] = []
        for instr in block.instrs:
            if instr.op is Op.STS and instr.spill_phase is not SpillPhase.PROLOGUE:
                src = instr.uses[0]
                if isinstance(src, PhysReg):
                    available[instr.slot] = src
                else:
                    available.pop(instr.slot, None)
                rewritten.append(instr)
                continue
            if (instr.op is Op.LDS
                    and instr.spill_phase is not SpillPhase.PROLOGUE
                    and instr.slot in available):
                src = available[instr.slot]
                dst = instr.defs[0]
                move_op = Op.MOV if dst.regclass is RegClass.GPR else Op.FMOV
                rewritten.append(Instr(move_op, defs=[dst], uses=[src],
                                       spill_phase=instr.spill_phase))
                forwarded += 1
                # The slot value is now also in dst.
                if src in _written(instr):
                    available.pop(instr.slot, None)
                instr = None
            if instr is not None:
                rewritten.append(instr)
            # Any write to a register invalidates forwarding through it;
            # calls clobber unpredictably (callee register traffic).
            last = rewritten[-1]
            if last.is_call:
                available.clear()
            else:
                written = _written(last)
                if written:
                    for slot, reg in list(available.items()):
                        if reg in written:
                            del available[slot]
        block.instrs = rewritten
    return forwarded


def _written(instr: Instr) -> set[PhysReg]:
    return {r for r in instr.defs if isinstance(r, PhysReg)}


def _slot_index(fn: Function) -> dict[StackSlot, int]:
    slots: dict[StackSlot, int] = {}
    for instr in fn.instructions():
        if instr.slot is not None and instr.slot not in slots:
            slots[instr.slot] = len(slots)
    return slots


def _remove_dead_stores(fn: Function, analyses=None) -> int:
    """Delete stores to slots that no path reads before overwriting.

    Backward union dataflow over stack slots: ``gen`` = slots loaded
    before being stored in the block (upward-exposed slot reads),
    ``kill`` = slots stored.  A store is dead when its slot is not
    slot-live immediately after it.  Prologue saves are exempt (their
    restores sit before every ``ret``, so they are live anyway, but we
    skip them outright for clarity).
    """
    index = _slot_index(fn)
    if not index:
        return 0
    cfg = analyses.cfg(fn) if analyses is not None else CFG.build(fn)
    gen: dict[str, int] = {}
    kill: dict[str, int] = {}
    for block in fn.blocks:
        g = k = 0
        for instr in block.instrs:
            if instr.op is Op.LDS:
                bit = 1 << index[instr.slot]
                if not k & bit:
                    g |= bit
            elif instr.op is Op.STS:
                k |= 1 << index[instr.slot]
        gen[block.label] = g
        kill[block.label] = k
    result = solve(DataflowProblem(cfg, gen, kill))

    removed = 0
    for block in fn.blocks:
        live = result.out[block.label]
        keep: list[Instr] = []
        for instr in reversed(block.instrs):
            if instr.op is Op.STS:
                bit = 1 << index[instr.slot]
                if (not live & bit
                        and instr.spill_phase is not SpillPhase.PROLOGUE):
                    removed += 1
                    continue
                live &= ~bit
            elif instr.op is Op.LDS:
                live |= 1 << index[instr.slot]
            keep.append(instr)
        keep.reverse()
        block.instrs = keep
    return removed


def cleanup_spill_code(fn: Function, analyses=None) -> SpillCleanupStats:
    """Run both cleanups to a fixed point (forwarding can kill a load,
    which can make its store dead).

    Neither rewrite touches labels or terminators, so a session cache
    passed as ``analyses`` serves one CFG to every fixed-point round.
    """
    stats = SpillCleanupStats()
    while True:
        forwarded = _forward_stores(fn)
        removed = _remove_dead_stores(fn, analyses)
        stats.loads_forwarded += forwarded
        stats.stores_removed += removed
        if not forwarded and not removed:
            return stats
