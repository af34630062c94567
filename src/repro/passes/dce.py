"""Dead-code elimination (the pre-allocation cleanup of Section 3).

Iteratively removes side-effect-free instructions whose defined
temporaries are dead — never used later on any path.  Liveness is
recomputed per round; the pass converges in a couple of rounds on
frontend output (each round can only expose more dead code by deleting
uses).

Only instructions that write a temporary and have no observable effect
are candidates: arithmetic, moves, immediates, conversions, and loads
(the IR has no volatile memory).  Stores, calls, prints, terminators and
anything writing a physical register always stay.
"""

from __future__ import annotations

from repro.cfg.cfg import CFG
from repro.dataflow.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.temp import Temp

#: Opcodes with no effect beyond their register def.
_PURE_OPS = frozenset({
    Op.LI, Op.FLI, Op.MOV, Op.FMOV, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM,
    Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.ADDI, Op.NEG, Op.NOT,
    Op.SLT, Op.SLE, Op.SEQ, Op.SNE, Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV,
    Op.FNEG, Op.FSLT, Op.FSLE, Op.FSEQ, Op.FSNE, Op.ITOF, Op.FTOI,
    Op.LD, Op.FLD, Op.NOP,
})

#: Pure opcodes that may still fault and therefore must not be deleted.
_MAY_FAULT = frozenset({Op.DIV, Op.REM, Op.FDIV, Op.LD, Op.FLD})


def _removable(instr: Instr, live_after: set[Temp]) -> bool:
    if instr.op is Op.NOP:
        return True
    if instr.op not in _PURE_OPS or instr.op in _MAY_FAULT:
        return False
    if not instr.defs:
        return False
    dst = instr.defs[0]
    if not isinstance(dst, Temp):
        return False
    return dst not in live_after


#: What a removing DCE round leaves valid: removals never touch labels or
#: terminators, so the CFG (and with it the loop forest) survives; the
#: liveness used to pick victims is stale the moment one is deleted.
_ROUND_PRESERVES = frozenset({"cfg", "loops"})


def eliminate_dead_code(fn: Function, analyses=None) -> int:
    """Remove dead pure instructions from ``fn``; returns removals.

    ``analyses`` (an :class:`repro.pm.analysis.AnalysisManager`) routes
    the per-round CFG and liveness queries through the session cache: the
    CFG is computed once for all rounds, and the final round's liveness —
    valid, since that round removed nothing — is left cached for the
    allocators.  Without it the pass recomputes both per round, as the
    seed implementation did.
    """
    removed_total = 0
    while True:
        if analyses is not None:
            cfg = analyses.cfg(fn)
            liveness = analyses.liveness(fn)
        else:
            cfg = CFG.build(fn)
            liveness = compute_liveness(fn, cfg)
        removed = 0
        for block in fn.blocks:
            live: set[Temp] = set(liveness.live_out_temps(block.label))
            keep: list[Instr] = []
            for instr in reversed(block.instrs):
                if _removable(instr, live):
                    removed += 1
                    continue
                keep.append(instr)
                for d in instr.defs:
                    if isinstance(d, Temp):
                        live.discard(d)
                for u in instr.uses:
                    if isinstance(u, Temp):
                        live.add(u)
            keep.reverse()
            block.instrs = keep
        removed_total += removed
        if not removed:
            return removed_total
        if analyses is not None:
            analyses.invalidate(fn, preserve=_ROUND_PRESERVES)
