"""Post-allocation peephole: remove self-moves.

After allocation, coalescing (coloring) and move elimination (binpacking)
leave behind ``mov r, r`` instructions; the paper's pipeline deletes them
in "a peephole optimization pass that removes moves that can safely
collapse into the preceding or succeeding instruction" (Section 3).  Both
allocators get exactly the same pass, so the comparison stays fair.
"""

from __future__ import annotations

from repro.ir.function import Function


def remove_redundant_moves(fn: Function) -> int:
    """Delete ``mov r, r`` / ``fmov f, f``; returns the removal count."""
    removed = 0
    for block in fn.blocks:
        keep = []
        for instr in block.instrs:
            if (instr.is_move and instr.defs and instr.uses
                    and instr.defs[0] == instr.uses[0]):
                removed += 1
                continue
            keep.append(instr)
        block.instrs = keep
    return removed
