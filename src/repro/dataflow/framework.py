"""A small generic iterative bit-vector dataflow solver.

Every block-level analysis in this repo is a backward GEN/KILL union
problem — liveness, the spill-store cleanup's slot liveness, and the
binpacking allocator's ``USED_CONSISTENCY`` propagation (Section 2.4):

    USED_C_out(b) = union over successors s of USED_C_in(s)
    USED_C_in(b)  = USED_CONSISTENCY(b) | (USED_C_out(b) & ~WROTE_TR(b))

The solver runs a worklist to a fixed point.  The paper observes that
"the standard method ... terminates in two or three iterations at most"
(Section 2.6); the benchmark suite verifies that observation holds here
by reporting iteration counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.cfg import CFG


@dataclass(eq=False)
class DataflowProblem:
    """A backward union GEN/KILL problem over a CFG:
    ``out(b) = union of in(s) for successors`` (0 for an exit block) and
    ``in(b) = gen(b) | (out(b) & ~kill(b))``.
    """

    cfg: CFG
    gen: dict[str, int]
    kill: dict[str, int]


@dataclass
class DataflowResult:
    """Fixed-point ``in``/``out`` masks plus solver statistics."""

    in_: dict[str, int]
    out: dict[str, int]
    iterations: int


def solve(problem: DataflowProblem) -> DataflowResult:
    """Iterate the problem's equations to a fixed point (worklist order:
    postorder, so a block comes after its successors, back edges aside)."""
    cfg = problem.cfg
    labels = [b.label for b in cfg.fn.blocks]
    in_ = {label: 0 for label in labels}
    out = {label: 0 for label in labels}
    order = cfg.postorder()
    # Include unreachable blocks so every label has a defined value.
    # (Hoisted out of the comprehension: rebuilding the set per label
    # made this scan quadratic in the block count.)
    reachable = set(order)
    tail = [label for label in labels if label not in reachable]
    order = order + tail

    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for label in order:
            meet = 0
            for s in cfg.succs[label]:
                meet |= in_[s]
            out[label] = meet
            new_in = problem.gen[label] | (meet & ~problem.kill[label])
            if new_in != in_[label]:
                in_[label] = new_in
                changed = True
    return DataflowResult(in_, out, iterations)
