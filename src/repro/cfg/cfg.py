"""The control-flow graph over a function's basic blocks.

The CFG is a thin, label-keyed adjacency view derived from block
terminators.  It deliberately does not copy instructions: passes mutate
the function and rebuild the CFG, which is a single linear sweep.

``split_edge`` implements the critical-edge splitting rule the paper's
resolution phase relies on (Section 2.4, footnote 1): resolution code goes
at the top of the successor if the edge is its only in-edge, at the bottom
of the predecessor if the edge is its only out-edge, and onto a fresh
block spliced into the edge otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instr import Instr, Op


@dataclass(eq=False)
class CFG:
    """Successor/predecessor maps over a function's blocks.

    Parallel edges (a conditional branch whose arms share a target) are
    collapsed: edge identity is the ``(pred_label, succ_label)`` pair.
    """

    fn: Function
    succs: dict[str, list[str]] = field(default_factory=dict)
    preds: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, fn: Function) -> "CFG":
        """Construct the CFG for ``fn`` from its block terminators."""
        cfg = cls(fn)
        for block in fn.blocks:
            cfg.succs[block.label] = []
            cfg.preds.setdefault(block.label, [])
        for block in fn.blocks:
            seen: set[str] = set()
            for target in block.successors():
                if target in seen:
                    continue
                seen.add(target)
                cfg.succs[block.label].append(target)
                cfg.preds.setdefault(target, []).append(block.label)
        return cfg

    @property
    def entry(self) -> str:
        """Label of the entry block."""
        return self.fn.entry.label

    def edges(self) -> list[tuple[str, str]]:
        """All CFG edges, in layout order of the predecessor."""
        return [(p, s) for p in (b.label for b in self.fn.blocks)
                for s in self.succs[p]]

    def out_degree(self, label: str) -> int:
        """Number of distinct successors."""
        return len(self.succs[label])

    def in_degree(self, label: str) -> int:
        """Number of distinct predecessors."""
        return len(self.preds[label])

    def reachable(self) -> set[str]:
        """Labels reachable from the entry block."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for s in self.succs[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    def postorder(self) -> list[str]:
        """Depth-first postorder over reachable blocks (entry last)."""
        seen: set[str] = set()
        order: list[str] = []

        # Iterative DFS with an explicit successor cursor per frame so the
        # postorder matches the recursive definition.
        stack: list[tuple[str, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            label, cursor = stack[-1]
            succs = self.succs[label]
            if cursor < len(succs):
                stack[-1] = (label, cursor + 1)
                nxt = succs[cursor]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                order.append(label)
        return order

    def reverse_postorder(self) -> list[str]:
        """Reverse postorder (a topological order on reducible forward edges)."""
        return list(reversed(self.postorder()))


def split_edge(fn: Function, cfg: CFG, pred: str, succ: str) -> BasicBlock:
    """Split the CFG edge ``pred -> succ`` with a fresh empty-ish block.

    The new block holds only a jump to ``succ`` and is appended at the end
    of layout order (it is reached only through its explicit jump, so its
    layout position carries no linear-scan meaning — allocation has already
    happened when resolution splits edges).  The caller is responsible for
    rebuilding any CFG it keeps; this function updates ``cfg`` in place.
    """
    pred_block = fn.block(pred)
    new_block = BasicBlock(fn.new_label(hint=f"split.{pred}.{succ}."))
    new_block.append(Instr(Op.JMP, targets=[succ]))
    fn.add_block(new_block)
    term = pred_block.terminator
    for i, target in enumerate(term.targets):
        if target == succ:
            term.targets[i] = new_block.label
    # Update the adjacency maps in place.
    cfg.succs[pred] = [new_block.label if s == succ else s for s in cfg.succs[pred]]
    cfg.preds[succ] = [new_block.label if p == pred else p for p in cfg.preds[succ]]
    cfg.succs[new_block.label] = [succ]
    cfg.preds[new_block.label] = [pred]
    return new_block
