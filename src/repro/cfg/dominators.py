"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

Used only to find loops (back edges target dominators); the allocators
themselves never consult dominance, matching the paper's pipeline where
loop-depth analysis happens before allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.cfg import CFG


@dataclass(eq=False)
class DominatorTree:
    """Immediate-dominator map over the reachable blocks of a CFG."""

    idom: dict[str, str]
    entry: str
    _rpo_index: dict[str, int]

    @classmethod
    def build(cls, cfg: CFG) -> "DominatorTree":
        """Compute immediate dominators ("A Simple, Fast Dominance
        Algorithm", Cooper, Harvey & Kennedy)."""
        rpo = cfg.reverse_postorder()
        index = {label: i for i, label in enumerate(rpo)}
        entry = cfg.entry
        idom: dict[str, str] = {entry: entry}

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for label in rpo:
                if label == entry:
                    continue
                preds = [p for p in cfg.preds[label] if p in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = intersect(new_idom, p)
                if idom.get(label) != new_idom:
                    idom[label] = new_idom
                    changed = True
        return cls(idom, entry, index)

    def dominates(self, a: str, b: str) -> bool:
        """True when ``a`` dominates ``b`` (reflexively).

        A dominator precedes every block it dominates in reverse
        postorder, so the walk up ``b``'s idom chain stops once it is
        below ``a``'s RPO index: a forward edge's query costs O(1).
        Unreachable blocks dominate, and are dominated by, only
        themselves.
        """
        if a == b:
            return True
        index = self._rpo_index
        floor = index.get(a)
        if floor is None:
            return False
        node = b
        while index.get(node, -1) > floor:
            node = self.idom[node]
        return node == a
