"""Spill-code accounting in the paper's categories.

Figure 3 splits allocator-inserted instructions six ways:
``{evict, resolve} x {loads, stores, moves}`` — eviction code inserted
during the linear scan (or by coloring's spill phase, which has no
resolution category), and resolution code inserted while reconciling CFG
edges.  Callee-saved prologue traffic is excluded ("load, store, and move
instructions inserted for allocation candidates only", Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instr import SpillKind, SpillPhase
from repro.sim.machine import SimOutcome

#: Figure 3's bar segments, in its legend order.
FIGURE3_CATEGORIES: list[tuple[SpillPhase, SpillKind]] = [
    (SpillPhase.EVICT, SpillKind.LOAD),
    (SpillPhase.EVICT, SpillKind.STORE),
    (SpillPhase.EVICT, SpillKind.MOVE),
    (SpillPhase.RESOLVE, SpillKind.LOAD),
    (SpillPhase.RESOLVE, SpillKind.STORE),
    (SpillPhase.RESOLVE, SpillKind.MOVE),
]

#: Rematerialization re-issues.  Not part of the paper's six-way legend
#: (the 1998 allocators never rematerialize) — tracked additively so
#: Figure 3 renders unchanged with remat off, and the ablation can show
#: the load -> remat shift with it on.
REMAT_CATEGORIES: list[tuple[SpillPhase, SpillKind]] = [
    (SpillPhase.EVICT, SpillKind.REMAT),
    (SpillPhase.RESOLVE, SpillKind.REMAT),
]


@dataclass(frozen=True)
class SpillBreakdown:
    """Dynamic spill-instruction counts for one run, by category."""

    counts: tuple[int, ...]  # parallel to FIGURE3_CATEGORIES
    total_dynamic: int
    remat_counts: tuple[int, ...] = (0, 0)  # parallel to REMAT_CATEGORIES

    @property
    def remat(self) -> int:
        """Dynamic rematerializations (all phases)."""
        return sum(self.remat_counts)

    @property
    def total_spill(self) -> int:
        """All candidate spill instructions (evict + resolve + remat)."""
        return sum(self.counts) + self.remat

    def fraction(self) -> float:
        """Table 2's percentage (as a fraction of all dynamic instrs)."""
        if not self.total_dynamic:
            return 0.0
        return self.total_spill / self.total_dynamic

    def category(self, phase: SpillPhase, kind: SpillKind) -> int:
        """One category's dynamic count."""
        if kind is SpillKind.REMAT:
            return self.remat_counts[REMAT_CATEGORIES.index((phase, kind))]
        return self.counts[FIGURE3_CATEGORIES.index((phase, kind))]

    def normalized_to(self, baseline: "SpillBreakdown") -> list[float] | None:
        """Figure 3's normalization: each category divided by the
        *baseline allocator's* total spill count.

        Returns ``None`` when the baseline inserted no spill code at all:
        there is nothing to normalize against, and the old silent
        ``or 1`` fallback let ablation tables print ratios that looked
        meaningful but were raw counts in disguise.  Callers must render
        the zero-baseline case explicitly (e.g. as ``n/a``).
        """
        base = baseline.total_spill
        if not base:
            return None
        return [c / base for c in self.counts]


def spill_breakdown(outcome: SimOutcome) -> SpillBreakdown:
    """Extract the Figure 3 categories from a simulation outcome."""
    counts = tuple(outcome.spill_counts.get((phase, kind), 0)
                   for phase, kind in FIGURE3_CATEGORIES)
    remat = tuple(outcome.spill_counts.get((phase, kind), 0)
                  for phase, kind in REMAT_CATEGORIES)
    return SpillBreakdown(counts, outcome.dynamic_instructions, remat)


def quality_figures(outcome: SimOutcome) -> dict:
    """One checked run's figures as suite records and serve artifacts
    carry them: dynamic counts, result, every spill category."""
    breakdown = spill_breakdown(outcome)
    return {
        "dynamic_instructions": outcome.dynamic_instructions,
        "cycles": outcome.cycles,
        "result": outcome.result,
        "spill_categories": {
            f"{phase.value}.{kind.value}": breakdown.category(phase, kind)
            for phase, kind in FIGURE3_CATEGORIES + REMAT_CATEGORIES},
        "total_spill": breakdown.total_spill,
    }
