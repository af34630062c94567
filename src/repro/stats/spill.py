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


def quality_figures(outcome: SimOutcome) -> dict:
    """One checked run's figures as suite records and serve artifacts
    carry them: dynamic counts, result, every spill category, and the
    outcome's candidate spill total (Table 2's numerator)."""
    counts = outcome.spill_counts
    return {
        "dynamic_instructions": outcome.dynamic_instructions,
        "cycles": outcome.cycles,
        "result": outcome.result,
        "spill_categories": {
            f"{phase.value}.{kind.value}": counts.get((phase, kind), 0)
            for phase, kind in FIGURE3_CATEGORIES + REMAT_CATEGORIES},
        "total_spill": outcome.spill_instructions,
    }


@dataclass(frozen=True)
class _OutcomeSpills:
    """One run's spill counts as ``perfbench/serve.py`` reads them: a
    view of the outcome's own tally."""

    outcome: SimOutcome

    def category(self, phase: SpillPhase, kind: SpillKind) -> int:
        return self.outcome.spill_counts.get((phase, kind), 0)

    @property
    def total_spill(self) -> int:
        return self.outcome.spill_instructions


def spill_breakdown(outcome: SimOutcome) -> _OutcomeSpills:
    """The benchmark harness's reader of ``outcome``'s spill counts;
    everything in ``src/`` reads the outcome through
    :func:`quality_figures` instead."""
    return _OutcomeSpills(outcome)
