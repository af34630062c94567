"""The pass manager: passes that declare what they preserve.

A :class:`FunctionPass` wraps one of the repo's function-level rewrites
(DCE, the move peephole, spill cleanup, the verifiers) together with the
set of analyses it provably keeps valid.  The :class:`PassManager` runs a
pass over a module and performs the cache bookkeeping the invalidation
contract demands: after a pass changes a function, every cached analysis
*not* in the pass's preserve set is dropped (and the function's clone
link severed), so a stale result can never be served.

Preservation claims recorded here, with their justifications:

* **dce** preserves ``cfg``, ``loops``, ``liveness`` — it deletes only
  non-terminator instructions (labels and edges survive, hence the loop
  forest too), and it runs liveness rounds until a round removes
  nothing, so the *last* round's liveness — the one left in the cache —
  describes exactly the code the pass returns.
* **peephole** and **spill-cleanup** preserve ``cfg`` and ``loops`` —
  they rewrite or delete straight-line instructions only.  They run
  post-allocation, where temp liveness is moot, but declaring it
  preserved would still be wrong, so they don't.
* the verifiers preserve *everything*: they never mutate.

Nothing preserves ``lifetimes`` across a change: its points are
instruction positions, and all of these passes insert or delete
instructions.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from repro.ir.function import Function
from repro.ir.module import Module
from repro.obs.profile import PhaseProfiler
from repro.passes.dce import eliminate_dead_code
from repro.passes.peephole import remove_redundant_moves
from repro.passes.spillopt import SpillCleanupStats, cleanup_spill_code
from repro.passes.verify_alloc import (OperandSnapshot, verify_allocation,
                                       verify_dataflow)
from repro.pm.analysis import PRESERVE_ALL, AnalysisManager
from repro.target.machine import MachineDescription


@dataclass(frozen=True)
class FunctionPass:
    """One function-level transformation plus its cache contract.

    Attributes:
        name: Stable identifier (metrics key suffix).
        phase: Profiler phase the whole module sweep is timed under.
        run: ``(fn, analyses) -> result``; may query the analysis manager
            freely (queries are cached) and may manage mid-pass
            invalidation itself (DCE does, between rounds).
        preserves: Analyses still valid after ``run`` changed ``fn``.
        changed: Maps ``run``'s result to "did the function change?" —
            invalidation is skipped entirely for untouched functions, so
            a no-op pass costs no cache entries.
        mutates: ``False`` for verifiers; invalidation is never needed.
    """

    name: str
    phase: str
    run: Callable[[Function, AnalysisManager | None], Any]
    preserves: frozenset[str] = frozenset()
    changed: Callable[[Any], bool] = bool
    mutates: bool = True


@dataclass(eq=False)
class PassManager:
    """Runs passes over modules, enforcing the invalidation contract."""

    analyses: AnalysisManager

    def run(self, pass_: FunctionPass, module: Module,
            profiler: PhaseProfiler | None = None) -> list[Any]:
        """Run ``pass_`` over every function; returns per-function results.

        Timed under ``pass_.phase`` on ``profiler``, when given.
        After each function that the pass reports changed, the analysis
        cache is invalidated down to the pass's preserve set.
        """
        results: list[Any] = []
        changed_fns = 0
        with (profiler.phase(pass_.phase) if profiler is not None
              else nullcontext()):
            for fn in module.functions.values():
                result = pass_.run(fn, self.analyses)
                results.append(result)
                if pass_.mutates and pass_.changed(result):
                    changed_fns += 1
                    self.analyses.invalidate(fn, preserve=pass_.preserves)
        self.analyses.metrics.bump(f"pm.pass.{pass_.name}.runs")
        if changed_fns:
            self.analyses.metrics.bump(f"pm.pass.{pass_.name}.changed",
                                       changed_fns)
        return results


# ----------------------------------------------------------------------
# The repo's passes, wrapped.
# ----------------------------------------------------------------------
DCE_PASS = FunctionPass(
    name="dce",
    phase="pipeline.dce",
    run=lambda fn, am: eliminate_dead_code(fn, am),
    preserves=frozenset({"cfg", "loops", "liveness"}))

PEEPHOLE_PASS = FunctionPass(
    name="peephole",
    phase="pipeline.peephole",
    run=lambda fn, am: remove_redundant_moves(fn),
    preserves=frozenset({"cfg", "loops"}))

SPILL_CLEANUP_PASS = FunctionPass(
    name="spill_cleanup",
    phase="pipeline.spill_cleanup",
    run=lambda fn, am: cleanup_spill_code(fn, am),
    preserves=frozenset({"cfg", "loops"}),
    changed=lambda s: bool(s.loads_forwarded or s.stores_removed))


def verify_pass(machine: MachineDescription) -> FunctionPass:
    """The structural post-allocation verifier as a (read-only) pass."""
    return FunctionPass(
        name="verify",
        phase="pipeline.verify",
        run=lambda fn, am: verify_allocation(fn, machine),
        preserves=PRESERVE_ALL,
        mutates=False)


def verify_dataflow_pass(machine: MachineDescription,
                         snapshots: dict[str, OperandSnapshot]) -> FunctionPass:
    """The path-sensitive dataflow verifier as a (read-only) pass.

    Pulls each function's post-allocation CFG through the cache, where
    the spill-cleanup pass running next will hit it.
    """
    return FunctionPass(
        name="verify_dataflow",
        phase="pipeline.verify_dataflow",
        run=lambda fn, am: verify_dataflow(
            fn, machine, snapshots[fn.name],
            cfg=am.cfg(fn) if am is not None else None),
        preserves=PRESERVE_ALL,
        mutates=False)


def sum_spill_stats(results: list[SpillCleanupStats]) -> SpillCleanupStats:
    """Fold per-function spill-cleanup results into module totals."""
    total = SpillCleanupStats()
    for stats in results:
        total = total + stats
    return total
