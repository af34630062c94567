"""Compilation sessions: one pristine module, many cheap allocator runs.

A :class:`CompilationSession` is the pipeline's one entry point.  It
owns the pre-allocation module, the DCE'd form of it, and every setup
analysis.  Each :meth:`run` then costs one structural
:meth:`~repro.ir.module.Module.clone` (no ``copy.deepcopy``) plus the
allocator core — the shared analyses are computed at most once per
function per session and *transferred* onto each run's clone, which the
session links to the function it was copied from (see
:mod:`repro.pm.analysis`).

This is the paper's Section 3.2 methodology made load-bearing: Table 3
times "only the core parts of the allocators ... after setup activities
common to both allocators", and the session is the object that makes the
setup activities actually common — the comparison driver, the fuzz
harness's ablation grid, and the benchmark harness all run every
allocator out of one session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.allocators.base import (AllocationStats, RegisterAllocator,
                                   allocate_module)
from repro.ir.module import Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import Tracer
from repro.passes.spillopt import SpillCleanupStats
from repro.passes.verify_alloc import snapshot_module
from repro.pm.analysis import AnalysisManager
from repro.pm.passes import (DCE_PASS, PEEPHOLE_PASS, SPILL_CLEANUP_PASS,
                             PassManager, sum_spill_stats, verify_dataflow_pass,
                             verify_pass)
from repro.sim.machine import OracleMismatch, SimOutcome, mismatch, simulate
from repro.spill import AllocationContext
from repro.target.machine import MachineDescription


@dataclass(eq=False)
class PipelineResult:
    """An allocated module plus everything the evaluation reports on it.

    The run's observability objects ride on ``stats``: ``stats.trace``
    (event tracer), ``stats.profiler`` (per-phase wall clock covering the
    whole pipeline, not just allocation), ``stats.metrics`` (the counters
    every layer published into).  ``outcome``, set by a checked run of a
    module with ``main``, is the allocated module's simulation.
    """

    module: Module
    stats: AllocationStats
    dce_removed: int
    moves_removed: int
    spill_cleanup: SpillCleanupStats | None = None
    outcome: SimOutcome | None = None


@dataclass(eq=False)
class CompilationSession:
    """Shared state for repeated allocator runs over one module.
    :meth:`checked_run` is :meth:`run` plus the differential oracle
    against the unallocated module, simulated once per session.

    Attributes:
        module: The pristine pre-allocation module.  The session never
            mutates it; every run works on a clone.
        machine: The target description.
        metrics: Session-level registry the analysis cache reports into
            (``pm.analysis.*`` — hits, computes, transfers,
            invalidations).  Per-run counters land in each run's own
            registry, on its stats.
        analyses: The memoizing analysis manager (shared by every run).
        passes: The pass manager enforcing the invalidation contract.
    """

    module: Module
    machine: MachineDescription
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    analyses: AnalysisManager = field(init=False)
    passes: PassManager = field(init=False)
    # (module, dce_removed) per dce flag; built lazily, then reused by
    # every run of the session.
    _prepared: dict[bool, tuple[Module, int]] = field(init=False,
                                                      default_factory=dict)
    # The pristine module's simulation, the oracle of every checked run.
    _reference: SimOutcome | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.analyses = AnalysisManager(self.machine, metrics=self.metrics)
        self.passes = PassManager(self.analyses)

    # ------------------------------------------------------------------
    # The shared pre-allocation form.
    # ------------------------------------------------------------------
    def prepared(self, dce: bool = True) -> tuple[Module, int]:
        """The session's pre-allocation base module and its DCE removals.

        With ``dce`` the base is a clone of the pristine module with
        dead-code elimination applied — computed on first request, reused
        by every later run (the old pipeline re-ran DCE per allocator).
        Without, the base is the pristine module itself.  Either way the
        base is never handed out for mutation: runs clone it.
        """
        hit = self._prepared.get(dce)
        if hit is not None:
            return hit
        if not dce:
            prepared = (self.module, 0)
        else:
            working = self.clone_base()
            removed = sum(self.passes.run(DCE_PASS, working))
            prepared = (working, removed)
        self._prepared[dce] = prepared
        return prepared

    def clone_base(self, base: Module | None = None) -> Module:
        """A structural clone of ``base`` (default: the pristine module)
        with every cloned function linked into the analysis cache, so
        analyses computed on the base transfer instead of recomputing.
        The one clone-and-link dance every run-shaped caller needs —
        :meth:`run`, :meth:`prepared`, and the suite's timing protocol
        all go through here."""
        if base is None:
            base = self.module
        working = base.clone()
        for name, fn in working.functions.items():
            self.analyses.link_clone(base.functions[name], fn)
        return working

    # ------------------------------------------------------------------
    # One full pipeline run.
    # ------------------------------------------------------------------
    def run(self, allocator: RegisterAllocator, *,
            spill_cleanup: bool = False, verify_dataflow: bool = False,
            trace: Tracer | None = None,
            profiler: PhaseProfiler | None = None,
            metrics: MetricsRegistry | None = None,
            context: "AllocationContext | None" = None) -> PipelineResult:
        """Clone the prepared module, run DCE → allocation → peephole,
        verify, report.

        This is the paper's Section 3 pipeline with everything except
        the allocator held fixed.  Dead-code elimination, the peephole
        and the structural post-allocation verifier always run.

        ``spill_cleanup`` additionally runs the post-allocation spill-code
        cleanup the paper sketches as future work (store-to-load
        forwarding and dead spill-store elimination) — off by default so
        measurements reflect the paper's pipeline, on for the extension
        ablation.

        ``verify_dataflow`` additionally runs the path-sensitive dataflow
        verifier (:func:`repro.passes.verify_alloc.verify_dataflow`) right
        after allocation — before spill cleanup and the peephole, which rewrite
        the allocator's output.  It assumes every source temporary is
        defined before use on every path, which hand-written IR need not
        guarantee, so it stays opt-in.

        ``trace``/``profiler``/``metrics`` plug per-run observability
        into every stage (see :mod:`repro.obs`); defaults are
        no-op/fresh objects, reachable afterwards through the returned
        ``stats``.  The session's analysis-cache counters
        (``pm.analysis.*``) land in the session's own ``metrics``; pass
        the same registry to both to see every counter in one place.

        ``context`` (an :class:`~repro.spill.AllocationContext`) switches
        on rematerialization and the seeded stress modes; omitted, the
        run uses the inert :data:`~repro.spill.DEFAULT_CONTEXT` and
        reproduces the paper's pipeline exactly.  Session analyses are
        context-independent, so runs under different contexts still
        share one cache.
        """
        prof = profiler or PhaseProfiler()
        with prof.phase("pipeline.dce"):
            # Cached after the session's first dce run; the phase stays in
            # every run's profile so per-run timings remain comparable —
            # on a cache hit it simply measures (almost) nothing.
            base, dce_removed = self.prepared()
        working = self.clone_base(base)
        snapshots = snapshot_module(working) if verify_dataflow else None
        stats = allocate_module(working, allocator.fresh(), self.machine,
                                trace=trace, profiler=prof, metrics=metrics,
                                session=self, context=context)
        if snapshots is not None:
            self.passes.run(verify_dataflow_pass(self.machine, snapshots),
                            working, profiler=prof)
        if spill_cleanup:
            cleanup = sum_spill_stats(
                self.passes.run(SPILL_CLEANUP_PASS, working, profiler=prof))
        else:
            with prof.phase("pipeline.spill_cleanup"):
                cleanup = SpillCleanupStats()
        moves_removed = sum(
            self.passes.run(PEEPHOLE_PASS, working, profiler=prof))
        self.passes.run(verify_pass(self.machine), working, profiler=prof)
        stats.metrics.bump("pipeline.dce.removed", dce_removed)
        stats.metrics.bump("pipeline.peephole.moves_removed", moves_removed)
        if spill_cleanup:
            stats.metrics.bump("pipeline.spill_cleanup.stores_removed",
                               cleanup.stores_removed)
            stats.metrics.bump("pipeline.spill_cleanup.loads_forwarded",
                               cleanup.loads_forwarded)
        return PipelineResult(working, stats, dce_removed, moves_removed,
                              cleanup)

    def checked_run(self, allocator: RegisterAllocator, *,
                    spill_cleanup: bool = False,
                    profiler: PhaseProfiler | None = None,
                    metrics: MetricsRegistry | None = None,
                    context: "AllocationContext | None" = None
                    ) -> PipelineResult:
        """:meth:`run`, then simulate the allocated module into the run's
        metrics (``sim.*``) and raise :class:`OracleMismatch` when
        :func:`~repro.sim.machine.mismatch` finds its run differs from
        the unallocated module's.  A module without ``main`` cannot run:
        it is allocated and returned unchecked (``outcome`` is ``None``).
        """
        runnable = "main" in self.module.functions
        if runnable and self._reference is None:
            self._reference = simulate(self.module, self.machine)
        result = self.run(allocator, spill_cleanup=spill_cleanup,
                          profiler=profiler, metrics=metrics,
                          context=context)
        if runnable:
            result.outcome = simulate(result.module, self.machine,
                                      metrics=result.stats.metrics)
            problem = mismatch(self._reference, result.outcome)
            if problem is not None:
                raise OracleMismatch("allocation changed observable "
                                     f"behaviour: {problem}")
        return result
