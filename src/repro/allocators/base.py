"""Shared allocator interface, setup analyses, and frame machinery.

The paper's experimental methodology (Section 3) keeps everything except
the central assignment algorithm identical between allocators: shared CFG
construction, liveness and loop analysis, shared spill-code utilities,
and a shared callee-saved save/restore convention.  This module is that
shared layer.

Timing discipline: :func:`allocate_module` computes the shared analyses
*outside* the timed region and accumulates only the allocator core's time
in :attr:`AllocationStats.alloc_seconds`, exactly as the paper's Table 3
times "only the core parts of the allocators ... after setup activities
common to both allocators".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cfg.cfg import CFG
from repro.ir.block import BasicBlock
from repro.cfg.loops import LoopInfo
from repro.dataflow.liveness import LivenessInfo
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.module import Module
from repro.ir.temp import PhysReg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.lifetimes.intervals import LifetimeTable
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import NULL_TRACER, Tracer
from repro.spill.context import DEFAULT_CONTEXT, AllocationContext
from repro.spill.emitter import SpillCodeEmitter
from repro.target.machine import MachineDescription

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pm -> base)
    from repro.pm.session import CompilationSession


class AllocationError(RuntimeError):
    """Raised when a function cannot be allocated on the target — in
    practice only when the register file is too small to hold one
    instruction's operands plus the calling convention."""


@dataclass(eq=False)
class SharedAnalyses:
    """The precomputed per-function inputs every allocator receives
    (built by :meth:`repro.pm.analysis.AnalysisManager.shared`)."""

    cfg: CFG
    liveness: LivenessInfo
    loops: LoopInfo
    lifetimes: LifetimeTable


@dataclass
class AllocationStats:
    """What one allocator run did to one module.

    Static counts only — dynamic counts come from the simulator.

    Attributes:
        allocator: Name of the algorithm.
        alloc_seconds: Core allocation time, summed over functions
            (setup analyses excluded, per Section 3.2).
        candidates: Register candidates (temporaries) per function.
        spilled_temps: Temporaries that ever lived in memory.
        spill_static: Static count of inserted spill instructions by
            ``(phase, kind)``.
        moves_eliminated: Moves whose source and destination the
            allocator managed to place in the same register.
        callee_saved_used: Callee-saved registers requiring prologue
            save/restore, per function.
        coloring_iterations: Build/color rounds (coloring allocator only).
        dataflow_iterations: Fixed-point passes of the resolution
            consistency dataflow (binpacking only).
        interference_edges: Edges in the final interference graph per
            function (coloring allocator only).
        trace: The allocation-event tracer instrumented sites emit into
            (the disabled :data:`~repro.obs.trace.NULL_TRACER` by
            default; see :mod:`repro.obs.trace`).
        profiler: The phase profiler that measured this run;
            ``alloc_seconds`` is its ``allocate`` phase.
        metrics: The counters registry this run published into
            (see :mod:`repro.obs.metrics`).
    """

    allocator: str
    alloc_seconds: float = 0.0
    candidates: dict[str, int] = field(default_factory=dict)
    spilled_temps: dict[str, int] = field(default_factory=dict)
    spill_static: dict[tuple[SpillPhase, str], int] = field(default_factory=dict)
    moves_eliminated: int = 0
    callee_saved_used: dict[str, int] = field(default_factory=dict)
    coloring_iterations: dict[str, int] = field(default_factory=dict)
    dataflow_iterations: dict[str, int] = field(default_factory=dict)
    interference_edges: dict[str, int] = field(default_factory=dict)
    trace: Tracer = field(default=NULL_TRACER, repr=False)
    profiler: PhaseProfiler = field(default_factory=PhaseProfiler, repr=False)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry,
                                     repr=False)

    def total_candidates(self) -> int:
        """Register candidates across the module."""
        return sum(self.candidates.values())

    def bump_spill(self, phase: SpillPhase, kind: str, count: int = 1) -> None:
        """Accumulate a static spill-code count (and its metric)."""
        key = (phase, kind)
        self.spill_static[key] = self.spill_static.get(key, 0) + count
        self.metrics.bump(f"alloc.spill.{phase.value}.{kind}", count)


class SpillSlots:
    """Assigns each spilled temporary its *memory home* (Section 2.3)."""

    def __init__(self) -> None:
        self._slots: dict[Temp, StackSlot] = {}
        self._next = 0

    def home(self, temp: Temp) -> StackSlot:
        """The (lazily created) stack slot of ``temp``."""
        slot = self._slots.get(temp)
        if slot is None:
            slot = StackSlot(self._next, temp.regclass)
            self._next += 1
            self._slots[temp] = slot
        return slot

    def has_home(self, temp: Temp) -> bool:
        """Whether ``temp`` already has a memory home (without creating
        one) — i.e. a spill store has been emitted or postponed for it."""
        return temp in self._slots

    def fresh(self, regclass: RegClass) -> StackSlot:
        """An anonymous slot (callee saves)."""
        slot = StackSlot(self._next, regclass)
        self._next += 1
        return slot

    def __len__(self) -> int:
        return self._next

    def spilled_temps(self) -> list[Temp]:
        """Temporaries that were ever given a memory home."""
        return list(self._slots)


def eviction_priority(table: LifetimeTable, temp: Temp, point: int) -> float:
    """The spill-choice priority of Section 2.3.

    "Spilling decisions are based on a priority heuristic that compares
    the distance to each temporary's next reference, weighted by the
    depth of the loop it occurs in, picking the lowest-priority temporary
    for eviction."  Higher return value = more worth keeping in a
    register.  A temporary with no future reference has priority 0 (the
    ideal eviction victim).
    """
    ref = table.next_ref_at_or_after(temp, point)
    if ref is None:
        return 0.0
    ref_point, depth = ref
    distance = max(ref_point - point, 1)
    return float(10 ** min(depth, 12)) / distance


def insert_callee_saved_code(fn: Function, machine: MachineDescription,
                             slots: SpillSlots) -> list[PhysReg]:
    """Save/restore every callee-saved register the allocated code writes.

    Saves go at the very top of the entry block, restores immediately
    before every ``ret``.  Both carry the ``PROLOGUE`` tag: the paper's
    spill statistics cover "allocation candidates only", so this
    bookkeeping is excluded from Figure 3 but still executes (and is
    counted) in the dynamic totals.
    """
    written: set[PhysReg] = set()
    for instr in fn.instructions():
        for reg in instr.defs:
            if isinstance(reg, PhysReg) and machine.is_callee_saved(reg):
                written.add(reg)
    used = sorted(written)
    if not used:
        return []
    saved_slots = {reg: slots.fresh(reg.regclass) for reg in used}
    saves = [Instr(Op.STS, uses=[reg], slot=saved_slots[reg],
                   spill_phase=SpillPhase.PROLOGUE) for reg in used]
    entry = fn.entry
    targets = {t for instr in fn.instructions() for t in instr.targets}
    if entry.label in targets:
        # The entry block doubles as a branch target (e.g. a loop header):
        # saves must execute exactly once, so they get their own block.
        prologue = BasicBlock(fn.new_label("prologue"))
        prologue.instrs = [*saves, Instr(Op.JMP, targets=[entry.label])]
        fn.insert_block(0, prologue)
    else:
        entry.insert_at_top(saves)
    for block in fn.blocks:
        if block.terminator.op is not Op.RET:
            continue
        restores = [Instr(Op.LDS, defs=[reg], slot=saved_slots[reg],
                          spill_phase=SpillPhase.PROLOGUE) for reg in used]
        block.insert_before_terminator(restores)
    return used


class RegisterAllocator(abc.ABC):
    """Interface every allocator implements.

    Subclasses rewrite the function in place (temporaries replaced by
    physical registers, spill code inserted) and record what they did in
    ``stats``.  Callee-saved save/restore is handled by the shared driver
    after the core returns.
    """

    #: Short name used in reports and benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def allocate_function(self, fn: Function, machine: MachineDescription,
                          shared: SharedAnalyses, emitter: SpillCodeEmitter,
                          stats: AllocationStats) -> None:
        """Allocate registers for one function, in place.

        Spill code goes through ``emitter`` (which owns the slot table
        and the static spill accounting); the emitter's context also
        supplies the register selection order and the stress hooks.
        """

    def fresh(self) -> "RegisterAllocator":
        """A new instance with the same configuration (allocators may keep
        per-run scratch state)."""
        return self


def allocate_module(module: Module, allocator: RegisterAllocator,
                    machine: MachineDescription, *,
                    trace: Tracer | None = None,
                    profiler: PhaseProfiler | None = None,
                    metrics: MetricsRegistry | None = None,
                    session: "CompilationSession | None" = None,
                    context: AllocationContext | None = None
                    ) -> AllocationStats:
    """Run ``allocator`` over every function of ``module`` (in place).

    Shared analyses run under ``setup.*`` phases, outside the timed core;
    the core runs under the ``allocate`` phase of the stats' profiler and
    ``alloc_seconds`` is that phase's measurement (Table 3's number).
    The optional ``trace``/``profiler``/``metrics`` plug external
    observability in; by default tracing is disabled and the profiler
    and metrics registry are fresh per run (reachable via the stats).

    The shared analyses come from an
    :class:`~repro.pm.analysis.AnalysisManager`: the ``session``'s
    (:class:`repro.pm.session.CompilationSession`) when given — so they
    are transferred from the base module when this module is one of its
    clones — or else a private one.  Each function is invalidated in that
    cache right after allocation rewrites it, per the invalidation
    contract (the allocators insert spill code and split edges, so
    nothing survives).

    ``context`` (default: the inert :data:`~repro.spill.DEFAULT_CONTEXT`)
    configures rematerialization and the seeded stress modes; it is
    handed to every allocator through the per-function
    :class:`~repro.spill.SpillCodeEmitter`.
    """
    if context is None:
        context = DEFAULT_CONTEXT
    # `is None` checks, not `or`: an empty MetricsRegistry is falsy.
    stats = AllocationStats(
        allocator=allocator.name,
        trace=NULL_TRACER if trace is None else trace,
        profiler=PhaseProfiler() if profiler is None else profiler,
        metrics=MetricsRegistry() if metrics is None else metrics)
    if session is not None:
        analyses = session.analyses
    else:
        from repro.pm.analysis import AnalysisManager  # pm imports this module
        analyses = AnalysisManager(machine)
    tr = stats.trace
    prof = stats.profiler
    for fn in module.functions.values():
        if tr.enabled:
            tr.set_location(fn=fn.name)
        with prof.phase("setup"):
            shared = analyses.shared(fn, prof)
        slots = SpillSlots()
        emitter = SpillCodeEmitter(fn, machine, context, slots, stats)
        stats.candidates[fn.name] = len(fn.all_temps())
        with prof.phase("allocate") as core:
            allocator.allocate_function(fn, machine, shared, emitter, stats)
        stats.alloc_seconds += core.seconds
        with prof.phase("frame.callee_saved"):
            used = insert_callee_saved_code(fn, machine, slots)
        analyses.invalidate(fn)
        stats.callee_saved_used[fn.name] = len(used)
        stats.spilled_temps[fn.name] = len(slots.spilled_temps())
        stats.metrics.bump("alloc.candidates", stats.candidates[fn.name])
        stats.metrics.bump("alloc.spilled_temps", stats.spilled_temps[fn.name])
        stats.metrics.bump("alloc.callee_saved_used", len(used))
    stats.metrics.set("alloc.seconds", stats.alloc_seconds)
    stats.metrics.bump("alloc.functions", len(module.functions))
    return stats
