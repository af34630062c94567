"""Batch compilation: fan allocator runs out over a process pool.

Two execution strategies, chosen by ``jobs``:

* **serial** (``jobs <= 1``): every run shares one
  :class:`~repro.pm.session.CompilationSession`, so the setup analyses
  are computed once per function and transferred to each run's clone —
  the cheapest total work.
* **parallel** (``jobs > 1``): runs are dispatched to worker processes
  via :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker
  opens its own session (analysis caches are per-process), trading
  repeated setup for wall-clock speedup on multi-function batches.

Both strategies produce *byte-identical* allocated modules: the
allocators are deterministic, sessions only change where analyses are
computed (never their values — the transfer contract), and
``Executor.map`` preserves submission order.  CI enforces this with
``tools/check_batch_determinism.py``.

Workers are top-level functions and payloads are plain picklable data
(modules, machine descriptions, allocator *names* — never allocator
objects or tracers), so the pool works under any start method; tracing
callers must stay serial, and :func:`compare_allocators` enforces that.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.allocators import ALLOCATOR_FACTORIES, make_allocator
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.spill import AllocationContext
from repro.target import MachineDescription, machine_from_spec


def run_batch(worker: Callable[[Any], Any], payloads: Sequence[Any], *,
              jobs: int = 1) -> list[Any]:
    """Apply ``worker`` to every payload; results in payload order.

    ``jobs <= 1`` (or a single payload) runs inline — no pool, no
    pickling, exceptions propagate directly.  Otherwise up to ``jobs``
    worker processes run concurrently; ``worker`` must be a module-level
    function and the payloads picklable.  A worker exception propagates
    to the caller (raised by ``Executor.map``), cancelling the batch.
    """
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(worker, payloads))


@dataclass
class CompareCell:
    """One allocator's row of the Table-1-style comparison — plain data,
    safe to ship back from a worker process.

    ``module_text`` is the printed allocated module: the determinism
    check compares these byte-for-byte between serial and parallel runs
    (timing fields obviously differ run to run, so they are excluded
    from any identity claim).
    """

    allocator: str
    dynamic_instructions: int
    cycles: int
    spill_fraction: float
    alloc_seconds: float
    output: list
    result: int | float | None
    module_text: str


def _cell(session: CompilationSession, name: str, spill_cleanup: bool,
          trace: Tracer | None = None,
          context: AllocationContext | None = None) -> CompareCell:
    result = session.run(make_allocator(name), spill_cleanup=spill_cleanup,
                         trace=trace, context=context)
    outcome = simulate(result.module, session.machine)
    return CompareCell(
        allocator=name,
        dynamic_instructions=outcome.dynamic_instructions,
        cycles=outcome.cycles,
        spill_fraction=outcome.spill_fraction(),
        alloc_seconds=result.stats.alloc_seconds,
        output=list(outcome.output),
        result=outcome.result,
        module_text=print_module(result.module))


def _compare_worker(payload) -> CompareCell:
    """Process-pool entry: one allocator on a private session."""
    module, machine, name, spill_cleanup, context = payload
    return _cell(CompilationSession(module, machine), name, spill_cleanup,
                 context=context)


def allocation_artifact(payload: dict) -> dict:
    """Process-pool worker: one allocation-service request → one plain
    artifact dict (the unit the serving cache persists).

    ``payload`` is JSON-shaped data — exactly what crossed the wire —
    with ``ir`` (printed IR text) *or* ``minic`` (source), plus
    ``machine`` (spec string), ``allocator``, ``context`` (canonical
    :meth:`~repro.spill.AllocationContext.describe` form), and
    ``spill_cleanup``.  It allocates through
    :meth:`CompilationSession.checked_run`; the result carries the
    allocated module text, the metrics snapshot and the phase profile,
    plus, for a module with ``main``, its checked run's
    :func:`~repro.stats.spill.quality_figures` — everything
    :mod:`repro.serve` streams back.

    Failures are *returned*, not raised (``{"error": {"code",
    "message"}}``), so a bad request cannot poison the worker process
    or cancel a batch; the pool stays healthy for the next request.
    Pure: no store access, no global state — safe under any pool start
    method, and byte-deterministic for identical payloads.
    """
    from repro.ir.parser import parse_module
    from repro.lang import compile_minic
    from repro.obs.profile import PhaseProfiler
    from repro.stats.spill import quality_figures

    def failure(code: str, exc: BaseException) -> dict:
        return {"error": {"code": code,
                          "message": f"{type(exc).__name__}: {exc}"}}

    try:
        machine = machine_from_spec(payload.get("machine", "alpha"))
        context = AllocationContext.parse(payload.get("context", ""))
        allocator = make_allocator(payload.get("allocator", "second-chance"))
    except Exception as exc:
        return failure("bad-request", exc)
    try:
        if payload.get("ir"):
            module = parse_module(payload["ir"])
        else:
            module = compile_minic(payload.get("minic", ""), machine)
    except Exception as exc:
        return failure("parse-error", exc)
    try:
        metrics = MetricsRegistry()
        profiler = PhaseProfiler()
        result = CompilationSession(module, machine).checked_run(
            allocator, spill_cleanup=bool(payload.get("spill_cleanup")),
            profiler=profiler, metrics=metrics, context=context)
        artifact = {
            "code": print_module(result.module),
            "allocator": payload.get("allocator", "second-chance"),
            "machine": payload.get("machine", "alpha"),
            "context": context.describe(),
            "spill_cleanup": bool(payload.get("spill_cleanup")),
            "alloc_seconds": round(result.stats.alloc_seconds, 6),
            "dce_removed": result.dce_removed,
            "moves_removed": result.moves_removed,
            "metrics": metrics.snapshot(),
            "profile": profiler.summary(),
        }
        if result.outcome is not None:
            artifact.update(quality_figures(result.outcome))
        return artifact
    except Exception as exc:
        return failure("alloc-error", exc)


def compare_allocators(module: Module, machine: MachineDescription, *,
                       names: Sequence[str] | None = None,
                       spill_cleanup: bool = False, jobs: int = 1,
                       trace: Tracer | None = None,
                       context: AllocationContext | None = None,
                       ) -> list[CompareCell]:
    """Run every named allocator over ``module``; one cell per allocator.

    The workhorse behind ``repro compare`` / ``repro bench``.  With
    ``jobs > 1`` and no tracer, allocators run in parallel worker
    processes; otherwise they share one serial session (a tracer pins the
    run serial — sinks hold open streams that cannot cross processes).
    Cells come back in ``names`` order under either strategy.
    """
    names = list(names if names is not None else ALLOCATOR_FACTORIES)
    if jobs > 1 and trace is None and len(names) > 1:
        payloads = [(module, machine, name, spill_cleanup, context)
                    for name in names]
        return run_batch(_compare_worker, payloads, jobs=jobs)
    session = CompilationSession(module, machine)
    return [_cell(session, name, spill_cleanup, trace, context)
            for name in names]
