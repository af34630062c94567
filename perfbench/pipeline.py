"""``CompilationSession.run`` taken apart, one span per layer call.

The traced run allocates through :func:`prepare` and :func:`allocate`
instead of ``session.run``.  They make the public calls of
``CompilationSession.run`` with its defaults (DCE, peephole, structural
verify; no spill cleanup, no dataflow verify) and compute the same
analyses, only asking for some earlier, so the allocated module is
byte-identical; the traced run checks that against the untraced path on
every module.
"""

from __future__ import annotations

from collections import Counter

from repro.allocators import allocate_module, make_allocator
from repro.ir.module import Module
from repro.pm.passes import PEEPHOLE_PASS, verify_pass
from repro.pm.session import CompilationSession

from spans import Spans


def prepare(spans: Spans, session: CompilationSession) -> Module:
    """Build the session's DCE'd base module and warm its shared setup
    analyses (the paper's common setup), one span per analysis.

    DCE's first round queries the CFG and liveness of the pristine
    functions (its clone is linked to them), so those are computed first
    under their own spans; later rounds' liveness is DCE's own work.
    """
    analyses = session.analyses
    for fn in session.module.functions.values():
        with spans.span("cfg.build"):
            analyses.cfg(fn)
        with spans.span("dataflow.liveness"):
            analyses.liveness(fn)
    with spans.span("passes.dce"):
        base, _removed = session.prepared(True)
    for fn in base.functions.values():
        with spans.span("cfg.build"):
            analyses.cfg(fn)
        with spans.span("dataflow.liveness"):
            analyses.liveness(fn)
        with spans.span("cfg.loops"):
            analyses.loops(fn)
        with spans.span("lifetimes.compute"):
            analyses.lifetimes(fn)
    return base


def allocate(spans: Spans, session: CompilationSession, base: Module,
             name: str, counts: Counter) -> Module:
    """One allocator run on a clone of ``base`` (warm session), then the
    post-passes; adds the run's ``AllocationStats`` counts to ``counts``."""
    with spans.span("ir.clone"):
        working = session.clone_base(base)
    with spans.span(f"allocators.{name}.core"):
        stats = allocate_module(working, make_allocator(name).fresh(),
                                session.machine, session=session)
    with spans.span("passes.peephole"):
        session.passes.run(PEEPHOLE_PASS, working)
    with spans.span("passes.verify"):
        session.passes.run(verify_pass(session.machine), working)
    counts["allocators.spilled_temps"] += sum(stats.spilled_temps.values())
    counts["allocators.moves_eliminated"] += stats.moves_eliminated
    counts["allocators.coloring.rounds"] += sum(
        stats.coloring_iterations.values())
    counts["allocators.coloring.edges"] += sum(
        stats.interference_edges.values())
    counts["allocators.binpack.dataflow_iters"] += sum(
        stats.dataflow_iterations.values())
    counts["allocators.poletto.restarts"] += int(
        stats.metrics.get("linearscan.restarts"))
    counts["ir.instrs_allocated"] += instruction_count(working)
    return working


def session_counts(session: CompilationSession, counts: Counter) -> None:
    """Fold one finished session's analysis-cache traffic into ``counts``."""
    counts["pm.analysis.hits"] += int(session.metrics.get("pm.analysis.hits"))
    counts["pm.analysis.computes"] += int(
        session.metrics.get("pm.analysis.computed"))


def instruction_count(module: Module) -> int:
    return sum(fn.instruction_count() for fn in module.functions.values())
