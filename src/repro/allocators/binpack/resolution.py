"""Resolution: reconciling the linear scan with the real CFG (Section 2.4).

The scan records where every cross-block temporary lived at the top and
bottom of each block.  For each CFG edge ``p -> s`` and each temporary
live across it, the three mismatch cases of Section 2.4 are repaired:

* register at ``p`` bottom, memory at ``s`` top → **store** (elided when
  the register and memory home are known consistent);
* memory → register → **load**;
* two different registers → **move**, with the whole edge's moves treated
  as one parallel copy and sequentialized "in the semantically-correct
  order, even in the case where two (or more) temporaries swap their
  allocated registers" — cycles are broken through the temporary's own
  memory home, which needs no scratch register.

Placement follows the paper's footnote: top of a single-predecessor
head, bottom of a single-successor tail, otherwise the (critical) edge is
split.  One extra guard the footnote leaves implicit: code placed at a
block bottom sits *before* the terminator, so if the terminator reads a
register the edge code writes, we split the edge instead.

Consistency dataflow
--------------------

Stores elided during the scan (and at edges) relied on ``ARE_CONSISTENT``
bits whose truth may be path-dependent.  The scan recorded, per block,
``USED_CONSISTENCY`` (gen: relied on a non-local consistency assumption)
and ``WROTE_TR`` (kill: the register was rewritten).  We solve the
paper's equations

    USED_C_out(b) = union of USED_C_in(s) over successors s
    USED_C_in(b)  = USED_CONSISTENCY(b) | (USED_C_out(b) & ~WROTE_TR(b))

and insert a store on each edge ``p -> s`` where ``USED_C_in(s)`` needs
``t`` consistent but ``ARE_CONSISTENT(p)`` does not deliver it.  One
refinement over the paper's text: an *edge* store elided because
``ARE_CONSISTENT(p)`` was set is itself a non-local reliance when the
bit was inherited rather than established in ``p``, so such edges
contribute gen bits too (computed in a pre-pass before the dataflow).
"""

from __future__ import annotations

from repro.allocators.base import AllocationStats, SharedAnalyses
from repro.allocators.binpack.state import MEM, BlockRecord, Location, ScanState
from repro.cfg.cfg import split_edge
from repro.dataflow.framework import DataflowProblem, solve
from repro.dataflow.liveness import LivenessInfo
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.obs.trace import EventKind
from repro.spill.emitter import SpillCodeEmitter
from repro.target.machine import MachineDescription


def _move_op(cls: RegClass) -> Op:
    return Op.MOV if cls is RegClass.GPR else Op.FMOV


def sequentialize_moves(moves: list[tuple[PhysReg, PhysReg, Temp]],
                        emitter: SpillCodeEmitter,
                        stats: AllocationStats) -> list[Instr]:
    """Order one edge's parallel register moves; break cycles via memory.

    ``moves`` holds ``(src, dst, temp)`` triples with pairwise-distinct
    destinations (and pairwise-distinct sources).  A move is safe to emit
    once no pending move still reads its destination; when only cycles
    remain, one temp detours through its own memory home (store now, load
    after the rest of its cycle has drained).
    """
    tr = stats.trace
    pending = [(src, dst, temp) for src, dst, temp in moves if src != dst]
    out: list[Instr] = []
    deferred: list[Instr] = []
    while pending:
        emitted = False
        for i, (src, dst, temp) in enumerate(pending):
            blocked = any(dst == other_src
                          for j, (other_src, _, _) in enumerate(pending)
                          if j != i)
            if blocked:
                continue
            out.append(emitter.move(_move_op(temp.regclass), dst, src,
                                    SpillPhase.RESOLVE))
            if tr.enabled:
                tr.emit(EventKind.RESOLUTION_EDGE_FIX, temp=temp, reg=dst,
                        detail="move")
            pending.pop(i)
            emitted = True
            break
        if not emitted:
            src, dst, temp = pending.pop(0)
            out.append(emitter.store(temp, src, SpillPhase.RESOLVE))
            deferred.append(emitter.reload(temp, dst, SpillPhase.RESOLVE))
            if tr.enabled:
                tr.emit(EventKind.RESOLUTION_EDGE_FIX, temp=temp, reg=src,
                        detail="store (cycle break)")
                tr.emit(EventKind.RESOLUTION_EDGE_FIX, temp=temp, reg=dst,
                        detail="load (cycle break)")
    out.extend(deferred)
    return out


def edge_traffic(records: dict[str, BlockRecord], liveness: LivenessInfo,
                 pred: str, succ: str) -> list[tuple[Temp, Location, Location]]:
    """The location pair of every temporary carried across ``pred -> succ``.

    A temporary live into ``succ`` can be absent from a boundary record:
    the scan only records temporaries it actually saw at that boundary,
    and a conservatively-live temporary (e.g. one whose defs all sit on
    other paths, kept live by the path-insensitive dataflow) never gets an
    entry.  A temporary the scan never placed holds no register at that
    boundary, so its location defaults to its memory home rather than
    raising ``KeyError``.
    """
    bottom = records[pred].bottom_loc
    top = records[succ].top_loc
    return [(temp, bottom.get(temp, MEM), top.get(temp, MEM))
            for temp in liveness.live_in_temps(succ)]


def _place_batch(fn: Function, shared: SharedAnalyses, pred: str, succ: str,
                 batch: list[Instr],
                 bottom_written: dict[str, set[PhysReg]]) -> None:
    """Put the edge's repair code where the paper's footnote says.

    ``bottom_written`` accumulates, per block, the registers written by
    batches already placed at that block's bottom this resolution round.
    """
    cfg = shared.cfg
    # The entry block has an implicit predecessor (function entry), so
    # edge code may never be hoisted to its top.
    if cfg.in_degree(succ) == 1 and succ != cfg.entry:
        fn.block(succ).insert_at_top(batch)
        return
    if cfg.out_degree(pred) == 1:
        block = fn.block(pred)
        term = block.terminator
        written = {reg for instr in batch for reg in instr.defs}
        read = {reg for instr in batch for reg in instr.uses}
        # Code placed at a block bottom sits *before* the terminator, so
        # three hazards force a split instead: the terminator reads a
        # register the batch writes, the terminator defines a register the
        # batch reads (the batch would see the not-yet-written value), or
        # an earlier batch at this bottom already wrote a register this
        # batch touches (the stacked batches would observe each other).
        prior = bottom_written.get(pred, frozenset())
        hazard = (any(use in written for use in term.uses)
                  or any(d in read for d in term.defs)
                  or bool(prior & (written | read)))
        if not hazard:
            block.insert_before_terminator(batch)
            bottom_written.setdefault(pred, set()).update(written)
            return
    new_block = split_edge(fn, cfg, pred, succ)
    new_block.insert_at_top(batch)


def resolve_edges(fn: Function, machine: MachineDescription,
                  shared: SharedAnalyses, state: ScanState,
                  emitter: SpillCodeEmitter, stats: AllocationStats, *,
                  avoid_consistent_stores: bool,
                  run_dataflow: bool) -> int:
    """Run resolution over every CFG edge.  Returns the number of
    iterations the consistency dataflow needed (0 when not run)."""
    cfg = shared.cfg
    liveness = shared.liveness
    records = state.records
    edges = cfg.edges()

    # Pre-pass: gen bits contributed by stores we will elide *at edges*.
    extra_gen: dict[str, int] = {label: 0 for label in records}
    if run_dataflow:
        for pred, succ in edges:
            record = records[pred]
            for temp, src, dst in edge_traffic(records, liveness, pred, succ):
                if src is MEM or dst is not MEM:
                    continue
                bit = 1 << temp.id
                if record.consistent_at_end & bit and not record.wrote_tr & bit:
                    extra_gen[pred] |= bit

    tr = stats.trace
    iterations = 0
    used_c_in: dict[str, int] = {label: 0 for label in records}
    if run_dataflow:
        with stats.profiler.phase("allocate.resolve.dataflow"):
            gen = {label: records[label].used_consistency | extra_gen[label]
                   for label in records}
            kill = {label: records[label].wrote_tr for label in records}
            result = solve(DataflowProblem(cfg, gen, kill))
            used_c_in = result.in_
            iterations = result.iterations

    bottom_written: dict[str, set[PhysReg]] = {}
    with stats.profiler.phase("allocate.resolve.patch"):
        for pred, succ in edges:
            record = records[pred]
            if tr.enabled:
                tr.set_location(block=pred)
                edge = f"->{succ}"
            stores: list[Instr] = []
            moves: list[tuple[PhysReg, PhysReg, Temp]] = []
            loads: list[Instr] = []
            for temp, src, dst in edge_traffic(records, liveness, pred, succ):
                if isinstance(src, PhysReg):
                    bit = 1 << temp.id
                    consistent = bool(record.consistent_at_end & bit)
                    needs_store = False
                    if dst is MEM:
                        needs_store = not (avoid_consistent_stores
                                           and consistent)
                        if tr.enabled and not needs_store:
                            tr.emit(EventKind.STORE_ELIDED_CONSISTENT,
                                    temp=temp, reg=src, detail=f"edge{edge}")
                    elif (run_dataflow and used_c_in[succ] & bit
                            and not consistent):
                        # A path from ``succ`` exploits consistency this edge
                        # does not deliver (Section 2.4's insertion rule).
                        needs_store = True
                    if needs_store:
                        stores.append(emitter.store(temp, src,
                                                    SpillPhase.RESOLVE))
                        if tr.enabled:
                            tr.emit(EventKind.RESOLUTION_EDGE_FIX, temp=temp,
                                    reg=src, detail=f"store{edge}")
                    if isinstance(dst, PhysReg) and dst != src:
                        moves.append((src, dst, temp))
                else:  # src is MEM; the scan guarantees dst in {MEM, reg}
                    if isinstance(dst, PhysReg):
                        loads.append(emitter.reload(temp, dst,
                                                    SpillPhase.RESOLVE))
                        if tr.enabled:
                            tr.emit(EventKind.RESOLUTION_EDGE_FIX, temp=temp,
                                    reg=dst, detail=f"load{edge}")
            if not (stores or moves or loads):
                continue
            batch = stores + sequentialize_moves(moves, emitter, stats) + loads
            stats.metrics.bump("binpack.resolution.edges_patched")
            stats.metrics.bump("binpack.resolution.instructions", len(batch))
            _place_batch(fn, shared, pred, succ, batch, bottom_written)
    return iterations
