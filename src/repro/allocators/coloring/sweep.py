"""Sparse interval-sweep interference build.

The mask-based build (kept verbatim as the oracle in
``tests/oracles/coloring_reference.py``) walks *every* instruction of
every block each round, re-filtering operand lists per register class and
hashing ``Temp`` objects throughout — O(instrs x per-instruction object
work), which made ``interference.fpppp`` the pipeline's wall-clock
dominator (BENCH_5.json: 3.35 s, ~18x the next-slowest kernel).

This build is structural instead.  Under the paper's Section 3 view —
block-local temporaries excluded from dataflow, liveness as bit vectors —
interference within a block is *interval overlap*: a def of ``d`` at slot
``s`` interferes exactly with the temps whose live segment covers ``s``
(PAPERS.md: "On the Complexity of Spill Everywhere under SSA Form").  So:

1. **Decode** (one forward pass per block): compress the block to its
   def/use *events* in dense node-index space.  Each relevant
   instruction yields ``(clobber_seq, clobber_mask, use_mask, move_id)``;
   instructions with no operand of the class being colored (and no call
   clobber) vanish here — they can neither start nor end a segment.
   Occurrence costs are accumulated in the same pass (per block the loop
   weight is constant, so the per-node float sums are bit-identical to
   the oracle's reverse-order accumulation).

2. **Sweep** (backward over the event list): the live segments are
   maintained as one active-interval bitmask — a segment of ``t`` opens
   at ``t``'s last use or at block exit (liveness-mask-backed for
   globals, purely local events otherwise) and closes at ``t``'s def —
   and each def event emits its edges against the whole active mask in
   bulk.  Total cost is O(events + edges) int operations.

The block's live-out mask is threaded straight from the liveness bit
vectors (bit = temp id) through a per-round id -> node-bit table into
node-index space — no temp-list materialization, no re-masking, and temps
that are dead at the block boundary cost nothing.
"""

from __future__ import annotations

from repro.allocators.coloring.orderedset import OrderedSet
from repro.dataflow.bitvector import translate_mask
from repro.ir.instr import MOVE_OPS, Op
from repro.ir.temp import Temp


def build_interference(col) -> None:
    """Fill ``col``'s graph, costs, and move worklists for one round.

    ``col`` is the round's ``_ClassColoring``: its ``graph`` is a fresh
    :class:`~repro.allocators.coloring.ifgraph.IndexGraph`, ``cost`` a
    zeroed float list, ``moves``/``move_list``/``worklist_moves`` empty.
    Every observable — edge set, adjacency insertion order, degrees,
    costs, move discovery order — is byte-identical to the mask-based
    oracle build in ``tests/oracles/coloring_reference.py``.
    """
    fn = col.fn
    regclass = col.regclass
    graph = col.graph
    temp_index = graph.temp_index
    liveness = col.shared.liveness
    loops = col.shared.loops
    cost = col.cost
    moves = col.moves
    move_list = col.move_list
    worklist_moves = col.worklist_moves
    caller_saved_ix = col.caller_saved_ix
    caller_saved_mask = col.caller_saved_mask
    add_edges = graph.add_edges_from_mask
    live_out = liveness.live_out

    # Temp id -> node-index bit, for the global temps liveness masks can
    # hold.  Globals absent from this round's code (a previous round's
    # spill rewriting removed their occurrences) or of the other class
    # have no node here and drop to 0 — the paper's "global liveness
    # information is not affected by such temporaries" filtering.
    table = [0] * liveness.global_mask.bit_length()
    for temp_id in liveness.temps:
        node = temp_index.get(temp_id)
        if node is not None:
            table[temp_id] = 1 << node

    call_op = Op.CALL
    for block in fn.blocks:
        weight = float(10 ** min(loops.depth_of(block.label), 12))

        # Decode: one forward pass compressing the block to events.  A
        # precolored register's node is its index (see IndexGraph).
        events = []
        for instr in block.instrs:
            defs = ()
            for r in instr.defs:
                if r.regclass is regclass:
                    if isinstance(r, Temp):
                        i = temp_index[r.id]
                        cost[i] += weight
                    else:
                        i = r.index
                    defs += (i,)
            use_mask = 0
            use_ix = -1
            for r in instr.uses:
                if r.regclass is regclass:
                    if isinstance(r, Temp):
                        use_ix = temp_index[r.id]
                        cost[use_ix] += weight
                    else:
                        use_ix = r.index
                    use_mask |= 1 << use_ix
            op = instr.op
            if op is call_op:
                events.append((defs + caller_saved_ix,
                               _mask_of(defs) | caller_saved_mask,
                               use_mask, -1))
            elif defs:
                move_id = -1
                if use_mask and op in MOVE_OPS:
                    move_id = len(moves)
                    moves.append((instr, defs[0], use_ix))
                events.append((defs, _mask_of(defs), use_mask, move_id))
            elif use_mask:
                events.append((defs, 0, use_mask, -1))

        # Sweep: walk the events backward with the active-segment mask.
        live = translate_mask(live_out[block.label], table)
        for clobber_seq, clobber_mask, use_mask, move_id in reversed(events):
            if move_id >= 0:
                live &= ~use_mask
                _, def_ix, use_ix = moves[move_id]
                for node in (def_ix, use_ix):
                    ml = move_list.get(node)
                    if ml is None:
                        ml = move_list[node] = OrderedSet()
                    ml.add(move_id)
                worklist_moves.add(move_id)
            if clobber_mask:
                live |= clobber_mask
                for d in clobber_seq:
                    add_edges(d, live)
                live &= ~clobber_mask
            live |= use_mask


def _mask_of(indices: tuple[int, ...]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask
