"""The mask-based interference build and the scanning SelectSpill and
Select, retained as the semantic oracles.

This is the original per-instruction build, verbatim: walk every
instruction of every block backward, keep the live set as an int bitmask
over graph node indices, and land each def's edges in bulk against the
whole mask.
It is correct and deterministic but pays O(instrs) Python-level object
work per round (operand re-filtering, ``Temp`` hashing), which is why
the sparse sweep in :mod:`repro.allocators.coloring.sweep` replaced it
on the hot path.

Like :mod:`tests.oracles.sim_reference` for the pre-decoded simulator,
this module is the slow, obviously-faithful implementation the fast one
is differentially tested against.  The allocator always calls
``george_appel.build_interference``; a test monkeypatches that name
with one of the two build modes below:

* :func:`mask_build` runs *this* build for every round;
* :func:`check_build` runs both builds and asserts the sweep reproduced
  the oracle's edge set, adjacency insertion order, degrees, spill
  costs, and move discovery order byte-for-byte.

The object-keyed :class:`InterferenceGraph` (over the paper's
lower-triangular :class:`TriangularBitMatrix`) is the graph the oracle
builds into; the allocator itself works on the index-space
:class:`~repro.allocators.coloring.ifgraph.IndexGraph`.

The allocator's SelectSpill pops a heap and its Select tests per-color
member masks.  :func:`scan_select_spill` and :func:`walk_assign_colors`
are the two steps as they were before: a linear ``min`` over the spill
worklist, and a walk over each node's adjacency list that resolves every
neighbour's alias.  :func:`use_select` swaps them in the same way
:func:`use_build` swaps the build:

* ``"reference"`` runs the two oracle steps instead of the shipped ones;
* ``"check"`` runs both on every call and asserts the same spill choice,
  the same colors and the same spilled nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.allocators.coloring import george_appel
from repro.allocators.coloring.ifgraph import Node
from repro.allocators.coloring.orderedset import OrderedSet
from repro.allocators.coloring.sweep import build_interference
from repro.ir.function import Function
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.obs.trace import EventKind
from repro.target.machine import MachineDescription


class TriangularBitMatrix:
    """A lower-triangular bit matrix over ``n`` indexed nodes.

    ``set(i, j)``/``test(i, j)`` are symmetric; the pair is stored once at
    row ``max(i, j)``, column ``min(i, j)``.  Backed by a ``bytearray`` so
    single-bit updates are O(1).
    """

    __slots__ = ("n", "_bits")

    def __init__(self, n: int):
        self.n = n
        self._bits = bytearray((n * (n - 1) // 2 + 7) // 8)

    @staticmethod
    def _index(i: int, j: int) -> int:
        if i < j:
            i, j = j, i
        return i * (i - 1) // 2 + j

    def set(self, i: int, j: int) -> None:
        """Mark nodes ``i`` and ``j`` as adjacent (no-op on the diagonal)."""
        if i == j:
            return
        k = self._index(i, j)
        self._bits[k >> 3] |= 1 << (k & 7)

    def test(self, i: int, j: int) -> bool:
        """True when nodes ``i`` and ``j`` are adjacent."""
        if i == j:
            return False
        k = self._index(i, j)
        return bool(self._bits[k >> 3] >> (k & 7) & 1)

    def popcount(self) -> int:
        """Number of distinct adjacent pairs (the graph's edge count)."""
        # One arbitrary-precision int popcount beats a Python-level loop
        # over the bytes by orders of magnitude on big graphs.
        return int.from_bytes(self._bits, "little").bit_count()


class InterferenceGraph:
    """Adjacency for one coloring round.

    Attributes:
        nodes: All nodes, precolored registers first (their indices are
            stable across queries).
        matrix: The triangular bit matrix over node indices.
        adj_list: Neighbours of each non-precolored node, as an
            insertion-ordered dict keyed by neighbour — iteration order
            must not depend on hash randomization, or worklist order (and
            therefore coloring decisions) would vary run to run.
        adj_mask: Per node index, the neighbour set as an int bitmask
            (bit ``i`` = adjacent to ``nodes[i]``) — mirrors ``matrix``
            exactly and lets the build add a def's edges against a whole
            live mask at once instead of testing pair by pair.
        degree: Current degree per node (precolored: a huge constant).
    """

    #: Effectively-infinite degree for precolored nodes.
    INFINITE = 1 << 30

    def __init__(self, precolored: list[PhysReg], temps: list[Temp]):
        self.nodes: list[Node] = [*precolored, *temps]
        self.index: dict[Node, int] = {n: i for i, n in enumerate(self.nodes)}
        self.precolored: set[Node] = set(precolored)
        self.matrix = TriangularBitMatrix(len(self.nodes))
        self.adj_list: dict[Node, dict[Node, None]] = {t: {} for t in temps}
        self.adj_mask: list[int] = [0] * len(self.nodes)
        self.degree: dict[Node, int] = {t: 0 for t in temps}
        for reg in precolored:
            self.degree[reg] = self.INFINITE

    def add_edge(self, u: Node, v: Node) -> None:
        """Record interference between ``u`` and ``v`` (idempotent)."""
        if u == v:
            return
        i, j = self.index[u], self.index[v]
        if self.matrix.test(i, j):
            return
        self.matrix.set(i, j)
        self.adj_mask[i] |= 1 << j
        self.adj_mask[j] |= 1 << i
        if u not in self.precolored:
            self.adj_list[u][v] = None
            self.degree[u] += 1
        if v not in self.precolored:
            self.adj_list[v][u] = None
            self.degree[v] += 1

    def add_edges_from_mask(self, d: Node, live_mask: int) -> None:
        """``add_edge(nodes[i], d)`` for every bit ``i`` of ``live_mask``.

        Already-adjacent nodes (and ``d`` itself) are masked out in one
        int operation, so the loop body runs only for *new* neighbours —
        in ascending index order, which keeps adjacency-list insertion
        order identical to a pairwise build that sorts the live set by
        node index.
        """
        di = self.index[d]
        new = live_mask & ~self.adj_mask[di] & ~(1 << di)
        if not new:
            return
        nodes = self.nodes
        adj_mask = self.adj_mask
        adj_list = self.adj_list
        degree = self.degree
        matrix = self.matrix
        precolored = self.precolored
        d_adj = None if d in precolored else adj_list[d]
        d_bit = 1 << di
        remaining = new
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            li = low.bit_length() - 1
            l = nodes[li]
            matrix.set(li, di)
            adj_mask[li] |= d_bit
            if l not in precolored:
                adj_list[l][d] = None
                degree[l] += 1
            if d_adj is not None:
                d_adj[l] = None
        adj_mask[di] |= new
        if d_adj is not None:
            degree[d] += new.bit_count()

    def interferes(self, u: Node, v: Node) -> bool:
        """Constant-time adjacency test (the bit-matrix query)."""
        return self.matrix.test(self.index[u], self.index[v])

    def edge_count(self) -> int:
        """Distinct interference edges (Table 3's 'interference graph
        edges' column)."""
        return self.matrix.popcount()


@dataclass(eq=False)
class ReferenceBuild:
    """Everything one oracle build round produced."""

    graph: InterferenceGraph
    cost: dict[Temp, float]
    move_list: dict[Node, OrderedSet]
    worklist_moves: OrderedSet


def reference_build(fn: Function, machine: MachineDescription, shared,
                    regclass: RegClass, precolored: list[PhysReg],
                    initial: list[Temp]) -> ReferenceBuild:
    """One interference-build round, the mask-based way."""
    liveness = shared.liveness
    loops = shared.loops
    graph = InterferenceGraph(precolored, initial)
    node_index = graph.index
    cost: dict[Temp, float] = {t: 0.0 for t in initial}
    move_list: dict[Node, OrderedSet] = {}
    worklist_moves = OrderedSet()
    caller_saved = [r for r in machine.caller_saved(regclass)
                    if r.regclass is regclass]
    caller_saved_mask = 0
    for reg in caller_saved:
        caller_saved_mask |= 1 << node_index[reg]
    in_code = set(initial)
    depth_weight = {}
    for block in fn.blocks:
        depth = loops.depth_of(block.label)
        depth_weight[block.label] = float(10 ** min(depth, 12))

    # The live set is an int bitmask over graph node indices: set
    # algebra collapses to int ops, and a def's edges land in bulk
    # against the whole mask (``add_edges_from_mask``) instead of
    # pair by pair.  Bits ascend by node index, so edge insertion
    # order is index order — independent of hash randomization,
    # exactly as the old sorted-set iteration guaranteed.
    for block in fn.blocks:
        weight = depth_weight[block.label]
        live_mask = 0
        for t in liveness.live_out_temps(block.label):
            if t.regclass is regclass and t in in_code:
                live_mask |= 1 << node_index[t]
        for instr in reversed(block.instrs):
            defs = [r for r in instr.defs if r.regclass is regclass]
            uses = [r for r in instr.uses if r.regclass is regclass]
            uses_mask = 0
            for u in uses:
                uses_mask |= 1 << node_index[u]
            for node in defs + uses:
                if isinstance(node, Temp):
                    cost[node] = cost.get(node, 0.0) + weight
            if instr.is_move and defs and uses:
                live_mask &= ~uses_mask
                for node in (*defs, *uses):
                    move_list.setdefault(node, OrderedSet()).add(instr)
                worklist_moves.add(instr)
            clobbers = defs
            clobber_mask = 0
            for d in defs:
                clobber_mask |= 1 << node_index[d]
            if instr.is_call:
                clobbers = defs + caller_saved
                clobber_mask |= caller_saved_mask
            live_mask |= clobber_mask
            for d in clobbers:
                graph.add_edges_from_mask(d, live_mask)
            live_mask &= ~clobber_mask
            live_mask |= uses_mask
    return ReferenceBuild(graph, cost, move_list, worklist_moves)


def _node_index(graph, node: Node) -> int:
    """The shipped graph's dense index of ``node``: a precolored
    register's is its register index, a temporary's is keyed by id."""
    if isinstance(node, Temp):
        return graph.temp_index[node.id]
    return node.index


def adopt_reference(col, ref: ReferenceBuild) -> None:
    """Continue a coloring round from the oracle's build.

    Translates the oracle's object-keyed structures into the round's
    index-space ones, preserving every iteration order, so the worklist
    machinery downstream behaves identically whichever build produced
    its inputs.
    """
    graph = col.graph
    index = partial(_node_index, graph)
    graph.adj_mask = list(ref.graph.adj_mask)
    for node, neighbours in ref.graph.adj_list.items():
        graph.adj_list[index(node)] = [index(m) for m in neighbours]
    for node, degree in ref.graph.degree.items():
        graph.degree[index(node)] = degree
    for temp, value in ref.cost.items():
        col.cost[index(temp)] = value
    move_id: dict = {}
    for instr in ref.worklist_moves:
        move_id[instr] = len(col.moves)
        col.moves.append((instr, index(instr.defs[0]), index(instr.uses[0])))
        col.worklist_moves.add(move_id[instr])
    for node, instrs in ref.move_list.items():
        col.move_list[index(node)] = OrderedSet(move_id[m] for m in instrs)


def assert_matches_reference(col, ref: ReferenceBuild) -> None:
    """Assert the sweep build reproduced the oracle byte-for-byte.

    Compares edge sets (adjacency masks), adjacency-list insertion
    order, degrees, spill costs (exact float equality), per-node move
    lists, and the move worklist's discovery order.
    """
    graph = col.graph
    index = partial(_node_index, graph)
    name = f"{col.fn.name}/{col.regclass.name}"
    if graph.adj_mask != ref.graph.adj_mask:
        bad = [i for i, (a, b) in enumerate(zip(graph.adj_mask,
                                                ref.graph.adj_mask)) if a != b]
        raise AssertionError(
            f"{name}: sweep edge set diverges from oracle at nodes "
            f"{[graph.nodes[i] for i in bad[:5]]}")
    for node, neighbours in ref.graph.adj_list.items():
        ni = index(node)
        expected = [index(m) for m in neighbours]
        if graph.adj_list[ni] != expected:
            raise AssertionError(
                f"{name}: adjacency order of {node} diverges: "
                f"sweep {graph.adj_list[ni][:8]} vs oracle {expected[:8]}")
    for node, degree in ref.graph.degree.items():
        if graph.degree[index(node)] != degree:
            raise AssertionError(
                f"{name}: degree of {node} is {graph.degree[index(node)]}, "
                f"oracle says {degree}")
    for temp, value in ref.cost.items():
        if col.cost[index(temp)] != value:
            raise AssertionError(
                f"{name}: spill cost of {temp} is {col.cost[index(temp)]!r}, "
                f"oracle says {value!r}")
    sweep_moves = [col.moves[m][0] for m in col.worklist_moves]
    if sweep_moves != list(ref.worklist_moves):
        raise AssertionError(f"{name}: move worklist order diverges")
    ref_lists = {index(node): [instr for instr in instrs]
                 for node, instrs in ref.move_list.items()}
    sweep_lists = {node: [col.moves[m][0] for m in ids]
                   for node, ids in col.move_list.items()}
    if sweep_lists != ref_lists:
        raise AssertionError(f"{name}: per-node move lists diverge")


def _reference_for(col) -> ReferenceBuild:
    return reference_build(col.fn, col.machine, col.shared, col.regclass,
                           col.precolored_regs, col.initial)


def mask_build(col) -> None:
    """Build mode ``"mask"``: fill the round from the oracle alone."""
    adopt_reference(col, _reference_for(col))


def check_build(col) -> None:
    """Build mode ``"check"``: run both builds, compare byte for byte."""
    ref = _reference_for(col)
    build_interference(col)
    assert_matches_reference(col, ref)


#: Replacements for ``george_appel.build_interference``, by mode name.
BUILD_MODES = {"sweep": build_interference, "mask": mask_build,
               "check": check_build}


def use_build(monkeypatch, mode: str) -> None:
    """Make every coloring round in this test run ``mode``'s build."""
    monkeypatch.setattr(george_appel, "build_interference",
                        BUILD_MODES[mode])


# ----------------------------------------------------------------------
# SelectSpill and Select.
# ----------------------------------------------------------------------
_ClassColoring = george_appel._ClassColoring

#: The shipped steps, captured before any test patches the class.
SHIPPED_SELECT_SPILL = _ClassColoring._select_spill
SHIPPED_ASSIGN_COLORS = _ClassColoring._assign_colors


def scan_pick(col) -> int:
    """The first node of ``spill_wl`` with the least spill metric."""
    cost = col.cost
    degree = col.graph.degree
    is_spill_temp = col.is_spill_temp
    factor = col.SPILL_TEMP_COST_FACTOR

    def metric(t: int) -> float:
        c = cost[t]
        if is_spill_temp[t]:
            c *= factor
        return c / max(degree[t], 1)

    return min(col.spill_wl, key=metric)


def scan_select_spill(col) -> None:
    """SelectSpill by a linear scan of the whole spill worklist."""
    m = scan_pick(col)
    col.spill_wl.discard(m)
    col.simplify_wl.add(m)
    col._freeze_moves(m)


def walk_assign_colors(col) -> None:
    """Select by walking each node's adjacency list."""
    graph = col.graph
    nodes = graph.nodes
    adj_list = graph.adj_list
    alias = col.alias
    coalesced = col.coalesced
    colored = col.colored
    on_stack = col.on_stack
    color = col.color
    color_order_ix = col.color_order_ix
    n_pre = col.n_pre
    rounds = col.rounds
    tr = col.stats.trace
    resolved = list(range(graph.n))
    for i in range(graph.n):
        j = i
        while coalesced[j]:
            j = alias[j]
        resolved[i] = j
    while col.select_stack:
        n = col.select_stack.pop()
        on_stack[n] = 0
        forbidden = 0
        for w in adj_list[n]:
            w = resolved[w]
            if colored[w] or w < n_pre:
                forbidden |= 1 << color[w]
        chosen = -1
        for c in color_order_ix:
            if not forbidden >> c & 1:
                chosen = c
                break
        if chosen < 0:
            col.spilled_nodes.add(n)
            if tr.enabled:
                tr.emit(EventKind.EVICT, temp=nodes[n],
                        detail=f"no color (round {rounds})")
        else:
            colored[n] = 1
            color[n] = chosen
            if tr.enabled:
                tr.emit(EventKind.ASSIGN, temp=nodes[n], reg=nodes[chosen],
                        detail=f"color (round {rounds})")


def check_select_spill(col) -> None:
    """Run the shipped SelectSpill; assert it took the scan's node."""
    expected = scan_pick(col)
    before = set(col.spill_wl)
    SHIPPED_SELECT_SPILL(col)
    taken = before - set(col.spill_wl)
    if taken != {expected}:
        raise AssertionError(
            f"{col.fn.name}/{col.regclass.name} round {col.rounds}: "
            f"SelectSpill took {sorted(taken)}, the scan picks {expected}")


def check_assign_colors(col) -> None:
    """Run both Selects from the same state; assert the same result.

    The oracle runs first on the saved state, which is then restored for
    the shipped step (with tracing on, the events are emitted twice).
    """
    saved = (list(col.select_stack), bytearray(col.on_stack),
             bytearray(col.colored), list(col.color),
             list(col.spilled_nodes))
    walk_assign_colors(col)
    expected = (list(col.colored), list(col.color), list(col.spilled_nodes))
    stack, on_stack, colored, color, spilled = saved
    col.select_stack = stack
    col.on_stack = on_stack
    col.colored = colored
    col.color = color
    col.spilled_nodes = OrderedSet(spilled)
    SHIPPED_ASSIGN_COLORS(col)
    got = (list(col.colored), list(col.color), list(col.spilled_nodes))
    if got != expected:
        raise AssertionError(
            f"{col.fn.name}/{col.regclass.name} round {col.rounds}: "
            "mask Select diverges from the adjacency walk")


#: Replacements for ``(_select_spill, _assign_colors)``, by mode name.
SELECT_MODES = {
    "shipped": (SHIPPED_SELECT_SPILL, SHIPPED_ASSIGN_COLORS),
    "reference": (scan_select_spill, walk_assign_colors),
    "check": (check_select_spill, check_assign_colors),
}


def use_select(monkeypatch, mode: str) -> None:
    """Make every coloring round in this test run ``mode``'s steps."""
    select_spill, assign_colors = SELECT_MODES[mode]
    monkeypatch.setattr(_ClassColoring, "_select_spill", select_spill)
    monkeypatch.setattr(_ClassColoring, "_assign_colors", assign_colors)


def record_spills(monkeypatch) -> list[tuple[str, str, int, list[str]]]:
    """Record each round's spilled nodes, in the order Select found them.

    Wraps whichever Select is installed now, so call it after
    :func:`use_select`.  Entries are ``(function, class, round, temps)``.
    """
    spills: list[tuple[str, str, int, list[str]]] = []
    assign_colors = _ClassColoring._assign_colors

    def recording(col) -> None:
        assign_colors(col)
        nodes = col.graph.nodes
        spills.append((col.fn.name, col.regclass.name, col.rounds,
                       [str(nodes[i]) for i in col.spilled_nodes]))

    monkeypatch.setattr(_ClassColoring, "_assign_colors", recording)
    return spills
