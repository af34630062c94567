"""Differential tests: heap SelectSpill and mask Select vs their oracles.

The allocator's SelectSpill pops a lazily invalidated heap and its Select
tests per-color member masks.  :mod:`tests.oracles.coloring_reference`
keeps the two steps as they were, a linear ``min`` over the spill
worklist and a walk over each node's adjacency list.  Each corpus test
allocates twice, once with the shipped steps and once with the oracle's,
and asserts the same module text and the same spilled nodes in every
round.
"""

from types import SimpleNamespace

import pytest

from repro.allocators import GraphColoring
from repro.allocators.coloring.george_appel import _ClassColoring
from repro.allocators.coloring.orderedset import OrderedSet
from repro.fuzz.generate import program_for_seed
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.printer import print_module
from repro.ir.types import RegClass
from repro.pm.session import CompilationSession
from repro.spill import AllocationContext
from repro.target import alpha, tiny
from repro.workloads.programs import build_program
from repro.workloads.synthetic import scaled_module
from tests.oracles.coloring_reference import record_spills, use_select


def _allocate(monkeypatch, mode, module, machine, context=None):
    use_select(monkeypatch, mode)
    spills = record_spills(monkeypatch)
    result = CompilationSession(module, machine).run(GraphColoring(),
                                                     context=context)
    return print_module(result.module), spills


def _assert_same(monkeypatch, module, machine, context=None):
    shipped = _allocate(monkeypatch, "shipped", module, machine, context)
    reference = _allocate(monkeypatch, "reference", module, machine, context)
    assert shipped[1] == reference[1], "per-round spilled nodes differ"
    assert shipped[0] == reference[0], "allocated module text differs"
    return shipped


class TestCorpus:
    @pytest.mark.parametrize("block", range(10))
    def test_fuzz_seeds(self, monkeypatch, block):
        # Seeds 0-199; program_for_seed alternates tiny and alpha machines.
        for seed in range(block * 20, block * 20 + 20):
            program = program_for_seed(seed)
            _assert_same(monkeypatch, program.module, program.machine)

    @pytest.mark.parametrize("stress", ["reduced-regs", "forced-evict"])
    def test_stress_contexts(self, monkeypatch, stress):
        # Both modes change k: reduced-regs shrinks the color order,
        # forced-evict pre-spills a sample before the first round.
        for seed in range(40):
            program = program_for_seed(seed)
            context = AllocationContext(stress=stress, seed=seed)
            _assert_same(monkeypatch, program.module, program.machine,
                         context)

    def test_t3_245_pressure(self, monkeypatch):
        _, spills = _assert_same(monkeypatch, scaled_module(245, 2, group=30),
                                 alpha())
        assert any(names for *_, names in spills), "the module must spill"

    def test_fpppp(self, monkeypatch):
        machine = alpha()
        _assert_same(monkeypatch, build_program("fpppp", machine), machine)


def hand_built(edges, costs, moves, k):
    """A one-round coloring state over temps ``0..len(costs)-1``.

    The graph, spill costs and moves come from the arguments instead of
    a build; ``k`` is the number of colors.  Returns the state with its
    worklists made, before any step runs.
    """
    machine = tiny(4, 4)
    fn = Function("hand")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    temps = [b.li(i) for i in range(len(costs))]
    b.ret(temps[0])
    emitter = SimpleNamespace(
        register_order=lambda regclass, prefer_caller_saved:
        machine.regs(regclass)[:k])
    stats = SimpleNamespace(trace=SimpleNamespace(enabled=False))
    col = _ClassColoring(fn, machine, None, RegClass.GPR, emitter, stats)
    col.rounds = 1
    col._init_round()
    p = col.n_pre
    for x, y in edges:
        col.graph.add_edge(p + x, p + y)
    for x, c in enumerate(costs):
        col.cost[p + x] = float(c)
    for m, (x, y) in enumerate(moves):
        col.moves.append((None, p + x, p + y))
        col.worklist_moves.add(m)
        for node in (p + x, p + y):
            col.move_list.setdefault(node, OrderedSet()).add(m)
    col._make_worklists()
    return col


class TestHandBuilt:
    # u=0 and w=2 start on the spill worklist with degree 3 = k.  The move
    # u <- v coalesces (Briggs: no neighbour of u or v has degree >= 3),
    # and v brings neighbour d=6, so u's degree rises to 4.  Its metric
    # falls from 10/3 below w's 9/3: SelectSpill must now take u.  A heap
    # still keyed at 10/3 for u would hand out w.
    EDGES = [(0, 3), (0, 4), (0, 5), (2, 3), (2, 4), (2, 5), (1, 6)]
    COSTS = [10, 1, 9, 1, 1, 1, 1]
    MOVES = [(0, 1)]

    def test_coalesce_raising_a_spill_node_degree(self):
        # The steps run by hand: in Appel's order, simplify would empty
        # u's low-degree neighbours first and Briggs' test keeps a merged
        # node's degree below k until the next SelectSpill.
        col = hand_built(self.EDGES, self.COSTS, self.MOVES, k=3)
        p = col.n_pre
        u, w = p + 0, p + 2
        assert list(col.spill_wl) == [u, w]
        col._coalesce()
        assert col.coalesced[p + 1] and col.graph.degree[u] == 4
        col._select_spill()
        assert u not in col.spill_wl and w in col.spill_wl

    def test_select_sees_the_alias_of_a_stacked_neighbour(self, monkeypatch):
        # In Appel's order d is simplified before u <- v coalesces, so d
        # never gets an edge to u: only v's alias group can keep d off
        # u's color.
        use_select(monkeypatch, "check")
        col = hand_built(self.EDGES, self.COSTS, self.MOVES, k=3)
        col._drain_worklists()
        col._assign_colors()
        assert not col.select_stack
