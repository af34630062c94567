"""Coloring internals: the ordered set, spill choice, and determinism."""

import pytest

from repro.allocators import GraphColoring
from repro.allocators.coloring.orderedset import OrderedSet
from repro.ir.printer import print_module
from repro.pm.session import CompilationSession
from repro.target import alpha, tiny
from repro.workloads.synthetic import random_module, scaled_module


class TestOrderedSet:
    def test_insertion_order_iteration(self):
        s = OrderedSet()
        for item in (3, 1, 2):
            s.add(item)
        assert list(s) == [3, 1, 2]

    def test_pop_first_is_fifo(self):
        s = OrderedSet([5, 6, 7])
        assert s.pop_first() == 5
        assert s.pop_first() == 6
        assert len(s) == 1

    def test_add_is_idempotent_for_order(self):
        s = OrderedSet([1, 2])
        s.add(1)
        assert list(s) == [1, 2]

    def test_discard_missing_is_noop(self):
        s = OrderedSet([1])
        s.discard(99)
        assert 1 in s and bool(s)

    def test_empty_pop_raises(self):
        with pytest.raises(StopIteration):
            OrderedSet().pop_first()


class TestDeterminism:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_same_input_same_output(self, seed):
        machine = tiny(5, 5)
        module = random_module(seed, machine, size=20)
        first = CompilationSession(module, machine).run(GraphColoring())
        second = CompilationSession(module, machine).run(GraphColoring())
        assert print_module(first.module) == print_module(second.module)

    def test_binpack_is_deterministic_too(self):
        from repro.allocators import SecondChanceBinpacking
        machine = tiny(5, 5)
        module = random_module(23, machine, size=20)
        first = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        second = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        assert print_module(first.module) == print_module(second.module)


class TestSpillChoice:
    def test_loop_temporaries_survive_spilling(self):
        """Loop-nested values have 10**depth-weighted costs, so under
        pressure the allocator spills the loop-invariant values first:
        the dynamic count with correct weighting must beat a run where
        all costs are equal (approximated by depth-0-only code)."""
        from repro.ir.builder import FunctionBuilder
        from repro.ir.function import Function
        from repro.ir.module import Module
        from repro.ir.types import RegClass
        from repro.sim import simulate

        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        cold = [b.li(i) for i in range(5)]   # used once, at the end
        hot = b.li(100)                       # used every iteration
        counter = b.li(50)
        b.jmp("head")
        b.new_block("head")
        b.br(b.slt(b.li(0), counter), "body", "out")
        b.new_block("body")
        b.mov(b.add(hot, counter), dst=hot)
        b.mov(b.addi(counter, -1), dst=counter)
        b.jmp("head")
        b.new_block("out")
        acc = b.li(0)
        for v in cold:
            acc = b.add(acc, v)
        b.print_(acc)
        b.print_(hot)
        b.ret()
        module.add_function(fn)
        result = CompilationSession(module, machine).run(GraphColoring())
        outcome = simulate(result.module, machine)
        assert outcome.output == [10, 100 + sum(range(1, 51))]
        # The hot loop must not contain spill code for `hot`/`counter`:
        # no more than a handful of dynamic spill instructions total.
        assert outcome.spill_instructions < 30


class TestTriangularBitMatrixPopcount:
    def test_popcount_counts_distinct_pairs(self):
        from tests.oracles.coloring_reference import TriangularBitMatrix
        m = TriangularBitMatrix(40)
        pairs = {(i, j) for i in range(40) for j in range(i) if (i * 7 + j) % 5 == 0}
        for i, j in pairs:
            m.set(i, j)
            m.set(j, i)  # symmetric: stored once
        assert m.popcount() == len(pairs)

    def test_popcount_empty_and_full(self):
        from tests.oracles.coloring_reference import TriangularBitMatrix
        m = TriangularBitMatrix(9)
        assert m.popcount() == 0
        for i in range(9):
            for j in range(i):
                m.set(i, j)
        assert m.popcount() == 9 * 8 // 2


class TestMaskEdgeBuild:
    """The bulk mask-based edge add against the pairwise reference."""

    def _fresh_graph(self):
        from tests.oracles.coloring_reference import InterferenceGraph
        from repro.ir.temp import PhysReg, Temp
        from repro.ir.types import RegClass
        pre = [PhysReg(RegClass.GPR, i) for i in range(3)]
        temps = [Temp(RegClass.GPR, i) for i in range(8)]
        return InterferenceGraph(pre, temps), pre, temps

    def test_bulk_add_matches_pairwise(self):
        bulk, pre_b, temps_b = self._fresh_graph()
        pair, pre_p, temps_p = self._fresh_graph()
        rounds = [
            (temps_b[0], [temps_b[1], temps_b[2], pre_b[0]]),
            (temps_b[1], [temps_b[2], temps_b[3]]),
            (pre_b[1], [temps_b[0], temps_b[4]]),
            (temps_b[0], [temps_b[2], temps_b[5]]),  # partially repeated
        ]
        for d, live in rounds:
            mask = 0
            for l in live:
                mask |= 1 << bulk.index[l]
            bulk.add_edges_from_mask(d, mask)
        for d, live in rounds:
            for l in sorted(live, key=pair.index.__getitem__):
                pair.add_edge(l, d)
        assert bulk.adj_mask == pair.adj_mask
        assert bulk.degree == pair.degree
        assert bulk.edge_count() == pair.edge_count()
        # Byte-identical adjacency iteration order, not just equal sets.
        assert [(n, list(bulk.adj_list[n])) for n in bulk.adj_list] == \
               [(n, list(pair.adj_list[n])) for n in pair.adj_list]

    def test_self_and_known_edges_masked_out(self):
        graph, pre, temps = self._fresh_graph()
        d = temps[0]
        mask = (1 << graph.index[d]) | (1 << graph.index[temps[1]])
        graph.add_edges_from_mask(d, mask)
        graph.add_edges_from_mask(d, mask)  # fully redundant second call
        assert graph.degree[d] == 1
        assert graph.degree[temps[1]] == 1
        assert graph.edge_count() == 1
        assert not graph.interferes(d, d)


class TestInterferenceEdgePins:
    """End-to-end edge counts on fixed inputs: any change to liveness,
    the mask build, or the bit matrix that perturbs the graph shows up
    here as a changed constant."""

    def test_analog_edge_counts(self):
        from repro.allocators import GraphColoring
        from repro.workloads.programs import build_program
        machine = alpha()
        for name, expected in (("doduc", {"advance": 18, "main": 1270}),
                               ("compress", {"main": 518})):
            module = build_program(name, machine)
            result = CompilationSession(module, machine).run(GraphColoring())
            assert dict(result.stats.interference_edges) == expected, name
