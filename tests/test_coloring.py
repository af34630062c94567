"""Graph-coloring allocator tests: the bit matrix, the interference
graph, coalescing behaviour, precolored constraints, and spilling."""

import pytest

from repro.allocators import GraphColoring
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.module import Module
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import tiny
from tests.oracles.coloring_reference import (InterferenceGraph,
                                              TriangularBitMatrix)

G = RegClass.GPR


class TestTriangularBitMatrix:
    def test_symmetry(self):
        m = TriangularBitMatrix(10)
        m.set(3, 7)
        assert m.test(3, 7) and m.test(7, 3)
        assert not m.test(3, 6)

    def test_diagonal_is_never_set(self):
        m = TriangularBitMatrix(5)
        m.set(2, 2)
        assert not m.test(2, 2)

    def test_popcount_counts_pairs_once(self):
        m = TriangularBitMatrix(6)
        m.set(0, 1)
        m.set(1, 0)  # same edge
        m.set(2, 5)
        assert m.popcount() == 2

    def test_dense_fill(self):
        n = 20
        m = TriangularBitMatrix(n)
        for i in range(n):
            for j in range(i):
                m.set(i, j)
        assert m.popcount() == n * (n - 1) // 2
        assert all(m.test(i, j) for i in range(n) for j in range(i))


class TestInterferenceGraph:
    def setup_method(self):
        self.pre = [PhysReg(G, i) for i in range(2)]
        self.temps = [Temp(G, i) for i in range(4)]
        self.graph = InterferenceGraph(self.pre, self.temps)

    def test_add_edge_updates_degree_and_lists(self):
        a, b = self.temps[0], self.temps[1]
        self.graph.add_edge(a, b)
        self.graph.add_edge(a, b)  # idempotent
        assert self.graph.degree[a] == 1
        assert list(self.graph.adj_list[b]) == [a]
        assert self.graph.interferes(a, b)
        assert self.graph.edge_count() == 1

    def test_precolored_have_infinite_degree_and_no_lists(self):
        reg, temp = self.pre[0], self.temps[0]
        before = self.graph.degree[reg]
        self.graph.add_edge(reg, temp)
        assert self.graph.degree[reg] == before  # unchanged
        assert self.graph.degree[temp] == 1
        assert reg not in self.graph.adj_list
        assert self.graph.interferes(temp, reg)

    def test_self_edge_ignored(self):
        t = self.temps[0]
        self.graph.add_edge(t, t)
        assert self.graph.degree[t] == 0


def diamond_program(machine):
    module = Module()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    x = b.li(10)
    y = b.li(20)
    b.br(b.slt(x, y), "left", "right")
    b.new_block("left")
    z = b.add(x, y)
    b.print_(z)
    b.jmp("join")
    b.new_block("right")
    b.print_(x)
    b.jmp("join")
    b.new_block("join")
    b.print_(y)
    b.ret(y)
    module.add_function(fn)
    return module


class TestAllocation:
    def test_simple_program_allocates_without_spill(self):
        machine = tiny(6, 4)
        module = diamond_program(machine)
        reference = simulate(module, machine)
        result = CompilationSession(module, machine).run(GraphColoring())
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)
        assert not result.stats.spill_static
        assert result.stats.coloring_iterations["main"] == 2  # one per file

    def test_move_coalescing_removes_copies(self):
        machine = tiny(8, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(5)
        y = b.mov(x)   # coalescable
        z = b.mov(y)   # coalescable
        b.print_(z)
        b.ret(z)
        module.add_function(fn)
        result = CompilationSession(module, machine).run(GraphColoring())
        # Both moves become self-moves and are peepholed away.
        assert result.moves_removed >= 2
        assert simulate(result.module, machine).output == [5]

    def test_interfering_moves_are_constrained_not_merged(self):
        machine = tiny(8, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(5)
        y = b.mov(x)
        b.addi(x, 1, dst=x)   # x live past the move and modified
        b.print_(x)
        b.print_(y)           # y must still be 5
        b.ret()
        module.add_function(fn)
        result = CompilationSession(module, machine).run(GraphColoring())
        assert simulate(result.module, machine).output == [6, 5]

    def test_spill_and_iterate_converges_under_pressure(self):
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        vals = [b.li(i) for i in range(9)]
        acc = b.li(0)
        for v in vals:
            acc = b.add(acc, v)
        b.print_(acc)
        b.ret(acc)
        module.add_function(fn)
        reference = simulate(module, machine)
        result = CompilationSession(module, machine).run(GraphColoring())
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)
        assert result.stats.spill_static.get((SpillPhase.EVICT, "load"), 0) > 0
        assert result.stats.coloring_iterations["main"] > 2  # re-colored

    def test_call_clobbers_force_callee_saved_or_spill(self):
        machine = tiny(6, 4)
        module = Module()
        helper = Function("noop")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        hb.ret()
        module.add_function(helper)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(123)
        b.call("noop")
        b.print_(x)  # x lives across the call
        b.ret()
        module.add_function(fn)
        result = CompilationSession(module, machine).run(GraphColoring())
        # Poisoning would catch a caller-saved assignment.
        assert simulate(result.module, machine).output == [123]

    def test_edge_statistics_recorded(self):
        machine = tiny(6, 4)
        result = CompilationSession(diamond_program(machine), machine).run(
            GraphColoring())
        assert result.stats.interference_edges["main"] > 0
