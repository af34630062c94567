"""Second-chance binpacking behaviour tests.

These target the paper's mechanisms directly: hole sharing, best-fit and
insufficient-hole selection, second-chance splitting, consistency-elided
stores, early second chance, move elimination, and the resolution
examples of Figure 2.
"""

import pytest

from repro.allocators import SecondChanceBinpacking
from repro.allocators.base import AllocationStats, allocate_module
from repro.allocators.binpack.allocator import BinpackOptions
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillKind, SpillPhase
from repro.ir.module import Module
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import tiny
from repro.target.machine import MachineDescription

G = RegClass.GPR


def two_reg_machine() -> MachineDescription:
    """Figure 2's premise: "assume that we have only two registers" — we
    use the smallest legal tiny machine and confine the test program to
    low pressure so only a couple of registers matter."""
    return tiny(4, 4)


def run_binpack(module: Module, machine, options: BinpackOptions | None = None):
    return CompilationSession(module, machine).run(
        SecondChanceBinpacking(options))


def figure2_module() -> Module:
    """The paper's Figure 2: T1 defined in B1, spilled in B2 by pressure,
    used again in B3 where it gets a *different* register (the second
    chance), forcing resolution code on B2->B4 and B1->B3."""
    module = Module()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("B1")
    t1 = b.temp(G, "T1")
    b.li(11, dst=t1)          # i1: T1 <- ..
    b.print_(t1)              # i2: .. <- T1
    cond = b.li(1)
    b.br(cond, "B2", "B3")
    b.new_block("B2")
    # Three overlapping lifetimes to force T1 out on a 3-ish register
    # budget (the figure uses 2 registers and 3 lifetimes).
    a = b.li(1)
    c = b.li(2)
    d = b.li(3)
    e = b.add(a, c)
    f = b.add(e, d)
    g = b.add(f, a)
    h = b.add(g, c)
    b.print_(h)
    b.jmp("B4")
    b.new_block("B3")
    b.print_(t1)              # i3: .. <- T1
    b.li(99, dst=t1)          # i4: T1 <- ..
    b.print_(t1)
    b.jmp("B4")
    b.new_block("B4")
    b.ret()
    module.add_function(fn)
    return module


class TestFigure2:
    def test_output_preserved_and_resolution_emitted(self):
        machine = two_reg_machine()
        module = figure2_module()
        reference = simulate(module, machine)
        result = run_binpack(module, machine)
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)

    def test_spill_happens_under_pressure(self):
        machine = two_reg_machine()
        result = run_binpack(figure2_module(), machine)
        static = result.stats.spill_static
        assert any(phase is SpillPhase.EVICT for phase, _ in static), static


def straightline_module(n_values: int, machine) -> Module:
    """n long-lived ints defined up front, all consumed at the end."""
    module = Module()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    values = [b.li(i) for i in range(n_values)]
    acc = b.li(0)
    for v in values:
        acc = b.add(acc, v)
    b.print_(acc)
    b.ret(acc)
    module.add_function(fn)
    return module


class TestPressure:
    def test_fits_without_spill_when_enough_registers(self):
        machine = tiny(8, 4)
        module = straightline_module(5, machine)
        result = run_binpack(module, machine)
        assert not result.stats.spill_static

    def test_spills_when_over_subscribed(self):
        machine = tiny(4, 4)
        module = straightline_module(10, machine)
        reference = simulate(module, machine)
        result = run_binpack(module, machine)
        assert result.stats.spill_static  # must spill something
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)

    def test_postponed_store_elided_for_dead_values(self):
        """A spilled value that is never referenced again must not pay a
        store (the consistency/hole logic, Section 2.3)."""
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        dead = [b.li(i) for i in range(3)]
        live = [b.li(10 + i) for i in range(6)]  # evicts the dead ones
        acc = b.li(0)
        for v in live:
            acc = b.add(acc, v)
        b.print_(acc)
        b.ret(acc)
        module.add_function(fn)
        result = run_binpack(module, machine)
        outcome = simulate(result.module, machine)
        assert outcome.output == [sum(range(10, 16))]


class TestHoleSharing:
    def test_two_temps_share_one_register_through_a_hole(self):
        """T3 inside T1's hole (Figure 1): with exactly one usable
        register beyond the convention ones, the program still allocates
        without spill code."""
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        t1 = b.temp(G, "T1")
        b.li(5, dst=t1)
        b.print_(t1)          # T1's last use before its hole
        t3 = b.li(7)          # fits inside T1's hole
        b.print_(t3)
        b.li(6, dst=t1)       # T1's hole ends (redefinition)
        b.print_(t1)
        b.ret()
        module.add_function(fn)
        result = run_binpack(module, machine)
        outcome = simulate(result.module, machine)
        assert outcome.output == [5, 7, 6]
        assert not result.stats.spill_static

    def test_register_freed_by_a_dying_use_is_not_a_shared_hole(self):
        """The use that dies at a move has left the register file by the
        move's write point, so the eliminated move's destination takes
        the source register as a plain placement, not a hole share."""
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(5)
        y = b.mov(x)          # x dies where y is born
        b.print_(y)
        b.ret()
        module.add_function(fn)
        result = run_binpack(module, machine)
        metrics = result.stats.metrics
        assert result.stats.moves_eliminated == 1
        assert metrics.get("binpack.scan.placements") == 2
        assert metrics.get("binpack.scan.hole_shares") == 0

    def test_disabling_holes_is_still_correct(self):
        machine = tiny(5, 4)
        module = straightline_module(8, machine)
        reference = simulate(module, machine)
        result = run_binpack(module, machine,
                             BinpackOptions(use_holes=False))
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)


class TestMoveElimination:
    def _param_move_module(self, machine):
        """A leaf callee whose parameter move can collapse (Section 2.5's
        Alpha calling-convention motivation)."""
        module = Module()
        callee = Function("leaf")
        cb = FunctionBuilder(callee)
        cb.new_block("entry")
        p = callee.new_temp(G, "p")
        callee.params.append(p)
        arg = machine.param_regs(G)[0]
        cb.emit(Instr(Op.MOV, defs=[p], uses=[arg]))
        doubled = cb.add(p, p)
        ret = machine.ret_reg(G)
        cb.emit(Instr(Op.MOV, defs=[ret], uses=[doubled]))
        cb.ret(ret)
        module.add_function(callee)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.emit(Instr(Op.MOV, defs=[arg], uses=[b.li(21)]))
        b.call("leaf", arg_regs=[arg], ret_reg=ret)
        out = b.mov(ret)
        b.print_(out)
        b.ret(out)
        module.add_function(fn)
        return module

    def test_parameter_move_collapses(self):
        machine = tiny(6, 4)
        module = self._param_move_module(machine)
        with_opt = run_binpack(module, machine)
        without = run_binpack(module, machine,
                              BinpackOptions(move_elimination=False))
        assert with_opt.stats.moves_eliminated > 0
        assert without.stats.moves_eliminated == 0
        # Eliminated moves become self-moves and vanish in the peephole.
        assert with_opt.moves_removed >= without.moves_removed
        a = simulate(with_opt.module, machine)
        b = simulate(without.module, machine)
        assert a.output == b.output == [42]
        assert a.dynamic_instructions <= b.dynamic_instructions


class TestEarlySecondChance:
    def test_eviction_store_becomes_move(self):
        """A value live across a call in a caller-saved register moves to
        an (already used) register instead of paying store+load."""
        machine = tiny(8, 4)
        module = Module()
        helper = Function("noop")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        hb.ret()
        module.add_function(helper)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        # Fill some callee-saved registers so ever_used is non-empty.
        keep = [b.li(i) for i in range(4)]
        x = b.li(77)
        b.call("noop")
        b.print_(x)
        for v in keep:
            b.print_(v)
        b.ret()
        module.add_function(fn)
        with_esc = run_binpack(module, machine)
        without = run_binpack(module, machine,
                              BinpackOptions(early_second_chance=False))
        out_with = simulate(with_esc.module, machine)
        out_without = simulate(without.module, machine)
        assert outputs_equal(out_with.output, out_without.output)
        moves_with = with_esc.stats.spill_static.get(
            (SpillPhase.EVICT, "move"), 0)
        assert moves_with >= without.stats.spill_static.get(
            (SpillPhase.EVICT, "move"), 0)


class TestConsistency:
    def _reload_loop_module(self, machine):
        """A read-only value reloaded in a loop containing a call: its
        evictions should never store (memory stays consistent)."""
        module = Module()
        helper = Function("noop")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        hb.ret()
        module.add_function(helper)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        pinned = [b.li(100 + i) for i in range(6)]  # take the callee-saved
        counter = b.li(3)
        b.jmp("head")
        b.new_block("head")
        b.br(b.slt(b.li(0), counter), "body", "out")
        b.new_block("body")
        b.call("noop")
        for v in pinned:
            b.print_(v)
        b.mov(b.addi(counter, -1), dst=counter)
        b.jmp("head")
        b.new_block("out")
        b.ret()
        module.add_function(fn)
        return module

    def test_variants_agree_on_output(self):
        machine = tiny(6, 4)
        module = self._reload_loop_module(machine)
        reference = simulate(module, machine)
        for options in (BinpackOptions(),
                        BinpackOptions(avoid_consistent_stores=False),
                        BinpackOptions(conservative_consistency=True)):
            result = run_binpack(module, machine, options)
            outcome = simulate(result.module, machine)
            assert outputs_equal(outcome.output, reference.output), options

    def test_consistency_avoids_stores(self):
        machine = tiny(6, 4)
        module = self._reload_loop_module(machine)
        smart = run_binpack(module, machine)
        naive = run_binpack(module, machine,
                            BinpackOptions(avoid_consistent_stores=False))
        smart_stores = simulate(smart.module, machine).spill_counts.get(
            (SpillPhase.EVICT, SpillKind.STORE), 0)
        naive_stores = simulate(naive.module, machine).spill_counts.get(
            (SpillPhase.EVICT, SpillKind.STORE), 0)
        assert smart_stores <= naive_stores

    def test_dataflow_iterations_recorded(self):
        machine = tiny(6, 4)
        module = self._reload_loop_module(machine)
        result = run_binpack(module, machine)
        iters = result.stats.dataflow_iterations
        assert "main" in iters
        # The paper: "terminates in two or three iterations at most".
        assert 0 < iters["main"] <= 4
