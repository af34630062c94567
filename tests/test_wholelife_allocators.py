"""Two-pass binpacking and Poletto linear scan behaviour tests."""

import pytest

from repro.allocators import PolettoLinearScan, SecondChanceBinpacking, TwoPassBinpacking
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.module import Module
from repro.ir.types import RegClass
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import tiny

G = RegClass.GPR


def call_loop_module(machine, n_live: int):
    """``n_live`` ints live across a call inside a loop — the Section 3.1
    wc scenario in miniature."""
    module = Module()
    helper = Function("io")
    hb = FunctionBuilder(helper)
    hb.new_block("entry")
    hb.ret()
    module.add_function(helper)
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    live = [b.li(i * 3 + 1) for i in range(n_live)]
    counter = b.li(4)
    b.jmp("head")
    b.new_block("head")
    b.br(b.slt(b.li(0), counter), "body", "out")
    b.new_block("body")
    b.call("io")
    # Each crossing value is read several times per iteration: a
    # register-resident copy amortizes, a memory-resident one reloads at
    # every use (the two-pass penalty of Section 3.1).
    acc = b.li(0)
    for v in live:
        acc = b.add(acc, v)
    for v in live:
        acc = b.xor(acc, v)
    for v in live:
        acc = b.sub(acc, v)
    b.print_(acc)
    b.mov(b.addi(counter, -1), dst=counter)
    b.jmp("head")
    b.new_block("out")
    b.ret()
    module.add_function(fn)
    return module


class TestTwoPass:
    def test_correct_on_call_loop(self):
        machine = tiny(6, 4)
        module = call_loop_module(machine, 5)
        reference = simulate(module, machine)
        result = CompilationSession(module, machine).run(TwoPassBinpacking())
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)

    def test_no_resolution_code_ever(self):
        """Whole-lifetime homes never disagree across edges."""
        machine = tiny(5, 4)
        module = call_loop_module(machine, 6)
        result = CompilationSession(module, machine).run(TwoPassBinpacking())
        assert not any(phase is SpillPhase.RESOLVE
                       for phase, _ in result.stats.spill_static)

    def test_second_chance_reloads_less_than_two_pass(self):
        """Two-pass reloads a memory-resident value at *every* use; second
        chance reloads once and stays resident until the next eviction
        ("we do not have to reload u if we make another reference to it in
        the near future", Section 2.3).  With each crossing value read
        three times per iteration, the load counts must separate."""
        machine = tiny(6, 4)
        module = call_loop_module(machine, 6)
        two_pass = CompilationSession(module, machine).run(TwoPassBinpacking())
        second = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        tp_out = simulate(two_pass.module, machine)
        sc_out = simulate(second.module, machine)
        assert outputs_equal(tp_out.output, sc_out.output)
        from repro.ir.instr import SpillKind
        tp_loads = tp_out.spill_counts.get((SpillPhase.EVICT, SpillKind.LOAD), 0)
        sc_loads = (sc_out.spill_counts.get((SpillPhase.EVICT, SpillKind.LOAD), 0)
                    + sc_out.spill_counts.get((SpillPhase.RESOLVE, SpillKind.LOAD), 0))
        assert sc_loads < tp_loads

    def test_stores_after_every_def_of_spilled(self):
        """Two-pass 'does not avoid unnecessary stores' (Section 3.1)."""
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        vals = [b.li(i) for i in range(8)]
        acc = b.li(0)
        for v in vals:
            acc = b.add(acc, v)
        b.print_(acc)
        b.ret(acc)
        module.add_function(fn)
        result = CompilationSession(module, machine).run(TwoPassBinpacking())
        stores = result.stats.spill_static.get((SpillPhase.EVICT, "store"), 0)
        loads = result.stats.spill_static.get((SpillPhase.EVICT, "load"), 0)
        assert stores > 0 and loads > 0
        assert simulate(result.module, machine).output == [28]


class TestPoletto:
    def test_correct_under_pressure(self):
        machine = tiny(4, 4)
        module = call_loop_module(machine, 7)
        reference = simulate(module, machine)
        result = CompilationSession(module, machine).run(PolettoLinearScan())
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)

    def test_ignores_holes_entirely(self):
        """A temp with a huge hole still blocks its register for the whole
        interval: with one usable register and an interleaved pair, the
        Poletto allocator must spill where hole-aware binpacking neednt."""
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        t1 = b.temp(G, "T1")
        b.li(5, dst=t1)
        b.print_(t1)
        fillers = [b.li(10 + i) for i in range(3)]
        for f in fillers:
            b.print_(f)
        b.li(6, dst=t1)  # T1 resumes after a long hole
        b.print_(t1)
        b.ret()
        module.add_function(fn)
        poletto = CompilationSession(module, machine).run(PolettoLinearScan())
        second = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        p_spill = sum(poletto.stats.spill_static.values())
        s_spill = sum(second.stats.spill_static.values())
        assert p_spill >= s_spill
        assert (simulate(poletto.module, machine).output
                == simulate(second.module, machine).output)

    def test_spills_longest_interval_first(self):
        """The furthest-ending active interval is demoted on pressure."""
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        long_lived = b.li(999)           # ends at the very bottom
        shorts = [b.li(i) for i in range(5)]
        acc = b.li(0)
        for v in shorts:
            acc = b.add(acc, v)
        b.print_(acc)
        b.print_(long_lived)
        b.ret()
        module.add_function(fn)
        result = CompilationSession(module, machine).run(PolettoLinearScan())
        assert simulate(result.module, machine).output == [10, 999]
