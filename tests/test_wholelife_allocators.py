"""Two-pass binpacking and Poletto linear scan behaviour tests."""

import random

import pytest

from repro.allocators import (PolettoLinearScan, SecondChanceBinpacking,
                              TwoPassBinpacking, make_allocator)
from repro.fuzz.generate import program_for_seed
from repro.fuzz.harness import CONFIG_GRID, check_config, reference_outcome
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.module import Module
from repro.ir.parser import parse_module
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


#: Valid IR whose layout puts a use before its def in linear order: ``t5``
#: is defined in ``L2`` but read in ``L1``, which is laid out first, so
#: ``t5`` is live from the top of ``L1`` though its first reference sits
#: at the bottom of it.
USE_BEFORE_DEF_IR = """
func main() {
entry:
  li t20, 2
  li t21, 3
  li t22, 4
  li t1, 5
  jmp L2
L1:
  add t9, t1, t1
  add t9, t9, t20
  add t9, t9, t21
  add t9, t9, t22
  add t9, t9, t5
  print t9
  ret
L2:
  li t5, 7
  jmp L1
}
"""

ALLOCATOR_CONFIGS = tuple(c for c in CONFIG_GRID
                          if c.name in ("sc-default", "two-pass", "coloring",
                                        "poletto"))


class TestLayout:
    @pytest.mark.parametrize("config", ALLOCATOR_CONFIGS,
                             ids=lambda c: c.allocator)
    def test_use_before_def_in_linear_order(self, config):
        """A scratch register is occupied like a home: ``t20``'s reload
        takes a register at the top of ``L1``, so ``t5``, decided later
        but live there, must not take the same one."""
        machine = tiny(4, 4)
        module = parse_module(USE_BEFORE_DEF_IR)
        result = CompilationSession(module, machine).run(
            make_allocator(config.allocator, config.options),
            verify_dataflow=True)
        assert simulate(result.module, machine).output == [26]

    @pytest.mark.parametrize("seed", range(24))
    def test_scrambled_block_layout(self, seed):
        """The generator lays blocks out so that defs mostly precede uses;
        shuffled layouts reach the first-reference paths it never does,
        and move where lifetimes end, so every second-chance ablation
        runs here too."""
        program = program_for_seed(seed)
        rng = random.Random(seed)
        for fn in program.module.functions.values():
            rest = fn.blocks[1:]
            rng.shuffle(rest)
            fn.blocks[1:] = rest
        ref = reference_outcome(program.module, program.machine)
        assert ref is not None
        for config in CONFIG_GRID:
            found = check_config(program.module, program.machine, config, ref)
            assert found is None, (config.name, found)


class _RecordingTwoPass(TwoPassBinpacking):
    """Two-pass that remembers the demoted set of its last round."""

    def sweep(self, table, emitter, demoted):
        self.demoted = set(demoted)
        return super().sweep(table, emitter, demoted)


def test_victim_tie_demotes_the_home_decided_first():
    """``a`` and ``b`` tie on priority where ``m`` finds no scratch
    register.  ``a`` was decided first, though ``b`` sits in the register
    that was committed first (it reuses ``x``'s), so ``a`` is demoted."""
    machine = tiny(4, 4)
    module = Module()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    x = b.li(9)
    a = b.li(1)
    b.print_(x)
    t_b = b.li(2)
    c = b.li(3)
    d = b.li(4)
    m = b.li(5)
    e = b.add(c, d)            # c and d are read first ...
    f = b.add(a, t_b)          # ... a and b next, at the same point
    b.print_(b.add(b.add(e, f), m))
    b.ret()
    module.add_function(fn)
    allocator = _RecordingTwoPass()
    result = CompilationSession(module, machine).run(allocator,
                                                     verify_dataflow=True)
    assert allocator.demoted == {a}
    assert simulate(result.module, machine).output == [9, 15]


@pytest.mark.parametrize("allocator, prefix", [
    (PolettoLinearScan, "linearscan"), (TwoPassBinpacking, "twopass")])
def test_memory_resident_counts_every_candidate_without_a_home(allocator,
                                                               prefix):
    """Each homeless candidate gets a memory slot, whether a restart
    demoted it or the home rule found no register for it."""
    machine = tiny(4, 4)
    module = call_loop_module(machine, 7)
    result = CompilationSession(module, machine).run(allocator())
    metrics = result.stats.metrics.snapshot()
    assert metrics[f"{prefix}.memory_resident"] > metrics[f"{prefix}.restarts"]
    assert metrics[f"{prefix}.memory_resident"] == metrics["alloc.spilled_temps"]
