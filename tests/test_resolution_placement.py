"""Resolution-code placement: the paper's footnote 1, plus our hazard
guards (terminator-operand clobber, entry block)."""

import pytest

from repro.allocators import SecondChanceBinpacking
from repro.allocators.binpack.allocator import BinpackOptions
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


def loop_to_entryish_module():
    """A CFG whose hot edge targets a block with several predecessors and
    whose tail has several successors — forcing a critical-edge split if
    any resolution traffic lands there."""
    module = Module()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    pinned = [b.li(i) for i in range(7)]
    counter = b.li(3)
    b.jmp("head")
    b.new_block("head")   # two preds (entry, tail), so no top placement
    cond = b.slt(b.li(0), counter)
    b.br(cond, "body", "out")
    b.new_block("body")
    acc = b.li(0)
    for v in pinned:
        acc = b.add(acc, v)
    b.print_(acc)
    b.mov(b.addi(counter, -1), dst=counter)
    # The tail branches (two successors) back to head or to a side exit:
    side = b.seq(counter, b.li(-1))
    b.br(side, "weird", "head")
    b.new_block("weird")
    b.print_(counter)
    b.jmp("head")
    b.new_block("out")
    b.ret()
    module.add_function(fn)
    return module


class TestPlacement:
    def test_critical_edges_get_split_blocks(self):
        machine = tiny(4, 4)
        module = loop_to_entryish_module()
        reference = simulate(module, machine)
        result = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)
        labels = [blk.label for blk in result.module.functions["main"].blocks]
        # If any resolution code was needed on body->head (critical), a
        # split block exists; at minimum the function still validates and
        # has at least the original six blocks.
        assert len(labels) >= 6

    def test_split_blocks_only_contain_resolution_and_jump(self):
        machine = tiny(4, 4)
        module = loop_to_entryish_module()
        result = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        for blk in result.module.functions["main"].blocks:
            if not blk.label.startswith("split."):
                continue
            assert blk.terminator.op is Op.JMP
            for instr in blk.body:
                assert instr.spill_phase is SpillPhase.RESOLVE

    def test_back_edge_to_entry_block(self):
        """A loop whose back edge targets the entry block.  (A correct
        program can carry no temporaries into entry — they would be
        uninitialized on function entry — so the placement guard that
        keeps edge code off entry's top is defensive; this test pins the
        end-to-end behaviour of the shape itself.)  The loop counter
        lives in the heap so re-executing entry does not reset it."""
        machine = tiny(4, 4)
        module = Module()
        arr = module.add_global("counter", G, 1, (0,))
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")  # also the loop header
        base = b.li(arr.base)
        count = b.ld(base, 0)
        bumped = b.addi(count, 1)
        b.st(bumped, base, 0)
        # Pressure inside the loop header.
        vals = [b.li(10 + i) for i in range(5)]
        acc = b.li(0)
        for v in vals:
            acc = b.add(acc, v)
        b.print_(acc)
        cond = b.slt(bumped, b.li(3))
        b.br(cond, "entry", "done")
        b.new_block("done")
        b.print_(bumped)
        b.ret()
        module.add_function(fn)
        reference = simulate(module, machine)
        assert reference.output == [60, 60, 60, 3]
        result = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)

    @pytest.mark.parametrize("conservative", [False, True])
    def test_branch_condition_register_never_clobbered(self, conservative):
        """Bottom-of-predecessor placement sits before the terminator; if
        the branch reads a register the edge code writes, the edge must be
        split instead.  Exercised by a branch whose both arms target the
        same join with heavy traffic."""
        machine = tiny(4, 4)
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        keep = [b.li(i) for i in range(6)]
        cond = b.slt(keep[0], keep[1])
        b.br(cond, "left", "right")
        b.new_block("left")
        acc = b.li(0)
        for v in keep:
            acc = b.add(acc, v)
        b.print_(acc)
        b.jmp("join")
        b.new_block("right")
        b.print_(keep[2])
        b.jmp("join")
        b.new_block("join")
        for v in keep:
            b.print_(v)
        b.ret()
        module.add_function(fn)
        reference = simulate(module, machine)
        options = BinpackOptions(conservative_consistency=conservative)
        result = CompilationSession(module, machine).run(
            SecondChanceBinpacking(options))
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)
