"""The post-allocation spill-code cleanup (the paper's future-work pass)."""

import pytest

from repro.allocators import SecondChanceBinpacking, TwoPassBinpacking
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.module import Module
from repro.ir.temp import PhysReg, StackSlot
from repro.ir.types import RegClass
from repro.passes.spillopt import cleanup_spill_code
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import alpha, tiny
from repro.workloads.programs import build_program
from repro.workloads.synthetic import random_module

G = RegClass.GPR


def physical_fn():
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    return fn, b


class TestStoreToLoadForwarding:
    def test_load_becomes_move(self):
        fn, b = physical_fn()
        r1, r2 = PhysReg(G, 1), PhysReg(G, 2)
        slot = StackSlot(0, G)
        b.emit(Instr(Op.LI, defs=[r1], imm=7))
        b.emit(Instr(Op.STS, uses=[r1], slot=slot,
                     spill_phase=SpillPhase.EVICT))
        b.emit(Instr(Op.LDS, defs=[r2], slot=slot,
                     spill_phase=SpillPhase.EVICT))
        b.emit(Instr(Op.PRINT, uses=[r2]))
        b.emit(Instr(Op.PRINT, uses=[r1]))  # keeps the store's source live
        b.ret()
        stats = cleanup_spill_code(fn)
        assert stats.loads_forwarded == 1
        ops = [i.op for i in fn.entry.instrs]
        assert Op.LDS not in ops
        assert Op.MOV in ops

    def test_forwarding_blocked_by_register_redefinition(self):
        fn, b = physical_fn()
        r1, r2 = PhysReg(G, 1), PhysReg(G, 2)
        slot = StackSlot(0, G)
        b.emit(Instr(Op.LI, defs=[r1], imm=7))
        b.emit(Instr(Op.STS, uses=[r1], slot=slot))
        b.emit(Instr(Op.LI, defs=[r1], imm=8))  # clobbers the source
        b.emit(Instr(Op.LDS, defs=[r2], slot=slot))
        b.emit(Instr(Op.PRINT, uses=[r2]))
        b.ret()
        stats = cleanup_spill_code(fn)
        assert stats.loads_forwarded == 0
        assert any(i.op is Op.LDS for i in fn.entry.instrs)

    def test_forwarding_blocked_by_call(self):
        module = Module()
        callee = Function("noop")
        cb = FunctionBuilder(callee)
        cb.new_block("entry")
        cb.ret()
        module.add_function(callee)
        fn, b = physical_fn()
        r1, r2 = PhysReg(G, 1), PhysReg(G, 2)
        slot = StackSlot(0, G)
        b.emit(Instr(Op.LI, defs=[r1], imm=7))
        b.emit(Instr(Op.STS, uses=[r1], slot=slot))
        b.call("noop")
        b.emit(Instr(Op.LDS, defs=[r2], slot=slot))
        b.emit(Instr(Op.PRINT, uses=[r2]))
        b.ret()
        module.add_function(fn)
        stats = cleanup_spill_code(fn)
        assert stats.loads_forwarded == 0

    def test_prologue_traffic_untouched(self):
        fn, b = physical_fn()
        r9 = PhysReg(G, 3)
        slot = StackSlot(0, G)
        b.emit(Instr(Op.STS, uses=[r9], slot=slot,
                     spill_phase=SpillPhase.PROLOGUE))
        b.emit(Instr(Op.LDS, defs=[r9], slot=slot,
                     spill_phase=SpillPhase.PROLOGUE))
        b.ret()
        stats = cleanup_spill_code(fn)
        assert stats.loads_forwarded == 0
        assert stats.stores_removed == 0
        assert [i.op for i in fn.entry.instrs[:2]] == [Op.STS, Op.LDS]


class TestDeadStoreElimination:
    def test_unread_store_removed(self):
        fn, b = physical_fn()
        r1 = PhysReg(G, 1)
        b.emit(Instr(Op.LI, defs=[r1], imm=7))
        b.emit(Instr(Op.STS, uses=[r1], slot=StackSlot(0, G),
                     spill_phase=SpillPhase.EVICT))
        b.ret()
        stats = cleanup_spill_code(fn)
        assert stats.stores_removed == 1
        assert all(i.op is not Op.STS for i in fn.entry.instrs)

    def test_store_read_on_one_path_survives(self):
        fn, b = physical_fn()
        r1, r2 = PhysReg(G, 1), PhysReg(G, 2)
        slot = StackSlot(0, G)
        b.emit(Instr(Op.LI, defs=[r1], imm=7))
        b.emit(Instr(Op.STS, uses=[r1], slot=slot))
        b.emit(Instr(Op.LI, defs=[r1], imm=1))
        b.emit(Instr(Op.BR, uses=[r1], targets=["reader", "skip"]))
        b.new_block("reader")
        b.emit(Instr(Op.LI, defs=[r1], imm=0))  # clobber: no forwarding
        b.emit(Instr(Op.LDS, defs=[r2], slot=slot))
        b.emit(Instr(Op.PRINT, uses=[r2]))
        b.jmp("skip")
        b.new_block("skip")
        b.ret()
        stats = cleanup_spill_code(fn)
        assert stats.stores_removed == 0

    def test_overwritten_store_removed(self):
        fn, b = physical_fn()
        r1 = PhysReg(G, 1)
        slot = StackSlot(0, G)
        b.emit(Instr(Op.LI, defs=[r1], imm=1))
        b.emit(Instr(Op.STS, uses=[r1], slot=slot))  # dead: overwritten
        b.emit(Instr(Op.LI, defs=[r1], imm=2))
        b.emit(Instr(Op.STS, uses=[r1], slot=slot))
        b.emit(Instr(Op.LDS, defs=[r1], slot=slot))
        b.emit(Instr(Op.PRINT, uses=[r1]))
        b.ret()
        stats = cleanup_spill_code(fn)
        # The forwarding pass may first turn the load into a move, after
        # which *both* stores die; either way the first store must go.
        assert stats.stores_removed >= 1


class TestEndToEnd:
    @pytest.mark.parametrize("seed", [3, 11, 29, 47])
    def test_cleanup_preserves_behaviour_on_random_programs(self, seed):
        machine = tiny(4, 4)
        module = random_module(seed, machine, size=22)
        reference = simulate(module, machine, max_steps=2_000_000)
        result = CompilationSession(module, machine).run(
            SecondChanceBinpacking(), spill_cleanup=True)
        outcome = simulate(result.module, machine, max_steps=4_000_000)
        assert outputs_equal(outcome.output, reference.output)

    def test_cleanup_reduces_twopass_loop_traffic(self):
        """Two-pass output is load-heavy; the cleanup should claw some
        back without changing behaviour."""
        machine = alpha()
        module = build_program("wc", machine)
        plain = CompilationSession(module, machine).run(TwoPassBinpacking())
        cleaned = CompilationSession(module, machine).run(TwoPassBinpacking(),
                                                          spill_cleanup=True)
        out_plain = simulate(plain.module, machine)
        out_clean = simulate(cleaned.module, machine)
        assert outputs_equal(out_clean.output, out_plain.output)
        assert (cleaned.spill_cleanup.loads_forwarded
                + cleaned.spill_cleanup.stores_removed) > 0
        assert out_clean.dynamic_instructions <= out_plain.dynamic_instructions
