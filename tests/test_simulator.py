"""Simulator semantics: arithmetic, memory, faults, and strictness."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import PhysReg, StackSlot
from repro.ir.types import RegClass
from repro.sim import SimulationError, simulate
from repro.sim.machine import outputs_equal
from repro.target import tiny

G = RegClass.GPR
F = RegClass.FPR


def run_main(build, machine=None, **kwargs):
    """Build main with ``build(builder)`` and simulate it."""
    module = Module()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    build(b, module)
    module.add_function(fn)
    return simulate(module, machine or tiny(), **kwargs)


class TestIntegerSemantics:
    def test_wrapping_at_64_bits(self):
        def build(b, m):
            big = b.li(2 ** 62)
            four = b.li(4)
            b.print_(b.mul(big, four))  # 2**64 wraps to 0
            b.ret()
        assert run_main(build).output == [0]

    def test_signed_wrap_to_negative(self):
        def build(b, m):
            big = b.li(2 ** 63 - 1)
            b.print_(b.addi(big, 1))
            b.ret()
        assert run_main(build).output == [-(2 ** 63)]

    @pytest.mark.parametrize("a,b,q,r", [
        (7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1),
    ])
    def test_division_truncates_toward_zero(self, a, b, q, r):
        def build(bd, m):
            x, y = bd.li(a), bd.li(b)
            bd.print_(bd.div(x, y))
            bd.print_(bd.rem(x, y))
            bd.ret()
        assert run_main(build).output == [q, r]

    def test_division_by_zero_faults(self):
        def build(b, m):
            b.print_(b.div(b.li(1), b.li(0)))
            b.ret()
        with pytest.raises(SimulationError, match="division by zero"):
            run_main(build)

    def test_shift_semantics(self):
        def build(b, m):
            x = b.li(-16)
            b.print_(b.shr(x, b.li(2)))   # arithmetic: -4
            b.print_(b.shl(b.li(3), b.li(62)))  # wraps
            b.ret()
        out = run_main(build).output
        assert out[0] == -4
        assert out[1] == -(2 ** 62)  # 3<<62 wraps to 0xC000... = -2**62

    def test_comparisons_produce_zero_one(self):
        def build(b, m):
            x, y = b.li(3), b.li(5)
            for op in ("slt", "sle", "seq", "sne"):
                b.print_(getattr(b, op)(x, y))
            b.ret()
        assert run_main(build).output == [1, 1, 0, 1]


class TestFloatSemantics:
    def test_conversions(self):
        def build(b, m):
            f = b.itof(b.li(-3))
            b.print_(f)
            b.print_(b.ftoi(b.fli(2.9)))
            b.print_(b.ftoi(b.fli(-2.9)))
            b.ret()
        assert run_main(build).output == [-3.0, 2, -2]

    def test_ftoi_of_nonfinite_faults(self):
        def build(b, m):
            inf = b.fdiv(b.fli(1.0), b.fli(1e-310))
            b.print_(b.ftoi(inf))
            b.ret()
        with pytest.raises(SimulationError, match="non-finite"):
            run_main(build)

    def test_float_compare_defines_int(self):
        def build(b, m):
            b.print_(b.fslt(b.fli(1.0), b.fli(2.0)))
            b.ret()
        out = run_main(build).output
        assert out == [1] and isinstance(out[0], int)


class TestMemory:
    def test_global_arrays_initialized_and_typed(self):
        def build(b, m):
            arr = m.add_global("a", G, 3, (7, 8))
            base = b.li(arr.base)
            b.print_(b.ld(base, 0))
            b.print_(b.ld(base, 1))
            b.print_(b.ld(base, 2))  # default fill
            b.ret()
        assert run_main(build).output == [7, 8, 0]

    def test_out_of_bounds_faults(self):
        def build(b, m):
            m.add_global("a", G, 2)
            b.print_(b.ld(b.li(10 ** 6), 0))
            b.ret()
        with pytest.raises(SimulationError, match="out of bounds"):
            run_main(build)

    def test_guard_zone_faults(self):
        def build(b, m):
            m.add_global("a", G, 2)
            b.print_(b.ld(b.li(0), 0))
            b.ret()
        with pytest.raises(SimulationError, match="out of bounds"):
            run_main(build)

    def test_type_confusion_faults(self):
        def build(b, m):
            arr = m.add_global("a", F, 2)
            b.print_(b.ld(b.li(arr.base), 0))  # int load of float cell
            b.ret()
        with pytest.raises(SimulationError, match="integer load of float"):
            run_main(build)

    def test_never_written_slot_faults(self):
        def build(b, m):
            b.lds(StackSlot(0, G), b.temp())
            b.ret()
        with pytest.raises(SimulationError, match="never-written"):
            run_main(build)

    def test_slot_round_trip(self):
        def build(b, m):
            x = b.li(99)
            b.sts(x, StackSlot(2, G))
            y = b.lds(StackSlot(2, G), b.temp())
            b.print_(y)
            b.ret()
        assert run_main(build).output == [99]


class TestCallsAndStrictness:
    def _module_with_callee(self, machine, caller_build):
        module = Module()
        callee = Function("id")
        cb = FunctionBuilder(callee)
        cb.new_block("entry")
        arg = machine.param_regs(G)[0]
        ret = machine.ret_reg(G)
        cb.emit(Instr(Op.MOV, defs=[ret], uses=[arg]))
        cb.ret(ret)
        module.add_function(callee)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        caller_build(b, machine)
        module.add_function(fn)
        return module

    def test_poisoning_catches_live_caller_saved_values(self):
        machine = tiny()
        caller_saved = next(r for r in machine.caller_saved(G)
                            if r not in machine.param_regs(G)
                            and r != machine.ret_reg(G))

        def caller(b, mach):
            b.emit(Instr(Op.LI, defs=[caller_saved], imm=123))
            b.emit(Instr(Op.MOV, defs=[mach.param_regs(G)[0]],
                         uses=[caller_saved]))
            b.call("id", arg_regs=[mach.param_regs(G)[0]],
                   ret_reg=mach.ret_reg(G))
            b.emit(Instr(Op.PRINT, uses=[caller_saved]))  # stale!
            b.ret()

        module = self._module_with_callee(machine, caller)
        poisoned = simulate(module, machine, poison_calls=True)
        assert poisoned.output != [123]
        relaxed = simulate(module, machine, poison_calls=False)
        assert relaxed.output == [123]

    def test_callee_saved_clobber_detected(self):
        machine = tiny()
        callee_saved = machine.callee_saved(G)[0]
        module = Module()
        bad = Function("bad")
        bb = FunctionBuilder(bad)
        bb.new_block("entry")
        bb.emit(Instr(Op.LI, defs=[callee_saved], imm=5))
        bb.ret()
        module.add_function(bad)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.call("bad")
        b.ret()
        module.add_function(fn)
        with pytest.raises(SimulationError, match="callee-saved"):
            simulate(module, machine)
        simulate(module, machine, check_callee_saved=False)  # relaxed passes

    def test_return_value_transport(self):
        machine = tiny()

        def caller(b, mach):
            b.emit(Instr(Op.MOV, defs=[mach.param_regs(G)[0]], uses=[b.li(17)]))
            b.call("id", arg_regs=[mach.param_regs(G)[0]],
                   ret_reg=mach.ret_reg(G))
            result = b.mov(mach.ret_reg(G))
            b.print_(result)
            b.ret(result)

        module = self._module_with_callee(machine, caller)
        outcome = simulate(module, machine)
        assert outcome.output == [17]
        assert outcome.result == 17

    def test_step_budget_enforced(self):
        def build(b, m):
            b.jmp("spin")
            b.new_block("spin")
            b.jmp("spin")
        with pytest.raises(SimulationError, match="step budget"):
            run_main(build, max_steps=1000)

    def test_recursion_depth_limited(self):
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.call("main")
        b.ret()
        module.add_function(fn)
        with pytest.raises(SimulationError, match="depth"):
            simulate(module, tiny())


class TestCounting:
    def test_dynamic_counts_and_cycles(self):
        def build(b, m):
            x = b.li(2)          # 1 cycle
            y = b.mul(x, x)      # 4 cycles
            b.print_(y)          # 1
            b.ret()              # 1
        outcome = run_main(build)
        assert outcome.dynamic_instructions == 4
        assert outcome.cycles == 7
        assert outcome.op_counts[Op.MUL] == 1


class TestOutputsEqual:
    def test_nan_equals_nan(self):
        nan = float("nan")
        assert outputs_equal([nan, 1.0], [nan, 1.0])

    def test_type_sensitivity(self):
        assert not outputs_equal([1], [1.0])

    def test_length_and_value_mismatches(self):
        assert not outputs_equal([1], [1, 2])
        assert not outputs_equal([1], [2])
        assert outputs_equal([], [])

    def test_signed_zeros_differ(self):
        """Bit-for-bit floats: -0.0 and 0.0 are different outputs (a
        sign-flipping fneg/fsub must not pass a differential test), while
        NaN still equals NaN."""
        assert not outputs_equal([-0.0], [0.0])
        assert not outputs_equal([0.0], [-0.0])
        assert outputs_equal([-0.0], [-0.0])
        assert outputs_equal([0.0, 0], [0.0, 0])
        assert outputs_equal([float("nan"), -0.0], [float("nan"), -0.0])
