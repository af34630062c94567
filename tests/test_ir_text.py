"""Printer/parser round trips and textual-format edge cases."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase, make
from repro.ir.module import Module
from repro.ir.parser import (IRParseError, parse_function, parse_module,
                             parse_reg)
from repro.ir.printer import print_function, print_instr, print_module
from repro.ir.temp import PhysReg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.ir.validate import MAX_MASK_BITS, MAX_TEMP_ID
from repro.pm.batch import allocation_artifact

G = RegClass.GPR
F = RegClass.FPR


class TestParseReg:
    def test_forms(self):
        assert parse_reg("t3") == Temp(G, 3)
        assert parse_reg("ft12") == Temp(F, 12)
        assert parse_reg("t5.count") == Temp(G, 5, "count")
        assert parse_reg("r0") == PhysReg(G, 0)
        assert parse_reg("f31") == PhysReg(F, 31)

    def test_rejects_garbage(self):
        for bad in ("x1", "t", "rr3", ""):
            with pytest.raises(ValueError):
                parse_reg(bad)


class TestInstrText:
    def test_operand_order_defs_first(self):
        instr = make(Op.LD, defs=[Temp(G, 5)], uses=[Temp(G, 6)], imm=8)
        assert print_instr(instr) == "ld t5, t6, 8"

    def test_store_text(self):
        instr = make(Op.ST, uses=[Temp(G, 1), Temp(G, 2)], imm=-4)
        assert print_instr(instr) == "st t1, t2, -4"

    def test_slot_text_carries_class(self):
        instr = make(Op.LDS, defs=[Temp(F, 0)], slot=StackSlot(3, F))
        assert print_instr(instr) == "lds ft0, [s3.f]"

    def test_spill_phase_suffix(self):
        instr = Instr(Op.STS, uses=[PhysReg(G, 1)], slot=StackSlot(0, G),
                      spill_phase=SpillPhase.EVICT)
        assert print_instr(instr).endswith("!evict")

    def test_call_text(self):
        instr = Instr(Op.CALL, defs=[PhysReg(G, 0)],
                      uses=[PhysReg(G, 1), PhysReg(G, 2)], callee="f")
        assert print_instr(instr) == "call @f(r1, r2) -> r0"

    def test_float_immediate_round_trips_exactly(self):
        instr = make(Op.FLI, defs=[Temp(F, 0)], imm=0.1)
        fn = _wrap(instr)
        reparsed = parse_function(print_function(fn))
        assert reparsed.blocks[0].instrs[0].imm == 0.1


def _wrap(*instrs) -> Function:
    fn = Function("w")
    builder = FunctionBuilder(fn)
    builder.new_block("entry")
    for instr in instrs:
        builder.emit(instr)
    builder.ret()
    return fn


def _sample_module() -> Module:
    module = Module()
    module.add_global("ints", G, 4, (1, -2, 3))
    module.add_global("floats", F, 2, (0.5,))
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    x = b.li(7)
    y = b.addi(x, -3)
    cond = b.slt(y, x)
    b.br(cond, "then", "out")
    b.new_block("then")
    f = b.fli(2.5)
    g = b.fmul(f, f)
    b.print_(g)
    b.sts(y, StackSlot(0, G))
    b.lds(StackSlot(0, G), b.temp())
    b.jmp("out")
    b.new_block("out")
    b.print_(y)
    b.ret(y)
    module.add_function(fn)
    return module


class TestRoundTrip:
    def test_module_round_trip_is_fixed_point(self):
        module = _sample_module()
        text = print_module(module)
        reparsed = parse_module(text)
        assert print_module(reparsed) == text

    def test_globals_survive(self):
        module = parse_module(print_module(_sample_module()))
        assert module.globals["ints"].init == (1, -2, 3)
        assert module.globals["floats"].regclass is F

    def test_parsed_function_mints_fresh_temp_ids(self):
        fn = parse_function("func f() {\nentry:\n  li t7, 1\n  ret t7\n}")
        assert fn.new_temp(G).id == 8


# A temp's id is its liveness bit, so ``t3`` and ``ft3`` would share one
# bit: this module, both temps live across the jump, came back from the
# allocators with a load of a never-written slot.
_SHARED_ID_IR = """func main() {
entry:
  li t3, 5
  fli ft3, 2.5
  jmp next
next:
  print t3
  print ft3
  ret
}
"""

# Every mask as wide as this id takes 5 MB; at t4000000000 one mask
# would take 500 MB.
_HUGE_ID_IR = """func main() {
entry:
  li t40000000, 5
  jmp next
next:
  print t40000000
  ret
}
"""


def _jump_chain(name: str, jumps: int, temp_id: int) -> str:
    """``name`` defines ``t<temp_id>`` and prints it after ``jumps``
    jumps, so the temp is live through all ``jumps + 1`` blocks."""
    lines = [f"func {name}() {{", "b0:", f"  li t{temp_id}, 5"]
    for i in range(1, jumps + 1):
        lines += [f"  jmp b{i}", f"b{i}:"]
    lines += [f"  print t{temp_id}", "  ret", "}"]
    return "\n".join(lines) + "\n"


# Every id is allowed here, but liveness keeps masks as wide as the id for
# every block: 64 blocks x 2**20 bits.
_MANY_BLOCKS_IR = _jump_chain("main", 63, MAX_TEMP_ID - 1)


class TestParseErrors:
    def test_unknown_opcode(self):
        with pytest.raises(IRParseError, match="unknown opcode"):
            parse_function("func f() {\nb:\n  frobnicate t0\n  ret\n}")

    def test_unterminated_function(self):
        with pytest.raises(IRParseError, match="unterminated"):
            parse_module("func f() {\nb:\n  ret")

    def test_instruction_outside_block(self):
        with pytest.raises(IRParseError, match="outside a block"):
            parse_module("func f() {\n  nop\n}")

    def test_trailing_operands(self):
        with pytest.raises(IRParseError, match="trailing"):
            parse_function("func f() {\nb:\n  nop t1\n  ret\n}")

    def test_branch_to_missing_immediate(self):
        with pytest.raises(IRParseError, match="missing"):
            parse_function("func f() {\nb:\n  li t0\n  ret\n}")

    def test_one_id_in_both_classes(self):
        with pytest.raises(IRParseError, match="share one id"):
            parse_module(_SHARED_ID_IR)

    def test_id_too_large(self):
        with pytest.raises(IRParseError, match="ids must be below"):
            parse_module(_HUGE_ID_IR)
        parse_function(f"func f() {{\nb:\n  li t{MAX_TEMP_ID - 1}, 1\n"
                       "  ret\n}")

    def test_mask_bits_bounded_per_module(self):
        with pytest.raises(IRParseError, match="exceeds"):
            parse_module(_MANY_BLOCKS_IR)
        # The bound covers the module, not each function: 9 blocks of
        # 2**20 bits fit once, not twice.
        one = _jump_chain("f", 8, MAX_TEMP_ID - 1)
        assert 9 * MAX_TEMP_ID <= MAX_MASK_BITS < 18 * MAX_TEMP_ID
        parse_module(one)
        with pytest.raises(IRParseError, match="exceeds"):
            parse_module(one + _jump_chain("g", 8, MAX_TEMP_ID - 1))

    @pytest.mark.parametrize("text",
                             [_SHARED_ID_IR, _HUGE_ID_IR, _MANY_BLOCKS_IR],
                             ids=["shared-id", "huge-id", "many-blocks"])
    def test_allocation_service_reports_parse_error(self, text):
        artifact = allocation_artifact(
            {"ir": text, "machine": "alpha", "allocator": "second-chance"})
        assert artifact["error"]["code"] == "parse-error"

    def test_duplicate_label_reports_its_line(self):
        with pytest.raises(IRParseError,
                           match="line 4: duplicate block label 'b'") as info:
            parse_module("func f() {\nb:\n  jmp b\nb:\n  ret\n}")
        assert info.value.lineno == 4

    def test_comments_and_blank_lines_ignored(self):
        fn = parse_function(
            "func f() {\n\nentry:\n  nop ;; a comment\n\n  ret\n}")
        assert fn.instruction_count() == 2
