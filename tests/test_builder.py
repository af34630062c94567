"""FunctionBuilder coverage: every emitter produces well-formed IR."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Op, make
from repro.ir.temp import PhysReg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.ir.validate import validate_function

G = RegClass.GPR
F = RegClass.FPR


@pytest.fixture
def builder():
    fn = Function("f")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    return b


INT_BINOPS = ["add", "sub", "mul", "div", "rem", "and_", "or_", "xor",
              "shl", "shr", "slt", "sle", "seq", "sne"]
FLOAT_BINOPS = ["fadd", "fsub", "fmul", "fdiv"]
FLOAT_CMPS = ["fslt", "fsle", "fseq", "fsne"]


class TestEmitters:
    def test_all_int_binops(self, builder):
        a, b = builder.li(1), builder.li(2)
        results = [getattr(builder, name)(a, b) for name in INT_BINOPS]
        assert all(r.regclass is G for r in results)
        builder.ret()
        validate_function(builder.fn)

    def test_all_float_ops(self, builder):
        x, y = builder.fli(1.0), builder.fli(2.0)
        for name in FLOAT_BINOPS:
            assert getattr(builder, name)(x, y).regclass is F
        for name in FLOAT_CMPS:
            assert getattr(builder, name)(x, y).regclass is G
        assert builder.fneg(x).regclass is F
        builder.ret()
        validate_function(builder.fn)

    def test_conversions_and_unops(self, builder):
        i = builder.li(3)
        f = builder.itof(i)
        assert f.regclass is F
        assert builder.ftoi(f).regclass is G
        assert builder.neg(i).regclass is G
        assert builder.emit(make(Op.NOT, defs=[builder.temp(G)],
                                 uses=[i])).defs[0].regclass is G
        builder.ret()
        validate_function(builder.fn)

    def test_memory_ops(self, builder):
        base = builder.li(16)
        v = builder.ld(base, 4)
        builder.st(v, base, 8)
        fv = builder.fld(base, 0)
        builder.fst(fv, base, 1)
        slot = StackSlot(0, G)
        builder.sts(v, slot)
        builder.lds(slot, builder.temp(G))
        builder.ret()
        validate_function(builder.fn)

    def test_explicit_destination_reuse(self, builder):
        dst = builder.temp(G, "x")
        builder.li(1, dst=dst)
        builder.add(dst, dst, dst=dst)
        builder.ret(dst)
        validate_function(builder.fn)
        defs = [i.defs[0] for i in builder.fn.entry.instrs if i.defs]
        assert defs == [dst, dst]

    def test_control_flow(self, builder):
        cond = builder.li(1)
        builder.br(cond, "a", "b")
        builder.new_block("a")
        builder.jmp("c")
        builder.new_block("b")
        builder.jmp("c")
        builder.new_block("c")
        builder.ret()
        validate_function(builder.fn)

    def test_emit_without_block_rejected(self):
        b = FunctionBuilder(Function("f"))
        with pytest.raises(ValueError, match="no current block"):
            b.nop()

    def test_call_shapes(self, builder):
        arg = PhysReg(G, 1)
        ret = PhysReg(G, 0)
        builder.call("g", arg_regs=[arg], ret_reg=ret)
        builder.call("h")  # void, no args
        builder.ret()
        calls = [i for i in builder.fn.entry.instrs if i.op is Op.CALL]
        assert calls[0].uses == [arg] and calls[0].defs == [ret]
        assert calls[1].uses == [] and calls[1].defs == []

    def test_switch_to_reopens_block(self, builder):
        """Emission follows ``current``: a block opened earlier takes
        instructions again once it is current, without moving in the
        layout."""
        entry = builder.current
        other = builder.new_block("next")
        builder.current = entry
        builder.jmp("next")
        builder.current = other
        builder.ret()
        assert builder.fn.blocks == [entry, other]
        assert [i.op for i in entry.instrs] == [Op.JMP]
        assert [i.op for i in other.instrs] == [Op.RET]
