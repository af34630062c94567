"""Unit tests for instructions: signatures, the checked constructor,
spill tagging, and operand rewriting."""

import pytest

from repro.ir.instr import OP_INFO, Instr, Op, SpillKind, SpillPhase, make
from repro.ir.temp import PhysReg, StackSlot, Temp
from repro.ir.types import RegClass

G = RegClass.GPR
F = RegClass.FPR


def t(i, cls=G):
    return Temp(cls, i)


class TestOpInfo:
    def test_every_opcode_has_a_signature(self):
        assert set(OP_INFO) == set(Op)

    def test_terminators(self):
        terminators = {op for op, info in OP_INFO.items() if info.terminator}
        assert terminators == {Op.JMP, Op.BR, Op.RET}

    def test_commutativity_flags(self):
        assert OP_INFO[Op.ADD].commutative
        assert not OP_INFO[Op.SUB].commutative
        assert OP_INFO[Op.FMUL].commutative
        assert not OP_INFO[Op.FDIV].commutative

    def test_float_compares_define_gprs(self):
        for op in (Op.FSLT, Op.FSLE, Op.FSEQ, Op.FSNE):
            info = OP_INFO[op]
            assert info.def_classes == (G,)
            assert info.use_classes == (F, F)


class TestMake:
    def test_simple_binop(self):
        instr = make(Op.ADD, defs=[t(0)], uses=[t(1), t(2)])
        assert instr.defs == [t(0)]
        assert instr.uses == [t(1), t(2)]
        assert not instr.is_terminator

    def test_wrong_def_count_rejected(self):
        with pytest.raises(ValueError, match="expected 1 defs"):
            make(Op.ADD, defs=[], uses=[t(1), t(2)])

    def test_wrong_use_count_rejected(self):
        with pytest.raises(ValueError, match="expected 2 uses"):
            make(Op.ADD, defs=[t(0)], uses=[t(1)])

    def test_missing_immediate_rejected(self):
        with pytest.raises(ValueError, match="missing immediate"):
            make(Op.LI, defs=[t(0)])

    def test_missing_targets_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            make(Op.BR, uses=[t(0)], targets=["one"])

    def test_missing_callee_rejected(self):
        with pytest.raises(ValueError, match="callee"):
            make(Op.CALL)

    def test_missing_slot_rejected(self):
        with pytest.raises(ValueError, match="stack slot"):
            make(Op.LDS, defs=[t(0)])


class TestSpillTagging:
    def test_untagged_instruction_has_no_kind(self):
        assert make(Op.NOP).spill_kind() is None

    def test_kinds_follow_opcode(self):
        slot = StackSlot(0, G)
        load = Instr(Op.LDS, defs=[t(0)], slot=slot,
                     spill_phase=SpillPhase.EVICT)
        store = Instr(Op.STS, uses=[t(0)], slot=slot,
                      spill_phase=SpillPhase.RESOLVE)
        move = Instr(Op.MOV, defs=[t(0)], uses=[t(1)],
                     spill_phase=SpillPhase.EVICT)
        assert load.spill_kind() is SpillKind.LOAD
        assert store.spill_kind() is SpillKind.STORE
        assert move.spill_kind() is SpillKind.MOVE

    def test_non_spill_opcode_with_tag_rejected(self):
        instr = Instr(Op.ADD, defs=[t(0)], uses=[t(1), t(2)],
                      spill_phase=SpillPhase.EVICT)
        with pytest.raises(ValueError):
            instr.spill_kind()


class TestOperandAccess:
    def test_regs_and_temps(self):
        instr = make(Op.ST, uses=[t(1), PhysReg(G, 3)], imm=0)
        assert instr.regs() == [t(1), PhysReg(G, 3)]
        assert instr.temps() == [t(1)]

    def test_copy_is_independent(self):
        instr = make(Op.ADD, defs=[t(0)], uses=[t(1), t(2)])
        dup = instr.copy()
        dup.uses[0] = t(9)
        assert instr.uses[0] == t(1)
        assert dup is not instr

    def test_identity_semantics(self):
        a = make(Op.NOP)
        b = make(Op.NOP)
        assert a != b
        assert len({a, b}) == 2

    def test_move_predicate(self):
        assert make(Op.MOV, defs=[t(0)], uses=[t(1)]).is_move
        assert make(Op.FMOV, defs=[t(0, F)], uses=[t(1, F)]).is_move
        assert not make(Op.ADD, defs=[t(0)], uses=[t(1), t(2)]).is_move

    def test_call_predicate(self):
        assert Instr(Op.CALL, callee="f").is_call
        assert not make(Op.NOP).is_call
