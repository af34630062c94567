"""Unit tests for the IR atoms: register classes, temps, registers, slots."""

import pickle

import pytest

from repro.ir.instr import Op, SpillKind, SpillPhase
from repro.ir.temp import PhysReg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.obs.trace import EventKind

#: Every enum that takes the C-level identity hash.
IDENTITY_HASHED = (RegClass, Op, SpillPhase, SpillKind, EventKind)


class TestRegClass:
    def test_prefixes(self):
        assert RegClass.GPR.prefix == "t"
        assert RegClass.FPR.prefix == "ft"

    def test_ordering_is_total_and_gpr_first(self):
        assert RegClass.GPR < RegClass.FPR
        assert not (RegClass.FPR < RegClass.GPR)
        assert sorted([RegClass.FPR, RegClass.GPR]) == [RegClass.GPR,
                                                        RegClass.FPR]


class TestTemp:
    def test_str_forms(self):
        assert str(Temp(RegClass.GPR, 3)) == "t3"
        assert str(Temp(RegClass.FPR, 7)) == "ft7"
        assert str(Temp(RegClass.GPR, 1, "acc")) == "t1.acc"

    def test_name_does_not_affect_equality(self):
        assert Temp(RegClass.GPR, 5, "x") == Temp(RegClass.GPR, 5, "y")
        assert hash(Temp(RegClass.GPR, 5, "x")) == hash(Temp(RegClass.GPR, 5))

    def test_sorting_groups_by_class_then_id(self):
        temps = [Temp(RegClass.FPR, 0), Temp(RegClass.GPR, 2),
                 Temp(RegClass.GPR, 1)]
        assert sorted(temps) == [Temp(RegClass.GPR, 1), Temp(RegClass.GPR, 2),
                                 Temp(RegClass.FPR, 0)]

    def test_distinct_classes_never_equal(self):
        assert Temp(RegClass.GPR, 0) != Temp(RegClass.FPR, 0)


class TestPhysRegAndSlot:
    def test_str_forms(self):
        assert str(PhysReg(RegClass.GPR, 4)) == "r4"
        assert str(PhysReg(RegClass.FPR, 12)) == "f12"
        assert str(StackSlot(3, RegClass.GPR)) == "[s3]"

    def test_temp_and_physreg_never_compare_equal(self):
        assert Temp(RegClass.GPR, 0) != PhysReg(RegClass.GPR, 0)


class TestHashContract:
    """Register-keyed dicts and sets on the allocators' hot paths rely on
    these hashes; equality and ordering do not depend on them."""

    @pytest.mark.parametrize("cls", (RegClass.GPR, RegClass.FPR))
    def test_equal_temps_hash_equal_whatever_their_names(self, cls):
        named = [Temp(cls, 9), Temp(cls, 9, "x"), Temp(cls, 9, "y")]
        assert len({hash(t) for t in named}) == 1
        assert len(set(named)) == 1

    def test_equal_physregs_hash_equal(self):
        for cls in RegClass:
            for index in range(4):
                assert hash(PhysReg(cls, index)) == hash(PhysReg(cls, index))
        regs = {PhysReg(cls, i) for cls in RegClass for i in range(32)}
        assert len(regs) == 64

    @pytest.mark.parametrize("cls", (RegClass.GPR, RegClass.FPR))
    @pytest.mark.parametrize("i", (0, 1, 2, 31))
    def test_temp_and_physreg_are_distinct_keys(self, cls, i):
        temp, reg = Temp(cls, i), PhysReg(cls, i)
        table = {temp: "temp", reg: "reg"}
        assert len(table) == 2
        assert table[Temp(cls, i, "named")] == "temp"
        assert table[PhysReg(cls, i)] == "reg"

    @pytest.mark.parametrize("enum_cls", IDENTITY_HASHED,
                             ids=lambda e: e.__name__)
    def test_identity_hashed_enums_survive_pickle(self, enum_cls):
        assert enum_cls.__hash__ is object.__hash__
        for member in enum_cls:
            back = pickle.loads(pickle.dumps(member))
            assert back is member
            assert hash(back) == hash(member)
        members = {member: member.name for member in enum_cls}
        assert pickle.loads(pickle.dumps(members)) == members

    def test_register_keyed_dict_survives_pickle(self):
        table = {Temp(RegClass.GPR, 3, "x"): PhysReg(RegClass.GPR, 1),
                 Temp(RegClass.FPR, 4): PhysReg(RegClass.FPR, 1),
                 PhysReg(RegClass.GPR, 3): RegClass.GPR}
        back = pickle.loads(pickle.dumps(table))
        assert back == table
        assert list(back) == list(table)
        assert back[Temp(RegClass.GPR, 3)] == PhysReg(RegClass.GPR, 1)
        assert back[PhysReg(RegClass.GPR, 3)] is RegClass.GPR
