"""Unit tests for blocks, functions, and modules."""

import pytest

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, make
from repro.ir.module import HEAP_BASE, Module
from repro.ir.types import RegClass

G = RegClass.GPR


def ret():
    return Instr(Op.RET)


class TestBasicBlock:
    def test_terminator_required(self):
        block = BasicBlock("b")
        with pytest.raises(ValueError, match="no terminator"):
            block.terminator

    def test_append_past_terminator_rejected(self):
        block = BasicBlock("b")
        block.append(ret())
        with pytest.raises(ValueError, match="already terminated"):
            block.append(make(Op.NOP))

    def test_successors_of_each_terminator(self):
        jmp = BasicBlock("a", [make(Op.JMP, targets=["x"])])
        br = BasicBlock("b", [Instr(Op.BR, uses=[], targets=["x", "y"])])
        done = BasicBlock("c", [ret()])
        assert jmp.successors() == ["x"]
        assert br.successors() == ["x", "y"]
        assert done.successors() == []

    def test_insert_before_terminator(self):
        block = BasicBlock("b", [make(Op.NOP), ret()])
        block.insert_before_terminator([make(Op.NOP), make(Op.NOP)])
        assert len(block) == 4
        assert block.instrs[-1].op is Op.RET

    def test_insert_at_top(self):
        block = BasicBlock("b", [ret()])
        marker = make(Op.NOP)
        block.insert_at_top([marker])
        assert block.instrs[0] is marker

    def test_body_excludes_terminator(self):
        block = BasicBlock("b", [make(Op.NOP), ret()])
        assert len(block.body) == 1


class TestFunction:
    def test_temps_are_unique_and_ordered(self):
        fn = Function("f")
        a = fn.new_temp(G)
        b = fn.new_temp(G)
        assert a.id < b.id
        assert fn.new_temp(G).id == b.id + 1

    def test_duplicate_block_labels_rejected(self):
        fn = Function("f")
        fn.add_block(BasicBlock("x"))
        with pytest.raises(ValueError, match="duplicate"):
            fn.add_block(BasicBlock("x"))

    def test_entry_is_first_block(self):
        fn = Function("f")
        first = fn.add_block(BasicBlock("one"))
        fn.add_block(BasicBlock("two"))
        assert fn.entry is first

    def test_block_lookup(self):
        fn = Function("f")
        block = fn.add_block(BasicBlock("x"))
        assert fn.block("x") is block
        with pytest.raises(KeyError):
            fn.block("nope")

    def test_new_label_avoids_collisions(self):
        fn = Function("f")
        fn.add_block(BasicBlock("b0"))
        fn.add_block(BasicBlock("b1"))
        label = fn.new_label()
        assert label not in {"b0", "b1"}

    def test_all_temps_first_appearance_order(self):
        fn = Function("f")
        block = fn.add_block(BasicBlock("b"))
        a, b = fn.new_temp(G), fn.new_temp(G)
        block.append(make(Op.MOV, defs=[b], uses=[a]))
        block.append(ret())
        assert fn.all_temps() == [b, a]

    def test_note_temp_ids_bumps_counter(self):
        fn = Function("f")
        block = fn.add_block(BasicBlock("b"))
        block.append(make(Op.LI, defs=[fn.new_temp(G)], imm=1))
        # Simulate a parser writing a high-id temp directly.
        from repro.ir.temp import Temp
        block.append(make(Op.LI, defs=[Temp(G, 41)], imm=2))
        block.append(ret())
        fn.note_temp_ids()
        assert fn.new_temp(G).id == 42


class TestModule:
    def test_global_layout_is_contiguous_above_guard(self):
        module = Module()
        a = module.add_global("a", G, 10)
        b = module.add_global("b", G, 5)
        assert a.base == HEAP_BASE
        assert b.base == HEAP_BASE + 10
        assert module.heap_size == HEAP_BASE + 15

    def test_duplicate_names_rejected(self):
        module = Module()
        module.add_global("a", G, 1)
        with pytest.raises(ValueError):
            module.add_global("a", G, 1)
        module.add_function(Function("f"))
        with pytest.raises(ValueError):
            module.add_function(Function("f"))

    def test_initializer_length_checked(self):
        module = Module()
        with pytest.raises(ValueError, match="longer"):
            module.add_global("a", G, 2, (1, 2, 3))

    def test_nonpositive_size_rejected(self):
        module = Module()
        with pytest.raises(ValueError, match="positive"):
            module.add_global("a", G, 0)

    def test_function_lookup_error(self):
        with pytest.raises(KeyError, match="nope"):
            Module().function("nope")
