"""Lifetime intervals and holes — including the paper's Figure 1 shape."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.lifetimes.intervals import Range, RangeSet, compute_lifetimes
from repro.target import tiny

G = RegClass.GPR
F = RegClass.FPR


class TestRangeSet:
    def test_normalization_merges_overlaps_and_adjacency(self):
        rs = RangeSet([(5, 7), (1, 3), (3, 5), (10, 12)])
        assert [(r.start, r.end) for r in rs] == [(1, 7), (10, 12)]

    def test_empty_ranges_dropped(self):
        assert not RangeSet([(3, 3)])

    def test_covers_and_boundaries(self):
        rs = RangeSet([(2, 5), (8, 9)])
        assert not rs.covers(1)
        assert rs.covers(2)
        assert rs.covers(4)
        assert not rs.covers(5)
        assert rs.covers(8)
        assert not rs.covers(9)

    def test_next_covered(self):
        rs = RangeSet([(2, 5), (8, 9)])
        assert rs.next_covered_at_or_after(0) == 2
        assert rs.next_covered_at_or_after(3) == 3
        assert rs.next_covered_at_or_after(5) == 8
        assert rs.next_covered_at_or_after(9) is None

    def test_overlaps_interval(self):
        rs = RangeSet([(2, 5)])
        assert rs.overlaps_interval(0, 3)
        assert rs.overlaps_interval(4, 9)
        assert not rs.overlaps_interval(5, 9)
        assert not rs.overlaps_interval(0, 2)
        assert not rs.overlaps_interval(3, 3)

    def test_overlaps_rangeset(self):
        a = RangeSet([(0, 2), (6, 8)])
        b = RangeSet([(2, 6)])
        c = RangeSet([(7, 10)])
        assert not a.overlaps(b)
        assert a.overlaps(c)
        assert not RangeSet().overlaps(a)

    def test_holes_between_ranges(self):
        rs = RangeSet([(1, 3), (5, 6), (9, 12)])
        assert [(h.start, h.end) for h in rs.holes()] == [(3, 5), (6, 9)]

    def test_clip(self):
        rs = RangeSet([(1, 4), (6, 9)])
        assert [(r.start, r.end) for r in rs.clip(2)] == [(2, 4), (6, 9)]
        assert [(r.start, r.end) for r in rs.clip(4)] == [(6, 9)]
        assert not rs.clip(9)

    def test_range_rejects_empty(self):
        with pytest.raises(ValueError):
            Range(3, 3)


def figure1_function() -> Function:
    """The paper's Figure 1 CFG: a diamond with four temporaries.

    B1 writes T2, reads T1, writes T4 (approximating the figure); B2
    reads/writes as in the left arm; B3 as the right; B4 joins.
    """
    fn = Function("fig1")
    b = FunctionBuilder(fn)
    b.new_block("B1")
    t1 = b.temp(G, "T1")
    t2 = b.temp(G, "T2")
    t4 = b.temp(G, "T4")
    b.li(1, dst=t1)
    b.li(2, dst=t2)          # T2 <- ..
    b.print_(t1)             # .. <- T1
    b.li(4, dst=t4)          # T4 <- ..
    b.br(t2, "B2", "B3")
    b.new_block("B2")
    t3 = b.temp(G, "T3")
    b.mov(t2, dst=t3)        # T3 <- T2
    b.print_(t3)             # .. <- T3
    b.li(1, dst=t1)          # T1 <- ..
    b.li(5, dst=t4)          # T4 <- ..
    b.jmp("B4")
    b.new_block("B3")
    b.print_(t1)             # .. <- T1
    b.print_(t4)             # .. <- T4
    b.li(6, dst=t4)          # T4 <- ..
    b.jmp("B4")
    b.new_block("B4")
    b.print_(t1)
    b.print_(t4)             # .. <- T4
    b.ret(t4)
    return fn


class TestFigure1:
    def test_t4_has_a_hole_over_b2(self):
        """Figure 1's point: a block boundary can open a hole — T4's value
        from B1 is dead through B2 (which rewrites it)."""
        fn = figure1_function()
        table = compute_lifetimes(fn, tiny())
        t4 = next(t for t in table.temps if t.name == "T4")
        holes = table.temps[t4].holes()
        assert holes, "T4 should have a lifetime hole"
        b2_span = table.block_span["B2"]
        assert any(h.start <= b2_span[0] and h.end >= b2_span[0]
                   for h in holes), "the hole should cover B2's entry"

    def test_t3_fits_in_linear_order(self):
        fn = figure1_function()
        table = compute_lifetimes(fn, tiny())
        t3 = next(t for t in table.temps if t.name == "T3")
        t3_life = table.temps[t3]
        # T3 lives only inside B2.
        b2 = table.block_span["B2"]
        assert b2[0] <= t3_life.start and t3_life.end <= b2[1]

    def test_lifetime_alive_and_hole_queries_agree(self):
        fn = figure1_function()
        table = compute_lifetimes(fn, tiny())
        for lifetime in table.temps.values():
            holes = lifetime.holes()
            for point in range(lifetime.start, lifetime.end):
                in_hole = any(point in hole for hole in holes)
                assert lifetime.alive_at(point) != in_hole


class TestNumbering:
    def test_points_are_two_per_instruction(self):
        fn = figure1_function()
        table = compute_lifetimes(fn, tiny())
        assert table.max_point == 2 * fn.instruction_count()
        for block in fn.blocks:
            start, end = table.block_span[block.label]
            assert end - start == 2 * len(block.instrs)

    def test_block_spans_partition_the_function(self):
        fn = figure1_function()
        table = compute_lifetimes(fn, tiny())
        spans = [table.block_span[b.label] for b in fn.blocks]
        assert spans[0][0] == 0
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 == s2
        assert spans[-1][1] == table.max_point


class TestDefUseShapes:
    def test_dead_def_occupies_one_point(self):
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        dead = b.li(42)  # never used
        b.ret()
        table = compute_lifetimes(fn, tiny())
        life = table.temps[dead]
        assert [(r.start, r.end) for r in life.live] == [(1, 2)]

    def test_same_temp_use_and_def(self):
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(1)
        b.add(x, x, dst=x)  # use at 2, def at 3 -> continuous
        b.print_(x)
        b.ret()
        table = compute_lifetimes(fn, tiny())
        assert len(table.temps[x].live) == 1

    def test_next_ref_and_depth(self):
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(3)
        b.jmp("head")
        b.new_block("head")
        c = b.slt(b.li(0), x)
        b.br(c, "body", "out")
        b.new_block("body")
        b.mov(b.addi(x, -1), dst=x)
        b.jmp("head")
        b.new_block("out")
        b.ret(x)
        table = compute_lifetimes(fn, tiny())
        # x's first ref is its def (point 1); subsequent refs are in the loop.
        point, depth = table.next_ref_at_or_after(x, 0)
        assert point == 1 and depth == 0
        later = table.next_ref_at_or_after(x, 4)
        assert later is not None and later[1] == 1  # loop depth 1
        assert table.next_ref_at_or_after(x, 10 ** 9) is None


class TestReservations:
    def test_call_reserves_caller_saved_only(self):
        mach = tiny(6, 6)
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.call("g")
        b.ret()
        table = compute_lifetimes(fn, mach)
        # The call is the entry's first instruction: points 0 (read)
        # and 1 (write).
        start = table.block_span["entry"][0]
        window = (start, start + 2)
        for reg in mach.caller_saved(G):
            assert table.reserved_for(reg).overlaps_interval(*window)
        for reg in mach.callee_saved(G):
            assert not table.reserved_for(reg).overlaps_interval(*window)

    def test_arg_register_reserved_from_setup_to_call(self):
        mach = tiny(6, 6)
        arg = mach.param_regs(G)[0]
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(7)
        b.emit(Instr(Op.MOV, defs=[arg], uses=[x]))  # instr 1
        b.call("g", arg_regs=[arg])                  # instr 2
        b.ret()
        table = compute_lifetimes(fn, mach)
        reserved = table.reserved_for(arg)
        # Reserved from its def (point 3) through the call window.
        assert reserved.covers(3)
        assert reserved.covers(4)
        assert reserved.covers(5)

    def test_register_outside_the_file_is_refused(self):
        """An explicit register the machine lacks (possible in parsed IR)
        has no slot in the per-register reservations: it is refused by
        name rather than dropped or hit as a bare index error."""
        mach = tiny(4, 4)
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(7)
        b.emit(Instr(Op.MOV, defs=[PhysReg(G, 40)], uses=[x]))
        b.ret()
        with pytest.raises(ValueError, match="r40 does not exist"):
            compute_lifetimes(fn, mach)
