"""Bit vectors, the generic solver, and liveness."""

from repro.cfg.cfg import CFG
from repro.dataflow.bitvector import bits_of, translate_mask
from repro.dataflow.framework import DataflowProblem, solve
from repro.dataflow.liveness import compute_liveness
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.types import RegClass

G = RegClass.GPR


class TestBitVector:
    def test_bits_of_orders_ascending(self):
        assert list(bits_of(0)) == []
        assert list(bits_of(0b101001)) == [0, 3, 5]

    def test_translate_mask_reindexes_masks(self):
        table = [1 << 5, 0, 1 << 1, 0]  # bits 1 and 3 dropped
        assert translate_mask(0b1111, table) == (1 << 5) | (1 << 1)
        assert translate_mask(0b1010, table) == 0  # only dropped bits set
        assert translate_mask(0, table) == 0


def loop_function():
    """x defined in entry, used in a loop body; y local to the body."""
    fn = Function("f")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    x = b.li(10)
    b.jmp("head")
    b.new_block("head")
    cond = b.slt(b.li(0), x)
    b.br(cond, "body", "out")
    b.new_block("body")
    y = b.addi(x, -1)
    b.mov(y, dst=x)
    b.jmp("head")
    b.new_block("out")
    b.print_(x)
    b.ret(x)
    return fn, x, y


class TestLiveness:
    def test_block_locals_have_no_bit(self):
        fn, x, y = loop_function()
        info = compute_liveness(fn)
        assert info.temps == {x.id: x}
        assert info.global_mask == 1 << x.id
        # y is defined and used within one block: its bit is never set.
        bit = 1 << y.id
        for label in info.live_in:
            assert not info.live_in[label] & bit
            assert not info.live_out[label] & bit

    def test_live_sets_of_loop(self):
        fn, x, y = loop_function()
        info = compute_liveness(fn)
        bit = 1 << x.id
        assert info.live_out["entry"] & bit
        assert info.live_in["head"] & bit
        assert info.live_out["body"] & bit
        assert info.live_in["out"] & bit
        # x dies at the ret; nothing is live out of "out".
        assert info.live_out["out"] == 0

    def test_iteration_count_small(self):
        fn, *_ = loop_function()
        info = compute_liveness(fn)
        # The paper's observation: a couple of iterations suffice.
        assert info.iterations <= 4

    def test_helper_accessors(self):
        fn, x, y = loop_function()
        info = compute_liveness(fn)
        assert info.live_in_temps("head") == [x]
        assert info.live_out_temps("out") == []

    def test_live_temps_come_in_id_order(self):
        # A temp's bit is its id, so live sets list temps by id — not in
        # the order blocks first expose them (t5 here, then t2).
        fn = Function("f")
        t = [fn.new_temp(G) for _ in range(6)]
        b = FunctionBuilder(fn)
        b.new_block("b0")
        b.jmp("b1")
        b.new_block("b1")
        b.print_(t[5])
        b.jmp("b2")
        b.new_block("b2")
        b.print_(t[2])
        b.print_(t[5])
        b.ret(t[2])
        info = compute_liveness(fn)
        assert info.live_in_temps("b1") == [t[2], t[5]]
        assert info.live_out_temps("b0") == [t[2], t[5]]

    def test_second_def_does_not_duplicate_kill(self):
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(1)
        b.li(2, dst=x)  # second def of x in the same block
        b.jmp("out")
        b.new_block("out")
        b.print_(x)
        b.ret(x)
        from repro.dataflow.liveness import _block_local_sets

        ue, kill = _block_local_sets(fn)
        assert kill["entry"] == [x]
        assert ue["entry"] == []
        assert ue["out"] == [x]


class TestGenericSolver:
    def test_unreachable_blocks_covered_in_block_order(self):
        # Unreachable blocks still get defined in/out values, appended
        # after the reachable order in fn.blocks order — with many
        # blocks, so a reintroduced per-label membership rebuild (the
        # old quadratic scan) would also be felt as a slowdown here.
        fn = Function("f")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.ret(b.li(0))
        n = 150
        prev = None
        chain = []
        for i in range(n):
            b.new_block(f"dead{i}")
            t = b.li(i) if prev is None else b.addi(prev, 1)
            chain.append(t)
            if i < n - 1:
                b.jmp(f"dead{i + 1}")
            else:
                b.ret(t)
            prev = t
        info = compute_liveness(fn)
        labels = [block.label for block in fn.blocks]
        assert list(info.live_in) == labels
        assert list(info.live_out) == labels
        # Liveness propagates through the unreachable chain too.
        for i in range(1, n):
            bit = 1 << chain[i - 1].id
            assert info.live_in[f"dead{i}"] & bit
            assert info.live_out[f"dead{i - 1}"] & bit
        assert info.live_out[f"dead{n - 1}"] == 0

    def test_kill_masks_stop_propagation(self):
        # "out" uses bit0 and "body" uses bit1; "head" kills bit0, so
        # only bit1 flows on up (round the back edge) into "entry".
        fn, *_ = loop_function()
        cfg = CFG.build(fn)
        gen = {"entry": 0, "head": 0, "body": 0b10, "out": 0b01}
        kill = {"entry": 0, "head": 0b01, "body": 0, "out": 0}
        result = solve(DataflowProblem(cfg, gen, kill))
        assert result.out["head"] == 0b11
        assert result.in_["head"] == 0b10
        assert result.out["entry"] == 0b10
        assert result.out["body"] == 0b10
        assert result.in_["entry"] == 0b10
        assert result.out["out"] == 0
