"""Resolution machinery: parallel-move sequentialization and placement.

The paper (Section 2.4): "we are careful to model the data movement
across the edge in a manner that produces the correct resolution
instructions in the semantically-correct order, even in the case where
two (or more) temporaries swap their allocated registers."
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.base import AllocationStats, SpillSlots
from repro.allocators.binpack.resolution import (_place_batch, edge_traffic,
                                                 sequentialize_moves)
from repro.allocators.binpack.state import MEM, BlockRecord
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.pm.analysis import AnalysisManager
from repro.spill import DEFAULT_CONTEXT, SpillCodeEmitter
from repro.target import tiny

G = RegClass.GPR
F = RegClass.FPR


def _emitter(stats):
    """A default-context emitter over an empty function: exactly the
    slot-assignment + accounting behaviour the old bare SpillSlots had."""
    return SpillCodeEmitter(Function("seq"), tiny(16, 16), DEFAULT_CONTEXT,
                            SpillSlots(), stats)


def execute_moves(instrs, initial):
    """Interpret the emitted loads/stores/moves over a register file."""
    regs = dict(initial)
    slots = {}
    for instr in instrs:
        if instr.op in (Op.MOV, Op.FMOV):
            regs[instr.defs[0]] = regs[instr.uses[0]]
        elif instr.op is Op.STS:
            slots[instr.slot] = regs[instr.uses[0]]
        elif instr.op is Op.LDS:
            regs[instr.defs[0]] = slots[instr.slot]
        else:  # pragma: no cover
            raise AssertionError(instr)
    return regs


def check_permutation(mapping):
    """``mapping``: dst_index -> src_index over GPRs."""
    temps = {}
    moves = []
    for i, (dst, src) in enumerate(mapping.items()):
        temp = Temp(G, i)
        moves.append((PhysReg(G, src), PhysReg(G, dst), temp))
    stats = AllocationStats("test")
    instrs = sequentialize_moves(moves, _emitter(stats), stats)
    initial = {PhysReg(G, i): f"v{i}" for i in range(16)}
    final = execute_moves(instrs, initial)
    for dst, src in mapping.items():
        assert final[PhysReg(G, dst)] == f"v{src}", (mapping, instrs)
    return instrs


class TestSequentializeMoves:
    def test_independent_moves(self):
        check_permutation({1: 0, 3: 2})

    def test_chain(self):
        # 0 -> 1 -> 2 must emit 2<-1 before 1<-0.
        instrs = check_permutation({2: 1, 1: 0})
        assert all(i.op is Op.MOV for i in instrs)
        assert len(instrs) == 2

    def test_swap_uses_memory_detour(self):
        instrs = check_permutation({0: 1, 1: 0})
        ops = [i.op for i in instrs]
        assert Op.STS in ops and Op.LDS in ops
        assert len(instrs) == 3  # store, move, load

    def test_three_cycle(self):
        instrs = check_permutation({1: 0, 2: 1, 0: 2})
        assert len(instrs) == 4  # one detour + two moves

    def test_two_disjoint_swaps(self):
        check_permutation({0: 1, 1: 0, 2: 3, 3: 2})

    def test_self_moves_dropped(self):
        stats = AllocationStats("test")
        reg = PhysReg(G, 1)
        assert sequentialize_moves([(reg, reg, Temp(G, 0))],
                                   _emitter(stats), stats) == []

    def test_float_moves_use_fmov(self):
        stats = AllocationStats("test")
        moves = [(PhysReg(F, 0), PhysReg(F, 1), Temp(F, 0))]
        instrs = sequentialize_moves(moves, _emitter(stats), stats)
        assert [i.op for i in instrs] == [Op.FMOV]

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(4))))
    def test_all_permutations_of_four(self, perm):
        mapping = {dst: src for dst, src in enumerate(perm)}
        check_permutation(mapping)

    @given(st.permutations(list(range(8))))
    @settings(max_examples=60, deadline=None)
    def test_random_permutations(self, perm):
        mapping = {dst: src for dst, src in enumerate(perm)}
        check_permutation(mapping)

    @given(st.dictionaries(st.integers(0, 11), st.integers(0, 11),
                           max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_src_maps(self, mapping):
        # Destinations are dict keys (distinct); sources may repeat only
        # if distinct values... filter: sources must be distinct too, as
        # in real resolution (one value per register at the predecessor).
        if len(set(mapping.values())) != len(mapping):
            return
        check_permutation(mapping)

    def test_stats_are_counted(self):
        stats = AllocationStats("test")
        moves = [(PhysReg(G, 0), PhysReg(G, 1), Temp(G, 0)),
                 (PhysReg(G, 1), PhysReg(G, 0), Temp(G, 1))]
        sequentialize_moves(moves, _emitter(stats), stats)
        from repro.ir.instr import SpillPhase
        assert stats.spill_static[(SpillPhase.RESOLVE, "store")] == 1
        assert stats.spill_static[(SpillPhase.RESOLVE, "load")] == 1
        assert stats.spill_static[(SpillPhase.RESOLVE, "move")] == 1

    def test_two_swap_cycles_plus_chain_on_one_edge(self):
        """One edge carrying two independent swaps and a chain: each
        cycle takes its own memory detour, the chain stays a plain move,
        and the deferred cycle-closing loads drain after every move."""
        mapping = {0: 1, 1: 0,  # swap cycle A
                   2: 3, 3: 2,  # swap cycle B
                   5: 4}        # independent chain 4 -> 5
        instrs = check_permutation(mapping)  # asserts final register file
        ops = [i.op for i in instrs]
        assert ops.count(Op.STS) == 2  # one detour store per cycle
        assert ops.count(Op.LDS) == 2
        assert ops.count(Op.MOV) == 3  # one surviving move per cycle + chain
        # The detour loads complete each cycle only after every pending
        # move has drained, so every store precedes every load.
        assert (max(i for i, op in enumerate(ops) if op is Op.STS)
                < min(i for i, op in enumerate(ops) if op is Op.LDS))
        # The two detours use distinct homes (one per cycle's temp).
        stored_slots = [i.slot for i in instrs if i.op is Op.STS]
        assert len(set(stored_slots)) == 2


class _LivenessStub:
    def __init__(self, live_in):
        self._live_in = live_in

    def live_in_temps(self, label):
        return self._live_in[label]


class TestEdgeTraffic:
    def test_missing_boundary_records_default_to_memory(self):
        """A temp live into ``succ`` that the scan never placed at one of
        the boundaries is carried via its memory home, not a KeyError."""
        t0, t1, t2 = Temp(G, 0), Temp(G, 1), Temp(G, 2)
        records = {
            "pred": BlockRecord(bottom_loc={t0: PhysReg(G, 3)}),
            "succ": BlockRecord(top_loc={t0: PhysReg(G, 4),
                                         t1: PhysReg(G, 5)}),
        }
        liveness = _LivenessStub({"succ": [t0, t1, t2]})
        traffic = dict((temp, (src, dst)) for temp, src, dst in
                       edge_traffic(records, liveness, "pred", "succ"))
        assert traffic[t0] == (PhysReg(G, 3), PhysReg(G, 4))
        assert traffic[t1] == (MEM, PhysReg(G, 5))  # no bottom record
        assert traffic[t2] == (MEM, MEM)  # no record at either boundary


def _diamond():
    """entry -> (left | right) -> join, with join having two preds."""
    fn = Function("f")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    cond = b.li(1)
    b.br(cond, "left", "right")
    b.new_block("left")
    b.jmp("join")
    b.new_block("right")
    b.jmp("join")
    b.new_block("join")
    b.ret()
    shared = AnalysisManager(tiny(4, 4)).shared(fn)
    return fn, shared


def _mov(dst, src):
    return Instr(Op.MOV, defs=[PhysReg(G, dst)], uses=[PhysReg(G, src)])


class TestPlaceBatch:
    def test_clean_bottom_placement(self):
        fn, shared = _diamond()
        _place_batch(fn, shared, "left", "join", [_mov(1, 0)], {})
        left = fn.block("left")
        assert [i.op for i in left.instrs] == [Op.MOV, Op.JMP]
        assert len(fn.blocks) == 4  # no split needed

    def test_terminator_reading_batch_write_forces_split(self):
        fn, shared = _diamond()
        fn.block("left").terminator.uses.append(PhysReg(G, 1))
        _place_batch(fn, shared, "left", "join", [_mov(1, 0)], {})
        assert len(fn.blocks) == 5  # split block carries the batch
        assert fn.block("left").instrs[0].op is not Op.MOV

    def test_terminator_defining_batch_read_forces_split(self):
        """Bottom code runs *before* the terminator, so a batch reading a
        register the terminator defines would see the stale value."""
        fn, shared = _diamond()
        fn.block("left").terminator.defs.append(PhysReg(G, 2))
        _place_batch(fn, shared, "left", "join", [_mov(3, 2)], {})
        assert len(fn.blocks) == 5
        assert fn.block("left").instrs[0].op is not Op.MOV

    def test_stacked_batches_with_conflict_force_split(self):
        """A second batch at the same bottom must not observe registers
        the first batch wrote."""
        fn, shared = _diamond()
        bottom_written = {}
        _place_batch(fn, shared, "left", "join", [_mov(1, 0)], bottom_written)
        assert len(fn.blocks) == 4
        # Second batch reads r1, which the first batch just wrote.
        _place_batch(fn, shared, "left", "join", [_mov(2, 1)], bottom_written)
        assert len(fn.blocks) == 5
        left = fn.block("left")
        assert sum(1 for i in left.instrs if i.op is Op.MOV) == 1

    def test_stacked_batches_without_conflict_share_the_bottom(self):
        fn, shared = _diamond()
        bottom_written = {}
        _place_batch(fn, shared, "left", "join", [_mov(1, 0)], bottom_written)
        _place_batch(fn, shared, "left", "join", [_mov(3, 2)], bottom_written)
        assert len(fn.blocks) == 4  # both batches fit at left's bottom
        left = fn.block("left")
        assert sum(1 for i in left.instrs if i.op is Op.MOV) == 2

    def test_single_pred_successor_gets_top_placement(self):
        fn, shared = _diamond()
        # left has exactly one predecessor (entry), so the batch hoists
        # to its top and no placement hazard can arise.
        _place_batch(fn, shared, "entry", "left", [_mov(1, 0)], {})
        assert fn.block("left").instrs[0].op is Op.MOV
        assert len(fn.blocks) == 4
