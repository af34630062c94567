"""Unit tests for the binpacking scan state (occupancy + consistency)."""

import pytest

from repro.allocators.binpack.state import MEM, BlockRecord, ScanState
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.pm.analysis import AnalysisManager
from repro.target import tiny

G = RegClass.GPR


def claimants(state, reg):
    """The temporaries with a claim on ``reg``, in claim order."""
    return [lifetime.reg for lifetime in state.occupants_of(reg)]


def make_state():
    """A state over a small two-block function with one global temp."""
    fn = Function("f")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    x = b.li(5)          # global: used in the next block
    b.jmp("next")
    b.new_block("next")
    y = b.addi(x, 1)     # y is block-local
    b.print_(y)
    b.ret()
    shared = AnalysisManager(tiny()).shared(fn)
    state = ScanState(shared.lifetimes, shared.liveness, shared.cfg)
    return state, x, y


class TestOccupancy:
    def test_place_and_displace(self):
        state, x, _ = make_state()
        reg = PhysReg(G, 2)
        state.place(x, reg)
        assert state.loc[x.id] == reg
        assert claimants(state, reg) == [x]
        assert reg in state.ever_used
        state.displace(x)
        assert x.id not in state.loc
        assert claimants(state, reg) == []

    def test_expire_at_end_drops_claim_and_location(self):
        state, x, _ = make_state()
        reg = PhysReg(G, 2)
        state.place(x, reg)
        state.expire(state.table.temps[x].end)
        assert claimants(state, reg) == []
        assert x.id not in state.loc

    def test_expire_at_start_keeps_occupant(self):
        state, x, _ = make_state()
        reg = PhysReg(G, 2)
        state.place(x, reg)
        state.expire(state.table.temps[x].start)
        assert claimants(state, reg) == [x]
        assert state.loc[x.id] == reg

    def test_displaced_and_placed_again_expires_once(self):
        state, x, y = make_state()
        first, second = PhysReg(G, 2), PhysReg(G, 3)
        state.place(x, first)
        state.displace(x)
        state.place(x, second)
        state.place(y, first)
        end = state.table.temps[x].end
        assert state.table.temps[y].end > end
        state.expire(end)
        assert claimants(state, first) == [y]
        assert claimants(state, second) == []
        assert x.id not in state.loc

    def test_multiple_claimants(self):
        state, x, y = make_state()
        reg = PhysReg(G, 2)
        state.place(x, reg)
        state.place(y, reg)
        assert claimants(state, reg) == [x, y]
        state.displace(x)
        assert claimants(state, reg) == [y]
        assert state.loc[y.id] == reg


class TestConsistencyBits:
    def test_global_temp_uses_shared_vector(self):
        state, x, _ = make_state()
        assert not state.is_consistent(x)
        state.set_consistent(x)
        assert state.is_consistent(x)
        state.clear_consistent(x)
        assert not state.is_consistent(x)

    def test_clear_records_wrote_tr(self):
        state, x, _ = make_state()
        state.begin_block("entry")
        state.clear_consistent(x)
        record = state.end_block("entry")
        bit = x.id
        assert record.wrote_tr >> bit & 1

    def test_used_consistency_only_when_nonlocal(self):
        state, x, _ = make_state()
        state.begin_block("entry")
        state.set_consistent(x)
        state.note_consistency_used(x)  # W clear -> gen bit
        record = state.end_block("entry")
        bit = x.id
        assert record.used_consistency >> bit & 1

        state.begin_block("next")
        state.clear_consistent(x)       # local write
        state.set_consistent(x)         # local spill re-establishes
        state.note_consistency_used(x)  # W set -> no gen bit
        record2 = state.end_block("next")
        assert not (record2.used_consistency >> bit & 1)

    def test_block_local_temps_tracked_separately(self):
        state, _, y = make_state()
        state.begin_block("next")
        state.set_consistent(y)
        assert state.is_consistent(y)
        state.clear_consistent(y)
        assert not state.is_consistent(y)
        assert state.consistent == 0
        # A local's bits never reach the block's record.
        state.set_consistent(y)
        record = state.end_block("next")
        assert not record.consistent_at_end >> y.id & 1
        assert not record.wrote_tr >> y.id & 1

    def test_local_consistency_resets_each_block(self):
        state, _, y = make_state()
        state.begin_block("entry")
        state.set_consistent(y)
        state.begin_block("next")
        assert not state.is_consistent(y)


class TestBlockRecords:
    def test_top_and_bottom_locations(self):
        state, x, _ = make_state()
        reg = PhysReg(G, 2)
        state.begin_block("entry")
        state.place(x, reg)
        record = state.end_block("entry")
        assert record.bottom_loc[x] == reg

        record2 = state.begin_block("next")
        assert record2.top_loc[x] == reg
        state.displace(x)
        final = state.end_block("next")
        assert final.bottom_loc == {}  # nothing live out of "next"

    def test_missing_location_defaults_to_memory(self):
        state, x, _ = make_state()
        record = state.begin_block("next")
        assert record.top_loc[x] is MEM

    def test_conservative_reinit_intersects_predecessors(self):
        state, x, _ = make_state()
        bit = x.id
        state.begin_block("entry")
        state.set_consistent(x)
        state.end_block("entry")
        state.begin_block("next")
        state.reinit_consistency_conservative("next")
        assert state.consistent >> bit & 1  # sole predecessor had it set

    def test_conservative_reinit_clears_without_predecessors(self):
        state, x, _ = make_state()
        state.set_consistent(x)
        state.reinit_consistency_conservative("entry")  # entry: no preds
        assert state.consistent == 0
