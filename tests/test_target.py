"""Machine-description invariants for the alpha and tiny targets."""

import pytest

from repro.ir.instr import Op
from repro.ir.temp import PhysReg
from repro.ir.types import RegClass
from repro.target import alpha, machine_from_spec, machine_spec, tiny
from repro.target.machine import CYCLE_COSTS, MachineDescription, cycle_cost

G = RegClass.GPR
F = RegClass.FPR


@pytest.fixture(params=["alpha", "tiny4", "tiny6", "tiny8"])
def machine(request):
    return {"alpha": alpha(), "tiny4": tiny(4, 4), "tiny6": tiny(6, 6),
            "tiny8": tiny(8, 8)}[request.param]


class TestInvariants:
    def test_files_partition_into_saved_sets(self, machine):
        for cls in (G, F):
            caller = set(machine.caller_saved(cls))
            callee = set(machine.callee_saved(cls))
            assert caller | callee == set(machine.regs(cls))
            assert not caller & callee

    def test_param_and_return_regs_are_caller_saved(self, machine):
        for cls in (G, F):
            for reg in machine.param_regs(cls):
                assert reg in machine.caller_saved(cls)
                assert not machine.is_callee_saved(reg)
            assert machine.ret_reg(cls) in machine.caller_saved(cls)

    def test_param_regs_are_distinct(self, machine):
        for cls in (G, F):
            params = machine.param_regs(cls)
            assert len(set(params)) == len(params)

    def test_at_least_one_callee_saved(self, machine):
        assert machine.callee_saved(G)
        assert machine.callee_saved(F)

    def test_file_sizes(self, machine):
        assert len(machine.gprs) == machine.n_gpr == machine.file_size(G)
        assert len(machine.fprs) == machine.n_fpr == machine.file_size(F)


class TestAlpha:
    def test_dimensions_match_the_paper(self):
        m = alpha()
        assert m.n_gpr == 32 and m.n_fpr == 32
        assert len(m.param_regs(G)) == 6
        assert m.ret_reg(G) == PhysReg(G, 0)
        assert len(m.callee_saved(G)) == 10


class TestTiny:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            tiny(3, 4)
        with pytest.raises(ValueError):
            tiny(4, 3)

    def test_maximum_size_enforced(self):
        """Alpha's 32 registers bound each file, so a client's spec
        cannot make the server build a huge register file."""
        assert tiny(32, 32).file_size(RegClass.GPR) == 32
        for sizes in ((33, 4), (4, 33), (3_000_000, 4)):
            with pytest.raises(ValueError, match="at most 32"):
                tiny(*sizes)

    def test_construction_validates_indices(self):
        with pytest.raises(ValueError):
            MachineDescription("bad", 4, 4, (9,), (), (1,), (1,), 0, 0)

    def test_callee_saved_param_reg_rejected(self):
        with pytest.raises(ValueError, match="caller-saved"):
            MachineDescription("bad", 4, 4, (1,), (3,), (1,), (1,), 0, 0)


class TestCycleModel:
    def test_memory_ops_cost_more_than_alu(self):
        assert cycle_cost(Op.LDS) > cycle_cost(Op.ADD)
        assert cycle_cost(Op.LD) == cycle_cost(Op.ST)

    def test_divide_is_slowest(self):
        assert cycle_cost(Op.DIV) == max(CYCLE_COSTS.values())

    def test_default_is_one(self):
        assert cycle_cost(Op.NOP) == 1
        assert cycle_cost(Op.XOR) == 1


class TestSpec:
    def test_round_trip(self):
        specs = ["alpha"] + [f"tiny:{g}x{f}" for g in range(4, 33)
                             for f in range(4, 33)]
        for spec in specs:
            assert machine_spec(machine_from_spec(spec)) == spec

    @pytest.mark.parametrize("spec", ["tiny", "tiny:8", "tiny:3x4",
                                      "tiny:33x4", "tiny:axb", "vax", 5,
                                      None])
    def test_every_bad_spec_is_one_value_error(self, spec):
        with pytest.raises(ValueError):
            machine_from_spec(spec)

    def test_machine_without_a_spec_is_refused(self):
        hand_made = MachineDescription("bad", 4, 4, (1,), (1,), (3,), (3,),
                                       0, 0)
        with pytest.raises(ValueError, match="no spec"):
            machine_spec(hand_made)
