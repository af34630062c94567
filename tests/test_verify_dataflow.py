"""The path-sensitive dataflow verifier (passes/verify_alloc.py).

Three properties pin the verifier's value:

* **Soundness on correct code** — every allocator, across machines and
  random programs, passes with zero reported errors (no false
  positives).  This is the property the copy-set abstract domain exists
  for: the allocators legitimately exploit copies (call-argument moves,
  move elimination) and a single-variable domain would flag them.
* **Sensitivity** — an intentionally injected clobber (retargeting a def
  to the wrong register) is caught with a precise message; in
  particular, every mutation the *simulator* can observe misbehaving is
  also caught statically (mutation self-test).
* **Pipeline wiring** — ``CompilationSession.run(verify_dataflow=True)``
  snapshots after DCE and verifies right after allocation.
"""

from __future__ import annotations

import copy

import pytest

from repro.allocators.base import allocate_module
from repro.ir.instr import Op
from repro.ir.temp import PhysReg
from repro.passes.dce import eliminate_dead_code
from repro.passes.verify_alloc import (AllocationVerifyError,
                                       snapshot_module, verify_dataflow)
from repro.pm.session import CompilationSession
from repro.sim import SimulationError, outputs_equal, simulate
from repro.target import alpha, tiny
from repro.workloads.synthetic import random_module
from tests.conftest import ALLOCATOR_FACTORIES


def _verify_module(module, machine, snapshots):
    """:func:`verify_dataflow` over every function of ``module``."""
    for name, fn in module.functions.items():
        verify_dataflow(fn, machine, snapshots[name])


def _allocated_with_snapshot(seed, machine, allocator_name, size=30):
    """(allocated module, snapshots) for one random program."""
    module = random_module(seed, machine, size=size)
    working = copy.deepcopy(module)
    for fn in working.functions.values():
        eliminate_dead_code(fn)
    snapshots = snapshot_module(working)
    allocate_module(working, ALLOCATOR_FACTORIES[allocator_name](), machine)
    return module, working, snapshots


class TestSoundness:
    @pytest.mark.parametrize("allocator", list(ALLOCATOR_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_false_positives_tiny(self, allocator, seed):
        machine = tiny(5, 5)
        _, working, snapshots = _allocated_with_snapshot(
            seed, machine, allocator)
        _verify_module(working, machine, snapshots)

    @pytest.mark.parametrize("allocator", list(ALLOCATOR_FACTORIES))
    def test_no_false_positives_alpha(self, allocator):
        machine = alpha()
        _, working, snapshots = _allocated_with_snapshot(
            7, machine, allocator)
        _verify_module(working, machine, snapshots)


class TestSensitivity:
    def test_injected_clobber_is_caught(self):
        """Retargeting a def whose value is later read must be flagged."""
        machine = tiny(5, 5)
        _, working, snapshots = _allocated_with_snapshot(
            3, machine, "second-chance")
        _verify_module(working, machine, snapshots)  # clean baseline

        fn = working.functions["main"]
        caught = 0
        tried = 0
        for block in fn.blocks:
            for instr in block.instrs:
                if tried >= 12:
                    break
                if (instr.spill_phase is not None or not instr.defs
                        or instr.op is Op.CALL):
                    continue
                old = instr.defs[0]
                if not isinstance(old, PhysReg):
                    continue
                alt = PhysReg(old.regclass,
                              (old.index + 1) % machine.file_size(old.regclass))
                tried += 1
                instr.defs[0] = alt
                try:
                    _verify_module(working, machine, snapshots)
                except AllocationVerifyError as exc:
                    caught += 1
                    assert "main/" in str(exc)
                finally:
                    instr.defs[0] = old
        assert tried > 0
        assert caught >= tried // 2  # most single-register retargets break

    def test_verifier_catches_everything_the_simulator_does(self):
        """Mutation self-test: any def-retarget the oracle can observe
        misbehaving must also fail dataflow verification."""
        machine = tiny(5, 5)
        module, working, snapshots = _allocated_with_snapshot(
            4, machine, "second-chance")
        reference = simulate(module, machine)
        sim_observable = 0
        for fn in working.functions.values():
            for block in fn.blocks:
                for instr in block.instrs:
                    if (instr.spill_phase is not None or not instr.defs
                            or instr.op is Op.CALL):
                        continue
                    old = instr.defs[0]
                    if not isinstance(old, PhysReg):
                        continue
                    alt = PhysReg(old.regclass, (old.index + 1)
                                  % machine.file_size(old.regclass))
                    instr.defs[0] = alt
                    try:
                        try:
                            out = simulate(working, machine,
                                           max_steps=2_000_000)
                            diverges = not outputs_equal(
                                reference.output, out.output)
                        except SimulationError:
                            diverges = True
                        if diverges:
                            sim_observable += 1
                            with pytest.raises(AllocationVerifyError):
                                _verify_module(
                                    working, machine, snapshots)
                    finally:
                        instr.defs[0] = old
        assert sim_observable > 10  # the program must actually exercise regs

    def test_missing_spill_store_is_caught(self):
        """Deleting a spill store whose slot is later loaded is flagged."""
        machine = tiny(4, 4)
        _, working, snapshots = _allocated_with_snapshot(
            0, machine, "second-chance")
        loaded_slots = {instr.slot
                        for fn in working.functions.values()
                        for instr in fn.instructions()
                        if instr.op is Op.LDS}
        removed = 0
        for fn in working.functions.values():
            for block in fn.blocks:
                for i, instr in enumerate(block.instrs):
                    if (instr.op is Op.STS and instr.spill_phase is not None
                            and instr.slot in loaded_slots):
                        saved = block.instrs.pop(i)
                        try:
                            _verify_module(working, machine, snapshots)
                        except AllocationVerifyError:
                            removed += 1
                        finally:
                            block.instrs.insert(i, saved)
                        if removed:
                            return  # one caught deletion proves the point
        pytest.fail("no spill-store deletion was caught")


class TestPipelineWiring:
    @pytest.mark.parametrize("allocator", list(ALLOCATOR_FACTORIES))
    def test_run_allocator_flag(self, allocator):
        machine = tiny(6, 6)
        module = random_module(5, machine, size=25)
        result = CompilationSession(module, machine).run(
            ALLOCATOR_FACTORIES[allocator](), verify_dataflow=True)
        # The flag must not change the produced code, only check it.
        plain = CompilationSession(module, machine).run(
            ALLOCATOR_FACTORIES[allocator]())
        ref = simulate(module, machine)
        out = simulate(result.module, machine)
        assert outputs_equal(ref.output, out.output)
        assert (result.module.functions.keys()
                == plain.module.functions.keys())

    def test_verify_runs_before_peephole(self):
        """Move elimination leaves identity moves the peephole deletes;
        the verifier must see them (their defs re-establish variables),
        so ``verify_dataflow=True`` followed by the peephole must not
        produce false positives."""
        machine = tiny(4, 4)
        module = random_module(1, machine, size=35)
        CompilationSession(module, machine).run(
            ALLOCATOR_FACTORIES["second-chance"](), verify_dataflow=True)
