"""The differential oracle on the paths that report allocated code.

``repro serve`` (``allocation_artifact``), the suite runner
(``execute_cell``) and the CLI's ``run`` and ``trace`` commands allocate
through ``CompilationSession.checked_run``,
which judges the allocated module's run against the unallocated
module's with ``repro.sim.machine.mismatch``: output first, then
``main``'s returned value.  The allocators below are deliberately
wrong in one of those two ways, and each path must refuse their code
rather than report (or cache) its figures.
"""

import pytest

from repro.__main__ import main
from repro.allocators import ALLOCATOR_FACTORIES, SecondChanceBinpacking
from repro.fuzz.generate import program_for_seed
from repro.ir.instr import Instr, Op
from repro.ir.printer import print_module
from repro.ir.types import RegClass
from repro.pm.batch import allocation_artifact
from repro.pm.session import CompilationSession
from repro.results.store import CellKey
from repro.results.suite import SuiteError, execute_cell
from repro.sim import simulate
from repro.sim.machine import mismatch

SEED = 0  # fuzz seed 0: tiny:4x4, main returns an int and prints ints


def _addi(reg, imm: int) -> Instr:
    return Instr(Op.ADDI, defs=[reg], uses=[reg], imm=imm)


class _WrongResult(SecondChanceBinpacking):
    """Adds one to ``main``'s returned value; prints are untouched."""

    def allocate_function(self, fn, machine, shared, emitter, stats):
        super().allocate_function(fn, machine, shared, emitter, stats)
        if fn.name != "main":
            return
        for block in fn.blocks:
            ret = block.instrs[-1]
            if ret.op is Op.RET and ret.uses:
                block.instrs.insert(-1, _addi(ret.uses[0], 1))


class _WrongOutput(SecondChanceBinpacking):
    """Prints ``main``'s first integer print one too high, restoring the
    register right after, so the returned value is untouched."""

    def allocate_function(self, fn, machine, shared, emitter, stats):
        super().allocate_function(fn, machine, shared, emitter, stats)
        if fn.name != "main":
            return
        for block in fn.blocks:
            for i, instr in enumerate(block.instrs):
                if instr.op is Op.PRINT and \
                        instr.uses[0].regclass is RegClass.GPR:
                    reg = instr.uses[0]
                    block.instrs[i:i + 1] = [_addi(reg, 1), instr,
                                             _addi(reg, -1)]
                    return


WRONG = {"wrong-result": _WrongResult, "wrong-output": _WrongOutput}


@pytest.fixture(params=sorted(WRONG))
def wrong(request, monkeypatch):
    monkeypatch.setitem(ALLOCATOR_FACTORIES, request.param,
                        WRONG[request.param])
    return request.param


def test_the_wrong_allocators_are_wrong_in_one_way_each(wrong):
    """Guards the test itself: each allocator breaks exactly the part of
    the run it claims to, on the module the other tests use."""
    program = program_for_seed(SEED)
    result = CompilationSession(program.module, program.machine).run(
        ALLOCATOR_FACTORIES[wrong]())
    problem = mismatch(simulate(program.module, program.machine),
                       simulate(result.module, program.machine))
    expected = "result" if wrong == "wrong-result" else "output"
    assert problem is not None and problem.startswith(expected)


def test_serve_refuses_code_that_fails_the_oracle(wrong):
    program = program_for_seed(SEED)
    machine = program.machine
    artifact = allocation_artifact({
        "ir": print_module(program.module), "allocator": wrong,
        "machine": f"tiny:{machine.n_gpr}x{machine.n_fpr}"})
    assert artifact["error"]["code"] == "alloc-error"
    assert "OracleMismatch" in artifact["error"]["message"]


def test_suite_refuses_code_that_fails_the_oracle(wrong):
    key = CellKey(workload=f"fuzz:{SEED}", allocator=wrong, machine="auto")
    with pytest.raises(SuiteError,
                       match=f"fuzz:{SEED}.*observable behaviour"):
        execute_cell((key.to_json(), "unused"))


def test_suite_quality_record_carries_the_allocated_run_counters():
    key = CellKey(workload=f"fuzz:{SEED}", allocator="second-chance",
                  machine="auto")
    record = execute_cell((key.to_json(), "unused"))
    assert record["metrics"]["sim.dynamic.instructions"] == \
        record["dynamic_instructions"]
    assert record["metrics"]["sim.dynamic.cycles"] == record["cycles"]


#: Prints an int and returns one, so both wrong allocators bite.
MINIC = "func int main() { int a = 3; print a + 4; return a * 5; }\n"


@pytest.mark.parametrize("command", ["run", "trace"])
def test_cli_refuses_code_that_fails_the_oracle(wrong, command, tmp_path):
    source = tmp_path / "prog.mc"
    source.write_text(MINIC)
    main([command, str(source)])  # the shipped allocator passes
    with pytest.raises(SystemExit) as exc:
        main([command, str(source), "--allocator", wrong])
    # A message as the exit code: the process exits with status 1.
    message = exc.value.code
    assert isinstance(message, str)
    expected = "result" if wrong == "wrong-result" else "output"
    assert "observable behaviour" in message
    assert f"{expected} " in message and "!= reference" in message
