"""The pre-decoded simulator against the retained reference interpreter.

:mod:`repro.sim.machine` compiles each block into a flat tuple program
and dispatches through bound handlers; :mod:`tests.oracles.sim_reference`
is the original module-walking interpreter, kept verbatim as the semantic
oracle.  These tests demand the two agree *exactly* — outputs, results,
dynamic instruction counts, cycles, per-opcode counts, spill counts, and
faults (type and message) — over the benchmark analogs, allocated code,
and a broad fuzz corpus, so any fast-path change that perturbs semantics
fails here before it can skew a paper table.
"""

import pytest

from repro.allocators import ALLOCATOR_FACTORIES, make_allocator
from repro.fuzz.generate import program_for_seed
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.obs import MetricsRegistry
from repro.pm.session import CompilationSession
from repro.sim import SimulationError, outputs_equal, simulate
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program
from tests.oracles.sim_reference import reference_simulate


def run_both(module, machine, **kwargs):
    """Run both interpreters; return comparable (kind, payload) verdicts."""

    def observe(run):
        try:
            o = run(module, machine, **kwargs)
        except SimulationError as exc:
            return ("fault", str(exc))
        except Exception as exc:  # noqa: BLE001 — compare crash identity too
            return ("crash", type(exc).__name__, str(exc))
        return ("ok", o.output, o.result, o.dynamic_instructions, o.cycles,
                dict(o.op_counts), dict(o.spill_counts))

    return observe(simulate), observe(reference_simulate)


def assert_equivalent(module, machine, **kwargs):
    fast, ref = run_both(module, machine, **kwargs)
    if fast[0] == ref[0] == "ok":
        # outputs compared NaN-tolerantly, everything else exactly
        assert outputs_equal(fast[1], ref[1])
        assert fast[2:] == ref[2:]
    else:
        assert fast == ref


class TestAnalogEquivalence:
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_virtual_code_matches_reference(self, name):
        machine = alpha()
        assert_equivalent(build_program(name, machine), machine)

    @pytest.mark.parametrize("alloc_name", sorted(ALLOCATOR_FACTORIES))
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_allocated_code_matches_reference(self, name, alloc_name):
        """Every analog × every allocator: the dense-state simulator and
        the reference interpreter must agree on allocated code, with
        poison reads trapping identically."""
        machine = alpha()
        module = build_program(name, machine)
        session = CompilationSession(module, machine)
        result = session.run(make_allocator(alloc_name))
        assert_equivalent(result.module, machine, trap_poison=True)


class TestFuzzCorpusEquivalence:
    """100 deterministic fuzz seeds: same results, op counts, and faults."""

    @pytest.mark.parametrize("seed", range(100))
    def test_seed_matches_reference(self, seed):
        program = program_for_seed(seed)
        assert_equivalent(program.module, program.machine, trap_poison=True)


class TestFaultEquivalence:
    """Faults must match in both message and accounting."""

    def _module(self, machine, instrs, extra_fn=None):
        module = Module()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        for instr in instrs:
            b.emit(instr)
        module.add_function(fn)
        if extra_fn is not None:
            module.add_function(extra_fn)
        return module

    def test_fell_off_block_fault(self):
        machine = tiny(4, 4)
        module = self._module(machine, [Instr(Op.NOP)])
        fast, ref = run_both(module, machine)
        assert fast == ref
        assert fast[0] == "fault" and "fell off block" in fast[1]

    def test_unknown_jump_target_fault(self):
        machine = tiny(4, 4)
        module = self._module(machine, [Instr(Op.JMP, targets=["nowhere"])])
        fast, ref = run_both(module, machine)
        assert fast == ref
        assert fast[0] == "crash" and fast[1] == "KeyError"

    def test_division_by_zero_fault(self):
        machine = tiny(4, 4)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = fn.new_temp(machine.gprs[0].regclass)
        y = fn.new_temp(machine.gprs[0].regclass)
        z = fn.new_temp(machine.gprs[0].regclass)
        b.emit(Instr(Op.LI, defs=[x], imm=7))
        b.emit(Instr(Op.LI, defs=[y], imm=0))
        b.emit(Instr(Op.DIV, defs=[z], uses=[x, y]))
        b.emit(Instr(Op.RET))
        module = Module()
        module.add_function(fn)
        fast, ref = run_both(module, machine)
        assert fast == ref
        assert fast == ("fault", "main: division by zero")

    def test_step_budget_fault_at_same_step(self):
        machine = tiny(4, 4)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("loop")
        b.emit(Instr(Op.JMP, targets=["loop"]))
        module = Module()
        module.add_function(fn)
        fast, ref = run_both(module, machine, max_steps=1234)
        assert fast == ref
        assert fast == ("fault", "step budget exceeded in main")

    def test_trap_poison_fault_matches(self):
        """Reading call poison from a caller-saved register must trap
        with the same kind and message in both interpreters."""
        machine = tiny(4, 4)
        caller_saved = machine.caller_saved(machine.gprs[0].regclass)[0]
        helper = Function("helper")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        hb.emit(Instr(Op.RET))
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.emit(Instr(Op.LI, defs=[caller_saved], imm=5))
        b.emit(Instr(Op.CALL, callee="helper"))
        b.emit(Instr(Op.PRINT, uses=[caller_saved]))
        b.emit(Instr(Op.RET))
        module = Module()
        module.add_function(fn)
        module.add_function(helper)
        fast, ref = run_both(module, machine, trap_poison=True,
                             check_callee_saved=False)
        assert fast == ref
        assert fast[0] == "fault" and "still poisoned by a call" in fast[1]

    def test_never_written_slot_fault_matches(self):
        """The dense slot file's ``_UNSET`` sentinel must reproduce the
        reference's dict-membership fault byte for byte."""
        from repro.ir.temp import StackSlot
        from repro.ir.types import RegClass

        machine = tiny(4, 4)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        t = fn.new_temp(RegClass.GPR)
        b.emit(Instr(Op.LDS, defs=[t], slot=StackSlot(3, RegClass.GPR)))
        b.emit(Instr(Op.RET))
        module = Module()
        module.add_function(fn)
        fast, ref = run_both(module, machine)
        assert fast == ref
        assert fast == ("fault", "main: load of never-written [s3]")

    def test_callee_saved_clobber_fault_matches(self):
        """The flat saved-registers vector must produce the reference's
        clobber fault — same register, same old/new values."""
        machine = tiny(4, 4)
        callee_saved = machine.callee_saved(machine.gprs[0].regclass)[0]
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.emit(Instr(Op.LI, defs=[callee_saved], imm=99))
        b.emit(Instr(Op.RET))
        module = Module()
        module.add_function(fn)
        fast, ref = run_both(module, machine)
        assert fast == ref
        assert fast[0] == "fault" and "callee-saved" in fast[1]
        assert "clobbered" in fast[1] and "99" in fast[1]


class TestDecodeCache:
    """Block pre-decode must compile each function once and then hit its
    cache on every further call (observable as ``sim.decode.*``)."""

    def test_cache_metrics_published(self):
        machine = alpha()
        module = build_program("doduc", machine)  # main + one callee
        metrics = MetricsRegistry()
        outcome = simulate(module, machine, metrics=metrics)
        compiled = metrics.get("sim.decode.compiled")
        cached = metrics.get("sim.decode.cached")
        assert compiled == outcome.decode_compiled
        assert cached == outcome.decode_cached
        # Every function the run entered was decoded exactly once ...
        assert 1 <= compiled <= len(module.functions)
        # ... and doduc's helper is called in a loop, so nearly every
        # call must be served from the cache.
        assert cached > 10 * compiled

    def test_reference_interpreter_never_decodes(self):
        machine = alpha()
        module = build_program("compress", machine)
        outcome = reference_simulate(module, machine)
        assert outcome.decode_compiled == 0
        assert outcome.decode_cached == 0


class TestHistogramBoundary:
    """The run loop counts opcodes and spill categories by dense int
    index; the enum-keyed ``Counter`` objects exist only at the outcome
    boundary and must be exactly what the reference produces."""

    def test_histograms_fold_to_enum_keys(self):
        from repro.ir.instr import SpillKind, SpillPhase

        machine = alpha()
        module = build_program("doduc", machine)
        session = CompilationSession(module, machine)
        result = session.run(make_allocator("second-chance"))
        fast = simulate(result.module, machine)
        ref = reference_simulate(result.module, machine)
        assert fast.op_counts == ref.op_counts
        assert fast.spill_counts == ref.spill_counts
        # Boundary types: callers index these by enum, never by int.
        assert all(isinstance(op, Op) for op in fast.op_counts)
        assert all(isinstance(phase, SpillPhase)
                   and isinstance(kind, SpillKind)
                   for phase, kind in fast.spill_counts)
        assert sum(fast.op_counts.values()) == fast.dynamic_instructions

    def test_histograms_fold_even_on_fault(self):
        """A faulting run must still fold the partial histograms (the
        fold runs in the loop's ``finally``)."""
        machine = tiny(4, 4)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("loop")
        b.emit(Instr(Op.NOP))
        b.emit(Instr(Op.JMP, targets=["loop"]))
        module = Module()
        module.add_function(fn)
        from repro.sim.machine import Simulator
        sim = Simulator(module, machine, max_steps=100)
        with pytest.raises(SimulationError):
            sim.run()
        assert sim.op_counts[Op.NOP] == 50
        assert sim.op_counts[Op.JMP] == 50


class TestFramePool:
    """Frame pooling must be observable and actually reuse frames."""

    def test_frames_reused_across_calls(self):
        machine = alpha()
        module = build_program("doduc", machine)  # helper called in a loop
        metrics = MetricsRegistry()
        outcome = simulate(module, machine, metrics=metrics)
        # One live frame per function at this call depth: allocations are
        # bounded by the module's function count, everything else reuses.
        assert outcome.frames_allocated <= len(module.functions)
        assert outcome.frames_reused > 10 * outcome.frames_allocated
        assert metrics.get("sim.frames.allocated") == outcome.frames_allocated
        assert metrics.get("sim.frames.reused") == outcome.frames_reused

    def test_pooled_frames_start_clean(self):
        """A reused frame must not leak the previous activation's slots:
        the second call's never-written load still faults."""
        from repro.ir.temp import StackSlot
        from repro.ir.types import RegClass

        machine = tiny(4, 4)
        slot = StackSlot(0, RegClass.GPR)
        helper = Function("helper")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        sel = helper.new_temp(RegClass.GPR)
        loaded = helper.new_temp(RegClass.GPR)
        # arg protocol: tiny's first GPR carries the selector
        arg = machine.gprs[0]
        hb.emit(Instr(Op.MOV, defs=[sel], uses=[arg]))
        hb.emit(Instr(Op.BR, uses=[sel], targets=["write", "read"]))
        hb.new_block("write")
        hb.emit(Instr(Op.STS, uses=[sel], slot=slot))
        hb.emit(Instr(Op.RET))
        hb.new_block("read")
        hb.emit(Instr(Op.LDS, defs=[loaded], slot=slot))
        hb.emit(Instr(Op.RET))
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.emit(Instr(Op.LI, defs=[arg], imm=1))
        b.emit(Instr(Op.CALL, callee="helper"))  # writes the slot
        b.emit(Instr(Op.LI, defs=[arg], imm=0))
        b.emit(Instr(Op.CALL, callee="helper"))  # reused frame: must fault
        b.emit(Instr(Op.RET))
        module = Module()
        module.add_function(fn)
        module.add_function(helper)
        fast, ref = run_both(module, machine, check_callee_saved=False,
                             poison_calls=False)
        assert fast == ref
        assert fast == ("fault", "helper: load of never-written [s0]")
