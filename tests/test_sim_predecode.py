"""The pre-decoded simulator against the retained reference interpreter.

:mod:`repro.sim.machine` cuts each block into segments and runs them
through per-shape cold functions (cold tier) or, once hot, as generated
code; :mod:`tests.oracles.sim_reference` is the original module-walking
interpreter, kept verbatim as the semantic oracle.  These tests demand
the two agree *exactly* — outputs, results, dynamic instruction counts,
cycles, per-opcode counts, spill counts, and faults (type and message) —
over the benchmark analogs, allocated code, and a broad fuzz corpus, so
any fast-path change that perturbs semantics fails here before it can
skew a paper table.  Every comparison runs the simulator three ways: at
the shipped threshold, with every segment hot from its first entry, and
with every segment cold.
"""

import pytest

from repro.allocators import ALLOCATOR_FACTORIES, make_allocator
from repro.fuzz.generate import program_for_seed
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import PhysReg, StackSlot
from repro.ir.types import RegClass
from repro.obs import MetricsRegistry
from repro.pm.session import CompilationSession
from repro.sim import SimulationError, outputs_equal, simulate
from repro.sim.machine import Simulator
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program
from tests.oracles.sim_reference import ReferenceSimulator, reference_simulate
from tests.oracles.tiers import TIERS, forced_tier


def same_verdict(a, b) -> bool:
    """Verdict equality: outputs NaN-tolerantly, everything else exactly."""
    if a[0] == b[0] == "ok":
        return outputs_equal(a[1], b[1]) and a[2:] == b[2:]
    return a == b


def run_both(module, machine, **kwargs):
    """Run the simulator — at the shipped threshold and in each forced
    tier, which must all agree — and the reference interpreter; return
    comparable (kind, payload) verdicts."""

    def observe(run):
        try:
            o = run(module, machine, **kwargs)
        except SimulationError as exc:
            return ("fault", str(exc))
        except Exception as exc:  # noqa: BLE001 — compare crash identity too
            return ("crash", type(exc).__name__, str(exc))
        return ("ok", o.output, o.result, o.dynamic_instructions, o.cycles,
                dict(o.op_counts), dict(o.spill_counts))

    fast = observe(simulate)
    for tier in TIERS:
        with forced_tier(tier):
            forced = observe(simulate)
        assert same_verdict(forced, fast), (tier, forced, fast)
    return fast, observe(reference_simulate)


def assert_equivalent(module, machine, **kwargs):
    fast, ref = run_both(module, machine, **kwargs)
    assert same_verdict(fast, ref), (fast, ref)


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
        fast, ref = run_both(module, machine, trap_poison=True)
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

    def test_segments_compiled_published(self):
        """Loops reach the hot tier at the shipped threshold, and the
        count is published; Table-3-shaped straight-line code, where
        every instruction runs once, never compiles a segment."""
        from repro.workloads.synthetic import scaled_module

        machine = alpha()
        metrics = MetricsRegistry()
        outcome = simulate(build_program("wc", machine), machine,
                           metrics=metrics)
        assert outcome.segments_compiled > 0
        assert (metrics.get("sim.decode.segments_compiled")
                == outcome.segments_compiled)
        assert simulate(scaled_module(245, 1), machine).segments_compiled == 0

    def test_reference_interpreter_never_decodes(self):
        machine = alpha()
        module = build_program("compress", machine)
        outcome = reference_simulate(module, machine)
        assert outcome.decode_compiled == 0
        assert outcome.decode_cached == 0
        assert outcome.segments_compiled == 0


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
        fold runs in the loop's ``finally``) — in both tiers, and also
        when the budget trips in the middle of a segment already running
        as generated code: 5 nops + jmp under a budget of 27 trip at the
        fourth instruction of the fifth entry."""
        machine = tiny(4, 4)
        for nops, max_steps in [(1, 100), (5, 27)]:
            fn = Function("main")
            b = FunctionBuilder(fn)
            b.new_block("loop")
            for _ in range(nops):
                b.emit(Instr(Op.NOP))
            b.emit(Instr(Op.JMP, targets=["loop"]))
            module = Module()
            module.add_function(fn)
            _ref, ref = fault_state(ReferenceSimulator, module, machine,
                                    max_steps=max_steps)
            entries, tail = divmod(max_steps, nops + 1)
            for tier in TIERS:
                with forced_tier(tier):
                    sim, fast = fault_state(Simulator, module, machine,
                                            max_steps=max_steps)
                assert fast == ref
                assert sim.steps == max_steps + 1
                assert sim.op_counts[Op.NOP] == entries * nops + tail
                assert sim.op_counts[Op.JMP] == entries
                assert sim.segments_compiled == (tier == "hot")


def fault_state(sim_class, module, machine, **kwargs):
    """Run a simulator class to its fault; return it and what the fault
    left: exception type and message plus the partial counts."""
    sim = sim_class(module, machine, **kwargs)
    with pytest.raises(Exception) as info:
        sim.run()
    return sim, (type(info.value).__name__, str(info.value), sim.steps,
                 sim.cycles, dict(sim.op_counts), dict(sim.spill_counts))


def counted_loop(b, fn, trips: int, body, *, label="loop"):
    """Emit ``entry -> loop (x trips) -> done`` in ``fn``: ``body(b, i)``
    fills the loop block ahead of the counter decrement and back edge."""
    i = fn.new_temp(RegClass.GPR)
    b.emit(Instr(Op.LI, defs=[i], imm=trips))
    b.emit(Instr(Op.JMP, targets=[label]))
    b.new_block(label)
    body(b, i)
    b.emit(Instr(Op.ADDI, defs=[i], uses=[i], imm=-1))
    b.emit(Instr(Op.BR, uses=[i], targets=[label, "done"]))
    b.new_block("done")
    b.emit(Instr(Op.RET))


class TestHotTierFaults:
    """A fault inside a segment already running as generated code finds
    the segment charged in full; the generated frame's traceback line
    names the faulting instruction and the loop un-charges the tail.
    Message and partial counts must be the reference's, in both tiers."""

    def check(self, tier, module, machine, expected, **kwargs):
        with forced_tier(tier):
            sim, fast = fault_state(Simulator, module, machine, **kwargs)
        _ref, ref = fault_state(ReferenceSimulator, module, machine,
                                **kwargs)
        assert fast == ref
        assert fast[1] == expected
        if tier == "hot":
            assert sim.segments_compiled > 0
        else:
            assert sim.segments_compiled == 0 and not sim.hot_sources
        return sim

    @pytest.mark.parametrize("tier", TIERS)
    def test_division_by_zero_mid_segment(self, tier):
        machine = tiny(4, 4)
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        x = b.li(100)

        def body(b, i):
            d = fn.new_temp(RegClass.GPR)
            b.emit(Instr(Op.ADDI, defs=[d], uses=[i], imm=-2))
            b.print_(b.div(x, d))   # zero divisor on the fifth trip
            b.nop()

        counted_loop(b, fn, 6, body)
        module = Module()
        module.add_function(fn)
        sim = self.check(tier, module, machine, "main: division by zero")
        if tier == "hot":
            assert any("DIV(" in src for src in sim.hot_sources.values())

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("op", [Op.LD, Op.ST])
    def test_heap_out_of_bounds_mid_segment(self, tier, op):
        machine = tiny(4, 4)
        module = Module()
        array = module.add_global("a", RegClass.GPR, 4, init=(1, 2, 3, 4))
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        p = b.li(array.base)

        def body(b, i):
            b.nop()
            if op is Op.LD:
                b.print_(b.ld(p, 0))
            else:
                b.st(i, p, 0)
            b.emit(Instr(Op.ADDI, defs=[p], uses=[p], imm=1))

        counted_loop(b, fn, 8, body)
        module.add_function(fn)
        self.check(tier, module, machine, "main: heap access out of bounds "
                   f"at {array.base + 4}")

    @pytest.mark.parametrize("tier", TIERS)
    def test_never_written_slot_mid_segment(self, tier):
        """The callee's read segment runs hot over written slots, then a
        call skips the store and its pooled frame's slot is unset."""
        machine = tiny(4, 4)
        arg = machine.param_regs(RegClass.GPR)[0]
        slot = StackSlot(0, RegClass.GPR)
        helper = Function("helper")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        sel = hb.mov(arg)
        hb.br(sel, "write", "read")
        hb.new_block("write")
        hb.sts(sel, slot)
        hb.jmp("read")
        hb.new_block("read")
        hb.nop()
        hb.print_(hb.lds(slot, helper.new_temp(RegClass.GPR)))
        hb.nop()
        hb.ret()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")

        def body(b, i):
            b.emit(Instr(Op.ADDI, defs=[arg], uses=[i], imm=-1))
            b.call("helper", arg_regs=[arg])

        counted_loop(b, fn, 6, body)
        module = Module()
        module.add_function(fn)
        module.add_function(helper)
        self.check(tier, module, machine,
                   "helper: load of never-written [s0]")

    @pytest.mark.parametrize("tier", TIERS)
    def test_poisoned_read_mid_segment(self, tier):
        """The body segment reads a caller-saved register every trip; on
        the last trip a call poisons it first and the read traps."""
        machine = tiny(4, 4)
        held = machine.caller_saved(RegClass.GPR)[0]
        helper = Function("helper")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        hb.ret()
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.emit(Instr(Op.LI, defs=[held], imm=5))

        def body(b, i):
            last = fn.new_temp(RegClass.GPR)
            b.emit(Instr(Op.ADDI, defs=[last], uses=[i], imm=-1))
            b.br(last, "use", "clobber")
            b.new_block("clobber")
            b.call("helper")
            b.jmp("use")
            b.new_block("use")
            b.nop()
            b.print_(held)
            b.nop()

        counted_loop(b, fn, 4, body)
        module = Module()
        module.add_function(fn)
        module.add_function(helper)
        self.check(tier, module, machine,
                   f"read of caller-saved {held} still poisoned by a call",
                   trap_poison=True)


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
        machine = tiny(4, 4)
        slot = StackSlot(0, RegClass.GPR)
        helper = Function("helper")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        sel = helper.new_temp(RegClass.GPR)
        loaded = helper.new_temp(RegClass.GPR)
        # the first parameter register carries the selector
        arg = machine.param_regs(RegClass.GPR)[0]
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
        fast, ref = run_both(module, machine)
        assert fast == ref
        assert fast == ("fault", "helper: load of never-written [s0]")


class TestMissingRegister:
    """A register outside the machine's file — past the end of either
    file, or at a negative index — faults where the reference faults,
    whichever way the instruction touches it (straight-line read or
    write, branch condition, returned value, call def), with the same
    message and partial counts, at the shipped threshold and in both
    forced tiers."""

    BAD = {"gpr-high": PhysReg(RegClass.GPR, 5),
           "fpr-high": PhysReg(RegClass.FPR, 4),
           "negative": PhysReg(RegClass.GPR, -1)}
    WHERE = ("read", "write", "br", "ret", "call-def")

    @staticmethod
    def module(bad, where: str) -> Module:
        helper = Function("helper")
        hb = FunctionBuilder(helper)
        hb.new_block("entry")
        hb.ret(hb.li(1))
        fn = Function("main")
        b = FunctionBuilder(fn)
        b.new_block("entry")
        b.print_(b.li(7))
        b.nop()
        b.emit({"read": Instr(Op.PRINT, uses=[bad]),
                "write": Instr(Op.LI, defs=[bad], imm=5),
                "br": Instr(Op.BR, uses=[bad], targets=["done", "done"]),
                "ret": Instr(Op.RET, uses=[bad]),
                "call-def": Instr(Op.CALL, defs=[bad], callee="helper"),
                }[where])
        if where not in ("br", "ret"):
            b.nop()
            b.emit(Instr(Op.JMP, targets=["done"]))
        b.new_block("done")
        b.ret()
        module = Module()
        module.add_function(fn)
        module.add_function(helper)
        return module

    @pytest.mark.parametrize("trap", [False, True])
    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("name", BAD)
    def test_faults_like_reference(self, name, where, trap):
        machine = tiny(4, 4)
        bad = self.BAD[name]
        module = self.module(bad, where)
        _ref, ref = fault_state(ReferenceSimulator, module, machine,
                                trap_poison=trap)
        assert ref[:2] == ("SimulationError",
                           f"register {bad} does not exist on {machine.name}")
        _sim, shipped = fault_state(Simulator, module, machine,
                                    trap_poison=trap)
        assert shipped == ref
        for tier in TIERS:
            with forced_tier(tier):
                sim, fast = fault_state(Simulator, module, machine,
                                        trap_poison=trap)
            assert fast == ref, tier
            assert (sim.segments_compiled > 0) == (tier == "hot")

    def test_parser_rejects_a_negative_index(self):
        from repro.ir.parser import parse_reg

        assert parse_reg("r3") == PhysReg(RegClass.GPR, 3)
        with pytest.raises(ValueError, match="bad register"):
            parse_reg("r-1")
