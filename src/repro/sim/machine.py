"""The executing simulator (pre-decoded, segment-tiered interpreter).

Semantics notes:

* Integers are 64-bit two's-complement: every integer result is wrapped
  into ``[-2**63, 2**63)``.  ``div``/``rem`` truncate toward zero (C
  semantics) and fault on a zero divisor.  Shift counts are taken modulo
  64; ``shr`` is an arithmetic shift.
* Floats are IEEE doubles (Python floats).  Register allocation never
  reorders arithmetic, so allocated code produces bit-identical floats.
* Physical registers form one *global* register file shared by every
  frame — which is what makes the caller/callee-saved convention
  observable.  Temporaries and stack slots are per-frame.
* ``call`` transfers control; when the callee's ``ret`` carries a value,
  the ``call``'s def registers (if any) receive it.  This one rule covers
  both virtual code (``ret t3`` / ``call @f() -> r0``) and fully lowered
  code (where the value additionally travels through the return register).

Strictness (all on by default):

* ``poison_calls``: after a call returns, caller-saved registers that are
  not the call's defs are overwritten with poison, so code that wrongly
  keeps a value in a caller-saved register across a call misbehaves
  deterministically rather than accidentally working.
* ``check_callee_saved``: on ``ret``, every callee-saved register must
  hold the value it had at function entry.
* reading a stack slot that was never stored in this frame faults —
  this is what catches missing spill stores (the consistency dataflow's
  whole job, Section 2.4).

Opt-in strictness (off by default, used by the fuzz harness):

* ``trap_poison``: reading a register still holding call poison faults
  immediately with the offending instruction, instead of silently
  propagating the poison value until (maybe) an output diverges.
  Tracked per register, not by value, so a program that legitimately
  computes the poison constant is unaffected; the trap does not follow
  poison through memory (a stored poison value reloads silently).

Execution model: segments
-------------------------

The module-walking reference interpreter lives with the tests
(``tests/oracles/sim_reference.py``).  This one *pre-decodes*: the first
time a function is called, every block is cut into **segments**.  A
segment is a maximal run of straight-line instructions ending at a
``call``/``br``/``jmp``/``ret`` (which belongs to the segment) or at a
fell-off-block point.  Every operand is resolved at decode time into its
slot kind (temporary / physical register / guarded register / a
pre-composed fault), every branch target into a segment id, and every
per-instruction constant (cycles, opcode index, spill category) into the
segment's static tables.  Simulated calls push entries on an explicit
frame stack, so call depth is bounded by ``MAX_CALL_DEPTH`` alone.

The run loop charges ``steps``, ``cycles`` and one entry counter per
*segment*, not per instruction; ``op_counts``/``spill_counts`` are folded
on exit from entry counts × each segment's static histogram.

Two tiers run a segment's straight-line body under that one loop:

* **Cold.**  The decoded ``(index, handler, args)`` tuples: one handler
  call per instruction.
* **Hot.**  On its ``HOT_THRESHOLD``-th entry a segment is compiled once
  into a generated Python function with one source line per
  instruction, operands inlined as ``T[i]``/``R[i]``/``S[i]`` (frame
  temporaries, register file, frame stack slots).  Later entries call it.

Compiling is not free: ``compile()`` costs several times the decoder per
instruction, so compiling eagerly would slow every run whose code
executes once (Table-3 modules, serve requests).  ``HOT_THRESHOLD`` is
compile cost per line divided by the per-entry saving per line; both
scale with segment length, so one entry count is the right unit (see
``docs/PERFORMANCE.md`` for the measurement).

**Exact faults and budget.**  A fault inside a body finds its segment
already charged in full.  The loop learns the faulting instruction's
index — the cold loop carries it, and in generated code it is the
traceback line of the generated frame (line ``j + 2`` is instruction
``j``) — and un-charges the tail after it, so partial counts match the
reference exactly.  When ``steps + n`` would pass ``max_steps``, the
segment's remaining budget runs stepwise through the cold handlers, so
the budget trips at the same instruction.

**Codegen safety.**  ``repro serve`` simulates untrusted IR, so generated
source holds only fixed templates, simulator-computed integer indices and
the ``repr()`` of values whose type is exactly ``int``.  Everything else
— float immediates (nan/inf/-0.0), names, labels, fault messages —
reaches the code through the constants list ``C``.  The code runs under
``{"__builtins__": {}}`` plus an explicit helper namespace.

Dense state
-----------

All machine state lives in flat Python lists indexed by small integers
interned at decode time — the hot loop performs **zero hashing**:

* **Registers** get one machine-wide index space (``self.regs`` is a
  flat list, GPRs first then FPRs, in machine order).  Registers are
  always initialized (0 / 0.0), so no sentinel is needed.
* **Temporaries** get one index space *per function*; each frame's
  ``temps`` list is pre-filled from a per-function template of register
  class defaults (0 for GPR, 0.0 for FPR), so a read of a never-written
  temporary yields the class default exactly as the reference's
  ``dict.get(temp, default)`` did.
* **Stack slots** get one *module-wide* index space; each frame's
  ``slots`` list is pre-filled with the ``_UNSET`` sentinel, and a load
  finding the sentinel raises the same "load of never-written" fault,
  byte-identical, the dict-membership test produced.
* **Poison tracking** (``trap_poison``) is a per-register ``bytearray``
  flag vector instead of a set of ``PhysReg`` objects; guarded operand
  specs carry the register object only for the fault message.

Frames are **pooled per function**: a ``ret`` returns the frame to its
function's free list and the next call re-arms it with two C-level slice
copies (temps/slots templates) instead of allocating fresh dicts.

Decoded state is cached for the lifetime of the ``Simulator`` (a module
must not be mutated mid-simulation, which the pipeline never does).  It
holds no reference cycles: segments name each other by integer id,
handlers are plain functions taking the simulator as an argument,
frames do not point back at their pool, and generated code's namespace
holds machine state, never the ``Simulator`` — so a finished simulator
is freed by reference counting alone, without waiting for the cyclic
garbage collector.  ``decode.compiled``
/ ``decode.cached`` count function decodes and cache hits,
``segments_compiled`` counts hot-tier compiles (all published as
``sim.decode.*``), and ``frames.allocated`` / ``frames.reused`` make the
frame pool observable as ``sim.frames.*``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass

from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.module import Module
from repro.ir.temp import PhysReg, Reg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.sim.errors import SimulationError
from repro.target.machine import MachineDescription, cycle_cost

_MASK64 = (1 << 64) - 1
_HALF64 = 1 << 63
_TWO64 = 1 << 64

_GPR_POISON = -6148914691236517206  # 0xAAAA...AAAA as a signed 64-bit value
_FPR_POISON = -2.462743370480293e103

#: Sentinel marking a stack-slot cell never stored in this frame.  An
#: identity check against it replaces the reference's dict-membership
#: test; it can never collide with a program value (those are ints and
#: floats).
_UNSET = object()

#: Entries after which a segment runs as generated code: compile cost
#: per line (~40 µs) ÷ per-entry saving per line (~0.37 µs) ≈ 104–113 on
#: CPython 3.11, measured over the allocated analogs (docs/PERFORMANCE.md).
HOT_THRESHOLD = 100


def _wrap64(value: int) -> int:
    """Wrap an unbounded int into signed 64-bit two's complement."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


# ----------------------------------------------------------------------
# Helpers shared by the cold handlers and the generated code (which
# reaches them through its namespace, never through builtins).
# ----------------------------------------------------------------------
def _fail(message: str):
    raise SimulationError(message)


def _heap_load(heap: list, address: int, cls: RegClass,
               fn: str) -> int | float:
    if not isinstance(address, int):
        raise SimulationError(f"{fn}: non-integer address {address!r}")
    if not 0 <= address < len(heap) or heap[address] is None:
        raise SimulationError(f"{fn}: heap access out of bounds at {address}")
    value = heap[address]
    if cls is RegClass.GPR and not isinstance(value, int):
        raise SimulationError(f"{fn}: integer load of float cell {address}")
    if cls is RegClass.FPR and not isinstance(value, float):
        raise SimulationError(f"{fn}: float load of integer cell {address}")
    return value


def _heap_store(heap: list, address: int, value: int | float,
                fn: str) -> None:
    if not isinstance(address, int):
        raise SimulationError(f"{fn}: non-integer address {address!r}")
    if not 0 <= address < len(heap) or heap[address] is None:
        raise SimulationError(f"{fn}: heap access out of bounds at {address}")
    heap[address] = value


def _div(x: int, y: int, message: str) -> int:
    if y == 0:
        raise SimulationError(message)
    q = abs(x) // abs(y)
    value = (q if (x < 0) == (y < 0) else -q) & _MASK64
    return value - _TWO64 if value >= _HALF64 else value


def _rem(x: int, y: int, message: str) -> int:
    if y == 0:
        raise SimulationError(message)
    q = abs(x) // abs(y)
    return _wrap64(x - _wrap64(y * (q if (x < 0) == (y < 0) else -q)))


def _fdiv(x: float, y: float, message: str) -> float:
    if y == 0.0:
        raise SimulationError(message)
    return x / y


def _ftoi(value: float, fname: str) -> int:
    if value != value or value in (float("inf"), float("-inf")):
        raise SimulationError(f"{fname}: ftoi of non-finite {value!r}")
    value = int(value) & _MASK64
    return value - _TWO64 if value >= _HALF64 else value


@dataclass
class SimOutcome:
    """Everything one simulation run produced.

    Attributes:
        output: The values printed, in order (the oracle's observable).
        result: ``main``'s returned value (``None`` for a bare ``ret``).
        dynamic_instructions: Total instructions executed.
        cycles: Total cycles under the shared cost model.
        op_counts: Dynamic count per opcode.
        spill_counts: Dynamic count per (phase, kind) for allocator-
            inserted instructions — Figure 3's raw data.
        decode_compiled: Functions the simulator pre-decoded (0 for the
            reference interpreter).
        decode_cached: Calls served from the decode cache.
        segments_compiled: Segments promoted to generated code (the hot
            tier); 0 when no segment reached ``HOT_THRESHOLD`` entries.
        frames_allocated: Frames newly constructed (0 for the reference
            interpreter, which builds one per call instead of pooling).
        frames_reused: Calls served by re-arming a pooled frame.
    """

    output: list[int | float]
    result: int | float | None
    dynamic_instructions: int
    cycles: int
    op_counts: Counter
    spill_counts: Counter
    decode_compiled: int = 0
    decode_cached: int = 0
    segments_compiled: int = 0
    frames_allocated: int = 0
    frames_reused: int = 0

    @property
    def spill_instructions(self) -> int:
        """Dynamic instructions inserted for allocation candidates
        (Table 2's numerator: evict + resolve, excluding prologue)."""
        return sum(count for (phase, _kind), count in self.spill_counts.items()
                   if phase is not SpillPhase.PROLOGUE)

    def spill_fraction(self) -> float:
        """Fraction of all dynamic instructions that are candidate spill
        code (Table 2)."""
        if not self.dynamic_instructions:
            return 0.0
        return self.spill_instructions / self.dynamic_instructions

    def publish(self, metrics) -> None:
        """Publish this run's dynamic counts into a
        :class:`~repro.obs.metrics.MetricsRegistry` under ``sim.*`` keys.
        Kept out of the execution loop so simulation speed is untouched
        when nobody asks for metrics."""
        metrics.bump("sim.dynamic.instructions", self.dynamic_instructions)
        metrics.bump("sim.dynamic.cycles", self.cycles)
        metrics.bump("sim.dynamic.spill_instructions", self.spill_instructions)
        metrics.bump("sim.decode.compiled", self.decode_compiled)
        metrics.bump("sim.decode.cached", self.decode_cached)
        metrics.bump("sim.decode.segments_compiled", self.segments_compiled)
        metrics.bump("sim.frames.allocated", self.frames_allocated)
        metrics.bump("sim.frames.reused", self.frames_reused)
        for op, count in self.op_counts.items():
            metrics.bump(f"sim.op.{op.name.lower()}", count)
        for (phase, kind), count in self.spill_counts.items():
            metrics.bump(f"sim.spill.{phase.value}.{kind.name.lower()}",
                         count)


class _Frame:
    """Per-activation state: temporaries, stack slots, saved callee-saves.

    All three are flat lists in their dense index spaces (see the module
    docstring).  Control position (the current segment id) and the
    function's ``_FnInfo`` live in the run loop's locals and on the
    explicit call stack, not here, so a pooled frame and its pool form no
    cycle.  Frames are pooled per function (``info.pool``) and re-armed
    from the templates on reuse.
    """

    __slots__ = ("temps", "slots", "saved")

    def __init__(self, info: "_FnInfo", n_saved: int):
        self.temps: list[int | float] = list(info.temps_tpl)
        self.slots: list = list(info.slots_tpl)
        self.saved: list[int | float] = [0] * n_saved


class _FnInfo:
    """One function's entry segment plus its frame-template state."""

    __slots__ = ("fn", "entry", "temps_tpl", "slots_tpl", "pool")

    def __init__(self, fn: Function):
        self.fn = fn
        #: Segment id of the entry block's first segment.
        self.entry = -1
        #: Class defaults per temp index (0 / 0.0) — a frame's initial
        #: ``temps``; a read of a never-written temp sees its default.
        self.temps_tpl: list[int | float] = []
        #: ``_UNSET`` per module-wide slot index this function can touch.
        self.slots_tpl: list = []
        #: Free frames, reused LIFO by the next call of this function.
        self.pool: list[_Frame] = []


# Control tags of decoded instructions and segment terminators.
_CTL_STRAIGHT = 0
_CTL_JMP = 1
_CTL_BR = 2
_CTL_CALL = 3
_CTL_RET = 4
_CTL_FAULT = 5  # fell-off-block point / unknown branch target

# Operand-spec kinds (spec[0]): how a register operand is accessed.
_K_TEMP = 0    # (0, temp_index)            frame.temps[i]
_K_PHYS = 1    # (1, reg_index)             self.regs[i]
_K_GUARD = 2   # (2, reg_index, physreg)    + poison trap/untrack bookkeeping
_K_BAD = 3     # (3, message)               faults when executed

#: Dense opcode numbering for the histograms: counting into a flat int
#: list is markedly cheaper than a Counter[Op] update; the histogram
#: folds back into the Counter on loop exit.
_OP_LIST = tuple(Op)
_OP_INDEX = {op: i for i, op in enumerate(_OP_LIST)}

#: spill index -1 in a decoded instruction = not allocator-inserted code.
_NO_SPILL = -1

#: Two-operand integer ALU ops sharing one handler (wrap applied after).
_INT_BIN = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.AND: operator.and_,
    Op.OR: operator.or_,
    Op.XOR: operator.xor,
    Op.SHL: lambda a, b: a << (b % 64),
    Op.SHR: lambda a, b: a >> (b % 64),
}
#: Comparisons producing 0/1 in a GPR (both files; operands pre-typed).
_CMP_BIN = {
    Op.SLT: operator.lt, Op.SLE: operator.le,
    Op.SEQ: operator.eq, Op.SNE: operator.ne,
    Op.FSLT: operator.lt, Op.FSLE: operator.le,
    Op.FSEQ: operator.eq, Op.FSNE: operator.ne,
}
#: Unwrapped float arithmetic (FDIV is separate: zero-divisor fault).
_FLT_BIN = {Op.FADD: operator.add, Op.FSUB: operator.sub,
            Op.FMUL: operator.mul}

# ----------------------------------------------------------------------
# Hot-tier templates.  ``{a}``/``{b}`` are operand read expressions,
# ``v``/``x`` scratch locals; every template is one source line.
# ----------------------------------------------------------------------
#: Python operator of each two-operand opcode in generated code.
_HOT_SYMBOL = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.AND: "&", Op.OR: "|",
    Op.XOR: "^", Op.SHL: "<<", Op.SHR: ">>",
    Op.SLT: "<", Op.SLE: "<=", Op.SEQ: "==", Op.SNE: "!=",
    Op.FSLT: "<", Op.FSLE: "<=", Op.FSEQ: "==", Op.FSNE: "!=",
    Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*",
}
#: Helper names of the ops generated code calls out for.
_HOT_CALL = {Op.DIV: "DIV", Op.REM: "REM", Op.FDIV: "FDIV"}
#: The wrap of scratch ``v`` (already masked to 64 bits) into signed range.
_HOT_WRAP = f"v - {_TWO64} if v >= {_HALF64} else v"


def _fault_line(exc: BaseException, code) -> int:
    """The source line of ``code``'s frame in ``exc``'s traceback."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not code:
        tb = tb.tb_next
    return tb.tb_lineno


class Simulator:
    """Executes a module; see the module docstring for the semantics."""

    def __init__(self, module: Module, machine: MachineDescription, *,
                 max_steps: int = 50_000_000, poison_calls: bool = True,
                 check_callee_saved: bool = True, trap_poison: bool = False):
        self.module = module
        self.machine = machine
        self.max_steps = max_steps
        self.poison_calls = poison_calls
        self.check_callee_saved = check_callee_saved
        self.trap_poison = trap_poison
        #: Machine-wide dense register index space: GPRs then FPRs, in
        #: machine order.  ``self.regs`` is the flat register file.
        self._reg_ix: dict[PhysReg, int] = {}
        self.regs: list[int | float] = []
        for reg in machine.gprs:
            self._reg_ix[reg] = len(self.regs)
            self.regs.append(0)
        for reg in machine.fprs:
            self._reg_ix[reg] = len(self.regs)
            self.regs.append(0.0)
        #: Per-register poison flags (only written when ``trap_poison``).
        self._poisoned = bytearray(len(self.regs))
        self.heap: list[int | float | None] = [None] * module.heap_size
        for arr in module.globals.values():
            fill: int | float = 0 if arr.regclass is RegClass.GPR else 0.0
            for i in range(arr.size):
                self.heap[arr.base + i] = arr.init[i] if i < len(arr.init) else fill
        self.output: list[int | float] = []
        self.steps = 0
        self.cycles = 0
        self.op_counts: Counter = Counter()
        self._op_hist: list[int] = [0] * len(_OP_LIST)
        self.spill_counts: Counter = Counter()
        #: Interned spill categories: ``(phase, kind) -> dense index``;
        #: histograms count into ``_spill_hist`` and fold on exit.
        self._spill_ix: dict[tuple, int] = {}
        self._spill_keys: list[tuple] = []
        self._spill_hist: list[int] = []
        #: Module-wide dense stack-slot index space, grown at decode.
        self._slot_ix: dict[StackSlot, int] = {}
        #: Decoded entry + frame templates per function name, filled
        #: lazily at first call.
        self._decoded: dict[str, _FnInfo] = {}
        #: Segments, all indexed by segment id: the run loop's record
        #: ``(n, cycles, body, ctl, terminator args)``; the static
        #: per-instruction ``(ops, cycles, spills)`` tables; the entry
        #: counts of the current run; the generated function once hot.
        self._segs: list[tuple] = []
        self._seg_static: list[tuple] = []
        self._seg_hits: list[int] = []
        self._seg_fns: list = []
        #: Generated source per compiled segment id.
        self.hot_sources: dict[int, str] = {}
        #: The hot tier's constants list and namespace (built at the
        #: first compile, so runs that never go hot pay nothing).
        self._hot_consts: list = []
        self._hot_ns: dict | None = None
        self.decode_compiled = 0
        self.decode_cached = 0
        self.segments_compiled = 0
        self.frames_allocated = 0
        self.frames_reused = 0
        #: Caller-saved registers with their poison values, both classes —
        #: fixed per machine, shared by every call-site decode (mapped to
        #: register indices there).
        self._poison_all: tuple[tuple[PhysReg, int | float], ...] = tuple(
            [(r, _GPR_POISON) for r in machine.caller_saved(RegClass.GPR)]
            + [(r, _FPR_POISON) for r in machine.caller_saved(RegClass.FPR)])
        #: Callee-saved index vector + parallel register objects (the
        #: objects appear only in clobber fault messages).  Order matches
        #: the reference's snapshot insertion order: GPRs then FPRs.
        callee = (machine.callee_saved(RegClass.GPR)
                  + machine.callee_saved(RegClass.FPR))
        self._callee_regs: tuple[PhysReg, ...] = callee
        self._callee_idx: tuple[int, ...] = tuple(self._reg_ix[r]
                                                  for r in callee)
        # Decode-time per-function interning state (valid only inside
        # _decode_fn; held on self so the spec helpers keep their shape).
        self._cur_temp_ix: dict[Temp, int] = {}
        self._cur_temps_tpl: list[int | float] = []

    # ------------------------------------------------------------------
    # Decoding.
    # ------------------------------------------------------------------
    def _fn_info(self, fn: Function) -> _FnInfo:
        """The decoded state of ``fn`` (decoding on first call)."""
        info = self._decoded.get(fn.name)
        if info is not None:
            self.decode_cached += 1
            return info
        self.decode_compiled += 1
        return self._decode_fn(fn)

    def _decode_fn(self, fn: Function) -> _FnInfo:
        info = _FnInfo(fn)
        self._cur_temp_ix = {}
        self._cur_temps_tpl = info.temps_tpl
        # Block-start segment ids first, so branches can name targets.
        starts = {block.label: self._new_segment() for block in fn.blocks}
        for block in fn.blocks:
            self._decode_block(fn, block, starts)
        info.entry = starts[fn.entry.label]
        # Every slot this function touches was interned above, so the
        # module-wide count now covers all of its indices.
        info.slots_tpl = [_UNSET] * len(self._slot_ix)
        self._decoded[fn.name] = info
        return info

    def _new_segment(self) -> int:
        """Reserve a segment id (filled by :meth:`_set_segment`)."""
        self._segs.append(None)
        self._seg_static.append(None)
        self._seg_hits.append(0)
        self._seg_fns.append(None)
        return len(self._segs) - 1

    def _set_segment(self, sid: int, decoded: list, ctl: int,
                     targs) -> None:
        """Fill segment ``sid`` from its decoded instructions (terminator
        included unless ``ctl`` is a fault point)."""
        body = tuple((j, handler, args)
                     for j, (_c, handler, _cy, _o, _s, args)
                     in enumerate(decoded) if handler is not None)
        ops = tuple(d[3] for d in decoded)
        cycs = tuple(d[2] for d in decoded)
        self._segs[sid] = (len(decoded), sum(cycs), body, ctl, targs)
        self._seg_static[sid] = (ops, cycs, tuple(d[4] for d in decoded))

    def _decode_block(self, fn: Function, block,
                      starts: dict[str, int]) -> None:
        """Cut ``block`` into segments: one per call it holds, plus one
        ending at its terminator (or at its fell-off point)."""
        sid = starts[block.label]
        decoded: list = []
        for instr in block.instrs:
            entry = self._decode_instr(fn, instr, starts)
            decoded.append(entry)
            ctl, targs = entry[0], entry[5]
            if ctl == _CTL_STRAIGHT:
                continue
            if ctl == _CTL_CALL:
                resume = self._new_segment()
                self._set_segment(sid, decoded, ctl, targs + (resume,))
                sid, decoded = resume, []
                continue
            # jmp/br/ret end the block: what follows is unreachable.
            self._set_segment(sid, decoded, ctl, targs)
            return
        # Fell-off point: a block without a terminator faults exactly
        # where the reference interpreter does.
        self._set_segment(sid, decoded, _CTL_FAULT,
                          (SimulationError,
                           f"{fn.name}/{block.label}: fell off block"))

    def _target(self, label: str, starts: dict[str, int]) -> int:
        """The segment id of branch target ``label``.  An unknown label
        becomes an empty fault segment raising the same ``KeyError`` the
        module-walking interpreter's block lookup would — and only when
        the branch is actually taken to it."""
        sid = starts.get(label)
        if sid is None:
            sid = self._new_segment()
            self._set_segment(sid, [], _CTL_FAULT, (KeyError, label))
        return sid

    def _temp_i(self, temp: Temp) -> int:
        """Intern ``temp`` into the current function's index space."""
        i = self._cur_temp_ix.get(temp)
        if i is None:
            i = self._cur_temp_ix[temp] = len(self._cur_temps_tpl)
            self._cur_temps_tpl.append(
                0 if temp.regclass is RegClass.GPR else 0.0)
        return i

    def _slot_i(self, slot: StackSlot) -> int:
        """Intern ``slot`` into the module-wide index space."""
        i = self._slot_ix.get(slot)
        if i is None:
            i = self._slot_ix[slot] = len(self._slot_ix)
        return i

    def _spill_i(self, key: tuple) -> int:
        """Intern a ``(phase, kind)`` spill category to its dense index."""
        i = self._spill_ix.get(key)
        if i is None:
            i = self._spill_ix[key] = len(self._spill_keys)
            self._spill_keys.append(key)
            self._spill_hist.append(0)
        return i

    def _read_spec(self, reg: Reg) -> tuple:
        """Pre-resolve a use operand into its slot kind + dense index."""
        if isinstance(reg, Temp):
            return (_K_TEMP, self._temp_i(reg))
        ri = self._reg_ix.get(reg)
        if ri is None:
            return (_K_BAD, f"register {reg} does not exist on "
                            f"{self.machine.name}")
        if self.trap_poison:
            return (_K_GUARD, ri, reg)
        return (_K_PHYS, ri)

    def _write_spec(self, reg: Reg) -> tuple:
        """Pre-resolve a def operand into its slot kind + dense index."""
        if isinstance(reg, Temp):
            return (_K_TEMP, self._temp_i(reg))
        ri = self._reg_ix.get(reg)
        if ri is None:
            return (_K_BAD, f"register {reg} does not exist on "
                            f"{self.machine.name}")
        # Writes un-poison; only worth tracking when reads can trap.
        return (_K_GUARD, ri, reg) if self.trap_poison else (_K_PHYS, ri)

    def _decode_instr(self, fn: Function, instr: Instr,
                      starts: dict[str, int]) -> tuple:
        """Decode one instruction into ``(ctl, handler, cycles, op index,
        spill index, args)``; branch targets become segment ids."""
        op = instr.op
        cyc = cycle_cost(op)
        spill_i = (_NO_SPILL if instr.spill_phase is None
                   else self._spill_i((instr.spill_phase,
                                       instr.spill_kind())))
        fname = fn.name

        op_i = _OP_INDEX[op]

        def entry(ctl: int, handler, args) -> tuple:
            return (ctl, handler, cyc, op_i, spill_i, args)

        if op is Op.JMP:
            return entry(_CTL_JMP, None, self._target(instr.targets[0],
                                                      starts))
        if op is Op.BR:
            return entry(_CTL_BR, None,
                         (self._read_spec(instr.uses[0]),
                          self._target(instr.targets[0], starts),
                          self._target(instr.targets[1], starts)))
        if op is Op.RET:
            spec = self._read_spec(instr.uses[0]) if instr.uses else None
            return entry(_CTL_RET, None, spec)
        if op is Op.CALL:
            callee = self.module.functions.get(instr.callee)
            skip = set(instr.defs)
            poison = (tuple((self._reg_ix[reg], value)
                            for reg, value in self._poison_all
                            if reg not in skip)
                      if self.poison_calls else ())
            defs = tuple(self._write_spec(d) for d in instr.defs)
            return entry(_CTL_CALL, None,
                         (callee, instr.callee, poison, defs, fname))

        handler, args = self._decode_straightline(fname, instr)
        return entry(_CTL_STRAIGHT, handler, args)

    def _decode_straightline(self, fname: str, instr: Instr):
        """Pick the handler (a plain function of ``(sim, frame, args)``,
        so decoded state never refers back to the simulator) +
        pre-resolved args for one opcode."""
        op = instr.op
        cls = type(self)
        if op is Op.LI or op is Op.FLI:
            return cls._h_imm, (instr.imm, self._write_spec(instr.defs[0]))
        if op is Op.MOV or op is Op.FMOV:
            return cls._h_mov, (self._read_spec(instr.uses[0]),
                                self._write_spec(instr.defs[0]))
        if op is Op.PRINT:
            return cls._h_print, (self._read_spec(instr.uses[0]),)
        if op is Op.NOP:
            return cls._h_nop, ()
        if op is Op.LDS:
            return cls._h_lds, (self._slot_i(instr.slot),
                                self._write_spec(instr.defs[0]), fname,
                                instr.slot)
        if op is Op.STS:
            return cls._h_sts, (self._read_spec(instr.uses[0]),
                                self._slot_i(instr.slot))
        if op is Op.LD or op is Op.FLD:
            regclass = RegClass.GPR if op is Op.LD else RegClass.FPR
            return cls._h_load, (self._read_spec(instr.uses[0]), instr.imm,
                                 regclass, self._write_spec(instr.defs[0]),
                                 fname)
        if op is Op.ST or op is Op.FST:
            return cls._h_store, (self._read_spec(instr.uses[0]),
                                  self._read_spec(instr.uses[1]),
                                  instr.imm, fname)
        if op is Op.ADDI:
            return cls._h_addi, (self._read_spec(instr.uses[0]), instr.imm,
                                 self._write_spec(instr.defs[0]))
        if op in (Op.NEG, Op.NOT, Op.FNEG, Op.ITOF, Op.FTOI):
            unary = {Op.NEG: cls._h_neg, Op.NOT: cls._h_not,
                     Op.FNEG: cls._h_fneg, Op.ITOF: cls._h_itof,
                     Op.FTOI: cls._h_ftoi}[op]
            return unary, (self._read_spec(instr.uses[0]),
                           self._write_spec(instr.defs[0]), fname)
        binargs = (self._read_spec(instr.uses[0]),
                   self._read_spec(instr.uses[1]),
                   self._write_spec(instr.defs[0]))
        fnop = _INT_BIN.get(op)
        if fnop is not None:
            return cls._h_ibin, (fnop, *binargs)
        fnop = _CMP_BIN.get(op)
        if fnop is not None:
            return cls._h_cmp, (fnop, *binargs)
        fnop = _FLT_BIN.get(op)
        if fnop is not None:
            return cls._h_fbin, (fnop, *binargs)
        if op is Op.DIV or op is Op.REM:
            which = "division" if op is Op.DIV else "remainder"
            handler = cls._h_div if op is Op.DIV else cls._h_rem
            return handler, (*binargs, f"{fname}: {which} by zero")
        if op is Op.FDIV:
            return cls._h_fdiv, (*binargs,
                                 f"{fname}: float division by zero")
        raise SimulationError(
            f"{fname}: unimplemented opcode {op}")  # pragma: no cover

    # ------------------------------------------------------------------
    # The hot tier: one generated line per body instruction.
    # ------------------------------------------------------------------
    def _const(self, value) -> str:
        """``C[k]`` naming ``value`` in the constants list."""
        self._hot_consts.append(value)
        return f"C[{len(self._hot_consts) - 1}]"

    def _literal(self, value) -> str:
        """An immediate as source: ``repr`` only for exact ints."""
        return repr(value) if type(value) is int else self._const(value)

    def _hot_read(self, spec: tuple) -> str:
        kind, i = spec[0], spec[1]
        if kind == _K_TEMP:
            return f"T[{i:d}]"
        if kind == _K_PHYS:
            return f"R[{i:d}]"
        if kind == _K_GUARD:
            message = self._const(
                f"read of caller-saved {spec[2]} still poisoned by a call")
            return f"(R[{i:d}] if not P[{i:d}] else X({message}))"
        return f"X({self._const(i)})"  # _K_BAD: i is the message

    def _hot_write(self, spec: tuple, expr: str) -> str:
        kind, i = spec[0], spec[1]
        if kind == _K_TEMP:
            return f"T[{i:d}] = {expr}"
        if kind == _K_PHYS:
            return f"R[{i:d}] = {expr}"
        if kind == _K_GUARD:
            return f"R[{i:d}] = {expr}; P[{i:d}] = 0"
        return f"v = {expr}; X({self._const(i)})"  # _K_BAD

    def _hot_line(self, op: Op, a: tuple) -> str:
        """The generated source line of one body instruction with decoded
        args ``a`` — the same operand order and checks as its handler."""
        rd, wr = self._hot_read, self._hot_write
        if op is Op.LI or op is Op.FLI:
            return wr(a[1], self._literal(a[0]))
        if op is Op.MOV or op is Op.FMOV:
            return wr(a[1], rd(a[0]))
        if op is Op.PRINT:
            return f"O({rd(a[0])})"
        if op is Op.NOP:
            return "pass"
        if op is Op.LDS:
            si, dst, fname, slot = a
            message = self._const(f"{fname}: load of never-written {slot}")
            return (f"v = S[{si:d}]; v is U and X({message}); "
                    + wr(dst, "v"))
        if op is Op.STS:
            return f"S[{a[1]:d}] = {rd(a[0])}"
        if op is Op.LD or op is Op.FLD:
            base, imm, cls, dst, fname = a
            kind = "INT" if cls is RegClass.GPR else "FLT"
            return (f"v = {rd(base)} + {self._literal(imm)}; "
                    + wr(dst, f"H[v] if TY(v) is INT and "
                              f"0 <= v < {len(self.heap):d} and "
                              f"TY(H[v]) is {kind} else "
                              f"LD(H, v, {self._const(cls)}, "
                              f"{self._const(fname)})"))
        if op is Op.ST or op is Op.FST:
            src, base, imm, fname = a
            return (f"x = {rd(src)}; v = {rd(base)} + {self._literal(imm)}; "
                    f"TY(v) is INT and 0 <= v < {len(self.heap):d} and "
                    f"H[v] is not None or ST(H, v, x, {self._const(fname)}); "
                    f"H[v] = x")
        if op is Op.ADDI:
            return (f"v = ({rd(a[0])} + {self._literal(a[1])}) & {_MASK64}; "
                    + wr(a[2], _HOT_WRAP))
        if op is Op.NEG or op is Op.NOT:
            sign = "-" if op is Op.NEG else "~"
            return f"v = ({sign}{rd(a[0])}) & {_MASK64}; " + wr(a[1], _HOT_WRAP)
        if op is Op.FNEG:
            return wr(a[1], f"-{rd(a[0])}")
        if op is Op.ITOF:
            return wr(a[1], f"FLT({rd(a[0])})")
        if op is Op.FTOI:
            return wr(a[1], f"FTOI({rd(a[0])}, {self._const(a[2])})")
        if op in _HOT_CALL:
            sa, sb, dst, message = a
            return wr(dst, f"{_HOT_CALL[op]}({rd(sa)}, {rd(sb)}, "
                           f"{self._const(message)})")
        _fnop, sa, sb, dst = a
        x, y, sym = rd(sa), rd(sb), _HOT_SYMBOL[op]
        if op in _CMP_BIN:
            return wr(dst, f"1 if {x} {sym} {y} else 0")
        if op in _FLT_BIN:
            return wr(dst, f"{x} {sym} {y}")
        if op is Op.SHL or op is Op.SHR:
            y = f"({y} % 64)"
        return f"v = ({x} {sym} {y}) & {_MASK64}; " + wr(dst, _HOT_WRAP)

    def _compile_segment(self, sid: int):
        """Generate, compile and install segment ``sid``'s hot function.
        Line ``j + 2`` of the source is body instruction ``j``."""
        ops = self._seg_static[sid][0]
        lines = ["def seg(T, S):"]
        lines += [f" {self._hot_line(_OP_LIST[ops[j]], args)}"
                  for j, _handler, args in self._segs[sid][2]]
        source = "\n".join(lines) + "\n"
        if self._hot_ns is None:
            # Empty builtins plus the machine state and helpers generated
            # code may touch — nothing that leads back to the Simulator.
            self._hot_ns = {
                "__builtins__": {}, "R": self.regs, "P": self._poisoned,
                "H": self.heap, "O": self.output.append, "U": _UNSET,
                "C": self._hot_consts, "X": _fail, "LD": _heap_load,
                "ST": _heap_store, "DIV": _div, "REM": _rem, "FDIV": _fdiv,
                "FTOI": _ftoi, "TY": type, "INT": int, "FLT": float}
        exec(compile(source, "<segment>", "exec"), self._hot_ns)
        fn = self._seg_fns[sid] = self._hot_ns.pop("seg")
        self.hot_sources[sid] = source
        self.segments_compiled += 1
        return fn

    # ------------------------------------------------------------------
    # Operand access: the slow (guarded) paths.  The fast kinds are
    # inlined into every handler.
    # ------------------------------------------------------------------
    def _read_guard(self, spec) -> int | float:
        kind = spec[0]
        if kind == _K_GUARD:
            if self._poisoned[spec[1]]:
                raise SimulationError(
                    f"read of caller-saved {spec[2]} still poisoned by a "
                    f"call")
            return self.regs[spec[1]]
        raise SimulationError(spec[1])  # _K_BAD

    def _write_guard(self, spec, value) -> None:
        kind = spec[0]
        if kind == _K_GUARD:
            ri = spec[1]
            self.regs[ri] = value
            self._poisoned[ri] = 0
            return
        raise SimulationError(spec[1])  # _K_BAD

    # ------------------------------------------------------------------
    # Straight-line handlers (the cold tier), called as plain functions
    # ``(sim, frame, args)`` with args fully pre-resolved; operand
    # reads/writes inline the two fast slot kinds (flat-list indexing)
    # and fall back to the guarded paths.
    # ------------------------------------------------------------------
    def _h_nop(self, frame: _Frame, a) -> None:
        pass

    def _h_imm(self, frame: _Frame, a) -> None:
        value, dst = a
        if dst[0] == 0:
            frame.temps[dst[1]] = value
        elif dst[0] == 1:
            self.regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _h_mov(self, frame: _Frame, a) -> None:
        src, dst = a
        if src[0] == 0:
            value = frame.temps[src[1]]
        elif src[0] == 1:
            value = self.regs[src[1]]
        else:
            value = self._read_guard(src)
        if dst[0] == 0:
            frame.temps[dst[1]] = value
        elif dst[0] == 1:
            self.regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _h_print(self, frame: _Frame, a) -> None:
        self.output.append(self._read(frame, a[0]))

    def _h_lds(self, frame: _Frame, a) -> None:
        si, dst, fname, slot = a
        value = frame.slots[si]
        if value is _UNSET:
            raise SimulationError(f"{fname}: load of never-written {slot}")
        self._store_result(frame, dst, value)

    def _h_sts(self, frame: _Frame, a) -> None:
        frame.slots[a[1]] = self._read(frame, a[0])

    def _h_load(self, frame: _Frame, a) -> None:
        base_spec, imm, cls, dst, fname = a
        if base_spec[0] == 0:
            base = frame.temps[base_spec[1]]
        elif base_spec[0] == 1:
            base = self.regs[base_spec[1]]
        else:
            base = self._read_guard(base_spec)
        self._store_result(frame, dst,
                           _heap_load(self.heap, base + imm, cls, fname))

    def _h_store(self, frame: _Frame, a) -> None:
        src, base_spec, imm, fname = a
        value = self._read(frame, src)
        if base_spec[0] == 0:
            base = frame.temps[base_spec[1]]
        elif base_spec[0] == 1:
            base = self.regs[base_spec[1]]
        else:
            base = self._read_guard(base_spec)
        _heap_store(self.heap, base + imm, value, fname)

    def _h_addi(self, frame: _Frame, a) -> None:
        src, imm, dst = a
        if src[0] == 0:
            value = frame.temps[src[1]]
        elif src[0] == 1:
            value = self.regs[src[1]]
        else:
            value = self._read_guard(src)
        value = (value + imm) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        if dst[0] == 0:
            frame.temps[dst[1]] = value
        elif dst[0] == 1:
            self.regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _read(self, frame: _Frame, src):
        if src[0] == 0:
            return frame.temps[src[1]]
        if src[0] == 1:
            return self.regs[src[1]]
        return self._read_guard(src)

    def _store_result(self, frame: _Frame, dst, value) -> None:
        if dst[0] == 0:
            frame.temps[dst[1]] = value
        elif dst[0] == 1:
            self.regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _h_neg(self, frame: _Frame, a) -> None:
        value = (-self._read(frame, a[0])) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        self._store_result(frame, a[1], value)

    def _h_not(self, frame: _Frame, a) -> None:
        value = (~self._read(frame, a[0])) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        self._store_result(frame, a[1], value)

    def _h_fneg(self, frame: _Frame, a) -> None:
        self._store_result(frame, a[1], -self._read(frame, a[0]))

    def _h_itof(self, frame: _Frame, a) -> None:
        self._store_result(frame, a[1], float(self._read(frame, a[0])))

    def _h_ftoi(self, frame: _Frame, a) -> None:
        self._store_result(frame, a[1], _ftoi(self._read(frame, a[0]), a[2]))

    def _h_ibin(self, frame: _Frame, a) -> None:
        fnop, sa, sb, dst = a
        temps = frame.temps
        regs = self.regs
        if sa[0] == 0:
            x = temps[sa[1]]
        elif sa[0] == 1:
            x = regs[sa[1]]
        else:
            x = self._read_guard(sa)
        if sb[0] == 0:
            y = temps[sb[1]]
        elif sb[0] == 1:
            y = regs[sb[1]]
        else:
            y = self._read_guard(sb)
        value = fnop(x, y) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        if dst[0] == 0:
            temps[dst[1]] = value
        elif dst[0] == 1:
            regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _h_cmp(self, frame: _Frame, a) -> None:
        fnop, sa, sb, dst = a
        temps = frame.temps
        regs = self.regs
        if sa[0] == 0:
            x = temps[sa[1]]
        elif sa[0] == 1:
            x = regs[sa[1]]
        else:
            x = self._read_guard(sa)
        if sb[0] == 0:
            y = temps[sb[1]]
        elif sb[0] == 1:
            y = regs[sb[1]]
        else:
            y = self._read_guard(sb)
        value = 1 if fnop(x, y) else 0
        if dst[0] == 0:
            temps[dst[1]] = value
        elif dst[0] == 1:
            regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _h_fbin(self, frame: _Frame, a) -> None:
        fnop, sa, sb, dst = a
        temps = frame.temps
        regs = self.regs
        if sa[0] == 0:
            x = temps[sa[1]]
        elif sa[0] == 1:
            x = regs[sa[1]]
        else:
            x = self._read_guard(sa)
        if sb[0] == 0:
            y = temps[sb[1]]
        elif sb[0] == 1:
            y = regs[sb[1]]
        else:
            y = self._read_guard(sb)
        value = fnop(x, y)
        if dst[0] == 0:
            temps[dst[1]] = value
        elif dst[0] == 1:
            regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _divmod_operands(self, frame: _Frame, a):
        """Both operands of div/rem/fdiv, read in order."""
        return self._read(frame, a[0]), self._read(frame, a[1])

    def _h_div(self, frame: _Frame, a) -> None:
        x, y = self._divmod_operands(frame, a)
        self._store_result(frame, a[2], _div(x, y, a[3]))

    def _h_rem(self, frame: _Frame, a) -> None:
        x, y = self._divmod_operands(frame, a)
        self._store_result(frame, a[2], _rem(x, y, a[3]))

    def _h_fdiv(self, frame: _Frame, a) -> None:
        x, y = self._divmod_operands(frame, a)
        self._store_result(frame, a[2], _fdiv(x, y, a[3]))

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    #: Maximum simulated call depth (explicit stack entries, not Python
    #: frames — the host recursion limit is irrelevant).
    MAX_CALL_DEPTH = 2000

    def run(self, entry: str = "main") -> SimOutcome:
        """Execute from ``entry`` until its ``ret``; return the outcome."""
        result = self._run(self.module.function(entry))
        return SimOutcome(
            output=self.output,
            result=result,
            dynamic_instructions=self.steps,
            cycles=self.cycles,
            op_counts=self.op_counts,
            spill_counts=self.spill_counts,
            decode_compiled=self.decode_compiled,
            decode_cached=self.decode_cached,
            segments_compiled=self.segments_compiled,
            frames_allocated=self.frames_allocated,
            frames_reused=self.frames_reused,
        )

    def _acquire_frame(self, info: _FnInfo) -> _Frame:
        """A ready frame for ``info``'s function: pooled when available
        (re-armed by two slice copies from the templates), fresh
        otherwise; the callee-saved snapshot fills through the
        precomputed index vector."""
        pool = info.pool
        if pool:
            frame = pool.pop()
            frame.temps[:] = info.temps_tpl
            frame.slots[:] = info.slots_tpl
            self.frames_reused += 1
        else:
            frame = _Frame(info, len(self._callee_idx))
            self.frames_allocated += 1
        if self.check_callee_saved:
            regs = self.regs
            saved = frame.saved
            for k, ri in enumerate(self._callee_idx):
                saved[k] = regs[ri]
        return frame

    def _uncharge(self, sid: int, j: int) -> tuple[int, int]:
        """Segment ``sid``, charged in full on entry, faulted at its
        instruction ``j``: turn the entry into exact partial counts
        (instructions ``0..j`` charged, as the reference does) and return
        the ``(steps, cycles)`` to take back."""
        self._seg_hits[sid] -= 1
        ops, cycs, spills = self._seg_static[sid]
        for k in range(j + 1):
            self._op_hist[ops[k]] += 1
            if spills[k] >= 0:
                self._spill_hist[spills[k]] += 1
        return len(ops) - j - 1, sum(cycs[j + 1:])

    def _fold_histograms(self) -> None:
        """Fold segment entry counts × static histograms, plus the
        per-instruction partial counts, into the enum-keyed Counters."""
        op_hist, spill_hist = self._op_hist, self._spill_hist
        hits = self._seg_hits
        for sid, count in enumerate(hits):
            if count:
                ops, _cycs, spills = self._seg_static[sid]
                for op_i in ops:
                    op_hist[op_i] += count
                for spill_i in spills:
                    if spill_i >= 0:
                        spill_hist[spill_i] += count
                hits[sid] = 0
        op_counts = self.op_counts
        for op_i, count in enumerate(op_hist):
            if count:
                op_counts[_OP_LIST[op_i]] += count
                op_hist[op_i] = 0
        spill_counts = self.spill_counts
        spill_keys = self._spill_keys
        for spill_i, count in enumerate(spill_hist):
            if count:
                spill_counts[spill_keys[spill_i]] += count
                spill_hist[spill_i] = 0

    def _run(self, fn: Function) -> int | float | None:
        """The segment loop + the explicit frame stack.  Hot counters
        live in locals and are written back on every exit path."""
        info = self._fn_info(fn)
        frame = self._acquire_frame(info)
        temps, slots = frame.temps, frame.slots
        sid = info.entry
        stack: list = []  # (frame, info, call_args)
        steps = self.steps
        cycles = self.cycles
        max_steps = self.max_steps
        segs = self._segs
        seg_fns = self._seg_fns
        hits = self._seg_hits
        threshold = HOT_THRESHOLD
        regs = self.regs
        check_callee = self.check_callee_saved
        callee_idx = self._callee_idx
        callee_regs = self._callee_regs
        trap = self.trap_poison
        poisoned = self._poisoned

        try:
            while True:
                n, cyc, body, ctl, targs = segs[sid]
                if steps + n > max_steps:
                    # The budget trips inside this segment: run what is
                    # left of it stepwise, charging per instruction.
                    ops, cycs, spills = self._seg_static[sid]
                    for j in range(max_steps - steps):
                        steps += 1
                        cycles += cycs[j]
                        self._op_hist[ops[j]] += 1
                        if spills[j] >= 0:
                            self._spill_hist[spills[j]] += 1
                        body[j][1](self, frame, body[j][2])
                    steps += 1
                    raise SimulationError(
                        f"step budget exceeded in {info.fn.name}")
                steps += n
                cycles += cyc
                entries = hits[sid] + 1
                hits[sid] = entries
                hot = seg_fns[sid]
                if hot is None and entries >= threshold and body:
                    hot = self._compile_segment(sid)
                try:
                    if hot is not None:
                        hot(temps, slots)
                    else:
                        for j, handler, args in body:
                            handler(self, frame, args)
                except Exception as exc:
                    if hot is not None:
                        j = _fault_line(exc, hot.__code__) - 2
                    back_steps, back_cycles = self._uncharge(sid, j)
                    steps -= back_steps
                    cycles -= back_cycles
                    raise
                if ctl == 2:  # br
                    spec, then_sid, else_sid = targs
                    if spec[0] == 0:
                        cond = temps[spec[1]]
                    elif spec[0] == 1:
                        cond = regs[spec[1]]
                    else:
                        cond = self._read_guard(spec)
                    sid = then_sid if cond else else_sid
                elif ctl == 1:  # jmp
                    sid = targs
                elif ctl == 3:  # call
                    callee, callee_name, _poison, _defs, fname, _resume = targs
                    if callee is None:
                        raise SimulationError(
                            f"{fname}: call to unknown "
                            f"function {callee_name!r}")
                    if len(stack) >= self.MAX_CALL_DEPTH:
                        raise SimulationError(
                            f"call depth exceeded entering {callee.name}")
                    stack.append((frame, info, targs))
                    info = self._fn_info(callee)
                    frame = self._acquire_frame(info)
                    temps, slots = frame.temps, frame.slots
                    sid = info.entry
                elif ctl == 4:  # ret
                    spec = targs
                    if spec is None:
                        value = None
                    elif spec[0] == 0:
                        value = temps[spec[1]]
                    elif spec[0] == 1:
                        value = regs[spec[1]]
                    else:
                        value = self._read_guard(spec)
                    if check_callee:
                        saved = frame.saved
                        for k, ri in enumerate(callee_idx):
                            current = regs[ri]
                            entry_value = saved[k]
                            same = (current == entry_value or
                                    (current != current
                                     and entry_value != entry_value))
                            if not same:
                                raise SimulationError(
                                    f"{info.fn.name}: callee-saved "
                                    f"{callee_regs[k]} clobbered "
                                    f"({entry_value!r} -> {current!r})")
                    info.pool.append(frame)
                    if not stack:
                        return value
                    frame, info, call_args = stack.pop()
                    temps, slots = frame.temps, frame.slots
                    _callee, callee_name, poison, defs, fname, sid = call_args
                    for ri, poison_value in poison:
                        regs[ri] = poison_value
                        if trap:
                            poisoned[ri] = 1
                    for dst in defs:
                        if value is None:
                            raise SimulationError(
                                f"{fname}: {callee_name} returned no value "
                                f"but call expects one")
                        if dst[0] == 0:
                            temps[dst[1]] = value
                        elif dst[0] == 1:
                            regs[dst[1]] = value
                        else:
                            self._write_guard(dst, value)
                else:  # fault point: fell off a block / unknown label
                    exc_type, payload = targs
                    raise exc_type(payload)
        finally:
            self.steps = steps
            self.cycles = cycles
            self._fold_histograms()


def outputs_equal(a: list[int | float] | None, b: list[int | float] | None) -> bool:
    """Observable-output equality: exact values and types, NaN == NaN.

    Register allocation never reorders or perturbs arithmetic, so even
    float outputs must match bit-for-bit: a signed zero differs from its
    opposite.  NaN is compared as equal to itself so programs that
    legitimately compute NaN still have a stable oracle.
    """
    if a is None or b is None:
        return a is b
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if type(x) is not type(y):
            return False
        if x != y:
            if not (x != x and y != y):
                return False
        elif x == 0 and type(x) is float and \
                math.copysign(1.0, x) != math.copysign(1.0, y):
            return False
    return True


class OracleMismatch(RuntimeError):
    """Allocated code's run differs from the unallocated module's."""


def mismatch(reference: SimOutcome, outcome: SimOutcome) -> str | None:
    """The differential oracle: why ``outcome`` (allocated code's run)
    differs from ``reference`` (the unallocated module's), or ``None``.
    Compares ``output``, then ``result``, under :func:`outputs_equal`."""
    if not outputs_equal(outcome.output, reference.output):
        return f"output {outcome.output!r} != reference {reference.output!r}"
    if not outputs_equal([outcome.result], [reference.result]):
        return f"result {outcome.result!r} != reference {reference.result!r}"
    return None


def simulate(module: Module, machine: MachineDescription, *,
             entry: str = "main", max_steps: int = 50_000_000,
             poison_calls: bool = True,
             check_callee_saved: bool = True,
             trap_poison: bool = False,
             metrics=None) -> SimOutcome:
    """Run ``module`` from ``entry`` and return the :class:`SimOutcome`.

    With a ``metrics`` registry, the outcome's dynamic counts are
    published under ``sim.*`` after the run (see :meth:`SimOutcome.publish`).
    """
    sim = Simulator(module, machine, max_steps=max_steps,
                    poison_calls=poison_calls,
                    check_callee_saved=check_callee_saved,
                    trap_poison=trap_poison)
    outcome = sim.run(entry)
    if metrics is not None:
        outcome.publish(metrics)
    return outcome
