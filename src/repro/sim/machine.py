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

Strictness (always on):

* after a call returns, caller-saved registers that are not the call's
  defs are overwritten with poison, so code that wrongly keeps a value
  in a caller-saved register across a call misbehaves deterministically
  rather than accidentally working.
* on ``ret``, every callee-saved register must hold the value it had at
  function entry.
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

Each straight-line opcode is defined once, as a template (``_OPS``)
that renders one instruction as one line of Python source.  Decoding
reduces an instruction to its *shape* — the opcode plus each operand's
kind (temporary, register, guarded register, missing register) — and a
flat args tuple of its indices, immediates and messages.  Two tiers
render the same templates and run a segment's body under that one loop:

* **Cold.**  One function ``h(T, S, a)`` per shape, rendered with every
  arg read as ``a[k]`` and compiled once per process (``_SHAPES``),
  then bound to each simulator's namespace.  A body is its decoded
  ``(index, function, args)`` tuples: one call per instruction.
* **Hot.**  On its ``HOT_THRESHOLD``-th entry a segment is compiled once
  into one generated function with one source line per instruction,
  args inlined as literals, so operands read ``T[i]``/``R[i]``/``S[i]``
  (frame temporaries, register file, frame stack slots).  Later entries
  call it.

Compiling a segment is not free: ``compile()`` costs several times the
decoder per instruction, so compiling eagerly would slow every run whose
code executes once (Table-3 modules, serve requests).  ``HOT_THRESHOLD``
is compile cost per line divided by the per-entry saving per line; both
scale with segment length, so one entry count is the right unit (see
``docs/PERFORMANCE.md`` for the measurement).  Shapes are few (70 over
the analogs, Table-3 modules and serve modules), so the cold tier's
compiles cost about 3 ms per process, whatever the IR.

**Exact faults and budget.**  A fault inside a body finds its segment
already charged in full.  The loop learns the faulting instruction's
index — the cold loop carries it, and in generated code it is the
traceback line of the generated frame (line ``j + 2`` is instruction
``j``) — and un-charges the tail after it, so partial counts match the
reference exactly.  When ``steps + n`` would pass ``max_steps``, the
segment's remaining budget runs stepwise through its cold functions, so
the budget trips at the same instruction.

**Codegen safety.**  ``repro serve`` simulates untrusted IR, so generated
source holds only fixed templates, simulator-computed integer indices and
the ``repr()`` of values whose type is exactly ``int``.  In hot code
everything else — float immediates (nan/inf/-0.0), names, labels, fault
messages — reaches the code through the constants list ``C``; cold code
holds no value of the module at all and reads each one from ``a``, so
the shape cache holds at most one entry per (opcode, operand kinds).
Both run under ``{"__builtins__": {}}`` plus one explicit namespace per
simulator.

Dense state
-----------

All machine state lives in flat Python lists indexed by small integers
interned at decode time — the hot loop performs **zero hashing**:

* **Registers** get one machine-wide index space (``self.regs`` is a
  flat list, GPRs first then FPRs, in machine order): a register's
  index is its ``index``, plus the GPR file's size for an FPR, and one
  outside its file becomes a pre-composed fault.  Registers are always
  initialized (0 / 0.0), so no sentinel is needed.
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
  flag vector instead of a set of ``PhysReg`` objects; a guarded read
  carries its fault message as an arg.

Frames are **pooled per function**: a ``ret`` returns the frame to its
function's free list and the next call re-arms it with two C-level slice
copies (temps/slots templates) instead of allocating fresh dicts.

Decoded state is cached for the lifetime of the ``Simulator`` (a module
must not be mutated mid-simulation, which the pipeline never does).  It
holds no reference cycles: segments name each other by integer id,
frames do not point back at their pool, and the namespace both tiers'
functions run in holds machine state, never the ``Simulator`` — so a
finished simulator is freed by reference counting alone, without
waiting for the cyclic garbage collector.  ``decode.compiled`` /
``decode.cached`` count function decodes and cache hits,
``segments_compiled`` counts hot-tier compiles (all published as
``sim.decode.*``), and ``frames.allocated`` / ``frames.reused`` make the
frame pool observable as ``sim.frames.*``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from types import CodeType, FunctionType

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
#: per line ÷ per-entry saving per line, measured over the allocated
#: analogs (docs/PERFORMANCE.md).  That gave 104–113 against per-opcode
#: handlers; against the cheaper shape functions it is 270–420, and the
#: value awaits a benchmark re-measure at each candidate.
HOT_THRESHOLD = 100


def _wrap64(value: int) -> int:
    """Wrap an unbounded int into signed 64-bit two's complement."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


# ----------------------------------------------------------------------
# Helpers of the generated code of both tiers (which reaches them
# through its namespace, never through builtins).
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

# Operand kinds.  An operand spec is its kind followed by the args the
# operand contributes to its instruction's decoded args tuple.
_K_TEMP = 0    # (0, temp_index)              frame temporaries T[i]
_K_PHYS = 1    # (1, reg_index)               register file R[i]
_K_GUARD = 2   # (2, reg_index, message)      + poison trap (a read) or
               # (2, reg_index)               + poison untrack (a write)
_K_BAD = 3     # (3, message)                 faults when executed

#: Dense opcode numbering for the histograms: counting into a flat int
#: list is markedly cheaper than a Counter[Op] update; the histogram
#: folds back into the Counter on loop exit.
_OP_LIST = tuple(Op)
_OP_INDEX = {op: i for i, op in enumerate(_OP_LIST)}

#: spill index -1 in a decoded instruction = not allocator-inserted code.
_NO_SPILL = -1

# ----------------------------------------------------------------------
# Opcode semantics: one definition per straight-line opcode, shared by
# both tiers.  A decoded instruction is its *shape* ``(op, *operand
# kinds)`` plus a flat args tuple: the args of each use operand, then the
# opcode's extras (immediates, slot indices, messages), then the def
# operand's.  A template renders the instruction as one source line from
# the source text of its reads ``r`` and extras ``e`` and the writer
# ``w`` of its def; ``v``/``x`` are scratch locals of the generated code.
# ----------------------------------------------------------------------
#: The wrap of scratch ``v`` (already masked to 64 bits) into signed range.
_WRAP = f"v - {_TWO64} if v >= {_HALF64} else v"


def _alu(sym: str):
    return lambda r, e, w: (f"v = ({r[0]} {sym} {r[1]}) & {_MASK64}; "
                            + w(_WRAP))


def _shift(sym: str):
    return lambda r, e, w: (f"v = ({r[0]} {sym} ({r[1]} % 64)) & {_MASK64}; "
                            + w(_WRAP))


def _unary(sign: str):
    return lambda r, e, w: f"v = ({sign}{r[0]}) & {_MASK64}; " + w(_WRAP)


def _compare(sym: str):
    return lambda r, e, w: w(f"1 if {r[0]} {sym} {r[1]} else 0")


def _float(sym: str):
    return lambda r, e, w: w(f"{r[0]} {sym} {r[1]}")


def _zero_divisor(helper: str, what: str):
    """Extras and template of div/rem/fdiv: the helper faults on zero."""
    return (lambda sim, fname, instr: (f"{fname}: {what} by zero",),
            lambda r, e, w: w(f"{helper}({r[0]}, {r[1]}, {e[0]})"))


def _load(cls: RegClass, kind: str):
    """Extras and template of ld/fld: the fast path inline, the exact
    checks and messages in ``LD``."""
    return (lambda sim, fname, instr: (instr.imm, len(sim.heap), cls, fname),
            lambda r, e, w: f"v = {r[0]} + {e[0]}; " + w(
                f"H[v] if TY(v) is INT and 0 <= v < {e[1]} and "
                f"TY(H[v]) is {kind} else LD(H, v, {e[2]}, {e[3]})"))


def _store_extras(sim, fname: str, instr: Instr) -> tuple:
    return (instr.imm, len(sim.heap), fname)


def _store(r, e, w) -> str:
    return (f"x = {r[0]}; v = {r[1]} + {e[0]}; TY(v) is INT and "
            f"0 <= v < {e[1]} and H[v] is not None or ST(H, v, x, {e[2]}); "
            f"H[v] = x")


def _imm(sim, fname: str, instr: Instr) -> tuple:
    return (instr.imm,)


def _lds_extras(sim, fname: str, instr: Instr) -> tuple:
    return (sim._slot_i(instr.slot),
            f"{fname}: load of never-written {instr.slot}")


def _sts_extras(sim, fname: str, instr: Instr) -> tuple:
    return (sim._slot_i(instr.slot),)


#: ``op -> (uses, defs, extras, template)``: operand counts, the function
#: ``(sim, fname, instr)`` giving the extras (``None``: none) and the
#: template of every straight-line opcode.
_OPS = {
    Op.LI: (0, 1, _imm, lambda r, e, w: w(e[0])),
    Op.MOV: (1, 1, None, lambda r, e, w: w(r[0])),
    Op.PRINT: (1, 0, None, lambda r, e, w: f"O({r[0]})"),
    Op.NOP: (0, 0, None, lambda r, e, w: "pass"),
    Op.LDS: (0, 1, _lds_extras, lambda r, e, w: (
        f"v = S[{e[0]}]; v is U and X({e[1]}); " + w("v"))),
    Op.STS: (1, 0, _sts_extras, lambda r, e, w: f"S[{e[0]}] = {r[0]}"),
    Op.LD: (1, 1, *_load(RegClass.GPR, "INT")),
    Op.FLD: (1, 1, *_load(RegClass.FPR, "FLT")),
    Op.ST: (2, 0, _store_extras, _store),
    Op.ADDI: (1, 1, _imm, lambda r, e, w: (f"v = ({r[0]} + {e[0]}) & "
                                           f"{_MASK64}; " + w(_WRAP))),
    Op.NEG: (1, 1, None, _unary("-")),
    Op.NOT: (1, 1, None, _unary("~")),
    Op.FNEG: (1, 1, None, lambda r, e, w: w(f"-{r[0]}")),
    Op.ITOF: (1, 1, None, lambda r, e, w: w(f"FLT({r[0]})")),
    Op.FTOI: (1, 1, lambda sim, fname, instr: (fname,),
              lambda r, e, w: w(f"FTOI({r[0]}, {e[0]})")),
    Op.DIV: (2, 1, *_zero_divisor("DIV", "division")),
    Op.REM: (2, 1, *_zero_divisor("REM", "remainder")),
    Op.FDIV: (2, 1, *_zero_divisor("FDIV", "float division")),
    Op.SHL: (2, 1, None, _shift("<<")),
    Op.SHR: (2, 1, None, _shift(">>")),
    **{op: (2, 1, None, _alu(sym)) for op, sym in (
        (Op.ADD, "+"), (Op.SUB, "-"), (Op.MUL, "*"), (Op.AND, "&"),
        (Op.OR, "|"), (Op.XOR, "^"))},
    **{op: (2, 1, None, _compare(sym)) for op, sym in (
        (Op.SLT, "<"), (Op.SLE, "<="), (Op.SEQ, "=="), (Op.SNE, "!="),
        (Op.FSLT, "<"), (Op.FSLE, "<="), (Op.FSEQ, "=="), (Op.FSNE, "!="))},
    **{op: (2, 1, None, _float(sym)) for op, sym in (
        (Op.FADD, "+"), (Op.FSUB, "-"), (Op.FMUL, "*"))},
}
_OPS[Op.FLI] = _OPS[Op.LI]
_OPS[Op.FMOV] = _OPS[Op.MOV]
_OPS[Op.FST] = _OPS[Op.ST]


def _render(shape: tuple, src) -> str:
    """The source line of a straight-line instruction of ``shape`` whose
    decoded args read as ``src`` (one source text per arg)."""
    n_uses, n_defs, _extras, template = _OPS[shape[0]]
    reads = []
    k = 0
    for kind in shape[1:1 + n_uses]:
        i = src[k]
        if kind == _K_TEMP:
            reads.append(f"T[{i}]")
        elif kind == _K_PHYS:
            reads.append(f"R[{i}]")
        elif kind == _K_GUARD:
            k += 1
            reads.append(f"(R[{i}] if not P[{i}] else X({src[k]}))")
        else:  # _K_BAD: i is the message
            reads.append(f"X({i})")
        k += 1

    def write(expr: str) -> str:
        kind, i = shape[-1], src[-1]
        if kind == _K_TEMP:
            return f"T[{i}] = {expr}"
        if kind == _K_PHYS:
            return f"R[{i}] = {expr}"
        if kind == _K_GUARD:
            return f"R[{i}] = {expr}; P[{i}] = 0"
        return f"v = {expr}; X({i})"  # _K_BAD

    return template(reads, src[k:len(src) - n_defs], write)


def _function_code(source: str) -> CodeType:
    """The code object of the one function ``source`` defines."""
    module_code = compile(source, "<segment>", "exec")
    return next(c for c in module_code.co_consts if isinstance(c, CodeType))


#: Cold-tier functions ``def h(T, S, a)`` per shape, compiled once per
#: process: ``shape -> (source, code)``.  The source reads every index,
#: immediate and message from ``a``, so one entry serves every
#: instruction of the shape and IR cannot grow the cache past one entry
#: per (opcode, operand kinds).
_SHAPES: dict[tuple, tuple[str, CodeType]] = {}


def _compile_shape(shape: tuple, n_args: int) -> tuple[str, CodeType]:
    """The cold-tier source and code of ``shape``, compiled on first
    use."""
    entry = _SHAPES.get(shape)
    if entry is None:
        line = _render(shape, [f"a[{k}]" for k in range(n_args)])
        source = f"def h(T, S, a):\n {line}\n"
        entry = _SHAPES[shape] = (source, _function_code(source))
    return entry


def _fault_line(exc: BaseException, code) -> int:
    """The source line of ``code``'s frame in ``exc``'s traceback."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not code:
        tb = tb.tb_next
    return tb.tb_lineno


class Simulator:
    """Executes a module; see the module docstring for the semantics."""

    def __init__(self, module: Module, machine: MachineDescription, *,
                 max_steps: int = 50_000_000, trap_poison: bool = False):
        self.module = module
        self.machine = machine
        self.max_steps = max_steps
        self.trap_poison = trap_poison
        #: The flat register file: GPRs then FPRs, each in index order
        #: (see :meth:`_reg_i`).
        self._n_gpr = machine.file_size(RegClass.GPR)
        self._n_fpr = machine.file_size(RegClass.FPR)
        self.regs: list[int | float] = [0] * self._n_gpr + [0.0] * self._n_fpr
        #: Per-register poison flags (only written when ``trap_poison``).
        self._poisoned = bytearray(len(self.regs))
        #: Read/write operand specs per register index, built on first use.
        self._reg_specs: list = [None] * len(self.regs)
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
        #: per-instruction ``(ops, cycles, spills)`` tables plus the
        #: shape of each body instruction; the entry counts of the
        #: current run; the generated function once hot.
        self._segs: list[tuple] = []
        self._seg_static: list[tuple] = []
        self._seg_hits: list[int] = []
        self._seg_fns: list = []
        #: Generated source per compiled segment id.
        self.hot_sources: dict[int, str] = {}
        #: The hot tier's constants list, and the namespace both tiers'
        #: functions run in: empty builtins plus the machine state and
        #: helpers they may touch — nothing that leads back to the
        #: Simulator.
        self._hot_consts: list = []
        self._ns = {
            "__builtins__": {}, "R": self.regs, "P": self._poisoned,
            "H": self.heap, "O": self.output.append, "U": _UNSET,
            "C": self._hot_consts, "X": _fail, "LD": _heap_load,
            "ST": _heap_store, "DIV": _div, "REM": _rem, "FDIV": _fdiv,
            "FTOI": _ftoi, "TY": type, "INT": int, "FLT": float}
        #: The cold-tier function of each shape, bound to ``_ns``.
        self._shape_fns: dict[tuple, FunctionType] = {}
        self.decode_compiled = 0
        self.decode_cached = 0
        self.segments_compiled = 0
        self.frames_allocated = 0
        self.frames_reused = 0
        #: Caller-saved registers with their indices and poison values,
        #: both classes — fixed per machine, shared by every call-site
        #: decode.
        self._poison_all: tuple[tuple[PhysReg, int, int | float], ...] = tuple(
            [(r, self._reg_i(r), _GPR_POISON)
             for r in machine.caller_saved(RegClass.GPR)]
            + [(r, self._reg_i(r), _FPR_POISON)
               for r in machine.caller_saved(RegClass.FPR)])
        #: Callee-saved index vector + parallel register objects (the
        #: objects appear only in clobber fault messages).  Order matches
        #: the reference's snapshot insertion order: GPRs then FPRs.
        callee = (machine.callee_saved(RegClass.GPR)
                  + machine.callee_saved(RegClass.FPR))
        self._callee_regs: tuple[PhysReg, ...] = callee
        self._callee_idx: tuple[int, ...] = tuple(self._reg_i(r)
                                                  for r in callee)
        # Decode-time per-function interning state (valid only inside
        # _decode_fn): each temp's operand spec, and the frame template.
        self._cur_temp_specs: dict[Temp, tuple] = {}
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
        self._cur_temp_specs = {}
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
        included unless ``ctl`` is a fault point).  Each body instruction
        becomes ``(index, cold function, args)``."""
        body = []
        shapes = []
        for j, (_ctl, _cyc, _op, _spill, args, shape) in enumerate(decoded):
            if shape is not None:
                body.append((j, self._shape_fn(shape, args), args))
                shapes.append(shape)
        cycs = tuple(d[1] for d in decoded)
        self._segs[sid] = (len(decoded), sum(cycs), tuple(body), ctl, targs)
        self._seg_static[sid] = (tuple(d[2] for d in decoded), cycs,
                                 tuple(d[3] for d in decoded), tuple(shapes))

    def _shape_fn(self, shape: tuple, args: tuple) -> FunctionType:
        """The cold-tier function of ``shape``, bound to this simulator's
        namespace on first use."""
        fn = self._shape_fns.get(shape)
        if fn is None:
            code = _compile_shape(shape, len(args))[1]
            fn = self._shape_fns[shape] = FunctionType(code, self._ns)
        return fn

    def _decode_block(self, fn: Function, block,
                      starts: dict[str, int]) -> None:
        """Cut ``block`` into segments: one per call it holds, plus one
        ending at its terminator (or at its fell-off point)."""
        sid = starts[block.label]
        decoded: list = []
        for instr in block.instrs:
            entry = self._decode_instr(fn.name, instr, starts)
            decoded.append(entry)
            ctl, targs = entry[0], entry[4]
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

    def _temp_spec(self, temp: Temp) -> tuple:
        """The operand spec of ``temp``, interned into the current
        function's index space."""
        spec = self._cur_temp_specs.get(temp)
        if spec is None:
            spec = self._cur_temp_specs[temp] = (_K_TEMP,
                                                 len(self._cur_temps_tpl))
            self._cur_temps_tpl.append(
                0 if temp.regclass is RegClass.GPR else 0.0)
        return spec

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

    def _reg_i(self, reg: PhysReg) -> int:
        """``reg``'s index in the flat register file, or -1 when the
        machine has no such register."""
        if reg.regclass is RegClass.GPR:
            return reg.index if 0 <= reg.index < self._n_gpr else -1
        return (self._n_gpr + reg.index if 0 <= reg.index < self._n_fpr
                else -1)

    def _reg_spec(self, reg: PhysReg) -> tuple[tuple, tuple]:
        """``(read spec, write spec)`` of register operand ``reg``."""
        ri = self._reg_i(reg)
        if ri < 0:
            bad = (_K_BAD, f"register {reg} does not exist on "
                           f"{self.machine.name}")
            return bad, bad
        specs = self._reg_specs[ri]
        if specs is None:
            # Writes un-poison; only worth tracking when reads can trap.
            specs = self._reg_specs[ri] = (
                ((_K_GUARD, ri, f"read of caller-saved {reg} still "
                                f"poisoned by a call"), (_K_GUARD, ri))
                if self.trap_poison else ((_K_PHYS, ri),) * 2)
        return specs

    def _read_spec(self, reg: Reg) -> tuple:
        """Pre-resolve a use operand into its kind + args."""
        if isinstance(reg, Temp):
            return self._temp_spec(reg)
        return self._reg_spec(reg)[0]

    def _write_spec(self, reg: Reg) -> tuple:
        """Pre-resolve a def operand into its kind + args."""
        if isinstance(reg, Temp):
            return self._temp_spec(reg)
        return self._reg_spec(reg)[1]

    def _decode_instr(self, fname: str, instr: Instr,
                      starts: dict[str, int]) -> tuple:
        """Decode one instruction into ``(ctl, cycles, op index, spill
        index, args, shape)``: a straight-line instruction's flat args
        and shape, or a control instruction's terminator args (shape
        ``None``); branch targets become segment ids."""
        op = instr.op
        spill_i = (_NO_SPILL if instr.spill_phase is None
                   else self._spill_i((instr.spill_phase,
                                       instr.spill_kind())))
        shape = None
        if op is Op.JMP:
            ctl, args = _CTL_JMP, self._target(instr.targets[0], starts)
        elif op is Op.BR:
            ctl, args = _CTL_BR, (self._read_spec(instr.uses[0]),
                                  self._target(instr.targets[0], starts),
                                  self._target(instr.targets[1], starts))
        elif op is Op.RET:
            ctl = _CTL_RET
            args = self._read_spec(instr.uses[0]) if instr.uses else None
        elif op is Op.CALL:
            skip = set(instr.defs)
            poison = tuple((ri, value)
                           for reg, ri, value in self._poison_all
                           if reg not in skip)
            defs = tuple(self._write_spec(d) for d in instr.defs)
            ctl, args = _CTL_CALL, (self.module.functions.get(instr.callee),
                                    instr.callee, poison, defs, fname)
        else:
            ctl = _CTL_STRAIGHT
            shape, args = self._decode_straightline(fname, instr)
        return ctl, cycle_cost(op), _OP_INDEX[op], spill_i, args, shape

    def _decode_straightline(self, fname: str,
                             instr: Instr) -> tuple[tuple, tuple]:
        """The shape and flat args of one straight-line instruction (the
        layout the templates read: uses, extras, def)."""
        n_uses, n_defs, extras, _template = _OPS[instr.op]
        shape = [instr.op]
        args: list = []
        for k in range(n_uses):
            spec = self._read_spec(instr.uses[k])
            shape.append(spec[0])
            args += spec[1:]
        if extras is not None:
            args += extras(self, fname, instr)
        if n_defs:
            spec = self._write_spec(instr.defs[0])
            shape.append(spec[0])
            args.append(spec[1])
        return tuple(shape), tuple(args)

    # ------------------------------------------------------------------
    # The hot tier: one generated line per body instruction.
    # ------------------------------------------------------------------
    def _literal(self, value) -> str:
        """A decoded arg as hot source: ``repr`` only for exact ints,
        ``C[k]`` naming anything else in the constants list."""
        if type(value) is int:
            return repr(value)
        self._hot_consts.append(value)
        return f"C[{len(self._hot_consts) - 1}]"

    def _compile_segment(self, sid: int):
        """Generate, compile and install segment ``sid``'s hot function.
        Line ``j + 2`` of the source is body instruction ``j``."""
        shapes = self._seg_static[sid][3]
        lines = ["def seg(T, S):"]
        lines += [f" {_render(shape, [self._literal(v) for v in args])}"
                  for (_j, _fn, args), shape
                  in zip(self._segs[sid][2], shapes)]
        source = "\n".join(lines) + "\n"
        fn = FunctionType(_function_code(source), self._ns)
        self._seg_fns[sid] = fn
        self.hot_sources[sid] = source
        self.segments_compiled += 1
        return fn

    # ------------------------------------------------------------------
    # Operand access of the run loop's br/ret/call-def paths: the slow
    # (guarded) kinds.  The fast kinds are inlined there.
    # ------------------------------------------------------------------
    def _read_guard(self, spec) -> int | float:
        if spec[0] == _K_GUARD:
            if self._poisoned[spec[1]]:
                raise SimulationError(spec[2])
            return self.regs[spec[1]]
        raise SimulationError(spec[1])  # _K_BAD

    def _write_guard(self, spec, value) -> None:
        if spec[0] == _K_GUARD:
            self.regs[spec[1]] = value
            self._poisoned[spec[1]] = 0
            return
        raise SimulationError(spec[1])  # _K_BAD

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    #: Maximum simulated call depth (explicit stack entries, not Python
    #: frames — the host recursion limit is irrelevant).
    MAX_CALL_DEPTH = 2000

    def run(self) -> SimOutcome:
        """Execute ``main`` until its ``ret``; return the outcome."""
        result = self._run(self.module.function("main"))
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
        ops, cycs, spills, _shapes = self._seg_static[sid]
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
                ops, _cycs, spills, _shapes = self._seg_static[sid]
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
                    ops, cycs, spills, _shapes = self._seg_static[sid]
                    for j in range(max_steps - steps):
                        steps += 1
                        cycles += cycs[j]
                        self._op_hist[ops[j]] += 1
                        if spills[j] >= 0:
                            self._spill_hist[spills[j]] += 1
                        _j, fn, args = body[j]
                        fn(temps, slots, args)
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
                        for j, fn, args in body:
                            fn(temps, slots, args)
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
             max_steps: int = 50_000_000, trap_poison: bool = False,
             metrics=None) -> SimOutcome:
    """Run ``module`` from ``main`` and return the :class:`SimOutcome`.

    With a ``metrics`` registry, the outcome's dynamic counts are
    published under ``sim.*`` after the run (see :meth:`SimOutcome.publish`).
    """
    sim = Simulator(module, machine, max_steps=max_steps,
                    trap_poison=trap_poison)
    outcome = sim.run()
    if metrics is not None:
        outcome.publish(metrics)
    return outcome
