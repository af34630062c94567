"""The executing simulator (pre-decoded, dense-state interpreter).

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

Execution model
---------------

The module-walking reference interpreter lives with the tests
(``tests/oracles/sim_reference.py``).  This one *pre-decodes*: the
first time a function is called, every block is compiled once into a
flat tuple program — one ``(ctl, handler, cycles, op, spill, args)``
entry per instruction, with the opcode dispatched through a table of
bound handler methods and every operand resolved at decode time into its
slot kind (temporary / physical register / stack slot / immediate /
branch target).  The per-instruction loop then touches no ``isinstance``,
no dict-of-dicts block lookup, and no signature re-inspection; simulated
calls push entries on an explicit frame stack instead of recursing one
Python frame per call, so call depth is bounded by ``MAX_CALL_DEPTH``
alone, not by the host interpreter's recursion limit.

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
  byte-identical, the dict-membership test produced.  The decoded entry
  keeps the :class:`~repro.ir.temp.StackSlot` object purely for the
  fault message.
* **Poison tracking** (``trap_poison``) is a per-register ``bytearray``
  flag vector instead of a set of ``PhysReg`` objects; guarded operand
  specs carry the register object only for the fault message.

Frames are **pooled per function**: a ``ret`` returns the frame to its
function's free list and the next call re-arms it with two C-level slice
copies (temps/slots templates) instead of allocating fresh dicts.  The
callee-saved snapshot is a flat list filled through a precomputed
callee-saved index vector — no per-call dict.

Both dynamic histograms are integer-keyed in the loop — opcodes by their
dense ``Op`` index, spill categories by an interned ``(phase, kind)``
index — and fold back into the observable ``Counter`` objects only at
the ``op_counts`` / ``spill_counts`` boundary, so no ``enum.__hash__``
runs per instruction.

Decoded programs are cached per function for the lifetime of the
``Simulator`` (a module must not be mutated mid-simulation, which the
pipeline never does); ``decode.compiled`` / ``decode.cached`` count
compiles and cache hits and publish as ``sim.decode.*`` metrics, and
``frames.allocated`` / ``frames.reused`` make the frame pool observable
as ``sim.frames.*``.
"""

from __future__ import annotations

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


def _wrap64(value: int) -> int:
    """Wrap an unbounded int into signed 64-bit two's complement."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


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
    docstring).  Control position (current decoded block + index) lives
    in the run loop's locals and on the explicit call stack, not here.
    Frames are pooled per function (``info.pool``) and re-armed from the
    templates on reuse.
    """

    __slots__ = ("fn", "info", "temps", "slots", "saved")

    def __init__(self, info: "_FnInfo", n_saved: int):
        self.fn = info.fn
        self.info = info
        self.temps: list[int | float] = list(info.temps_tpl)
        self.slots: list = list(info.slots_tpl)
        self.saved: list[int | float] = [0] * n_saved


class _FnInfo:
    """One function's decoded program plus its frame-template state."""

    __slots__ = ("fn", "entry", "temps_tpl", "slots_tpl", "pool")

    def __init__(self, fn: Function):
        self.fn = fn
        self.entry: list = []
        #: Class defaults per temp index (0 / 0.0) — a frame's initial
        #: ``temps``; a read of a never-written temp sees its default.
        self.temps_tpl: list[int | float] = []
        #: ``_UNSET`` per module-wide slot index this function can touch.
        self.slots_tpl: list = []
        #: Free frames, reused LIFO by the next call of this function.
        self.pool: list[_Frame] = []


# Control tags of decoded entries (entry[0]).
_CTL_STRAIGHT = 0
_CTL_JMP = 1
_CTL_BR = 2
_CTL_CALL = 3
_CTL_RET = 4
_CTL_FAULT = 5  # fell-off-block sentinel / unknown branch target

# Operand-spec kinds (spec[0]): how a register operand is accessed.
_K_TEMP = 0    # (0, temp_index)            frame.temps[i]
_K_PHYS = 1    # (1, reg_index)             self.regs[i]
_K_GUARD = 2   # (2, reg_index, physreg)    + poison trap/untrack bookkeeping
_K_BAD = 3     # (3, message)               faults when executed

#: Dense opcode numbering for the run loop's histogram: counting into a
#: flat int list is markedly cheaper than a per-instruction Counter[Op]
#: update; the histogram folds back into the Counter on loop exit.
_OP_LIST = tuple(Op)
_OP_INDEX = {op: i for i, op in enumerate(_OP_LIST)}

#: spill index -1 in a decoded entry = not allocator-inserted code.
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
        #: the loop counts into ``_spill_hist`` and folds on exit.
        self._spill_ix: dict[tuple, int] = {}
        self._spill_keys: list[tuple] = []
        self._spill_hist: list[int] = []
        #: Module-wide dense stack-slot index space, grown at decode.
        self._slot_ix: dict[StackSlot, int] = {}
        #: Decoded program + frame templates per function name, filled
        #: lazily at first call.
        self._decoded: dict[str, _FnInfo] = {}
        self.decode_compiled = 0
        self.decode_cached = 0
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
        """The decoded program of ``fn`` (compiling on first call)."""
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
        codes: dict[str, list] = {b.label: [] for b in fn.blocks}
        for block in fn.blocks:
            out = codes[block.label]
            for instr in block.instrs:
                out.append(self._decode_instr(fn, instr, codes))
            # Fell-off guard: a block without a terminator faults exactly
            # where the reference interpreter does.
            out.append((_CTL_FAULT, None, 0, 0, _NO_SPILL,
                        (SimulationError,
                         f"{fn.name}/{block.label}: fell off block")))
        info.entry = codes[fn.entry.label]
        # Every slot this function touches was interned above, so the
        # module-wide count now covers all of its indices.
        info.slots_tpl = [_UNSET] * len(self._slot_ix)
        self._decoded[fn.name] = info
        return info

    @staticmethod
    def _target(label: str, codes: dict[str, list]) -> list:
        """The decoded code of branch target ``label``.  An unknown label
        becomes a sentinel program raising the same ``KeyError`` the
        module-walking interpreter's block lookup would — and only when
        the branch is actually taken to it."""
        code = codes.get(label)
        if code is None:
            return [(_CTL_FAULT, None, 0, 0, _NO_SPILL, (KeyError, label))]
        return code

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
                      codes: dict[str, list]) -> tuple:
        """Compile one instruction into its flat decoded entry."""
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
            return entry(_CTL_JMP, None, self._target(instr.targets[0], codes))
        if op is Op.BR:
            return entry(_CTL_BR, None,
                         (self._read_spec(instr.uses[0]),
                          self._target(instr.targets[0], codes),
                          self._target(instr.targets[1], codes)))
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
        """Pick the bound handler + pre-resolved args for one opcode."""
        op = instr.op
        if op is Op.LI or op is Op.FLI:
            return self._h_imm, (instr.imm, self._write_spec(instr.defs[0]))
        if op is Op.MOV or op is Op.FMOV:
            return self._h_mov, (self._read_spec(instr.uses[0]),
                                 self._write_spec(instr.defs[0]))
        if op is Op.PRINT:
            return self._h_print, (self._read_spec(instr.uses[0]),)
        if op is Op.NOP:
            return self._h_nop, ()
        if op is Op.LDS:
            return self._h_lds, (self._slot_i(instr.slot),
                                 self._write_spec(instr.defs[0]), fname,
                                 instr.slot)
        if op is Op.STS:
            return self._h_sts, (self._read_spec(instr.uses[0]),
                                 self._slot_i(instr.slot))
        if op is Op.LD or op is Op.FLD:
            cls = RegClass.GPR if op is Op.LD else RegClass.FPR
            return self._h_load, (self._read_spec(instr.uses[0]), instr.imm,
                                  cls, self._write_spec(instr.defs[0]), fname)
        if op is Op.ST or op is Op.FST:
            return self._h_store, (self._read_spec(instr.uses[0]),
                                   self._read_spec(instr.uses[1]),
                                   instr.imm, fname)
        if op is Op.ADDI:
            return self._h_addi, (self._read_spec(instr.uses[0]), instr.imm,
                                  self._write_spec(instr.defs[0]))
        if op in (Op.NEG, Op.NOT, Op.FNEG, Op.ITOF, Op.FTOI):
            unary = {Op.NEG: self._h_neg, Op.NOT: self._h_not,
                     Op.FNEG: self._h_fneg, Op.ITOF: self._h_itof,
                     Op.FTOI: self._h_ftoi}[op]
            return unary, (self._read_spec(instr.uses[0]),
                           self._write_spec(instr.defs[0]), fname)
        binargs = (self._read_spec(instr.uses[0]),
                   self._read_spec(instr.uses[1]),
                   self._write_spec(instr.defs[0]))
        fnop = _INT_BIN.get(op)
        if fnop is not None:
            return self._h_ibin, (fnop, *binargs)
        fnop = _CMP_BIN.get(op)
        if fnop is not None:
            return self._h_cmp, (fnop, *binargs)
        fnop = _FLT_BIN.get(op)
        if fnop is not None:
            return self._h_fbin, (fnop, *binargs)
        if op is Op.DIV or op is Op.REM:
            which = "division" if op is Op.DIV else "remainder"
            handler = self._h_div if op is Op.DIV else self._h_rem
            return handler, (*binargs, f"{fname}: {which} by zero")
        if op is Op.FDIV:
            return self._h_fdiv, (*binargs,
                                  f"{fname}: float division by zero")
        raise SimulationError(
            f"{fname}: unimplemented opcode {op}")  # pragma: no cover

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
    # Heap.
    # ------------------------------------------------------------------
    def _heap_load(self, address: int, cls: RegClass, fn: str) -> int | float:
        if not isinstance(address, int):
            raise SimulationError(f"{fn}: non-integer address {address!r}")
        if not 0 <= address < len(self.heap) or self.heap[address] is None:
            raise SimulationError(f"{fn}: heap access out of bounds at {address}")
        value = self.heap[address]
        if cls is RegClass.GPR and not isinstance(value, int):
            raise SimulationError(f"{fn}: integer load of float cell {address}")
        if cls is RegClass.FPR and not isinstance(value, float):
            raise SimulationError(f"{fn}: float load of integer cell {address}")
        return value

    def _heap_store(self, address: int, value: int | float, fn: str) -> None:
        if not isinstance(address, int):
            raise SimulationError(f"{fn}: non-integer address {address!r}")
        if not 0 <= address < len(self.heap) or self.heap[address] is None:
            raise SimulationError(f"{fn}: heap access out of bounds at {address}")
        self.heap[address] = value

    # ------------------------------------------------------------------
    # Straight-line handlers.  Every handler receives (frame, args) with
    # args fully pre-resolved; operand reads/writes inline the two fast
    # slot kinds (flat-list indexing) and fall back to the guarded paths.
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
        src = a[0]
        if src[0] == 0:
            value = frame.temps[src[1]]
        elif src[0] == 1:
            value = self.regs[src[1]]
        else:
            value = self._read_guard(src)
        self.output.append(value)

    def _h_lds(self, frame: _Frame, a) -> None:
        si, dst, fname, slot = a
        value = frame.slots[si]
        if value is _UNSET:
            raise SimulationError(f"{fname}: load of never-written {slot}")
        if dst[0] == 0:
            frame.temps[dst[1]] = value
        elif dst[0] == 1:
            self.regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _h_sts(self, frame: _Frame, a) -> None:
        src, si = a
        if src[0] == 0:
            value = frame.temps[src[1]]
        elif src[0] == 1:
            value = self.regs[src[1]]
        else:
            value = self._read_guard(src)
        frame.slots[si] = value

    def _h_load(self, frame: _Frame, a) -> None:
        base_spec, imm, cls, dst, fname = a
        if base_spec[0] == 0:
            base = frame.temps[base_spec[1]]
        elif base_spec[0] == 1:
            base = self.regs[base_spec[1]]
        else:
            base = self._read_guard(base_spec)
        value = self._heap_load(base + imm, cls, fname)
        if dst[0] == 0:
            frame.temps[dst[1]] = value
        elif dst[0] == 1:
            self.regs[dst[1]] = value
        else:
            self._write_guard(dst, value)

    def _h_store(self, frame: _Frame, a) -> None:
        src, base_spec, imm, fname = a
        if src[0] == 0:
            value = frame.temps[src[1]]
        elif src[0] == 1:
            value = self.regs[src[1]]
        else:
            value = self._read_guard(src)
        if base_spec[0] == 0:
            base = frame.temps[base_spec[1]]
        elif base_spec[0] == 1:
            base = self.regs[base_spec[1]]
        else:
            base = self._read_guard(base_spec)
        self._heap_store(base + imm, value, fname)

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

    def _unary(self, frame: _Frame, a):
        src = a[0]
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
        value = (-self._unary(frame, a)) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        self._store_result(frame, a[1], value)

    def _h_not(self, frame: _Frame, a) -> None:
        value = (~self._unary(frame, a)) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        self._store_result(frame, a[1], value)

    def _h_fneg(self, frame: _Frame, a) -> None:
        self._store_result(frame, a[1], -self._unary(frame, a))

    def _h_itof(self, frame: _Frame, a) -> None:
        self._store_result(frame, a[1], float(self._unary(frame, a)))

    def _h_ftoi(self, frame: _Frame, a) -> None:
        value = self._unary(frame, a)
        if value != value or value in (float("inf"), float("-inf")):
            raise SimulationError(f"{a[2]}: ftoi of non-finite {value!r}")
        value = int(value) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        self._store_result(frame, a[1], value)

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
        _sa, sb = a[0], a[1]
        # (shared by div/rem: read both operands with the inline kinds)
        if _sa[0] == 0:
            x = frame.temps[_sa[1]]
        elif _sa[0] == 1:
            x = self.regs[_sa[1]]
        else:
            x = self._read_guard(_sa)
        if sb[0] == 0:
            y = frame.temps[sb[1]]
        elif sb[0] == 1:
            y = self.regs[sb[1]]
        else:
            y = self._read_guard(sb)
        return x, y

    def _h_div(self, frame: _Frame, a) -> None:
        x, y = self._divmod_operands(frame, a)
        if y == 0:
            raise SimulationError(a[3])
        q = abs(x) // abs(y)
        value = (q if (x < 0) == (y < 0) else -q) & _MASK64
        if value >= _HALF64:
            value -= _TWO64
        self._store_result(frame, a[2], value)

    def _h_rem(self, frame: _Frame, a) -> None:
        x, y = self._divmod_operands(frame, a)
        if y == 0:
            raise SimulationError(a[3])
        q = abs(x) // abs(y)
        value = _wrap64(x - _wrap64(y * (q if (x < 0) == (y < 0) else -q)))
        self._store_result(frame, a[2], value)

    def _h_fdiv(self, frame: _Frame, a) -> None:
        x, y = self._divmod_operands(frame, a)
        if y == 0.0:
            raise SimulationError(a[3])
        self._store_result(frame, a[2], x / y)

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

    def _run(self, fn: Function) -> int | float | None:
        """The dispatch loop over decoded entries + the explicit frame
        stack.  Hot counters live in locals and are written back on every
        exit path."""
        info = self._fn_info(fn)
        frame = self._acquire_frame(info)
        code = info.entry
        i = 0
        stack: list = []  # (frame, code, resume_index, call_args)
        steps = self.steps
        cycles = self.cycles
        max_steps = self.max_steps
        op_hist = self._op_hist
        spill_hist = self._spill_hist
        regs = self.regs
        check_callee = self.check_callee_saved
        callee_idx = self._callee_idx
        callee_regs = self._callee_regs
        trap = self.trap_poison
        poisoned = self._poisoned

        try:
            while True:
                ctl, handler, cyc, op_i, spill_i, args = code[i]
                if ctl == 5:  # fault sentinel: not a real instruction,
                    exc_type, payload = args  # so raises without counting
                    raise exc_type(payload)
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"step budget exceeded in {frame.fn.name}")
                cycles += cyc
                op_hist[op_i] += 1
                if spill_i >= 0:
                    spill_hist[spill_i] += 1
                if ctl == 0:  # straight-line
                    handler(frame, args)
                    i += 1
                elif ctl == 2:  # br
                    spec, then_code, else_code = args
                    if spec[0] == 0:
                        cond = frame.temps[spec[1]]
                    elif spec[0] == 1:
                        cond = regs[spec[1]]
                    else:
                        cond = self._read_guard(spec)
                    code = then_code if cond else else_code
                    i = 0
                elif ctl == 1:  # jmp
                    code = args
                    i = 0
                elif ctl == 3:  # call
                    callee, callee_name, poison, defs, fname = args
                    if callee is None:
                        raise SimulationError(
                            f"{fname}: call to unknown "
                            f"function {callee_name!r}")
                    if len(stack) >= self.MAX_CALL_DEPTH:
                        raise SimulationError(
                            f"call depth exceeded entering {callee.name}")
                    stack.append((frame, code, i + 1, args))
                    info = self._fn_info(callee)
                    frame = self._acquire_frame(info)
                    code = info.entry
                    i = 0
                else:  # ret
                    spec = args
                    if spec is None:
                        value = None
                    elif spec[0] == 0:
                        value = frame.temps[spec[1]]
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
                                    f"{frame.fn.name}: callee-saved "
                                    f"{callee_regs[k]} clobbered "
                                    f"({entry_value!r} -> {current!r})")
                    frame.info.pool.append(frame)
                    if not stack:
                        return value
                    frame, code, i, call_args = stack.pop()
                    _callee, callee_name, poison, defs, fname = call_args
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
                            frame.temps[dst[1]] = value
                        elif dst[0] == 1:
                            regs[dst[1]] = value
                        else:
                            self._write_guard(dst, value)
        finally:
            self.steps = steps
            self.cycles = cycles
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


def outputs_equal(a: list[int | float] | None, b: list[int | float] | None) -> bool:
    """Observable-output equality: exact values and types, NaN == NaN.

    Register allocation never reorders or perturbs arithmetic, so even
    float outputs must match bit-for-bit; NaN is compared as equal to
    itself so programs that legitimately compute NaN still have a stable
    oracle.
    """
    if a is None or b is None:
        return a is b
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if type(x) is not type(y):
            return False
        if x != y and not (x != x and y != y):
            return False
    return True


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
