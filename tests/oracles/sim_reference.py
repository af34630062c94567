"""The reference interpreter: direct-dispatch, one Python frame per call.

This is the original simulator, retained verbatim as the *semantic
oracle* for :class:`repro.sim.machine.Simulator` (the pre-decoded
production interpreter).  The differential tests in
``tests/test_sim_predecode.py`` run both on the same programs and demand
identical outputs, op counts, cycles, and faults — so any change to the
fast path that perturbs semantics fails immediately against this one.

It is deliberately *not* optimized: operands are re-classified with
``isinstance`` on every access and calls recurse one Python frame per
simulated frame, which is exactly the per-instruction overhead the
pre-decoded interpreter exists to remove.  It lives with the tests, not
in the shipped package.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import PhysReg, Reg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.sim.errors import SimulationError
from repro.sim.machine import _FPR_POISON, _GPR_POISON, SimOutcome, _wrap64
from repro.target.machine import MachineDescription, cycle_cost

# The reference interpreter recurses one Python call per simulated call;
# make sure the interpreter allows the full simulated depth (set once, at
# import, so test frameworks that snapshot the limit see a stable value).
_NEEDED_RECURSION = 2000 * 3 + 200
if sys.getrecursionlimit() < _NEEDED_RECURSION:
    sys.setrecursionlimit(_NEEDED_RECURSION)


class _Frame:
    """Per-activation state: temporaries, stack slots, saved callee-saves."""

    __slots__ = ("fn", "temps", "slots", "entry_callee_saved", "block", "index")

    def __init__(self, fn: Function):
        self.fn = fn
        self.temps: dict[Temp, int | float] = {}
        self.slots: dict[StackSlot, int | float] = {}
        self.entry_callee_saved: dict[PhysReg, int | float] = {}
        self.block = fn.entry
        self.index = 0


class ReferenceSimulator:
    """Executes a module; see :mod:`repro.sim.machine` for the semantics."""

    def __init__(self, module: Module, machine: MachineDescription, *,
                 max_steps: int = 50_000_000, trap_poison: bool = False):
        self.module = module
        self.machine = machine
        self.max_steps = max_steps
        self.trap_poison = trap_poison
        self._poisoned: set[PhysReg] = set()
        self.regs: dict[PhysReg, int | float] = {}
        for reg in machine.gprs:
            self.regs[reg] = 0
        for reg in machine.fprs:
            self.regs[reg] = 0.0
        self.heap: list[int | float | None] = [None] * module.heap_size
        for arr in module.globals.values():
            fill: int | float = 0 if arr.regclass is RegClass.GPR else 0.0
            for i in range(arr.size):
                self.heap[arr.base + i] = arr.init[i] if i < len(arr.init) else fill
        self.output: list[int | float] = []
        self.steps = 0
        self.cycles = 0
        self.op_counts: Counter = Counter()
        self.spill_counts: Counter = Counter()
        self._blocks_cache: dict[str, dict[str, object]] = {}

    # ------------------------------------------------------------------
    # Register/memory access.
    # ------------------------------------------------------------------
    def _read(self, frame: _Frame, reg: Reg) -> int | float:
        if isinstance(reg, Temp):
            default: int | float = 0 if reg.regclass is RegClass.GPR else 0.0
            return frame.temps.get(reg, default)
        try:
            value = self.regs[reg]
        except KeyError:
            raise SimulationError(f"register {reg} does not exist on "
                                  f"{self.machine.name}") from None
        if self.trap_poison and reg in self._poisoned:
            raise SimulationError(
                f"read of caller-saved {reg} still poisoned by a call")
        return value

    def _write(self, frame: _Frame, reg: Reg, value: int | float) -> None:
        if isinstance(reg, Temp):
            frame.temps[reg] = value
        else:
            if reg not in self.regs:
                raise SimulationError(f"register {reg} does not exist on "
                                      f"{self.machine.name}")
            self.regs[reg] = value
            self._poisoned.discard(reg)

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
    # Execution.
    # ------------------------------------------------------------------
    #: Maximum simulated call depth (each level costs a few Python frames).
    MAX_CALL_DEPTH = 2000

    def run(self) -> SimOutcome:
        """Execute ``main`` until its ``ret``; return the outcome."""
        result = self._call(self.module.function("main"), depth=0)
        return SimOutcome(
            output=self.output,
            result=result,
            dynamic_instructions=self.steps,
            cycles=self.cycles,
            op_counts=self.op_counts,
            spill_counts=self.spill_counts,
        )

    def _block_map(self, fn: Function) -> dict[str, object]:
        cached = self._blocks_cache.get(fn.name)
        if cached is None:
            cached = {b.label: b for b in fn.blocks}
            self._blocks_cache[fn.name] = cached
        return cached

    def _call(self, fn: Function, depth: int) -> int | float | None:
        if depth > self.MAX_CALL_DEPTH:
            raise SimulationError(f"call depth exceeded entering {fn.name}")
        frame = _Frame(fn)
        for cls in (RegClass.GPR, RegClass.FPR):
            for reg in self.machine.callee_saved(cls):
                frame.entry_callee_saved[reg] = self.regs[reg]
        blocks = self._block_map(fn)

        while True:
            if frame.index >= len(frame.block.instrs):
                raise SimulationError(f"{fn.name}/{frame.block.label}: fell off block")
            instr = frame.block.instrs[frame.index]
            self.steps += 1
            if self.steps > self.max_steps:
                raise SimulationError(f"step budget exceeded in {fn.name}")
            self.cycles += cycle_cost(instr.op)
            self.op_counts[instr.op] += 1
            if instr.spill_phase is not None:
                self.spill_counts[(instr.spill_phase, instr.spill_kind())] += 1

            op = instr.op
            if op is Op.RET:
                value = self._read(frame, instr.uses[0]) if instr.uses else None
                for reg, saved in frame.entry_callee_saved.items():
                    current = self.regs[reg]
                    same = (current == saved or
                            (current != current and saved != saved))
                    if not same:
                        raise SimulationError(
                            f"{fn.name}: callee-saved {reg} clobbered "
                            f"({saved!r} -> {current!r})")
                return value
            if op is Op.JMP:
                frame.block = blocks[instr.targets[0]]
                frame.index = 0
                continue
            if op is Op.BR:
                cond = self._read(frame, instr.uses[0])
                frame.block = blocks[instr.targets[0] if cond else instr.targets[1]]
                frame.index = 0
                continue
            if op is Op.CALL:
                callee = self.module.functions.get(instr.callee)
                if callee is None:
                    raise SimulationError(f"{fn.name}: call to unknown "
                                          f"function {instr.callee!r}")
                value = self._call(callee, depth + 1)
                skip = set(instr.defs)
                for cls in (RegClass.GPR, RegClass.FPR):
                    poison = _GPR_POISON if cls is RegClass.GPR else _FPR_POISON
                    for reg in self.machine.caller_saved(cls):
                        if reg in skip:
                            continue
                        self.regs[reg] = poison
                        self._poisoned.add(reg)
                for d in instr.defs:
                    if value is None:
                        raise SimulationError(
                            f"{fn.name}: {instr.callee} returned no value "
                            f"but call expects one")
                    self._write(frame, d, value)
                frame.index += 1
                continue

            self._execute_straightline(frame, instr, fn.name)
            frame.index += 1

    def _execute_straightline(self, frame: _Frame, instr: Instr, fname: str) -> None:
        op = instr.op
        read = self._read
        if op is Op.LI or op is Op.FLI:
            self._write(frame, instr.defs[0], instr.imm)
            return
        if op is Op.MOV or op is Op.FMOV:
            self._write(frame, instr.defs[0], read(frame, instr.uses[0]))
            return
        if op is Op.PRINT:
            self.output.append(read(frame, instr.uses[0]))
            return
        if op is Op.NOP:
            return
        if op is Op.LDS:
            slot = instr.slot
            if slot not in frame.slots:
                raise SimulationError(f"{fname}: load of never-written {slot}")
            self._write(frame, instr.defs[0], frame.slots[slot])
            return
        if op is Op.STS:
            frame.slots[instr.slot] = read(frame, instr.uses[0])
            return
        if op is Op.LD or op is Op.FLD:
            base = read(frame, instr.uses[0])
            cls = RegClass.GPR if op is Op.LD else RegClass.FPR
            self._write(frame, instr.defs[0],
                        self._heap_load(base + instr.imm, cls, fname))
            return
        if op is Op.ST or op is Op.FST:
            value = read(frame, instr.uses[0])
            base = read(frame, instr.uses[1])
            self._heap_store(base + instr.imm, value, fname)
            return

        if op is Op.ADDI:
            self._write(frame, instr.defs[0],
                        _wrap64(read(frame, instr.uses[0]) + instr.imm))
            return
        if op in (Op.NEG, Op.NOT, Op.FNEG, Op.ITOF, Op.FTOI):
            a = read(frame, instr.uses[0])
            if op is Op.NEG:
                value: int | float = _wrap64(-a)
            elif op is Op.NOT:
                value = _wrap64(~a)
            elif op is Op.FNEG:
                value = -a
            elif op is Op.ITOF:
                value = float(a)
            else:  # FTOI truncates toward zero
                if a != a or a in (float("inf"), float("-inf")):
                    raise SimulationError(f"{fname}: ftoi of non-finite {a!r}")
                value = _wrap64(int(a))
            self._write(frame, instr.defs[0], value)
            return

        a = read(frame, instr.uses[0])
        b = read(frame, instr.uses[1])
        if op is Op.ADD:
            value = _wrap64(a + b)
        elif op is Op.SUB:
            value = _wrap64(a - b)
        elif op is Op.MUL:
            value = _wrap64(a * b)
        elif op is Op.DIV:
            if b == 0:
                raise SimulationError(f"{fname}: division by zero")
            q = abs(a) // abs(b)
            value = _wrap64(q if (a < 0) == (b < 0) else -q)
        elif op is Op.REM:
            if b == 0:
                raise SimulationError(f"{fname}: remainder by zero")
            q = abs(a) // abs(b)
            value = _wrap64(a - _wrap64(b * (q if (a < 0) == (b < 0) else -q)))
        elif op is Op.AND:
            value = _wrap64(a & b)
        elif op is Op.OR:
            value = _wrap64(a | b)
        elif op is Op.XOR:
            value = _wrap64(a ^ b)
        elif op is Op.SHL:
            value = _wrap64(a << (b % 64))
        elif op is Op.SHR:
            value = _wrap64(a >> (b % 64))
        elif op is Op.SLT:
            value = int(a < b)
        elif op is Op.SLE:
            value = int(a <= b)
        elif op is Op.SEQ:
            value = int(a == b)
        elif op is Op.SNE:
            value = int(a != b)
        elif op is Op.FADD:
            value = a + b
        elif op is Op.FSUB:
            value = a - b
        elif op is Op.FMUL:
            value = a * b
        elif op is Op.FDIV:
            if b == 0.0:
                raise SimulationError(f"{fname}: float division by zero")
            value = a / b
        elif op is Op.FSLT:
            value = int(a < b)
        elif op is Op.FSLE:
            value = int(a <= b)
        elif op is Op.FSEQ:
            value = int(a == b)
        elif op is Op.FSNE:
            value = int(a != b)
        else:  # pragma: no cover - exhaustive over the opcode set
            raise SimulationError(f"{fname}: unimplemented opcode {op}")
        self._write(frame, instr.defs[0], value)


def reference_simulate(module: Module, machine: MachineDescription, *,
                       max_steps: int = 50_000_000,
                       trap_poison: bool = False) -> SimOutcome:
    """Run ``module`` on the reference interpreter."""
    sim = ReferenceSimulator(module, machine, max_steps=max_steps,
                             trap_poison=trap_poison)
    return sim.run()
