"""Parser for the textual IR emitted by :mod:`repro.ir.printer`.

The grammar is line-oriented: ``global`` declarations, ``func`` headers,
``label:`` lines, and one instruction per line.  The parser exists for
round-trip testing, for writing IR test fixtures as strings, and for the
examples that dump and reload allocated code.
"""

from __future__ import annotations

import re

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instr import OP_INFO, Instr, Op, SpillPhase
from repro.ir.module import Module
from repro.ir.temp import PhysReg, Reg, StackSlot, Temp
from repro.ir.types import RegClass
from repro.ir.validate import IRValidationError, check_temp_numbering


class IRParseError(ValueError):
    """Raised on malformed textual IR, with a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_REG_RE = re.compile(r"""
    ^(?:
        (?P<tclass>t|ft)(?P<tid>\d+)(?:\.(?P<tname>[A-Za-z_][A-Za-z0-9_]*))?
      | (?P<pclass>r|f)(?P<pidx>\d+)
    )$
""", re.VERBOSE)
_SLOT_RE = re.compile(r"^\[s(?P<idx>\d+)\.(?P<tag>[gf])\]$")
_LABEL_RE = re.compile(r"^(?P<label>[A-Za-z_][A-Za-z0-9_.]*):$")
_FUNC_RE = re.compile(r"^func\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<params>[^)]*)\)\s*\{$")
_GLOBAL_RE = re.compile(
    r"^global\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*(?P<cls>gpr|fpr)"
    r"\[(?P<size>\d+)\](?:\s*=\s*\{(?P<init>[^}]*)\})?$")
_CALL_RE = re.compile(
    r"^call\s+@(?P<callee>[A-Za-z_][A-Za-z0-9_]*)\((?P<args>[^)]*)\)"
    r"(?:\s*->\s*(?P<rets>.+?))?(?:\s*!(?P<phase>\w+))?$")
_INT_RE = re.compile(r"^-?\d+$")

def parse_reg(text: str) -> Reg:
    """Parse a temporary (``t3``, ``ft2.x``) or physical register (``r5``)."""
    m = _REG_RE.match(text)
    if not m:
        raise ValueError(f"bad register {text!r}")
    if m.group("tclass"):
        cls = RegClass.GPR if m.group("tclass") == "t" else RegClass.FPR
        return Temp(cls, int(m.group("tid")), m.group("tname"))
    cls = RegClass.GPR if m.group("pclass") == "r" else RegClass.FPR
    return PhysReg(cls, int(m.group("pidx")))


def _parse_operand_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    return [item for item in items if item]


def _parse_instr(line: str, lineno: int) -> Instr:
    call_match = _CALL_RE.match(line)
    if call_match:
        uses = [parse_reg(a) for a in _parse_operand_list(call_match.group("args"))]
        rets = call_match.group("rets") or ""
        defs = [parse_reg(a) for a in _parse_operand_list(rets)]
        phase = SpillPhase(call_match.group("phase")) if call_match.group("phase") else None
        return Instr(Op.CALL, defs=defs, uses=uses, callee=call_match.group("callee"),
                     spill_phase=phase)

    phase: SpillPhase | None = None
    if "!" in line:
        line, _, phase_text = line.rpartition("!")
        line = line.strip()
        try:
            phase = SpillPhase(phase_text.strip())
        except ValueError:
            raise IRParseError(lineno, f"unknown spill phase {phase_text!r}")

    mnemonic, _, rest = line.partition(" ")
    try:
        op = Op(mnemonic)
    except ValueError:
        raise IRParseError(lineno, f"unknown opcode {mnemonic!r}")
    info = OP_INFO[op]
    operands = _parse_operand_list(rest)

    instr = Instr(op)
    instr.spill_phase = phase
    # Consume defs, then uses, then slot, then imm, then targets — the
    # printer's fixed order.
    idx = 0

    def take(reason: str) -> str:
        nonlocal idx
        if idx >= len(operands):
            raise IRParseError(lineno, f"{op.value}: missing {reason}")
        token = operands[idx]
        idx += 1
        return token

    if op is Op.RET:
        # Variadic: zero or one returned register.
        for token in operands:
            instr.uses.append(parse_reg(token))
        return instr

    for _ in info.def_classes:
        instr.defs.append(parse_reg(take("def operand")))
    for _ in info.use_classes:
        instr.uses.append(parse_reg(take("use operand")))
    if info.has_slot:
        token = take("stack slot")
        m = _SLOT_RE.match(token)
        if not m:
            raise IRParseError(lineno, f"bad stack slot {token!r}")
        cls = RegClass.GPR if m.group("tag") == "g" else RegClass.FPR
        instr.slot = StackSlot(int(m.group("idx")), cls)
    if info.has_imm:
        token = take("immediate")
        if info.imm_float:
            instr.imm = float(token)
        elif _INT_RE.match(token):
            instr.imm = int(token)
        else:
            raise IRParseError(lineno, f"bad integer immediate {token!r}")
    for _ in range(info.n_targets):
        instr.targets.append(take("branch target"))
    if idx != len(operands):
        raise IRParseError(lineno, f"{op.value}: trailing operands {operands[idx:]!r}")
    return instr


def parse_function(text: str) -> Function:
    """Parse a single ``func ... { ... }`` body."""
    module = parse_module(text)
    if len(module.functions) != 1:
        raise ValueError(f"expected exactly one function, got {len(module.functions)}")
    return next(iter(module.functions.values()))


def parse_module(text: str) -> Module:
    """Parse a full module dump (globals and functions)."""
    module = Module()
    fn: Function | None = None
    block: BasicBlock | None = None
    mask_bits = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";;")[0].strip()
        if not line:
            continue
        g = _GLOBAL_RE.match(line)
        if g:
            if fn is not None:
                raise IRParseError(lineno, "global declared inside a function")
            cls = RegClass.GPR if g.group("cls") == "gpr" else RegClass.FPR
            init_text = g.group("init")
            init: tuple[int | float, ...] = ()
            if init_text:
                values = _parse_operand_list(init_text)
                if cls is RegClass.GPR:
                    init = tuple(int(v) for v in values)
                else:
                    init = tuple(float(v) for v in values)
            module.add_global(g.group("name"), cls, int(g.group("size")), init)
            continue
        f = _FUNC_RE.match(line)
        if f:
            if fn is not None:
                raise IRParseError(lineno, "nested function")
            fn = Function(f.group("name"))
            params = _parse_operand_list(f.group("params"))
            for p in params:
                reg = parse_reg(p)
                if not isinstance(reg, Temp):
                    raise IRParseError(lineno, f"parameter {p!r} is not a temporary")
                fn.params.append(reg)
            block = None
            continue
        if line == "}":
            if fn is None:
                raise IRParseError(lineno, "stray '}'")
            try:
                mask_bits = check_temp_numbering(fn, mask_bits)
            except IRValidationError as exc:
                raise IRParseError(lineno, str(exc)) from None
            fn.note_temp_ids()
            module.add_function(fn)
            fn = None
            continue
        lab = _LABEL_RE.match(line)
        if lab:
            if fn is None:
                raise IRParseError(lineno, "label outside a function")
            block = BasicBlock(lab.group("label"))
            try:
                fn.add_block(block)
            except ValueError as exc:
                raise IRParseError(lineno, str(exc)) from None
            continue
        if block is None:
            raise IRParseError(lineno, f"instruction outside a block: {line!r}")
        block.append(_parse_instr(line, lineno))
    if fn is not None:
        raise IRParseError(0, f"unterminated function {fn.name!r}")
    return module
