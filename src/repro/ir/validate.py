"""Structural validation of IR.

``validate_function`` checks the invariants every pass relies on: blocks
are non-empty and end in exactly one terminator, branch targets resolve,
operand counts and register classes match each opcode's signature, and
stack-slot classes agree with the operand moved through them.  With
``physical=True`` it additionally enforces the post-allocation contract:
no temporaries remain anywhere in the code.

Passes call this between phases in tests; it is cheap (one sweep) and has
caught most allocator bugs at the point of introduction rather than at
simulation time.

``check_temp_numbering`` guards the untrusted doors (``parse_module`` and
``compile_minic``): a temporary's id is its liveness bit, so the ids a
module may use are bounded before any analysis allocates masks for them.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass

#: Exclusive bound on temporary ids.  An id is a liveness bit position
#: (``1 << temp.id``), so this caps one mask at 128 KiB.
MAX_TEMP_ID = 1 << 20

#: Bound on a module's blocks x (highest temp id + 1), summed over its
#: functions.  Liveness keeps live-in, live-out, gen and kill masks for
#: every block, each as wide as the highest id, so this caps them at
#: 8 MiB together (the largest shipped program, tomcatv, needs 10,593).
MAX_MASK_BITS = 1 << 24


class IRValidationError(ValueError):
    """Raised when an IR structural invariant does not hold."""


def check_temp_numbering(fn: Function, mask_bits: int) -> int:
    """Reject ``fn`` when its temporary ids cannot be liveness bits.

    Refused: one id used by both classes (``t3`` and ``ft3`` would share
    a bit; the printer never emits that, since ids come from one
    counter), an id of :data:`MAX_TEMP_ID` or more, and a module whose
    blocks x (highest id + 1) exceed :data:`MAX_MASK_BITS`.
    ``mask_bits`` is that total over the module's functions checked so
    far; the return value adds ``fn``'s share.  Raises
    :class:`IRValidationError`.
    """
    class_of: dict[int, RegClass] = {}
    for temp in fn.all_temps():
        if temp.id >= MAX_TEMP_ID:
            raise IRValidationError(f"temporary {temp} in {fn.name}: ids "
                                    f"must be below {MAX_TEMP_ID}")
        if class_of.setdefault(temp.id, temp.regclass) is not temp.regclass:
            raise IRValidationError(f"t{temp.id} and ft{temp.id} in "
                                    f"{fn.name} share one id")
    mask_bits += len(fn.blocks) * (max(class_of, default=-1) + 1)
    if mask_bits > MAX_MASK_BITS:
        raise IRValidationError(f"blocks x (highest temporary id + 1) "
                                f"exceeds {MAX_MASK_BITS}")
    return mask_bits


def _fail(fn: Function, where: str, message: str) -> None:
    raise IRValidationError(f"{fn.name}/{where}: {message}")


def _check_instr(fn: Function, where: str, instr: Instr, labels: set[str]) -> None:
    info = instr.info
    if info.variadic:
        if instr.op is Op.RET and len(instr.uses) > 1:
            _fail(fn, where, f"ret with {len(instr.uses)} operands")
        if instr.op is Op.CALL:
            for reg in instr.regs():
                if not isinstance(reg, (Temp, PhysReg)):
                    _fail(fn, where, f"call operand {reg!r} is not a register")
    else:
        if len(instr.defs) != len(info.def_classes):
            _fail(fn, where, f"{instr.op.value}: bad def count {len(instr.defs)}")
        if len(instr.uses) != len(info.use_classes):
            _fail(fn, where, f"{instr.op.value}: bad use count {len(instr.uses)}")
        for reg, cls in zip(instr.defs, info.def_classes):
            if cls is not None and reg.regclass is not cls:
                _fail(fn, where, f"{instr.op.value}: def {reg} is not {cls.name}")
        for reg, cls in zip(instr.uses, info.use_classes):
            if cls is not None and reg.regclass is not cls:
                _fail(fn, where, f"{instr.op.value}: use {reg} is not {cls.name}")
    if info.has_imm:
        if instr.imm is None:
            _fail(fn, where, f"{instr.op.value}: missing immediate")
        want = float if info.imm_float else int
        if not isinstance(instr.imm, want):
            _fail(fn, where, f"{instr.op.value}: immediate {instr.imm!r} is not {want.__name__}")
    if info.has_slot:
        if instr.slot is None:
            _fail(fn, where, f"{instr.op.value}: missing stack slot")
        moved = instr.defs[0] if instr.defs else instr.uses[0]
        if instr.slot.regclass is not moved.regclass:
            _fail(fn, where,
                  f"{instr.op.value}: slot class {instr.slot.regclass.name} "
                  f"vs operand class {moved.regclass.name}")
    if info.has_callee and not instr.callee:
        _fail(fn, where, "call without callee")
    for target in instr.targets:
        if target not in labels:
            _fail(fn, where, f"branch to unknown label {target!r}")


def validate_function(fn: Function, *, physical: bool = False) -> None:
    """Check structural invariants; raise :class:`IRValidationError` if broken.

    Args:
        fn: The function to check.
        physical: When true, also require that no temporaries remain
            (the post-register-allocation contract).
    """
    if not fn.blocks:
        _fail(fn, "-", "function has no blocks")
    labels: set[str] = set()
    for b in fn.blocks:
        if b.label in labels:
            _fail(fn, b.label, "duplicate block label")
        labels.add(b.label)
    for b in fn.blocks:
        if not b.instrs:
            _fail(fn, b.label, "empty block")
        for i, instr in enumerate(b.instrs):
            where = f"{b.label}[{i}]"
            last = i == len(b.instrs) - 1
            if instr.is_terminator and not last:
                _fail(fn, where, "terminator in the middle of a block")
            if last and not instr.is_terminator:
                _fail(fn, where, "block does not end in a terminator")
            _check_instr(fn, where, instr, labels)
            if physical:
                for reg in instr.temps():
                    _fail(fn, where, f"temporary {reg} survived allocation")
    for p in fn.params:
        if not isinstance(p, Temp):
            _fail(fn, "-", f"parameter {p!r} is not a temporary")


def validate_module(module: Module, *, physical: bool = False) -> None:
    """Validate every function plus cross-function call targets."""
    for fn in module.functions.values():
        validate_function(fn, physical=physical)
        for instr in fn.instructions():
            if instr.op is Op.CALL and instr.callee not in module.functions:
                raise IRValidationError(
                    f"{fn.name}: call to unknown function {instr.callee!r}")
