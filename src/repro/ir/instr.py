"""Instructions of the load/store IR.

Each opcode has a fixed *signature* — how many register operands it defines
and uses, of which classes, and whether it carries an immediate, branch
targets, a callee name, or a stack slot.  Register allocators rewrite the
``defs``/``uses`` lists in place, replacing :class:`~repro.ir.temp.Temp`
entries with :class:`~repro.ir.temp.PhysReg` entries; the signatures never
change.

Spill bookkeeping
-----------------

Instructions inserted by an allocator carry a ``spill_phase`` tag so the
evaluation can reproduce Figure 3 of the paper, which splits spill code
into *eviction* code (inserted during the linear scan, or by coloring's
spill phase) and *resolution* code (inserted while reconciling allocation
assumptions across CFG edges).  Callee-saved save/restore code is tagged
``PROLOGUE`` and excluded from the spill statistics, matching the paper's
"allocation candidates only" accounting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.temp import PhysReg, Reg, StackSlot, Temp
from repro.ir.types import RegClass

G = RegClass.GPR
F = RegClass.FPR


class Op(enum.Enum):
    """Opcode of an IR instruction."""

    # Immediates.
    LI = "li"  # def gpr <- int imm
    FLI = "fli"  # def fpr <- float imm
    # Register moves.
    MOV = "mov"  # def gpr <- use gpr
    FMOV = "fmov"  # def fpr <- use fpr
    # Integer arithmetic / logic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"  # truncating signed division
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    ADDI = "addi"  # def gpr <- use gpr + imm
    NEG = "neg"
    NOT = "not"
    # Integer comparisons (produce 0/1 in a GPR).
    SLT = "slt"
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    # Floating-point arithmetic.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    # Floating-point comparisons (produce 0/1 in a GPR).
    FSLT = "fslt"
    FSLE = "fsle"
    FSEQ = "fseq"
    FSNE = "fsne"
    # Conversions between the files.
    ITOF = "itof"
    FTOI = "ftoi"
    # Heap memory (base register + immediate offset, Alpha-style).
    LD = "ld"  # def gpr <- mem[use gpr + imm]
    ST = "st"  # mem[use gpr(base) + imm] <- use gpr(src)
    FLD = "fld"
    FST = "fst"
    # Stack-frame slots (spills and callee saves; inserted by allocators).
    LDS = "lds"  # def <- slot
    STS = "sts"  # slot <- use
    # Control flow.
    JMP = "jmp"
    BR = "br"  # use gpr cond; targets [then, else]
    RET = "ret"  # optional single use: the returned value
    CALL = "call"  # callee; uses = argument registers, defs = return register
    # Observable output (the test oracle) and filler.
    PRINT = "print"  # one use, either class
    NOP = "nop"

    # The identity hash, as on RegClass: ``OP_INFO[op]`` and ``MOVE_OPS``
    # are looked up per instruction.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op.{self.name}"


class SpillPhase(enum.Enum):
    """Which allocator phase inserted a spill/bookkeeping instruction."""

    EVICT = "evict"  # inserted during the linear scan / coloring spill phase
    RESOLVE = "resolve"  # inserted during binpacking's resolution pass
    PROLOGUE = "prologue"  # callee-saved save/restore (not candidate spill)

    __hash__ = object.__hash__  # keys the spill counts (see RegClass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpillPhase.{self.name}"


class SpillKind(enum.Enum):
    """The flavour of a spill instruction, for Figure 3's categories."""

    LOAD = "load"
    STORE = "store"
    MOVE = "move"
    REMAT = "remat"  # constant re-issued in place of a reload from memory

    __hash__ = object.__hash__  # keys the spill counts (see RegClass)


@dataclass(frozen=True)
class OpInfo:
    """Static signature of an opcode.

    ``def_classes``/``use_classes`` give the register class of each operand
    slot; ``None`` in a slot means "either class" (``LDS``/``STS``/``PRINT``
    and ``RET``, whose class follows the operand), and variadic opcodes
    (``CALL``, ``RET``) validate their operands dynamically.
    """

    def_classes: tuple[RegClass | None, ...]
    use_classes: tuple[RegClass | None, ...]
    has_imm: bool = False
    imm_float: bool = False
    n_targets: int = 0
    has_callee: bool = False
    has_slot: bool = False
    variadic: bool = False
    terminator: bool = False
    commutative: bool = False


_BINOP_G = OpInfo((G,), (G, G))
_BINOP_G_COMM = OpInfo((G,), (G, G), commutative=True)
_BINOP_F = OpInfo((F,), (F, F))
_BINOP_F_COMM = OpInfo((F,), (F, F), commutative=True)
_FCMP = OpInfo((G,), (F, F))

OP_INFO: dict[Op, OpInfo] = {
    Op.LI: OpInfo((G,), (), has_imm=True),
    Op.FLI: OpInfo((F,), (), has_imm=True, imm_float=True),
    Op.MOV: OpInfo((G,), (G,)),
    Op.FMOV: OpInfo((F,), (F,)),
    Op.ADD: _BINOP_G_COMM,
    Op.SUB: _BINOP_G,
    Op.MUL: _BINOP_G_COMM,
    Op.DIV: _BINOP_G,
    Op.REM: _BINOP_G,
    Op.AND: _BINOP_G_COMM,
    Op.OR: _BINOP_G_COMM,
    Op.XOR: _BINOP_G_COMM,
    Op.SHL: _BINOP_G,
    Op.SHR: _BINOP_G,
    Op.ADDI: OpInfo((G,), (G,), has_imm=True),
    Op.NEG: OpInfo((G,), (G,)),
    Op.NOT: OpInfo((G,), (G,)),
    Op.SLT: _BINOP_G,
    Op.SLE: _BINOP_G,
    Op.SEQ: _BINOP_G_COMM,
    Op.SNE: _BINOP_G_COMM,
    Op.FADD: _BINOP_F_COMM,
    Op.FSUB: _BINOP_F,
    Op.FMUL: _BINOP_F_COMM,
    Op.FDIV: _BINOP_F,
    Op.FNEG: OpInfo((F,), (F,)),
    Op.FSLT: _FCMP,
    Op.FSLE: _FCMP,
    Op.FSEQ: _FCMP,
    Op.FSNE: _FCMP,
    Op.ITOF: OpInfo((F,), (G,)),
    Op.FTOI: OpInfo((G,), (F,)),
    Op.LD: OpInfo((G,), (G,), has_imm=True),
    Op.ST: OpInfo((), (G, G), has_imm=True),
    Op.FLD: OpInfo((F,), (G,), has_imm=True),
    Op.FST: OpInfo((), (F, G), has_imm=True),
    Op.LDS: OpInfo((None,), (), has_slot=True),
    Op.STS: OpInfo((), (None,), has_slot=True),
    Op.JMP: OpInfo((), (), n_targets=1, terminator=True),
    Op.BR: OpInfo((), (G,), n_targets=2, terminator=True),
    Op.RET: OpInfo((), (), variadic=True, terminator=True),
    Op.CALL: OpInfo((), (), has_callee=True, variadic=True),
    Op.PRINT: OpInfo((), (None,)),
    Op.NOP: OpInfo((), ()),
}

#: Opcodes that write register 0 of their ``defs`` with a copy of ``uses[0]``.
MOVE_OPS = frozenset({Op.MOV, Op.FMOV})


@dataclass(eq=False)
class Instr:
    """One IR instruction.

    Instructions compare and hash by *identity*: the same textual
    instruction may appear many times in a function, and the analyses key
    tables by the instruction object (e.g. linear-order numbering).

    ``defs`` and ``uses`` are *mutable* lists of registers; allocators
    rewrite them in place.  All other fields are set at construction.

    Attributes:
        op: The opcode.
        defs: Registers written (order matches the opcode signature).
        uses: Registers read.
        imm: Immediate constant for opcodes that take one.
        targets: Branch target labels (``JMP``: 1, ``BR``: 2 = then/else).
        callee: Called function's name for ``CALL``.
        slot: Stack slot for ``LDS``/``STS``.
        spill_phase: Set on allocator-inserted instructions (see module
            docstring); ``None`` on original program code.
        remat_for: For a rematerialization (an allocator-inserted
            ``LI``/``FLI`` standing in for a reload), the spilled
            temporary whose value is being recomputed.  Lets the
            dataflow verifier treat the constant as a fresh definition
            of that temporary rather than an unexpected spill opcode.
    """

    op: Op
    defs: list[Reg] = field(default_factory=list)
    uses: list[Reg] = field(default_factory=list)
    imm: int | float | None = None
    targets: list[str] = field(default_factory=list)
    callee: str | None = None
    slot: StackSlot | None = None
    spill_phase: SpillPhase | None = None
    remat_for: Temp | None = None

    @property
    def info(self) -> OpInfo:
        """The opcode's static signature."""
        return OP_INFO[self.op]

    @property
    def is_terminator(self) -> bool:
        """True for instructions that must end a basic block."""
        return self.info.terminator

    @property
    def is_call(self) -> bool:
        """True for ``CALL`` — the only instruction that clobbers registers."""
        return self.op is Op.CALL

    @property
    def is_move(self) -> bool:
        """True for plain register-to-register copies."""
        return self.op in MOVE_OPS

    def spill_kind(self) -> SpillKind | None:
        """Figure 3 category of an allocator-inserted instruction.

        Returns ``None`` for original program instructions.
        """
        if self.spill_phase is None:
            return None
        if self.op is Op.LDS:
            return SpillKind.LOAD
        if self.op is Op.STS:
            return SpillKind.STORE
        if self.op in MOVE_OPS:
            return SpillKind.MOVE
        if self.op in (Op.LI, Op.FLI) and self.remat_for is not None:
            return SpillKind.REMAT
        raise ValueError(f"unexpected spill-tagged opcode {self.op}")

    def regs(self) -> list[Reg]:
        """All register operands (defs then uses)."""
        return [*self.defs, *self.uses]

    def temps(self) -> list[Temp]:
        """All operands that are still temporaries."""
        return [r for r in self.regs() if isinstance(r, Temp)]

    def copy(self) -> "Instr":
        """A deep-enough copy: fresh operand/target lists, shared atoms."""
        return Instr(
            op=self.op,
            defs=list(self.defs),
            uses=list(self.uses),
            imm=self.imm,
            targets=list(self.targets),
            callee=self.callee,
            slot=self.slot,
            spill_phase=self.spill_phase,
            remat_for=self.remat_for,
        )

    def __str__(self) -> str:
        from repro.ir.printer import print_instr

        return print_instr(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instr<{self}>"


def make(op: Op, *, defs: list[Reg] | None = None, uses: list[Reg] | None = None,
         imm: int | float | None = None, targets: list[str] | None = None,
         callee: str | None = None, slot: StackSlot | None = None,
         spill_phase: SpillPhase | None = None) -> Instr:
    """Construct and shallowly sanity-check an instruction.

    This is the checked constructor used by the builder and the frontend;
    tests that deliberately build malformed instructions use
    :class:`Instr` directly and rely on :func:`repro.ir.validate`.
    """
    instr = Instr(op, defs or [], uses or [], imm, targets or [],
                  callee, slot, spill_phase)
    info = instr.info
    if not info.variadic:
        if len(instr.defs) != len(info.def_classes):
            raise ValueError(f"{op.value}: expected {len(info.def_classes)} defs, "
                             f"got {len(instr.defs)}")
        if len(instr.uses) != len(info.use_classes):
            raise ValueError(f"{op.value}: expected {len(info.use_classes)} uses, "
                             f"got {len(instr.uses)}")
    if info.has_imm and imm is None:
        raise ValueError(f"{op.value}: missing immediate")
    if info.n_targets != len(instr.targets):
        raise ValueError(f"{op.value}: expected {info.n_targets} targets")
    if info.has_callee and callee is None:
        raise ValueError(f"{op.value}: missing callee")
    if info.has_slot and slot is None:
        raise ValueError(f"{op.value}: missing stack slot")
    return instr
