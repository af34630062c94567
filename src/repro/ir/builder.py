"""A convenience builder for constructing IR functions.

The builder keeps a *current block* and offers one method per opcode that
allocates result temporaries, so straight-line code reads like assembly:

    fn = Function("f")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    x = b.li(40)
    y = b.li(2)
    b.ret(b.add(x, y))

The frontend's lowering pass (:mod:`repro.lang.lower`) and most tests are
written against this interface.
"""

from __future__ import annotations

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, make
from repro.ir.temp import PhysReg, Reg, StackSlot, Temp
from repro.ir.types import RegClass

G = RegClass.GPR
F = RegClass.FPR


class FunctionBuilder:
    """Incrementally builds the blocks of one :class:`Function`."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.current: BasicBlock | None = None

    # ------------------------------------------------------------------
    # Blocks.
    # ------------------------------------------------------------------
    def new_block(self, label: str | None = None) -> BasicBlock:
        """Start (and switch to) a new block appended in layout order."""
        block = BasicBlock(label or self.fn.new_label())
        self.fn.add_block(block)
        self.current = block
        return block

    def emit(self, instr: Instr) -> Instr:
        """Append a prebuilt instruction to the current block."""
        if self.current is None:
            raise ValueError("no current block; call new_block() first")
        self.current.append(instr)
        return instr

    def temp(self, regclass: RegClass = G, name: str | None = None) -> Temp:
        """Mint a fresh temporary."""
        return self.fn.new_temp(regclass, name)

    # ------------------------------------------------------------------
    # Shared emission helpers.
    # ------------------------------------------------------------------
    def _unop(self, op: Op, src: Reg, dst: Reg | None, dst_class: RegClass) -> Reg:
        dst = dst if dst is not None else self.temp(dst_class)
        self.emit(make(op, defs=[dst], uses=[src]))
        return dst

    def _binop(self, op: Op, a: Reg, b: Reg, dst: Reg | None,
               dst_class: RegClass) -> Reg:
        dst = dst if dst is not None else self.temp(dst_class)
        self.emit(make(op, defs=[dst], uses=[a, b]))
        return dst

    # ------------------------------------------------------------------
    # Immediates and moves.
    # ------------------------------------------------------------------
    def li(self, value: int, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.temp(G)
        self.emit(make(Op.LI, defs=[dst], imm=int(value)))
        return dst

    def fli(self, value: float, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.temp(F)
        self.emit(make(Op.FLI, defs=[dst], imm=float(value)))
        return dst

    def mov(self, src: Reg, dst: Reg | None = None) -> Reg:
        return self._unop(Op.MOV, src, dst, G)

    def fmov(self, src: Reg, dst: Reg | None = None) -> Reg:
        return self._unop(Op.FMOV, src, dst, F)

    # ------------------------------------------------------------------
    # Integer arithmetic, logic, comparisons.
    # ------------------------------------------------------------------
    def add(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.ADD, a, b, dst, G)

    def sub(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SUB, a, b, dst, G)

    def mul(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.MUL, a, b, dst, G)

    def div(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.DIV, a, b, dst, G)

    def rem(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.REM, a, b, dst, G)

    def and_(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.AND, a, b, dst, G)

    def or_(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.OR, a, b, dst, G)

    def xor(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.XOR, a, b, dst, G)

    def shl(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SHL, a, b, dst, G)

    def shr(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SHR, a, b, dst, G)

    def slt(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SLT, a, b, dst, G)

    def sle(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SLE, a, b, dst, G)

    def seq(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SEQ, a, b, dst, G)

    def sne(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SNE, a, b, dst, G)

    def addi(self, src: Reg, imm: int, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.temp(G)
        self.emit(make(Op.ADDI, defs=[dst], uses=[src], imm=int(imm)))
        return dst

    def neg(self, src: Reg, dst: Reg | None = None) -> Reg:
        return self._unop(Op.NEG, src, dst, G)

    # ------------------------------------------------------------------
    # Floating-point arithmetic and comparisons.
    # ------------------------------------------------------------------
    def fadd(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FADD, a, b, dst, F)

    def fsub(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FSUB, a, b, dst, F)

    def fmul(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FMUL, a, b, dst, F)

    def fdiv(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FDIV, a, b, dst, F)

    def fneg(self, src: Reg, dst: Reg | None = None) -> Reg:
        return self._unop(Op.FNEG, src, dst, F)

    def fslt(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FSLT, a, b, dst, G)

    def fsle(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FSLE, a, b, dst, G)

    def fseq(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FSEQ, a, b, dst, G)

    def fsne(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.FSNE, a, b, dst, G)

    def itof(self, src: Reg, dst: Reg | None = None) -> Reg:
        return self._unop(Op.ITOF, src, dst, F)

    def ftoi(self, src: Reg, dst: Reg | None = None) -> Reg:
        return self._unop(Op.FTOI, src, dst, G)

    # ------------------------------------------------------------------
    # Memory.
    # ------------------------------------------------------------------
    def ld(self, base: Reg, offset: int = 0, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.temp(G)
        self.emit(make(Op.LD, defs=[dst], uses=[base], imm=int(offset)))
        return dst

    def st(self, src: Reg, base: Reg, offset: int = 0) -> None:
        self.emit(make(Op.ST, uses=[src, base], imm=int(offset)))

    def fld(self, base: Reg, offset: int = 0, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.temp(F)
        self.emit(make(Op.FLD, defs=[dst], uses=[base], imm=int(offset)))
        return dst

    def fst(self, src: Reg, base: Reg, offset: int = 0) -> None:
        self.emit(make(Op.FST, uses=[src, base], imm=int(offset)))

    def lds(self, slot: StackSlot, dst: Reg) -> Reg:
        self.emit(make(Op.LDS, defs=[dst], slot=slot))
        return dst

    def sts(self, src: Reg, slot: StackSlot) -> None:
        self.emit(make(Op.STS, uses=[src], slot=slot))

    # ------------------------------------------------------------------
    # Control flow and I/O.
    # ------------------------------------------------------------------
    def jmp(self, target: str) -> None:
        self.emit(make(Op.JMP, targets=[target]))

    def br(self, cond: Reg, then_label: str, else_label: str) -> None:
        self.emit(make(Op.BR, uses=[cond], targets=[then_label, else_label]))

    def ret(self, value: Reg | None = None) -> None:
        uses = [value] if value is not None else []
        self.emit(Instr(Op.RET, uses=uses))

    def call(self, callee: str, arg_regs: list[PhysReg] | None = None,
             ret_reg: PhysReg | None = None) -> None:
        """Emit a call; ``arg_regs``/``ret_reg`` are convention registers.

        The builder does not marshal arguments — lowering emits the
        parameter-register moves around the call explicitly, exactly as the
        paper's Alpha code generator did (Section 2.5).
        """
        defs: list[Reg] = [ret_reg] if ret_reg is not None else []
        self.emit(Instr(Op.CALL, defs=defs, uses=list(arg_regs or []),
                        callee=callee))

    def print_(self, value: Reg) -> None:
        self.emit(make(Op.PRINT, uses=[value]))

    def nop(self) -> None:
        self.emit(make(Op.NOP))
