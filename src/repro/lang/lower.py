"""Lowering: minic AST to the load/store IR.

The output is shaped like the Machine SUIF code the paper's allocators
consumed:

* every source variable is one temporary, reassigned by ``mov`` at each
  assignment — multi-definition lifetimes with holes, not SSA;
* the calling convention is explicit: "our Alpha code generator inserts
  move operations from the parameter registers to the symbolic names of
  the parameters at the top of a procedure" (Section 2.5) — exactly the
  moves the move-elimination optimization targets — and mirror moves
  marshal arguments and return values at call sites;
* ``&&``/``||`` normalize both operands with ``!= 0`` and combine
  bitwise (no short-circuit);
* a function whose body can fall off the end gets an implicit default
  return (``0``/``0.0``/bare).

Parameter counts are limited by the machine's parameter registers per
class (no stack arguments) — :class:`LoweringError` reports violations.
"""

from __future__ import annotations

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import Reg, Temp
from repro.ir.types import RegClass
from repro.ir.validate import check_temp_numbering
from repro.lang import ast
from repro.lang.parser import parse
from repro.lang.sema import check
from repro.target.alpha import alpha
from repro.target.machine import MachineDescription

G = RegClass.GPR
F = RegClass.FPR


class LoweringError(ValueError):
    """Raised when a checked program still cannot be lowered (in practice:
    more parameters of one class than the machine passes in registers)."""


def _regclass(type_name: str) -> RegClass:
    return G if type_name == "int" else F


class _FunctionLowerer:
    def __init__(self, module: Module, program: ast.Program,
                 fn_decl: ast.FuncDecl, machine: MachineDescription):
        self.module = module
        self.program = program
        self.decl = fn_decl
        self.machine = machine
        self.fn = Function(fn_decl.name)
        self.b = FunctionBuilder(self.fn)
        self.scopes: list[dict[str, Temp]] = [{}]
        self.ret_types = {f.name: f.ret_type for f in program.functions}
        self.param_types = {f.name: [p.type for p in f.params]
                            for f in program.functions}

    # ------------------------------------------------------------------
    # Variable scoping.
    # ------------------------------------------------------------------
    def declare(self, name: str, type_name: str) -> Temp:
        temp = self.fn.new_temp(_regclass(type_name), name)
        self.scopes[-1][name] = temp
        return temp

    def lookup(self, name: str) -> Temp:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise LoweringError(f"internal: unscoped variable {name!r}")

    # ------------------------------------------------------------------
    # Entry.
    # ------------------------------------------------------------------
    def _assign_param_regs(self, types: list[str], line: int,
                           what: str) -> list:
        counters = {G: 0, F: 0}
        regs = []
        for type_name in types:
            cls = _regclass(type_name)
            available = self.machine.param_regs(cls)
            if counters[cls] >= len(available):
                raise LoweringError(
                    f"line {line}: {what} passes more than "
                    f"{len(available)} {cls.name} parameters; "
                    f"{self.machine.name} has no stack arguments")
            regs.append(available[counters[cls]])
            counters[cls] += 1
        return regs

    def lower(self) -> Function:
        self.b.new_block("entry")
        param_regs = self._assign_param_regs(
            [p.type for p in self.decl.params], self.decl.line,
            f"function {self.decl.name!r}")
        for param, reg in zip(self.decl.params, param_regs):
            temp = self.declare(param.name, param.type)
            self.fn.params.append(temp)
            op = Op.MOV if temp.regclass is G else Op.FMOV
            self.b.emit(Instr(op, defs=[temp], uses=[reg]))
        self.lower_block(self.decl.body)
        if not self._terminated():
            self._emit_default_return()
        return self.fn

    def _terminated(self) -> bool:
        block = self.b.current
        return bool(block.instrs) and block.instrs[-1].is_terminator

    def _emit_default_return(self) -> None:
        if self.decl.ret_type == "void":
            self.b.ret()
            return
        cls = _regclass(self.decl.ret_type)
        value = self.b.li(0) if cls is G else self.b.fli(0.0)
        ret_reg = self.machine.ret_reg(cls)
        op = Op.MOV if cls is G else Op.FMOV
        self.b.emit(Instr(op, defs=[ret_reg], uses=[value]))
        self.b.ret(ret_reg)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------
    def lower_block(self, body: list[ast.Stmt]) -> None:
        self.scopes.append({})
        for stmt in body:
            if self._terminated():
                break  # statements after return are unreachable
            self.lower_stmt(stmt)
        self.scopes.pop()

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Decl):
            # The initializer writes the variable's temp directly — simple
            # copy propagation a real code generator would also do.
            temp = self.fn.new_temp(_regclass(stmt.type), stmt.name)
            self.expr_as(stmt.init, stmt.type, dst=temp)
            self.scopes[-1][stmt.name] = temp
        elif isinstance(stmt, ast.Assign):
            temp = self.lookup(stmt.name)
            target_type = "int" if temp.regclass is G else "float"
            self.expr_as(stmt.value, target_type, dst=temp)
        elif isinstance(stmt, ast.StoreIndex):
            arr = self.module.globals[stmt.name]
            address = self._element_address(stmt.name, stmt.index)
            elem_type = "int" if arr.regclass is G else "float"
            value = self.expr_as(stmt.value, elem_type)
            if arr.regclass is G:
                self.b.st(value, address)
            else:
                self.b.fst(value, address)
        elif isinstance(stmt, ast.Print):
            self.b.print_(self.lower_expr(stmt.value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.b.ret()
                return
            cls = _regclass(self.decl.ret_type)
            ret_reg = self.machine.ret_reg(cls)
            self.expr_as(stmt.value, self.decl.ret_type, dst=ret_reg)
            self.b.ret(ret_reg)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        else:  # pragma: no cover
            raise LoweringError(f"line {stmt.line}: unknown statement")

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self.lower_expr(stmt.cond)
        then_label = self.fn.new_label("then")
        else_label = self.fn.new_label("else") if stmt.else_body else None
        join_label = self.fn.new_label("join")
        self.b.br(cond, then_label, else_label or join_label)
        self.b.new_block(then_label)
        self.lower_block(stmt.then_body)
        if not self._terminated():
            self.b.jmp(join_label)
        if else_label is not None:
            self.b.new_block(else_label)
            self.lower_block(stmt.else_body)
            if not self._terminated():
                self.b.jmp(join_label)
        self.b.new_block(join_label)

    def _lower_while(self, stmt: ast.While) -> None:
        head = self.fn.new_label("head")
        body = self.fn.new_label("body")
        exit_ = self.fn.new_label("exit")
        self.b.jmp(head)
        self.b.new_block(head)
        self.b.br(self.lower_expr(stmt.cond), body, exit_)
        self.b.new_block(body)
        self.lower_block(stmt.body)
        if not self._terminated():
            self.b.jmp(head)
        self.b.new_block(exit_)

    def _lower_for(self, stmt: ast.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        head = self.fn.new_label("head")
        body = self.fn.new_label("body")
        exit_ = self.fn.new_label("exit")
        self.b.jmp(head)
        self.b.new_block(head)
        cond = self.lower_expr(stmt.cond) if stmt.cond is not None else self.b.li(1)
        self.b.br(cond, body, exit_)
        self.b.new_block(body)
        self.lower_block(stmt.body)
        if not self._terminated():
            if stmt.step is not None:
                self.lower_stmt(stmt.step)
            self.b.jmp(head)
        self.b.new_block(exit_)
        self.scopes.pop()

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------
    def expr_as(self, expr: ast.Expr, target_type: str,
                dst: Reg | None = None) -> Reg:
        """Lower ``expr``, promote ``int`` → ``float`` if needed, and
        (when ``dst`` is given) leave the result in ``dst``."""
        if expr.type == "int" and target_type == "float":
            value = self.lower_expr(expr)
            return self.b.itof(value, dst=dst)
        return self.lower_expr(expr, dst=dst)

    def _element_address(self, name: str, index: ast.Expr) -> Reg:
        arr = self.module.globals[name]
        base = self.b.li(arr.base)
        return self.b.add(base, self.lower_expr(index))

    def _truth(self, value: Reg) -> Reg:
        return self.b.sne(value, self.b.li(0))

    def lower_expr(self, expr: ast.Expr, dst: Reg | None = None) -> Reg:
        """Lower ``expr``; with ``dst``, the final instruction writes it
        (so ``x = a + b`` becomes ``add x, a, b`` with no extra move)."""
        if isinstance(expr, ast.IntLit):
            return self.b.li(expr.value, dst=dst)
        if isinstance(expr, ast.FloatLit):
            return self.b.fli(expr.value, dst=dst)
        if isinstance(expr, ast.VarRef):
            value = self.lookup(expr.name)
            if dst is None or dst == value:
                return value
            op = Op.MOV if value.regclass is G else Op.FMOV
            self.b.emit(Instr(op, defs=[dst], uses=[value]))
            return dst
        if isinstance(expr, ast.Index):
            arr = self.module.globals[expr.name]
            address = self._element_address(expr.name, expr.index)
            return (self.b.ld(address, dst=dst) if arr.regclass is G
                    else self.b.fld(address, dst=dst))
        if isinstance(expr, ast.Unary):
            operand = self.lower_expr(expr.operand)
            if expr.op == "!":
                return self.b.seq(operand, self.b.li(0), dst=dst)
            return (self.b.neg(operand, dst=dst) if expr.operand.type == "int"
                    else self.b.fneg(operand, dst=dst))
        if isinstance(expr, ast.Cast):
            if expr.target == expr.operand.type:
                return self.lower_expr(expr.operand, dst=dst)
            operand = self.lower_expr(expr.operand)
            return (self.b.itof(operand, dst=dst) if expr.target == "float"
                    else self.b.ftoi(operand, dst=dst))
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr, dst)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, dst)
        raise LoweringError(f"line {expr.line}: unknown expression")

    _INT_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
                "==": "seq", "!=": "sne", "<": "slt", "<=": "sle"}
    _FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
                  "==": "fseq", "!=": "fsne", "<": "fslt", "<=": "fsle"}

    def _lower_binary(self, expr: ast.Binary, dst: Reg | None = None) -> Reg:
        op = expr.op
        if op in ("&&", "||"):
            left = self._truth(self.lower_expr(expr.left))
            right = self._truth(self.lower_expr(expr.right))
            return (self.b.and_(left, right, dst=dst) if op == "&&"
                    else self.b.or_(left, right, dst=dst))
        common = ("float" if "float" in (expr.left.type, expr.right.type)
                  else "int")
        left = self.expr_as(expr.left, common)
        right = self.expr_as(expr.right, common)
        if op in (">", ">="):
            op = "<" if op == ">" else "<="
            left, right = right, left
        table = self._INT_OPS if common == "int" else self._FLOAT_OPS
        return getattr(self.b, table[op])(left, right, dst=dst)

    def _lower_call(self, expr: ast.Call, dst: Reg | None = None) -> Reg | None:
        arg_types = self.param_types[expr.name]
        arg_regs = self._assign_param_regs(arg_types, expr.line,
                                           f"call to {expr.name!r}")
        values = [self.expr_as(arg, t) for arg, t in zip(expr.args, arg_types)]
        for value, reg in zip(values, arg_regs):
            op = Op.MOV if reg.regclass is G else Op.FMOV
            self.b.emit(Instr(op, defs=[reg], uses=[value]))
        ret_type = self.ret_types[expr.name]
        if ret_type == "void":
            self.b.call(expr.name, arg_regs=arg_regs)
            return None
        cls = _regclass(ret_type)
        ret_reg = self.machine.ret_reg(cls)
        self.b.call(expr.name, arg_regs=arg_regs, ret_reg=ret_reg)
        result = dst if dst is not None else self.fn.new_temp(cls)
        op = Op.MOV if cls is G else Op.FMOV
        self.b.emit(Instr(op, defs=[result], uses=[ret_reg]))
        return result


def lower(program: ast.Program,
          machine: MachineDescription | None = None) -> Module:
    """Lower a checked AST to an IR module."""
    machine = machine or alpha()
    module = Module()
    for g in program.globals:
        cls = _regclass(g.type)
        init = tuple(float(v) if cls is F else int(v) for v in g.init)
        module.add_global(g.name, cls, g.size, init)
    for fn_decl in program.functions:
        lowerer = _FunctionLowerer(module, program, fn_decl, machine)
        module.add_function(lowerer.lower())
    return module


def compile_minic(source: str,
                  machine: MachineDescription | None = None) -> Module:
    """Front door: parse, check, and lower minic source text.

    The lowered module must pass the same temporary-numbering bound as
    parsed IR (:func:`~repro.ir.validate.check_temp_numbering`)."""
    module = lower(check(parse(source)), machine)
    mask_bits = 0
    for fn in module.functions.values():
        mask_bits = check_temp_numbering(fn, mask_bits)
    return module
