"""Random and size-scaled IR program generators.

``random_module`` builds structured random programs straight on the IR
builder: nested bounded loops, if/else diamonds, integer and float
expression chains, global-array traffic, helper calls, and long-lived
"pinned" values that stay live across loops and calls (the pressure
pattern that makes ``wc`` interesting in the paper).  Programs are
terminating by construction (loops count down from small constants) and
every temporary is defined before any use on every path, so the simulator
oracle applies.

``scaled_module`` builds a single function with a chosen number of
register candidates and tunable overlap, reproducing the problem sizes of
Table 3 (245 … 6697 candidates) without needing SPEC sources.

Division hazards are avoided structurally: integer denominators have the
form ``w*w + 1`` (never zero mod 2**64 — squares are ≡ 0, 1, or 4 mod 8,
so ``w*w`` is never ``-1``) and float denominators ``w*w + 1.0``.
"""

from __future__ import annotations

import random

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import Reg
from repro.ir.types import RegClass
from repro.target.machine import MachineDescription

G = RegClass.GPR
F = RegClass.FPR


class _FunctionGenerator:
    """Generates one random function body."""

    def __init__(self, rng: random.Random, module: Module, fn: Function,
                 machine: MachineDescription, callees: list[str],
                 size: int):
        self.rng = rng
        self.module = module
        self.fn = fn
        self.machine = machine
        self.callees = callees
        self.b = FunctionBuilder(fn)
        self.int_vars: list[Reg] = []
        self.float_vars: list[Reg] = []
        self.budget = size

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------
    def int_expr(self) -> Reg:
        rng = self.rng
        kind = rng.random()
        a = rng.choice(self.int_vars)
        if kind < 0.25:
            return self.b.li(rng.randint(-64, 64))
        if kind < 0.45:
            return self.b.addi(a, rng.randint(-8, 8))
        bb = rng.choice(self.int_vars)
        op = rng.choice(["add", "sub", "mul", "and_", "or_", "xor",
                         "slt", "sle", "seq", "sne", "div", "rem", "shl"])
        if op in ("div", "rem"):
            denom = self.b.addi(self.b.mul(bb, bb), 1)
            return getattr(self.b, op)(a, denom)
        if op == "shl":
            amount = self.b.li(rng.randint(0, 5))
            return self.b.shl(a, amount)
        return getattr(self.b, op)(a, bb)

    def float_expr(self) -> Reg:
        rng = self.rng
        kind = rng.random()
        if kind < 0.2 or not self.float_vars:
            return self.b.fli(rng.uniform(-4.0, 4.0))
        a = rng.choice(self.float_vars)
        if kind < 0.35:
            return self.b.itof(rng.choice(self.int_vars))
        bb = rng.choice(self.float_vars)
        op = rng.choice(["fadd", "fsub", "fmul", "fdiv"])
        if op == "fdiv":
            one = self.b.fli(1.0)
            denom = self.b.fadd(self.b.fmul(bb, bb), one)
            return self.b.fdiv(a, denom)
        return getattr(self.b, op)(a, bb)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------
    def statements(self, count: int, depth: int) -> None:
        for _ in range(count):
            if self.budget <= 0:
                return
            self.budget -= 1
            self._statement(depth)

    def _statement(self, depth: int) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.30:
            self.b.mov(self.int_expr(), dst=rng.choice(self.int_vars))
        elif roll < 0.45:
            self.b.fmov(self.float_expr(), dst=rng.choice(self.float_vars))
        elif roll < 0.53:
            value = rng.choice(self.int_vars + self.float_vars)
            self.b.print_(value)
        elif roll < 0.63 and self.module.globals:
            self._array_statement()
        elif roll < 0.73 and self.callees:
            self._call_statement()
        elif roll < 0.86 and depth < 3:
            self._if_statement(depth)
        elif depth < 3:
            if rng.random() < 0.35:
                self._critical_loop_statement(depth)
            else:
                self._loop_statement(depth)
        else:
            self.b.mov(self.int_expr(), dst=rng.choice(self.int_vars))

    def _array_statement(self) -> None:
        rng = self.rng
        arr = rng.choice(list(self.module.globals.values()))
        base = self.b.li(arr.base)
        mask = self.b.li(arr.size - 1)  # arrays are power-of-two sized
        index = self.b.and_(rng.choice(self.int_vars), mask)
        address = self.b.add(base, index)
        if arr.regclass is G:
            if rng.random() < 0.5:
                self.b.st(rng.choice(self.int_vars), address)
            else:
                self.b.mov(self.b.ld(address), dst=rng.choice(self.int_vars))
        else:
            if rng.random() < 0.5:
                self.b.fst(rng.choice(self.float_vars), address)
            else:
                self.b.fmov(self.b.fld(address), dst=rng.choice(self.float_vars))

    def _call_statement(self) -> None:
        rng = self.rng
        callee = rng.choice(self.callees)
        arg_reg = self.machine.param_regs(G)[0]
        ret_reg = self.machine.ret_reg(G)
        self.b.emit(Instr(Op.MOV, defs=[arg_reg],
                          uses=[rng.choice(self.int_vars)]))
        self.b.call(callee, arg_regs=[arg_reg], ret_reg=ret_reg)
        self.b.emit(Instr(Op.MOV, defs=[rng.choice(self.int_vars)],
                          uses=[ret_reg]))

    def _if_statement(self, depth: int) -> None:
        rng = self.rng
        cond = self.b.slt(rng.choice(self.int_vars), rng.choice(self.int_vars))
        then_label = self.fn.new_label("then")
        else_label = self.fn.new_label("else")
        join_label = self.fn.new_label("join")
        self.b.br(cond, then_label, else_label)
        self.b.new_block(then_label)
        self.statements(rng.randint(1, 3), depth + 1)
        self.b.jmp(join_label)
        self.b.new_block(else_label)
        if rng.random() < 0.7:
            self.statements(rng.randint(1, 3), depth + 1)
        self.b.jmp(join_label)
        self.b.new_block(join_label)

    def _loop_statement(self, depth: int) -> None:
        rng = self.rng
        counter = self.b.mov(self.b.li(rng.randint(1, 4)))
        head = self.fn.new_label("head")
        body = self.fn.new_label("body")
        done = self.fn.new_label("exit")
        self.b.jmp(head)
        self.b.new_block(head)
        zero = self.b.li(0)
        self.b.br(self.b.slt(zero, counter), body, done)
        self.b.new_block(body)
        self.statements(rng.randint(1, 4), depth + 1)
        self.b.mov(self.b.addi(counter, -1), dst=counter)
        self.b.jmp(head)
        self.b.new_block(done)

    def _critical_loop_statement(self, depth: int) -> None:
        """A do-while loop whose backedge is a *critical* CFG edge.

        The loop body is entered both by fall-in and by the backedge, and
        the latch's conditional branch has two successors — so the
        backedge runs from a multi-successor block to a multi-predecessor
        block, exactly the shape edge resolution must split.  An optional
        early exit makes the loop-exit edge critical as well.
        """
        rng = self.rng
        counter = self.b.mov(self.b.li(rng.randint(1, 4)))
        body = self.fn.new_label("cbody")
        done = self.fn.new_label("cexit")
        early = rng.random() < 0.5
        self.b.jmp(body)
        self.b.new_block(body)
        if early:
            # ``done`` gains a second predecessor, so this exit edge is
            # critical too (the branch block keeps its two successors).
            cond = self.b.seq(counter, self.b.li(rng.randint(5, 9)))
            stay = self.fn.new_label("cstay")
            self.b.br(cond, done, stay)
            self.b.new_block(stay)
        self.statements(rng.randint(1, 3), depth + 1)
        self.b.mov(self.b.addi(counter, -1), dst=counter)
        zero = self.b.li(0)
        self.b.br(self.b.slt(zero, counter), body, done)
        self.b.new_block(done)

    # ------------------------------------------------------------------
    # Whole function.
    # ------------------------------------------------------------------
    def generate(self, n_int_vars: int, n_float_vars: int,
                 is_leaf: bool) -> None:
        rng = self.rng
        self.b.new_block("entry")
        if not is_leaf:
            param = self.fn.new_temp(G, "p")
            self.fn.params.append(param)
            self.b.emit(Instr(Op.MOV, defs=[param],
                              uses=[self.machine.param_regs(G)[0]]))
            self.int_vars.append(param)
        while len(self.int_vars) < n_int_vars:
            self.int_vars.append(self.b.mov(self.b.li(rng.randint(-16, 16))))
        for _ in range(n_float_vars):
            self.float_vars.append(self.b.fmov(self.b.fli(rng.uniform(-2, 2))))
        self.statements(rng.randint(3, 8), 0)
        # Fold everything still live into the observable output.
        total = self.b.li(0)
        for var in self.int_vars:
            total = self.b.add(total, var)
        self.b.print_(total)
        for var in self.float_vars:
            self.b.print_(var)
        ret_reg = self.machine.ret_reg(G)
        self.b.emit(Instr(Op.MOV, defs=[ret_reg], uses=[total]))
        self.b.ret(ret_reg)


def random_module(seed: int, machine: MachineDescription, *,
                  size: int = 25, n_helpers: int = 1,
                  n_int_vars: int = 4, n_float_vars: int = 2) -> Module:
    """A random, terminating, fully-initialized program.

    ``size`` bounds the statement count per function; variables pinned at
    entry stay live to the end, creating pressure that scales with
    ``n_int_vars``/``n_float_vars`` relative to the machine's file sizes.
    """
    rng = random.Random(seed)
    module = Module()
    for name in ("gdata", "fdata"):
        cls = G if name == "gdata" else F
        fill = tuple(rng.randint(-9, 9) if cls is G else rng.uniform(-2, 2)
                     for _ in range(8))
        module.add_global(name, cls, 8, fill)

    helper_names = [f"helper{i}" for i in range(n_helpers)]
    for i, name in enumerate(helper_names):
        fn = Function(name)
        module.add_function(fn)
        gen = _FunctionGenerator(rng, module, fn, machine,
                                 callees=helper_names[:i], size=max(size // 3, 4))
        gen.generate(n_int_vars=max(2, n_int_vars - 1),
                     n_float_vars=max(1, n_float_vars - 1), is_leaf=False)

    main = Function("main")
    module.add_function(main)
    gen = _FunctionGenerator(rng, module, main, machine,
                             callees=helper_names, size=size)
    gen.generate(n_int_vars=n_int_vars, n_float_vars=n_float_vars,
                 is_leaf=True)
    return module


def scaled_module(n_candidates: int, seed: int = 0, *,
                  group: int | None = None) -> Module:
    """A single-function module with ~``n_candidates`` register candidates.

    Candidates are minted in overlapping groups of ``group`` long-lived
    values that are summed much later.  By default the group size grows
    with ``n_candidates`` (``max(12, int(n ** 0.5))``), mirroring the
    paper's data where interference density rises with module size
    (espresso's 245 candidates average ~4 edges each, fpppp's 6697
    average ~17) — the regime where Table 3 shows coloring's repeated
    graph construction dominating while the linear scan stays linear.
    """
    rng = random.Random(seed)
    if group is None:
        group = max(12, int(n_candidates ** 0.5))
    module = Module()
    fn = Function("main")
    module.add_function(fn)
    b = FunctionBuilder(fn)
    b.new_block("entry")
    seeds = [b.li(rng.randint(1, 99)) for _ in range(4)]
    pending: list[Reg] = []
    acc = b.li(0)
    made = 8  # temps so far (seeds + acc + slack)
    while made < n_candidates:
        value = b.add(rng.choice(seeds), rng.choice(pending or seeds))
        value = b.xor(value, rng.choice(seeds))
        pending.append(value)
        made += 2
        if len(pending) >= group:
            # Retire the whole group: a burst of uses long after the defs.
            for v in pending:
                acc = b.add(acc, v)
                made += 1
            pending.clear()
    for v in pending:
        acc = b.add(acc, v)
    b.print_(acc)
    b.ret(acc)
    return module
