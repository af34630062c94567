"""Safety of the simulator's generated code (both tiers).

``repro serve`` simulates untrusted IR, so generated source may hold only
fixed templates, simulator-computed integer indices and the ``repr()`` of
exact ints.  Floats, names, labels and messages reach hot code through
the constants list ``C``; cold code, one function per (opcode, operand
kinds) shape, reads every index, immediate and message from its args
tuple ``a``.  Both run with empty builtins.  These tests compile every
segment at its first entry and check each generated line, hot and cold,
against a whitelist written independently of the generator.
"""

from __future__ import annotations

import io
import re
import tokenize

import pytest

from repro.allocators import make_allocator
from repro.fuzz.generate import program_for_seed
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import StackSlot
from repro.ir.types import RegClass
from repro.pm.session import CompilationSession
from repro.sim import SimulationError, outputs_equal
from repro.sim import machine as sim_machine
from repro.sim.machine import Simulator
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program
from tests.oracles.sim_reference import reference_simulate
from tests.oracles.tiers import forced_tier

#: A fixed number of the templates (masks, the shift modulus).
_N = r"\d+"


def whitelist(i: str, c: str, lit: str) -> re.Pattern:
    """One pattern per instruction template, with ``i`` matching an
    index (or the heap size), ``c`` a constant and ``lit`` an
    immediate."""
    rd = (rf"(?:T\[{i}\]|R\[{i}\]|\(R\[{i}\] if not P\[{i}\] else "
          rf"X\({c}\)\)|X\({c}\))")
    wrap = rf"v - {_N} if v >= {_N} else v"

    def wr(expr: str) -> str:
        """Operand writes of ``expr``: temp, register, guarded, bad."""
        return (rf"(?:T\[{i}\] = {expr}|R\[{i}\] = {expr}|"
                rf"R\[{i}\] = {expr}; P\[{i}\] = 0|v = {expr}; X\({c}\))")

    patterns = [
        wr(lit),                                              # li, fli
        wr(rd),                                               # mov, fmov
        rf"O\({rd}\)",                                        # print
        r"pass",                                              # nop
        rf"v = S\[{i}\]; v is U and X\({c}\); " + wr("v"),    # lds
        rf"S\[{i}\] = {rd}",                                  # sts
        rf"v = {rd} \+ {lit}; " + wr(                         # ld, fld
            rf"H\[v\] if TY\(v\) is INT and 0 <= v < {i} and "
            rf"TY\(H\[v\]\) is (?:INT|FLT) else LD\(H, v, {c}, {c}\)"),
        rf"x = {rd}; v = {rd} \+ {lit}; TY\(v\) is INT and "   # st, fst
        rf"0 <= v < {i} and H\[v\] is not None or ST\(H, v, x, {c}\); "
        rf"H\[v\] = x",
        rf"v = \({rd} \+ {lit}\) & {_N}; " + wr(wrap),         # addi
        rf"v = \([-~]{rd}\) & {_N}; " + wr(wrap),               # neg, not
        wr(rf"-{rd}"),                                         # fneg
        wr(rf"FLT\({rd}\)"),                                   # itof
        wr(rf"FTOI\({rd}, {c}\)"),                             # ftoi
        wr(rf"(?:DIV|REM|FDIV)\({rd}, {rd}, {c}\)"),           # div, rem, fdiv
        wr(rf"1 if {rd} (?:<|<=|==|!=) {rd} else 0"),          # comparisons
        wr(rf"{rd} [-+*] {rd}"),                               # fadd/fsub/fmul
        rf"v = \({rd} [-+*&|^] {rd}\) & {_N}; " + wr(wrap),     # int ALU
        rf"v = \({rd} (?:<<|>>) \({rd} % 64\)\) & {_N}; " + wr(wrap),
    ]
    return re.compile("|".join(f"(?:{pattern})" for pattern in patterns))


#: Hot lines inline indices and exact-int immediates; cold lines read
#: both, and every constant, as ``a[k]``.
_HOT_LINE = whitelist(r"\d+", r"C\[\d+\]", r"(?:-?\d+|C\[\d+\])")
_ARG = r"a\[\d+\]"
_COLD_LINE = whitelist(_ARG, _ARG, _ARG)
#: Every identifier generated code may use: its parameters, scratch
#: locals, namespace entries and keywords.
_NAMES = {"def", "seg", "T", "S", "R", "P", "H", "O", "U", "C", "X", "LD",
          "ST", "DIV", "REM", "FDIV", "FTOI", "TY", "INT", "FLT", "v", "x",
          "if", "else", "and", "or", "is", "not", "None", "pass"}
_NAMESPACE = _NAMES - {"def", "seg", "T", "S", "v", "x", "if", "else",
                       "and", "or", "is", "not", "None", "pass"}
#: Cold functions are ``h(T, S, a)`` and name no constant.
_COLD_NAMES = (_NAMES - {"seg", "C"}) | {"h", "a"}
#: The only numbers a cold line may hold besides ``a``'s subscripts:
#: truth values, the shift modulus and the 64-bit wrap constants.
_FIXED_NUMBERS = {"0", "1", "64", str((1 << 64) - 1), str(1 << 64),
                  str(1 << 63)}


def check_tokens(source: str, names: set[str]) -> list:
    """The tokenizer pass: no strings, no float or complex literal, no
    attribute access, no name outside ``names``; returns the tokens."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for tok in tokens:
        assert tok.type != tokenize.STRING, tok
        if tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok  # no float/complex literal
        if tok.type == tokenize.NAME:
            assert tok.string in names, tok
        if tok.type == tokenize.OP:
            assert tok.string != ".", tok  # no attribute access
    return tokens


def check_source(source: str) -> None:
    lines = source.splitlines()
    assert lines[0] == "def seg(T, S):"
    for line in lines[1:]:
        assert line.startswith(" ") and _HOT_LINE.fullmatch(line[1:]), line
    check_tokens(source, _NAMES)


def check_shape_source(shape: tuple, source: str) -> None:
    """A cold function: one whitelisted line whose every number is an
    ``a`` subscript or a fixed number of the templates."""
    lines = source.splitlines()
    assert lines[0] == "def h(T, S, a):" and len(lines) == 2, source
    assert lines[1].startswith(" ") and _COLD_LINE.fullmatch(lines[1][1:]), (
        shape, source)
    tokens = check_tokens(source, _COLD_NAMES)
    for k, tok in enumerate(tokens):
        if tok.type == tokenize.NUMBER:
            subscript = (tokens[k - 2].string == "a"
                         and tokens[k - 1].string == "[")
            assert subscript or tok.string in _FIXED_NUMBERS, (shape, source)


def check_shape_cache() -> None:
    """The cold tier's cache holds one entry per (opcode, operand kinds):
    every key is an opcode plus exactly one kind per operand, so no IR
    can grow it past that bound."""
    for shape, (source, _code) in sim_machine._SHAPES.items():
        op, kinds = shape[0], shape[1:]
        n_uses, n_defs, _extras, _template = sim_machine._OPS[op]
        assert isinstance(op, Op) and len(kinds) == n_uses + n_defs, shape
        assert set(kinds) <= {0, 1, 2, 3}, shape
        check_shape_source(shape, source)


def run_hot(module, machine, **kwargs) -> Simulator:
    """Simulate with every segment compiled at its first entry and check
    all generated code, hot and cold, and the namespace it runs in."""
    with forced_tier("hot"):
        sim = Simulator(module, machine, **kwargs)
        try:
            sim.run()
        except SimulationError:
            pass
    assert sim.segments_compiled == len(sim.hot_sources) > 0
    for source in sim.hot_sources.values():
        check_source(source)
    namespace = sim._ns
    assert namespace["__builtins__"] == {}
    assert set(namespace) == _NAMESPACE | {"__builtins__"}
    assert sim._shape_fns
    for shape, fn in sim._shape_fns.items():
        assert fn.__globals__ is namespace
        assert fn.__code__ is sim_machine._SHAPES[shape][1]
    check_shape_cache()
    sources = [*sim.hot_sources.values(),
               *(sim_machine._SHAPES[shape][0] for shape in sim._shape_fns)]
    words = {tok for src in sources for tok in re.findall(r"\w+", src)}
    for fn in module.functions.values():
        assert fn.name not in words
        assert not {b.label for b in fn.blocks} & words
    return sim


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_analog_codegen_is_whitelisted(name):
    machine = alpha()
    module = build_program(name, machine)
    run_hot(module, machine)
    allocated = CompilationSession(module, machine).run(
        make_allocator("second-chance")).module
    run_hot(allocated, machine, trap_poison=True)


@pytest.mark.parametrize("seed", range(50))
def test_fuzz_codegen_is_whitelisted(seed):
    program = program_for_seed(seed)
    run_hot(program.module, program.machine, trap_poison=True)


def test_hostile_names_and_floats_stay_out_of_source():
    """Source-shaped function names and labels, and the float immediates
    that have no int repr (nan, inf, -0.0), only travel through ``C``;
    the signed zero survives bit for bit."""
    hostile = "__import__('os').system('true')"
    machine = tiny(4, 4)
    helper = Function(hostile)
    hb = FunctionBuilder(helper)
    hb.new_block("entry")
    hb.ret()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    i = b.li(3)
    b.jmp("x'); R.clear(); ('")
    b.new_block("x'); R.clear(); ('")
    for value in (float("nan"), float("inf"), -0.0, 0.0):
        b.print_(b.fli(value))
    b.print_(b.emit(Instr(Op.FNEG, defs=[fn.new_temp(RegClass.FPR)],
                          uses=[b.fli(0.0)])).defs[0])
    b.call(hostile)
    b.emit(Instr(Op.ADDI, defs=[i], uses=[i], imm=-1))
    b.br(i, "x'); R.clear(); ('", "done")
    b.new_block("done")
    b.ret()
    module = Module()
    module.add_function(fn)
    module.add_function(helper)
    sim = run_hot(module, machine)
    for source in sim.hot_sources.values():
        assert "nan" not in source and "inf" not in source
        assert "0.0" not in source and "import" not in source
        assert "clear" not in source
    expected = reference_simulate(module, machine).output
    assert outputs_equal(sim.output, expected)
    assert [repr(v) for v in sim.output[2:5]] == ["-0.0", "0.0", "-0.0"]


def test_shape_cache_grows_by_shape_not_by_instruction():
    """Distinct temps, immediates, slots and names share their shape's
    cold function: 600 such instructions bind four shapes, and the
    process-wide cache gains no entry beyond them."""
    machine = tiny(4, 4)
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    for value in range(-100, 100):
        t = b.li(value * 7919)
        b.sts(t, StackSlot(value + 100, RegClass.GPR))
        b.print_(b.lds(StackSlot(value + 100, RegClass.GPR),
                       fn.new_temp(RegClass.GPR)))
    b.ret()
    module = Module()
    module.add_function(fn)
    before = set(sim_machine._SHAPES)
    with forced_tier("cold"):
        sim = Simulator(module, machine)
        sim.run()
    assert set(sim._shape_fns) == {(Op.LI, 0), (Op.STS, 0), (Op.LDS, 0),
                                   (Op.PRINT, 0)}
    assert set(sim_machine._SHAPES) - before <= set(sim._shape_fns)
    check_shape_cache()
    assert len(sim.output) == 200 and sim.segments_compiled == 0
