"""Safety of the simulator's generated code (the hot tier).

``repro serve`` simulates untrusted IR, so generated source may hold only
fixed templates, simulator-computed integer indices and the ``repr()`` of
exact ints.  Floats, names, labels and messages reach the code through
the constants list ``C``, and the code runs with empty builtins.  These
tests compile every segment at its first entry and check each generated
line against a whitelist written independently of the generator.
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
from repro.ir.types import RegClass
from repro.pm.session import CompilationSession
from repro.sim import SimulationError, outputs_equal
from repro.sim.machine import Simulator
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program
from tests.oracles.sim_reference import reference_simulate
from tests.oracles.tiers import forced_tier

_I = r"\d+"
_C = rf"C\[{_I}\]"
#: Operand reads: temp, register, guarded register, bad register.
_RD = (rf"(?:T\[{_I}\]|R\[{_I}\]|\(R\[{_I}\] if not P\[{_I}\] else "
       rf"X\({_C}\)\)|X\({_C}\))")
_LIT = rf"(?:-?{_I}|{_C})"
_WRAP = rf"v - {_I} if v >= {_I} else v"


def _wr(expr: str) -> str:
    """Operand writes of ``expr``: temp, register, guarded, bad."""
    return (rf"(?:T\[{_I}\] = {expr}|R\[{_I}\] = {expr}|"
            rf"R\[{_I}\] = {expr}; P\[{_I}\] = 0|v = {expr}; X\({_C}\))")


#: One pattern per instruction template.
WHITELIST = [
    _wr(_LIT),                                            # li, fli
    _wr(_RD),                                             # mov, fmov
    rf"O\({_RD}\)",                                       # print
    r"pass",                                              # nop
    rf"v = S\[{_I}\]; v is U and X\({_C}\); " + _wr("v"),  # lds
    rf"S\[{_I}\] = {_RD}",                                # sts
    rf"v = {_RD} \+ {_LIT}; " + _wr(                      # ld, fld
        rf"H\[v\] if TY\(v\) is INT and 0 <= v < {_I} and "
        rf"TY\(H\[v\]\) is (?:INT|FLT) else LD\(H, v, {_C}, {_C}\)"),
    rf"x = {_RD}; v = {_RD} \+ {_LIT}; TY\(v\) is INT and "  # st, fst
    rf"0 <= v < {_I} and H\[v\] is not None or ST\(H, v, x, {_C}\); "
    rf"H\[v\] = x",
    rf"v = \({_RD} \+ {_LIT}\) & {_I}; " + _wr(_WRAP),   # addi
    rf"v = \([-~]{_RD}\) & {_I}; " + _wr(_WRAP),         # neg, not
    _wr(rf"-{_RD}"),                                      # fneg
    _wr(rf"FLT\({_RD}\)"),                                # itof
    _wr(rf"FTOI\({_RD}, {_C}\)"),                         # ftoi
    _wr(rf"(?:DIV|REM|FDIV)\({_RD}, {_RD}, {_C}\)"),      # div, rem, fdiv
    _wr(rf"1 if {_RD} (?:<|<=|==|!=) {_RD} else 0"),      # comparisons
    _wr(rf"{_RD} [-+*] {_RD}"),                           # fadd/fsub/fmul
    rf"v = \({_RD} [-+*&|^] {_RD}\) & {_I}; " + _wr(_WRAP),  # int ALU
    rf"v = \({_RD} (?:<<|>>) \({_RD} % 64\)\) & {_I}; " + _wr(_WRAP),
]
_LINE = re.compile("|".join(f"(?:{pattern})" for pattern in WHITELIST))
#: Every identifier generated code may use: its parameters, scratch
#: locals, namespace entries and keywords.
_NAMES = {"def", "seg", "T", "S", "R", "P", "H", "O", "U", "C", "X", "LD",
          "ST", "DIV", "REM", "FDIV", "FTOI", "TY", "INT", "FLT", "v", "x",
          "if", "else", "and", "or", "is", "not", "None", "pass"}
_NAMESPACE = _NAMES - {"def", "seg", "T", "S", "v", "x", "if", "else",
                       "and", "or", "is", "not", "None", "pass"}


def check_source(source: str) -> None:
    lines = source.splitlines()
    assert lines[0] == "def seg(T, S):"
    for line in lines[1:]:
        assert line.startswith(" ") and _LINE.fullmatch(line[1:]), line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        assert tok.type != tokenize.STRING, tok
        if tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok  # no float/complex literal
        if tok.type == tokenize.NAME:
            assert tok.string in _NAMES, tok
        if tok.type == tokenize.OP:
            assert tok.string != ".", tok  # no attribute access


def run_hot(module, machine, **kwargs) -> Simulator:
    """Simulate with every segment compiled at its first entry and check
    all generated code and the namespace it runs in."""
    with forced_tier("hot"):
        sim = Simulator(module, machine, **kwargs)
        try:
            sim.run()
        except SimulationError:
            pass
    assert sim.segments_compiled == len(sim.hot_sources) > 0
    for source in sim.hot_sources.values():
        check_source(source)
    namespace = sim._hot_ns
    assert namespace["__builtins__"] == {}
    assert set(namespace) == _NAMESPACE | {"__builtins__"}
    words = {tok for src in sim.hot_sources.values()
             for tok in re.findall(r"\w+", src)}
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
