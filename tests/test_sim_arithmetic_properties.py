"""Property tests: simulator arithmetic vs a Python-level oracle.

Each operator is checked against an independent Python model of 64-bit
two's-complement semantics over randomized operands, including the
boundary values hypothesis loves.  Every program runs in both simulator
tiers (decoded handlers and generated code), which must print the same
values bit for bit.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.module import Module
from repro.sim import SimulationError, outputs_equal, simulate
from repro.target import tiny
from tests.oracles.tiers import TIERS, forced_tier

I64 = st.integers(-(2 ** 63), 2 ** 63 - 1)


def run_tiers(module) -> list:
    """``module``'s output on tiny, the same in every tier."""
    outputs = []
    for tier in TIERS:
        with forced_tier(tier):
            outputs.append(simulate(module, tiny()).output)
    assert all(outputs_equal(out, outputs[0]) for out in outputs)
    return outputs[0]


def run_binop(op_name: str, a: int, b: int) -> int:
    module = Module()
    fn = Function("main")
    builder = FunctionBuilder(fn)
    builder.new_block("entry")
    x = builder.li(a)
    y = builder.li(b)
    builder.print_(getattr(builder, op_name)(x, y))
    builder.ret()
    module.add_function(fn)
    return run_tiers(module)[0]


def wrap(v: int) -> int:
    v &= (1 << 64) - 1
    return v - (1 << 64) if v >= (1 << 63) else v


class TestWrapOracle:
    @given(I64, I64)
    def test_add(self, a, b):
        assert run_binop("add", a, b) == wrap(a + b)

    @given(I64, I64)
    def test_sub(self, a, b):
        assert run_binop("sub", a, b) == wrap(a - b)

    @given(I64, I64)
    def test_mul(self, a, b):
        assert run_binop("mul", a, b) == wrap(a * b)

    @given(I64, I64)
    def test_bitwise(self, a, b):
        assert run_binop("and_", a, b) == wrap(a & b)
        assert run_binop("or_", a, b) == wrap(a | b)
        assert run_binop("xor", a, b) == wrap(a ^ b)

    @given(I64, I64)
    def test_comparisons(self, a, b):
        assert run_binop("slt", a, b) == int(a < b)
        assert run_binop("sle", a, b) == int(a <= b)
        assert run_binop("seq", a, b) == int(a == b)
        assert run_binop("sne", a, b) == int(a != b)

    @given(I64, st.integers(-(2 ** 63), -1) | st.integers(1, 2 ** 63 - 1))
    def test_div_rem_c_semantics(self, a, b):
        import math
        q = run_binop("div", a, b)
        r = run_binop("rem", a, b)
        expected_q = wrap(math.trunc(a / b) if abs(a) < 2 ** 52
                          else abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1))
        assert q == expected_q
        # The division identity holds in wrapped arithmetic.
        assert wrap(q * b + r) == a

    @given(I64, st.integers(0, 200))
    def test_shifts(self, a, k):
        assert run_binop("shl", a, k) == wrap(a << (k % 64))
        assert run_binop("shr", a, k) == wrap(a >> (k % 64))


class TestFloatOracle:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_fadd_fsub_fmul_match_python(self, a, b):
        module = Module()
        fn = Function("main")
        builder = FunctionBuilder(fn)
        builder.new_block("entry")
        x = builder.fli(a)
        y = builder.fli(b)
        builder.print_(builder.fadd(x, y))
        builder.print_(builder.fsub(x, y))
        builder.print_(builder.fmul(x, y))
        builder.ret()
        module.add_function(fn)
        out = run_tiers(module)
        expected = [a + b, a - b, a * b]
        for got, want in zip(out, expected):
            assert got == want or (got != got and want != want)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_itof_ftoi_round_trip_for_small_ints(self, f):
        module = Module()
        fn = Function("main")
        builder = FunctionBuilder(fn)
        builder.new_block("entry")
        builder.print_(builder.ftoi(builder.fli(float(int(f % 1000)))))
        builder.ret()
        module.add_function(fn)
        assert run_tiers(module) == [int(f % 1000)]
