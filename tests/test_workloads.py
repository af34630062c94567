"""Workload generators and the benchmark analogs.

The full analog suite is exercised per-allocator by the benchmark
harness; here we check structure, determinism, and run a fast subset
end-to-end through every allocator.
"""

import pytest

from repro.ir.printer import print_module
from repro.ir.validate import validate_module
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import alpha, tiny
from repro.workloads.programs import (
    PROGRAM_NAMES,
    PROGRAM_SOURCES,
    build_program,
    program_source,
)
from repro.workloads.synthetic import random_module, scaled_module

#: Analogs cheap enough to simulate inside the unit-test suite.
FAST_PROGRAMS = ["doduc", "fpppp", "compress", "m88ksim", "sort"]


class TestAnalogCatalogue:
    def test_all_eleven_paper_benchmarks_present(self):
        assert PROGRAM_NAMES == ["alvinn", "doduc", "eqntott", "espresso",
                                 "fpppp", "li", "tomcatv", "compress",
                                 "m88ksim", "sort", "wc"]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            program_source("quake")

    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_every_analog_compiles_and_validates(self, name):
        module = build_program(name)
        validate_module(module)
        assert "main" in module.functions

    @pytest.mark.parametrize("name", FAST_PROGRAMS)
    def test_fast_analogs_run_and_produce_output(self, name):
        outcome = simulate(build_program(name), alpha())
        assert outcome.output, f"{name} printed nothing"
        assert outcome.dynamic_instructions > 1000

    def test_fpppp_has_high_fp_pressure(self):
        """The fpppp analog must overcommit the 32 floating-point
        registers (it is the paper's heavy-spill benchmark)."""
        module = build_program("fpppp")
        machine = alpha()
        from repro.allocators import SecondChanceBinpacking
        result = CompilationSession(module, machine).run(
            SecondChanceBinpacking())
        assert sum(result.stats.spill_static.values()) > 0


class TestAnalogsThroughAllocators:
    @pytest.mark.parametrize("name", ["doduc", "sort"])
    def test_oracle_on_alpha(self, name, any_allocator):
        machine = alpha()
        module = build_program(name, machine)
        reference = simulate(module, machine)
        result = CompilationSession(module, machine).run(any_allocator)
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output)


class TestRandomModule:
    def test_deterministic_per_seed(self):
        machine = tiny(6, 6)
        a = print_module(random_module(123, machine, size=15))
        b = print_module(random_module(123, machine, size=15))
        assert a == b

    def test_different_seeds_differ(self):
        machine = tiny(6, 6)
        a = print_module(random_module(1, machine))
        b = print_module(random_module(2, machine))
        assert a != b

    def test_validates_and_terminates(self):
        machine = tiny(6, 6)
        module = random_module(77, machine, size=30, n_helpers=2)
        validate_module(module)
        outcome = simulate(module, machine, max_steps=2_000_000)
        assert outcome.result is not None


class TestScaledModule:
    @pytest.mark.parametrize("n", [100, 245, 1000])
    def test_candidate_count_close_to_target(self, n):
        module = scaled_module(n)
        fn = module.functions["main"]
        candidates = len(fn.all_temps())
        assert abs(candidates - n) <= max(n // 5, 40)

    def test_runs_correctly(self):
        machine = alpha()
        module = scaled_module(200)
        outcome = simulate(module, machine)
        assert len(outcome.output) == 1

    def test_density_grows_with_size(self):
        from repro.allocators import GraphColoring
        small = CompilationSession(scaled_module(150), alpha()).run(
            GraphColoring())
        large = CompilationSession(scaled_module(1200), alpha()).run(
            GraphColoring())
        small_edges = small.stats.interference_edges["main"]
        large_edges = large.stats.interference_edges["main"]
        small_n = small.stats.candidates["main"]
        large_n = large.stats.candidates["main"]
        # Edges per candidate must grow, not just edges.
        assert large_edges / large_n > small_edges / small_n
