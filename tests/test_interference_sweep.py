"""Differential tests: sparse sweep build vs the mask-based oracle.

The ``"check"`` build mode from :mod:`tests.oracles.coloring_reference`
runs both interference builds every round and asserts identical edge
sets, adjacency insertion order, degrees, spill costs, and move
discovery order — so simply running the pipeline in check mode over a
workload IS the differential assertion.  These tests sweep that mode
across every workload analog, a fixed fuzz corpus, and generated
fpppp-shaped straight-line blocks.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.allocators.coloring import GraphColoring
from repro.fuzz.generate import program_for_seed
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.pm.session import CompilationSession
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program
from tests.oracles.coloring_reference import BUILD_MODES, use_build

MACHINES = [("alpha", alpha), ("tiny8", lambda: tiny(8, 8))]


@pytest.fixture(autouse=True)
def check_mode(monkeypatch):
    """Every coloring round in this module runs both builds + compares."""
    use_build(monkeypatch, "check")


def _check(module, machine) -> None:
    """Allocate with both builds running + comparing every round."""
    CompilationSession(module, machine).run(GraphColoring())


class TestBuildModes:
    def test_product_loads_no_oracle(self):
        """The shipped package neither imports an oracle nor offers a
        build switch: the oracles live in tests/oracles only."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = textwrap.dedent("""
            import json, sys
            import repro, repro.sim, repro.allocators, repro.serve.server
            from repro.allocators import GraphColoring
            try:
                GraphColoring(build="check")
                rejected = None
            except TypeError as exc:
                rejected = str(exc)
            print(json.dumps({
                "oracles": sorted(m for m in sys.modules
                                  if m.endswith(".reference")),
                "rejected": rejected}))
        """)
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env=env, check=True)
        verdict = json.loads(proc.stdout)
        assert verdict["oracles"] == []
        assert verdict["rejected"] is not None

    def test_all_modes_produce_identical_modules(self, monkeypatch):
        machine = alpha()
        module = build_program("compress", machine)
        texts = {}
        for mode in BUILD_MODES:
            use_build(monkeypatch, mode)
            result = CompilationSession(module, machine).run(GraphColoring())
            texts[mode] = print_module(result.module)
        assert texts["sweep"] == texts["mask"] == texts["check"]


class TestAnalogDifferential:
    @pytest.mark.parametrize("machine_name,factory", MACHINES,
                             ids=[name for name, _ in MACHINES])
    @pytest.mark.parametrize("analog", PROGRAM_NAMES)
    def test_sweep_matches_oracle(self, machine_name, factory, analog):
        machine = factory()
        try:
            module = build_program(analog, machine)
        except Exception:
            pytest.skip(f"{analog} does not build on {machine_name}")
        _check(module, machine)


class TestFuzzDifferential:
    @pytest.mark.parametrize("seed", range(100))
    def test_sweep_matches_oracle(self, seed):
        program = program_for_seed(seed)
        _check(program.module, program.machine)


def straightline_module(seed: int, n_temps: int = 300,
                        n_instrs: int = 900) -> Module:
    """An fpppp-shaped function: one huge straight-line block.

    Hundreds of temporaries with long, heavily overlapping live ranges
    and no interior control flow — the shape that made the
    per-instruction build quadratic in practice.  Every temporary is
    defined before use, so the module passes the post-allocation
    verifier.
    """
    rng = random.Random(seed)
    fn = Function(f"straightline{seed}")
    b = FunctionBuilder(fn)
    b.new_block("entry")
    live = [b.li(i) for i in range(8)]
    for i in range(n_instrs):
        x = rng.choice(live)
        y = rng.choice(live)
        roll = rng.random()
        if roll < 0.10:
            # A register-register move: coalescing candidates.
            value = b.mov(x)
        elif roll < 0.18 and len(live) > 16:
            # Overwrite an existing temporary (a second def).
            value = b.add(x, y, dst=rng.choice(live))
        else:
            value = b.add(x, y)
        if value not in live:
            live.append(value)
        if len(live) > n_temps:
            del live[: len(live) - n_temps]
    total = live[0]
    for t in live[1 : 1 + rng.randrange(4, 40)]:
        total = b.add(total, t)
    b.print_(total)
    b.ret(total)
    module = Module()
    module.add_function(fn)
    return module


class TestStraightLineProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_fpppp_shaped_blocks(self, seed):
        machine = alpha()
        _check(straightline_module(seed), machine)

    def test_high_pressure_forces_spill_rounds(self, seed=99):
        # On a tiny machine the same shape must spill and iterate; the
        # differential check then covers multi-round rebuilds.
        machine = tiny(6, 6)
        _check(straightline_module(seed, n_temps=64, n_instrs=400), machine)
