"""The differential fuzzer: generator, harness, and shrinker.

The expensive claim — "the whole grid matches the oracle on hundreds of
seeds" — lives in CI's fuzz-smoke job, not here.  This file pins the
machinery itself: seeds are deterministic, a clean run reports clean,
the ddmin shrinker actually shrinks within budget, and — the
end-to-end proof — an intentionally broken ``sequentialize_moves``
(one that ignores move cycles) is caught, attributed, and minimized.
"""

from __future__ import annotations

import importlib.util
import shlex
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.allocators.binpack import resolution
from repro.fuzz import (CONFIG_GRID, check_config, fuzz, program_for_seed,
                        run_seed, shrink_module)
from repro.fuzz.shrink import physreg_uses_are_block_local, reference_outcome
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.printer import print_module


def _size(module) -> int:
    return sum(fn.instruction_count() for fn in module.functions.values())


class TestGenerator:
    @pytest.mark.parametrize("seed", [0, 1, 7, 13])
    def test_deterministic(self, seed):
        a = program_for_seed(seed)
        b = program_for_seed(seed)
        assert a.describe == b.describe
        assert print_module(a.module) == print_module(b.module)

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_programs_are_valid_oracles(self, seed):
        program = program_for_seed(seed)
        assert reference_outcome(program.module, program.machine) is not None


class TestHarness:
    def test_clean_run_reports_clean(self):
        report = fuzz(range(2))
        assert report.ok
        assert report.seeds == 2
        assert report.checks == 2 * len(CONFIG_GRID)
        assert report.invalid_seeds == 0
        assert "0 divergence(s)" in report.format()

    def test_config_grid_names_are_unique(self):
        names = [c.name for c in CONFIG_GRID]
        assert len(names) == len(set(names))

    def test_check_config_matches_oracle(self):
        program = program_for_seed(3)
        ref = reference_outcome(program.module, program.machine)
        for config in CONFIG_GRID:
            found = check_config(program.module, program.machine, config, ref)
            assert found is None or found[0] == "skip"


class TestShrinker:
    def test_ddmin_shrinks_and_respects_budget(self):
        program = program_for_seed(1)
        calls = 0

        def still_fails(candidate) -> bool:
            nonlocal calls
            calls += 1
            return _size(candidate) >= 1  # any nonempty module "fails"

        shrunk = shrink_module(program.module, still_fails, budget=120)
        assert calls <= 120
        assert _size(shrunk) < _size(program.module)
        assert still_fails(shrunk)
        # Terminators are never deleted: every block stays well-formed.
        for fn in shrunk.functions.values():
            for block in fn.blocks:
                assert block.instrs and block.instrs[-1].is_terminator

    def test_invalid_candidates_never_reach_the_predicate(self):
        """ddmin must not hand out modules that break the allocators'
        input contract — e.g. a ``ret r0`` whose feeding ``mov r0, t``
        was deleted leaves r0 live across code the allocator may
        clobber, and any divergence on it would be the shrinker's fault."""
        program = program_for_seed(0)

        def still_fails(candidate) -> bool:
            if reference_outcome(candidate, program.machine,
                                 max_steps=200_000) is None:
                return False
            return _size(candidate) >= 1

        shrunk = shrink_module(program.module, still_fails, budget=150)
        assert physreg_uses_are_block_local(shrunk, program.machine)

    def test_dead_helpers_are_dropped(self):
        program = program_for_seed(1)
        assert len(program.module.functions) > 1
        shrunk = shrink_module(program.module, lambda m: "main" in m.functions,
                               budget=300)
        # With the only requirement being "main exists", every call site is
        # deletable, so the helper post-pass removes the helpers too.
        assert set(shrunk.functions) == {"main"}


def _naive_sequentialize(moves, emitter, stats):
    """A deliberately broken variant: emits moves in arbitrary order,
    clobbering sources that cycles still need (the classic swap bug the
    paper's Section 2.4 warns about)."""
    out = []
    for src, dst, temp in moves:
        if src == dst:
            continue
        op = Op.MOV if temp.regclass.name == "GPR" else Op.FMOV
        out.append(Instr(op, defs=[dst], uses=[src],
                         spill_phase=SpillPhase.RESOLVE))
    return out


class TestInjectedBugEndToEnd:
    def test_cycle_ignoring_resolution_is_caught_and_shrunk(self, monkeypatch):
        monkeypatch.setattr(resolution, "sequentialize_moves",
                            _naive_sequentialize)
        grid = tuple(c for c in CONFIG_GRID if c.name == "sc-default")
        report = run_seed(2, configs=grid, shrink=True, shrink_budget=80)
        # Seed 2 swaps registers across at least one edge, so the naive
        # sequentializer must diverge — and the dataflow verifier sees the
        # clobber statically, before the simulator even runs.
        assert not report.ok
        div = report.divergences[0]
        assert div.config == "sc-default"
        assert div.kind == "dataflow"
        assert div.shrunk_to <= div.shrunk_from
        assert div.module_text.strip()
        assert "dataflow" in div.format()

    def test_witness_replay_line_reproduces_through_shrink_ir(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(resolution, "sequentialize_moves",
                            _naive_sequentialize)
        witness = tmp_path / "witness.ir"
        assert main(["fuzz", "--seeds", "1", "--start", "2",
                     "--config", "sc-default", "--shrink-budget", "80",
                     "--out", str(witness)]) == 1
        header = [line[len(";; "):] for line in
                  witness.read_text().splitlines() if line.startswith(";;")]
        assert "machine=tiny:6x6" in header[0].split()
        replay = [line for line in header if line.startswith("replay: ")]
        assert len(replay) == 1
        command = shlex.split(replay[0][len("replay: "):])
        assert command[0] == "tools/shrink_ir.py"
        assert command[command.index("--machine") + 1] == "tiny:6x6"
        spec = importlib.util.spec_from_file_location(
            "shrink_ir",
            Path(__file__).resolve().parent.parent / "tools" / "shrink_ir.py")
        shrink_ir = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(shrink_ir)
        capsys.readouterr()
        assert shrink_ir.main(command[1:]) == 0
        assert "# reproducing failure: [dataflow]" in capsys.readouterr().err
