"""The ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import main

SRC = """
func int main() {
  int x = 6;
  int y = 7;
  print x * y;
  return 0;
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(SRC)
    return str(path)


class TestRun:
    def test_runs_and_prints_output(self, program, capsys):
        code = main(["run", program])
        out = capsys.readouterr()
        assert out.out.strip() == "42"
        assert "instructions" in out.err
        assert code == 0

    @pytest.mark.parametrize("allocator", ["second-chance", "two-pass",
                                           "coloring", "poletto"])
    def test_every_allocator_selectable(self, program, capsys, allocator):
        main(["run", program, "--allocator", allocator])
        assert capsys.readouterr().out.strip() == "42"

    def test_tiny_machine(self, program, capsys):
        main(["run", program, "--machine", "tiny:8x8"])
        assert capsys.readouterr().out.strip() == "42"

    def test_spec_machine_under_stressed_context(self, program, capsys):
        assert main(["run", program, "--machine", "tiny:4x4", "--context",
                     "remat,stress=shuffle,seed=7"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    @pytest.mark.parametrize("argv,accepted", [
        (["--machine", "tiny"], "tiny:<G>x<F>"),
        (["--machine", "tiny:4x3"], "at least 4 registers"),
        (["--context", "stress=banana"], "choose from"),
        (["--remat"], "--context DESC"),
        (["--stress", "shuffle"], "--context DESC"),
        (["--context", "seed=7"], "seeds no stress mode"),
        (["--context", "stress=shuffle,stress=none"], "names stress twice"),
    ])
    def test_refuses_other_spellings(self, program, capsys, argv, accepted):
        with pytest.raises(SystemExit) as exc:
            main(["run", program, *argv])
        assert exc.value.code == 2
        assert accepted in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", "/nonexistent/prog.mc"])


class TestCompile:
    def test_virtual_dump_contains_temps(self, program, capsys):
        main(["compile", program])
        out = capsys.readouterr().out
        assert "func main(" in out
        assert "t0" in out

    def test_allocated_dump_contains_only_machine_registers(self, program,
                                                            capsys):
        main(["compile", program, "--allocate"])
        out = capsys.readouterr().out
        assert "r0" in out
        # No virtual registers survive (t<N> never followed by a digit-free
        # context; simplest: the printer writes temps as t0/t1/...).
        import re
        assert not re.search(r"\bt\d+", out)


class TestCompare:
    def test_table_lists_all_allocators(self, program, capsys):
        main(["compare", program])
        out = capsys.readouterr().out
        for name in ("second-chance", "two-pass", "coloring", "poletto"):
            assert name in out

    def test_spill_cleanup_flag_accepted(self, program, capsys):
        main(["compare", program, "--spill-cleanup"])
        assert "allocator" in capsys.readouterr().out


class TestBench:
    def test_unknown_analog_rejected(self):
        with pytest.raises(SystemExit, match="unknown analog"):
            main(["bench", "quake3"])

    def test_bench_runs_small_analog(self, capsys):
        main(["bench", "m88ksim"])
        out = capsys.readouterr().out
        assert "m88ksim" in out
        assert "second-chance" in out


def test_serve_refuses_zero_workers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--jobs", "0"])
    assert exc.value.code == 2
    assert "at least one worker process" in capsys.readouterr().err


def test_module_entry_point(program):
    proc = subprocess.run([sys.executable, "-m", "repro", "run", program],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "42"
