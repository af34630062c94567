"""The pipeline driver, allocation stats, and the reporting helpers."""

import pytest

from repro.allocators import SecondChanceBinpacking
from repro.allocators.base import SpillSlots, eviction_priority
from repro.ir.instr import SpillKind, SpillPhase
from repro.ir.printer import print_module
from repro.ir.temp import StackSlot, Temp
from repro.ir.types import RegClass
from repro.lang import compile_minic
from repro.pm.analysis import AnalysisManager
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.stats.report import format_table
from repro.stats.spill import FIGURE3_CATEGORIES, spill_breakdown
from repro.target import tiny

G = RegClass.GPR

SRC = """
func int helper(int x) { return x * 2; }
func int main() {
  int total = 0;
  for (int i = 0; i < 5; i = i + 1) { total = total + helper(i); }
  print total;
  return total;
}
"""


class TestPipeline:
    def test_original_module_is_untouched(self, tiny_machine):
        module = compile_minic(SRC, tiny_machine)
        before = print_module(module)
        CompilationSession(module, tiny_machine).run(SecondChanceBinpacking())
        assert print_module(module) == before

    def test_stats_populated(self, tiny_machine):
        module = compile_minic(SRC, tiny_machine)
        result = CompilationSession(module, tiny_machine).run(
            SecondChanceBinpacking())
        stats = result.stats
        assert stats.allocator == "second-chance binpacking"
        assert stats.alloc_seconds > 0
        assert set(stats.candidates) == {"helper", "main"}
        assert stats.total_candidates() == sum(stats.candidates.values())
        assert all(v >= 0 for v in stats.callee_saved_used.values())

    def test_dce_and_peephole_counted(self, tiny_machine):
        source = "func int main() { int dead = 1 + 2; print 7; return 0; }"
        module = compile_minic(source, tiny_machine)
        result = CompilationSession(module, tiny_machine).run(
            SecondChanceBinpacking())
        assert result.dce_removed >= 2  # the adds/li chain for `dead`
        assert simulate(result.module, tiny_machine).output == [7]


class TestSpillSlots:
    def test_home_is_stable_and_class_tagged(self):
        slots = SpillSlots()
        t_int = Temp(G, 0)
        t_float = Temp(RegClass.FPR, 1)
        home = slots.home(t_int)
        assert slots.home(t_int) is home
        assert home.regclass is G
        assert slots.home(t_float).regclass is RegClass.FPR
        assert len(slots) == 2
        assert set(slots.spilled_temps()) == {t_int, t_float}

    def test_fresh_slots_are_distinct(self):
        slots = SpillSlots()
        a = slots.fresh(G)
        b = slots.fresh(G)
        assert a != b


class TestEvictionPriority:
    def test_farther_reference_means_lower_priority(self, tiny_machine):
        module = compile_minic(SRC, tiny_machine)
        fn = module.functions["main"]
        table = AnalysisManager(tiny_machine).lifetimes(fn)
        temps = [t for t in table.temps if table.ref_points[t]]
        t = temps[0]
        first_ref = table.ref_points[t][0]
        early = eviction_priority(table, t, max(first_ref - 1, 0))
        nothing_left = eviction_priority(table, t, 10 ** 9)
        assert early > nothing_left == 0.0


class TestSpillBreakdown:
    def test_breakdown_matches_outcome(self, tiny_machine):
        source = """
        func int main() {
          int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
          int f = 6; int g = 7; int h = 8;
          print a + b + c + d + e + f + g + h;
          print a; print h;
          return 0;
        }
        """
        module = compile_minic(source, tiny(4, 4))
        result = CompilationSession(module, tiny(4, 4)).run(
            SecondChanceBinpacking())
        outcome = simulate(result.module, tiny(4, 4))
        breakdown = spill_breakdown(outcome)
        assert breakdown.total_spill == outcome.spill_instructions
        assert breakdown.fraction() == outcome.spill_fraction()
        assert len(breakdown.counts) == len(FIGURE3_CATEGORIES) == 6
        for phase, kind in FIGURE3_CATEGORIES:
            assert breakdown.category(phase, kind) >= 0

    def test_normalization(self):
        from repro.stats.spill import SpillBreakdown
        a = SpillBreakdown((2, 2, 0, 0, 0, 0), 100)
        b = SpillBreakdown((1, 1, 0, 0, 0, 0), 100)
        assert b.normalized_to(a) == [0.25, 0.25, 0, 0, 0, 0]
        assert sum(a.normalized_to(a)) == pytest.approx(1.0)

    def test_normalized_to_zero_baseline_is_none(self):
        """A spill-free baseline has nothing to normalize against; the
        old ``or 1`` fallback silently reported absolute counts as
        ratios, which inflated spill-free rows in Figure 3."""
        from repro.stats.spill import SpillBreakdown
        empty = SpillBreakdown((0, 0, 0, 0, 0, 0), 100)
        spilled = SpillBreakdown((3, 1, 0, 0, 0, 0), 100)
        assert spilled.normalized_to(empty) is None
        assert empty.normalized_to(empty) is None
        # A non-zero baseline still yields ratios.
        assert spilled.normalized_to(spilled) is not None

    def test_remat_counts(self):
        from repro.stats.spill import REMAT_CATEGORIES, SpillBreakdown
        bd = SpillBreakdown((1, 2, 3, 0, 0, 0), 100, remat_counts=(4, 5))
        assert bd.remat == 9
        assert bd.total_spill == 6 + 9
        for (phase, kind), want in zip(REMAT_CATEGORIES, (4, 5)):
            assert bd.category(phase, kind) == want


class TestFormatTable:
    def test_alignment_and_rendering(self):
        text = format_table(
            ["name", "count", "ratio"],
            [["alpha", 12345, 1.0345], ["b", 7, 0.5]],
            title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "12,345" in text
        assert "1.034" in text or "1.035" in text
        # Header and rows align on the separator width.
        assert len(lines[2]) >= len(lines[1].rstrip()) - 2

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_numeric_column_detection_is_per_column(self):
        """A column is numeric only when *every* non-empty cell is — a
        digit-leading name like ``2nd-chance`` must not drag its column
        into right-alignment, while %/unit-suffixed numbers still count."""
        text = format_table(
            ["allocator", "spill%", "time"],
            [["2nd-chance", "3.20%", "1.5 ms"],
             ["coloring-x", "11.00%", "12.0 ms"]])
        lines = text.splitlines()
        # Column 1: left-aligned despite the leading digit.
        assert lines[2].startswith("2nd-chance")
        # Columns 2/3: right-aligned numbers (narrow cells padded left).
        assert "  3.20%" in lines[2]
        assert " 1.5 ms" in lines[2]

    def test_mixed_text_and_numbers_left_aligns(self):
        text = format_table(["k", "v"], [["a", 1], ["b", "n/a"]])
        # "n/a" makes the value column non-numeric -> left-aligned.
        assert text.splitlines()[2].startswith("a  1")

    def test_empty_cells_do_not_veto_numeric(self):
        text = format_table(["k", "v"], [["a", 7], ["b", ""], ["c", 123]])
        lines = text.splitlines()
        assert lines[2].startswith("a    7")  # right-aligned to width 3
