"""The pipeline driver, allocation stats, and the reporting helpers."""

from collections import Counter

import pytest

from repro.allocators import SecondChanceBinpacking, make_allocator
from repro.allocators.base import SpillSlots, eviction_priority
from repro.ir.instr import SpillKind, SpillPhase
from repro.ir.printer import print_module
from repro.ir.temp import StackSlot, Temp
from repro.ir.types import RegClass
from repro.lang import compile_minic
from repro.lang.lower import LoweringError
from repro.pm.analysis import AnalysisManager
from repro.pm.session import CompilationSession
from repro.results.report import _fraction, figure3_rows
from repro.results.store import CellKey, ResultStore
from repro.sim import simulate
from repro.sim.machine import SimOutcome
from repro.spill import AllocationContext
from repro.stats.report import format_table
from repro.stats.spill import (FIGURE3_CATEGORIES, quality_figures,
                               spill_breakdown)
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program
from tests.conftest import ALLOCATOR_FACTORIES

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


def _figures(evict_load: int, evict_store: int) -> dict:
    """A quality record whose spill code is all eviction loads/stores."""
    categories = {f"{phase.value}.{kind.value}": 0
                  for phase, kind in FIGURE3_CATEGORIES}
    categories["evict.load"] = evict_load
    categories["evict.store"] = evict_store
    return {"dynamic_instructions": 100, "cycles": 100, "result": 0,
            "spill_categories": categories,
            "total_spill": evict_load + evict_store}


def _figure3(tmp_path, binpack: dict, coloring: dict) -> list[list]:
    store = ResultStore(tmp_path)
    store.begin_run("figure3")
    store.put(CellKey("analog:p", "second-chance"), "h", binpack)
    store.put(CellKey("analog:p", "coloring"), "h", coloring)
    store.finish_run({})
    return figure3_rows(store, ["p"])


class TestSpillBreakdown:
    """The per-category spill counts :func:`quality_figures` reports
    and Figure 3 normalizes."""

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
        figures = quality_figures(outcome)
        categories = figures["spill_categories"]
        assert len(FIGURE3_CATEGORIES) == 6
        assert len(categories) == len(FIGURE3_CATEGORIES) + 2
        for phase, kind in FIGURE3_CATEGORIES:
            assert (categories[f"{phase.value}.{kind.value}"]
                    == outcome.spill_counts[(phase, kind)])
        assert figures["total_spill"] == outcome.spill_instructions > 0
        assert sum(categories.values()) == outcome.spill_instructions
        view = spill_breakdown(outcome)  # the benchmark harness's reader
        assert view.total_spill == outcome.spill_instructions
        assert view.category(SpillPhase.EVICT, SpillKind.LOAD) == \
            categories["evict.load"]

    def test_normalization(self, tmp_path):
        [binpack, coloring] = _figure3(tmp_path, _figures(2, 2),
                                       _figures(1, 1))
        # Each category over the binpacking total of 4.
        assert binpack[1:7] == ["0.500", "0.500"] + ["0.000"] * 4
        assert coloring[1:7] == ["0.250", "0.250"] + ["0.000"] * 4
        assert [binpack[-1], coloring[-1]] == [4, 2]

    def test_normalized_to_zero_baseline_is_none(self, tmp_path):
        """A spill-free baseline has nothing to normalize against; the
        old ``or 1`` fallback silently reported absolute counts as
        ratios, which inflated spill-free rows in Figure 3."""
        rows = _figure3(tmp_path, _figures(0, 0), _figures(3, 1))
        assert [row[1:7] for row in rows] == [["n/a"] * 6] * 2
        assert [row[-1] for row in rows] == [0, 4]
        # Neither allocator spilled: the benchmark has no bar at all.
        assert _figure3(tmp_path / "none", _figures(0, 0),
                        _figures(0, 0)) == []

    def test_remat_counts(self):
        from repro.stats.spill import REMAT_CATEGORIES
        counts = Counter({(SpillPhase.EVICT, SpillKind.LOAD): 1,
                          (SpillPhase.EVICT, SpillKind.STORE): 2,
                          (SpillPhase.EVICT, SpillKind.MOVE): 3,
                          (SpillPhase.EVICT, SpillKind.REMAT): 4,
                          (SpillPhase.RESOLVE, SpillKind.REMAT): 5,
                          (SpillPhase.PROLOGUE, SpillKind.STORE): 6})
        outcome = SimOutcome(output=[], result=0, dynamic_instructions=100,
                             cycles=100, op_counts=Counter(),
                             spill_counts=counts)
        figures = quality_figures(outcome)
        assert figures["total_spill"] == 6 + 9  # prologue excluded
        for (phase, kind), want in zip(REMAT_CATEGORIES, (4, 5)):
            assert figures["spill_categories"][
                f"{phase.value}.{kind.value}"] == want



@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_one_spill_tally(name):
    """Every analog run on alpha and tiny 8x8, under each allocator with
    remat off and on: the total ``quality_figures`` records is the
    outcome's own tally and the sum of its categories, and Table 2's
    fraction of the record is the one ``repro compare`` prints."""
    runs = 0
    for machine in (alpha(), tiny(8, 8)):
        try:
            module = build_program(name, machine)
        except LoweringError:
            continue  # more parameters than tiny has argument registers
        session = CompilationSession(module, machine)
        for allocator in ALLOCATOR_FACTORIES:
            for remat in (False, True):
                outcome = session.checked_run(
                    make_allocator(allocator),
                    context=AllocationContext(remat=remat)).outcome
                figures = quality_figures(outcome)
                assert (figures["total_spill"] == outcome.spill_instructions
                        == sum(figures["spill_categories"].values()))
                assert _fraction(figures) == outcome.spill_fraction()
                runs += 1
    assert runs >= 8

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
