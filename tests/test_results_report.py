"""Report rendering and run-to-run diffs over hand-built stores.

The renderers are pure functions of store records, so they can be tested
against tiny synthetic stores — no allocation, no simulation.  The
benchmark wrappers exercise the same renderers against real cells; here
we pin the plumbing: missing-cell errors, diff semantics, trajectory
folding, and the perf-bench trajectory-file auto-naming.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.results.report import (MissingCells, bench_points, diff_runs,
                                  render_figure3, render_perf_trajectory,
                                  render_runs, render_table1, render_table2,
                                  table1_rows)
from repro.results.store import CellKey, ResultStore

NAMES = ["alpha-prog", "beta-prog"]


def _quality_data(instrs: int, spill: int = 0, sha: str = "aa") -> dict:
    categories = {key: 0 for key in ("evict.load", "evict.store",
                                     "evict.move", "resolve.load",
                                     "resolve.store", "resolve.move")}
    categories["evict.load"] = spill
    return {"dynamic_instructions": instrs, "cycles": instrs + 7,
            "result": 1, "total_spill": spill,
            "spill_categories": categories, "allocated_sha": sha}


def _seed_store(root, scale=1.0) -> ResultStore:
    store = ResultStore(root)
    store.begin_run("seed")
    for i, name in enumerate(NAMES):
        base = 1000 * (i + 1)
        store.put(CellKey(f"analog:{name}", "second-chance"), "h",
                  _quality_data(int(base * scale), spill=10 * (i + 1)))
        store.put(CellKey(f"analog:{name}", "coloring"), "h",
                  _quality_data(base, spill=0))
    store.finish_run({"cells": 4, "computed": 4, "hits": 0,
                      "invalidated": 0})
    return store


def test_table_renderers_on_synthetic_cells(tmp_path):
    store = _seed_store(tmp_path, scale=1.1)
    rows = table1_rows(store, NAMES)
    assert [row[0] for row in rows] == NAMES
    assert all(abs(row[3] - 1.1) < 1e-9 for row in rows)
    text = render_table1(store, NAMES)
    assert "Table 1" in text and "alpha-prog" in text
    assert "0.909%" in render_table2(store, NAMES)  # 10 / 1100
    figure = render_figure3(store, NAMES)
    assert "alpha-prog-b" in figure and "evict.loads" in figure


def test_missing_cells_is_a_clear_error(tmp_path):
    store = _seed_store(tmp_path)
    with pytest.raises(MissingCells) as exc:
        table1_rows(store, NAMES + ["gamma-prog"])
    assert "gamma-prog" in str(exc.value)
    assert "repro suite" in str(exc.value)


def test_diff_runs_reports_moved_values(tmp_path):
    store = _seed_store(tmp_path)
    store.begin_run("second")
    # One cell regresses by 2x, the rest carry over as hits.
    key = CellKey(f"analog:{NAMES[0]}", "second-chance")
    store.put(key, "h", _quality_data(2000, spill=10, sha="bb"))
    for name in NAMES:
        for allocator in ("second-chance", "coloring"):
            other = CellKey(f"analog:{name}", allocator)
            if other.ident() != key.ident():
                store.note_hit(other, store.peek(other))
    store.finish_run({"cells": 4, "computed": 1, "hits": 3,
                      "invalidated": 0})

    text = diff_runs(store, "r0001", "r0002")
    assert "4 shared cell(s), 3 identical" in text
    assert "dynamic_instructions" in text and "2.000" in text
    assert "allocated_sha" in text  # the hash moved too
    with pytest.raises(LookupError):
        diff_runs(store, "r0001", "r9999")
    runs = render_runs(store)
    assert "r0001" in runs and "r0002" in runs and "seed" in runs


def test_perf_trajectory_folds_bench_files_and_store(tmp_path):
    doc = {"before": {"mode": "full", "groups": {"sim": 2.0}},
           "after": {"mode": "full", "groups": {"sim": 1.0}},
           "speedup": {"sim": 2.0}}
    (tmp_path / "BENCH_1.json").write_text(json.dumps(doc))
    store = ResultStore(tmp_path / "store")
    store.begin_run("perf-bench")
    store.put(CellKey("perf:quick", "suite", machine="host", kind="perf",
                      reps=1),
              "h", {"mode": "quick", "groups": {"sim": 0.5}})
    store.finish_run()
    text = render_perf_trajectory(store, tmp_path)
    assert "BENCH_1.json" in text and "store:r0001" in text
    assert "2.00x" in text
    empty = render_perf_trajectory(None, tmp_path / "nowhere")
    assert "no BENCH_*.json" in empty


def test_perf_trajectory_renders_sim_cells(tmp_path):
    """The per-cell sim table follows each sim.* benchmark across points
    and computes per-cell speedups where both phases exist."""
    doc = {"before": {"mode": "full", "groups": {"sim": 2.0},
                      "benchmarks": {"sim.wc": {"median_s": 2.0, "reps": 3},
                                     "e2e.doduc": {"median_s": 1.0,
                                                   "reps": 3}}},
           "after": {"mode": "full", "groups": {"sim": 0.5},
                     "benchmarks": {"sim.wc": {"median_s": 0.5, "reps": 3}}}}
    (tmp_path / "BENCH_2.json").write_text(json.dumps(doc))
    text = render_perf_trajectory(None, tmp_path)
    assert "Simulator trajectory" in text
    assert "sim.wc (ms)" in text
    assert "4.00x" in text
    # e2e cells stay out of the sim detail table.
    assert "e2e.doduc (ms)" not in text


def test_perf_trajectory_skips_non_numeric_bench_files(tmp_path):
    """Only ``BENCH_<n>.json`` files are trajectory points; a soak
    document saved as ``BENCH_soak.json`` must not break the report."""
    doc = {"before": {"mode": "full", "groups": {"sim": 2.0}},
           "after": {"mode": "full", "groups": {"sim": 1.0}}}
    (tmp_path / "BENCH_10.json").write_text(json.dumps(doc))
    (tmp_path / "BENCH_2.json").write_text(json.dumps(doc))
    (tmp_path / "BENCH_soak.json").write_text(json.dumps(doc))
    assert [n for n, _ in bench_points(tmp_path)] == [2, 10]
    text = render_perf_trajectory(None, tmp_path)
    assert text.index("BENCH_2.json") < text.index("BENCH_10.json")
    assert "BENCH_soak.json" not in text


def _load_perf_bench():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perf_bench", root / "tools" / "perf_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perf_bench_auto_record_naming(tmp_path):
    perf_bench = _load_perf_bench()
    resolve = perf_bench.resolve_record_path
    # Empty repo: both phases start BENCH_1.
    assert resolve("auto", "before", tmp_path).endswith("BENCH_1.json")
    assert resolve("auto", "after", tmp_path).endswith("BENCH_1.json")
    (tmp_path / "BENCH_2.json").write_text("{}")
    (tmp_path / "BENCH_10.json").write_text("{}")  # numeric, not lexical
    assert resolve("auto", "before", tmp_path).endswith("BENCH_11.json")
    assert resolve("auto", "after", tmp_path).endswith("BENCH_10.json")
    # Explicit paths pass through untouched.
    assert resolve("BENCH_7.json", "before", tmp_path) == "BENCH_7.json"


def test_perf_bench_check_reads_store_baselines(tmp_path, capsys):
    perf_bench = _load_perf_bench()
    run = {"schema": 1, "mode": "quick", "reps": 1,
           "benchmarks": {"sim.wc": {"median_s": 0.010, "reps": 1},
                          "lifetimes": {"median_s": 0.020, "reps": 1}},
           "groups": {"sim": 0.010, "lifetimes": 0.020}}
    perf_bench.store_run(str(tmp_path), run)
    baseline = perf_bench._load_baseline(str(tmp_path))
    assert baseline["benchmarks"] == run["benchmarks"]
    # A matching run checks clean against its own recorded medians.
    failures = perf_bench.check_against(str(tmp_path), run, 1.5)
    assert failures == []
    # A store with no perf records is an explicit error.
    with pytest.raises(FileNotFoundError):
        perf_bench._load_baseline(str(tmp_path / "empty"))
