"""Report rendering and run-to-run diffs over hand-built stores.

The renderers are pure functions of store records, so they can be tested
against tiny synthetic stores — no allocation, no simulation.  The
benchmark wrappers exercise the same renderers against real cells; here
we pin the plumbing: missing-cell errors and diff semantics.
"""

from __future__ import annotations

import pytest

from repro.results.report import (MissingCells, diff_runs, render_figure3,
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
