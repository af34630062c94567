"""The result store: keys, content-addressing, persistence, metering.

These tests pin down the properties the observability layer leans on:

* cell idents and content hashes are pure functions of their inputs —
  stable across processes and ``PYTHONHASHSEED`` values, insensitive to
  option spelling order;
* records survive a close/reopen round-trip byte-for-byte and hit only
  while their code hash still matches (a changed hash is an
  *invalidation*, metered separately);
* the suite runner computes a cell exactly once: the second invocation
  over the same specs is pure cache hits;
* parallel and serial suite runs commit identical store contents.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.results.store import (CellKey, Record, ResultStore, content_hash,
                                 store_path)
from repro.results.suite import (SuiteError, cell_code_hash, dedup_specs,
                                 run_suite)

KEY = CellKey(workload="analog:wc", allocator="second-chance",
              options=(("use_holes", False), ("move_elimination", False)))


def test_ident_is_spelling_insensitive():
    flipped = CellKey(workload="analog:wc", allocator="second-chance",
                      options=(("move_elimination", False),
                               ("use_holes", False)))
    assert KEY.ident() == flipped.ident()
    assert KEY == flipped


def test_ident_distinguishes_every_coordinate():
    idents = {KEY.ident(),
              CellKey("analog:wc", "second-chance").ident(),
              CellKey("analog:wc", "coloring").ident(),
              CellKey("analog:wc", "coloring", machine="tiny:8x8").ident(),
              CellKey("analog:wc", "coloring", order="rpo").ident(),
              CellKey("analog:wc", "coloring", kind="timing",
                      reps=3).ident(),
              CellKey("analog:wc", "coloring", spill_cleanup=True).ident()}
    assert len(idents) == 7


def test_key_json_round_trip():
    assert CellKey.from_json(KEY.to_json()) == KEY
    # And via an actual JSON wire format, as the batch workers use it.
    assert CellKey.from_json(json.loads(json.dumps(KEY.to_json()))) == KEY


_HASHSEED_PROBE = """\
import json, sys
sys.path.insert(0, "src")
from repro.results.store import CellKey, content_hash
key = CellKey(workload="analog:wc", allocator="second-chance",
              options=(("use_holes", False), ("move_elimination", False)))
print(json.dumps([key.ident(), content_hash("text", "alpha/gpr=27/fpr=32")]))
"""


def test_ident_and_hash_stable_across_hashseed():
    """Neither idents nor content hashes may depend on Python's
    per-process string-hash randomization (they are persisted)."""
    outs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _HASHSEED_PROBE],
                              capture_output=True, text=True, env=env,
                              cwd=os.path.dirname(os.path.dirname(
                                  os.path.abspath(__file__))))
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    assert outs[0][0] == KEY.ident()


def test_content_hash_boundaries_matter():
    assert content_hash("ab", "c") != content_hash("a", "bc")
    assert content_hash("x") != content_hash("x", "")


def test_store_path_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    assert store_path(tmp_path) == tmp_path
    monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env"))
    assert store_path() == tmp_path / "env"
    assert store_path(tmp_path) == tmp_path  # explicit arg wins


def _put_one(root, key=KEY, code_hash="h1", data=None, label="t"):
    store = ResultStore(root)
    store.begin_run(label)
    store.put(key, code_hash, data if data is not None else {"x": 1})
    store.finish_run()
    return store


def test_round_trip_across_reopen(tmp_path):
    _put_one(tmp_path, data={"dynamic_instructions": 42, "nested": {"a": 1}})
    reopened = ResultStore(tmp_path)
    assert len(reopened) == 1
    record = reopened.lookup(KEY, "h1")
    assert record is not None
    assert record.data == {"dynamic_instructions": 42, "nested": {"a": 1}}
    assert reopened.metrics.get("results.cells.hits") == 1


def test_lookup_miss_and_invalidation(tmp_path):
    store = _put_one(tmp_path)
    # Absent cell: silent miss, no metric.
    other = CellKey("analog:sort", "coloring")
    assert store.lookup(other, "h1") is None
    # Stale code hash: invalidation, metered.
    assert store.lookup(KEY, "h2") is None
    assert store.metrics.get("results.cells.invalidated") == 1
    # peek ignores the hash entirely (reporting reads the store as-is).
    assert store.peek(KEY) is not None


def test_newest_record_wins(tmp_path):
    _put_one(tmp_path, code_hash="h1", data={"x": 1})
    store = ResultStore(tmp_path)
    store.begin_run("second")
    store.put(KEY, "h2", {"x": 2})
    store.finish_run()
    reopened = ResultStore(tmp_path)
    assert reopened.lookup(KEY, "h2").data == {"x": 2}
    assert reopened.lookup(KEY, "h1") is None          # old hash is stale
    assert [r.data["x"] for r in reopened.history(KEY)] == [1, 2]


def test_run_manifests_and_ids(tmp_path):
    store = _put_one(tmp_path, label="first")
    assert store.next_run_id() == "r0002"
    manifest = store.manifest("r0001")
    assert manifest is not None and manifest["label"] == "first"
    assert list(manifest["cells"]) == [KEY.ident()]
    # Segments are append-only: one file per run.
    store.begin_run("second")
    store.note_hit(KEY, store.peek(KEY))
    store.finish_run({"hits": 1})
    assert len(list((tmp_path / "segments").glob("seg-*.jsonl"))) == 2
    assert ResultStore(tmp_path).manifest("r0002")["stats"] == {"hits": 1}


def test_schema_mismatch_records_are_ignored(tmp_path):
    _put_one(tmp_path)
    stale = Record(seq=99, run="r0001", ident=KEY.ident(), code_hash="h1",
                   key=KEY, data={"x": 9}, schema=0)
    with open(tmp_path / "segments" / "seg-r0001.jsonl", "a") as fh:
        fh.write(json.dumps(stale.to_json()) + "\n")
    reopened = ResultStore(tmp_path)
    assert reopened.peek(KEY).data == {"x": 1}


def test_iter_latest_is_a_snapshot(tmp_path):
    """A put between two steps of an iteration (a serve commit beside a
    ``stats`` request) does not break it: the iteration sees the store
    as it was when it began."""
    store = _put_one(tmp_path)
    store.begin_run("during")
    try:
        it = store.iter_latest()
        assert next(it).ident == KEY.ident()
        store.put(CellKey("analog:sort", "coloring"), "h1", {"x": 2})
        assert list(it) == []
    finally:
        store.finish_run()
    assert len(list(store.iter_latest())) == 2


def test_metrics_snapshot_restore_round_trip():
    registry = MetricsRegistry()
    registry.bump("a.b")
    registry.bump("a.b")
    registry.bump("c.d", 2.5)
    snap = registry.snapshot()
    registry.bump("a.b")
    assert registry.restore(snap) is registry
    assert registry.snapshot() == snap == {"a.b": 2, "c.d": 2.5}
    # restore() copies: mutating the registry leaves the snapshot alone.
    registry.bump("a.b")
    assert snap["a.b"] == 2


# ----------------------------------------------------------------------
# The suite runner against a real (tiny) workload.
# ----------------------------------------------------------------------
TINY_SPECS = dedup_specs([
    CellKey(workload="analog:wc", allocator="two-pass", machine="tiny:8x8"),
    CellKey(workload="analog:wc", allocator="second-chance",
            machine="tiny:8x8"),
])


def test_suite_second_run_is_pure_hits(tmp_path):
    store = ResultStore(tmp_path)
    first = run_suite(TINY_SPECS, store, jobs=1, label="first")
    assert (first.cells, first.computed, first.hits) == (2, 2, 0)
    # Same store object *and* a fresh open must both be pure hits.
    second = run_suite(TINY_SPECS, store, jobs=1, label="second")
    assert (second.computed, second.hits) == (0, 2)
    reopened = ResultStore(tmp_path)
    third = run_suite(TINY_SPECS, reopened, jobs=1, label="third")
    assert (third.computed, third.hits) == (0, 2)
    assert reopened.metrics.get("results.cells.hits") == 2
    # The quality payload carries the joined observability data.
    record = reopened.peek(TINY_SPECS[0])
    assert record.data["dynamic_instructions"] > 0
    assert record.data["metrics"]
    assert "profile" in record.data


def test_suite_invalidates_on_code_hash_change(tmp_path):
    store = ResultStore(tmp_path)
    run_suite(TINY_SPECS[:1], store, jobs=1)
    # Rewrite the stored record with a stale hash, as if the workload
    # generator changed underneath the store.
    record = store.peek(TINY_SPECS[0])
    store.begin_run("tamper")
    store.put(record.key, "stale" + record.code_hash[5:], record.data)
    store.finish_run()
    outcome = run_suite(TINY_SPECS[:1], store, jobs=1)
    assert (outcome.computed, outcome.invalidated) == (1, 1)
    # And the recompute restored the true hash.
    assert store.peek(TINY_SPECS[0]).code_hash == record.code_hash


def test_cell_code_hash_tracks_workload_and_machine():
    from repro.results.suite import build_workload, machine_signature

    module, machine = build_workload("analog:wc", "tiny:8x8", "layout")
    from repro.ir.printer import print_module
    text = print_module(module)
    h = cell_code_hash(text, machine)
    assert h == cell_code_hash(text, machine)
    assert h != cell_code_hash(text + "\n; edited", machine)
    other = build_workload("analog:wc", "tiny:4x4", "layout")[1]
    assert machine_signature(machine) != machine_signature(other)
    assert h != cell_code_hash(text, other)


@pytest.mark.parametrize("spec", ["tiny:3x4", "tiny:33x4", "tiny:8", "vax"])
def test_suite_names_the_cell_of_a_bad_machine_spec(tmp_path, spec):
    cell = CellKey("analog:wc", "second-chance", machine=spec)
    with pytest.raises(SuiteError) as err:
        run_suite([cell], ResultStore(tmp_path))
    assert str(err.value).startswith(f"{cell.ident()}: ")
