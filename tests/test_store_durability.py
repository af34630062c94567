"""Crash safety and multi-writer durability of the result store.

The allocation server (docs/SERVING.md) made these paths load-bearing:
a long-running service and the CLI now routinely share one store
directory, and a crashed server run must never poison the cache that
survives it.  These tests pin the contract:

* the segments are the only index: no ``index.json`` is written, and
  one left over from an older store is never read;
* a torn final JSONL line (a writer killed mid-append) is skipped with
  a warning, and committed records before it still load;
* ``runs.jsonl`` appends re-align after a torn tail instead of fusing
  two manifests into one unparseable line;
* concurrent processes appending to one store serialize through the
  advisory lock: unique run ids, unique seqs, cleanly parseable
  segments;
* ``kill -9`` mid-run loses nothing that ``finish_run`` committed;
* loads are incremental: a commit parses only what other writers
  appended since the store's last load, yet sees all of it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.results.store import CellKey, Record, ResultStore, read_jsonl

KEY_A = CellKey(workload="analog:wc", allocator="second-chance")
KEY_B = CellKey(workload="analog:sort", allocator="coloring")


def _commit(root, key, code_hash="h1", data=None, label="t"):
    store = ResultStore(root)
    store.begin_run(label)
    store.put(key, code_hash, data if data is not None else {"x": 1})
    store.finish_run()
    return store


# ----------------------------------------------------------------------
# No index.json: the segments are the only index.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("leftover", [
    "garbage not json {{{",
    "",                                         # truncated to nothing
    '{"schema": 1, "cells": {"half":',          # torn mid-write
    "[1, 2, 3]",                                # wrong shape entirely
], ids=["garbage", "empty", "torn", "wrong-shape"])
def test_index_json_is_neither_written_nor_read(tmp_path, leftover):
    _commit(tmp_path, KEY_A, data={"x": 41})
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".lock", "runs.jsonl", "segments"]
    # An index.json left over from an older store layout is inert.
    (tmp_path / "index.json").write_text(leftover)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened = ResultStore(tmp_path)
    assert reopened.lookup(KEY_A, "h1").data == {"x": 41}
    assert reopened.metrics.snapshot() == {"results.cells.hits": 1}
    assert (tmp_path / "index.json").read_text() == leftover


# ----------------------------------------------------------------------
# Torn JSONL tails: skip-and-warn, never raise.
# ----------------------------------------------------------------------
def test_torn_segment_tail_is_skipped(tmp_path):
    _commit(tmp_path, KEY_A, data={"x": 1})
    _commit(tmp_path, KEY_B, data={"x": 2})
    segments = sorted((tmp_path / "segments").glob("seg-*.jsonl"))
    with open(segments[-1], "a") as fh:
        fh.write('{"seq": 99, "ident": "half-a-record...')  # no newline
    with pytest.warns(UserWarning, match="torn"):
        reopened = ResultStore(tmp_path)
    assert reopened.lookup(KEY_A, "h1").data == {"x": 1}
    assert reopened.lookup(KEY_B, "h1").data == {"x": 2}
    assert reopened.metrics.get("results.load.torn_lines") == 1


def test_truncated_final_line_is_skipped(tmp_path):
    store = ResultStore(tmp_path)
    store.begin_run("two")
    store.put(KEY_A, "h1", {"x": 1})
    store.put(KEY_B, "h1", {"x": 2})
    store.finish_run()
    segment = next((tmp_path / "segments").glob("seg-*.jsonl"))
    raw = segment.read_bytes()
    segment.write_bytes(raw[:-7])  # chop mid-way through the last record
    # The reopen warns about the torn line.
    with pytest.warns(UserWarning) as caught:
        reopened = ResultStore(tmp_path)
    assert any("torn" in str(w.message) for w in caught)
    assert reopened.lookup(KEY_A, "h1") is not None
    assert reopened.peek(KEY_B) is None  # uncommitted line is simply gone


def test_runs_append_realigns_after_torn_tail(tmp_path):
    _commit(tmp_path, KEY_A, label="first")
    runs = tmp_path / "runs.jsonl"
    runs.write_bytes(runs.read_bytes() + b'{"run": "r9999", "half')
    with pytest.warns(UserWarning, match="torn"):
        _commit(tmp_path, KEY_B, label="second")
    # The torn tail is still skipped, but the new manifest landed on its
    # own line instead of fusing onto the garbage and vanishing with it.
    with pytest.warns(UserWarning, match="torn"):
        docs = list(read_jsonl(runs))
    assert [d["label"] for d in docs] == ["first", "second"]
    with pytest.warns(UserWarning, match="torn"):
        assert [d["label"] for d in ResultStore(tmp_path).runs()] \
            == ["first", "second"]


def test_read_jsonl_skips_interior_garbage_with_warning(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"a": 1}\nnot json\n{"b": 2}\n')
    with pytest.warns(UserWarning, match="torn/garbage"):
        docs = list(read_jsonl(path))
    assert docs == [{"a": 1}, {"b": 2}]


# ----------------------------------------------------------------------
# Concurrent writers.
# ----------------------------------------------------------------------
_APPENDER = """\
import sys
sys.path.insert(0, "src")
from repro.results.store import CellKey, ResultStore
root, worker, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
for i in range(count):
    store = ResultStore(root)
    store.begin_run(label=f"w{worker}")
    key = CellKey(workload=f"analog:w{worker}-{i}", allocator="second-chance")
    store.put(key, "h", {"worker": worker, "i": i})
    store.finish_run()
    print(key.ident(), flush=True)
"""


def test_multiprocess_appends_do_not_interleave(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    procs = [subprocess.Popen(
        [sys.executable, "-c", _APPENDER, str(tmp_path), str(w), "4"],
        cwd=repo, stdout=subprocess.PIPE, text=True) for w in range(3)]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    assert all(p.returncode == 0 for p in procs)
    committed = [line for out in outs for line in out.splitlines()]
    assert len(committed) == 12

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no torn lines anywhere
        store = ResultStore(tmp_path)
    records = list(store.iter_latest())
    assert {r.ident for r in records} == set(committed)
    # Seqs and run ids are globally unique despite three writers.
    seqs = sorted(r.seq for r in records)
    assert seqs == list(range(1, 13))
    assert len({doc["run"] for doc in store.runs()}) == 12
    # Every segment parses cleanly line by line.
    for segment in (tmp_path / "segments").glob("seg-*.jsonl"):
        for line in segment.read_text().splitlines():
            json.loads(line)


def test_kill9_mid_run_loses_no_committed_cells(tmp_path):
    """SIGKILL a committing writer; every cell it reported as committed
    must survive, and the store must reopen without raising."""
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-c", _APPENDER, str(tmp_path), "k", "200"],
        cwd=repo, stdout=subprocess.PIPE, text=True)
    committed: list[str] = []
    try:
        while len(committed) < 5:
            line = proc.stdout.readline()
            if not line:
                pytest.fail("writer exited before committing anything")
            committed.append(line.strip())
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        # Drain whatever made it out of the pipe before the kill landed.
        committed += [ln.strip() for ln in proc.stdout.read().splitlines()]
    finally:
        proc.stdout.close()
        if proc.poll() is None:  # pragma: no cover
            proc.kill()
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")  # a torn tail is fine; raising is not
        store = ResultStore(tmp_path)
    idents = {r.ident for r in store.iter_latest()}
    assert set(committed) <= idents
    # And the store is fully usable for the next writer.
    _commit(tmp_path, KEY_A)
    assert ResultStore(tmp_path).peek(KEY_A) is not None


def test_begin_run_sees_other_processes_records(tmp_path):
    a = ResultStore(tmp_path)
    _commit(tmp_path, KEY_A, data={"x": 7})  # a second, concurrent opener
    assert a.peek(KEY_A) is None             # not visible yet...
    a.begin_run("later")                     # ...refreshes under the lock
    try:
        assert a.lookup(KEY_A, "h1").data == {"x": 7}
    finally:
        a.abort_run()


def test_abort_run_releases_lock_and_keeps_no_manifest(tmp_path):
    store = ResultStore(tmp_path)
    store.begin_run("doomed")
    store.put(KEY_A, "h1", {"x": 1})
    store.abort_run()
    assert store.runs() == []
    # The lock is free again: a fresh begin_run must not deadlock.
    run_id = store.begin_run("next")
    store.finish_run()
    assert run_id != ""


# ----------------------------------------------------------------------
# Incremental loads: a commit reads only what is new.
# ----------------------------------------------------------------------
@pytest.fixture
def parsed(monkeypatch):
    """The seqs of every record the store parses, in order."""
    seqs: list[int] = []
    original = Record.from_json

    def counting(doc):
        seqs.append(doc["seq"])
        return original(doc)

    monkeypatch.setattr(Record, "from_json", staticmethod(counting))
    return seqs


def _key(i):
    return CellKey(workload=f"analog:n{i}", allocator="coloring")


def test_commit_parses_only_what_other_writers_appended(tmp_path, parsed):
    for i in range(8):
        _commit(tmp_path, _key(i))
    parsed.clear()
    store = ResultStore(tmp_path)
    assert parsed == list(range(1, 9))      # every open replays all
    parsed.clear()
    for i in range(8, 12):                  # nothing new from others:
        store.begin_run("own")              # nothing is parsed
        store.put(_key(i), "h1", {"i": i})
        store.finish_run()
    assert parsed == []
    other = ResultStore(tmp_path)
    other.begin_run("other")
    other.put(_key(12), "h1", {"i": 12})
    other.put(_key(13), "h1", {"i": 13})
    other.finish_run()
    _commit(tmp_path, _key(14))
    parsed.clear()
    store.begin_run("after")
    try:
        assert parsed == [13, 14, 15]       # exactly the others' records
        assert [store.peek(_key(i)).seq for i in (12, 13, 14)] \
            == [13, 14, 15]
        assert store.put(_key(15), "h1", {}).seq == 16
    finally:
        store.finish_run()


def test_second_store_commits_between_first_stores_commits(tmp_path):
    first = ResultStore(tmp_path)
    first.begin_run("a1")
    first.put(_key(1), "h1", {"by": "first"})
    first.finish_run()
    _commit(tmp_path, _key(2), data={"by": "second"})
    first.begin_run("a2")
    first.put(_key(3), "h1", {"by": "first"})
    first.finish_run()
    assert first.lookup(_key(2), "h1").data == {"by": "second"}
    for store in (first, ResultStore(tmp_path)):
        assert [doc["run"] for doc in store.runs()] \
            == ["r0001", "r0002", "r0003"]
        assert [(r.seq, r.run) for r in store.iter_latest()] \
            == [(1, "r0001"), (2, "r0002"), (3, "r0003")]


def test_segment_read_mid_run_is_read_again_after_the_run(tmp_path, parsed):
    writer = ResultStore(tmp_path)
    writer.begin_run("in-flight")
    writer.put(KEY_A, "h1", {"x": 1})
    reader = ResultStore(tmp_path)           # opens without the lock
    assert reader.peek(KEY_A) is not None
    writer.put(KEY_B, "h1", {"x": 2})
    writer.finish_run()
    parsed.clear()
    reader.begin_run("later")
    try:
        assert parsed == [2]                 # the rest, not the segment
        assert reader.lookup(KEY_B, "h1").data == {"x": 2}
        assert reader.next_run_id() == "r0003"
    finally:
        reader.abort_run()


def test_readers_beside_in_place_loads(tmp_path):
    """Lookups and iterations on other threads (serve's event loop)
    beside commits that load another writer's records in place: none
    raises, and every record they see resolves."""
    store, other = ResultStore(tmp_path), ResultStore(tmp_path)
    done = threading.Event()
    failures: list[BaseException] = []

    def read():
        try:
            while not done.is_set():
                for record in store.iter_latest():
                    assert store.peek(record.key) is record
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        for i in range(0, 80, 2):
            for writer, key in ((other, _key(i)), (store, _key(i + 1))):
                writer.begin_run("w")
                writer.put(key, "h1", {"i": i})
                writer.finish_run()
    finally:
        done.set()
        sys.setswitchinterval(interval)
        for thread in readers:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in readers)
    assert failures == []
    assert len(store) == 80
    assert sorted(r.seq for r in store.iter_latest()) == list(range(1, 81))


def test_unterminated_manifest_is_read_once_it_is_whole(tmp_path):
    _commit(tmp_path, KEY_A, label="first")
    runs = tmp_path / "runs.jsonl"
    line = json.dumps({"run": "r0009", "label": "late", "cells": {},
                       "stats": {}}, sort_keys=True)
    with open(runs, "a") as fh:
        fh.write(line[:10])
    with pytest.warns(UserWarning, match="torn"):
        store = ResultStore(tmp_path)
    assert store.metrics.get("results.load.torn_lines") == 1
    assert [doc["label"] for doc in store.runs()] == ["first"]
    with open(runs, "a") as fh:
        fh.write(line[10:] + "\n")
    store.begin_run("next")
    store.finish_run()
    assert [doc["label"] for doc in store.runs()] == ["first", "late", "next"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ResultStore(tmp_path).runs() == store.runs()


_KEY_STABILITY_PROBE = """\
import json, sys
sys.path.insert(0, "src")
from repro.results.store import CellKey
key = CellKey(workload="serve:abc123", allocator="coloring",
              machine="tiny:6x6", context="remat", kind="serve")
print(json.dumps(key.ident()))
"""


def test_serve_cell_ident_stable_across_hashseed():
    repo = Path(__file__).resolve().parent.parent
    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _KEY_STABILITY_PROBE],
                              capture_output=True, text=True, env=env,
                              cwd=repo)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
