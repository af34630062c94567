"""The persistent result store: content-addressed, append-only run records.

Every observable the evaluation reports — a Table 1 quality cell, a
Table 3 timing cell, a perf-bench run — is one *record* in this store.
Records live in append-only JSONL segment files (one segment per suite
invocation); on open, the store maps each logical *cell* to its newest
record:

* **cell key** (:class:`CellKey`) — the coordinates of one measurement:
  workload (``analog:doduc``, ``synthetic:6218``, ``fuzz:7``), block
  order, machine, allocator, :class:`BinpackOptions` deviations from the
  defaults, pipeline flags, and the record kind (``quality`` /
  ``timing`` / ``serve``).  The key is pure data and its :meth:`ident`
  string is stable across processes and ``PYTHONHASHSEED`` values.
* **code hash** — a SHA-256 over the workload's printed IR and the
  machine signature.  A record only *hits* when its stored code hash
  matches the current one; a mismatch (the generator changed, an analog
  was edited, ``BinpackOptions`` semantics moved the printed module)
  counts as an invalidation and forces a recompute.  This is what makes
  re-runs touch only what changed.

Store layout (all plain JSON, ``sort_keys=True`` everywhere so the files
are byte-stable)::

    <root>/segments/seg-r0001.jsonl   one record per line, append-only
    <root>/runs.jsonl                 one manifest per suite invocation
    <root>/.lock                      advisory flock for cross-process runs

Durability contract (what a ``kill -9`` can and cannot lose):

* **Commit point = ``finish_run``** — the segment, ``runs.jsonl`` and
  both directories holding them are flushed *and* ``fsync``'d there, so
  a finished run is never lost.
* A crash *mid-append* can leave a torn final JSONL line; loading
  skips it with a warning (``results.load.torn_lines``) instead of
  raising, and appends re-align on a fresh line.
* Concurrent writers (a server and a CLI sharing one cache directory)
  are serialized by an advisory ``fcntl.flock`` held from
  :meth:`begin_run` to :meth:`finish_run`; ``begin_run`` catches up
  with the store under the lock, so run ids and record seqs stay unique
  across processes.

Load contract (what a load reads): every open replays every segment and
``runs.jsonl`` — the segments stay the only index — but a store object
then loads *incrementally*, so a commit costs what was appended since
its last load, not the size of the store:

* ``runs.jsonl`` is read from a remembered byte offset, which moves
  only past newline-terminated lines; an unterminated tail is warned
  about and metered (``results.load.torn_lines``) but never consumed,
  so a later load reads it again once it is whole (or garbage).
* ``segments/`` is listed once per load, by name.  A segment is *final*
  once it has been read under the lock, or once its run's manifest was
  read before it: only its own run appends to a segment, run ids are
  never reused, and a run's segment is fsync'd and closed before its
  manifest is written.  Final segments are never read again; any other
  segment (one read at open, without the lock, that may belong to a run
  still in flight) is read on from its remembered offset, under the same
  newline rule.
* A load updates the in-memory maps in place, inserting each record
  before the newest-record index points at it, so a lookup on another
  thread never sees a dangling seq; :meth:`ResultStore.iter_latest`
  iterates a snapshot.

Store behaviour is metered through :mod:`repro.obs.metrics` as
``results.cells.computed`` / ``.hits`` / ``.invalidated`` (plus
``results.load.torn_lines`` for the crash-recovery path).

See ``docs/REPORTING.md`` for the record schema and a cookbook.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

try:                                    # POSIX only; the store degrades to
    import fcntl                        # lockless on other platforms.
except ImportError:                     # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.obs.metrics import MetricsRegistry

#: Bumped when the record layout changes incompatibly; old records then
#: simply never hit and are recomputed into new segments.
SCHEMA_VERSION = 1

#: Environment override for the default store location.
STORE_ENV = "REPRO_RESULT_STORE"

#: The default store root, relative to the working directory (the repo
#: root in every documented workflow).
DEFAULT_STORE = Path("benchmarks") / "results" / "store"


def store_path(root: str | os.PathLike | None = None) -> Path:
    """Resolve the store root: explicit arg, ``$REPRO_RESULT_STORE``,
    then the checked-in default under ``benchmarks/results/store``."""
    if root is not None:
        return Path(root)
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env)
    return DEFAULT_STORE


def _fsync(handle) -> None:
    """Flush ``handle`` down to the disk (a commit-point barrier)."""
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: Path) -> None:
    """Fsync a directory so a just-renamed/created entry survives a
    crash (no-op where directories cannot be opened, e.g. Windows)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _torn(path: Path, position: int, what: str,
          metrics: MetricsRegistry | None) -> None:
    warnings.warn(f"{path} (byte {position}): skipping {what}",
                  stacklevel=3)
    if metrics is not None:
        metrics.bump("results.load.torn_lines")


def _read_jsonl_from(path: Path, offset: int = 0, *,
                    metrics: MetricsRegistry | None = None,
                    ) -> tuple[list[dict], int]:
    """The JSON documents of ``path``'s complete lines from byte
    ``offset`` on, and the offset just past the last complete line.

    A process killed mid-append (crash, ``kill -9``, full disk) leaves a
    partial final line; that line was never committed, so it is skipped
    with a :class:`UserWarning` (and metered as
    ``results.load.torn_lines``) instead of poisoning every later load
    with ``json.JSONDecodeError``.  It is never consumed either: the
    returned offset stops before it, so a reader that resumes there sees
    the line again once a newline ends it.  Garbage on *complete* lines
    gets the same skip-and-warn — recovery over refusal — and is
    consumed, so silent corruption never goes unnoticed or repeats.
    A missing file reads as empty.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], offset
    end = data.rfind(b"\n") + 1
    docs = []
    position = offset
    for line in data[:end].split(b"\n")[:-1]:
        if line.strip():
            try:
                doc = json.loads(line)
            except ValueError:
                _torn(path, position, f"torn/garbage JSONL line "
                      f"({len(line) + 1} bytes)", metrics)
            else:
                if isinstance(doc, dict):
                    docs.append(doc)
                else:
                    _torn(path, position, "non-object JSONL line", metrics)
        position += len(line) + 1
    if data[end:].strip():
        _torn(path, position, f"torn JSONL tail ({len(data) - end} "
              f"bytes, no newline)", metrics)
    return docs, offset + end


def read_jsonl(path: Path, *, metrics: MetricsRegistry | None = None,
               ) -> Iterator[dict]:
    """The JSON documents of one whole JSONL file, tolerating a torn
    tail and garbage lines (see :func:`_read_jsonl_from`)."""
    return iter(_read_jsonl_from(path, metrics=metrics)[0])


class StoreLock:
    """A re-entrant advisory lock over one store root.

    ``flock`` serializes *processes*; the depth counter makes nested
    acquisitions within one store object free.  On platforms without
    ``fcntl`` the lock degrades to a no-op — single-process use stays
    correct, and every documented multi-writer workflow runs on POSIX.
    """

    def __init__(self, root: Path):
        self._path = Path(root) / ".lock"
        self._handle = None
        self._depth = 0

    def __enter__(self) -> "StoreLock":
        if self._depth == 0 and fcntl is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth == 0 and self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None


def content_hash(*parts: str) -> str:
    """SHA-256 over ``parts`` (joined with NUL so boundaries matter)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class CellKey:
    """The coordinates of one measurement cell.

    ``options`` holds only the :class:`BinpackOptions` fields that
    *differ* from the defaults, as a sorted tuple of ``(name, value)``
    pairs, so semantically identical configurations always produce the
    same key no matter how they were spelled.
    """

    workload: str              # "analog:doduc" | "synthetic:6218" | "fuzz:7"
    allocator: str             # allocator registry name ("second-chance", ...)
    machine: str = "alpha"     # "alpha" | "tiny:8x8" | "auto" (fuzz-derived)
    options: tuple[tuple[str, Any], ...] = ()
    spill_cleanup: bool = False
    order: str = "layout"      # block order: layout | rpo | scrambled
    kind: str = "quality"      # quality | timing | serve
    reps: int = 0              # timing cells: repetitions the medians cover
    #: The allocation context as its canonical compact string
    #: (``AllocationContext.describe()`` — e.g. ``"remat"`` or
    #: ``"stress=shuffle,seed=7"``); empty for the paper's default.
    context: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "options",
                           tuple(sorted((str(k), v) for k, v in self.options)))

    def ident(self) -> str:
        """The stable index string for this cell (no hashing involved,
        so it is also human-greppable in the segment files).  The
        context suffix appears only for non-default contexts, so every
        pre-existing record keeps its ident — and its cache hits."""
        opts = ",".join(f"{k}={v}" for k, v in self.options) or "-"
        ctx = f"|ctx={self.context}" if self.context else ""
        return (f"{self.kind}|{self.workload}|{self.order}|{self.machine}"
                f"|{self.allocator}|{opts}"
                f"|cleanup={int(self.spill_cleanup)}|reps={self.reps}{ctx}")

    def to_json(self) -> dict:
        doc = {
            "workload": self.workload,
            "allocator": self.allocator,
            "machine": self.machine,
            "options": [[k, v] for k, v in self.options],
            "spill_cleanup": self.spill_cleanup,
            "order": self.order,
            "kind": self.kind,
            "reps": self.reps,
        }
        if self.context:
            doc["context"] = self.context
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "CellKey":
        return cls(workload=doc["workload"], allocator=doc["allocator"],
                   machine=doc["machine"],
                   options=tuple((k, v) for k, v in doc["options"]),
                   spill_cleanup=doc["spill_cleanup"], order=doc["order"],
                   kind=doc["kind"], reps=doc["reps"],
                   context=doc.get("context", ""))


@dataclass
class Record:
    """One stored measurement: a key, the code hash it was computed
    against, and the measurement payload."""

    seq: int
    run: str
    ident: str
    code_hash: str
    key: CellKey
    data: dict[str, Any]
    schema: int = SCHEMA_VERSION

    def to_json(self) -> dict:
        return {"seq": self.seq, "run": self.run, "ident": self.ident,
                "code_hash": self.code_hash, "key": self.key.to_json(),
                "data": self.data, "schema": self.schema}

    @classmethod
    def from_json(cls, doc: dict) -> "Record":
        return cls(seq=doc["seq"], run=doc["run"], ident=doc["ident"],
                   code_hash=doc["code_hash"],
                   key=CellKey.from_json(doc["key"]), data=doc["data"],
                   schema=doc.get("schema", 0))


class ResultStore:
    """Append-only store of measurement records under one root directory.

    Opening a store scans its segment files (newest record per cell
    wins) and rewrites nothing; every mutation is an append.  Later
    loads (:meth:`begin_run`) read only what is new — see the load
    contract in the module docstring.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 metrics: MetricsRegistry | None = None):
        self.root = store_path(root)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._records: dict[int, Record] = {}       # seq -> record
        self._latest: dict[str, int] = {}           # ident -> newest seq
        self._runs: list[dict] = []                 # manifests, oldest first
        self._committed: set[str] = set()           # run ids of _runs
        self._runs_offset = 0                       # runs.jsonl bytes read
        self._listed: set[str] = set()              # segments/ at last load
        self._unfinished: dict[str, int] = {}       # segment -> bytes read
        self._next_seq = 1
        self._open_segment = None                   # (run_id, file handle)
        self._lock = StoreLock(self.root)
        self._load(locked=False)

    # ------------------------------------------------------------------
    # Loading.
    # ------------------------------------------------------------------
    @property
    def segments_dir(self) -> Path:
        return self.root / "segments"

    def _load(self, *, locked: bool) -> None:
        """Catch the in-memory state up with the files: manifests past
        the ``runs.jsonl`` offset, then the segments that are new in
        this listing of ``segments/`` or were not final when last read.

        Manifests are read first, so a segment whose manifest was seen
        is complete when it is read, and final.  ``locked`` says the
        caller holds the store lock: no other run can then be in flight,
        so every segment read is final.
        """
        docs, self._runs_offset = _read_jsonl_from(
            self.root / "runs.jsonl", self._runs_offset, metrics=self.metrics)
        for doc in docs:
            self._runs.append(doc)
            self._committed.add(doc["run"])
        try:
            listed = set(os.listdir(self.segments_dir))
        except FileNotFoundError:
            listed = set()
        for name in sorted((listed - self._listed) | self._unfinished.keys()):
            if not (name.startswith("seg-") and name.endswith(".jsonl")):
                continue
            docs, offset = _read_jsonl_from(
                self.segments_dir / name, self._unfinished.pop(name, 0),
                metrics=self.metrics)
            for doc in docs:
                record = Record.from_json(doc)
                if record.schema == SCHEMA_VERSION:
                    self._add(record)
            if not (locked or name[len("seg-"):-len(".jsonl")]
                    in self._committed):
                self._unfinished[name] = offset
        self._listed = listed

    def _add(self, record: Record) -> None:
        # The record goes in before _latest can point at it: lookups run
        # on other threads without the lock.
        self._records[record.seq] = record
        if self._latest.get(record.ident, 0) <= record.seq:
            self._latest[record.ident] = record.seq
        self._next_seq = max(self._next_seq, record.seq + 1)

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._latest)

    def lookup(self, key: CellKey, code_hash: str) -> Record | None:
        """The newest record for ``key`` if its code hash still matches.

        A match is a *hit* (``results.cells.hits``); a stale hash is an
        *invalidation* (``results.cells.invalidated``) and returns
        ``None`` so the caller recomputes.  An absent cell is silent —
        the suite runner counts the compute itself.
        """
        seq = self._latest.get(key.ident())
        if seq is None:
            return None
        record = self._records[seq]
        if record.code_hash != code_hash:
            self.metrics.bump("results.cells.invalidated")
            return None
        self.metrics.bump("results.cells.hits")
        return record

    def peek(self, key: CellKey) -> Record | None:
        """The newest record for ``key`` regardless of code hash
        (reporting reads the store as-is; only *execution* revalidates)."""
        seq = self._latest.get(key.ident())
        return self._records[seq] if seq is not None else None

    def record(self, seq: int) -> Record | None:
        return self._records.get(seq)

    def history(self, key: CellKey) -> list[Record]:
        """Every stored record for ``key``, oldest first (the append-only
        log is the trajectory; perf records use this)."""
        ident = key.ident()
        return sorted((r for r in self._records.values()
                       if r.ident == ident), key=lambda r: r.seq)

    def iter_latest(self) -> Iterator[Record]:
        """Newest record of every cell, in first-seen order, as of the
        call: a snapshot, so a commit on another thread (or a ``put``
        between two steps) cannot break the iteration."""
        records = self._records
        return iter([records[seq] for seq in list(self._latest.values())])

    def runs(self) -> list[dict]:
        """Run manifests, oldest first."""
        return list(self._runs)

    def manifest(self, run_id: str) -> dict | None:
        for doc in self._runs:
            if doc["run"] == run_id:
                return doc
        return None

    # ------------------------------------------------------------------
    # Writing (append-only).
    # ------------------------------------------------------------------
    def next_run_id(self) -> str:
        """The first run id not yet claimed by a manifest *or* a segment
        file in the last load's listing (a crashed run may have left a
        segment with no manifest)."""
        n = len(self._runs) + 1
        while (run_id := f"r{n:04d}") in self._committed \
                or f"seg-{run_id}.jsonl" in self._listed:
            n += 1
        return run_id

    def begin_run(self, label: str = "") -> str:
        """Open a new segment for one suite invocation's records.

        Takes the store's exclusive advisory lock (held until
        :meth:`finish_run` / :meth:`abort_run`), then loads what other
        writers appended since our last load, so their records become
        visible and the new run's id and seq numbers are globally
        unique.  Concurrent writers therefore serialize per run, never
        interleave within a segment.

        The load is incremental: ``runs.jsonl`` from its remembered
        offset, new segments, and the unread tails of segments that were
        not final when last read — never a segment already read under
        the lock, nor this store's own.  A commit therefore costs what
        was appended since the last one, not the size of the store.
        """
        if self._open_segment is not None:
            raise RuntimeError("a run is already open on this store")
        self._lock.__enter__()
        try:
            self._load(locked=True)
            run_id = self.next_run_id()
            self.segments_dir.mkdir(parents=True, exist_ok=True)
            name = f"seg-{run_id}.jsonl"
            handle = open(self.segments_dir / name, "a")
        except BaseException:
            self._lock.__exit__(None, None, None)
            raise
        self._listed.add(name)              # final: put() adds its records
        self._open_segment = (run_id, handle, label, {})
        return run_id

    def put(self, key: CellKey, code_hash: str, data: dict) -> Record:
        """Append one computed record to the open run's segment."""
        if self._open_segment is None:
            raise RuntimeError("begin_run() before put()")
        run_id, handle, _label, cells = self._open_segment
        record = Record(seq=self._next_seq, run=run_id, ident=key.ident(),
                        code_hash=code_hash, key=key, data=data)
        handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
        handle.flush()
        self._add(record)
        cells[record.ident] = record.seq
        self.metrics.bump("results.cells.computed")
        return record

    def note_hit(self, key: CellKey, record: Record) -> None:
        """Register a cache hit in the open run's manifest, so ``--diff``
        can compare complete runs even when nothing was recomputed."""
        if self._open_segment is None:
            return
        self._open_segment[3][key.ident()] = record.seq

    def finish_run(self, stats: dict | None = None) -> dict:
        """Close the open segment and append the run manifest.

        This is the store's *commit point*: the segment is fsync'd
        before closing, the manifest append is fsync'd, and so are the
        directories holding them — after ``finish_run`` returns, no crash
        (including ``kill -9``) can lose this run's records.
        """
        if self._open_segment is None:
            raise RuntimeError("no open run to finish")
        run_id, handle, label, cells = self._open_segment
        try:
            _fsync(handle)
            handle.close()
            self._open_segment = None
            manifest = {"run": run_id, "label": label,
                        "cells": dict(sorted(cells.items())),
                        "stats": stats or {}}
            self.root.mkdir(parents=True, exist_ok=True)
            # Under the lock the last load read every complete line, so
            # whatever lies between its offset and our manifest is a torn
            # tail it already warned about.
            self._runs_offset = self._append_aligned(
                self.root / "runs.jsonl",
                json.dumps(manifest, sort_keys=True))
            self._runs.append(manifest)
            self._committed.add(run_id)
            # The root holds runs.jsonl (created by the first commit).
            _fsync_dir(self.root)
            _fsync_dir(self.segments_dir)
        finally:
            self._lock.__exit__(None, None, None)
        return manifest

    def abort_run(self) -> None:
        """Close the open segment *without* writing a manifest (error
        paths).  Records already appended stay on disk — they were real
        measurements — but the run never becomes a committed manifest,
        and the store lock is released either way."""
        if self._open_segment is None:
            return
        _run_id, handle, _label, _cells = self._open_segment
        self._open_segment = None
        try:
            handle.close()
        finally:
            self._lock.__exit__(None, None, None)

    @staticmethod
    def _append_aligned(path: Path, line: str) -> int:
        """Append ``line`` to a JSONL file, fsync'd, re-aligning first
        if a crashed writer left the file without a trailing newline
        (otherwise the new record would fuse onto the torn tail and
        both lines would be lost to every later load).  Returns the
        file's size after the append."""
        with open(path, "ab+") as fh:
            fh.seek(0, os.SEEK_END)
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(line.encode("utf-8") + b"\n")
            _fsync(fh)
            return fh.tell()


__all__ = ["CellKey", "Record", "ResultStore", "SCHEMA_VERSION",
           "STORE_ENV", "DEFAULT_STORE", "StoreLock", "content_hash",
           "read_jsonl", "store_path"]
