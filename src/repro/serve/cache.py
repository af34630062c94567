"""The persistent allocation cache: one allocation per unique function.

Every compiled artifact is keyed by a content hash over the things that
determine the allocator's output:

* the module source text exactly as it crossed the wire (IR or minic —
  the client's bytes, not a re-print, so the key needs no parse);
* the allocator registry name;
* the canonical :meth:`~repro.spill.AllocationContext.describe` string;
* the machine *signature* (name + register file sizes — the semantic
  part of the spec, so ``tiny:8x8`` spelled two ways still collides);
* the spill-cleanup flag, and an artifact-schema salt so a future
  artifact layout change invalidates instead of corrupting.

The hash uses SHA-256 (:func:`repro.results.store.content_hash`), so
keys are stable across processes, machines, and ``PYTHONHASHSEED``
values — which is what lets the cache *persist*: artifacts are records
(``kind="serve"``) in a :class:`~repro.results.store.ResultStore`, so
they survive server restarts, are crash-safe (committed per request
behind the store's lock + fsync), and can be shared between a server
and CLI tooling pointing at the same directory.

Metering (``serve.cache.*`` in the server's registry): ``.hits``,
``.misses``, ``.bytes`` (serialized artifact bytes committed),
``.preloaded`` (artifacts found on open).
"""

from __future__ import annotations

import json
import os

from repro.obs.metrics import MetricsRegistry
from repro.results.store import CellKey, ResultStore, content_hash

#: Bumped when the artifact payload layout changes incompatibly; old
#: cache entries then miss and are recomputed, never misread.
#: v2: the metrics snapshot gained the simulation counters (``sim.*``).
#: v3: ... and ``sim.decode.segments_compiled`` (the simulator's hot tier).
ARTIFACT_SCHEMA = 3


def artifact_cache_key(request: dict) -> tuple[CellKey, str]:
    """The ``(cell key, content hash)`` pair for one normalized
    allocate request (see :func:`repro.serve.protocol.decode_request`).

    Pure and ``PYTHONHASHSEED``-independent: the same request always
    maps to the same cell, in any process, on any day.
    """
    from repro.results.suite import machine_signature
    from repro.target import machine_from_spec

    source_kind = "ir" if request.get("ir") else "minic"
    source = request.get("ir") or request.get("minic", "")
    signature = machine_signature(machine_from_spec(request["machine"]))
    sha = content_hash(f"serve-artifact-v{ARTIFACT_SCHEMA}",
                       source_kind, source,
                       request["allocator"], request.get("context", ""),
                       signature,
                       f"cleanup={int(bool(request.get('spill_cleanup')))}")
    key = CellKey(workload=f"serve:{sha[:16]}",
                  allocator=request["allocator"],
                  machine=request["machine"],
                  spill_cleanup=bool(request.get("spill_cleanup")),
                  kind="serve",
                  context=request.get("context", ""))
    return key, sha


class AllocationCache:
    """Persistent artifact cache over one result-store directory.

    Reads are in-memory dictionary lookups (the store keeps its records
    loaded); writes commit one store run per artifact — ``begin_run`` /
    ``put`` / ``finish_run`` under the store's advisory lock, fsync'd —
    so a crash after :meth:`put` returns can never lose the artifact,
    and a concurrent CLI sharing the directory never interleaves.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = ResultStore(root, metrics=self.metrics)
        preloaded = sum(1 for record in self.store.iter_latest()
                        if record.key.kind == "serve")
        if preloaded:
            self.metrics.bump("serve.cache.preloaded", preloaded)

    def __len__(self) -> int:
        return sum(1 for record in self.store.iter_latest()
                   if record.key.kind == "serve")

    def get(self, key: CellKey, sha: str) -> dict | None:
        """The cached artifact, or ``None`` on a miss (metered)."""
        record = self.store.lookup(key, sha)
        if record is None:
            self.metrics.bump("serve.cache.misses")
            return None
        self.metrics.bump("serve.cache.hits")
        return record.data

    def put(self, key: CellKey, sha: str, artifact: dict) -> None:
        """Commit one computed artifact durably (its own store run)."""
        self.store.begin_run(label="serve")
        try:
            self.store.put(key, sha, artifact)
        except BaseException:
            self.store.abort_run()
            raise
        self.store.finish_run({"computed": 1, "label": "serve"})
        self.metrics.bump(
            "serve.cache.bytes",
            len(json.dumps(artifact, sort_keys=True).encode("utf-8")))


__all__ = ["ARTIFACT_SCHEMA", "AllocationCache", "artifact_cache_key"]
