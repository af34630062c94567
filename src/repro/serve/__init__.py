"""Allocation-as-a-service: the long-running compilation server.

``repro.serve`` puts the whole pipeline behind a socket: clients send
IR (or minic) modules with an allocator name and an
:class:`~repro.spill.AllocationContext`, and get back allocated code,
Figure-3 spill statistics, and metric summaries.  The production lever
is the persistent allocation cache (:mod:`repro.serve.cache`) layered
on :class:`~repro.results.store.ResultStore`: identical functions
arriving from many clients cost one allocation, across requests *and*
across server restarts.  Cache misses are scheduled onto the same
process pool as :mod:`repro.pm.batch` (the worker is
:func:`repro.pm.batch.allocation_artifact`).

Layers:

* :mod:`repro.serve.protocol` — the JSONL wire format, validation,
  size bounds, and the structured error taxonomy;
* :mod:`repro.serve.cache` — content-addressed artifact cache over the
  crash-safe result store;
* :mod:`repro.serve.server` — the ``asyncio`` server (JSONL over a
  socket);
* :mod:`repro.serve.client` — a small blocking client;
* :mod:`repro.serve.load` — the load generator behind
  ``tools/loadgen.py``.  The service's benchmark is perfbench's
  ``serve`` workload.

See ``docs/SERVING.md`` for the protocol and operational story.
"""

from repro.serve.cache import AllocationCache, artifact_cache_key
from repro.serve.client import ServeClient, ServeError, wait_ready
from repro.serve.load import LoadReport, build_corpus, run_load
from repro.serve.protocol import (MAX_MODULE_BYTES, PROTOCOL_VERSION,
                                  ProtocolError, decode_request, encode,
                                  error_response)
from repro.serve.server import AllocationServer

__all__ = ["AllocationCache", "AllocationServer", "LoadReport",
           "MAX_MODULE_BYTES", "PROTOCOL_VERSION", "ProtocolError",
           "ServeClient", "ServeError", "artifact_cache_key",
           "build_corpus", "decode_request", "encode", "error_response",
           "run_load", "wait_ready"]
