"""The asyncio allocation server: JSONL over a socket.

One event loop multiplexes every connection; cache hits are answered
inline (a dictionary lookup plus JSON serialization), and cache misses
are scheduled onto a ``ProcessPoolExecutor`` of ``jobs >= 1`` worker
processes running :func:`repro.pm.batch.allocation_artifact`, so no
allocation of a client's module runs inside the server process.
Identical requests in flight at the same time are *coalesced*: one
allocation runs, every waiter shares the result (``serve.coalesced``).

A connection carries many requests, answered in order.

Failure containment, in order of blast radius:

* a malformed request → structured error response, connection lives;
* an oversized line → ``too-large`` response, then the connection is
  closed (JSONL cannot resynchronize mid-line);
* a client vanishing mid-request → the compute finishes and lands in
  the cache (the next client gets a hit), the writer error is
  swallowed, and the pool stays healthy;
* a worker failure → an ``alloc-error``/``parse-error`` *response*
  (the worker returns failures as data, never poisons the pool).

Per-request latency phases land in the server's metrics registry
(``serve.latency.total_s`` / ``.compute_s`` / ``.commit_s``, the last
two with a ``.calls`` count), and the cache meters
``serve.cache.*`` — ``repro serve`` prints the registry on shutdown,
and the ``stats`` op streams it live.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ProcessPoolExecutor

from repro.obs.metrics import MetricsRegistry
from repro.pm.batch import allocation_artifact
from repro.serve.cache import AllocationCache, artifact_cache_key
from repro.serve.protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION,
                                  ProtocolError, decode_request, encode,
                                  error_response, request_id)

#: Latency samples kept for the ``stats`` op's percentile summary.
MAX_LATENCY_SAMPLES = 100_000


def quantile(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of sorted, non-empty ``ordered``: the sample at
    rank ``int(q * n)``, so the median of an even count is the upper of
    the two middle samples.  The ``stats`` op and
    :class:`~repro.serve.load.LoadReport` both use this rule."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {}
    ordered = sorted(samples)
    return {"count": len(ordered),
            "median_s": round(quantile(ordered, 0.50), 6),
            "p90_s": round(quantile(ordered, 0.90), 6),
            "p99_s": round(quantile(ordered, 0.99), 6),
            "max_s": round(ordered[-1], 6)}


class AllocationServer:
    """One serving process: socket front end, executor, persistent cache.

    Run it blocking (:meth:`run`, the CLI path) or on a background
    thread (construct, ``Thread(target=server.run)``, then
    :meth:`wait_ready` — perfbench and the tests do this).
    """

    def __init__(self, store: str | None = None, *,
                 host: str = "127.0.0.1", port: int = 0, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"the server needs at least one worker "
                             f"process (jobs={jobs})")
        self.host = host
        self.port = port          # rewritten with the bound port on start
        self.jobs = jobs
        self.metrics = MetricsRegistry()
        self.cache = AllocationCache(store, metrics=self.metrics)
        self.started_at = time.time()
        self._latencies: list[float] = []
        self._inflight: dict[str, asyncio.Future] = {}
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._commit_lock: asyncio.Lock | None = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve until a ``shutdown`` request (or cancellation)."""
        asyncio.run(self.main())

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the socket is bound (``self.port`` is real)."""
        if not self._ready.wait(timeout):
            raise TimeoutError("allocation server did not become ready")

    def request_shutdown(self) -> None:
        """Thread-safe graceful stop (an in-process caller's alternative
        to sending a ``shutdown`` op)."""
        loop, event = self._loop, self._shutdown
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    async def main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._commit_lock = asyncio.Lock()
        self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await self._shutdown.wait()
                # Drain gracefully: stop accepting, close every open
                # connection (handlers see EOF and return), and *wait*
                # for the handlers instead of letting asyncio.run cancel
                # them mid-read — cancellation would flush noisy
                # CancelledError logs through the streams machinery.
                server.close()
                for conn_writer in list(self._connections.values()):
                    conn_writer.close()
                if self._connections:
                    await asyncio.wait(list(self._connections), timeout=10)
        finally:
            self._ready.clear()
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.metrics.bump("serve.connections")
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._send(writer, error_response(
                        None, "too-large",
                        f"request line exceeds {MAX_LINE_BYTES} bytes"))
                    return
                if not line:
                    return
                response, keep_open = await self._dispatch_line(line)
                await self._send(writer, response)
                if not keep_open:
                    return
        except (ConnectionResetError, BrokenPipeError):
            # The client vanished mid-stream.  Whatever compute was in
            # flight still lands in the cache; the pool is untouched.
            self.metrics.bump("serve.disconnects")
        finally:
            if task is not None:
                self._connections.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch_line(self, line: bytes) -> tuple[dict, bool]:
        """One request line → (response, keep the connection open?)."""
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self.metrics.bump("serve.errors")
            import json

            try:
                rid = request_id(json.loads(line))
            except (ValueError, UnicodeDecodeError):
                rid = None
            return error_response(rid, exc.code, exc.message), True
        op = request["op"]
        if op == "ping":
            return {"id": request["id"], "ok": True, "op": "ping",
                    "version": PROTOCOL_VERSION}, True
        if op == "stats":
            return self._stats_response(request["id"]), True
        if op == "shutdown":
            assert self._shutdown is not None
            self._shutdown.set()
            return {"id": request["id"], "ok": True, "op": "shutdown"}, False
        return await self._allocate(request), True

    # ------------------------------------------------------------------
    # The allocate path.
    # ------------------------------------------------------------------
    async def _allocate(self, request: dict) -> dict:
        t0 = time.perf_counter()
        self.metrics.bump("serve.requests")
        key, sha = artifact_cache_key(request)
        artifact = self.cache.get(key, sha)
        cached, coalesced = artifact is not None, False
        if artifact is None:
            inflight = self._inflight.get(sha)
            if inflight is not None:
                self.metrics.bump("serve.coalesced")
                coalesced = True
                artifact = await asyncio.shield(inflight)
            else:
                artifact = await self._compute_and_commit(request, key, sha)
        total = time.perf_counter() - t0
        self.metrics.bump("serve.latency.total_s", total)
        self._latencies.append(total)
        del self._latencies[:-MAX_LATENCY_SAMPLES or None]
        if "error" in artifact:
            self.metrics.bump("serve.errors")
            err = artifact["error"]
            return error_response(request["id"], err["code"], err["message"])
        response = {"id": request["id"], "ok": True, "cached": cached,
                    "key": sha[:16],
                    "latency": {"total_s": round(total, 6)}}
        if coalesced:
            response["coalesced"] = True
        response.update(artifact)
        return response

    async def _compute_and_commit(self, request: dict, key, sha: str) -> dict:
        assert self._loop is not None and self._commit_lock is not None
        future: asyncio.Future = self._loop.create_future()
        self._inflight[sha] = future
        try:
            payload = {field: request[field]
                       for field in ("ir", "minic", "machine", "allocator",
                                     "context", "spill_cleanup")}
            t0 = time.perf_counter()
            artifact = await self._loop.run_in_executor(
                self._executor, allocation_artifact, payload)
            self._time("serve.latency.compute_s", t0)
            if "error" not in artifact:
                # Commit before resolving waiters: once anyone has seen
                # the artifact, it is durable.  The asyncio lock keeps
                # store commits single-file inside this process; the
                # store's flock covers other processes.
                async with self._commit_lock:
                    t0 = time.perf_counter()
                    await self._loop.run_in_executor(
                        None, self.cache.put, key, sha, artifact)
                    self._time("serve.latency.commit_s", t0)
            future.set_result(artifact)
            return artifact
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Coalesced waiters retrieve the exception; if none do,
                # don't warn about it being unretrieved.
                future.exception()
            raise
        finally:
            self._inflight.pop(sha, None)

    def _time(self, name: str, t0: float) -> None:
        """Add the seconds since ``t0`` to ``name`` and count the call."""
        self.metrics.bump(name, time.perf_counter() - t0)
        self.metrics.bump(name + ".calls")

    # ------------------------------------------------------------------
    # Stats.
    # ------------------------------------------------------------------
    def _stats_response(self, rid) -> dict:
        return {"id": rid, "ok": True, "op": "stats",
                "version": PROTOCOL_VERSION,
                "uptime_s": round(time.time() - self.started_at, 3),
                "store": str(self.cache.store.root),
                "cache_cells": len(self.cache),
                "latency": _percentiles(self._latencies),
                "metrics": self.metrics.snapshot()}

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, doc: dict) -> None:
        writer.write(encode(doc))
        await writer.drain()


__all__ = ["AllocationServer", "MAX_LATENCY_SAMPLES"]
