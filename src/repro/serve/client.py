"""A small blocking client for the allocation service.

This is the reference implementation of the wire protocol from the
consuming side — used by the load generator, perfbench's ``serve``
workload, and the tests.  It is deliberately
synchronous (plain ``socket`` + ``makefile``): one client is one
connection is one request pipeline, and anything fancier belongs in the
caller.

Protocol-level failures surface as :class:`ServeError` (carrying the
structured ``code`` from :data:`repro.serve.protocol.ERROR_CODES`);
transport failures surface as the usual ``OSError`` family.
"""

from __future__ import annotations

import json
import socket
import time

from repro.serve.protocol import MAX_LINE_BYTES, encode


class ServeError(Exception):
    """A structured error response from the server (``ok: false``)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServeClient:
    """One JSONL connection to a running :class:`AllocationServer`.

    Usable as a context manager; requests are strictly ordered on the
    connection (send one line, read one line).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The raw request/response cycle.
    # ------------------------------------------------------------------
    def request(self, doc: dict) -> dict:
        """Send one request document, return the raw response document.

        Fills in a fresh ``id`` when the caller did not set one, and
        checks the echo.  Raises :class:`ServeError` on ``ok: false``.
        """
        if doc.get("id") is None:
            self._next_id += 1
            doc = dict(doc, id=f"c{self._next_id}")
        self._sock.sendall(encode(doc))
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if response.get("id") != doc["id"]:
            raise ConnectionError(
                f"response id {response.get('id')!r} does not match "
                f"request id {doc['id']!r}")
        if not response.get("ok"):
            err = response.get("error") or {}
            raise ServeError(err.get("code", "internal"),
                             err.get("message", "unknown failure"))
        return response

    # ------------------------------------------------------------------
    # Convenience ops.
    # ------------------------------------------------------------------
    def allocate(self, *, ir: str = "", minic: str = "",
                 machine: str = "alpha", allocator: str = "second-chance",
                 context: str = "", spill_cleanup: bool = False) -> dict:
        return self.request({"op": "allocate", "ir": ir, "minic": minic,
                             "machine": machine, "allocator": allocator,
                             "context": context,
                             "spill_cleanup": spill_cleanup})

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def shutdown(self) -> dict:
        """Graceful stop; the server answers before exiting, and closes
        this connection afterwards."""
        return self.request({"op": "shutdown"})


def wait_ready(host: str, port: int, *, timeout: float = 30.0) -> None:
    """Poll until the server at ``host:port`` answers a ``ping``.

    For callers that only know an address (subprocess servers, CI); the
    in-process path uses :meth:`AllocationServer.wait_ready` instead.
    """
    deadline = time.monotonic() + timeout
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(host, port, timeout=5.0) as client:
                client.ping()
            return
        except (OSError, ConnectionError, ValueError) as exc:
            last = exc
            time.sleep(0.05)
    raise TimeoutError(f"server at {host}:{port} not ready: {last}")


__all__ = ["ServeClient", "ServeError", "wait_ready"]
