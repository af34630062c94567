"""The allocation service's wire protocol: JSONL requests/responses.

One request is one JSON object on one line (UTF-8, ``\\n``-terminated);
the response comes back the same way, so any language with a socket
and a JSON parser is a client.

Request schema (``op: "allocate"``, the default)::

    {"op": "allocate", "id": "<echo token>",
     "ir": "<printed IR text>" | "minic": "<source>",
     "machine": "alpha" | "tiny:<G>x<F>",
     "allocator": "second-chance" | "two-pass" | "coloring" | "poletto",
     "context": "<AllocationContext.describe() form>",
     "spill_cleanup": false}

Other ops: ``ping`` (liveness), ``stats`` (metrics + latency summary),
``shutdown`` (graceful stop; the response is sent before the server
exits).

Every failure is a *structured* response, never a dropped connection::

    {"id": ..., "ok": false,
     "error": {"code": "<see ERROR_CODES>", "message": "..."}}

Bounds: a module source larger than :data:`MAX_MODULE_BYTES` is
rejected with ``too-large`` (bounded memory per request); a raw socket
line larger than :data:`MAX_LINE_BYTES` kills the connection after a
``too-large`` response, since JSONL framing cannot resynchronize
inside an oversized line.
"""

from __future__ import annotations

import json
from typing import Any

#: Protocol/compatibility version, echoed by ``ping`` and ``stats``.
PROTOCOL_VERSION = 1

#: Largest accepted module source (IR or minic), in UTF-8 bytes.
MAX_MODULE_BYTES = 1 << 20

#: Largest accepted raw request line (module + JSON overhead).
MAX_LINE_BYTES = MAX_MODULE_BYTES + (64 << 10)

#: The recognised operations.
OPS = ("allocate", "ping", "stats", "shutdown")

#: The structured error taxonomy.  ``bad-json``: the line was not a
#: JSON object.  ``bad-request``: a well-formed object with invalid
#: fields (unknown op/allocator/machine/context, missing module).
#: ``too-large``: the module or line exceeded its bound.
#: ``parse-error``: the IR/minic text did not parse.  ``alloc-error``:
#: the pipeline itself failed (oracle mismatch, simulator fault).
#: ``internal``: an unexpected server-side failure.
ERROR_CODES = ("bad-json", "bad-request", "too-large", "parse-error",
               "alloc-error", "internal")


class ProtocolError(Exception):
    """A request rejected before any compilation work, with its
    structured error code."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


def encode(doc: dict) -> bytes:
    """One response/request document as its wire line."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def error_response(request_id: Any, code: str, message: str) -> dict:
    assert code in ERROR_CODES, code
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def request_id(doc: Any) -> Any:
    """The echo token of a (possibly malformed) request document."""
    return doc.get("id") if isinstance(doc, dict) else None


def _validate_allocate(doc: dict) -> dict:
    from repro.allocators import ALLOCATOR_FACTORIES
    from repro.spill import AllocationContext
    from repro.target import machine_from_spec, machine_spec

    ir = doc.get("ir", "")
    minic = doc.get("minic", "")
    if bool(ir) == bool(minic):
        raise ProtocolError("bad-request",
                            "allocate needs exactly one of 'ir' or 'minic'")
    source = ir or minic
    if not isinstance(source, str):
        raise ProtocolError("bad-request", "module source must be a string")
    if len(source.encode("utf-8", errors="replace")) > MAX_MODULE_BYTES:
        raise ProtocolError(
            "too-large", f"module source exceeds {MAX_MODULE_BYTES} bytes")
    # Machine and context in their canonical spellings, so one
    # configuration is one store cell.
    try:
        machine = machine_spec(machine_from_spec(doc.get("machine", "alpha")))
    except ValueError as exc:
        raise ProtocolError("bad-request", str(exc))
    allocator = doc.get("allocator", "second-chance")
    if allocator not in ALLOCATOR_FACTORIES:
        raise ProtocolError(
            "bad-request", f"unknown allocator {allocator!r}; choose from "
            f"{', '.join(ALLOCATOR_FACTORIES)}")
    context = doc.get("context", "")
    try:
        context = AllocationContext.parse(
            context if isinstance(context, str) else "?").describe()
    except ValueError as exc:
        raise ProtocolError("bad-request", str(exc))
    return {"op": "allocate", "id": doc.get("id"),
            "ir": ir, "minic": minic, "machine": machine,
            "allocator": allocator, "context": context,
            "spill_cleanup": bool(doc.get("spill_cleanup", False))}


def decode_request(line: str | bytes) -> dict:
    """Parse and validate one request line into its normalized form
    (defaults filled in).  Raises :class:`ProtocolError` — carrying the
    structured code the caller turns into an error response — on
    anything malformed; the connection stays usable afterwards."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-json", f"request is not UTF-8: {exc}")
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"request is not JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError("bad-json", "request must be a JSON object")
    op = doc.get("op", "allocate")
    if op not in OPS:
        raise ProtocolError("bad-request",
                            f"unknown op {op!r}; choose from {', '.join(OPS)}")
    if op == "allocate":
        return _validate_allocate(doc)
    return {"op": op, "id": doc.get("id")}


__all__ = ["ERROR_CODES", "MAX_LINE_BYTES", "MAX_MODULE_BYTES", "OPS",
           "PROTOCOL_VERSION", "ProtocolError", "decode_request", "encode",
           "error_response", "request_id"]
