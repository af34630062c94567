"""The ``serve`` workload: a closed loop against an in-process server.

Client connections send requests one at a time (each waits for its
reply) to an in-process :class:`~repro.serve.server.AllocationServer`
with a one-worker process pool and a fresh store.  The timed run uses
one connection: with two, the worker's compute, the server's commits and
both clients contend for the two cores, and one seed's throughput ranged
over 46-78 requests/s in three runs (one connection: 54-57).  The traced
run's live part uses two, so coalescing and latency under contention are
measured.

Requests are fuzz-generated IR modules (:func:`~repro.fuzz.generate.
program_for_seed` over fixed fuzz seeds, so the machine rotates over tiny
and alpha files) paired with each of the four allocators.  A pass sends
``PASS_REQUESTS`` requests: each pair once, in an order drawn from the
seed, and between them repeats of pairs already sent, at positions and
of pairs drawn from the seed.  Every seed therefore computes the same
pairs and commits the same artifacts; the code-quality figures are taken
over all of them.

Every returned ``code`` is parsed and simulated again off the clock and
its output compared with the unallocated module's.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.generate import program_for_seed
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.pm.batch import allocation_artifact
from repro.pm.session import CompilationSession
from repro.results.suite import machine_from_spec
from repro.serve.cache import AllocationCache, artifact_cache_key
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import decode_request, encode
from repro.serve.server import AllocationServer
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.spill import AllocationContext
from repro.stats.spill import (FIGURE3_CATEGORIES, REMAT_CATEGORIES,
                               spill_breakdown)

import pipeline
from batch import ALL_ALLOCATORS, OutputMismatch, Pair, sha256_hex
from spans import Spans

TIMED_CLIENTS = 1
LIVE_CLIENTS = 2
MODULES = 32
#: Requests per pass on a fresh server and store: every pass does the same
#: work (commit cost grows with the store), and p99 has ten samples
#: beyond it.  With 128 pairs, 87% of requests are repeats: at half, the
#: median request sat between the hit and the miss mode and jumped
#: between them from seed to seed; with 256 pairs (74%) the growing
#: store's commits made p99 spread twice as far as with 128.
PASS_REQUESTS = 1000
PROGRAM_SEED_BASE = 7_000_000
#: The traced run: requests through the live server, then requests
#: through the serve path called in-process, untraced and traced.
LIVE_REQUESTS = 512
TRACED_REQUESTS = 256
PAYLOAD_FIELDS = ("ir", "minic", "machine", "allocator", "context",
                  "spill_cleanup")


def _spec(machine) -> str:
    return ("alpha" if machine.name == "alpha"
            else f"tiny:{machine.n_gpr}x{machine.n_fpr}")


@dataclass
class Response:
    index: int          # position in the stream
    latency: float
    cached: bool = False
    code: str | None = None
    error: str | None = None


@dataclass
class LiveResult:
    responses: list[Response]
    wall_s: float
    stats: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0


class ServeWorkload:
    def __init__(self, seed: int, workdir: Path, peak_rss):
        self.workdir = workdir
        self.peak_rss = peak_rss
        self._stores = 0
        #: Verified (module, allocator) pairs and the unallocated runs.
        self.figures: dict[tuple, Pair] = {}
        self._references: dict[int, object] = {}
        rng = random.Random(f"serve:{seed}")
        self.modules = []          # (ir text, machine spec)
        for i in range(MODULES):
            program = program_for_seed(PROGRAM_SEED_BASE + i)
            self.modules.append((print_module(program.module),
                                 _spec(program.machine)))
        fresh = [(m, a) for m in range(MODULES) for a in ALL_ALLOCATORS]
        rng.shuffle(fresh)
        self.pairs = set(fresh)
        is_new = [True] * (len(fresh) - 1) + [False] * (PASS_REQUESTS
                                                        - len(fresh))
        rng.shuffle(is_new)
        self.stream: list[tuple[int, str]] = [fresh[0]]
        sent = 1
        for new in is_new:
            if new:
                self.stream.append(fresh[sent])
                sent += 1
            else:
                self.stream.append(rng.choice(self.stream))
        # Warm-up module: starts the pool worker during setup, and is not
        # part of the stream.
        warm = program_for_seed(PROGRAM_SEED_BASE - 1)
        self._warm = self._doc((print_module(warm.module),
                                _spec(warm.machine)), "second-chance")
        self.server, self._thread, self._store = self._start_server()

    def _doc(self, module: tuple[str, str], allocator: str) -> dict:
        ir, spec = module
        return {"op": "allocate", "ir": ir, "machine": spec,
                "allocator": allocator, "context": "",
                "spill_cleanup": False}

    def request(self, index: int) -> dict:
        module, allocator = self.stream[index]
        return self._doc(self.modules[module], allocator)

    def _new_store(self) -> Path:
        self._stores += 1
        path = self.workdir / f"store-{self._stores}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _start_server(self):
        store = self._new_store()
        server = AllocationServer(str(store), jobs=1)
        thread = threading.Thread(target=server.run, name="perfbench-serve")
        thread.start()
        try:
            server.wait_ready()
            with ServeClient("127.0.0.1", server.port) as client:
                client.request(dict(self._warm))
        except BaseException:
            server.request_shutdown()
            thread.join(timeout=60)
            raise
        return server, thread, store

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.request_shutdown()
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("allocation server did not stop")
        self.server = None
        shutil.rmtree(self._store, ignore_errors=True)

    def close(self) -> None:
        self._stop_server()

    # ------------------------------------------------------------------
    # The closed loop.
    # ------------------------------------------------------------------
    def live(self, limit: int, clients: int) -> LiveResult:
        """Send the first ``limit`` requests of the stream over
        ``clients`` connections to a fresh server, then stop it."""
        if self.server is None:
            self.server, self._thread, self._store = self._start_server()
        lock = threading.Lock()
        state = {"next": 0}
        responses: list[Response] = []
        errors: list[BaseException] = []
        t0 = time.perf_counter()

        def take() -> int | None:
            with lock:
                index = state["next"]
                if index >= limit:
                    return None
                state["next"] = index + 1
                return index

        def client_loop() -> None:
            mine: list[Response] = []
            try:
                with ServeClient("127.0.0.1", self.server.port) as client:
                    while (index := take()) is not None:
                        doc = self.request(index)
                        t1 = time.perf_counter()
                        try:
                            reply = client.request(doc)
                        except ServeError as exc:
                            mine.append(Response(
                                index, time.perf_counter() - t1,
                                error=f"{exc.code}: {exc.message}"))
                            continue
                        mine.append(Response(index, time.perf_counter() - t1,
                                             bool(reply.get("cached")),
                                             reply.get("code")))
            except BaseException as exc:   # re-raised on the main thread
                errors.append(exc)
            with lock:
                responses.extend(mine)

        threads = [threading.Thread(target=client_loop,
                                    name=f"perfbench-client-{i}")
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        if errors:
            raise errors[0]
        with ServeClient("127.0.0.1", self.server.port) as client:
            stats = client.stats()
        responses.sort(key=lambda r: r.index)
        result = LiveResult(responses, wall, stats, self.peak_rss())
        self._stop_server()
        return result

    def verify(self, responses: list[Response]) -> list[str]:
        """Off the clock: every answer's code, parsed and simulated again,
        must print what the unallocated module prints, and every answer
        for a pair, in this pass or an earlier one, must be the same
        code.  Adds each new pair to ``self.figures``, drops the code
        strings and returns the failures."""
        failures: list[str] = []
        for response in responses:
            key = self.stream[response.index]
            code, response.code = response.code, None
            if response.error is not None:
                failures.append(f"request {response.index}: "
                                f"{response.error}")
                continue
            if key in self.figures:
                if sha256_hex(code) != self.figures[key].text_sha:
                    failures.append(f"request {response.index}: code "
                                    f"differs from an earlier answer")
                continue
            module_index, allocator = key
            ir, spec = self.modules[module_index]
            machine = machine_from_spec(spec)
            if module_index not in self._references:
                self._references[module_index] = simulate(parse_module(ir),
                                                          machine)
            reference = self._references[module_index]
            try:
                outcome = simulate(parse_module(code), machine)
            except Exception as exc:
                failures.append(f"request {response.index}: {exc!r}")
                continue
            if not outputs_equal(outcome.output, reference.output):
                failures.append(f"request {response.index}: output "
                                f"{outcome.output!r} != "
                                f"{reference.output!r}")
                continue
            self.figures[key] = Pair(f"m{module_index}", allocator,
                                     outcome.cycles,
                                     outcome.dynamic_instructions,
                                     outcome.spill_instructions,
                                     sha256_hex(code))
        return failures

    # ------------------------------------------------------------------
    # The serve path in-process, for the traced run.
    # ------------------------------------------------------------------
    def open_cache(self) -> AllocationCache:
        """An artifact cache on a fresh store, for the in-process path."""
        return AllocationCache(str(self._new_store()))

    def drop_cache(self, cache: AllocationCache) -> None:
        shutil.rmtree(cache.store.root, ignore_errors=True)

    def artifact_code(self, index: int) -> str:
        """Request ``index``'s code from ``allocation_artifact``, the
        function the server's pool runs."""
        request = decode_request(encode(self.request(index)))
        artifact = allocation_artifact({f: request[f] for f in PAYLOAD_FIELDS})
        if "error" in artifact:
            raise RuntimeError(f"request {index}: {artifact['error']}")
        return artifact["code"]

    def traced_request(self, index: int, cache: AllocationCache,
                       spans: Spans, counts: Counter) -> str:
        """Request ``index`` through the serve path in this process, one
        layer at a time under ``spans``; returns the code."""
        doc = dict(self.request(index), id=f"r{index}")
        spans.op = doc["id"]
        with spans.span("serve.protocol"):
            request = decode_request(encode(doc))
        with spans.span("serve.cache.key"):
            key, sha = artifact_cache_key(request)
        with spans.span("serve.cache.get"):
            artifact = cache.get(key, sha)
        if artifact is None:
            artifact = self._traced_compute(request, spans, counts)
            with spans.span("results.commit"):
                cache.put(key, sha, artifact)
        with spans.span("serve.protocol"):
            encode(dict(artifact, id=request["id"], ok=True))
        return artifact["code"]

    def _traced_compute(self, request: dict, spans: Spans,
                        counts: Counter) -> dict:
        """``allocation_artifact``'s work, one layer at a time.  The
        artifact leaves out the timing fields (``alloc_seconds``,
        ``metrics``, ``profile``), so its committed bytes repeat exactly."""
        with spans.span("serve.compute"):
            machine = machine_from_spec(request["machine"])
            context = AllocationContext.parse(request["context"])
            name = request["allocator"]
            with spans.span("ir.parse"):
                module = parse_module(request["ir"])
            counts["ir.instrs"] += pipeline.instruction_count(module)
            with spans.span("sim.reference"):
                reference = simulate(module, machine)
            session = CompilationSession(module, machine)
            base = pipeline.prepare(spans, session)
            working = pipeline.allocate(spans, session, base, name, counts)
            pipeline.session_counts(session, counts)
            with spans.span("sim.allocated"):
                outcome = simulate(working, machine)
            counts["sim.dyn_instructions"] += (
                reference.dynamic_instructions
                + outcome.dynamic_instructions)
            if not outputs_equal(outcome.output, reference.output):
                raise OutputMismatch("allocation changed observable "
                                     "behaviour")
            with spans.span("ir.print"):
                code = print_module(working)
            breakdown = spill_breakdown(outcome)
            return {
                "code": code, "allocator": name,
                "machine": request["machine"],
                "context": context.describe(), "spill_cleanup": False,
                "dynamic_instructions": outcome.dynamic_instructions,
                "cycles": outcome.cycles, "result": outcome.result,
                "spill_categories": {
                    f"{phase.value}.{kind.value}":
                        breakdown.category(phase, kind)
                    for phase, kind in FIGURE3_CATEGORIES + REMAT_CATEGORIES},
                "total_spill": breakdown.total_spill}


def hit_miss_p50(live: LiveResult) -> tuple[float, float, float]:
    """Median hit latency, median miss latency and hit rate of a live run."""
    hits = [r.latency for r in live.responses
            if r.error is None and r.cached]
    misses = [r.latency for r in live.responses
              if r.error is None and not r.cached]
    return (statistics.median(hits), statistics.median(misses),
            len(hits) / len(live.responses))
