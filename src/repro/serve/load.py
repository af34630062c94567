"""Load generation for the allocation service.

The corpus reuses the fuzz generator (:func:`repro.fuzz.generate.
program_for_seed`) so every request is a real, runnable module over the
rotating machine set — and a configurable *duplicate ratio* controls
how much of the stream should hit the cache, which is the service's
whole reason to exist.

:func:`run_load` drives a corpus through a live server; ``tools/loadgen.py``
is its command line.  The service's benchmark is perfbench's ``serve``
workload (``perfbench/run.py --workload serve``).
"""

from __future__ import annotations

import random
import time

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import quantile


def build_corpus(requests: int, *, dup_ratio: float = 0.5,
                 seed: int = 0) -> list[dict]:
    """``requests`` allocate documents, ``dup_ratio`` of them repeats.

    The unique programs come from the fuzz generator (seeds offset by
    ``seed * 10_000`` so distinct load runs use distinct programs); the
    duplicate tail re-samples uniques and the whole sequence is
    shuffled, all through a *string-seeded* RNG so the corpus is stable
    across ``PYTHONHASHSEED`` values and processes.
    """
    from repro.fuzz.generate import program_for_seed
    from repro.ir.printer import print_module
    from repro.target import machine_spec

    if requests < 1:
        raise ValueError("requests must be >= 1")
    if not 0.0 <= dup_ratio < 1.0:
        raise ValueError("dup_ratio must be in [0, 1)")
    rng = random.Random(f"loadgen:{seed}")
    unique = max(1, round(requests * (1.0 - dup_ratio)))
    docs = []
    for i in range(unique):
        program = program_for_seed(seed * 10_000 + i)
        docs.append({"op": "allocate", "ir": print_module(program.module),
                     "machine": machine_spec(program.machine),
                     "allocator": "second-chance",
                     "context": "", "spill_cleanup": False})
    sequence = list(docs)
    sequence.extend(rng.choice(docs) for _ in range(requests - unique))
    rng.shuffle(sequence)
    return sequence


class LoadReport:
    """One pass of the load generator: latencies, hit counts, errors."""

    def __init__(self, label: str = "load"):
        self.label = label
        self.latencies: list[float] = []
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.wall_s = 0.0

    # -- accumulation ---------------------------------------------------
    def record(self, seconds: float, cached: bool) -> None:
        self.latencies.append(seconds)
        if cached:
            self.hits += 1
        else:
            self.misses += 1

    # -- derived numbers ------------------------------------------------
    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.errors

    @property
    def hit_rate(self) -> float:
        answered = self.hits + self.misses
        return self.hits / answered if answered else 0.0

    def _quantile(self, q: float) -> float:
        return quantile(sorted(self.latencies), q) if self.latencies else 0.0

    @property
    def median_s(self) -> float:
        return self._quantile(0.50)

    @property
    def p90_s(self) -> float:
        return self._quantile(0.90)

    @property
    def p99_s(self) -> float:
        return self._quantile(0.99)

    @property
    def throughput(self) -> float:
        return self.requests / self.wall_s if self.wall_s else 0.0

    def to_json(self) -> dict:
        return {"label": self.label, "requests": self.requests,
                "hits": self.hits, "misses": self.misses,
                "errors": self.errors,
                "hit_rate": round(self.hit_rate, 4),
                "median_s": round(self.median_s, 6),
                "p90_s": round(self.p90_s, 6),
                "p99_s": round(self.p99_s, 6),
                "wall_s": round(self.wall_s, 3),
                "throughput_rps": round(self.throughput, 1)}

    def render(self) -> str:
        return (f"{self.label}: {self.requests} requests, "
                f"{self.hits} hits / {self.misses} misses "
                f"({100 * self.hit_rate:.1f}% hit rate), "
                f"{self.errors} errors, "
                f"median {1e3 * self.median_s:.2f} ms, "
                f"p90 {1e3 * self.p90_s:.2f} ms, "
                f"{self.throughput:.1f} req/s")


def run_load(host: str, port: int, corpus: list[dict], *,
             label: str = "load") -> LoadReport:
    """Drive the whole corpus through one connection, serially.

    Serial on purpose: per-request latency is then a clean measurement,
    and the duplicate ratio translates directly into the hit rate.
    Structured errors are counted, not raised — a load run should
    survive a few bad programs.
    """
    report = LoadReport(label)
    t0 = time.perf_counter()
    with ServeClient(host, port) as client:
        for doc in corpus:
            t1 = time.perf_counter()
            try:
                response = client.request(dict(doc))
            except ServeError:
                report.errors += 1
                continue
            report.record(time.perf_counter() - t1,
                          bool(response.get("cached")))
    report.wall_s = time.perf_counter() - t0
    return report


__all__ = ["LoadReport", "build_corpus", "run_load"]
