"""The declarative suite runner: workloads × configurations → the store.

A *suite* is a plain list of :class:`~repro.results.store.CellKey`
cells.  The definitions below expand the evaluation's whole matrix —
benchmark analogs, sized synthetics, and the deterministic fuzz corpus,
crossed with the four allocators, the ``BinpackOptions`` ablation grid,
block orders, and machines — and :func:`run_suite` executes only the
cells whose content hash misses the store, through the same
:func:`repro.pm.batch.run_batch` process pool the rest of the system
uses (``--jobs N``: parallel results are byte-identical to serial, the
workers are pure functions of their cell spec).

Two cell kinds exist:

* ``quality`` — allocate + simulate once; the record carries dynamic
  counts, the Figure 3 spill categories, the full metrics snapshot, and
  the phase-profiler breakdown, so quality, compile-time, and
  cache-behaviour counters are joinable per cell.
* ``timing`` — Table 3's protocol: one warm session per cell, the
  allocator core re-run ``reps`` times, medians recorded (with the
  shared-setup versus per-run-setup versus allocator-core split).

Workload specs are strings so every cell is picklable and greppable:
``analog:<name>``, ``synthetic:<candidates>``, ``fuzz:<seed>``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.results.store import CellKey, Record, ResultStore, content_hash

#: The quality-table analog subsets (mirrors ``REPRO_BENCH_SET``).
FAST_SET = ["doduc", "fpppp", "compress", "m88ksim", "sort"]

#: The fixed workload lists of the non-quality studies.
ABLATION_PROGRAMS = ["doduc", "fpppp", "compress", "sort"]
BLOCK_ORDER_PROGRAMS = ["doduc", "fpppp", "sort", "m88ksim"]
BLOCK_ORDERS = ["layout", "rpo", "scrambled"]
TWOPASS_PROGRAMS = ["wc", "eqntott"]
TABLE3_SIZES = [245, 6218, 6697]

#: The rematerialization ablation: the two constant-heavy spill programs
#: (the paper's own two-pass pair) on a register file small enough that
#: single-definition constants actually spill — picked empirically;
#: larger files leave eqntott spill-free and the ablation vacuous.
REMAT_PROGRAMS = ["wc", "eqntott"]
REMAT_MACHINE = "tiny:4x4"
REMAT_ALLOCATORS = ("second-chance", "two-pass", "coloring", "poletto")

#: The ablation grid: study column -> (allocator, BinpackOptions
#: deviations, spill_cleanup).  Order is the report's column order.
ABLATION_CONFIGS: dict[str, tuple[str, tuple[tuple[str, bool], ...], bool]] = {
    "full": ("second-chance", (), False),
    "no-holes": ("second-chance", (("use_holes", False),), False),
    "no-esc": ("second-chance", (("early_second_chance", False),), False),
    "no-move-elim": ("second-chance", (("move_elimination", False),), False),
    "no-consistency": ("second-chance",
                       (("avoid_consistent_stores", False),), False),
    "conservative": ("second-chance",
                     (("conservative_consistency", True),), False),
    "poletto": ("poletto", (), False),
    "+cleanup": ("second-chance", (), True),
}


class SuiteError(RuntimeError):
    """A cell failed to execute (oracle mismatch, unknown spec, ...)."""


# ----------------------------------------------------------------------
# Workload construction (pure functions of the spec strings).
# ----------------------------------------------------------------------
def machine_from_spec(spec: str):
    from repro.target import alpha, tiny

    if spec == "alpha":
        return alpha()
    if spec.startswith("tiny:"):
        gpr, _, fpr = spec[len("tiny:"):].partition("x")
        return tiny(int(gpr), int(fpr))
    raise SuiteError(f"unknown machine spec {spec!r} "
                     "(alpha, tiny:<G>x<F>, or auto for fuzz workloads)")


def build_workload(workload: str, machine_spec: str, order: str):
    """Build ``(module, machine)`` for one cell, block order applied.

    Deterministic: the same spec always yields the same printed module,
    which is what makes content hashing meaningful.
    """
    kind, _, arg = workload.partition(":")
    if kind == "fuzz":
        if machine_spec != "auto":
            raise SuiteError("fuzz workloads derive their machine from the "
                             "seed; use machine='auto'")
        from repro.fuzz.generate import program_for_seed

        program = program_for_seed(int(arg))
        module, machine = program.module, program.machine
    else:
        machine = machine_from_spec(machine_spec)
        if kind == "analog":
            from repro.workloads.programs import build_program

            module = build_program(arg, machine)
        elif kind == "synthetic":
            from repro.workloads.synthetic import scaled_module

            module = scaled_module(int(arg))
        else:
            raise SuiteError(f"unknown workload spec {workload!r} "
                             "(analog:<name>, synthetic:<n>, fuzz:<seed>)")
    _apply_order(module, order)
    return module, machine


def _apply_order(module, order: str) -> None:
    """Reorder every function's blocks in place (the block-order study).

    ``scrambled`` reproduces the historical harness exactly: entry block
    pinned, the rest shuffled by a fresh seeded RNG per function.
    """
    import random

    from repro.cfg.order import reorder_reverse_postorder

    if order == "layout":
        return
    for fn in module.functions.values():
        if order == "rpo":
            reorder_reverse_postorder(fn)
        elif order == "scrambled":
            rng = random.Random(0xC0FFEE)
            rest = fn.blocks[1:]
            rng.shuffle(rest)
            fn.blocks[:] = [fn.blocks[0]] + rest
        else:
            raise SuiteError(f"unknown block order {order!r}")


def machine_signature(machine) -> str:
    """The part of the machine that affects allocation, as stable text."""
    return (f"{machine.name}/gpr={machine.n_gpr}/fpr={machine.n_fpr}")


def cell_code_hash(module_text: str, machine) -> str:
    """The content hash a record is keyed under: the workload's printed
    IR plus the machine signature (the cell key itself carries the
    configuration, so it does not need hashing in)."""
    return content_hash(module_text, machine_signature(machine))


# ----------------------------------------------------------------------
# Cell execution (module-level, picklable: process-pool workers).
# ----------------------------------------------------------------------
def execute_cell(payload: tuple) -> dict:
    """Process-pool worker: compute one cell's record payload.

    The payload is ``(key-as-json, code_hash)``; the returned dict is the
    record's ``data``.  Pure: no store access, no global state — worker
    metrics come back via ``MetricsRegistry.snapshot()`` and are restored
    by the parent (see :meth:`MetricsRegistry.restore`).
    """
    from repro.allocators import make_allocator
    from repro.allocators.binpack.allocator import BinpackOptions
    from repro.sim.machine import OracleMismatch

    key_doc, code_hash = payload
    key = CellKey.from_json(key_doc)
    module, machine = build_workload(key.workload, key.machine, key.order)
    try:
        allocator = make_allocator(
            key.allocator,
            BinpackOptions(**dict(key.options)) if key.options else None)
        if key.kind == "timing":
            return _execute_timing(key, allocator, module, machine)
        return _execute_quality(key, allocator, module, machine)
    except (ValueError, OracleMismatch) as exc:
        raise SuiteError(f"{key.ident()}: {exc}") from exc


def _execute_quality(key: CellKey, allocator, module, machine) -> dict:
    from repro.ir.printer import print_module
    from repro.pm.session import CompilationSession
    from repro.spill import AllocationContext
    from repro.stats.spill import quality_figures

    profiler = PhaseProfiler()
    result = CompilationSession(module, machine).checked_run(
        allocator, spill_cleanup=key.spill_cleanup, profiler=profiler,
        metrics=MetricsRegistry(),
        context=AllocationContext.parse(key.context))
    stats = result.stats
    return {
        **quality_figures(result.outcome),
        "allocated_sha": content_hash(print_module(result.module)),
        "alloc": {
            "alloc_seconds": round(stats.alloc_seconds, 6),
            "candidates": stats.total_candidates(),
            "spilled_temps": sum(stats.spilled_temps.values()),
            "moves_eliminated": stats.moves_eliminated,
            "interference_edges": sum(stats.interference_edges.values()),
            "coloring_rounds": sum(stats.coloring_iterations.values()),
            "dataflow_iterations": sum(stats.dataflow_iterations.values()),
            "dce_removed": result.dce_removed,
            "moves_removed": result.moves_removed,
        },
        "metrics": stats.metrics.snapshot(),
        "profile": profiler.summary(),
    }


def _execute_timing(key: CellKey, allocator, module, machine) -> dict:
    """Table 3's protocol: warm session, ``reps`` timed core runs."""
    from repro.allocators.base import allocate_module
    from repro.pm.session import CompilationSession

    session = CompilationSession(module, machine)
    cold = PhaseProfiler()
    with cold.phase("setup"):
        for fn in session.module.functions.values():
            session.analyses.shared(fn, profiler=cold)
    samples, setup_samples = [], []
    for _ in range(max(1, key.reps)):
        working = session.clone_base()
        profiler = PhaseProfiler()
        stats = allocate_module(working, allocator.fresh(), machine,
                                profiler=profiler, session=session)
        samples.append(stats)
        setup_samples.append(profiler.seconds("setup"))
    stats = samples[-1]
    return {
        "core_seconds": round(statistics.median(
            s.alloc_seconds for s in samples), 6),
        "setup_seconds": round(statistics.median(setup_samples), 6),
        "shared_setup_seconds": round(cold.seconds("setup"), 6),
        "repetitions": len(samples),
        "candidates": stats.total_candidates(),
        "edges": sum(stats.interference_edges.values()),
        "rounds": sum(stats.coloring_iterations.values()),
        "metrics": stats.metrics.snapshot(),
    }


# ----------------------------------------------------------------------
# Suite definitions.
# ----------------------------------------------------------------------
def quality_specs(names: list[str], *, machine: str = "alpha",
                  allocators: tuple[str, ...] = ("second-chance", "coloring"),
                  ) -> list[CellKey]:
    return [CellKey(workload=f"analog:{name}", allocator=allocator,
                    machine=machine)
            for name in names for allocator in allocators]


def ablation_specs() -> list[CellKey]:
    return [CellKey(workload=f"analog:{name}", allocator=allocator,
                    options=options, spill_cleanup=cleanup)
            for name in ABLATION_PROGRAMS
            for allocator, options, cleanup in ABLATION_CONFIGS.values()]


def block_order_specs() -> list[CellKey]:
    return [CellKey(workload=f"analog:{name}", allocator=allocator,
                    order=order)
            for name in BLOCK_ORDER_PROGRAMS
            for order in BLOCK_ORDERS
            for allocator in ("second-chance", "coloring")]


def twopass_specs() -> list[CellKey]:
    return [CellKey(workload=f"analog:{name}", allocator=allocator)
            for name in TWOPASS_PROGRAMS
            for allocator in ("second-chance", "two-pass")]


def remat_specs() -> list[CellKey]:
    """The rematerialization ablation: every allocator on the remat pair,
    once with the default context and once with remat on."""
    return [CellKey(workload=f"analog:{name}", allocator=allocator,
                    machine=REMAT_MACHINE, context=context)
            for name in REMAT_PROGRAMS
            for allocator in REMAT_ALLOCATORS
            for context in ("", "remat")]


def table3_specs(reps: int = 3, sizes: list[int] | None = None,
                 ) -> list[CellKey]:
    return [CellKey(workload=f"synthetic:{n}", allocator=allocator,
                    kind="timing", reps=max(3, reps))
            for n in (sizes if sizes is not None else TABLE3_SIZES)
            for allocator in ("second-chance", "coloring")]


def fuzz_specs(seeds: range | list[int],
               allocators: tuple[str, ...] = ("second-chance", "two-pass",
                                              "coloring", "poletto"),
               ) -> list[CellKey]:
    return [CellKey(workload=f"fuzz:{seed}", allocator=allocator,
                    machine="auto")
            for seed in seeds for allocator in allocators]


def standard_suite(bench_set: str = "fast", *, reps: int = 3,
                   fuzz_seeds: int = 0) -> list[CellKey]:
    """Every cell the checked-in reports need, deduplicated.

    ``bench_set``: ``fast`` (the golden subset) or ``full`` (all eleven
    analogs plus a tiny-machine sweep and, with ``fuzz_seeds``, the
    deterministic fuzz corpus).
    """
    names = list(FAST_SET)
    specs: list[CellKey] = []
    if bench_set == "full":
        from repro.workloads.programs import PROGRAM_NAMES

        names = list(PROGRAM_NAMES)
    specs += quality_specs(names)
    specs += ablation_specs()
    specs += block_order_specs()
    specs += twopass_specs()
    specs += remat_specs()
    specs += table3_specs(reps)
    if bench_set == "full":
        specs += quality_specs(["wc", "compress"], machine="tiny:8x8",
                               allocators=("second-chance", "two-pass",
                                           "coloring", "poletto"))
    if fuzz_seeds:
        specs += fuzz_specs(range(fuzz_seeds))
    return dedup_specs(specs)


def dedup_specs(specs: list[CellKey]) -> list[CellKey]:
    """Drop duplicate cells, preserving first-seen order (the quality
    and block-order studies share their ``layout`` cells, for example)."""
    seen: set[str] = set()
    out: list[CellKey] = []
    for spec in specs:
        ident = spec.ident()
        if ident not in seen:
            seen.add(ident)
            out.append(spec)
    return out


#: Named suites for the CLI (``repro suite quick``).
SUITES = {
    "quick": lambda reps=3: standard_suite("fast", reps=reps),
    "full": lambda reps=3: standard_suite("full", reps=reps, fuzz_seeds=12),
}


# ----------------------------------------------------------------------
# The runner.
# ----------------------------------------------------------------------
@dataclass
class SuiteOutcome:
    """What one :func:`run_suite` invocation did."""

    run_id: str
    cells: int = 0
    computed: int = 0
    hits: int = 0
    invalidated: int = 0
    records: dict[str, Record] = field(default_factory=dict, repr=False)

    def summary(self) -> str:
        return (f"suite run {self.run_id}: {self.cells} cells, "
                f"{self.computed} computed, {self.hits} cached, "
                f"{self.invalidated} invalidated")


def run_suite(specs: list[CellKey], store: ResultStore, *, jobs: int = 1,
              label: str = "", progress=None) -> SuiteOutcome:
    """Execute ``specs`` against ``store``, computing only cache misses.

    Hashing pass first (builds every workload once, in the parent), then
    the misses fan out through :func:`repro.pm.batch.run_batch` — with
    ``jobs > 1`` that is the process pool, and the resulting store
    contents are byte-identical to a serial run (workers are pure and
    results are committed in spec order).
    """
    from repro.ir.printer import print_module
    from repro.pm.batch import run_batch

    say = progress or (lambda msg: None)
    specs = dedup_specs(specs)
    hashes: dict[str, str] = {}
    module_hash_cache: dict[tuple[str, str, str], str] = {}
    for spec in specs:
        wkey = (spec.workload, spec.machine, spec.order)
        cached = module_hash_cache.get(wkey)
        if cached is None:
            module, machine = build_workload(*wkey)
            cached = cell_code_hash(print_module(module), machine)
            module_hash_cache[wkey] = cached
        hashes[spec.ident()] = cached

    run_id = store.begin_run(label)
    outcome = SuiteOutcome(run_id=run_id, cells=len(specs))
    before = store.metrics.snapshot()
    try:
        misses: list[CellKey] = []
        for spec in specs:
            record = store.lookup(spec, hashes[spec.ident()])
            if record is None:
                misses.append(spec)
            else:
                store.note_hit(spec, record)
                outcome.records[spec.ident()] = record
        say(f"{len(specs)} cells: {len(specs) - len(misses)} cached, "
            f"{len(misses)} to compute (jobs={max(1, jobs)})")
        payloads = [(spec.to_json(), hashes[spec.ident()])
                    for spec in misses]
        datas = run_batch(execute_cell, payloads, jobs=jobs)
        for spec, data in zip(misses, datas):
            record = store.put(spec, hashes[spec.ident()], data)
            outcome.records[spec.ident()] = record
            say(f"  computed {spec.ident()}")
    finally:
        moved = store.metrics.diff(before)
        outcome.computed = int(moved.get("results.cells.computed", 0))
        outcome.hits = int(moved.get("results.cells.hits", 0))
        outcome.invalidated = int(
            moved.get("results.cells.invalidated", 0))
        store.finish_run({"cells": outcome.cells,
                          "computed": outcome.computed,
                          "hits": outcome.hits,
                          "invalidated": outcome.invalidated,
                          "label": label})
    return outcome


__all__ = ["ABLATION_CONFIGS", "ABLATION_PROGRAMS", "BLOCK_ORDERS",
           "BLOCK_ORDER_PROGRAMS", "FAST_SET", "REMAT_ALLOCATORS",
           "REMAT_MACHINE", "REMAT_PROGRAMS", "SUITES", "SuiteError",
           "SuiteOutcome", "TABLE3_SIZES", "TWOPASS_PROGRAMS",
           "block_order_specs", "build_workload", "cell_code_hash",
           "dedup_specs", "execute_cell", "fuzz_specs", "quality_specs",
           "remat_specs", "run_suite", "standard_suite", "table3_specs",
           "twopass_specs"]
