"""Render every reproduced table and figure from the result store.

One store, one renderer per artifact: Table 1 (quality), Table 2 (spill
percentage), Table 3 (allocation time vs problem size), Figure 3 (spill
composition), the design-choice ablations, the block-order study, and
Section 3.1's two-pass comparison — plus a run-to-run regression diff.

Every renderer is a pure function of store records, so ``repro report``
output is byte-identical across invocations over the same store — the
property the golden files under ``benchmarks/results/`` pin down.  The
benchmark pytest wrappers call the same functions, so the tests and the
CLI can never drift apart.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.results.store import CellKey, Record, ResultStore
from repro.results.suite import (ABLATION_CONFIGS, ABLATION_PROGRAMS,
                                 BLOCK_ORDER_PROGRAMS, FAST_SET,
                                 REMAT_ALLOCATORS, REMAT_MACHINE,
                                 REMAT_PROGRAMS, TABLE3_SIZES,
                                 TWOPASS_PROGRAMS)
from repro.stats.report import format_table

#: Figure 3's category order (mirrors ``FIGURE3_CATEGORIES`` without
#: importing enum machinery into the reporting layer).
FIGURE3_KEYS = ["evict.load", "evict.store", "evict.move",
                "resolve.load", "resolve.store", "resolve.move"]

#: The artifacts ``render_all`` produces, in report order.
REPORT_FILES = ["table1.txt", "table2.txt", "table3.txt", "figure3.txt",
                "ablations.txt", "block_order.txt", "section31_twopass.txt",
                "remat_ablation.txt"]


class MissingCells(LookupError):
    """A renderer needed cells the store does not (yet) contain."""

    def __init__(self, idents: list[str]):
        self.idents = idents
        preview = ", ".join(idents[:3]) + ("..." if len(idents) > 3 else "")
        super().__init__(f"{len(idents)} cell(s) missing from the store "
                         f"({preview}); run `python -m repro suite` first")


def _cells(store: ResultStore, keys: list[CellKey]) -> list[Record]:
    records, missing = [], []
    for key in keys:
        record = store.peek(key)
        if record is None:
            missing.append(key.ident())
        else:
            records.append(record)
    if missing:
        raise MissingCells(missing)
    return records


def _quality(store: ResultStore, name: str, allocator: str,
             order: str = "layout", machine: str = "alpha") -> dict:
    [record] = _cells(store, [CellKey(workload=f"analog:{name}",
                                      allocator=allocator, order=order,
                                      machine=machine)])
    return record.data


def _fraction(data: dict) -> float:
    if not data["dynamic_instructions"]:
        return 0.0
    return data["total_spill"] / data["dynamic_instructions"]


# ----------------------------------------------------------------------
# The paper's tables and figures.
# ----------------------------------------------------------------------
def table1_rows(store: ResultStore, names: list[str]) -> list[list]:
    rows = []
    for name in names:
        b = _quality(store, name, "second-chance")
        c = _quality(store, name, "coloring")
        rows.append([
            name,
            b["dynamic_instructions"], c["dynamic_instructions"],
            b["dynamic_instructions"] / c["dynamic_instructions"],
            b["cycles"], c["cycles"],
            b["cycles"] / c["cycles"],
        ])
    return rows


def render_table1(store: ResultStore, names: list[str]) -> str:
    return format_table(
        ["benchmark", "binpack instrs", "GC instrs", "ratio",
         "binpack cycles", "GC cycles", "ratio"],
        table1_rows(store, names),
        title=("Table 1: dynamic instruction counts and simulated run time "
               "(binpack = second-chance binpacking, GC = graph coloring)"))


def table2_rows(store: ResultStore, names: list[str]) -> list[list]:
    rows = []
    for name in names:
        b = _quality(store, name, "second-chance")
        c = _quality(store, name, "coloring")
        rows.append([name,
                     f"{100 * _fraction(b):.3f}%",
                     f"{100 * _fraction(c):.3f}%"])
    return rows


def render_table2(store: ResultStore, names: list[str]) -> str:
    return format_table(
        ["benchmark", "binpack spill", "GC spill"],
        table2_rows(store, names),
        title=("Table 2: percentage of total dynamic instructions due to "
               "spill code (allocation candidates only)"))


def figure3_rows(store: ResultStore, names: list[str]) -> list[list]:
    rows = []
    for name in names:
        b = _quality(store, name, "second-chance")
        c = _quality(store, name, "coloring")
        if b["total_spill"] == 0 and c["total_spill"] == 0:
            continue  # the figure covers benchmarks with spill code
        base = b["total_spill"]
        for tag, data in ((f"{name}-b", b), (f"{name}-c", c)):
            if base == 0:
                # Nothing to normalize against: a ratio here would be a
                # raw count in disguise.
                cells = ["n/a" for _ in FIGURE3_KEYS]
            else:
                cells = [f"{data['spill_categories'][key] / base:.3f}"
                         for key in FIGURE3_KEYS]
            rows.append([tag] + cells + [data["total_spill"]])
    return rows


def render_figure3(store: ResultStore, names: list[str]) -> str:
    headers = (["bar"] + [f"{key.split('.')[0][:7]}.{key.split('.')[1]}s"
                          for key in FIGURE3_KEYS] + ["dyn spill"])
    return format_table(
        headers, figure3_rows(store, names),
        title=("Figure 3: spill-code composition, normalized to the "
               "binpacking total per benchmark (-b = binpack, -c = GC)"))


def ablation_rows(store: ResultStore) -> list[list]:
    rows = []
    for name in ABLATION_PROGRAMS:
        counts = {}
        for config, (allocator, options, cleanup) in ABLATION_CONFIGS.items():
            [record] = _cells(store, [CellKey(
                workload=f"analog:{name}", allocator=allocator,
                options=options, spill_cleanup=cleanup)])
            counts[config] = record.data["dynamic_instructions"]
        full = counts["full"]
        rows.append([name] + [counts[config] / full
                              for config in ABLATION_CONFIGS])
    return rows


def render_ablations(store: ResultStore) -> str:
    return format_table(
        ["benchmark"] + list(ABLATION_CONFIGS), ablation_rows(store),
        title=("Ablations: dynamic instructions relative to full "
               "second-chance binpacking (1.000 = full configuration)"))


def block_order_rows(store: ResultStore) -> list[list]:
    rows = []
    for name in BLOCK_ORDER_PROGRAMS:
        def dyn(order: str, allocator: str) -> int:
            [record] = _cells(store, [CellKey(
                workload=f"analog:{name}", allocator=allocator, order=order)])
            return record.data["dynamic_instructions"]
        base_b = dyn("layout", "second-chance")
        base_c = dyn("layout", "coloring")
        rows.append([
            name,
            dyn("rpo", "second-chance") / base_b,
            dyn("scrambled", "second-chance") / base_b,
            dyn("rpo", "coloring") / base_c,
            dyn("scrambled", "coloring") / base_c,
        ])
    return rows


def render_block_order(store: ResultStore) -> str:
    return format_table(
        ["benchmark", "binpack rpo", "binpack scrambled",
         "GC rpo", "GC scrambled"],
        block_order_rows(store),
        title=("Block-order sensitivity: dynamic instructions relative to "
               "the frontend layout order (linear scan depends on the "
               "linear order; coloring is the control)"))


def section31_rows(store: ResultStore) -> list[list]:
    rows = []
    for name in TWOPASS_PROGRAMS:
        sc = _quality(store, name, "second-chance")
        tp = _quality(store, name, "two-pass")
        rows.append([name, sc["dynamic_instructions"],
                     tp["dynamic_instructions"],
                     tp["dynamic_instructions"] / sc["dynamic_instructions"],
                     tp["cycles"] / sc["cycles"]])
    return rows


def render_section31(store: ResultStore) -> str:
    return format_table(
        ["benchmark", "second-chance instrs", "two-pass instrs",
         "instr ratio", "cycle ratio"],
        section31_rows(store),
        title=("Section 3.1: two-pass binpacking vs second chance "
               "(paper: wc 1.38x, eqntott 1.0004x)"))


def remat_rows(store: ResultStore) -> list[list]:
    rows = []
    for name in REMAT_PROGRAMS:
        for allocator in REMAT_ALLOCATORS:
            def data(context: str) -> dict:
                [record] = _cells(store, [CellKey(
                    workload=f"analog:{name}", allocator=allocator,
                    machine=REMAT_MACHINE, context=context)])
                return record.data

            def loads(d: dict) -> int:
                cats = d["spill_categories"]
                return cats.get("evict.load", 0) + cats.get("resolve.load", 0)

            base, remat = data(""), data("remat")
            remats = (remat["spill_categories"].get("evict.remat", 0)
                      + remat["spill_categories"].get("resolve.remat", 0))
            rows.append([f"{name}/{allocator}",
                         loads(base), loads(remat), remats,
                         base["cycles"], remat["cycles"],
                         f"{remat['cycles'] / base['cycles']:.4f}"])
    return rows


def render_remat(store: ResultStore) -> str:
    return format_table(
        ["program/allocator", "loads off", "loads on", "remats",
         "cycles off", "cycles on", "cycle ratio"],
        remat_rows(store),
        title=(f"Rematerialization ablation on {REMAT_MACHINE}: dynamic "
               "spill loads and cycles with constant remat off/on "
               "(re-issued li/fli replaces reloads; ratio < 1 = faster)"))


def table3_rows(store: ResultStore, sizes: list[int] | None = None,
                reps: int | None = None) -> tuple[list[list], int]:
    """Rows plus the repetition count the title reports (the minimum
    across cells — every cell is timed at least that many times)."""
    rows, reps_seen = [], []
    for n in (sizes if sizes is not None else TABLE3_SIZES):
        cells = {}
        for allocator in ("second-chance", "coloring"):
            record = None
            if reps is not None:
                record = store.peek(CellKey(workload=f"synthetic:{n}",
                                            allocator=allocator,
                                            kind="timing", reps=reps))
            if record is None:
                # Whatever repetition count the store has for this size.
                candidates = [r for r in store.iter_latest()
                              if r.key.kind == "timing"
                              and r.key.workload == f"synthetic:{n}"
                              and r.key.allocator == allocator]
                record = max(candidates, key=lambda r: r.seq, default=None)
            if record is None:
                raise MissingCells([CellKey(workload=f"synthetic:{n}",
                                            allocator=allocator,
                                            kind="timing",
                                            reps=reps or 3).ident()])
            cells[allocator] = record.data
        b, c = cells["second-chance"], cells["coloring"]
        reps_seen += [b["repetitions"], c["repetitions"]]
        shared = max(b["shared_setup_seconds"], c["shared_setup_seconds"])
        per_run = max(b["setup_seconds"], c["setup_seconds"])
        rows.append([n, b["candidates"], c["edges"], c["rounds"],
                     round(shared, 3), round(per_run, 4),
                     round(c["core_seconds"], 3),
                     round(b["core_seconds"], 3),
                     c["core_seconds"] / max(b["core_seconds"], 1e-9)])
    return rows, min(reps_seen)


def render_table3(store: ResultStore, sizes: list[int] | None = None,
                  reps: int | None = None) -> str:
    rows, reps_reported = table3_rows(store, sizes, reps)
    return format_table(
        ["target candidates", "candidates", "if-graph edges",
         "color rounds", "shared setup (s)", "per-run setup (s)",
         "GC core (s)", "binpack core (s)", "GC/binpack"],
        rows,
        title=("Table 3: allocation-core time vs problem size "
               f"(median of {reps_reported} repetitions per cell; shared "
               "setup paid once per module, per-run setup is the cached-"
               "analysis rebind each repetition pays)"))


def render_all(store: ResultStore, names: list[str] | None = None,
               ) -> dict[str, str]:
    """Every checked-in artifact, keyed by its golden filename."""
    names = list(names if names is not None else FAST_SET)
    return {
        "table1.txt": render_table1(store, names),
        "table2.txt": render_table2(store, names),
        "table3.txt": render_table3(store),
        "figure3.txt": render_figure3(store, names),
        "ablations.txt": render_ablations(store),
        "block_order.txt": render_block_order(store),
        "section31_twopass.txt": render_section31(store),
        "remat_ablation.txt": render_remat(store),
    }


# ----------------------------------------------------------------------
# Golden comparison (the CI report-smoke gate).
# ----------------------------------------------------------------------
#: Artifacts whose cells are wall-clock measurements: compared
#: structurally (row keys and deterministic columns), not byte-for-byte,
#: because a CI runner cannot reproduce another machine's timings.
TIMING_FILES = {"table3.txt"}


def _table3_shape(text: str) -> list[tuple[str, ...]]:
    """The deterministic prefix of every table3 data row: target size,
    candidates, edges, color rounds."""
    rows = []
    for line in text.splitlines():
        fields = line.split()
        if fields and re.fullmatch(r"[\d,]+", fields[0]):
            rows.append(tuple(fields[:4]))
    return rows


def check_against_goldens(rendered: dict[str, str], golden_dir: Path,
                          ) -> list[str]:
    """Compare rendered artifacts with the checked-in goldens.

    Deterministic artifacts must match byte-for-byte; timing artifacts
    (``table3.txt``) must match on their deterministic columns.  Returns
    failure messages (empty = pass).
    """
    failures = []
    for filename, text in rendered.items():
        golden_path = Path(golden_dir) / filename
        if not golden_path.is_file():
            failures.append(f"{filename}: no golden at {golden_path}")
            continue
        golden = golden_path.read_text().rstrip("\n")
        current = text.rstrip("\n")
        if filename in TIMING_FILES:
            if _table3_shape(current) != _table3_shape(golden):
                failures.append(
                    f"{filename}: deterministic columns (size, candidates, "
                    f"edges, rounds) differ from the golden")
            continue
        if current != golden:
            for i, (a, b) in enumerate(zip(golden.splitlines(),
                                           current.splitlines())):
                if a != b:
                    failures.append(f"{filename}: first difference at line "
                                    f"{i + 1}:\n  golden:  {a}\n"
                                    f"  current: {b}")
                    break
            else:
                failures.append(f"{filename}: line count differs "
                                f"({len(golden.splitlines())} golden vs "
                                f"{len(current.splitlines())} current)")
    return failures


# ----------------------------------------------------------------------
# Run-to-run regression diff.
# ----------------------------------------------------------------------
#: Record fields compared by ``--diff``, per cell kind.
_DIFF_FIELDS = {
    "quality": ["dynamic_instructions", "cycles", "total_spill",
                "allocated_sha"],
    "timing": ["candidates", "edges", "rounds", "core_seconds"],
}


def diff_runs(store: ResultStore, run_a: str, run_b: str) -> str:
    """A regression report between two suite runs.

    Compares the records each run's manifest points at, cell by cell:
    quality cells on their observable counts (and the allocated-module
    hash, which catches "same counts, different code"), timing cells on
    their deterministic size columns plus the core-seconds ratio.
    """
    a, b = store.manifest(run_a), store.manifest(run_b)
    missing = [run for run, doc in ((run_a, a), (run_b, b)) if doc is None]
    if missing:
        known = ", ".join(doc["run"] for doc in store.runs()) or "(none)"
        raise LookupError(f"unknown run(s) {', '.join(missing)}; "
                          f"store has: {known}")
    cells_a, cells_b = a["cells"], b["cells"]
    shared = [i for i in cells_a if i in cells_b]
    only_a = [i for i in cells_a if i not in cells_b]
    only_b = [i for i in cells_b if i not in cells_a]
    rows, identical = [], 0
    for ident in shared:
        ra, rb = store.record(cells_a[ident]), store.record(cells_b[ident])
        if ra is None or rb is None:
            continue
        if ra.seq == rb.seq:
            identical += 1
            continue
        changed = False
        for fname in _DIFF_FIELDS.get(ra.key.kind, []):
            va, vb = ra.data.get(fname), rb.data.get(fname)
            if va == vb:
                continue
            changed = True
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)) \
                    and va:
                shown_a, shown_b, ratio = va, vb, f"{vb / va:.3f}"
            else:
                shown_a = str(va)[:12]
                shown_b = str(vb)[:12]
                ratio = ""
            rows.append([ident, fname, shown_a, shown_b, ratio])
        if not changed:
            identical += 1
    lines = [f"diff {run_a} -> {run_b}: {len(shared)} shared cell(s), "
             f"{identical} identical, {len(rows)} changed value(s)"]
    if only_a:
        lines.append(f"only in {run_a}: {len(only_a)} cell(s)")
    if only_b:
        lines.append(f"only in {run_b}: {len(only_b)} cell(s)")
    if rows:
        lines.append(format_table(
            ["cell", "field", run_a, run_b, "ratio"], rows))
    return "\n".join(lines)


def render_runs(store: ResultStore) -> str:
    """The store's run manifests as a table."""
    rows = [[doc["run"], doc.get("label") or "-",
             doc["stats"].get("cells", len(doc["cells"])),
             doc["stats"].get("computed", "?"),
             doc["stats"].get("hits", "?"),
             doc["stats"].get("invalidated", "?")]
            for doc in store.runs()]
    return format_table(
        ["run", "label", "cells", "computed", "hits", "invalidated"],
        rows, title=f"store runs ({store.root})")


__all__ = ["FIGURE3_KEYS", "MissingCells", "REPORT_FILES", "TIMING_FILES",
           "ablation_rows", "block_order_rows", "check_against_goldens",
           "diff_runs", "figure3_rows", "render_ablations", "render_all",
           "render_block_order", "render_figure3", "render_remat",
           "render_runs", "render_section31", "render_table1",
           "render_table2", "render_table3", "remat_rows", "section31_rows",
           "table1_rows", "table2_rows", "table3_rows"]
