#!/usr/bin/env python3
"""The tracked performance-benchmark suite (``BENCH_*.json``).

Times the pipeline's three hot kernels plus the end-to-end comparison
driver, using only public APIs, so the same tool runs unchanged against
any revision:

* ``sim.*``   — the executing simulator on benchmark analogs and on a
  deterministic fuzz-generated corpus (the Table 1/fuzz dominator);
* ``e2e.*``   — ``compare_allocators`` end-to-end (what ``repro bench``
  does: every allocator, allocation + simulation);
* ``lifetimes`` — :func:`repro.lifetimes.compute_lifetimes` over every
  analog function (RangeSet construction churn);
* ``interference`` — graph-coloring allocation (interference build
  dominated) over the highest-pressure analogs.

Each benchmark reports the **median of N reps** so one noisy rep cannot
flake CI.  Results land in a JSON document; ``--record FILE --phase
before|after`` folds the run into a trajectory file like ``BENCH_5.json``
(and computes speedups when both phases are present), while ``--check
BASELINE`` compares the current run against the recorded medians and
fails on a >``--max-slowdown`` ratio (ratio-based, so absolute runner
speed does not matter).

``--record auto`` resolves the trajectory file itself: ``--phase
before`` starts the *next* point (``BENCH_{max+1}.json``), ``--phase
after`` folds into the newest existing one — no more hand-numbering.
``--store DIR`` appends the run to the result store as a ``kind="perf"``
record (``repro report --perf`` renders the accumulated trajectory), and
``--check`` accepts either a ``BENCH_*.json`` file or a store directory
(baseline = the store's newest perf record).

Usage::

    PYTHONPATH=src python tools/perf_bench.py [--quick] [--reps N]
        [--out RUN.json] [--record BENCH_5.json|auto --phase after]
        [--check BENCH_5.json|STORE_DIR [--max-slowdown 1.5]]
        [--store benchmarks/results/store]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.lifetimes import compute_lifetimes
from repro.pm.batch import compare_allocators
from repro.pm.session import CompilationSession
from repro.results.report import bench_points
from repro.sim import simulate
from repro.target import alpha
from repro.lang.lower import compile_minic
from repro.workloads.programs import build_program, fpppp_scaled_source

#: Analogs timed per group.  ``quick`` keeps CI smoke under ~15 s of
#: measured work; ``full`` is what BENCH_*.json trajectory points use.
SIM_ANALOGS = {"quick": ["doduc", "compress", "m88ksim"],
               "full": ["doduc", "compress", "m88ksim", "fpppp", "wc"]}
E2E_ANALOGS = {"quick": ["compress"], "full": ["compress", "doduc", "sort"]}
INTERFERENCE_ANALOGS = {"quick": ["doduc", "fpppp"],
                        "full": ["doduc", "fpppp"]}
#: Fixed fuzz corpus: deterministic seeds, so every revision times the
#: exact same generated programs.
FUZZ_SEEDS = {"quick": range(0, 12), "full": range(0, 30)}


def _median_time(fn, reps: int) -> float:
    """Median wall-clock seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fuzz_corpus(seeds) -> list:
    from repro.fuzz.generate import program_for_seed

    return [program_for_seed(seed) for seed in seeds]


def run_suite(*, quick: bool = False, reps: int = 3,
              progress=None) -> dict:
    """Run every benchmark; return the result document (no I/O)."""
    mode = "quick" if quick else "full"
    machine = alpha()
    say = progress or (lambda msg: None)
    benchmarks: dict[str, dict] = {}

    def record(name: str, fn, cell_reps: int | None = None) -> None:
        say(f"  {name} ...")
        n = cell_reps if cell_reps is not None else reps
        median = _median_time(fn, n)
        benchmarks[name] = {"median_s": round(median, 6), "reps": n}
        say(f"  {name}: {median * 1e3:.1f} ms")

    say("simulator microbenchmarks")
    for name in SIM_ANALOGS[mode]:
        module = build_program(name, machine)
        record(f"sim.{name}", lambda m=module: simulate(m, machine))

    say("fuzz-corpus simulation")
    corpus = _fuzz_corpus(FUZZ_SEEDS[mode])

    def run_corpus() -> None:
        for program in corpus:
            simulate(program.module, program.machine)

    record("sim.fuzz_corpus", run_corpus)

    say("end-to-end allocator comparison")
    for name in E2E_ANALOGS[mode]:
        module = build_program(name, machine)
        record(f"e2e.{name}",
               lambda m=module: compare_allocators(m, machine))

    say("lifetime construction")
    analog_modules = [build_program(name, machine)
                      for name in SIM_ANALOGS[mode]]
    fns = [fn for module in analog_modules
           for fn in module.functions.values()]

    def run_lifetimes() -> None:
        for iteration in range(10):
            for fn in fns:
                compute_lifetimes(fn, machine)

    # The lifetimes cell is short (~0.1 s of kernel work per rep) and
    # dominated by allocation churn, so single reps scatter up to ~1.2×
    # run to run — BENCH_7's apparent 0.76× "regression" was exactly this
    # (every non-interference cell in that run drifted together; see
    # docs/PERFORMANCE.md).  Nine reps make the median trustworthy.
    record("lifetimes", run_lifetimes, cell_reps=max(reps, 9))

    say("interference build (graph coloring)")
    from repro.allocators import GraphColoring

    for name in INTERFERENCE_ANALOGS[mode]:
        module = build_program(name, machine)

        def run_coloring(m=module) -> None:
            session = CompilationSession(m, machine)
            session.run(GraphColoring())

        record(f"interference.{name}", run_coloring)

    # A scaled-down fpppp (same huge-block shape, fraction of the size):
    # a cheap cell the perf-smoke gate can lean on when full-fpppp noise
    # would otherwise force a generous slowdown threshold.
    scaled = compile_minic(fpppp_scaled_source(), machine)

    def run_scaled(m=scaled) -> None:
        session = CompilationSession(m, machine)
        session.run(GraphColoring())

    record("interference.quick", run_scaled)

    groups: dict[str, float] = {}
    for name, cell in benchmarks.items():
        group = name.split(".", 1)[0]
        groups[group] = round(groups.get(group, 0.0) + cell["median_s"], 6)
    return {"schema": 1, "mode": mode, "reps": reps,
            "benchmarks": benchmarks, "groups": groups}


# ----------------------------------------------------------------------
# Trajectory files (BENCH_*.json) and the CI regression gate.
# ----------------------------------------------------------------------
def resolve_record_path(spec: str, phase: str,
                        repo_root: str | Path = ".") -> str:
    """Resolve ``--record auto``: ``before`` opens the next trajectory
    point (``BENCH_{max+1}.json``), ``after`` folds into the newest
    existing file (or starts ``BENCH_1.json`` on an empty repo)."""
    if spec != "auto":
        return spec
    existing = bench_points(repo_root)
    if phase == "before" or not existing:
        nxt = existing[-1][0] + 1 if existing else 1
        return str(Path(repo_root) / f"BENCH_{nxt}.json")
    return str(existing[-1][1])


def store_run(store_dir: str, run: dict) -> None:
    """Append ``run`` to the result store as one ``kind="perf"`` record
    (its own single-cell store run, so manifests stay per-invocation)."""
    from repro.results.store import CellKey, ResultStore, content_hash

    store = ResultStore(store_dir)
    key = CellKey(workload=f"perf:{run['mode']}", allocator="suite",
                  machine="host", kind="perf", reps=run["reps"])
    run_id = store.begin_run(label="perf-bench")
    store.put(key, content_hash(run["mode"], str(run["reps"])), run)
    store.finish_run({"computed": 1, "hits": 0, "invalidated": 0})
    print(f"recorded perf run {run_id} in store {store.root}")


def _load_baseline(path: str) -> dict:
    """Baseline run document from a ``BENCH_*.json`` file or, given a
    store directory, the store's newest perf record."""
    p = Path(path)
    if p.is_dir():
        from repro.results.store import ResultStore

        perf = [r for r in ResultStore(p).iter_latest()
                if r.key.kind == "perf"]
        if not perf:
            raise FileNotFoundError(f"no perf records in store {p}")
        return max(perf, key=lambda r: r.seq).data
    with open(p) as fh:
        doc = json.load(fh)
    return doc.get("after") or doc.get("before") or doc


def fold_into(path: str, phase: str, run: dict) -> dict:
    """Insert ``run`` as the ``phase`` of trajectory file ``path``.

    With both ``before`` and ``after`` present, per-group speedups
    (before / after) are recomputed.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"schema": 1, "tool": "tools/perf_bench.py"}
    doc[phase] = run
    if "before" in doc and "after" in doc:
        speedup = {}
        after_groups = doc["after"]["groups"]
        for group, before_s in doc["before"]["groups"].items():
            if group in after_groups and after_groups[group] > 0:
                speedup[group] = round(before_s / after_groups[group], 2)
        doc["speedup"] = speedup
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


#: Benchmarks whose *workload* depends on the mode (seed count, analog
#: set), so a quick run cannot be compared against a full baseline.
_MODE_DEPENDENT = {"sim.fuzz_corpus", "lifetimes"}


def check_against(baseline_path: str, run: dict,
                  max_slowdown: float) -> list[str]:
    """Per-benchmark regression check: current vs the file's newest phase.

    Returns failure messages (empty = pass).  Only benchmarks present in
    both documents are compared, so adding one never breaks the gate
    retroactively; a ``--quick`` run checks cleanly against a full
    baseline because each ``sim.<analog>`` / ``e2e.<analog>`` /
    ``interference.<analog>`` cell times the identical workload in both
    modes (the mode-dependent cells are skipped on a mode mismatch).

    The baseline was recorded on whatever machine cut the trajectory
    point, so raw ratios fold in the runner-speed difference.  Each
    ratio is therefore normalized by the **median ratio across all
    compared benchmarks**: a uniformly slower runner cancels out, while
    one regressed kernel stands out against the rest.
    """
    baseline = _load_baseline(baseline_path)
    base_cells = baseline.get("benchmarks", {})
    same_mode = baseline.get("mode") == run["mode"]
    ratios: dict[str, tuple[float, float, float]] = {}
    for name, cell in run["benchmarks"].items():
        base = base_cells.get(name)
        if base is None or not base.get("median_s"):
            continue
        if name in _MODE_DEPENDENT and not same_mode:
            print(f"  {name}: skipped (workload differs between "
                  f"{run['mode']} and {baseline.get('mode')} modes)")
            continue
        current_s = cell["median_s"]
        base_s = base["median_s"]
        ratios[name] = (current_s, base_s, current_s / base_s)
    if not ratios:
        print("  no comparable benchmarks in baseline; nothing to check")
        return []
    scale = statistics.median(r for _, _, r in ratios.values())
    print(f"  runner-speed normalization: median ratio {scale:.2f}x")
    failures = []
    for name, (current_s, base_s, ratio) in ratios.items():
        normalized = ratio / scale
        status = "ok" if normalized <= max_slowdown else "REGRESSION"
        print(f"  {name}: {current_s * 1e3:.1f} ms vs baseline "
              f"{base_s * 1e3:.1f} ms ({normalized:.2f}x normalized) "
              f"{status}")
        if normalized > max_slowdown:
            failures.append(f"{name}: {normalized:.2f}x slower than the "
                            f"run's own median ratio "
                            f"(limit {max_slowdown:.2f}x)")
    return failures


def format_run(run: dict) -> str:
    lines = [f"perf bench ({run['mode']}, median of {run['reps']} reps)"]
    for name, cell in run["benchmarks"].items():
        lines.append(f"  {name:24s} {cell['median_s'] * 1e3:10.1f} ms")
    lines.append("  " + "-" * 38)
    for group, total in run["groups"].items():
        lines.append(f"  {group + ' (total)':24s} {total * 1e3:10.1f} ms")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller analog/corpus set (CI smoke)")
    parser.add_argument("--reps", type=int, default=3, metavar="N",
                        help="reps per benchmark; the median is kept "
                             "(default: 3)")
    parser.add_argument("--out", metavar="RUN.json",
                        help="write this run's document to RUN.json")
    parser.add_argument("--record", metavar="BENCH.json|auto",
                        help="fold the run into a trajectory file; 'auto' "
                             "picks BENCH_{max+1}.json for --phase before "
                             "and the newest existing file for after")
    parser.add_argument("--phase", choices=["before", "after"],
                        default="after",
                        help="which phase --record fills (default: after)")
    parser.add_argument("--check", metavar="BENCH.json|STORE_DIR",
                        help="fail on regression vs the recorded medians "
                             "(a store directory checks against its "
                             "newest perf record)")
    parser.add_argument("--store", metavar="DIR",
                        help="append the run to a result store as a "
                             "kind='perf' record")
    parser.add_argument("--max-slowdown", type=float, default=1.5,
                        help="--check failure threshold as a ratio "
                             "(default: 1.5)")
    parser.add_argument("--verbose", action="store_true",
                        help="progress on stderr while measuring")
    args = parser.parse_args(argv)

    progress = ((lambda msg: print(msg, file=sys.stderr))
                if args.verbose else None)
    run = run_suite(quick=args.quick, reps=args.reps, progress=progress)
    print(format_run(run))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(run, fh, indent=2)
            fh.write("\n")
    if args.store:
        store_run(args.store, run)
    if args.record:
        path = resolve_record_path(args.record, args.phase)
        if path != args.record:
            print(f"--record auto -> {path} (phase {args.phase})")
        doc = fold_into(path, args.phase, run)
        if "speedup" in doc:
            print("speedup vs before: "
                  + ", ".join(f"{g}: {s:.2f}x"
                              for g, s in doc["speedup"].items()))
    if args.check:
        print(f"regression check vs {args.check} "
              f"(limit {args.max_slowdown:.2f}x):")
        failures = check_against(args.check, run, args.max_slowdown)
        if failures:
            for line in failures:
                print(f"FAIL: {line}", file=sys.stderr)
            return 1
        print("  all benchmarks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
