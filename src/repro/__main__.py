"""Command-line interface: ``python -m repro <command> ...``.

Subcommands:

* ``run FILE.mc``       — compile a minic file and execute it;
* ``compile FILE.mc``   — dump the IR (before and, with ``--allocate``,
                          after register allocation);
* ``compare FILE.mc``   — run every allocator and print a Table-1-style
                          comparison;
* ``bench NAME``        — the same comparison on a built-in benchmark
                          analog (``python -m repro bench wc``);
* ``trace FILE.mc``     — stream the allocator's decision events
                          (assigns, evictions, reloads, resolution
                          fixes) as they happen, plus a count summary;
* ``profile FILE.mc``   — per-phase wall-clock profile of the pipeline
                          and the counters every layer published;
* ``suite [NAME ...]``  — run a declarative benchmark suite into the
                          persistent result store, computing only
                          cache-miss cells (``repro suite quick``);
* ``report``            — render every table/figure of the evaluation
                          from the result store; ``--check`` diffs them
                          against the checked-in goldens, ``--diff A B``
                          compares two suite runs (docs/REPORTING.md);
* ``serve``             — run the allocation service (JSONL over a
                          socket) with its persistent cache
                          (docs/SERVING.md).

Options shared by the single-module subcommands: ``--machine SPEC``
(``alpha``, the default, or ``tiny:<G>x<F>``), ``--context DESC`` (the
allocation context, e.g. ``remat,stress=shuffle,seed=7``; empty by
default), ``--allocator second-chance|two-pass|coloring|poletto``
(default second-chance, where a single allocator applies),
``--spill-cleanup``, and ``--trace-out FILE.jsonl`` (write every
allocation event as one JSON object per line; see docs/OBSERVABILITY.md
for the schema).  The machine and context strings are the ones the
suite, the store, ``repro serve`` and fuzz witnesses use.
"""

from __future__ import annotations

import argparse
import sys

from repro.allocators import ALLOCATOR_FACTORIES, make_allocator
from repro.ir.printer import print_module
from repro.lang import compile_minic
from repro.obs import (JsonlSink, MetricsRegistry, PhaseProfiler,
                       RingBufferSink, TextSink, Tracer)
from repro.pm.batch import compare_allocators
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import OracleMismatch, mismatch
from repro.spill import AllocationContext
from repro.stats.report import format_table
from repro.target import machine_from_spec


def _spec_type(parse):
    """An argparse ``type`` that reports ``parse``'s :class:`ValueError`
    (which names the accepted form) as the usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def _load_module(path: str, machine):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    return compile_minic(source, machine)


class _TraceOut:
    """The optional ``--trace-out FILE.jsonl`` sink, usable as a context
    manager so the file is flushed and closed on every exit path."""

    def __init__(self, args: argparse.Namespace):
        self.path = getattr(args, "trace_out", None)
        self.handle = None

    def __enter__(self) -> "_TraceOut":
        if self.path:
            try:
                self.handle = open(self.path, "w")
            except OSError as exc:
                raise SystemExit(f"cannot write {self.path}: {exc}")
        return self

    def __exit__(self, *exc) -> None:
        if self.handle is not None:
            self.handle.close()

    def tracer(self, *extra_sinks) -> Tracer | None:
        """A tracer over the JSONL sink plus ``extra_sinks`` (or ``None``
        when there is nothing to trace into — tracing stays free)."""
        sinks = [s for s in extra_sinks if s is not None]
        if self.handle is not None:
            sinks.append(JsonlSink(self.handle))
        return Tracer(sinks) if sinks else None


def _checked_run(args: argparse.Namespace, allocator, module, machine,
                 trace):
    """``checked_run``, with a failed oracle check as the exit message."""
    try:
        return CompilationSession(module, machine).checked_run(
            allocator, spill_cleanup=args.spill_cleanup, trace=trace,
            context=args.context)
    except OracleMismatch as exc:
        raise SystemExit(f"{allocator.name}: {exc}")


def cmd_run(args: argparse.Namespace) -> int:
    machine = args.machine
    module = _load_module(args.file, machine)
    allocator = make_allocator(args.allocator)
    with _TraceOut(args) as out:
        result = _checked_run(args, allocator, module, machine, out.tracer())
    outcome = result.outcome
    for value in outcome.output:
        print(value)
    print(f"# {outcome.dynamic_instructions:,} instructions, "
          f"{outcome.cycles:,} cycles, allocator: {allocator.name}",
          file=sys.stderr)
    result_value = outcome.result
    return int(result_value) & 0xFF if isinstance(result_value, int) else 0


def cmd_compile(args: argparse.Namespace) -> int:
    machine = args.machine
    module = _load_module(args.file, machine)
    if not args.allocate:
        print(print_module(module))
        return 0
    allocator = make_allocator(args.allocator)
    with _TraceOut(args) as out:
        result = CompilationSession(module, machine).run(
            allocator, spill_cleanup=args.spill_cleanup, trace=out.tracer(),
            context=args.context)
    print(print_module(result.module))
    return 0


def _comparison(args: argparse.Namespace, module, machine) -> int:
    """Print every allocator's row for ``module``, each oracle-checked."""
    reference = simulate(module, machine)
    with _TraceOut(args) as out:
        cells = compare_allocators(
            module, machine, spill_cleanup=args.spill_cleanup, jobs=args.jobs,
            trace=out.tracer(), context=args.context)
    rows = []
    for cell in cells:
        problem = mismatch(reference, cell)
        if problem:
            raise SystemExit(f"{cell.allocator}: {problem}")
        rows.append([cell.allocator, cell.dynamic_instructions, cell.cycles,
                     f"{100 * cell.spill_fraction:.2f}%",
                     f"{cell.alloc_seconds * 1000:.1f}"])
    print(format_table(
        ["allocator", "dyn instrs", "cycles", "spill%", "alloc ms"], rows))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    machine = args.machine
    return _comparison(args, _load_module(args.file, machine), machine)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.workloads.programs import PROGRAM_NAMES, build_program

    if args.name not in PROGRAM_NAMES:
        raise SystemExit(f"unknown analog {args.name!r}; choose from "
                         f"{', '.join(PROGRAM_NAMES)}")
    machine = args.machine
    module = build_program(args.name, machine)
    print(f"benchmark analog: {args.name} on {machine}")
    return _comparison(args, module, machine)


def cmd_trace(args: argparse.Namespace) -> int:
    machine = args.machine
    module = _load_module(args.file, machine)
    allocator = make_allocator(args.allocator)
    text_sink = None if args.quiet else TextSink(sys.stdout)
    with _TraceOut(args) as out:
        tracer = out.tracer(text_sink)
        if tracer is None:
            # --quiet without --trace-out: count events, print nothing.
            tracer = Tracer([RingBufferSink()])
        _checked_run(args, allocator, module, machine, tracer)
    rows = [[kind.value, count] for kind, count in tracer.counts.items()]
    print(format_table(["event", "count"], rows,
                       title=f"event summary: {allocator.name}"))
    if args.trace_out:
        total = sum(tracer.counts.values())
        print(f"# {total} events written to {args.trace_out}",
              file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    machine = args.machine
    module = _load_module(args.file, machine)
    allocator = make_allocator(args.allocator)
    profiler = PhaseProfiler()
    # One registry for the whole run so the session's analysis-cache
    # counters (pm.*) render alongside the allocator's own.
    metrics = MetricsRegistry()
    with _TraceOut(args) as out:
        session = CompilationSession(module, machine, metrics=metrics)
        result = session.run(allocator, spill_cleanup=args.spill_cleanup,
                             profiler=profiler, trace=out.tracer(),
                             metrics=metrics, context=args.context)
    stats = result.stats
    print(profiler.render(title=f"phase profile: {allocator.name}"))
    print(f"alloc_seconds = {stats.alloc_seconds * 1e3:.3f} ms "
          f"(== the 'allocate' phase, Table 3's timed core)")
    print()
    print(stats.metrics.render(title="metrics"))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import CONFIG_GRID, STRESS_GRID, fuzz

    configs = STRESS_GRID if args.stress_grid else CONFIG_GRID
    if args.config:
        by_name = {c.name: c for c in CONFIG_GRID + STRESS_GRID}
        unknown = [name for name in args.config if name not in by_name]
        if unknown:
            raise SystemExit(f"unknown config(s) {', '.join(unknown)}; "
                             f"choose from {', '.join(sorted(by_name))}")
        configs = tuple(by_name[name] for name in args.config)

    seeds = range(args.start, args.start + args.seeds)

    def progress(seed, report):
        if args.verbose:
            print(f"  seed {seed}: {report.checks} checks, "
                  f"{len(report.divergences)} divergence(s)", file=sys.stderr)

    report = fuzz(seeds, configs=configs, shrink=not args.no_shrink,
                  shrink_budget=args.shrink_budget, jobs=args.jobs,
                  progress=progress if args.verbose else None)
    print(report.format())
    if not report.ok and args.out:
        # One parseable witness: the first divergence's module, with the
        # attribution as ;;-comments (the IR comment marker), so the file
        # feeds straight into tools/shrink_ir.py.  The replay line is the
        # shrink_ir command that reproduces it, machine and context
        # spelled as everywhere else.
        import shlex

        div = report.divergences[0]
        header = [f"{div.kind} config={div.config} {div.describe}"]
        replay = ["tools/shrink_ir.py", args.out, "--config", div.config,
                  "--kind", div.kind, "--machine", div.machine]
        if div.context:
            header.append(f"context={div.context}")
            replay += ["--context", div.context]
        header.append(f"replay: {shlex.join(replay)}")
        header.extend(div.message.splitlines())
        with open(args.out, "w") as fh:
            for line in header:
                fh.write(f";; {line}\n")
            fh.write(f"{div.module_text}\n")
        print(f"# shrunken repro written to {args.out} "
              f"(first of {len(report.divergences)} divergence(s))",
              file=sys.stderr)
    return 0 if report.ok else 1


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.results import ResultStore, run_suite
    from repro.results.suite import SUITES, dedup_specs

    specs = []
    for name in (args.names or ["quick"]):
        try:
            build = SUITES[name]
        except KeyError:
            raise SystemExit(f"unknown suite {name!r}; choose from "
                             f"{', '.join(SUITES)}")
        specs.extend(build(reps=args.reps))
    specs = dedup_specs(specs)
    store = ResultStore(args.store)
    say = (lambda msg: print(msg, file=sys.stderr)) if args.verbose \
        else (lambda msg: None)
    outcome = run_suite(specs, store, jobs=args.jobs,
                        label=" ".join(args.names or ["quick"]),
                        progress=say)
    print(outcome.summary())
    print(f"store: {store.root} ({len(store)} cells)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.results import (MissingCells, ResultStore,
                               check_against_goldens, diff_runs, render_all,
                               render_runs)
    from repro.results.suite import FAST_SET

    store = ResultStore(args.store)
    if args.runs:
        print(render_runs(store))
        return 0
    if args.diff:
        try:
            print(diff_runs(store, *args.diff))
        except LookupError as exc:
            raise SystemExit(str(exc))
        return 0
    names = list(FAST_SET)
    if args.set == "full":
        from repro.workloads.programs import PROGRAM_NAMES
        names = list(PROGRAM_NAMES)
    try:
        rendered = render_all(store, names)
    except MissingCells as exc:
        raise SystemExit(f"report: {exc}")
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        for filename, text in rendered.items():
            with open(os.path.join(args.out, filename), "w") as fh:
                fh.write(text + "\n")
        print(f"wrote {len(rendered)} artifact(s) to {args.out}")
    else:
        for filename, text in rendered.items():
            print(text)
            print()
    if args.check is not None:
        golden_dir = args.check or "benchmarks/results"
        failures = check_against_goldens(rendered, golden_dir)
        if failures:
            for line in failures:
                print(f"FAIL: {line}", file=sys.stderr)
            return 1
        print(f"all {len(rendered)} artifact(s) match the goldens "
              f"in {golden_dir} (timing artifacts on their deterministic "
              f"columns)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serve import AllocationServer

    server = AllocationServer(args.store, host=args.host, port=args.port,
                              jobs=args.jobs)

    def announce():
        # The port is only known once the loop binds the socket.
        server.wait_ready()
        print(f"serving on {args.host}:{server.port} "
              f"(store: {server.cache.store.root}, jobs: {args.jobs}, "
              f"{len(server.cache)} cached artifact(s))", file=sys.stderr)

    threading.Thread(target=announce, daemon=True).start()
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    print(server.metrics.render(title="serve metrics"), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Linear-scan register allocation reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_allocator: bool = True):
        p.add_argument("--machine", default="alpha", metavar="SPEC",
                       type=_spec_type(machine_from_spec),
                       help="target machine: alpha or tiny:<G>x<F> "
                            "(default: alpha)")
        p.add_argument("--context", default="", metavar="DESC",
                       type=_spec_type(AllocationContext.parse),
                       help="allocation context: remat, stress=<mode>, "
                            "seed=<N>, comma-separated (e.g. "
                            "remat,stress=shuffle,seed=7; default: none)")
        p.add_argument("--spill-cleanup", action="store_true",
                       help="run the post-allocation spill-code cleanup")
        p.add_argument("--trace-out", metavar="FILE.jsonl", default=None,
                       help="write allocation events as JSON lines")
        if with_allocator:
            p.add_argument("--allocator", default="second-chance",
                           choices=sorted(ALLOCATOR_FACTORIES),
                           help="register allocator (default: second-chance)")

    run_p = sub.add_parser("run", help="compile and execute a minic file")
    run_p.add_argument("file")
    common(run_p)
    run_p.set_defaults(func=cmd_run)

    compile_p = sub.add_parser("compile", help="dump IR for a minic file")
    compile_p.add_argument("file")
    compile_p.add_argument("--allocate", action="store_true",
                           help="dump post-allocation code instead")
    common(compile_p)
    compile_p.set_defaults(func=cmd_compile)

    def jobs_option(p: argparse.ArgumentParser):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run up to N allocator/seed jobs in parallel "
                            "worker processes (default: 1 = serial, one "
                            "shared analysis cache); output is identical "
                            "either way")

    compare_p = sub.add_parser("compare",
                               help="compare all allocators on a minic file")
    compare_p.add_argument("file")
    common(compare_p, with_allocator=False)
    jobs_option(compare_p)
    compare_p.set_defaults(func=cmd_compare)

    bench_p = sub.add_parser("bench",
                             help="compare allocators on a built-in analog")
    bench_p.add_argument("name")
    common(bench_p, with_allocator=False)
    jobs_option(bench_p)
    bench_p.set_defaults(func=cmd_bench)

    trace_p = sub.add_parser(
        "trace", help="stream allocation decision events for a minic file")
    trace_p.add_argument("file")
    trace_p.add_argument("--quiet", action="store_true",
                         help="suppress the per-event lines (summary only)")
    common(trace_p)
    trace_p.set_defaults(func=cmd_trace)

    profile_p = sub.add_parser(
        "profile", help="per-phase wall-clock profile of the pipeline")
    profile_p.add_argument("file")
    common(profile_p)
    profile_p.set_defaults(func=cmd_profile)

    fuzz_p = sub.add_parser(
        "fuzz", help="differential-fuzz every allocator against the "
                     "simulator oracle (exit 1 on any divergence)")
    fuzz_p.add_argument("--seeds", type=int, default=50, metavar="N",
                        help="number of seeds to run (default: 50)")
    fuzz_p.add_argument("--start", type=int, default=0, metavar="SEED",
                        help="first seed (default: 0)")
    fuzz_p.add_argument("--config", action="append", metavar="NAME",
                        help="restrict to named config(s), from the default "
                             "or stress grid; repeatable")
    fuzz_p.add_argument("--stress-grid", action="store_true",
                        help="fuzz the seeded stress grid (reduced-regs / "
                             "forced-evict / shuffle, plus remat) instead "
                             "of the BinpackOptions grid")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="report failing modules without minimizing")
    fuzz_p.add_argument("--shrink-budget", type=int, default=400,
                        metavar="N",
                        help="max candidate evaluations per shrink "
                             "(default: 400)")
    fuzz_p.add_argument("--out", metavar="FILE",
                        help="also write shrunken repro IR to FILE")
    fuzz_p.add_argument("--verbose", action="store_true",
                        help="per-seed progress on stderr")
    jobs_option(fuzz_p)
    fuzz_p.set_defaults(func=cmd_fuzz)

    def store_option(p: argparse.ArgumentParser):
        p.add_argument("--store", metavar="DIR", default=None,
                       help="result-store root (default: "
                            "$REPRO_RESULT_STORE or "
                            "benchmarks/results/store)")

    suite_p = sub.add_parser(
        "suite", help="run a declarative benchmark suite into the result "
                      "store (only cache-miss cells are computed)")
    suite_p.add_argument("names", nargs="*", metavar="SUITE",
                         help="suite name(s): quick, full (default: quick)")
    suite_p.add_argument("--reps", type=int, default=3, metavar="N",
                         help="repetitions per timing cell (default: 3)")
    suite_p.add_argument("--verbose", action="store_true",
                         help="per-cell progress on stderr")
    store_option(suite_p)
    jobs_option(suite_p)
    suite_p.set_defaults(func=cmd_suite)

    report_p = sub.add_parser(
        "report", help="render the evaluation's tables and figures from "
                       "the result store")
    report_p.add_argument("--set", default="fast", choices=["fast", "full"],
                          help="analog set for the quality tables "
                               "(default: fast — the goldens' subset)")
    report_p.add_argument("--out", metavar="DIR", default=None,
                          help="write artifacts to DIR instead of stdout")
    report_p.add_argument("--check", nargs="?", const="", metavar="DIR",
                          help="diff artifacts against the goldens "
                               "(default: benchmarks/results); exit 1 on "
                               "any mismatch")
    report_p.add_argument("--diff", nargs=2, metavar=("RUN_A", "RUN_B"),
                          help="regression report between two suite runs "
                               "(see `report --runs` for ids)")
    report_p.add_argument("--runs", action="store_true",
                          help="list the store's suite runs")
    store_option(report_p)
    report_p.set_defaults(func=cmd_report)

    def worker_count(text: str) -> int:
        count = int(text)
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"needs at least one worker process, got {count}")
        return count

    serve_p = sub.add_parser(
        "serve", help="run the allocation service")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0, metavar="N",
                         help="bind port (default: 0 = ephemeral, "
                              "printed on startup)")
    serve_p.add_argument("--jobs", type=worker_count, default=1, metavar="N",
                         help="worker processes for cache misses "
                              "(default: 1)")
    store_option(serve_p)
    serve_p.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)} (a run "
                     f"takes --machine SPEC and --context DESC)")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
