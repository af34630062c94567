#!/usr/bin/env python3
"""The repository's benchmark: source text to a simulated, verified result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analogs --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``analogs`` — the eleven paper analogs, minic source through
  second-chance binpacking and graph coloring, simulated and checked;
* ``table3`` — Table-3-shaped straight-line IR modules through all four
  allocators;
* ``serve`` — a closed loop of two clients against an in-process
  allocation server.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed amount of the workload twice, once through the
public entry points and once one layer at a time under spans, and reports
the per-layer metrics.  Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analogs", "table3", "serve")
#: Fresh processes timed from start to workload ready; setup_s is their
#: median.
SETUP_SAMPLES = 5
#: Tail percentiles tried from the top; the first with at least
#: TAIL_BEYOND samples above it in one pass is reported as the tail
#: latency.  Passes have a fixed size per workload, so every run of a
#: workload reports the same percentile.
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75)
TAIL_BEYOND = 10
#: Per-layer seconds that are not span self times.
NOT_SPANS = {"serve.hit_latency_p50_s", "serve.miss_latency_p50_s",
             "unattributed_s", "trace.wall_s"}


# ----------------------------------------------------------------------
# Small statistics.
# ----------------------------------------------------------------------
def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with TAIL_BEYOND samples beyond it,
    or the median when none has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n - math.ceil(q * n) >= TAIL_BEYOND:
            return nearest_rank(ordered, q), f"p{round(q * 100)}"
    return statistics.median(ordered), "p50"


def geomean(values: list[int]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children (the
    serve pool worker), from /proc."""
    def hwm_kb(pid: str) -> int:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    total = hwm_kb("self")
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if ppid == me:
                total += hwm_kb(entry)
        except (OSError, ValueError, IndexError):
            continue   # the process ended while we looked
    return total / 1024


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
def make_workload(name: str, seed: int, workdir: Path):
    if name == "serve":
        from serve import ServeWorkload

        return ServeWorkload(seed, workdir, peak_rss_mb)
    from batch import BatchWorkload

    return BatchWorkload(name, seed)


def measure_setup(args) -> list[float]:
    """Start SETUP_SAMPLES fresh processes that only set the workload
    up; time each from spawn to its READY line."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 args.workload, "--seed", str(args.seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"setup process failed (exit {code})")
        samples.append(ready)
    return samples


def run_batch(workload, seconds: float, failures: list[str]):
    """Whole passes over the workload's modules until ``seconds`` have
    passed.  Returns (per-pass latencies, per-pass walls, distinct pair
    figures)."""
    passes: list[list[float]] = []
    walls: list[float] = []
    figures: dict = {}
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        latencies: list[float] = []
        t_pass = time.perf_counter()
        for item in workload.next_pass():
            t1 = time.perf_counter()
            try:
                pairs = workload.op(item)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                failures.append(f"{item.name}: {exc!r}")
                latencies.append(math.inf)
                continue
            latencies.append(time.perf_counter() - t1)
            record_pairs(figures, pairs, failures)
        walls.append(time.perf_counter() - t_pass)
        passes.append(latencies)
    return passes, walls, figures


def record_pairs(figures: dict, pairs, failures: list[str]) -> None:
    """Add pair figures; a pair seen before must repeat exactly."""
    for pair in pairs:
        key = (pair.module, pair.allocator)
        if key in figures and figures[key] != pair:
            failures.append(f"{key}: figures differ between passes "
                            f"({figures[key]} vs {pair})")
        figures[key] = pair


def code_metrics(figures: dict) -> tuple[float, float]:
    pairs = list(figures.values())
    if not pairs:   # every operation failed; the run reports incorrect
        return 0.0, 0.0
    cycles = geomean([p.cycles for p in pairs])
    spill = (sum(p.spill_instructions for p in pairs)
             / sum(p.dynamic_instructions for p in pairs))
    return cycles, spill


def code_hash() -> str:
    """Hash of the program and benchmark sources: runs of the same code
    share it."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.rglob("*.py"),
                        *HERE.rglob("*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pair_figures(figures: dict) -> dict:
    return {f"{m}|{a}": [p.cycles, p.dynamic_instructions,
                         p.spill_instructions, p.text_sha]
            for (m, a), p in figures.items()}


def check_repeat(keep: Path, args, figures: dict,
                 failures: list[str]) -> None:
    """Compare this run's deterministic figures with those earlier runs
    of the same code and seed left in the checkout, then add them."""
    path = keep / "repeat" / (f"{args.workload}-seed{args.seed}-"
                              f"trace{args.trace}-{code_hash()}.json")
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = {k: (earlier[k], v) for k, v in figures.items()
              if k in earlier and earlier[k] != v}
    if differ:
        failures.append(f"{len(differ)} figures differ from an earlier run "
                        f"of the same code and seed, e.g. "
                        f"{next(iter(differ.items()))}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**earlier, **figures}, sort_keys=True))
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics.
# ----------------------------------------------------------------------
def timed_run(args, scratch: Path, keep: Path
              ) -> tuple[dict, int, list[str], list[str]]:
    failures: list[str] = []
    notes: list[str] = []
    workload = make_workload(args.workload, args.seed, scratch)
    try:
        if args.workload == "serve":
            from serve import PASS_REQUESTS, TIMED_CLIENTS

            # Whole passes, each on a fresh server, until --seconds of
            # measuring.  Peak memory is the first pass's: later passes
            # would add the benchmark's own verification heap.
            passes, walls, responses, rss, coalesced = [], [], [], 0.0, 0
            while sum(walls) < args.seconds:
                live = workload.live(PASS_REQUESTS, TIMED_CLIENTS)
                # Off the clock: re-simulate every answer.
                failures += workload.verify(live.responses)
                passes.append([math.inf if r.error else r.latency
                               for r in live.responses])
                walls.append(live.wall_s)
                responses += live.responses
                rss = rss or live.peak_rss_mb
                coalesced += live.stats["metrics"].get("serve.coalesced", 0)
        else:
            passes, walls, figures = run_batch(workload, args.seconds,
                                               failures)
            rss = peak_rss_mb()
    finally:
        workload.close()
    if args.workload == "serve":
        figures = workload.figures
        if set(figures) != workload.pairs:
            failures.append(f"{len(workload.pairs - set(figures))} pairs "
                            f"not verified")
        cycles, spill = code_metrics(figures)
        notes.append(f"code metrics over {len(figures)} pairs; "
                     f"hit rate {sum(r.cached for r in responses)}"
                     f"/{len(responses)}; coalesced {coalesced}")
    else:
        cycles, spill = code_metrics(figures)
        notes.append(f"code metrics over {len(figures)} pairs")
    check_repeat(keep, args, pair_figures(figures), failures)
    # Each statistic is taken per pass (equal work), and the run reports
    # its median over passes, so a slow spell in one pass does not move it.
    attempted = sum(len(p) for p in passes)
    rates = [sum(1 for x in p if x != math.inf) / wall
             for p, wall in zip(passes, walls)]
    tails = [tail_latency(p) for p in passes]
    notes.append(f"{len(passes)} passes of {len(passes[0])} operations; "
                 f"per-pass statistics, median over passes; latency_p99_s "
                 f"reports {tails[0][1]}")
    setup = measure_setup(args)
    notes.append("setup samples: " + ", ".join(f"{s:.3f}" for s in setup))
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_s": statistics.median(statistics.median(p)
                                           for p in passes),
        "latency_p99_s": statistics.median(t for t, _name in tails),
        "code_cycles_geomean": cycles,
        "code_spill_fraction": spill,
        "peak_rss_mb": rss,
    }
    notes.append(f"error_rate {len(failures) / max(attempted, 1):.6f} "
                 f"({len(failures)} failures / {attempted} attempted)")
    return metrics, attempted, failures, notes


# ----------------------------------------------------------------------
# The traced run: per-layer metrics.
# ----------------------------------------------------------------------
def interleave(units, spans, untraced, traced):
    """Run every unit untraced and traced, alternating which goes first,
    so drift and warm-up fall on both sides alike.  Returns both result
    lists and the untraced wall time."""
    results: tuple[list, list] = ([], [])
    untraced_wall = 0.0
    for i, unit in enumerate(units):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side == 0:
                t0 = time.perf_counter()
                results[0].append(untraced(unit))
                untraced_wall += time.perf_counter() - t0
            else:
                spans.start()
                results[1].append(traced(unit))
                spans.stop()
    return results[0], results[1], untraced_wall


def traced_run(args, scratch: Path, keep: Path, wanted: list[dict]
               ) -> tuple[dict, int, list[str], list[str]]:
    from spans import NullSpans, Spans

    failures: list[str] = []
    notes: list[str] = []
    counts: Counter = Counter()
    spans = Spans()
    # A layer the workload never enters reads 0.
    metrics: dict = {m["name"]: 0 for m in wanted}
    span_metrics = {m["name"][:-2] for m in wanted
                    if m["unit"] == "s" and m["name"] not in NOT_SPANS}
    workload = make_workload(args.workload, args.seed, scratch)
    try:
        if args.workload == "serve":
            from serve import (LIVE_CLIENTS, LIVE_REQUESTS, TRACED_REQUESTS,
                               hit_miss_p50)

            live = workload.live(LIVE_REQUESTS, LIVE_CLIENTS)
            failures += workload.verify(live.responses)
            hit, miss, rate = hit_miss_p50(live)
            metrics.update({
                "serve.hit_latency_p50_s": hit,
                "serve.miss_latency_p50_s": miss,
                "serve.hit_rate": rate,
                "serve.coalesced": live.stats["metrics"].get(
                    "serve.coalesced", 0)})
            attempted = len(live.responses) + 2 * TRACED_REQUESTS
            # Untraced here is the same path with spans off: the public
            # allocation_artifact also builds a profile and a metrics
            # snapshot, so it is not the same work.
            caches = workload.open_cache(), workload.open_cache()
            try:
                reference, traced, untraced_wall = interleave(
                    range(TRACED_REQUESTS), spans,
                    lambda i: workload.traced_request(
                        i, caches[0], NullSpans(), Counter()),
                    lambda i: workload.traced_request(i, caches[1], spans,
                                                      counts))
            finally:
                counts["results.commit_bytes"] = int(
                    caches[1].metrics.get("serve.cache.bytes"))
                for cache in caches:
                    workload.drop_cache(cache)
            first = {workload.stream[i]: i for i in
                     reversed(range(TRACED_REQUESTS))}
            if reference != traced or any(
                    workload.artifact_code(i) != traced[i]
                    for i in first.values()):
                failures.append("traced code differs from "
                                "allocation_artifact's")
        else:
            order = workload.next_pass()
            attempted = 2 * len(order)

            def traced_op(item):
                spans.op = item.name
                return workload.traced_op(item, spans, counts)

            reference, traced, untraced_wall = interleave(
                order, spans, workload.op, traced_op)
            if reference != traced:
                failures.append("traced figures or module text differ from "
                                "compare_allocators'")
    finally:
        workload.close()
    self_times = spans.self_times()
    unknown = set(self_times) - span_metrics
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {unknown}")
    unattributed = spans.unattributed_s()
    if abs(sum(self_times.values()) + unattributed - spans.wall_s) > 1e-6:
        failures.append("span self times do not add up to the wall time")
    for span in span_metrics:
        metrics[f"{span}_s"] = self_times.get(span, 0.0)
    sim_s = self_times.get("sim.reference", 0.0) + \
        self_times.get("sim.allocated", 0.0)
    metrics.update(counts)
    metrics.update({
        "sim.instr_per_s": counts["sim.dyn_instructions"] / sim_s,
        "unattributed_s": unattributed,
        "trace.wall_s": spans.wall_s,
        "trace_overhead": spans.wall_s / untraced_wall,
    })
    check_repeat(keep, args, dict(counts), failures)
    spans.write(keep / f"spans-{args.workload}-seed{args.seed}.jsonl")
    notes.append(f"traced wall {spans.wall_s:.3f} s = "
                 f"{sum(self_times.values()):.3f} s in {len(spans.records)} "
                 f"spans + {unattributed:.3f} s unattributed "
                 f"({100 * unattributed / spans.wall_s:.2f}%); untraced "
                 f"{untraced_wall:.3f} s")
    return metrics, attempted, failures, notes


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Kept between runs: the figures the repeat check compares, and the
    # traced run's spans.  Scratch (stores) goes when the run ends.
    keep = ROOT / ".perfbench_work"
    scratch = keep / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workload = make_workload(args.workload, args.seed, scratch)
            print("READY", flush=True)
            workload.close()
            return 0
        if args.trace:
            wanted = spec["per_layer"]
            metrics, attempted, failures, notes = traced_run(
                args, scratch, keep, wanted)
        else:
            wanted = spec["end_to_end"]
            metrics, attempted, failures, notes = timed_run(
                args, scratch, keep)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for note in notes:
        print(f"# {note}")
    for failure in failures[:20]:
        print(f"# FAILURE {failure}")
    for m in wanted:
        print(f"{m['name']:36s} {metrics[m['name']]:>18.6f} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
