#!/usr/bin/env python3
"""The per-layer performance gate: perfbench's traced layers against a
recorded point.

For each workload the gate runs ``perfbench/run.py --workload W --seed 1
--trace 1`` ``RUNS`` times, round-robin over the workloads, and keeps the
median of each *cell*: one (workload, per-layer metric) pair from
``CELLS``.  A cell's ratio is its median over the recorded point's, and
the gate divides every ratio by the median ratio of *its own workload*.
A host that is uniformly slower for one workload cancels out; one layer
that got slower stands out against the others.  A cell fails when its
own median rose above the recorded point's *and* its normalised ratio
exceeds ``MAX_SLOWDOWN``: a layer that got faster, but less so than the
rest of its workload, has not slowed down.  The gate also fails when
any run prints ``correct: false``.

Usage (from the root of a checkout)::

    python3 tools/layer_gate.py --record BENCH_30.json   # write a point
    python3 tools/layer_gate.py --check BENCH_30.json    # gate against one

Given both, the gate writes this run's point and gates it.  Exit status:
0 pass, 1 fail, 2 when a point lacks a cell or a run printed no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUNS = 3
MAX_SLOWDOWN = 1.5
#: The gated cells.  Together they cover the simulator, the shared
#: lifetime setup, every allocator core, the store commit and the
#: end-to-end traced wall.
CELLS = {
    "analogs": ["sim.allocated_s", "allocators.second-chance.core_s",
                "allocators.coloring.core_s", "lifetimes.compute_s",
                "trace.wall_s"],
    "table3": ["allocators.second-chance.core_s",
               "allocators.coloring.core_s", "allocators.two-pass.core_s",
               "allocators.poletto.core_s", "lifetimes.compute_s",
               "trace.wall_s"],
    "serve": ["sim.reference_s", "sim.allocated_s", "results.commit_s",
              "lifetimes.compute_s", "trace.wall_s"],
}


class GateError(Exception):
    """A point or a run that cannot be gated at all."""


def traced_run(workload: str) -> dict:
    """One traced perfbench run: the JSON object on its last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise GateError(f"{workload}: perfbench exited {proc.returncode}\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(outputs: dict[str, list[dict]]) -> dict:
    """The gate's point from each workload's perfbench results."""
    workloads = {}
    for workload, runs in outputs.items():
        cells = {}
        for cell in CELLS[workload]:
            samples = [run["metrics"][cell]["value"] for run in runs]
            cells[cell] = {"median": statistics.median(samples),
                           "samples": samples}
        workloads[workload] = {
            "correct": all(run["correct"] is True for run in runs),
            "cells": cells}
    return {"schema": 1, "tool": "tools/layer_gate.py", "seed": SEED,
            "runs": RUNS, "max_slowdown": MAX_SLOWDOWN,
            "workloads": workloads}


def failures(point: dict, baseline: dict | None = None) -> list[str]:
    """Every reason ``point`` fails: incorrect runs and, against
    ``baseline``, cells whose median rose and whose ratio is above
    ``MAX_SLOWDOWN`` after normalisation."""
    found = [f"{workload}: a run printed correct: false"
             for workload, doc in point["workloads"].items()
             if not doc["correct"]]
    if baseline is None:
        return found
    for workload, doc in point["workloads"].items():
        base = baseline["workloads"].get(workload, {}).get("cells", {})
        ratios = {}
        for cell in CELLS[workload]:
            if not base.get(cell, {}).get("median"):
                raise GateError(f"the baseline has no {workload} {cell}")
            ratios[cell] = doc["cells"][cell]["median"] / base[cell]["median"]
        scale = statistics.median(ratios.values())
        print(f"{workload}: median ratio {scale:.2f}x")
        for cell, ratio in ratios.items():
            normalised = ratio / scale
            slower = ratio > 1 and normalised > MAX_SLOWDOWN
            print(f"  {cell:34s} {doc['cells'][cell]['median']:9.4f} s vs "
                  f"{base[cell]['median']:9.4f} s  {ratio:5.2f}x raw  "
                  f"{normalised:5.2f}x  {'SLOWER' if slower else 'ok'}")
            if slower:
                found.append(f"{workload} {cell}: {normalised:.2f}x against "
                             f"the workload's median ratio (limit "
                             f"{MAX_SLOWDOWN:.2f}x), {ratio:.2f}x raw")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", metavar="FILE",
                        help="write this run's point to FILE")
    parser.add_argument("--check", metavar="FILE",
                        help="gate this run against the point in FILE")
    args = parser.parse_args(argv)
    if not (args.record or args.check):
        parser.error("give --record FILE, --check FILE or both")
    try:
        baseline = (json.loads(Path(args.check).read_text())
                    if args.check else None)
        outputs: dict[str, list[dict]] = {w: [] for w in CELLS}
        for n in range(RUNS):
            for workload in CELLS:
                print(f"run {n + 1}/{RUNS}: {workload}", file=sys.stderr)
                outputs[workload].append(traced_run(workload))
        point = summarize(outputs)
        if args.record:
            Path(args.record).write_text(json.dumps(point, indent=2) + "\n")
            print(f"wrote {args.record}")
        found = failures(point, baseline)
    except (GateError, OSError, json.JSONDecodeError) as exc:
        print(f"layer gate: {exc}", file=sys.stderr)
        return 2
    for line in found:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
