#!/usr/bin/env python3
"""Capture (or diff) the pipeline's observable outputs, for golden runs.

The hot-kernel rewrites (PR 5's simulator/lifetimes/interference work,
the interval-sweep interference build) promise *byte-identical
observables*: same allocated module text, same simulated outputs and
dynamic counts, same spill statistics, same fuzz verdicts.  This tool
makes that promise checkable: run it once at the old revision, once at
the new one, and diff the two JSON documents.

One entry per (machine, allocator, analog): the printed allocated
module, the simulator outputs, instruction/cycle counts, a hash of the
static spill table, move/edge/round statistics.  The same entry for
every module and allocator the benchmark (``perfbench/``) scores: the
``table3`` workload's three ``scaled_module``s and the ``serve``
workload's 32 fuzz-generated modules.  Plus one verdict entry per fuzz
seed.

Usage::

    PYTHONPATH=src python tools/capture_observables.py --out before.json
    # ... switch revisions ...
    PYTHONPATH=src python tools/capture_observables.py --check before.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from repro.allocators import ALLOCATOR_FACTORIES, make_allocator
from repro.ir.printer import print_module
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.target import alpha, tiny
from repro.workloads.programs import PROGRAM_NAMES, build_program

MACHINES = {"alpha": alpha, "tiny8": lambda: tiny(8, 8)}

#: perfbench's ``table3`` modules: (name, candidates, group, seed,
#: allocators), on alpha.
TABLE3_MODULES = (
    ("t3-245", 245, None, 1, tuple(ALLOCATOR_FACTORIES)),
    ("t3-245-pressure", 245, 30, 2, tuple(ALLOCATOR_FACTORIES)),
    ("t3-3000", 3000, None, 3, ("second-chance", "coloring")),
)

#: perfbench's ``serve`` modules: ``program_for_seed(SERVE_SEED_BASE + i)``
#: for ``i < SERVE_MODULES``, each on its own machine, every allocator.
SERVE_SEED_BASE = 7_000_000
SERVE_MODULES = 32


def _entry(module, machine, allocator_name: str) -> dict:
    result = CompilationSession(module, machine).run(
        make_allocator(allocator_name))
    text = print_module(result.module)
    outcome = simulate(result.module, machine)
    spill_table = sorted((phase.value, kind, count) for (phase, kind), count
                         in result.stats.spill_static.items())
    return {
        "module_sha": hashlib.sha256(text.encode()).hexdigest(),
        "output": [repr(v) for v in outcome.output],
        "instructions": outcome.dynamic_instructions,
        "cycles": outcome.cycles,
        "spill_instructions": outcome.spill_instructions,
        "op_counts": sorted((op.value, n)
                            for op, n in outcome.op_counts.items()),
        "spill_static": spill_table,
        "moves_eliminated": result.stats.moves_eliminated,
        "coloring_iterations": dict(result.stats.coloring_iterations),
        "interference_edges": dict(result.stats.interference_edges),
    }


def capture(fuzz_seeds: int, progress=None) -> dict:
    say = progress or (lambda msg: None)
    entries: dict[str, dict] = {}
    for machine_name, factory in MACHINES.items():
        machine = factory()
        for analog in PROGRAM_NAMES:
            try:
                module = build_program(analog, machine)
            except Exception as exc:
                # Some analogs exceed a small machine's calling convention;
                # record that they don't build rather than dropping the key.
                entries[f"{machine_name}/{analog}"] = {
                    "build_error": type(exc).__name__}
                continue
            for allocator in ALLOCATOR_FACTORIES:
                key = f"{machine_name}/{analog}/{allocator}"
                say(key)
                entries[key] = _entry(module, machine, allocator)
    from repro.workloads.synthetic import scaled_module

    machine = alpha()
    for name, size, group, seed, allocators in TABLE3_MODULES:
        module = scaled_module(size, seed, group=group)
        for allocator in allocators:
            key = f"table3/{name}/{allocator}"
            say(key)
            entries[key] = _entry(module, machine, allocator)
    from repro.fuzz.generate import program_for_seed
    from repro.ir.parser import parse_module

    for i in range(SERVE_MODULES):
        program = program_for_seed(SERVE_SEED_BASE + i)
        # As the service receives it: printed IR, parsed back.
        module = parse_module(print_module(program.module))
        for allocator in ALLOCATOR_FACTORIES:
            key = f"serve/{i}/{allocator}"
            say(key)
            entries[key] = _entry(module, program.machine, allocator)
    from repro.fuzz.harness import run_seed

    for seed in range(fuzz_seeds):
        say(f"fuzz/{seed}")
        report = run_seed(seed, shrink=False)
        entries[f"fuzz/{seed}"] = {
            "checks": report.checks,
            "skips": report.skips,
            "invalid": report.invalid_seeds,
            "divergences": [d.kind for d in report.divergences],
        }
    return {"schema": 1, "entries": entries}


def diff(old: dict, new: dict) -> list[str]:
    # ``old`` has been through a JSON round-trip (tuples became lists);
    # put ``new`` through the same round-trip so comparison is by value.
    new = json.loads(json.dumps(new))
    lines = []
    old_e, new_e = old["entries"], new["entries"]
    for key in sorted(set(old_e) | set(new_e)):
        if key not in old_e:
            lines.append(f"{key}: only in new capture")
        elif key not in new_e:
            lines.append(f"{key}: only in old capture")
        elif old_e[key] != new_e[key]:
            fields = [f for f in set(old_e[key]) | set(new_e[key])
                      if old_e[key].get(f) != new_e[key].get(f)]
            lines.append(f"{key}: differs in {', '.join(sorted(fields))}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="FILE",
                        help="write the capture to FILE")
    parser.add_argument("--check", metavar="FILE",
                        help="diff the current capture against FILE")
    parser.add_argument("--fuzz-seeds", type=int, default=40,
                        help="fuzz verdict entries to include (default: 40)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    progress = ((lambda msg: print(msg, file=sys.stderr))
                if args.verbose else None)
    doc = capture(args.fuzz_seeds, progress)
    print(f"captured {len(doc['entries'])} entries")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.check:
        with open(args.check) as fh:
            old = json.load(fh)
        lines = diff(old, doc)
        if lines:
            for line in lines:
                print(f"DIFF: {line}", file=sys.stderr)
            return 1
        print(f"0 diffs vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
