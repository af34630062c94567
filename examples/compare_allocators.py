"""Compare all four allocators on a benchmark analog.

Usage::

    python examples/compare_allocators.py [benchmark] [--machine SPEC]

e.g. ``python examples/compare_allocators.py doduc`` or
``python examples/compare_allocators.py wc --machine tiny:8x8``; SPEC is
``alpha`` (the default) or ``tiny:<G>x<F>``.  Runs second-chance
binpacking, two-pass binpacking, George–Appel coloring, and Poletto
linear scan on one of the paper's benchmark analogs and prints a Table-1
style comparison: dynamic instructions, simulated cycles, spill
percentage, and core allocation time.
"""

import argparse

from repro.allocators import (
    GraphColoring,
    PolettoLinearScan,
    SecondChanceBinpacking,
    TwoPassBinpacking,
)
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.stats.report import format_table
from repro.target import machine_from_spec
from repro.workloads.programs import PROGRAM_NAMES, build_program

ALLOCATORS = [
    SecondChanceBinpacking,
    TwoPassBinpacking,
    GraphColoring,
    PolettoLinearScan,
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmark", nargs="?", default="doduc")
    parser.add_argument("--machine", default="alpha", metavar="SPEC",
                        help="alpha or tiny:<G>x<F> (default: alpha)")
    args = parser.parse_args()
    name = args.benchmark
    try:
        machine = machine_from_spec(args.machine)
    except ValueError as exc:
        parser.error(str(exc))
    if name not in PROGRAM_NAMES:
        raise SystemExit(f"unknown benchmark {name!r}; choose from "
                         f"{', '.join(PROGRAM_NAMES)}")

    module = build_program(name, machine)
    reference = simulate(module, machine)
    print(f"benchmark: {name} on {machine}")
    print(f"reference run: {reference.dynamic_instructions:,} dynamic "
          f"instructions, output {reference.output[:4]}...")

    rows = []
    for factory in ALLOCATORS:
        allocator = factory()
        result = CompilationSession(module, machine).run(allocator)
        outcome = simulate(result.module, machine)
        assert outputs_equal(outcome.output, reference.output), allocator.name
        rows.append([
            allocator.name,
            outcome.dynamic_instructions,
            outcome.cycles,
            f"{100 * outcome.spill_fraction():.2f}%",
            f"{result.stats.alloc_seconds * 1000:.1f} ms",
        ])
    baseline_cycles = rows[2][2]  # graph coloring, the paper's reference
    for row in rows:
        row.append(row[2] / baseline_cycles)

    print()
    print(format_table(
        ["allocator", "dyn instrs", "cycles", "spill%", "alloc time",
         "cycles vs GC"],
        rows))


if __name__ == "__main__":
    main()
