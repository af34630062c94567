#!/usr/bin/env python3
"""Shrink an IR module file on which an allocator config misbehaves.

Reads IR text (as printed by ``repro.ir.printer`` or by ``repro fuzz
--out``), re-checks the named configuration against the simulator
oracle, and — if the failure reproduces — delta-debugs the module down
to a minimal witness, written to stdout (or ``--out``).

Usage::

    PYTHONPATH=src python tools/shrink_ir.py failing.ir \
        --config sc-default --machine tiny:4x4

The config names are the fuzz grids' (``repro.fuzz.CONFIG_GRID`` plus
the stress grid ``repro.fuzz.STRESS_GRID``); the machine (``alpha`` or
``tiny:<G>x<F>``, default ``tiny:8x8``) must match the one the failure
was found on, since register counts change the allocation completely.
``--context`` (e.g. ``remat,stress=shuffle,seed=7``) replays a failure
found under a non-default allocation context.  A witness written by
``repro fuzz --out`` carries its context in a ``;; context=...`` header
line, applied when no ``--context`` is given, and its whole replay
command in a ``;; replay:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.fuzz import CONFIG_GRID, STRESS_GRID, check_config, shrink_module
from repro.fuzz.shrink import reference_outcome
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.spill import AllocationContext
from repro.target import machine_from_spec


def context_from_header(text: str) -> AllocationContext | None:
    """The ``;; context=...`` line a ``repro fuzz --out`` witness carries
    (``None`` when the file has none — a hand-written or default-context
    witness)."""
    for line in text.splitlines():
        if not line.startswith(";;"):
            break  # the header is a contiguous comment prefix
        stripped = line[2:].strip()
        if stripped.startswith("context="):
            return AllocationContext.parse(stripped[len("context="):])
    return None


def main(argv: list[str] | None = None) -> int:
    by_name = {c.name: c for c in CONFIG_GRID + STRESS_GRID}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="IR module text file")
    ap.add_argument("--config", required=True, choices=sorted(by_name),
                    help="fuzz-grid config that fails on this module")
    ap.add_argument("--machine", default="tiny:8x8", metavar="SPEC",
                    help="alpha or tiny:<G>x<F> (default: tiny:8x8)")
    ap.add_argument("--context", default=None, metavar="DESC",
                    help="allocation context to replay under (default: "
                         "the witness's context= header, else none)")
    ap.add_argument("--budget", type=int, default=400,
                    help="max candidate evaluations (default: 400)")
    ap.add_argument("--kind", default=None,
                    help="require this failure kind (crash/verify/dataflow/"
                         "sim-fault/mismatch); default: whatever reproduces")
    ap.add_argument("--out", help="write the shrunken IR here (default: stdout)")
    args = ap.parse_args(argv)

    try:
        machine = machine_from_spec(args.machine)
        context = (None if args.context is None
                   else AllocationContext.parse(args.context))
    except ValueError as exc:
        ap.error(str(exc))
    config = by_name[args.config]
    with open(args.file) as fh:
        text = fh.read()
    module = parse_module(text)

    if context is None:
        context = context_from_header(text)
    if context is not None:
        config = dataclasses.replace(config, context=context)
        print(f"# allocation context: {context.describe() or 'default'}",
              file=sys.stderr)

    ref = reference_outcome(module, machine)
    if ref is None:
        print("error: the module is not a valid oracle reference "
              "(entry-live temporary, simulator fault, or non-termination)",
              file=sys.stderr)
        return 2
    found = check_config(module, machine, config, ref)
    if found is None or found[0] == "skip":
        print(f"error: config {config.name} does not fail on this module "
              f"({'skipped: ' + found[1] if found else 'matches the oracle'})",
              file=sys.stderr)
        return 2
    kind, message = found
    if args.kind is not None and kind != args.kind:
        print(f"error: config {config.name} fails with kind {kind!r}, "
              f"not the requested {args.kind!r}", file=sys.stderr)
        return 2
    print(f"# reproducing failure: [{kind}] {message}", file=sys.stderr)

    def still_fails(candidate) -> bool:
        cref = reference_outcome(candidate, machine)
        if cref is None:
            return False
        got = check_config(candidate, machine, config, cref)
        return got is not None and got[0] == kind

    shrunk = shrink_module(module, still_fails, budget=args.budget)
    before = sum(fn.instruction_count() for fn in module.functions.values())
    after = sum(fn.instruction_count() for fn in shrunk.functions.values())
    print(f"# shrunk {before} -> {after} instructions", file=sys.stderr)
    text = print_module(shrunk)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
