"""The ``analogs`` and ``table3`` workloads.

An operation is one module through every allocator the workload pairs
with it, each allocated module simulated and its output checked.  The
untraced path is the one ``repro bench`` runs (``compare_allocators`` on
one shared session); the traced path makes the same calls one layer at a
time (:mod:`pipeline`).

* ``analogs`` compiles the eleven paper analogs from minic source and
  runs Table 1's pairing (second-chance binpacking, graph coloring).
  Outputs are checked against ``expected/analogs.json``, the analogs'
  outputs as simulated before allocation.
* ``table3`` runs Table-3-shaped ``scaled_module`` straight-line modules,
  built on the IR with no frontend.  Outputs are checked against the
  simulation of the unallocated module, computed during setup.

The module set is fixed; the seed orders it, pass by pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.ir.printer import print_module
from repro.lang import check, compile_minic, lower, parse
from repro.pm.batch import compare_allocators
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import alpha

import pipeline
from spans import Spans

TABLE1_PAIRING = ("second-chance", "coloring")
ALL_ALLOCATORS = ("second-chance", "two-pass", "coloring", "poletto")

#: table3 modules: (name, candidates, group, scaled_module seed,
#: allocators).  Poletto and two-pass stay below the pressure cliff that
#: makes them take seconds per module (poletto: 7.0 s and 6 restarts at
#: 950 candidates); second-chance and coloring reach 3000 candidates.
TABLE3_MODULES = (
    ("t3-245", 245, None, 1, ALL_ALLOCATORS),
    ("t3-245-pressure", 245, 30, 2, ALL_ALLOCATORS),
    ("t3-3000", 3000, None, 3, TABLE1_PAIRING),
)

EXPECTED_ANALOGS = (Path(__file__).resolve().parent / "expected"
                    / "analogs.json")


class OutputMismatch(AssertionError):
    """An allocated module printed something its reference did not."""


@dataclass(frozen=True)
class Pair:
    """One (module, allocator) result: the deterministic figures."""

    module: str
    allocator: str
    cycles: int
    dynamic_instructions: int
    spill_instructions: int
    text_sha: str


@dataclass
class Item:
    name: str
    allocators: tuple[str, ...]
    expected_output: list
    expected_result: object
    source: str = ""          # analogs: minic text
    module: object = None     # table3: the prebuilt IR module


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class BatchWorkload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.machine = alpha()
        self.rng = random.Random(f"{name}:{seed}")
        if name == "analogs":
            from repro.workloads.programs import PROGRAM_NAMES, program_source

            expected = json.loads(EXPECTED_ANALOGS.read_text())["analogs"]
            self.items = [Item(n, TABLE1_PAIRING, expected[n]["output"],
                               expected[n]["result"],
                               source=program_source(n))
                          for n in PROGRAM_NAMES]
        else:
            from repro.workloads.synthetic import scaled_module

            self.items = []
            for n, size, group, module_seed, allocators in TABLE3_MODULES:
                module = scaled_module(size, module_seed, group=group)
                reference = simulate(module, self.machine)
                self.items.append(Item(n, allocators, reference.output,
                                       reference.result, module=module))

    def close(self) -> None:
        pass

    def next_pass(self) -> list[Item]:
        """The items in this pass's seeded order."""
        order = list(self.items)
        self.rng.shuffle(order)
        return order

    def _check(self, item: Item, output, result) -> None:
        if not outputs_equal(list(output), item.expected_output) or \
                result != item.expected_result:
            raise OutputMismatch(f"{self.name}/{item.name}: output "
                                 f"{output!r} (result {result!r}) != expected "
                                 f"{item.expected_output!r} "
                                 f"(result {item.expected_result!r})")

    # ------------------------------------------------------------------
    # The untraced operation: what `repro bench` runs.
    # ------------------------------------------------------------------
    def op(self, item: Item) -> list[Pair]:
        module = (compile_minic(item.source, self.machine) if item.source
                  else item.module)
        pairs = []
        for cell in compare_allocators(module, self.machine,
                                       names=item.allocators):
            self._check(item, cell.output, cell.result)
            pairs.append(Pair(item.name, cell.allocator, cell.cycles,
                              cell.dynamic_instructions,
                              round(cell.spill_fraction
                                    * cell.dynamic_instructions),
                              sha256_hex(cell.module_text)))
        return pairs

    # ------------------------------------------------------------------
    # The traced operation: the same calls, one layer at a time.
    # ------------------------------------------------------------------
    def traced_op(self, item: Item, spans: Spans,
                  counts: Counter) -> list[Pair]:
        if item.source:
            with spans.span("lang.parse"):
                program = parse(item.source)
            with spans.span("lang.check"):
                program = check(program)
            with spans.span("lang.lower"):
                module = lower(program, self.machine)
        else:
            module = item.module
        counts["ir.instrs"] += pipeline.instruction_count(module)
        session = CompilationSession(module, self.machine)
        base = pipeline.prepare(spans, session)
        pairs = []
        for allocator in item.allocators:
            working = pipeline.allocate(spans, session, base, allocator,
                                        counts)
            with spans.span("sim.allocated"):
                outcome = simulate(working, self.machine)
            with spans.span("ir.print"):
                text = print_module(working)
            counts["sim.dyn_instructions"] += outcome.dynamic_instructions
            self._check(item, outcome.output, outcome.result)
            pairs.append(Pair(item.name, allocator, outcome.cycles,
                              outcome.dynamic_instructions,
                              outcome.spill_instructions, sha256_hex(text)))
        pipeline.session_counts(session, counts)
        return pairs
