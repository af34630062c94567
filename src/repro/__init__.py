"""repro: a reproduction of Traub, Holloway & Smith (PLDI 1998),
"Quality and Speed in Linear-scan Register Allocation".

The package implements, from scratch, everything the paper's evaluation
needed: a load/store virtual-register IR with an Alpha-like two-file
calling convention, shared CFG/liveness/loop analyses, the paper's
second-chance binpacking allocator (lifetime holes, the single
allocate/rewrite pass, the resolution phase and its consistency dataflow,
and the Section 2.5 move optimizations), the two-pass binpacking and
Poletto linear-scan baselines, a faithful George--Appel iterated-register-
coalescing graph-coloring allocator, an executing machine simulator that
counts dynamic instructions by spill category, a small C-like frontend
("minic"), and analog workloads for every benchmark in the paper's
tables.

Quickstart::

    from repro import CompilationSession, compile_minic, simulate
    from repro.allocators import SecondChanceBinpacking
    from repro.target import alpha

    machine = alpha()
    module = compile_minic(SOURCE, machine)
    result = CompilationSession(module, machine).run(SecondChanceBinpacking())
    outcome = simulate(result.module, machine)
    print(outcome.output, outcome.dynamic_instructions, outcome.cycles)
"""

from repro.lang.lower import compile_minic
from repro.pm.session import CompilationSession, PipelineResult
from repro.sim.machine import SimOutcome, outputs_equal, simulate

__version__ = "1.0.0"

__all__ = [
    "CompilationSession",
    "PipelineResult",
    "SimOutcome",
    "compile_minic",
    "outputs_equal",
    "simulate",
]
