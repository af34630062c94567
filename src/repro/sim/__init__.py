"""An executing machine simulator for the IR.

The simulator plays two roles in the reproduction:

* **Oracle.**  It executes *virtual* code (temporaries as storage) and
  *physical* code (machine registers + stack slots) with identical
  semantics, so ``simulate(original) == simulate(allocated)`` is the
  correctness contract every allocator must meet.  Strictness knobs --
  poisoning caller-saved registers at calls, verifying callee-saved
  registers on return, faulting on loads of never-written stack slots --
  turn silent allocator bugs into immediate failures.

* **Instrument.**  It counts dynamic instructions, splits the
  allocator-inserted ones by phase and kind (the paper's Figure 3
  categories), and charges a per-opcode cycle model, standing in for the
  paper's HALT instrumentation and Alpha wall-clock runs (Tables 1 and 2).
"""

from repro.sim.errors import SimulationError
from repro.sim.machine import SimOutcome, Simulator, outputs_equal, simulate

__all__ = ["SimOutcome", "SimulationError", "Simulator", "outputs_equal",
           "simulate"]
