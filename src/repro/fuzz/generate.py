"""Per-seed program/machine derivation for the fuzzer.

Each seed deterministically picks a machine and generator parameters,
then builds a program with :func:`repro.workloads.synthetic.random_module`
(nested loops, diamonds, critical edges, calls, global-array traffic,
both register classes).  Machines cycle through small ``tiny`` files —
where register pressure forces spilling, eviction, and second chances on
nearly every block — up to the full ``alpha``, where most temporaries fit
and the interesting paths are the conventions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ir.module import Module
from repro.target import MachineDescription, machine_from_spec
from repro.workloads.synthetic import random_module

#: The machine rotation: mostly tiny files (pressure), some full alpha.
_MACHINES = ("tiny:4x4", "tiny:5x5", "tiny:6x6", "tiny:8x8", "alpha")


@dataclass(frozen=True)
class GeneratedProgram:
    """One fuzz case: the module, its machine, and how it was made."""

    seed: int
    module: Module
    machine: MachineDescription
    describe: str


def program_for_seed(seed: int) -> GeneratedProgram:
    """Build the (module, machine) pair for one fuzz seed.

    Deterministic: the same seed always yields the same program text and
    machine, so any reported failure is reproducible from its seed alone.
    """
    rng = random.Random(seed ^ 0x5EED)
    spec = _MACHINES[seed % len(_MACHINES)]
    machine = machine_from_spec(spec)
    size = rng.choice((15, 25, 35, 50))
    n_helpers = rng.choice((1, 1, 2))
    n_int_vars = rng.randint(3, 8)
    n_float_vars = rng.randint(1, 5)
    module = random_module(seed, machine, size=size, n_helpers=n_helpers,
                           n_int_vars=n_int_vars, n_float_vars=n_float_vars)
    describe = (f"seed={seed} machine={spec} size={size} "
                f"helpers={n_helpers} ivars={n_int_vars} fvars={n_float_vars}")
    return GeneratedProgram(seed, module, machine, describe)
