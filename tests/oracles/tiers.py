"""Force one execution tier of :mod:`repro.sim.machine`.

The simulator runs a segment as one call per instruction to its shape's
cold function (compiled once per (opcode, operand kinds) and reading
the instruction's indices, immediates and messages from an args tuple)
until ``HOT_THRESHOLD`` entries, then as one generated function with
the same templates and the args inlined (hot).  One-shot test programs
never reach the threshold, so differential tests pin the constant
instead: ``hot`` compiles every segment at its first entry, ``cold``
never compiles one.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.sim import machine

TIERS = {"hot": 1, "cold": sys.maxsize}


@contextmanager
def forced_tier(tier: str):
    """Run the body with every segment in ``tier``."""
    saved = machine.HOT_THRESHOLD
    machine.HOT_THRESHOLD = TIERS[tier]
    try:
        yield
    finally:
        machine.HOT_THRESHOLD = saved
