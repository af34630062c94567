"""Target machine descriptions (see :mod:`repro.target.machine`).

Two factories cover every configuration the reproduction uses:

* :func:`alpha` — the paper's 32+32-register Alpha-like machine;
* :func:`tiny` — scaled-down machines (the same convention shape on
  4–32 registers) so tests can create register pressure with small
  programs, as the paper's figures do with two-register examples.

Every entry point names a machine by one spec string, ``alpha`` or
``tiny:<G>x<F>``; :func:`machine_from_spec` and its inverse
:func:`machine_spec` are the only code that converts between the two.
"""

from __future__ import annotations

import re

from repro.target.alpha import alpha
from repro.target.machine import CYCLE_COSTS, MachineDescription, cycle_cost

__all__ = ["CYCLE_COSTS", "MachineDescription", "alpha", "cycle_cost",
           "machine_from_spec", "machine_spec", "tiny"]

#: The smallest legal tiny file: return register, two parameter
#: registers, and at least one callee-saved register.
_MIN_FILE = 4
#: The largest: Alpha's 32 registers.  A spec arrives from clients
#: (``tiny:<G>x<F>``), and building a file costs time and memory in
#: its size.
_MAX_FILE = 32


def tiny(n_gpr: int = 8, n_fpr: int = 8) -> MachineDescription:
    """A scaled-down machine with ``n_gpr``/``n_fpr`` registers per file.

    Layout per file: register 0 returns the result, registers 1–2 pass
    parameters, register 3 is a caller-saved temporary, and registers 4
    and up are callee-saved.  Each file needs at least four registers to
    fit that convention (at the four-register minimum, register 3 is the
    single callee-saved register instead), and at most 32, Alpha's size.
    """
    if n_gpr < _MIN_FILE or n_fpr < _MIN_FILE:
        raise ValueError(
            f"tiny machines need at least {_MIN_FILE} registers per file "
            f"(got {n_gpr} GPRs, {n_fpr} FPRs)")
    if n_gpr > _MAX_FILE or n_fpr > _MAX_FILE:
        raise ValueError(
            f"tiny machines take at most {_MAX_FILE} registers per file "
            f"(got {n_gpr} GPRs, {n_fpr} FPRs)")
    return MachineDescription(
        f"tiny{n_gpr}x{n_fpr}", n_gpr, n_fpr,
        gpr_params=(1, 2), fpr_params=(1, 2),
        gpr_callee_saved=tuple(range(min(4, n_gpr - 1), n_gpr)),
        fpr_callee_saved=tuple(range(min(4, n_fpr - 1), n_fpr)),
        gpr_ret=0, fpr_ret=0)


_TINY_SPEC = re.compile(r"tiny:([0-9]+)x([0-9]+)")


def machine_from_spec(spec: str) -> MachineDescription:
    """The machine ``spec`` names: ``alpha`` or ``tiny:<G>x<F>``.

    Raises :class:`ValueError` for every other spec, a non-string
    included, and for a tiny file size :func:`tiny` refuses.
    """
    if spec == "alpha":
        return alpha()
    match = _TINY_SPEC.fullmatch(spec) if isinstance(spec, str) else None
    if match is None:
        raise ValueError(f"unknown machine spec {spec!r} "
                         "(alpha or tiny:<G>x<F>)")
    return tiny(int(match[1]), int(match[2]))


def machine_spec(machine: MachineDescription) -> str:
    """The spec :func:`machine_from_spec` turns back into ``machine``."""
    if machine.name == "alpha":
        return "alpha"
    if machine.name == f"tiny{machine.n_gpr}x{machine.n_fpr}":
        return f"tiny:{machine.n_gpr}x{machine.n_fpr}"
    raise ValueError(f"machine {machine.name!r} has no spec")
