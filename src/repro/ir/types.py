"""Register classes for the IR.

The target machine (see :mod:`repro.target`) has two disjoint register
files, as the Digital Alpha did: general-purpose integer registers and
floating-point registers.  Every temporary and every physical register
belongs to exactly one class, and an instruction operand slot accepts only
one class.  The paper notes (Section 3) that the graph-coloring allocator
solves the two files as two separate problems while the binpacking
allocator processes both files in one scan; our implementations preserve
that distinction.
"""

from __future__ import annotations

import enum


class RegClass(enum.Enum):
    """A machine register class.

    ``GPR`` holds 64-bit integers (and addresses); ``FPR`` holds
    double-precision floats.  Values never move directly between classes
    except through the explicit conversion instructions ``itof``/``ftoi``.
    """

    GPR = "gpr"
    FPR = "fpr"

    #: Members are singletons (pickling returns the same member), so the
    #: C-level identity hash is sound, and much cheaper than ``Enum``'s
    #: Python-level ``hash(self._name_)`` on every register-keyed lookup.
    __hash__ = object.__hash__

    def __lt__(self, other: "RegClass") -> bool:
        # Orderable so registers (whose first sort field is their class)
        # sort deterministically in worklists: GPR before FPR.
        if not isinstance(other, RegClass):
            return NotImplemented
        return self.value > other.value  # "gpr" > "fpr" lexically

    @property
    def prefix(self) -> str:
        """The textual prefix used for temporaries of this class."""
        return "t" if self is RegClass.GPR else "ft"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegClass.{self.name}"
