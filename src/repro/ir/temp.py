"""Registers of the IR: temporaries, physical registers, and stack slots.

The paper calls every allocation candidate a *temporary* ("we shall refer
to all allocation candidates generically as temporaries", Section 2.1);
program variables and compiler-generated values are treated uniformly.
Physical registers appear in pre-allocation code only where the calling
convention pins a value (parameter/return registers); after allocation,
*only* physical registers and stack slots remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.types import RegClass

_FPR = RegClass.FPR


@dataclass(frozen=True, order=True)
class Temp:
    """An allocation candidate: a virtual register of one register class.

    Temporaries are interned per :class:`~repro.ir.function.Function` (the
    function's ``new_temp`` factory hands out unique ids), and compare by
    ``(regclass, id)`` so they sort deterministically in worklists.

    Attributes:
        regclass: The register file this temporary competes for.
        id: Unique (per function) non-negative integer.
        name: Optional source-level name, used only for printing.
    """

    regclass: RegClass
    id: int
    name: str | None = field(default=None, compare=False)

    def __hash__(self) -> int:
        # Ids are unique per function across both classes, so the id alone
        # spreads a function's temps over distinct hashes; no tuple, no
        # enum call.  Equal temps have equal ids, whatever their names.
        return self.id

    def __str__(self) -> str:
        base = f"{self.regclass.prefix}{self.id}"
        if self.name:
            return f"{base}.{self.name}"
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Temp({self})"


@dataclass(frozen=True, order=True)
class PhysReg:
    """A machine register.

    Attributes:
        regclass: The register file the register belongs to.
        index: Hardware index within the file (``r3`` has index 3).
    """

    regclass: RegClass
    index: int

    def __hash__(self) -> int:
        # Negative, so a register never shares a hash with a temp.
        return -2 - (self.index << 1 | (self.regclass is _FPR))

    def __str__(self) -> str:
        prefix = "r" if self.regclass is RegClass.GPR else "f"
        return f"{prefix}{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysReg({self})"


@dataclass(frozen=True, order=True)
class StackSlot:
    """An abstract stack-frame slot used for spills and callee-saves.

    Slots are allocated by the register allocators (one *memory home* per
    spilled temporary, plus one per saved callee-saved register) and become
    frame offsets in the simulator.  They are class-tagged so the simulator
    can type-check stores against loads.
    """

    index: int
    regclass: RegClass

    def __str__(self) -> str:
        return f"[s{self.index}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StackSlot({self.index}, {self.regclass.name})"


#: Union of the two kinds of register operand an instruction slot may hold.
Reg = Temp | PhysReg

