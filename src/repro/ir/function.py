"""Functions: ordered block lists plus the temporary factory.

The block list order is the *linear order* used throughout the paper: it
defines lifetime intervals (Section 2.1) and the order of the single
allocate/rewrite sweep (Section 2.3).  A linear point is a position in
that order — a block's start plus twice the instruction's index in it —
so no analysis keys on an instruction object, and a clone is a plain
copy that every cached analysis still describes.  ``Function`` also owns
the temporary-id counter so that every allocation candidate in a
function has a unique id — the dataflow bit vectors index temporaries by
these ids — and the set of block labels, so that adding a block or
minting a fresh label costs O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.ir.block import BasicBlock
from repro.ir.instr import Instr
from repro.ir.temp import Temp
from repro.ir.types import RegClass


@dataclass(eq=False)
class Function:
    """A single compilation unit for the allocators.

    Attributes:
        name: Function name (callees are resolved by name at simulation).
        params: Parameter temporaries, in declaration order.  After
            lowering, the entry block begins with moves from the parameter
            registers into these temporaries.
        blocks: Basic blocks in layout (linear) order; entry block first.
    """

    name: str
    params: list[Temp] = field(default_factory=list)
    blocks: list[BasicBlock] = field(default_factory=list)
    _next_temp_id: int = 0
    # Every label in ``blocks``: blocks join only through
    # :meth:`insert_block`, so label checks cost O(1), not O(blocks).
    _labels: set[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._labels = {b.label for b in self.blocks}

    # ------------------------------------------------------------------
    # Temporaries.
    # ------------------------------------------------------------------
    def new_temp(self, regclass: RegClass, name: str | None = None) -> Temp:
        """Mint a fresh temporary of ``regclass``."""
        temp = Temp(regclass, self._next_temp_id, name)
        self._next_temp_id += 1
        return temp

    def note_temp_ids(self) -> None:
        """Bump the id counter past every temporary appearing in the code.

        Used by the parser, which materializes temps from their printed
        ids rather than through :meth:`new_temp`.
        """
        highest = -1
        for instr in self.instructions():
            for temp in instr.temps():
                highest = max(highest, temp.id)
        for temp in self.params:
            highest = max(highest, temp.id)
        self._next_temp_id = max(self._next_temp_id, highest + 1)

    # ------------------------------------------------------------------
    # Blocks.
    # ------------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        """The entry block (first in layout order)."""
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        """Look up a block by label."""
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(f"no block {label!r} in function {self.name}")

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Append ``block``, enforcing label uniqueness."""
        return self.insert_block(len(self.blocks), block)

    def insert_block(self, index: int, block: BasicBlock) -> BasicBlock:
        """Insert ``block`` at layout position ``index``, enforcing label
        uniqueness."""
        if block.label in self._labels:
            raise ValueError(f"duplicate block label {block.label!r}")
        self._labels.add(block.label)
        self.blocks.insert(index, block)
        return block

    def new_label(self, hint: str = "b") -> str:
        """A block label not yet used in this function."""
        i = len(self.blocks)
        while f"{hint}{i}" in self._labels:
            i += 1
        return f"{hint}{i}"

    # ------------------------------------------------------------------
    # Cloning.
    # ------------------------------------------------------------------
    def clone(self) -> "Function":
        """A structural copy: fresh blocks and instructions, shared atoms.

        Temporaries, physical registers, slots, labels and immediates are
        immutable values and are shared; block and instruction objects
        (the only things passes mutate) are fresh.  This is what the
        pipeline uses instead of ``copy.deepcopy`` — it is one linear
        sweep with no recursion or memo table.
        """
        blocks = [BasicBlock(block.label,
                             [instr.copy() for instr in block.instrs])
                  for block in self.blocks]
        return Function(self.name, list(self.params), blocks,
                        self._next_temp_id)

    # ------------------------------------------------------------------
    # Traversal.
    # ------------------------------------------------------------------
    def instructions(self) -> Iterator[Instr]:
        """All instructions in linear order."""
        for b in self.blocks:
            yield from b.instrs

    def instruction_count(self) -> int:
        """Total static instruction count."""
        return sum(len(b) for b in self.blocks)

    def all_temps(self) -> list[Temp]:
        """Every distinct temporary referenced, in first-appearance order."""
        seen: dict[Temp, None] = {}
        for p in self.params:
            seen.setdefault(p, None)
        for instr in self.instructions():
            for t in instr.temps():
                seen.setdefault(t, None)
        return list(seen)

    def __str__(self) -> str:
        from repro.ir.printer import print_function

        return print_function(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Function({self.name!r}, {len(self.blocks)} blocks, "
                f"{self.instruction_count()} instrs)")
