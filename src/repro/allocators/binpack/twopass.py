"""Traditional two-pass binpacking (the Section 3.1 ablation baseline).

"The traditional approach to linear-scan allocation first walks the
sorted list of lifetime intervals deciding which temporaries live in a
register and which live in memory.  A second phase then scans the
procedure code and rewrites each operand" (Section 2.2).  This
implementation keeps the *hole-aware* packing ("this implementation still
takes advantage of lifetime holes during allocation", Section 3.1) but
assigns each whole lifetime to exactly one home:

* **Decision pass.**  At a temporary's first reference in linear order
  it takes the first register (caller-saved first) whose reserved ranges
  and existing occupants are disjoint from the temporary's *entire*
  lifetime — so a lifetime crossing a call can never use a caller-saved
  register, which is precisely the weakness the paper's ``wc``
  experiment exposes.  If no register fits, the temporary lives in
  memory.
* **Point lifetimes.**  Each reference to a memory-resident temporary
  needs a scratch register for just that instruction ("these point
  lifetimes are always assigned a register", Section 2.2), and that
  window then occupies the register like a home, so a lifetime decided
  later cannot take a register over a point lifetime it overlaps.  When
  no register is free at that point, the lowest-priority home covering
  the point is forced to memory and the decision pass restarts — a
  whole-lifetime eviction, never a split.  Both passes run in the shared
  walk of :class:`~repro.allocators.wholelife.WholeLifetimeAllocator`;
  this class supplies only the hole-aware span a home blocks.
* **Rewrite pass.**  Register-resident temporaries are renamed; memory-
  resident ones get a load before each use and a store after each def,
  with no consistency tracking ("this algorithm does not avoid
  unnecessary stores", Section 3.1) and no resolution pass (locations
  never vary, so block boundaries always agree).
"""

from __future__ import annotations

from repro.allocators.wholelife import WholeLifetimeAllocator
from repro.ir.temp import Temp
from repro.lifetimes.intervals import LifetimeTable, RangeSet


class TwoPassBinpacking(WholeLifetimeAllocator):
    """Whole-lifetime binpacking with hole-aware packing; see module doc."""

    metrics_prefix = "twopass"

    def __init__(self) -> None:
        self.name = "two-pass binpacking"

    def span(self, table: LifetimeTable, temp: Temp) -> RangeSet:
        """The live ranges: a home fits into another's holes."""
        return table.temps[temp].live
