"""Mutable state of the binpacking scan.

The scan tracks, at every linear point:

* which temporaries currently *occupy* each register (several may share a
  register when all but one sit in lifetime holes — Figure 1's ``T3``
  inside ``T1``'s hole).  The register file is one list per register
  class, indexed by ``PhysReg.index``, like RyuJIT's per-register
  ``RegRecord``, and a claim is the claimant's
  :class:`~repro.lifetimes.intervals.Lifetime`, so the register search
  reads hole geometry without a lookup; a temporary leaves the file for
  good once, when the scan passes the end of its lifetime
  (:meth:`ScanState.expire`);
* each temporary's current register, keyed by ``Temp.id`` (absent: its
  memory home, or nowhere during a hole after an eviction);
* the ``ARE_CONSISTENT`` working bit vector of Section 2.4 — whether a
  resident temporary's register agrees with its memory home — plus the
  per-block ``WROTE_TR`` (kill) and ``USED_CONSISTENCY`` (gen) masks the
  resolution dataflow consumes.  Every temporary's bit is its id, as in
  liveness; block-local bits are masked off at block boundaries, so the
  masks a block hands to resolution carry global temporaries only;
* the location maps at the top and bottom of every block, which drive
  edge resolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cfg.cfg import CFG
from repro.dataflow.liveness import LivenessInfo
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.lifetimes.intervals import Lifetime, LifetimeTable


class Mem(enum.Enum):
    """Sentinel location: the temporary lives in its memory home."""

    MEM = "mem"

    def __str__(self) -> str:
        return "mem"


#: A temporary's location at a block boundary.
Location = PhysReg | Mem

MEM = Mem.MEM


@dataclass(eq=False)
class BlockRecord:
    """What the scan knew at one block's boundaries (Section 2.4's maps)."""

    top_loc: dict[Temp, Location] = field(default_factory=dict)
    bottom_loc: dict[Temp, Location] = field(default_factory=dict)
    consistent_at_end: int = 0  # saved copy of ARE_CONSISTENT
    wrote_tr: int = 0  # KILL set
    used_consistency: int = 0  # GEN set


class ScanState:
    """Register-file occupancy and consistency bits during the scan."""

    def __init__(self, table: LifetimeTable, liveness: LivenessInfo, cfg: CFG):
        self.table = table
        self.liveness = liveness
        self.cfg = cfg
        #: The lifetimes of the temporaries with a claim on each
        #: register, per class and indexed by register index.  At any
        #: point at most one occupant is live; the rest sit in lifetime
        #: holes.
        self.occupants: dict[RegClass, list[list[Lifetime]]] = {
            cls: [[] for _ in range(table.machine.file_size(cls))]
            for cls in RegClass}
        #: Registers that have ever held a temporary — used to stop the
        #: early-second-chance move from dragging a *fresh* callee-saved
        #: register (and its prologue save/restore pair) into use just to
        #: save one store.
        self.ever_used: set[PhysReg] = set()
        #: Current register of each temporary, by ``Temp.id`` (absent =
        #: not resident).
        self.loc: dict[int, PhysReg] = {}
        #: ARE_CONSISTENT working vector (bit ``temp.id``; block-local
        #: bits are dropped at every block boundary).
        self.consistent: int = 0
        #: Per-block records, filled as the scan proceeds.
        self.records: dict[str, BlockRecord] = {}
        self._wrote: int = 0
        self._used: int = 0
        #: Scan-shape counters the allocator publishes into the metrics
        #: registry (see :mod:`repro.obs.metrics`) after the scan.
        self.stat_placements: int = 0
        self.stat_hole_shares: int = 0
        self.stat_consistency_assumptions: int = 0
        #: Every lifetime, by end point; :meth:`expire` walks it once.
        self._by_end = sorted(table.temps.values(), key=lambda lt: lt.end)
        self._expired = 0

    # ------------------------------------------------------------------
    # Occupancy.
    # ------------------------------------------------------------------
    def occupants_of(self, reg: PhysReg) -> list[Lifetime]:
        """The lifetimes of ``reg``'s current claimants, in claim order."""
        return self.occupants[reg.regclass][reg.index]

    def expire(self, point: int) -> None:
        """Drop the claim and residency of every temporary whose lifetime
        ends at or before ``point`` (``point`` never decreases)."""
        by_end = self._by_end
        i = self._expired
        while i < len(by_end) and by_end[i].end <= point:
            self.displace(by_end[i].reg)
            i += 1
        self._expired = i

    def place(self, temp: Temp, reg: PhysReg) -> None:
        """Give ``temp`` a claim on ``reg`` and make it resident there."""
        claim = self.occupants[reg.regclass][reg.index]
        if claim:
            self.stat_hole_shares += 1
        claim.append(self.table.temps[temp])
        self.stat_placements += 1
        self.loc[temp.id] = reg
        self.ever_used.add(reg)

    def displace(self, temp: Temp) -> None:
        """Remove ``temp``'s claim and residency (it no longer has a
        register; its location is memory or nowhere)."""
        reg = self.loc.pop(temp.id, None)
        if reg is not None:
            self.occupants[reg.regclass][reg.index].remove(
                self.table.temps[temp])

    # ------------------------------------------------------------------
    # Consistency bits (Section 2.3/2.4).
    # ------------------------------------------------------------------
    def is_consistent(self, temp: Temp) -> bool:
        """The ``A_t`` bit: register contents match the memory home."""
        return bool(self.consistent >> temp.id & 1)

    def set_consistent(self, temp: Temp) -> None:
        """A spill to or from memory makes register and memory agree."""
        self.consistent |= 1 << temp.id

    def clear_consistent(self, temp: Temp) -> None:
        """A write to the register invalidates the memory home; also
        records the ``WROTE_TR`` kill bit for the resolution dataflow."""
        bit = 1 << temp.id
        self.consistent &= ~bit
        self._wrote |= bit

    def note_consistency_used(self, temp: Temp) -> None:
        """A spill store was inhibited because ``A_t`` was set.  When the
        register was not written in this block (``W_t`` clear) and ``t``
        is global, the assumption is non-local and the
        ``USED_CONSISTENCY`` gen bit is raised (Section 2.4)."""
        bit = 1 << temp.id
        if bit & self.liveness.global_mask and not bit & self._wrote:
            self._used |= bit
            self.stat_consistency_assumptions += 1

    # ------------------------------------------------------------------
    # Block boundaries.
    # ------------------------------------------------------------------
    def begin_block(self, label: str) -> BlockRecord:
        """Open a block: reset the per-block masks and record the top
        location of every temporary live into it."""
        record = BlockRecord()
        self.records[label] = record
        self._wrote = 0
        self._used = 0
        self.consistent &= self.liveness.global_mask
        for t in self.liveness.live_in_temps(label):
            record.top_loc[t] = self.loc.get(t.id, MEM)
        return record

    def end_block(self, label: str) -> BlockRecord:
        """Close a block: record bottom locations, save the working
        ``ARE_CONSISTENT`` copy and the gen/kill masks."""
        record = self.records[label]
        for t in self.liveness.live_out_temps(label):
            record.bottom_loc[t] = self.loc.get(t.id, MEM)
        global_mask = self.liveness.global_mask
        record.consistent_at_end = self.consistent & global_mask
        record.wrote_tr = self._wrote & global_mask
        record.used_consistency = self._used
        return record

    def reinit_consistency_conservative(self, label: str) -> None:
        """Section 2.6's strictly-linear alternative: at each block top,
        reinitialize ``ARE_CONSISTENT`` to the intersection of the saved
        vectors of all already-scanned predecessors, treating unscanned
        predecessors as all-clear."""
        preds = self.cfg.preds.get(label, [])
        mask = 0
        for i, pred in enumerate(preds):
            record = self.records.get(pred)
            saved = record.consistent_at_end if record is not None else 0
            mask = saved if i == 0 else mask & saved
        self.consistent = mask
