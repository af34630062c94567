"""Second-chance binpacking: the single allocate/rewrite scan (Section 2).

The scan walks the instructions in linear order exactly once.  For every
instruction it:

1. **Honours register reservations.**  Registers referenced by the
   calling convention at this instruction (explicit physical operands,
   and the caller-saved set at calls) have their occupants evicted first.
   This is Section 2.5's "when a register's lifetime hole expires, we
   check to see if there is still a temporary contained in it" — with the
   *early second chance* upgrade that converts an eviction store into a
   register-to-register move when an empty register with a large enough
   hole exists.

2. **Rewrites uses.**  A use of a resident temporary is rewritten to its
   register.  A use of a spilled temporary gets a register (possibly
   evicting someone) and a reload — and then *stays* resident: "we
   optimistically, rather than pessimistically, plan for u's future
   references" (Section 2.3).

3. **Rewrites defs.**  A def of a non-resident temporary gets a register
   with *no* load, and its store back to memory is postponed until
   eviction — and elided entirely if the value dies or the register and
   memory are still consistent when eviction comes.

Register selection follows Section 2.2's binpacking heuristics: among
registers whose hole contains the temporary's remaining lifetime, the
*smallest* such hole (best fit); otherwise the *largest insufficient*
hole (Section 2.5, which is what lets temporaries live across calls in
caller-saved registers temporarily); otherwise evict the occupant with
the lowest priority (distance to next reference, weighted by loop depth).
Each search reads a register file: per register class, every register's
claimants (:class:`~repro.allocators.binpack.state.ScanState`) and
reserved ranges (:class:`~repro.lifetimes.intervals.LifetimeTable`) in
lists indexed by register.  A temporary leaves its register once, when
the scan passes the end of its lifetime at an instruction's read or
write point, so no query has to skip finished occupants.

The scan's linear view of control flow is reconciled with the real CFG
afterwards by :mod:`repro.allocators.binpack.resolution`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.allocators.base import (
    AllocationError,
    AllocationStats,
    RegisterAllocator,
    SharedAnalyses,
    eviction_priority,
)
from repro.allocators.binpack.resolution import resolve_edges
from repro.allocators.binpack.state import ScanState
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, SpillPhase
from repro.ir.temp import PhysReg, Temp
from repro.ir.types import RegClass
from repro.lifetimes.intervals import Lifetime, LifetimeTable, RangeSet
from repro.obs.trace import EventKind
from repro.spill.emitter import SpillCodeEmitter
from repro.target.machine import MachineDescription

#: Stands in for "no reservation / occupant ever again".
_INF = 1 << 60


@dataclass(frozen=True)
class BinpackOptions:
    """Ablation knobs for the design choices Section 2 calls out.

    Attributes:
        use_holes: Pack temporaries into other temporaries' lifetime
            holes (Section 2.1/2.2).  Off = an occupant blocks its whole
            span.
        early_second_chance: Convert convention-forced eviction stores
            into moves when an empty register can hold the remaining
            lifetime (Section 2.5).
        move_elimination: Try to give a move's destination the source's
            register so the peephole pass can delete the move
            (Section 2.5).
        avoid_consistent_stores: Elide eviction/resolution stores when
            register and memory are known consistent, tracking
            ``ARE_CONSISTENT`` (Section 2.3); requires the resolution
            dataflow (or the conservative variant) for correctness.
        conservative_consistency: Section 2.6's strictly-linear variant:
            reinitialize ``ARE_CONSISTENT`` at each block top from
            already-scanned predecessors instead of running the iterative
            dataflow afterwards.
    """

    use_holes: bool = True
    early_second_chance: bool = True
    move_elimination: bool = True
    avoid_consistent_stores: bool = True
    conservative_consistency: bool = False


class SecondChanceBinpacking(RegisterAllocator):
    """The paper's allocator.  See the module docstring."""

    def __init__(self, options: BinpackOptions | None = None):
        self.options = options or BinpackOptions()
        self.name = "second-chance binpacking"

    # ------------------------------------------------------------------
    # Hole geometry.
    # ------------------------------------------------------------------
    def _hole_end(self, reserved: RangeSet, claim: list[Lifetime],
                  point: int) -> int:
        """How far past ``point`` a register stays free, given its
        ``reserved`` ranges and its claimants' lifetimes ``claim``: the
        next reservation start or occupant resumption, whichever comes
        first (``_INF`` when neither ever does; ``point`` when the
        register is unavailable now).  Every claimant's lifetime ends
        after ``point``: the scan expired the others before asking.
        """
        nxt = reserved.next_covered_at_or_after(point)
        if nxt == point:
            return point
        end = nxt if nxt is not None else _INF
        use_holes = self.options.use_holes
        for lifetime in claim:
            if use_holes:
                resume = lifetime.next_live_at_or_after(point)
            else:
                # Without hole packing an occupant blocks its whole span.
                resume = max(lifetime.start, point)
            if resume <= point:
                return point
            if resume < end:
                end = resume
        return end

    def _remaining_end(self, table: LifetimeTable, temp: Temp, point: int) -> int:
        """End of ``temp``'s remaining lifetime (at least one point)."""
        return max(table.temps[temp].end, point + 1)

    def _remaining_ranges(self, table: LifetimeTable, temp: Temp,
                          point: int) -> RangeSet:
        """``temp``'s remaining live ranges (convex span without holes)."""
        if self.options.use_holes:
            return table.temps[temp].remaining(point)
        return RangeSet([(point, self._remaining_end(table, temp, point))])

    def _occupant_ranges(self, lifetime: Lifetime) -> RangeSet:
        """The ranges an occupant blocks: its live ranges, or its whole
        span when hole packing is disabled."""
        if self.options.use_holes:
            return lifetime.live
        return RangeSet([(lifetime.start, lifetime.end)])

    # ------------------------------------------------------------------
    # Eviction.
    # ------------------------------------------------------------------
    def _evict(self, state: ScanState, table: LifetimeTable,
               emitter: SpillCodeEmitter, stats: AllocationStats,
               lifetime: Lifetime, reg: PhysReg, point: int,
               pre: list[Instr], locked: int, *, allow_move: bool) -> None:
        """Take ``reg`` away from the temporary of ``lifetime`` at
        ``point`` (Section 2.3/2.5).

        Emits nothing when the value is dead or in a hole; elides the
        store when memory is consistent (recording the dataflow gen bit);
        otherwise tries the early-second-chance move and falls back to a
        spill store.  ``locked`` is the register-index mask of ``reg``'s
        class that the move may not target.
        """
        tr = stats.trace
        temp = lifetime.reg
        if not lifetime.alive_at(point):
            state.displace(temp)
            return
        if self.options.avoid_consistent_stores and state.is_consistent(temp):
            if tr.enabled:
                tr.emit(EventKind.STORE_ELIDED_CONSISTENT, point=point,
                        temp=temp, reg=reg)
            state.note_consistency_used(temp)
            state.displace(temp)
            return
        if allow_move and self.options.early_second_chance:
            target = self._find_empty_register(
                state, table, emitter, temp, point, locked)
            if target is not None:
                op = Op.MOV if temp.regclass is RegClass.GPR else Op.FMOV
                pre.append(emitter.move(op, target, reg, SpillPhase.EVICT))
                if tr.enabled:
                    tr.emit(EventKind.EVICT, point=point, temp=temp, reg=reg,
                            detail=f"move->{target}")
                state.displace(temp)
                state.place(temp, target)
                return
        pre.append(emitter.store(temp, reg, SpillPhase.EVICT))
        if tr.enabled:
            tr.emit(EventKind.EVICT, point=point, temp=temp, reg=reg,
                    detail="store")
            tr.emit(EventKind.SPILL_STORE_EMITTED, point=point, temp=temp,
                    reg=reg)
        state.set_consistent(temp)
        state.displace(temp)

    def _find_empty_register(self, state: ScanState, table: LifetimeTable,
                             emitter: SpillCodeEmitter, temp: Temp, point: int,
                             locked: int) -> PhysReg | None:
        """An occupant-free register whose hole holds ``temp``'s remaining
        live ranges (the early-second-chance target search).

        Fresh callee-saved registers are not eligible: converting one
        eviction store into a move is a bad trade when it drags a new
        prologue save/restore pair into every activation of the function.

        Determinism: ``machine.regs`` is in register-index order and the
        first eligible register wins, so among equally-good candidates the
        lowest index is always chosen — allocations never depend on hash
        order or Python version.
        """
        machine = table.machine
        remaining = self._remaining_ranges(table, temp, point)
        claims = state.occupants[temp.regclass]
        reservations = table.reserved[temp.regclass]
        for reg in emitter.register_order(temp.regclass):
            i = reg.index
            if locked >> i & 1 or claims[i]:
                continue
            if machine.is_callee_saved(reg) and reg not in state.ever_used:
                continue
            if reservations[i].overlaps(remaining):
                continue
            return reg
        return None

    # ------------------------------------------------------------------
    # Register selection (Section 2.2's binpacking search).
    # ------------------------------------------------------------------
    def _find_register(self, state: ScanState, table: LifetimeTable,
                       emitter: SpillCodeEmitter, stats: AllocationStats,
                       temp: Temp, point: int, locked: int,
                       pre: list[Instr]) -> PhysReg:
        """Choose (and if necessary free up) a register for ``temp``;
        ``locked`` is the register-index mask of ``temp``'s class that
        this instruction already uses.

        Ties are broken explicitly on the register index (the lexicographic
        ``(hole size, index)`` keys below), so the same input always yields
        the same allocation — and therefore the same benchmark numbers —
        across runs, hash seeds, and Python versions.
        """
        remaining = self._remaining_ranges(table, temp, point)
        claims = state.occupants[temp.regclass]
        reservations = table.reserved[temp.regclass]
        hole_end_of = self._hole_end
        occupant_ranges = self._occupant_ranges
        best_fit: PhysReg | None = None
        best_fit_key = (_INF + 1, -1)  # (hole end, register index), minimized
        largest: PhysReg | None = None
        largest_key = (-point, -1)  # (-hole end, register index), minimized
        for reg in emitter.register_order(temp.regclass):
            i = reg.index
            if locked >> i & 1:
                continue
            claim, reserved = claims[i], reservations[i]
            if not claim and not reserved:
                # Never claimed nor reserved: the hole never ends and holds
                # anything, so only the lowest such index can win.
                if (_INF, i) < best_fit_key:
                    best_fit, best_fit_key = reg, (_INF, i)
                continue
            hole_end = hole_end_of(reserved, claim, point)
            if hole_end <= point:
                continue
            # Occupants must never be live while the newcomer is: their
            # resumptions have no eviction event, so an overlap would
            # silently clobber one of the two.
            if claim and any(occupant_ranges(other).overlaps(remaining)
                             for other in claim):
                continue
            if not reserved.overlaps(remaining):
                # Sufficient: the register is free over every point where
                # the temporary is live (holes included) — best fit keeps
                # the smallest such hole (Section 2.2), lowest index on ties.
                key = (hole_end, i)
                if key < best_fit_key:
                    best_fit, best_fit_key = reg, key
            else:
                # Insufficient only because of a reservation: usable, the
                # reservation-expiry events will evict (Section 2.5's
                # "largest insufficiently-large hole"), lowest index on ties.
                key = (-hole_end, i)
                if key < largest_key:
                    largest, largest_key = reg, key
        chosen = best_fit if best_fit is not None else largest
        # Under forced-evict stress, sometimes take the eviction path even
        # though a register was available; fall back to the free register
        # when nothing is evictable.
        if chosen is None or emitter.force_evict():
            try:
                chosen = self._evict_lowest_priority(
                    state, table, emitter, stats, temp, point, locked, pre)
            except AllocationError:
                if chosen is None:
                    raise
        tr = stats.trace
        if tr.enabled:
            shared_hole = bool(state.occupants_of(chosen))
            tr.emit(EventKind.HOLE_REUSE if shared_hole else EventKind.ASSIGN,
                    point=point, temp=temp, reg=chosen)
        state.place(temp, chosen)
        return chosen

    def _evict_lowest_priority(self, state: ScanState, table: LifetimeTable,
                               emitter: SpillCodeEmitter,
                               stats: AllocationStats, temp: Temp, point: int,
                               locked: int, pre: list[Instr]) -> PhysReg:
        """No free hole: evict the lowest-priority live occupant.

        The victim search scans registers in index order and keeps the
        explicit minimum of ``(priority, register index)``, so equal
        priorities always evict from the lowest-indexed register —
        deterministic across runs and Python versions.
        """
        claims = state.occupants[temp.regclass]
        reservations = table.reserved[temp.regclass]
        victim_reg: PhysReg | None = None
        victim: Lifetime | None = None
        worst = (float("inf"), -1)  # (priority, register index), minimized
        for reg in emitter.register_order(temp.regclass):
            i = reg.index
            if locked >> i & 1 or reservations[i].covers(point):
                continue
            blocking = [lt for lt in claims[i] if lt.start <= point < lt.end]
            if not blocking:
                continue
            live = [lt for lt in blocking if lt.alive_at(point)]
            if live:
                candidate = live[0]
                priority = eviction_priority(table, candidate.reg, point)
            else:
                # Only a hole-resident occupant blocks (possible when hole
                # packing is disabled): evicting it is free.
                candidate = blocking[0]
                priority = -1.0
            key = (priority, i)
            if key < worst:
                worst, victim, victim_reg = key, candidate, reg
        if victim_reg is None:
            raise AllocationError(
                f"no register of class {temp.regclass.name} available for "
                f"{temp} at point {point} (file too small)")
        self._evict(state, table, emitter, stats, victim, victim_reg, point,
                    pre, locked, allow_move=False)
        # Hole claimants whose hole cannot also host the newcomer lose
        # their claim (no code needed: a hole holds no value).
        remaining = self._remaining_ranges(table, temp, point)
        for claimant in list(state.occupants_of(victim_reg)):
            if self._occupant_ranges(claimant).overlaps(remaining):
                state.displace(claimant.reg)
        return victim_reg

    # ------------------------------------------------------------------
    # The scan.
    # ------------------------------------------------------------------
    def allocate_function(self, fn: Function, machine: MachineDescription,
                          shared: SharedAnalyses, emitter: SpillCodeEmitter,
                          stats: AllocationStats) -> None:
        table = shared.lifetimes
        state = ScanState(table, shared.liveness, shared.cfg)
        opts = self.options
        tr = stats.trace
        # The registers the convention ever reserves, with their claims
        # and reserved ranges: GPRs then FPRs, each in index order, so
        # eviction order is a function of the code, not of occupancy
        # history.  No other register is ever reclaimed.
        reclaimable = [
            (reg, claim, reserved) for cls, claims in state.occupants.items()
            for reg, claim, reserved in zip(machine.regs(cls), claims,
                                            table.reserved[cls])
            if reserved]

        with stats.profiler.phase("allocate.scan"):
            for block in fn.blocks:
                if tr.enabled:
                    tr.set_location(block=block.label)
                state.begin_block(block.label)
                if opts.conservative_consistency:
                    state.reinit_consistency_conservative(block.label)
                rewritten: list[Instr] = []
                block_start = table.block_span[block.label][0]
                for n, instr in enumerate(block.instrs):
                    use_point = block_start + 2 * n
                    def_point = use_point + 1
                    pre: list[Instr] = []
                    # Per class, the mask of register indices this
                    # instruction already uses.
                    locked = {RegClass.GPR: 0, RegClass.FPR: 0}
                    state.expire(use_point)

                    # 1. Reservation events: convention reclaims registers.
                    self._process_reservations(state, table, emitter, stats,
                                               use_point, pre, reclaimable)

                    # 2. Uses.
                    for i, use in enumerate(instr.uses):
                        if isinstance(use, PhysReg):
                            locked[use.regclass] |= 1 << use.index
                            continue
                        reg = state.loc.get(use.id)
                        if reg is None:
                            reg = self._find_register(
                                state, table, emitter, stats, use, use_point,
                                locked[use.regclass], pre)
                            reload = emitter.reload(use, reg, SpillPhase.EVICT)
                            pre.append(reload)
                            if tr.enabled:
                                tr.emit(EventKind.SECOND_CHANCE_RELOAD,
                                        point=use_point, temp=use, reg=reg)
                            if not emitter.rematerialized(reload):
                                # A remat leaves memory untouched, so the
                                # register/memory consistency bit must not
                                # be raised for it.
                                state.set_consistent(use)
                        instr.uses[i] = reg
                        locked[reg.regclass] |= 1 << reg.index

                    # 3. Defs.  A use that dies here has left its register
                    # by now, so move elimination can hand that register
                    # to the move's destination.
                    state.expire(def_point)
                    for i, dst in enumerate(instr.defs):
                        if isinstance(dst, PhysReg):
                            locked[dst.regclass] |= 1 << dst.index
                            continue
                        reg = state.loc.get(dst.id)
                        if (reg is None and opts.move_elimination
                                and instr.is_move):
                            reg = self._try_move_elimination(
                                state, table, stats, instr, dst, def_point)
                        if reg is None:
                            reg = self._find_register(
                                state, table, emitter, stats, dst, def_point,
                                locked[dst.regclass], pre)
                        if tr.enabled and emitter.has_home(dst):
                            # The redefined value's memory home goes stale:
                            # its store back is postponed until eviction.
                            tr.emit(EventKind.SPILL_STORE_POSTPONED,
                                    point=def_point, temp=dst, reg=reg)
                        instr.defs[i] = reg
                        locked[reg.regclass] |= 1 << reg.index
                        state.clear_consistent(dst)

                    rewritten.extend(pre)
                    rewritten.append(instr)
                block.instrs = rewritten
                state.end_block(block.label)

        with stats.profiler.phase("allocate.resolve"):
            iterations = resolve_edges(
                fn, machine, shared, state, emitter, stats,
                avoid_consistent_stores=opts.avoid_consistent_stores,
                run_dataflow=(opts.avoid_consistent_stores
                              and not opts.conservative_consistency))
        stats.dataflow_iterations[fn.name] = iterations
        stats.metrics.bump("binpack.resolution.dataflow_iterations",
                           iterations)
        stats.metrics.bump("binpack.scan.placements", state.stat_placements)
        stats.metrics.bump("binpack.scan.hole_shares", state.stat_hole_shares)
        stats.metrics.bump("binpack.scan.consistency_assumptions",
                           state.stat_consistency_assumptions)

    def _process_reservations(
            self, state: ScanState, table: LifetimeTable,
            emitter: SpillCodeEmitter, stats: AllocationStats,
            use_point: int, pre: list[Instr],
            reclaimable: list[tuple[PhysReg, list[Lifetime], RangeSet]]
    ) -> None:
        """Evict occupants of registers the convention claims during the
        current instruction window ``[use_point, use_point + 2)``; it runs
        before the instruction locks any register.  ``reclaimable`` lists
        every register with a reservation, in eviction order."""
        window_end = use_point + 2
        for reg, claim, reserved in reclaimable:
            if not claim or not reserved.overlaps_interval(use_point,
                                                           window_end):
                continue
            for lifetime in list(claim):
                self._evict(state, table, emitter, stats, lifetime, reg,
                            use_point, pre, 0, allow_move=True)

    def _try_move_elimination(self, state: ScanState, table: LifetimeTable,
                              stats: AllocationStats, instr: Instr, dst: Temp,
                              def_point: int) -> PhysReg | None:
        """Section 2.5's move elimination: give the move's destination the
        source's register when that register has a hole starting right
        after the source use that is big enough for the destination."""
        src = instr.uses[0]
        if not isinstance(src, PhysReg):
            return None  # the use pass rewrites resident sources to PhysReg
        remaining = self._remaining_ranges(table, dst, def_point)
        if table.reserved_for(src).overlaps(remaining):
            return None
        for occupant in state.occupants_of(src):
            if self._occupant_ranges(occupant).overlaps(remaining):
                return None
        state.place(dst, src)
        stats.moves_eliminated += 1
        stats.metrics.bump("binpack.moves_eliminated")
        tr = stats.trace
        if tr.enabled:
            tr.emit(EventKind.MOVE_ELIMINATED, point=def_point, temp=dst,
                    reg=src)
        return src
