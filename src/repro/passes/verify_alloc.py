"""Post-allocation verifiers.

Two layers, both raising :class:`AllocationVerifyError` with a precise
message:

* :func:`verify_allocation` — a cheap structural check run after every
  allocator: no temporaries survive, every physical register exists on
  the target, and operand shapes respect each opcode's signature.

* :func:`verify_dataflow` — a path-sensitive *dataflow* verifier that
  abstractly interprets the allocated code per block (and, through the
  split blocks the resolution pass creates, per edge), tracking which
  temporary's value every physical register and spill slot currently
  holds.  It statically rejects exactly the failure modes the paper's
  Section 2.3–2.4 machinery (postponed/elided spill stores, the
  ``USED_CONSISTENCY``/``WROTE_TR`` dataflow, edge resolution) is
  responsible for preventing: reads of clobbered registers, loads of
  never-written or stale spill slots, values left in caller-saved
  registers across calls, and clobbered callee-saved registers.

The dataflow verifier compares the allocated code against an *operand
snapshot* taken before allocation (:func:`snapshot_module`).  Allocators
rewrite ``defs``/``uses`` lists in place, preserving instruction
identity, so the snapshot tells us which temporary each physical operand
stands for; allocator-inserted code is identified by its ``spill_phase``
tag and interpreted as pure data movement.

Abstract domain (per location — physical register or stack slot):

    ``{v, ...}`` the location holds the *current* value of every variable
                 in the set (temporaries, and physical registers that
                 appear in the pre-allocation code, e.g. convention
                 registers).  A set, not a single variable, because a
                 copy ``mov p, t`` leaves its destination holding the
                 current value of both ``p`` and ``t`` — which allocators
                 exploit (e.g. evicting ``t`` by storing the register
                 just written as call argument ``p``).  The empty set
                 means "stale": everything the location held has since
                 been redefined elsewhere.
    ``POISON``   a caller-saved register after a call (matching the
                 simulator's poisoning semantics);
    ``UNWRITTEN``a stack slot no path has stored to;
    ``CONFLICT`` the join of a mark against a value set (set-against-set
                 joins intersect instead).

Transfer is exact for data movement (moves and spill loads/stores copy
the abstract value; an original copy's destination gets the source's set
plus the defined variable; a def of ``v`` removes ``v`` from every other
location's set), and every *use* of a pre-allocation variable demands
``v`` be in its location's set.  States are joined at block entries and
iterated to a fixed point (sets only shrink, so this terminates); the
error sweep runs once afterwards, on the stable states.

Run it *before* the move-removing peephole: move elimination leaves
``mov r, r`` identity moves whose def re-establishes ``CUR`` for the
destination temporary, and the peephole deletes precisely those.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.cfg import CFG
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.temp import PhysReg, Reg, StackSlot
from repro.ir.types import RegClass
from repro.ir.validate import IRValidationError, validate_function
from repro.target.machine import MachineDescription


class AllocationVerifyError(ValueError):
    """Raised when allocated code violates the post-allocation contract."""


# ----------------------------------------------------------------------
# Structural verifier (the original shallow pass).
# ----------------------------------------------------------------------
def verify_allocation(fn: Function, machine: MachineDescription) -> None:
    """Check that ``fn`` is fully and plausibly allocated."""
    try:
        validate_function(fn, physical=True)
    except IRValidationError as exc:
        raise AllocationVerifyError(str(exc)) from exc
    for block in fn.blocks:
        for instr in block.instrs:
            for reg in instr.regs():
                if isinstance(reg, PhysReg) and reg.index >= machine.file_size(reg.regclass):
                    raise AllocationVerifyError(
                        f"{fn.name}/{block.label}: register {reg} does not "
                        f"exist on {machine.name}")


# ----------------------------------------------------------------------
# Pre-allocation operand snapshots.
# ----------------------------------------------------------------------
#: Per-function snapshot: instruction -> (defs, uses) before allocation.
OperandSnapshot = dict[Instr, tuple[tuple[Reg, ...], tuple[Reg, ...]]]


def snapshot_function(fn: Function) -> OperandSnapshot:
    """Record every instruction's operands before allocation rewrites them.

    Keyed by instruction identity (allocators mutate operand lists in
    place but never replace original :class:`Instr` objects), so the
    verifier can recover which variable each allocated operand implements.
    """
    return {instr: (tuple(instr.defs), tuple(instr.uses))
            for instr in fn.instructions()}


def snapshot_module(module: Module) -> dict[str, OperandSnapshot]:
    """Snapshot every function of ``module`` (call before allocating)."""
    return {name: snapshot_function(fn)
            for name, fn in module.functions.items()}


# ----------------------------------------------------------------------
# Abstract values.
# ----------------------------------------------------------------------
class _Mark:
    """A named non-set lattice element (POISON / UNWRITTEN / CONFLICT)."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Mark({self.label})"


POISON = _Mark("a caller-saved register poisoned by a call")
UNWRITTEN = _Mark("a never-written location")
CONFLICT = _Mark("conflicting values from different paths")

#: A location's abstract value: either a mark, or the *set* of variables
#: whose current value the location holds.  A set (not a single variable)
#: because a copy ``mov p, t`` leaves its destination holding the current
#: value of both ``p`` and ``t`` — and allocators legitimately exploit
#: that (e.g. evicting ``t`` by storing the register that was just
#: written as the call argument ``p``).  The empty set means "some
#: superseded value": every variable the location once held has been
#: redefined elsewhere.
_AbsVal = "frozenset[Reg] | _Mark"
_State = dict[PhysReg | StackSlot, "frozenset[Reg] | _Mark"]


def _describe(val: "frozenset[Reg] | _Mark") -> str:
    if isinstance(val, _Mark):
        return val.label
    if not val:
        return "a stale (superseded) value"
    return "the current value of " + "/".join(sorted(str(v) for v in val))


def _meet(a: "frozenset[Reg] | _Mark", b: "frozenset[Reg] | _Mark"):
    """Join of path facts: variables current on *both* paths survive;
    disagreeing marks (or a mark against a value set) conflict."""
    if a == b:
        return a
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return a & b
    return CONFLICT


def _join_states(into: _State, other: _State) -> bool:
    """Meet ``other`` into ``into`` pointwise; True when ``into`` changed.

    A location absent from one side defaults to ``UNWRITTEN`` (slots) /
    is impossible (registers — both sides seed the full file).
    """
    changed = False
    for loc in set(into) | set(other):
        a = into.get(loc, UNWRITTEN)
        b = other.get(loc, UNWRITTEN)
        met = _meet(a, b)
        if into.get(loc, UNWRITTEN) != met:
            into[loc] = met
            changed = True
    return changed


class _DataflowVerifier:
    """Runs the abstract interpretation over one allocated function."""

    def __init__(self, fn: Function, machine: MachineDescription,
                 snapshot: OperandSnapshot, cfg: CFG | None = None):
        self.fn = fn
        self.machine = machine
        self.snapshot = snapshot
        self.cfg = cfg if cfg is not None else CFG.build(fn)
        self.errors: list[str] = []

    # -- state helpers -------------------------------------------------
    def _entry_state(self) -> _State:
        """At function entry every register symbolically holds "its own"
        value (parameters arrive in parameter registers; callee-saved
        registers hold the caller's values, which must survive to the
        ``ret``); no stack slot has been written."""
        state: _State = {}
        for cls in RegClass:
            for reg in self.machine.regs(cls):
                state[reg] = frozenset((reg,))
        return state

    def _invalidate(self, state: _State, var: Reg,
                    except_loc: PhysReg | StackSlot) -> None:
        """``var`` was redefined: every other copy of its value is stale."""
        for loc, val in state.items():
            if loc != except_loc and isinstance(val, frozenset) and var in val:
                state[loc] = val - {var}

    # -- transfer ------------------------------------------------------
    def _transfer(self, state: _State, instr: Instr, label: str,
                  record: bool) -> None:
        """Apply one instruction to ``state``; with ``record``, append an
        error for every pre-allocation variable read from a location that
        does not hold its current value."""
        if instr.spill_phase is not None:
            self._transfer_spill(state, instr, label, record)
            return
        orig = self.snapshot.get(instr)
        if orig is None:
            # ``split_edge`` introduces bare jumps with no spill tag; any
            # other unrecognized instruction is an error.
            if instr.op is Op.JMP and not instr.defs and not instr.uses:
                return
            if record:
                self.errors.append(
                    f"{self.fn.name}/{label}: instruction '{instr}' is "
                    f"neither original code nor tagged spill code")
            return
        orig_defs, orig_uses = orig
        # Uses: each variable must be read from a location currently
        # holding its value.
        for var, now in zip(orig_uses, instr.uses):
            if not isinstance(now, PhysReg):
                if record:
                    self.errors.append(
                        f"{self.fn.name}/{label}: use of {var} in '{instr}' "
                        f"was not rewritten to a physical register")
                continue
            have = state.get(now, UNWRITTEN)
            ok = isinstance(have, frozenset) and var in have
            if not ok and record:
                self.errors.append(
                    f"{self.fn.name}/{label}: '{instr}' reads {now} "
                    f"expecting the current value of {var}, but {now} "
                    f"holds {_describe(have)}")
        # A copy's destination additionally keeps holding everything the
        # source held: capture that before the def overwrites the state
        # (the source and destination register may coincide).
        copied: "frozenset[Reg] | None" = None
        if (instr.op in (Op.MOV, Op.FMOV) and len(instr.uses) == 1
                and isinstance(instr.uses[0], PhysReg)):
            src_val = state.get(instr.uses[0], UNWRITTEN)
            if isinstance(src_val, frozenset):
                copied = src_val
        if instr.op is Op.CALL:
            # The callee may clobber every caller-saved register; the
            # call's own defs receive the return value below.
            skip = set(instr.defs)
            for cls in RegClass:
                for reg in self.machine.caller_saved(cls):
                    if reg not in skip:
                        state[reg] = POISON
        if instr.op is Op.RET and record:
            # The paper's convention: callee-saved registers must leave
            # the function holding the values they arrived with.
            for cls in RegClass:
                for reg in self.machine.callee_saved(cls):
                    have = state.get(reg, UNWRITTEN)
                    if not (isinstance(have, frozenset) and reg in have):
                        self.errors.append(
                            f"{self.fn.name}/{label}: ret with callee-saved "
                            f"{reg} holding {_describe(have)} instead of its "
                            f"entry value")
        # Defs: the written register now holds the variable's (new)
        # current value — plus, for a copy, everything the source held —
        # and every other copy of that variable is stale.
        for var, now in zip(orig_defs, instr.defs):
            if not isinstance(now, PhysReg):
                if record:
                    self.errors.append(
                        f"{self.fn.name}/{label}: def of {var} in '{instr}' "
                        f"was not rewritten to a physical register")
                continue
            state[now] = (frozenset((var,)) if copied is None
                          else copied | {var})
            self._invalidate(state, var, now)

    def _transfer_spill(self, state: _State, instr: Instr, label: str,
                        record: bool) -> None:
        """Allocator-inserted code is pure data movement between locations."""
        if instr.op is Op.STS:
            src = instr.uses[0]
            state[instr.slot] = state.get(src, UNWRITTEN)
            return
        if instr.op is Op.LDS:
            have = state.get(instr.slot, UNWRITTEN)
            if have is UNWRITTEN and record:
                self.errors.append(
                    f"{self.fn.name}/{label}: spill load '{instr}' reads "
                    f"{instr.slot}, which no path has written")
            state[instr.defs[0]] = have
            return
        if instr.op in (Op.MOV, Op.FMOV):
            state[instr.defs[0]] = state.get(instr.uses[0], UNWRITTEN)
            return
        if instr.op is Op.JMP:
            return  # split-block terminators
        if instr.op in (Op.LI, Op.FLI) and instr.remat_for is not None:
            # Rematerialization: the constant is the temporary's *only*
            # definition, so re-issuing it re-establishes the current
            # value of ``remat_for`` in the destination register — no
            # stack slot involved, hence no staleness to check.
            state[instr.defs[0]] = frozenset((instr.remat_for,))
            return
        if record:  # pragma: no cover - no allocator emits other spill ops
            self.errors.append(
                f"{self.fn.name}/{label}: unexpected spill-tagged "
                f"instruction '{instr}'")

    # -- driver --------------------------------------------------------
    def run(self) -> list[str]:
        entry_label = self.fn.entry.label
        in_states: dict[str, _State] = {entry_label: self._entry_state()}
        order = self.cfg.reverse_postorder()
        blocks = {b.label: b for b in self.fn.blocks}
        # Fixed point on the block-entry states (flat domain: terminates).
        changed = True
        while changed:
            changed = False
            for label in order:
                if label not in in_states:
                    continue  # not yet reached
                state = dict(in_states[label])
                for instr in blocks[label].instrs:
                    self._transfer(state, instr, label, record=False)
                for succ in self.cfg.succs[label]:
                    if succ not in in_states:
                        in_states[succ] = dict(state)
                        changed = True
                    elif _join_states(in_states[succ], state):
                        changed = True
        # Error sweep on the stable states.
        for label in order:
            if label not in in_states:
                continue
            state = dict(in_states[label])
            for instr in blocks[label].instrs:
                self._transfer(state, instr, label, record=True)
        return self.errors


def verify_dataflow(fn: Function, machine: MachineDescription,
                    snapshot: OperandSnapshot,
                    cfg: CFG | None = None) -> None:
    """Abstractly interpret allocated ``fn``; raise on any dataflow error.

    ``snapshot`` must come from :func:`snapshot_function` on the *same*
    function object, taken after any pre-allocation passes (DCE) and
    before the allocator ran.  See the module docstring for the domain.
    ``cfg`` may supply the (post-allocation) control-flow graph when the
    caller already has it cached; the verifier never mutates it.
    """
    errors = _DataflowVerifier(fn, machine, snapshot, cfg).run()
    if errors:
        shown = "\n  ".join(errors[:8])
        more = f"\n  ... and {len(errors) - 8} more" if len(errors) > 8 else ""
        raise AllocationVerifyError(
            f"dataflow verification failed ({len(errors)} error(s)):\n"
            f"  {shown}{more}")
