"""Target machine descriptions: register files, calling convention, costs.

A :class:`MachineDescription` is a *pure data* view of the target that
every allocator shares: two disjoint register files (general-purpose and
floating-point, :mod:`repro.ir.types`), a partition of each file into
caller-saved and callee-saved registers, the parameter registers and the
return register of each class.  The paper's machine is an Alpha 21164
(Section 3.1); :func:`repro.target.alpha` builds the corresponding
description, and :func:`repro.target.tiny` builds arbitrarily small
machines so tests can force register pressure with tiny programs.

The cycle model (:data:`CYCLE_COSTS` / :func:`cycle_cost`) is shared by
every allocator's evaluation, so relative comparisons are fair: memory
traffic is what spill code adds, so loads and stores cost more than ALU
operations, and divides are the slowest thing the machine does.
"""

from __future__ import annotations

from repro.ir.instr import Op
from repro.ir.temp import PhysReg
from repro.ir.types import RegClass


class MachineDescription:
    """An immutable description of one target machine.

    Args:
        name: Human-readable target name (appears in diagnostics).
        n_gpr: Size of the general-purpose register file.
        n_fpr: Size of the floating-point register file.
        gpr_params: Indices of the GPR parameter registers, in argument
            order.
        fpr_params: Indices of the FPR parameter registers, in argument
            order.
        gpr_callee_saved: Indices of the callee-saved GPRs.
        fpr_callee_saved: Indices of the callee-saved FPRs.
        gpr_ret: Index of the GPR return register.
        fpr_ret: Index of the FPR return register.

    Every register not listed as callee-saved is caller-saved.  Parameter
    and return registers take part in the call itself, so they must be
    caller-saved; construction validates this along with index ranges.
    """

    __slots__ = ("name", "n_gpr", "n_fpr", "_params", "_callee", "_caller",
                 "_regs", "_ret", "_callee_set", "gprs", "fprs")

    def __init__(self, name: str, n_gpr: int, n_fpr: int,
                 gpr_params: tuple[int, ...], fpr_params: tuple[int, ...],
                 gpr_callee_saved: tuple[int, ...],
                 fpr_callee_saved: tuple[int, ...],
                 gpr_ret: int, fpr_ret: int):
        self.name = name
        self.n_gpr = n_gpr
        self.n_fpr = n_fpr
        spec = {
            RegClass.GPR: (n_gpr, tuple(gpr_params), tuple(gpr_callee_saved),
                           gpr_ret),
            RegClass.FPR: (n_fpr, tuple(fpr_params), tuple(fpr_callee_saved),
                           fpr_ret),
        }
        self._params: dict[RegClass, tuple[PhysReg, ...]] = {}
        self._callee: dict[RegClass, tuple[PhysReg, ...]] = {}
        self._caller: dict[RegClass, tuple[PhysReg, ...]] = {}
        self._regs: dict[RegClass, tuple[PhysReg, ...]] = {}
        self._ret: dict[RegClass, PhysReg] = {}
        for cls, (size, params, callee, ret) in spec.items():
            for index in (*params, *callee, ret):
                if not 0 <= index < size:
                    raise ValueError(
                        f"{name}: {cls.name} register index {index} out of "
                        f"range for a file of {size}")
            if len(set(params)) != len(params):
                raise ValueError(
                    f"{name}: duplicate {cls.name} parameter registers")
            callee_set = set(callee)
            for index in (*params, ret):
                if index in callee_set:
                    raise ValueError(
                        f"{name}: {cls.name} register {index} takes part in "
                        f"calls and must be caller-saved")
            self._regs[cls] = tuple(PhysReg(cls, i) for i in range(size))
            self._callee[cls] = tuple(PhysReg(cls, i) for i in sorted(callee_set))
            self._caller[cls] = tuple(r for r in self._regs[cls]
                                      if r.index not in callee_set)
            self._params[cls] = tuple(PhysReg(cls, i) for i in params)
            self._ret[cls] = PhysReg(cls, ret)
        self._callee_set = frozenset(self._callee[RegClass.GPR]
                                     + self._callee[RegClass.FPR])
        self.gprs = self._regs[RegClass.GPR]
        self.fprs = self._regs[RegClass.FPR]

    # ------------------------------------------------------------------
    # Register-file queries.
    # ------------------------------------------------------------------
    def file_size(self, cls: RegClass) -> int:
        """Number of registers in the ``cls`` file."""
        return len(self._regs[cls])

    def regs(self, cls: RegClass) -> tuple[PhysReg, ...]:
        """Every register of the ``cls`` file, in index order."""
        return self._regs[cls]

    def caller_saved(self, cls: RegClass) -> tuple[PhysReg, ...]:
        """The caller-saved registers of ``cls`` (clobbered by calls)."""
        return self._caller[cls]

    def callee_saved(self, cls: RegClass) -> tuple[PhysReg, ...]:
        """The callee-saved registers of ``cls`` (preserved by calls)."""
        return self._callee[cls]

    def param_regs(self, cls: RegClass) -> tuple[PhysReg, ...]:
        """The ``cls`` parameter registers, in argument order."""
        return self._params[cls]

    def ret_reg(self, cls: RegClass) -> PhysReg:
        """The register a ``cls``-valued function result travels in."""
        return self._ret[cls]

    def is_callee_saved(self, reg: PhysReg) -> bool:
        """Whether ``reg`` must be preserved across calls."""
        return reg in self._callee_set

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MachineDescription({self.name!r}, n_gpr={self.n_gpr}, "
                f"n_fpr={self.n_fpr})")


#: Cycle cost per opcode; anything absent costs one cycle.  Memory traffic
#: (heap and stack-slot accesses alike) is a cache-hit latency, multiplies
#: are pipelined-but-long, and divides are the unpipelined worst case —
#: the relative shape that makes spill code expensive, which is all the
#: evaluation's cycle totals need.
CYCLE_COSTS: dict[Op, int] = {
    Op.LD: 3,
    Op.ST: 3,
    Op.FLD: 3,
    Op.FST: 3,
    Op.LDS: 3,
    Op.STS: 3,
    Op.MUL: 4,
    Op.FMUL: 4,
    Op.CALL: 2,
    Op.FDIV: 15,
    Op.FADD: 2,
    Op.FSUB: 2,
    Op.REM: 20,
    Op.DIV: 20,
}


def cycle_cost(op: Op) -> int:
    """Cycles one dynamic instance of ``op`` costs (default 1)."""
    return CYCLE_COSTS.get(op, 1)
