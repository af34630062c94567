"""Block-level liveness over the cross-block ("global") temporaries.

Per the paper's Section 3, "temporaries that are live only within a single
basic block are excluded from dataflow analysis".  A temporary is *global*
exactly when some block reads it without first writing it (it is upward
exposed somewhere); every other temporary's liveness is confined to single
blocks and is recovered later by the lifetime scan without any dataflow.

Liveness is computed once, before allocation, and shared by every
allocator — the paper's fair-comparison methodology.

A temporary's bit is its id (``1 << temp.id``), the one numbering every
consumer shares.  Block-local temporaries are left out by masking: GEN
only ever holds upward-exposed (hence global) temps, and KILL is filtered
through :attr:`LivenessInfo.global_mask`, so no local bit is ever set.
The per-block inputs come from one forward pass over the function that
records each block's upward-exposed uses and first defs (a single
generation-stamped dict tracks per-block definedness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cfg.cfg import CFG
from repro.dataflow.bitvector import bits_of
from repro.dataflow.framework import DataflowProblem, solve
from repro.ir.function import Function
from repro.ir.temp import Temp


@dataclass(eq=False)
class LivenessInfo:
    """Fixed-point liveness for one function.

    Attributes:
        temps: The global temporaries, by id (bit ``i`` is ``temps[i]``).
        global_mask: One bit per global temporary.
        live_in / live_out: Masks per block label.
        iterations: Worklist passes the solver needed (Section 2.6's
            "two or three iterations at most" observation).
    """

    temps: dict[int, Temp]
    global_mask: int
    live_in: dict[str, int]
    live_out: dict[str, int]
    iterations: int

    def live_out_temps(self, label: str) -> list[Temp]:
        """The temporaries live out of block ``label``, in id order."""
        temps = self.temps
        return [temps[i] for i in bits_of(self.live_out[label])]

    def live_in_temps(self, label: str) -> list[Temp]:
        """The temporaries live into block ``label``, in id order."""
        temps = self.temps
        return [temps[i] for i in bits_of(self.live_in[label])]


#: Generation-dict flags: the temp was used-before-defined / defined in
#: the block whose generation stamps the entry.
_SEEN = 1
_KILLED = 2


def _block_local_sets(fn: Function) -> tuple[dict[str, list[Temp]],
                                             dict[str, list[Temp]]]:
    """Per-block upward-exposed-use and kill (defined) temp lists.

    One forward pass over the function; each returned list holds the
    block's temps in first-occurrence order, deduplicated.  A single
    dict stamped with the block's position replaces the per-block sets
    the old implementation built (and threw away) for every block.
    """
    ue: dict[str, list[Temp]] = {}
    kill: dict[str, list[Temp]] = {}
    state: dict[Temp, tuple[int, int]] = {}
    for gen, block in enumerate(fn.blocks):
        exposed: list[Temp] = []
        defined: list[Temp] = []
        for instr in block.instrs:
            for reg in instr.uses:
                if isinstance(reg, Temp):
                    entry = state.get(reg)
                    if entry is None or entry[0] != gen:
                        state[reg] = (gen, _SEEN)
                        exposed.append(reg)
            for reg in instr.defs:
                if isinstance(reg, Temp):
                    entry = state.get(reg)
                    if entry is None or entry[0] != gen:
                        state[reg] = (gen, _SEEN | _KILLED)
                        defined.append(reg)
                    elif not entry[1] & _KILLED:
                        state[reg] = (gen, entry[1] | _KILLED)
                        defined.append(reg)
        ue[block.label] = exposed
        kill[block.label] = defined
    return ue, kill


def compute_liveness(fn: Function, cfg: CFG | None = None) -> LivenessInfo:
    """Solve backward liveness over the global temporaries of ``fn``."""
    cfg = cfg or CFG.build(fn)
    ue, kill = _block_local_sets(fn)
    temps = {t.id: t for exposed in ue.values() for t in exposed}
    global_mask = _mask_of(temps.values())
    gen = {label: _mask_of(exposed) for label, exposed in ue.items()}
    kill_masks = {label: _mask_of(defined) & global_mask
                  for label, defined in kill.items()}
    result = solve(DataflowProblem(cfg, gen, kill_masks))
    return LivenessInfo(temps, global_mask, result.in_, result.out,
                        result.iterations)


def _mask_of(temps: Iterable[Temp]) -> int:
    mask = 0
    for t in temps:
        mask |= 1 << t.id
    return mask
