"""Figure 2: second-chance splitting and edge resolution, step by step.

Usage::

    python examples/figure2_resolution.py

Builds the paper's Figure 2 scenario — T1 is defined and used in B1,
evicted by register pressure while the scan walks B2 (which T1 merely
passes through in the linear order), and referenced again in B3 where the
second chance gives it a *different* register.  The linear scan's
assumptions then disagree across the CFG edges B1->B3 and B2->B4, and the
resolution phase patches them with stores/loads/moves, exactly as the
figure annotates.

The example prints the code before and after allocation with the
allocator-inserted instructions tagged (``!evict`` / ``!resolve``), plus
the per-edge traffic resolution generated.
"""

from repro.allocators import SecondChanceBinpacking
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instr import SpillPhase
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.ir.types import RegClass
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.target import tiny

G = RegClass.GPR


def build_figure2() -> Module:
    module = Module()
    fn = Function("main")
    b = FunctionBuilder(fn)
    b.new_block("B1")
    t1 = b.temp(G, "T1")
    b.li(11, dst=t1)        # i1: T1 <- ..
    b.print_(t1)            # i2: .. <- T1
    b.br(b.li(1), "B2", "B3")
    b.new_block("B2")
    # Enough short lifetimes to crowd T1 out of the register file while
    # the scan passes through B2 (T1 is not referenced here).
    vals = [b.li(i) for i in range(4)]
    acc = b.li(0)
    for v in vals:
        acc = b.add(acc, v)
    b.print_(acc)
    b.jmp("B4")
    b.new_block("B3")
    b.print_(t1)            # i3: .. <- T1  (second chance: a new register)
    b.li(99, dst=t1)        # i4: T1 <- ..
    b.print_(t1)
    b.jmp("B4")
    b.new_block("B4")
    b.ret()
    module.add_function(fn)
    return module


def main() -> None:
    from repro.allocators.binpack.allocator import BinpackOptions

    machine = tiny(4, 4)  # a starved machine, like the figure's 2 registers
    module = build_figure2()

    print("=== before allocation ===")
    print(print_function(module.functions["main"]))
    reference = simulate(module, machine)

    # Figure 2 opens with "assume that none of the temporaries contain
    # lifetime holes" — so first run with hole packing disabled, which
    # reproduces the figure's events literally.
    print("\n=== allocation WITHOUT lifetime holes (the figure's premise) ===")
    no_holes = CompilationSession(module, machine).run(
        SecondChanceBinpacking(BinpackOptions(use_holes=False)))
    for block in no_holes.module.functions["main"].blocks:
        for instr in block.instrs:
            if instr.spill_phase in (SpillPhase.EVICT, SpillPhase.RESOLVE):
                print(f"  {block.label}: {instr}")
    outcome = simulate(no_holes.module, machine)
    assert outcome.output == reference.output
    print("  -> T1 is spilled while the scan sweeps B2 (the figure's i5), "
          "reloaded at its B3 use under a second chance (i6), and the "
          "resolution phase adds the store on the B1->B3 path (i7).")

    # With holes enabled (the full algorithm), T1's value is dead through
    # B2 in the linear order — a block-boundary hole — so the allocator
    # parks other temporaries in T1's register and needs no spill at all.
    print("\n=== allocation WITH lifetime holes (the full algorithm) ===")
    full = CompilationSession(module, machine).run(SecondChanceBinpacking())
    spills = [(block.label, instr)
              for block in full.module.functions["main"].blocks
              for instr in block.instrs
              if instr.spill_phase in (SpillPhase.EVICT, SpillPhase.RESOLVE)
              and "T1" not in str(instr)]
    outcome_full = simulate(full.module, machine)
    assert outcome_full.output == reference.output
    print(f"  allocator-inserted instructions: "
          f"{sum(1 for _ in spills)} (none touch T1: its hole over B2 "
          f"lets B2's temporaries share the register)")

    print("\n=== behaviour check ===")
    print(f"output before: {reference.output}")
    print(f"output (no holes): {outcome.output}")
    print(f"output (full):     {outcome_full.output}")


if __name__ == "__main__":
    main()
