"""Figure 1: lifetimes and lifetime holes over a linearized CFG.

Usage::

    python examples/figure1_lifetime_holes.py

Reconstructs the paper's Figure 1 — a four-block diamond whose
temporaries exhibit holes once the blocks are laid out linearly — and
renders an ASCII timeline: ``#`` marks live points, ``.`` marks lifetime
holes, and space means outside the lifetime entirely.  The point the
figure makes: "a block boundary can cause a hole to begin or end in the
linear view of the program", and a temporary like T3 fits entirely inside
another's hole, so both can share one register.
"""

from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.types import RegClass
from repro.lifetimes.intervals import compute_lifetimes
from repro.target import alpha

G = RegClass.GPR


def build_figure1() -> Function:
    """The Figure 1 CFG: B1 -> {B2, B3} -> B4 with T1..T4's reference
    pattern from the paper."""
    fn = Function("figure1")
    b = FunctionBuilder(fn)
    b.new_block("B1")
    t1, t2, t3, t4 = (b.temp(G, f"T{i}") for i in (1, 2, 3, 4))
    b.li(1, dst=t1)          # (setup so T1 has a value)
    b.li(2, dst=t2)          # T2 <- ..
    b.print_(t1)             # .. <- T1
    b.li(4, dst=t4)          # T4 <- ..
    b.br(t2, "B2", "B3")
    b.new_block("B2")
    b.mov(t2, dst=t3)        # T3 <- T2
    b.print_(t3)             # .. <- T3
    b.li(1, dst=t1)          # T1 <- ..
    b.li(5, dst=t4)          # T4 <- ..
    b.jmp("B4")
    b.new_block("B3")
    b.print_(t1)             # .. <- T1
    b.print_(t4)             # .. <- T4
    b.li(6, dst=t4)          # T4 <- ..
    b.jmp("B4")
    b.new_block("B4")
    b.print_(t1)             # .. <- T1
    b.print_(t4)             # .. <- T4
    b.ret(t4)
    return fn


def main() -> None:
    fn = build_figure1()
    table = compute_lifetimes(fn, alpha())

    print("Linear block layout and point spans:")
    for block in fn.blocks:
        start, end = table.block_span[block.label]
        print(f"  {block.label}: points [{start:2d}, {end:2d})")

    width = table.max_point
    print("\nLifetime timelines ('#' live, '.' hole):")
    header = "        " + "".join(
        "|" if any(span[0] == p for span in table.block_span.values()) else " "
        for p in range(width))
    print(header)
    for temp in sorted(table.temps, key=lambda t: t.name or ""):
        lifetime = table.temps[temp]
        holes = lifetime.holes()
        cells = []
        for point in range(width):
            if lifetime.alive_at(point):
                cells.append("#")
            elif any(point in hole for hole in holes):
                cells.append(".")
            else:
                cells.append(" ")
        print(f"  {str(temp):6s}" + "".join(cells))

    print("\nHoles:")
    for temp in sorted(table.temps, key=lambda t: t.name or ""):
        holes = table.temps[temp].holes()
        rendered = ", ".join(str(h) for h in holes) or "(none)"
        print(f"  {temp}: {rendered}")

    t3 = next(t for t in table.temps if t.name == "T3")
    t1 = next(t for t in table.temps if t.name == "T1")
    t3_life = table.temps[t3]
    if any(h.start <= t3_life.start and t3_life.end <= h.end
           for h in table.temps[t1].holes()):
        print("\nT3's whole lifetime fits inside a hole of T1 -> "
              "both can share one register (the figure's point).")


if __name__ == "__main__":
    main()
