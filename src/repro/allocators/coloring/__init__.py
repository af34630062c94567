"""Graph-coloring register allocation (George & Appel, TOPLAS 1996).

The paper's comparison allocator: iterated register coalescing in the
Chaitin–Briggs style, with coalescing folded into the coloring loop.  The
implementation follows the published worklist algorithm, including both
departures the paper lists for its own implementation (Section 3): the
adjacency relation lives in a bit matrix (per-node bitmasks) rather than
a hash table, and liveness is computed once, before allocation, with
block-local temporaries excluded from the bit vectors.
"""

from repro.allocators.coloring.george_appel import GraphColoring
from repro.allocators.coloring.ifgraph import IndexGraph
from repro.allocators.coloring.orderedset import OrderedSet
from repro.allocators.coloring.sweep import build_interference

__all__ = [
    "GraphColoring",
    "IndexGraph",
    "OrderedSet",
    "build_interference",
]
