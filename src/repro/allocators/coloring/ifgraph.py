"""Interference graphs over one register class.

Nodes are physical registers (precolored) and temporaries.  The adjacency
relation is stored two ways, following George & Appel: a constant-time
membership structure (the paper's Section 3 uses "a lower-triangular bit
matrix, rather than a hash table, to record the adjacency relation";
here per-node int bitmasks play that role) and adjacency lists for the
non-precolored nodes.  Precolored nodes have effectively infinite degree
and carry no adjacency lists.
"""

from __future__ import annotations

from repro.ir.temp import PhysReg, Temp

#: A node of the interference graph.
Node = Temp | PhysReg


class IndexGraph:
    """Index-space interference adjacency for one coloring round.

    The sparse-sweep build and the worklist machinery address nodes by
    dense integer index (precolored registers first, then the round's
    candidate temporaries, in deterministic order), so every hot-path
    structure is a flat list indexed at C speed — no ``Temp`` hashing.

    The adjacency relation is stored once, as per-node int bitmasks
    (``adj_mask``); the membership test the paper's lower-triangular bit
    matrix provided is a single shift-and-test against a mask, and the
    edge count is the mask popcounts halved.  Insertion-ordered neighbour
    lists are kept for the non-precolored nodes — ascending-index bulk
    adds, so iteration order is byte-identical to the mask-based oracle
    build kept with the tests.

    A precolored register's index is its hardware index (``precolored``
    is the whole register file in index order); a temporary's is found
    by ``Temp.id`` in ``temp_index``, so no lookup hashes a register.

    Attributes:
        nodes: All nodes, precolored registers first.
        temp_index: ``Temp.id`` -> dense index, for the temporaries (the
            boundary translation table).
        n / n_pre: Total node count and the precolored prefix length.
        adj_mask: Per index, the neighbour set as an int bitmask.
        adj_list: Per index, neighbours in insertion order (precolored
            rows stay empty — they have no meaningful adjacency lists).
        degree: Current degree per index (precolored: a huge constant).
    """

    #: Effectively-infinite degree for precolored nodes.
    INFINITE = 1 << 30

    __slots__ = ("nodes", "temp_index", "n", "n_pre", "adj_mask", "adj_list",
                 "degree")

    def __init__(self, precolored: list[PhysReg], temps: list[Temp]):
        self.nodes: list[Node] = [*precolored, *temps]
        self.n = len(self.nodes)
        self.n_pre = len(precolored)
        self.temp_index: dict[int, int] = {
            t.id: i for i, t in enumerate(temps, self.n_pre)}
        self.adj_mask: list[int] = [0] * self.n
        self.adj_list: list[list[int]] = [[] for _ in range(self.n)]
        self.degree: list[int] = ([self.INFINITE] * self.n_pre
                                  + [0] * (self.n - self.n_pre))

    def add_edge(self, i: int, j: int) -> None:
        """Record interference between indices ``i`` and ``j`` (idempotent)."""
        if i == j or (self.adj_mask[i] >> j) & 1:
            return
        self.adj_mask[i] |= 1 << j
        self.adj_mask[j] |= 1 << i
        n_pre = self.n_pre
        if i >= n_pre:
            self.adj_list[i].append(j)
            self.degree[i] += 1
        if j >= n_pre:
            self.adj_list[j].append(i)
            self.degree[j] += 1

    def add_edges_from_mask(self, di: int, live_mask: int) -> None:
        """``add_edge(i, di)`` for every bit ``i`` of ``live_mask``.

        Already-adjacent nodes (and ``di`` itself) are masked out in one
        int operation; the loop body runs only for *new* neighbours, in
        ascending index order.
        """
        new = live_mask & ~self.adj_mask[di] & ~(1 << di)
        if not new:
            return
        n_pre = self.n_pre
        adj_mask = self.adj_mask
        adj_list = self.adj_list
        degree = self.degree
        d_bit = 1 << di
        d_list = adj_list[di] if di >= n_pre else None
        remaining = new
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            li = low.bit_length() - 1
            adj_mask[li] |= d_bit
            if li >= n_pre:
                adj_list[li].append(di)
                degree[li] += 1
            if d_list is not None:
                d_list.append(li)
        adj_mask[di] |= new
        if d_list is not None:
            degree[di] += new.bit_count()

    def interferes(self, i: int, j: int) -> bool:
        """Constant-time adjacency test (one shift against the mask)."""
        return (self.adj_mask[i] >> j) & 1 != 0

    def edge_count(self) -> int:
        """Distinct interference edges (Table 3's 'interference graph
        edges' column); every edge sets a bit in both endpoint masks."""
        return sum(m.bit_count() for m in self.adj_mask) // 2
