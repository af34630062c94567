"""Iterated register coalescing (George & Appel), the comparison allocator.

This follows the published worklist algorithm — Simplify / Coalesce /
Freeze / SelectSpill driving nodes onto the select stack, Briggs
conservative coalescing between temporaries and the George test against
precolored registers, optimistic color assignment, and a spill-and-
iterate outer loop ("if the heuristic fails, some register candidates are
spilled to memory, spill code is inserted for their occurrences, and the
whole process repeats", Section 1).

Per the paper's Section 3:

* the two register files are colored **separately** ("our graph-coloring
  allocator deals separately with general-purpose registers and
  floating-point registers");
* adjacency lives in per-node bitmasks
  (:class:`~repro.allocators.coloring.ifgraph.IndexGraph`), the moral
  equivalent of the paper's lower-triangular bit matrix;
* liveness is computed **once**, before allocation; each build round
  filters the per-block live-out masks down to temporaries still present
  in the code, which is sound because spill code only introduces
  block-local temporaries ("global liveness information is not affected
  by such temporaries");
* loop depth weights the spill costs exactly as it weights the
  binpacking allocator's eviction priority.

Everything inside one coloring round runs in **index space**: nodes are
dense integers (precolored registers first, then this round's candidate
temporaries), so worklist flags are ``bytearray`` lookups, aliases and
degrees are flat lists, and the live set / adjacency / forbidden-color
sets are int bitmasks.  ``Temp`` objects appear only at the round's
boundaries (collecting candidates, rewriting spills, applying colors),
and even there they are found by ``Temp.id`` in int-keyed tables — no
loop hashes a register.

The interference build is the sparse interval-sweep kernel
(:mod:`~repro.allocators.coloring.sweep`).  SelectSpill pops a lazily
invalidated heap instead of scanning the spill worklist, and Select
tests a node's adjacency mask against one member mask per color instead
of resolving each neighbour's alias.  The differential tests swap in the
retained per-instruction build, the scanning SelectSpill and the
neighbour-walking Select from ``tests/oracles/``.

Worklists are backed by insertion-ordered dicts so the allocator is
deterministic run to run.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from repro.allocators.base import (
    AllocationError,
    AllocationStats,
    RegisterAllocator,
    SharedAnalyses,
)
from repro.allocators.coloring.ifgraph import IndexGraph
from repro.allocators.coloring.orderedset import OrderedSet
from repro.allocators.coloring.sweep import build_interference
from repro.ir.function import Function
from repro.ir.instr import Instr, SpillPhase
from repro.ir.temp import Temp
from repro.ir.types import RegClass
from repro.obs.trace import EventKind
from repro.spill.emitter import SpillCodeEmitter
from repro.target.machine import MachineDescription


class _ClassColoring:
    """One register class of one function, across all coloring rounds."""

    #: Spill-generated temporaries get their occurrence cost multiplied by
    #: this factor so SelectSpill avoids re-spilling them (they are point
    #: lifetimes with tiny degree, so this never blocks termination).
    SPILL_TEMP_COST_FACTOR = 1e9

    def __init__(self, fn: Function, machine: MachineDescription,
                 shared: SharedAnalyses, regclass: RegClass,
                 emitter: SpillCodeEmitter, stats: AllocationStats):
        self.fn = fn
        self.machine = machine
        self.shared = shared
        self.regclass = regclass
        self.emitter = emitter
        self.stats = stats
        self.precolored_regs = list(machine.regs(regclass))
        self.n_pre = len(self.precolored_regs)
        # Color preference: caller-saved first; a temporary that can live
        # in a caller-saved register should, so the callee-save prologue
        # stays small.  Stress contexts may reorder or shrink the list
        # (the precolored node space always stays the full file).
        self.color_order = list(
            emitter.register_order(regclass, prefer_caller_saved=True))
        # k is the number of *assignable* colors.  Equal to the file size
        # by construction in the default context; smaller under
        # reduced-regs stress (which is what keeps the spill-and-iterate
        # loop terminating there).
        self.k = len(self.color_order)
        # The precolored prefix of the node space is identical every
        # round, so the index-space views of the calling convention are
        # computed once here.
        pre_index = {r: i for i, r in enumerate(self.precolored_regs)}
        self.color_order_ix = tuple(pre_index[r] for r in self.color_order)
        self.caller_saved_ix = tuple(
            pre_index[r] for r in machine.caller_saved(regclass))
        self.caller_saved_mask = 0
        for i in self.caller_saved_ix:
            self.caller_saved_mask |= 1 << i
        #: Ids of the temporaries spill rewriting introduced.
        self.spill_generated: set[int] = set()
        self.rounds = 0
        self.total_edges = 0

    # ------------------------------------------------------------------
    # Outer loop.
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Color until no node spills, then rewrite temps to registers."""
        forced = {t.id for t in self.emitter.forced_memory(
                      t for instr in self.fn.instructions()
                      for t in instr.temps())
                  if t.regclass is self.regclass}
        if forced:
            # Forced-evict stress: pre-spill a seeded sample before the
            # first build round, as if round 0 had failed to color them.
            self._rewrite_spills(forced)
        while True:
            self.rounds += 1
            self._init_round()
            build_interference(self)
            self.total_edges += self.graph.edge_count()
            self._make_worklists()
            self._drain_worklists()
            self._assign_colors()
            if not self.spilled_nodes:
                break
            nodes = self.graph.nodes
            self._rewrite_spills({nodes[i].id for i in self.spilled_nodes})
        self._apply_colors()

    def _init_round(self) -> None:
        # Candidates are the temporaries that *occur in the code* this
        # round — not fn.all_temps(), which also lists parameters whose
        # occurrences a previous round's spill rewriting replaced (such a
        # ghost would re-seed the live sets and spill forever).  They are
        # numbered in order of first occurrence (defs before uses), which
        # breaks ties in the worklists.
        regclass = self.regclass
        present: dict[int, Temp] = {}
        for instr in self.fn.instructions():
            for operands in (instr.defs, instr.uses):
                for r in operands:
                    if r.regclass is regclass and isinstance(r, Temp):
                        present.setdefault(r.id, r)
        self.initial: list[Temp] = list(present.values())
        self.graph = IndexGraph(self.precolored_regs, self.initial)
        n = self.graph.n
        self.is_spill_temp = bytearray(n)
        if self.spill_generated:
            spill_generated = self.spill_generated
            for temp_id, i in self.graph.temp_index.items():
                if temp_id in spill_generated:
                    self.is_spill_temp[i] = 1
        self.simplify_wl = OrderedSet()
        self.freeze_wl = OrderedSet()
        self.spill_wl = OrderedSet()
        #: SelectSpill's lazily invalidated heap of ``(metric, seq,
        #: node)`` entries; ``spill_seq[n]`` is ``n``'s insertion
        #: position in ``spill_wl`` (see :meth:`_select_spill`).
        self.spill_heap: list[tuple[float, int, int]] = []
        self.spill_seq: list[int] = [0] * n
        self.spill_count = 0
        self.spilled_nodes = OrderedSet()
        self.coalesced = bytearray(n)
        self.colored = bytearray(n)
        self.on_stack = bytearray(n)
        self.select_stack: list[int] = []
        self.coalesced_moves = OrderedSet()
        self.constrained_moves = OrderedSet()
        self.frozen_moves = OrderedSet()
        self.worklist_moves = OrderedSet()
        self.active_moves = OrderedSet()
        #: Move ``m`` is ``moves[m] = (instr, def index, use index)``; the
        #: move worklists hold these dense ids, not instruction objects.
        self.moves: list[tuple[Instr, int, int]] = []
        self.move_list: dict[int, OrderedSet] = {}
        self.alias: list[int] = list(range(n))
        # ``color[i]`` is a *node index* into the precolored prefix; a
        # precolored node is its own color, so the identity prefix stands
        # in for the old ``{r: r}`` seeding.
        self.color: list[int] = list(range(self.n_pre)) + [0] * (n - self.n_pre)
        self.cost: list[float] = [0.0] * n

    def _make_worklists(self) -> None:
        degree = self.graph.degree
        k = self.k
        for i in range(self.n_pre, self.graph.n):
            if degree[i] >= k:
                self._spill_push(i)
            elif self._move_related(i):
                self.freeze_wl.add(i)
            else:
                self.simplify_wl.add(i)

    # ------------------------------------------------------------------
    # Worklist machinery (Appel's pseudocode, names kept recognizable).
    # ------------------------------------------------------------------
    def _drain_worklists(self) -> None:
        """Push every candidate onto the select stack (Appel's main loop)."""
        while (self.simplify_wl or self.worklist_moves
               or self.freeze_wl or self.spill_wl):
            if self.simplify_wl:
                self._simplify()
            elif self.worklist_moves:
                self._coalesce()
            elif self.freeze_wl:
                self._freeze()
            else:
                self._select_spill()

    def _adjacent(self, n: int) -> list[int]:
        on_stack = self.on_stack
        coalesced = self.coalesced
        return [m for m in self.graph.adj_list[n]
                if not on_stack[m] and not coalesced[m]]

    def _node_moves(self, n: int) -> list[int]:
        moves = self.move_list.get(n)
        if not moves:
            return []
        active = self.active_moves
        worklist = self.worklist_moves
        return [m for m in moves if m in active or m in worklist]

    def _move_related(self, n: int) -> bool:
        moves = self.move_list.get(n)
        if not moves:
            return False
        active = self.active_moves
        worklist = self.worklist_moves
        for m in moves:
            if m in active or m in worklist:
                return True
        return False

    def _simplify(self) -> None:
        n = self.simplify_wl.pop_first()
        self.select_stack.append(n)
        self.on_stack[n] = 1
        # _adjacent + _decrement_degree, inlined: this loop runs once per
        # (node, neighbour) pair of the whole graph, and only the rare
        # k-crossing case needs the slow path.
        on_stack = self.on_stack
        coalesced = self.coalesced
        degree = self.graph.degree
        k = self.k
        n_pre = self.n_pre
        for m in self.graph.adj_list[n]:
            if on_stack[m] or coalesced[m]:
                continue
            d = degree[m]
            degree[m] = d - 1
            if d == k and m >= n_pre:
                self._enable_moves([m, *self._adjacent(m)])
                self.spill_wl.discard(m)
                if self._move_related(m):
                    self.freeze_wl.add(m)
                else:
                    self.simplify_wl.add(m)

    def _decrement_degree(self, m: int) -> None:
        degree = self.graph.degree
        d = degree[m]
        degree[m] = d - 1
        if d == self.k and m >= self.n_pre:
            self._enable_moves([m, *self._adjacent(m)])
            self.spill_wl.discard(m)
            if self._move_related(m):
                self.freeze_wl.add(m)
            else:
                self.simplify_wl.add(m)

    def _enable_moves(self, nodes: Iterable[int]) -> None:
        # Of _node_moves' two sources only active moves matter here (a
        # worklist move is already enabled), so filter directly.
        active = self.active_moves
        worklist = self.worklist_moves
        move_list = self.move_list
        for n in nodes:
            moves = move_list.get(n)
            if not moves:
                continue
            for m in moves:
                if m in active:
                    active.discard(m)
                    worklist.add(m)

    def _coalesce(self) -> None:
        m = self.worklist_moves.pop_first()
        _, def_ix, use_ix = self.moves[m]
        x = self._get_alias(def_ix)
        y = self._get_alias(use_ix)
        n_pre = self.n_pre
        if y < n_pre:
            u, v = y, x
        else:
            u, v = x, y
        if u == v:
            self.coalesced_moves.add(m)
            self._add_work_list(u)
        elif v < n_pre or self.graph.interferes(u, v):
            self.constrained_moves.add(m)
            self._add_work_list(u)
            self._add_work_list(v)
        elif ((u < n_pre
               and all(self._george_ok(t, u) for t in self._adjacent(v)))
              or (u >= n_pre
                  and self._briggs_conservative(
                      {*self._adjacent(u), *self._adjacent(v)}))):
            self.coalesced_moves.add(m)
            self._combine(u, v)
            self._add_work_list(u)
        else:
            self.active_moves.add(m)

    def _add_work_list(self, u: int) -> None:
        if (u >= self.n_pre and not self._move_related(u)
                and self.graph.degree[u] < self.k):
            self.freeze_wl.discard(u)
            self.simplify_wl.add(u)

    def _george_ok(self, t: int, r: int) -> bool:
        return (self.graph.degree[t] < self.k or t < self.n_pre
                or self.graph.interferes(t, r))

    def _briggs_conservative(self, nodes: set[int]) -> bool:
        k = self.k
        degree = self.graph.degree
        significant = sum(1 for n in nodes if degree[n] >= k)
        return significant < k

    def _get_alias(self, n: int) -> int:
        coalesced = self.coalesced
        alias = self.alias
        while coalesced[n]:
            n = alias[n]
        return n

    def _combine(self, u: int, v: int) -> None:
        if v in self.freeze_wl:
            self.freeze_wl.discard(v)
        else:
            self.spill_wl.discard(v)
        self.coalesced[v] = 1
        self.alias[v] = u
        u_moves = self.move_list.setdefault(u, OrderedSet())
        v_moves = self.move_list.get(v)
        if v_moves:
            for mv in v_moves:
                u_moves.add(mv)
        self._enable_moves([v])
        for t in self._adjacent(v):
            self.graph.add_edge(t, u)
            self._decrement_degree(t)
        if self.graph.degree[u] >= self.k and u in self.freeze_wl:
            self.freeze_wl.discard(u)
            self._spill_push(u)
        elif u in self.spill_wl:
            # The one place a degree rises: u's metric may have fallen
            # below the keys of its heap entries.
            self._spill_push(u)

    def _freeze(self) -> None:
        u = self.freeze_wl.pop_first()
        self.simplify_wl.add(u)
        self._freeze_moves(u)

    def _freeze_moves(self, u: int) -> None:
        for m in self._node_moves(u):
            _, x, y = self.moves[m]
            if self._get_alias(y) == self._get_alias(u):
                v = self._get_alias(x)
            else:
                v = self._get_alias(y)
            self.active_moves.discard(m)
            self.frozen_moves.add(m)
            if (v >= self.n_pre and not self._node_moves(v)
                    and self.graph.degree[v] < self.k):
                self.freeze_wl.discard(v)
                self.simplify_wl.add(v)

    def _spill_metric(self, t: int) -> float:
        c = self.cost[t]
        if self.is_spill_temp[t]:
            c *= self.SPILL_TEMP_COST_FACTOR
        return c / max(self.graph.degree[t], 1)

    def _spill_push(self, t: int) -> None:
        """Add ``t`` to ``spill_wl`` if absent; push its current entry."""
        if t not in self.spill_wl:
            self.spill_wl.add(t)
            self.spill_seq[t] = self.spill_count
            self.spill_count += 1
        heappush(self.spill_heap,
                 (self._spill_metric(t), self.spill_seq[t], t))

    def _select_spill(self) -> None:
        """Move the cheapest spill candidate to the simplify worklist.

        The candidate is the first node of ``spill_wl``, in insertion
        order, with the least ``cost / max(degree, 1)``.  The heap holds
        for every member an entry whose key is at most its current metric
        and whose seq is its current insertion position.  Costs are fixed
        within a round and degrees only fall outside ``_combine``, so a
        metric only rises; ``_combine`` pushes a fresh entry for the one
        node whose degree rises.  An entry is stale when its node has left
        ``spill_wl`` or re-entered it since (the seq differs); one whose
        key is below the node's metric is pushed again with the metric.
        The first entry whose key is current is then the least
        ``(metric, seq)`` over all members.
        """
        heap = self.spill_heap
        spill_wl = self.spill_wl
        spill_seq = self.spill_seq
        while True:
            key, seq, m = heappop(heap)
            if m not in spill_wl or spill_seq[m] != seq:
                continue
            metric = self._spill_metric(m)
            if key == metric:
                break
            heappush(heap, (metric, seq, m))
        spill_wl.discard(m)
        self.simplify_wl.add(m)
        self._freeze_moves(m)

    # ------------------------------------------------------------------
    # Color assignment and spill rewriting.
    # ------------------------------------------------------------------
    def _assign_colors(self) -> None:
        """Pop the select stack, giving each node its first free color.

        ``members[c]`` is the mask of every node whose alias
        representative holds color ``c``: each precolored register and
        the temporaries coalesced into it from the start, and a
        representative's whole alias group once it is colored.  Color
        ``c`` is free for ``n`` when ``adj_mask[n] & members[c]`` is 0,
        so no neighbour is resolved one by one.
        """
        graph = self.graph
        nodes = graph.nodes
        adj_mask = graph.adj_mask
        alias = self.alias
        coalesced = self.coalesced
        colored = self.colored
        on_stack = self.on_stack
        color = self.color
        color_order_ix = self.color_order_ix
        n_pre = self.n_pre
        rounds = self.rounds
        tr = self.stats.trace
        # Aliases are final once the worklists drain; ``group[r]`` is the
        # mask of the nodes coalesced into representative ``r``.
        group: dict[int, int] = {}
        for i in range(n_pre, graph.n):
            if coalesced[i]:
                j = alias[i]
                while coalesced[j]:
                    j = alias[j]
                group[j] = group.get(j, 0) | 1 << i
        members = [1 << c | group.get(c, 0) for c in range(n_pre)]
        while self.select_stack:
            n = self.select_stack.pop()
            on_stack[n] = 0
            adj = adj_mask[n]
            chosen = -1
            for c in color_order_ix:
                if not adj & members[c]:
                    chosen = c
                    break
            if chosen < 0:
                self.spilled_nodes.add(n)
                if tr.enabled:
                    tr.emit(EventKind.EVICT, temp=nodes[n],
                            detail=f"no color (round {rounds})")
            else:
                colored[n] = 1
                color[n] = chosen
                members[chosen] |= 1 << n | group.get(n, 0)
                if tr.enabled:
                    tr.emit(EventKind.ASSIGN, temp=nodes[n], reg=nodes[chosen],
                            detail=f"color (round {rounds})")

    def _rewrite_spills(self, spilled: set[int]) -> None:
        """Give each occurrence of a temporary whose id is in ``spilled``
        a fresh temporary, reloaded before a use and stored after a def."""
        tr = self.stats.trace
        for block in self.fn.blocks:
            if tr.enabled:
                tr.set_location(block=block.label)
            rewritten: list[Instr] = []
            for instr in block.instrs:
                pre: list[Instr] = []
                post: list[Instr] = []
                fresh: dict[Temp, Temp] = {}
                for i, use in enumerate(instr.uses):
                    if isinstance(use, Temp) and use.id in spilled:
                        t = fresh.get(use)
                        if t is None:
                            t = self.fn.new_temp(self.regclass)
                            fresh[use] = t
                            self.spill_generated.add(t.id)
                            pre.append(self.emitter.reload(
                                use, t, SpillPhase.EVICT))
                            if tr.enabled:
                                tr.emit(EventKind.SECOND_CHANCE_RELOAD,
                                        temp=use,
                                        detail=f"coloring reload via {t}")
                        instr.uses[i] = t
                for i, dst in enumerate(instr.defs):
                    if isinstance(dst, Temp) and dst.id in spilled:
                        t = self.fn.new_temp(self.regclass)
                        self.spill_generated.add(t.id)
                        post.append(self.emitter.store(
                            dst, t, SpillPhase.EVICT))
                        if tr.enabled:
                            tr.emit(EventKind.SPILL_STORE_EMITTED, temp=dst,
                                    detail=f"coloring store via {t}")
                        instr.defs[i] = t
                rewritten.extend(pre)
                rewritten.append(instr)
                rewritten.extend(post)
            block.instrs = rewritten

    def _apply_colors(self) -> None:
        temp_index = self.graph.temp_index
        nodes = self.graph.nodes
        alias = self.alias
        coalesced = self.coalesced
        colored = self.colored
        color = self.color
        n_pre = self.n_pre
        for instr in self.fn.instructions():
            for operands in (instr.defs, instr.uses):
                for i, reg in enumerate(operands):
                    if isinstance(reg, Temp) and reg.regclass is self.regclass:
                        node = temp_index[reg.id]
                        while coalesced[node]:
                            node = alias[node]
                        if colored[node] or node < n_pre:
                            operands[i] = nodes[color[node]]
                        else:
                            raise AllocationError(
                                f"{self.fn.name}: no color for {reg} "
                                f"(alias {nodes[node]})")


class GraphColoring(RegisterAllocator):
    """George–Appel iterated register coalescing over both register files."""

    def __init__(self) -> None:
        self.name = "graph coloring"

    def allocate_function(self, fn: Function, machine: MachineDescription,
                          shared: SharedAnalyses, emitter: SpillCodeEmitter,
                          stats: AllocationStats) -> None:
        rounds = 0
        edges = 0
        for regclass in (RegClass.GPR, RegClass.FPR):
            coloring = _ClassColoring(fn, machine, shared, regclass, emitter,
                                      stats)
            with stats.profiler.phase(f"allocate.color.{regclass.name.lower()}"):
                coloring.run()
            rounds += coloring.rounds
            edges += coloring.total_edges
        stats.coloring_iterations[fn.name] = rounds
        stats.interference_edges[fn.name] = edges
        stats.metrics.bump("coloring.rounds", rounds)
        stats.metrics.bump("coloring.interference_edges", edges)
