"""CFG construction, traversal orders, edge splitting, dominators, loops."""

import networkx as nx
import pytest

from repro.cfg.cfg import CFG, split_edge
from repro.cfg.dominators import DominatorTree
from repro.cfg.loops import LoopInfo
from repro.cfg.order import reorder_reverse_postorder
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instr import Instr, Op, make
from repro.ir.temp import Temp
from repro.ir.types import RegClass
from repro.ir.validate import validate_function

G = RegClass.GPR


def build_fn(edges: dict[str, list[str]], entry: str = "a") -> Function:
    """A function whose control flow matches ``edges`` (0/1/2 successors)."""
    fn = Function("f")
    order = [entry] + [label for label in edges if label != entry]
    cond = Temp(G, 0)
    for label in order:
        succs = edges[label]
        block = BasicBlock(label)
        if not succs:
            block.append(Instr(Op.RET))
        elif len(succs) == 1:
            block.append(make(Op.JMP, targets=[succs[0]]))
        else:
            block.append(Instr(Op.BR, uses=[cond], targets=list(succs)))
        fn.add_block(block)
    return fn


def idom_chain(tree: DominatorTree, label: str) -> list[str]:
    """``label``'s dominators from itself up to the entry, read off the
    immediate-dominator map."""
    chain = [label]
    while tree.idom.get(chain[-1], chain[-1]) != chain[-1]:
        chain.append(tree.idom[chain[-1]])
    return chain


DIAMOND = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
LOOP = {"a": ["h"], "h": ["b", "x"], "b": ["h"], "x": []}
NESTED = {"a": ["h1"], "h1": ["h2", "x"], "h2": ["b", "h1"], "b": ["h2"],
          "x": []}


class TestCFG:
    def test_diamond_adjacency(self):
        cfg = CFG.build(build_fn(DIAMOND))
        assert cfg.succs["a"] == ["b", "c"]
        assert sorted(cfg.preds["d"]) == ["b", "c"]
        assert cfg.entry == "a"

    def test_parallel_edges_collapse(self):
        fn = build_fn({"a": ["b", "b"], "b": []})
        cfg = CFG.build(fn)
        assert cfg.succs["a"] == ["b"]
        assert cfg.preds["b"] == ["a"]

    def test_edges_enumeration(self):
        cfg = CFG.build(build_fn(DIAMOND))
        assert set(cfg.edges()) == {("a", "b"), ("a", "c"), ("b", "d"),
                                    ("c", "d")}

    def test_critical_edge_detection(self):
        # a->d is critical: a has 2 succs, d has 2 preds.  b->d is not,
        # since b has one succ.  Resolution reads these degrees.
        edges = {"a": ["b", "d"], "b": ["d"], "d": []}
        cfg = CFG.build(build_fn(edges))
        assert cfg.out_degree("a") == 2 and cfg.in_degree("d") == 2
        assert cfg.out_degree("b") == 1

    def test_reachable_excludes_orphans(self):
        edges = {"a": ["b"], "b": [], "orphan": ["b"]}
        cfg = CFG.build(build_fn(edges))
        assert cfg.reachable() == {"a", "b"}

    def test_reverse_postorder_is_topological_on_dag(self):
        cfg = CFG.build(build_fn(DIAMOND))
        rpo = cfg.reverse_postorder()
        assert rpo[0] == "a"
        assert rpo.index("b") < rpo.index("d")
        assert rpo.index("c") < rpo.index("d")

    def test_postorder_visits_entry_last(self):
        cfg = CFG.build(build_fn(LOOP))
        assert cfg.postorder()[-1] == "a"


class TestSplitEdge:
    def test_split_rewires_terminator_and_maps(self):
        fn = build_fn({"a": ["b", "d"], "b": ["d"], "d": []})
        cfg = CFG.build(fn)
        new = split_edge(fn, cfg, "a", "d")
        validate_function(fn)
        assert fn.block("a").terminator.targets == ["b", new.label]
        assert cfg.succs["a"] == ["b", new.label]
        assert cfg.preds["d"] == [new.label, "b"] or set(cfg.preds["d"]) == {new.label, "b"}
        assert cfg.succs[new.label] == ["d"]
        # The new block holds only a jump, so code can go before it.
        assert new.terminator.op is Op.JMP

    def test_split_preserves_execution_paths(self):
        fn = build_fn(DIAMOND)
        cfg = CFG.build(fn)
        split_edge(fn, cfg, "a", "c")
        rebuilt = CFG.build(fn)
        assert "c" in {s for s in rebuilt.reachable()}


class TestDominators:
    @pytest.mark.parametrize("edges", [DIAMOND, LOOP, NESTED])
    def test_matches_networkx(self, edges):
        cfg = CFG.build(build_fn(edges))
        tree = DominatorTree.build(cfg)
        graph = nx.DiGraph()
        graph.add_nodes_from(edges)
        for src, dsts in edges.items():
            for dst in dsts:
                graph.add_edge(src, dst)
        expected = nx.immediate_dominators(graph, "a")
        for node in cfg.reachable():
            # (some networkx versions omit the start node from the map)
            assert tree.idom.get(node, node) == expected.get(node, node), node

    def test_dominates_is_reflexive_and_entry_dominates_all(self):
        cfg = CFG.build(build_fn(NESTED))
        tree = DominatorTree.build(cfg)
        for node in cfg.reachable():
            assert tree.dominates(node, node)
            assert tree.dominates("a", node)

    @pytest.mark.parametrize("edges", [DIAMOND, LOOP, NESTED])
    def test_dominates_agrees_with_the_idom_chain(self, edges):
        cfg = CFG.build(build_fn(edges))
        tree = DominatorTree.build(cfg)
        for a in cfg.reachable():
            for b in cfg.reachable():
                assert tree.dominates(a, b) == (a in idom_chain(tree, b))

    def test_forward_edge_query_never_reads_idom(self):
        """Loop detection asks ``dominates(head, tail)`` of every edge; on
        a forward edge the RPO order alone must answer, or a chain of
        blocks costs quadratic time."""
        cfg = CFG.build(build_fn(NESTED))
        tree = DominatorTree.build(cfg)

        class Unreadable(dict):
            def __getitem__(self, key):
                raise AssertionError(f"idom read for {key!r}")

            def get(self, key, default=None):
                raise AssertionError(f"idom read for {key!r}")

        guarded = DominatorTree(Unreadable(tree.idom), tree.entry,
                                tree._rpo_index)
        rpo = tree._rpo_index
        forward = [(tail, head) for tail, head in cfg.edges()
                   if rpo[head] > rpo[tail]]
        assert forward
        for tail, head in forward:
            assert not guarded.dominates(head, tail)

    def test_dominators_of_chain(self):
        cfg = CFG.build(build_fn(NESTED))
        tree = DominatorTree.build(cfg)
        assert idom_chain(tree, "b") == ["b", "h2", "h1", "a"]


class TestLoops:
    def test_single_loop_body_and_depth(self):
        info = LoopInfo.build(CFG.build(build_fn(LOOP)))
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header == "h"
        assert loop.body == {"h", "b"}
        assert info.depth_of("b") == 1
        assert info.depth_of("x") == 0
        assert info.depth_of("a") == 0

    def test_nested_loops_have_additive_depth(self):
        info = LoopInfo.build(CFG.build(build_fn(NESTED)))
        assert info.depth_of("b") == 2
        assert info.depth_of("h2") == 2
        assert info.depth_of("h1") == 1
        assert info.depth_of("x") == 0

    def test_acyclic_graph_has_no_loops(self):
        info = LoopInfo.build(CFG.build(build_fn(DIAMOND)))
        assert info.loops == []
        assert all(d == 0 for d in info.depth.values())

    def test_contains(self):
        info = LoopInfo.build(CFG.build(build_fn(LOOP)))
        assert "b" in info.loops[0]
        assert "x" not in info.loops[0]


class TestReorder:
    def test_rpo_reorder_keeps_entry_and_all_blocks(self):
        fn = build_fn({"a": ["c"], "c": ["b"], "b": [], "orphan": []})
        reorder_reverse_postorder(fn)
        labels = [b.label for b in fn.blocks]
        assert labels[0] == "a"
        assert set(labels) == {"a", "b", "c", "orphan"}
        assert labels.index("c") < labels.index("b")
        assert labels[-1] == "orphan"  # unreachables last
