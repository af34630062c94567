"""The pass-manager layer: analysis caching, invalidation, sessions.

Covers the contracts docs/ARCHITECTURE.md states:

* analyze-once — comparing all four allocators in one session computes
  each shared setup analysis at most once per function (the transfer
  path serves every run's clone);
* faithfulness — a run in a shared session produces byte-identical
  output to a run in a fresh session of its own;
* explicit invalidation — after a mutation plus ``invalidate``, stale
  cached results are never served, and the clone link is severed so
  stale results cannot arrive by transfer either;
* preserved-analyses declarations — what a pass claims to preserve
  through the ``PassManager`` really is still valid afterwards.
"""

import pytest

from repro.allocators import ALLOCATOR_FACTORIES, make_allocator
from repro.cfg.cfg import CFG
from repro.dataflow.liveness import compute_liveness
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instr import Instr, Op
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.types import RegClass
from repro.lang import compile_minic
from repro.pm import CompilationSession, DCE_PASS, PEEPHOLE_PASS
from repro.pm.analysis import (CFG_ANALYSIS, LIFETIMES_ANALYSIS,
                               LIVENESS_ANALYSIS)
from repro.target import tiny

SOURCE = """
func int helper(int x) {
  int unused = x * 7;
  return x + 2;
}

func int main() {
  int total = 0;
  for (int i = 0; i < 6; i = i + 1) {
    total = total + helper(i);
  }
  print total;
  return 0;
}
"""


def machine():
    return tiny(6, 6)


def session_over(source=SOURCE):
    m = machine()
    return CompilationSession(compile_minic(source, m), m), m


# ----------------------------------------------------------------------
# The acceptance criterion: analyze once, run many.
# ----------------------------------------------------------------------
class TestAnalyzeOnce:
    def test_four_allocators_share_one_analysis_computation(self):
        session, _ = session_over()
        for name in ALLOCATOR_FACTORIES:
            session.run(make_allocator(name))
        n_fns = len(session.module.functions)
        metrics = session.metrics
        # The DCE'd base plus four run clones — yet each shared analysis
        # was computed exactly once per function, on the base.
        for kind in ("cfg", "loops", "lifetimes"):
            assert metrics.get(f"pm.analysis.computed.{kind}") == n_fns, kind
        # Liveness additionally runs once per DCE round; the allocators
        # themselves never trigger a recomputation.
        dce_rounds = metrics.get("pm.analysis.computed.liveness")
        assert n_fns <= dce_rounds <= 3 * n_fns
        # Every run's clone was served by transfer, not recomputation.
        assert metrics.get("pm.analysis.transfers") >= 4 * 4 * n_fns
        assert metrics.get("pm.analysis.hits") > 0
        assert metrics.get("pm.analysis.invalidated") > 0

    def test_session_profiler_still_reports_setup_phase(self):
        from repro.obs import PhaseProfiler

        session, _ = session_over()
        session.run(make_allocator("second-chance"))  # warm the cache
        prof = PhaseProfiler()
        session.run(make_allocator("coloring"), profiler=prof)
        # The warm run still times its (cheap, transfer-only) setup.
        assert "setup" in prof.phases
        assert "allocate" in prof.phases


# ----------------------------------------------------------------------
# Faithfulness: session runs == standalone runs, byte for byte.
# ----------------------------------------------------------------------
class TestSessionFaithful:
    @pytest.mark.parametrize("name", list(ALLOCATOR_FACTORIES))
    def test_session_run_matches_standalone(self, name):
        session, m = session_over()
        shared = session.run(make_allocator(name), verify_dataflow=True,
                             spill_cleanup=True)
        standalone = CompilationSession(compile_minic(SOURCE, m), m).run(
            make_allocator(name), verify_dataflow=True, spill_cleanup=True)
        assert print_module(shared.module) == print_module(standalone.module)
        assert shared.dce_removed == standalone.dce_removed
        assert shared.moves_removed == standalone.moves_removed

    def test_runs_do_not_contaminate_each_other(self):
        session, _ = session_over()
        first = session.run(make_allocator("second-chance"))
        second = session.run(make_allocator("second-chance"))
        assert print_module(first.module) == print_module(second.module)
        assert first.module is not second.module

    def test_pristine_module_never_mutated(self):
        session, _ = session_over()
        before = print_module(session.module)
        session.run(make_allocator("coloring"), spill_cleanup=True)
        assert print_module(session.module) == before


# ----------------------------------------------------------------------
# Invalidation: stale results are never served.
# ----------------------------------------------------------------------
def two_block_function():
    """``entry: t0 = 1; t1 = t0 + t0; jmp exit`` / ``exit: ret`` — small
    enough that expected liveness is obvious."""
    fn = Function("f")
    t0 = fn.new_temp(RegClass.GPR)
    t1 = fn.new_temp(RegClass.GPR)
    fn.add_block(BasicBlock("entry", [
        Instr(Op.LI, defs=[t0], imm=1),
        Instr(Op.ADD, defs=[t1], uses=[t0, t0]),
        Instr(Op.JMP, targets=["exit"]),
    ]))
    fn.add_block(BasicBlock("exit", [Instr(Op.RET)]))
    return fn, t0, t1


class TestInvalidation:
    def test_mutation_plus_invalidate_recomputes(self):
        session, _ = session_over()
        am = session.analyses
        fn, t0, t1 = two_block_function()
        live = am.liveness(fn)
        assert am.liveness(fn) is live  # cache hit: same object
        assert not live.live_out_temps("entry")
        # Mutate: t1 is now read in exit, so it must be live across the
        # edge — the cached result is stale.
        fn.block("exit").instrs.insert(
            0, Instr(Op.ADD, defs=[fn.new_temp(RegClass.GPR)],
                     uses=[t1, t1]))
        am.invalidate(fn)
        fresh = am.liveness(fn)
        assert fresh is not live
        assert set(fresh.live_out_temps("entry")) == {t1}
        expected = compute_liveness(fn, CFG.build(fn))
        assert fresh.live_out_temps("entry") == expected.live_out_temps(
            "entry")

    def test_invalidate_severs_clone_link(self):
        session, _ = session_over()
        am = session.analyses
        base, _, _ = two_block_function()
        am.cfg(base)
        clone = base.clone()
        am.link_clone(base, clone)
        transfers_before = session.metrics.get("pm.analysis.transfers")
        assert am.cfg(clone).fn is clone  # served by transfer
        assert session.metrics.get("pm.analysis.transfers") \
            == transfers_before + 1
        # The clone mutates (as allocators do): a fresh block appears.
        clone.block("entry").instrs[-1].targets[0] = "mid"
        clone.insert_block(1, BasicBlock("mid", [
            Instr(Op.JMP, targets=["exit"])]))
        am.invalidate(clone)
        recomputed = am.cfg(clone)
        # Not a stale transfer of the base's two-block CFG:
        assert set(recomputed.succs) == {"entry", "mid", "exit"}
        assert session.metrics.get("pm.analysis.transfers") \
            == transfers_before + 1

    def test_linked_clone_shares_lifetimes_and_gets_its_own_cfg(self):
        session, _ = session_over()
        am = session.analyses
        base = session.module.function("main")
        clone = base.clone()
        am.link_clone(base, clone)
        # Lifetimes hold linear points, not instructions: valid as-is.
        assert am.lifetimes(clone) is am.lifetimes(base)
        # The CFG is bound to its function, and resolution's split_edge
        # mutates its adjacency lists, so the clone gets fresh ones.
        base_cfg, cfg = am.cfg(base), am.cfg(clone)
        assert cfg is not base_cfg and cfg.fn is clone
        assert cfg.succs == base_cfg.succs and cfg.preds == base_cfg.preds
        for label in cfg.succs:
            assert cfg.succs[label] is not base_cfg.succs[label]
            assert cfg.preds[label] is not base_cfg.preds[label]

    def test_invalidate_preserve_keeps_named_analyses(self):
        session, _ = session_over()
        am = session.analyses
        fn, _, _ = two_block_function()
        cfg = am.cfg(fn)
        live = am.liveness(fn)
        am.invalidate(fn, preserve=frozenset({"cfg"}))
        assert am.cfg(fn) is cfg
        assert am.liveness(fn) is not live

    def test_invalidate_rejects_unknown_analysis_names(self):
        session, _ = session_over()
        with pytest.raises(ValueError, match="unknown analyses"):
            session.analyses.invalidate(
                session.module.function("main"),
                preserve=frozenset({"not-an-analysis"}))

    def test_repeated_runs_leave_the_cache_size_constant(self):
        """A run's allocated clone loses every analysis, and its emptied
        entry goes with them: the session does not keep each run's
        clone alive."""
        session, _ = session_over()
        sizes = []
        for name in sorted(ALLOCATOR_FACTORIES) * 3:
            session.checked_run(make_allocator(name))
            sizes.append(len(session.analyses._cache))
        assert sizes == [sizes[0]] * len(sizes)

    def test_allocator_run_invalidates_its_clone(self):
        """After allocation mutates a run's clone, nothing stale remains
        cached for it: a fresh CFG query reflects the allocated code."""
        session, _ = session_over()
        result = session.run(make_allocator("second-chance"))
        for fn in result.module.functions.values():
            cached = session.analyses.cached(CFG_ANALYSIS, fn)
            if cached is not None:  # recomputed post-allocation by a pass
                assert set(cached.succs) == {b.label for b in fn.blocks}
            stale = session.analyses.cached(LIFETIMES_ANALYSIS, fn)
            assert stale is None


# ----------------------------------------------------------------------
# PassManager: preserved-analyses declarations hold.
# ----------------------------------------------------------------------
class TestPassManagerPreserves:
    def test_dce_preserves_cfg_identity_and_valid_liveness(self):
        session, _ = session_over()
        base, removed = session.prepared(dce=True)
        assert removed > 0  # SOURCE contains dead code
        for fn in base.functions.values():
            cached_cfg = session.analyses.cached(CFG_ANALYSIS, fn)
            cached_live = session.analyses.cached(LIVENESS_ANALYSIS, fn)
            assert cached_cfg is not None and cached_live is not None
            # The preserved CFG must equal a fresh build on the DCE'd
            # code...
            fresh_cfg = CFG.build(fn)
            assert cached_cfg.succs == fresh_cfg.succs
            assert cached_cfg.preds == fresh_cfg.preds
            # ...and the preserved liveness a fresh fixed point.
            fresh_live = compute_liveness(fn, fresh_cfg)
            for block in fn.blocks:
                assert (set(cached_live.live_in_temps(block.label))
                        == set(fresh_live.live_in_temps(block.label)))
                assert (set(cached_live.live_out_temps(block.label))
                        == set(fresh_live.live_out_temps(block.label)))

    def test_nonpreserved_analyses_dropped_only_on_change(self):
        session, _ = session_over()
        am = session.analyses
        pm = session.passes
        fn, t0, t1 = two_block_function()
        module = Module(functions={"f": fn})
        live = am.liveness(fn)
        # Peephole finds nothing to remove here: everything stays cached.
        pm.run(PEEPHOLE_PASS, module)
        assert am.cached(LIVENESS_ANALYSIS, fn) is live
        # DCE removes the dead t1 add; liveness survives via the pass's
        # preserve set, but instruction-keyed analyses would have been
        # dropped (none cached here) and the round invalidation replaced
        # the pre-pass liveness object.
        removed = sum(pm.run(DCE_PASS, module))
        assert removed > 0
        assert am.cached(LIVENESS_ANALYSIS, fn) is not live
