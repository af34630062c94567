"""The shared spill layer: AllocationContext and rematerialization.

``repro.spill`` is threaded through every entry point; these tests pin
the context's serialization contract (reports, fuzz witnesses, and
cache idents all round-trip through ``describe``/``parse``) and the
end-to-end rematerialization property: with ``remat=True`` every
allocator re-issues spilled single-definition constants instead of
reloading them, without changing the program's observable behaviour.
"""

import pytest

from repro.allocators import ALLOCATOR_FACTORIES
from repro.ir.instr import Op
from repro.lang import compile_minic
from repro.passes.verify_alloc import verify_dataflow
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.spill import DEFAULT_CONTEXT, STRESS_MODES, AllocationContext
from repro.stats.spill import quality_figures
from repro.target import tiny

#: Eight live single-definition constants on a four-register machine:
#: every allocator must spill some of them, and each reload is a remat
#: candidate.
CONST_SRC = """
func int main() {
  int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
  int f = 6; int g = 7; int h = 8;
  print a + b + c + d + e + f + g + h;
  print a; print h;
  return 0;
}
"""


class TestAllocationContext:
    @pytest.mark.parametrize("context", [
        AllocationContext(),
        AllocationContext(remat=True),
        AllocationContext(stress="shuffle", seed=3),
        AllocationContext(remat=True, stress="forced-evict", seed=41),
        AllocationContext(stress="reduced-regs", seed=0),
    ])
    def test_describe_parse_round_trip(self, context):
        assert AllocationContext.parse(context.describe()) == context

    def test_default_is_empty_everywhere(self):
        assert not DEFAULT_CONTEXT.remat and not DEFAULT_CONTEXT.stressed
        assert DEFAULT_CONTEXT.describe() == ""
        assert AllocationContext.parse("") == DEFAULT_CONTEXT

    def test_rejects_unknown_mode_and_fragment(self):
        with pytest.raises(ValueError):
            AllocationContext(stress="chaos")
        with pytest.raises(ValueError):
            AllocationContext.parse("frobnicate")

    @pytest.mark.parametrize("text,message", [
        ("seed=7", "seeds no stress mode"),
        ("stress=none,seed=7", "seeds no stress mode"),
        ("remat,seed=0", "seeds no stress mode"),
        ("remat,remat", "names remat twice"),
        ("stress=shuffle,stress=none", "names stress twice"),
        ("remat,stress=shuffle,seed=1,seed=2", "names seed twice"),
        ("stress", "bad context fragment"),
        ("remat=1", "bad context fragment"),
    ])
    def test_refuses_what_describe_never_writes(self, text, message):
        with pytest.raises(ValueError, match=message):
            AllocationContext.parse(text)

    def test_fragment_order_is_free_and_seed_defaults_to_zero(self):
        assert AllocationContext.parse("seed=4,stress=shuffle,remat") \
            == AllocationContext(remat=True, stress="shuffle", seed=4)
        assert AllocationContext.parse("stress=shuffle") \
            == AllocationContext(stress="shuffle")

    @pytest.mark.parametrize("remat", [False, True])
    @pytest.mark.parametrize("stress", STRESS_MODES)
    def test_every_canonical_description_round_trips(self, remat, stress):
        for seed in ((0,) if stress == "none" else (0, 7, 123456)):
            context = AllocationContext(remat=remat, stress=stress, seed=seed)
            text = context.describe()
            assert AllocationContext.parse(text) == context
            assert AllocationContext.parse(text).describe() == text

    def test_cli_context_is_the_describe_form(self):
        from repro.__main__ import build_parser

        context = AllocationContext(remat=True, stress="shuffle", seed=9)
        args = build_parser().parse_args(
            ["run", "prog.mc", "--context", context.describe()])
        assert args.context == context
        assert build_parser().parse_args(
            ["run", "prog.mc"]).context == DEFAULT_CONTEXT

    def test_rng_is_deterministic_and_salted(self):
        context = AllocationContext(stress="shuffle", seed=5)
        a = [context.rng("fn", "GPR").random() for _ in range(4)]
        b = [context.rng("fn", "GPR").random() for _ in range(4)]
        assert a == b
        assert a != [context.rng("fn", "FPR").random() for _ in range(4)]
        assert a != [context.with_seed(6).rng("fn", "GPR").random()
                     for _ in range(4)]

    def test_with_seed_only_changes_the_seed(self):
        context = AllocationContext(remat=True, stress="shuffle", seed=1)
        reseeded = context.with_seed(8)
        assert reseeded.seed == 8
        assert (reseeded.remat, reseeded.stress) == (True, "shuffle")

    def test_stress_modes_cover_the_cli_choices(self):
        assert STRESS_MODES[0] == "none"
        assert set(STRESS_MODES) == {"none", "reduced-regs",
                                     "forced-evict", "shuffle"}


class TestRematerialization:
    @pytest.mark.parametrize("name", sorted(ALLOCATOR_FACTORIES))
    def test_remat_replaces_reloads_without_changing_behaviour(self, name):
        import copy
        from repro.allocators.base import allocate_module
        from repro.passes.verify_alloc import snapshot_module

        machine = tiny(4, 4)
        module = compile_minic(CONST_SRC, machine)
        base = CompilationSession(module, machine).run(
            ALLOCATOR_FACTORIES[name]())
        remat = CompilationSession(module, machine).run(
            ALLOCATOR_FACTORIES[name](), context=AllocationContext(remat=True))

        # The dataflow verifier needs pre-allocation operand snapshots,
        # so re-run the allocation in place on a working copy.
        working = copy.deepcopy(module)
        snapshots = snapshot_module(working)
        allocate_module(working, ALLOCATOR_FACTORIES[name](), machine,
                        context=AllocationContext(remat=True))
        for fn_name, fn in working.functions.items():
            verify_dataflow(fn, machine, snapshots[fn_name])

        base_out = simulate(base.module, machine)
        remat_out = simulate(remat.module, machine)
        assert remat_out.output == base_out.output

        base_cats = quality_figures(base_out)["spill_categories"]
        remat_cats = quality_figures(remat_out)["spill_categories"]
        base_remats = base_cats["evict.remat"] + base_cats["resolve.remat"]
        remats = remat_cats["evict.remat"] + remat_cats["resolve.remat"]
        assert base_remats == 0
        assert remats > 0
        assert (remat_cats["evict.load"] + remats
                >= base_cats["evict.load"])
        assert remat_cats["evict.load"] < base_cats["evict.load"]
        assert remat_out.cycles <= base_out.cycles

    def test_remat_instructions_are_tagged_constants(self):
        machine = tiny(4, 4)
        module = compile_minic(CONST_SRC, machine)
        result = CompilationSession(module, machine).run(
            ALLOCATOR_FACTORIES["second-chance"](),
            context=AllocationContext(remat=True))
        tagged = [i for fn in result.module.functions.values()
                  for i in fn.instructions() if i.remat_for is not None]
        assert tagged
        assert all(i.op in (Op.LI, Op.FLI) for i in tagged)
        assert all(i.spill_phase is not None for i in tagged)

    def test_default_context_output_is_unchanged(self):
        """remat/stress off must be byte-identical to the pre-layer
        pipeline — the explicit DEFAULT_CONTEXT is inert."""
        from repro.ir.printer import print_module
        machine = tiny(4, 4)
        module = compile_minic(CONST_SRC, machine)
        for name, make in sorted(ALLOCATOR_FACTORIES.items()):
            plain = CompilationSession(module, machine).run(make())
            explicit = CompilationSession(module, machine).run(
                make(), context=DEFAULT_CONTEXT)
            assert print_module(plain.module) == \
                print_module(explicit.module), name
