"""Structural cloning of functions and modules (no ``copy.deepcopy``).

``Module.clone`` / ``Function.clone`` are what the pipeline runs on every
allocator invocation, so they must be (a) faithful — the clone prints
identically and simulates identically, (b) independent — mutating the
clone never reaches the original, (c) shallow where safe — immutable
atoms (temps, registers, labels) are shared, and (d) fast — one linear
sweep, measurably cheaper than ``copy.deepcopy`` on a realistic module.
"""

import copy
import time

from repro.ir.instr import Instr, Op
from repro.ir.printer import print_module
from repro.ir.types import RegClass
from repro.lang import compile_minic
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import tiny
from repro.workloads.synthetic import scaled_module

SOURCE = """
func int helper(int x) {
  return x * 3 - 1;
}

func int main() {
  int total = 0;
  for (int i = 0; i < 5; i = i + 1) {
    total = total + helper(i);
  }
  print total;
  return 0;
}
"""


def sample_module():
    return compile_minic(SOURCE, tiny(8, 8))


class TestCloneFaithful:
    def test_clone_prints_identically(self):
        module = sample_module()
        assert print_module(module.clone()) == print_module(module)

    def test_clone_simulates_identically(self):
        machine = tiny(8, 8)
        module = compile_minic(SOURCE, machine)
        ref = simulate(module, machine)
        out = simulate(module.clone(), machine)
        assert outputs_equal(out.output, ref.output)
        assert out.dynamic_instructions == ref.dynamic_instructions

    def test_globals_and_temp_counter_survive(self):
        module = sample_module()
        clone = module.clone()
        assert clone.globals == module.globals
        assert clone.heap_size == module.heap_size
        for name, fn in module.functions.items():
            # The clone mints the id the original would mint next.
            assert clone.functions[name].params == fn.params
            assert (clone.functions[name].new_temp(RegClass.GPR).id
                    == fn.new_temp(RegClass.GPR).id)


class TestCloneIndependent:
    def test_mutating_clone_instr_lists_leaves_original(self):
        module = sample_module()
        before = print_module(module)
        clone = module.clone()
        for fn in clone.functions.values():
            fn.blocks[0].instrs.insert(0, Instr(Op.NOP))
            # Operand lists are fresh too (allocators rewrite in place).
            for instr in fn.instructions():
                if instr.uses:
                    instr.uses[0] = instr.uses[0]
                    instr.uses.append(instr.uses[0])
        assert print_module(module) == before

    def test_instruction_objects_are_fresh_atoms_shared(self):
        module = sample_module()
        clone = module.clone()
        for name, fn in module.functions.items():
            cfn = clone.functions[name]
            for old, new in zip(fn.instructions(), cfn.instructions()):
                assert new is not old
                assert new.op is old.op
                # Temps/regs/labels are immutable values, shared as-is.
                assert all(a is b for a, b in zip(old.uses, new.uses))
                assert all(a is b for a, b in zip(old.defs, new.defs))


class TestCloneSpeed:
    def test_clone_beats_deepcopy_on_a_realistic_module(self):
        """The micro-benchmark behind dropping deepcopy from the hot
        path: structural cloning of a Table-3-sized module must beat
        ``copy.deepcopy`` (in practice by an order of magnitude; the
        assertion only demands *faster*, to stay robust on loaded CI)."""
        module = scaled_module(245)

        def best_of(fn, rounds=3):
            times = []
            for _ in range(rounds):
                start = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - start)
            return min(times), result

        clone_s, cloned = best_of(module.clone)
        deep_s, _ = best_of(lambda: copy.deepcopy(module))
        assert print_module(cloned) == print_module(module)
        assert clone_s < deep_s, (
            f"clone {clone_s * 1e3:.2f}ms not faster than "
            f"deepcopy {deep_s * 1e3:.2f}ms")
