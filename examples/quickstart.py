"""Quickstart: compile a minic program, allocate registers, run it.

Usage::

    python examples/quickstart.py

Compiles a small program with the paper's second-chance binpacking
allocator, simulates both the virtual and the allocated code, and shows
that behaviour is preserved while every temporary became a machine
register.
"""

from repro import CompilationSession, compile_minic, simulate
from repro.allocators import SecondChanceBinpacking
from repro.ir.printer import print_function
from repro.target import alpha

SOURCE = """
global int primes[8] = {2, 3, 5, 7, 11, 13, 17, 19};

func int sum_scaled(int k) {
  int total = 0;
  for (int i = 0; i < 8; i = i + 1) {
    total = total + primes[i] * k;
  }
  return total;
}

func int main() {
  print sum_scaled(1);
  print sum_scaled(10);
  return 0;
}
"""


def main() -> None:
    machine = alpha()
    module = compile_minic(SOURCE, machine)

    print("=== pre-allocation IR (virtual registers) ===")
    print(print_function(module.functions["sum_scaled"]))

    before = simulate(module, machine)
    result = CompilationSession(module, machine).run(SecondChanceBinpacking())
    after = simulate(result.module, machine)

    print("\n=== post-allocation code (machine registers) ===")
    print(print_function(result.module.functions["sum_scaled"]))

    print("\n=== behaviour check ===")
    print(f"output before allocation: {before.output}")
    print(f"output after  allocation: {after.output}")
    assert before.output == after.output

    print("\n=== statistics ===")
    print(f"dynamic instructions: {before.dynamic_instructions} -> "
          f"{after.dynamic_instructions}")
    print(f"register candidates: {result.stats.candidates}")
    print(f"allocation core time: {result.stats.alloc_seconds * 1000:.2f} ms")
    print(f"moves removed by the peephole: {result.moves_removed}")


if __name__ == "__main__":
    main()
