"""Differential oracles: slow, obviously-faithful implementations that
the shipped fast paths are tested against.

* :mod:`tests.oracles.sim_reference` — the module-walking reference
  interpreter for :mod:`repro.sim.machine`;
* :mod:`tests.oracles.coloring_reference` — the per-instruction
  mask-based interference build for :mod:`repro.allocators.coloring.sweep`.

Nothing under ``src/`` imports these; the product never loads them.
"""
