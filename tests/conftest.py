"""Shared fixtures and the oracle helper used across the test suite."""

from __future__ import annotations

import pytest

from repro.allocators import (
    GraphColoring,
    PolettoLinearScan,
    SecondChanceBinpacking,
    TwoPassBinpacking,
)
from repro.ir.module import Module
from repro.pm.session import CompilationSession
from repro.sim.machine import outputs_equal, simulate
from repro.target import alpha, tiny
from repro.target.machine import MachineDescription

#: One constructor per allocator, keyed by the id used in parametrized tests.
ALLOCATOR_FACTORIES = {
    "second-chance": SecondChanceBinpacking,
    "two-pass": TwoPassBinpacking,
    "coloring": GraphColoring,
    "poletto": PolettoLinearScan,
}


@pytest.fixture(params=list(ALLOCATOR_FACTORIES), ids=list(ALLOCATOR_FACTORIES))
def any_allocator(request):
    """Parametrized fixture yielding a fresh instance of each allocator."""
    return ALLOCATOR_FACTORIES[request.param]()


@pytest.fixture
def tiny_machine() -> MachineDescription:
    return tiny(6, 6)


@pytest.fixture
def alpha_machine() -> MachineDescription:
    return alpha()


def assert_allocation_preserves_semantics(
        module: Module, allocator, machine: MachineDescription, *,
        max_steps: int = 4_000_000) -> tuple:
    """The oracle: allocated code must behave exactly like the original.

    Returns ``(reference_outcome, allocated_outcome, pipeline_result)``
    so callers can make additional assertions about counts or stats.
    """
    reference = simulate(module, machine, max_steps=max_steps)
    result = CompilationSession(module, machine).run(allocator)
    outcome = simulate(result.module, machine, max_steps=max_steps)
    assert outputs_equal(outcome.output, reference.output), (
        f"{allocator.name} changed observable output:\n"
        f"  expected {reference.output[:10]}\n"
        f"  got      {outcome.output[:10]}")
    assert outcome.result == reference.result or (
        outcome.result != outcome.result and reference.result != reference.result)
    return reference, outcome, result
