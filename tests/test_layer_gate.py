"""The layer gate's verdicts, on synthetic perfbench results.

No subprocess runs here: each test builds the last-line JSON objects
that ``perfbench/run.py --trace 1`` prints, folds them into a point the
way the gate does, and checks the point against a baseline.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "layer_gate",
    Path(__file__).resolve().parent.parent / "tools" / "layer_gate.py")
layer_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_gate)


def _run(workload: str, scale: dict[str, float] | None = None,
         correct: bool = True) -> dict:
    """One perfbench result: cell ``i`` takes ``i + 1`` seconds, times
    its factor in ``scale``."""
    scale = scale or {}
    metrics = {cell: {"value": (i + 1) * scale.get(cell, 1.0), "unit": "s"}
               for i, cell in enumerate(layer_gate.CELLS[workload])}
    return {"correct": correct, "attempted": 4, "failed": 0,
            "metrics": metrics}


def _point(**overrides) -> dict:
    """A point of RUNS runs per workload; ``overrides`` maps a workload
    to the run documents it uses instead."""
    return layer_gate.summarize({
        workload: overrides.get(workload,
                                [_run(workload)] * layer_gate.RUNS)
        for workload in layer_gate.CELLS})


BASELINE = _point()


def test_uniformly_slower_workload_passes():
    cells = layer_gate.CELLS["table3"]
    slower = [_run("table3", {cell: 1.4 for cell in cells})] * 3
    assert layer_gate.failures(_point(table3=slower), BASELINE) == []


def test_one_cell_twice_as_slow_fails_and_is_named():
    slower = [_run("analogs", {"lifetimes.compute_s": 2.0})] * 3
    found = layer_gate.failures(_point(analogs=slower), BASELINE)
    assert len(found) == 1
    assert found[0].startswith("analogs lifetimes.compute_s: 2.00x")


def test_faster_cell_in_a_much_faster_workload_passes():
    """The table3 point of the hash-free scans: every core got faster,
    coloring's least (0.93x raw).  Against the workload's median ratio
    that reads as a slowdown past the limit, but the layer itself did
    not slow down, so the gate passes it."""
    raw = {"allocators.second-chance.core_s": 0.50,
           "allocators.coloring.core_s": 0.93,
           "allocators.two-pass.core_s": 0.55,
           "allocators.poletto.core_s": 0.60,
           "lifetimes.compute_s": 0.64, "trace.wall_s": 0.57}
    faster = [_run("table3", raw)] * 3
    assert 0.93 / 0.585 > layer_gate.MAX_SLOWDOWN   # the median is 0.585
    assert layer_gate.failures(_point(table3=faster), BASELINE) == []
    # The same spread, shifted so coloring's own median rose, fails.
    risen = [_run("table3", {cell: r * 1.1 for cell, r in raw.items()})] * 3
    found = layer_gate.failures(_point(table3=risen), BASELINE)
    assert len(found) == 1
    assert found[0].startswith("table3 allocators.coloring.core_s: 1.59x")


def test_cell_median_ignores_one_slow_run():
    runs = [_run("serve", {"results.commit_s": 3.0}), _run("serve"),
            _run("serve")]
    assert layer_gate.failures(_point(serve=runs), BASELINE) == []


def test_incorrect_run_fails():
    runs = [_run("serve"), _run("serve", correct=False), _run("serve")]
    point = _point(serve=runs)
    assert layer_gate.failures(point) == [
        "serve: a run printed correct: false"]
    assert "serve: a run printed correct: false" in \
        layer_gate.failures(point, BASELINE)


def test_baseline_missing_a_cell_is_an_error():
    baseline = _point()
    del baseline["workloads"]["table3"]["cells"]["allocators.poletto.core_s"]
    with pytest.raises(layer_gate.GateError, match="table3 allocators."
                                                   "poletto.core_s"):
        layer_gate.failures(_point(), baseline)
