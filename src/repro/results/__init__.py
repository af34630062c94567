"""Persistent result store, declarative suite runner, unified reporting.

The evaluation's observability backbone (see ``docs/REPORTING.md``):

* :mod:`repro.results.store` — content-addressed, append-only record
  store (JSONL segments + an index keyed by workload × configuration ×
  machine, validated by code hash);
* :mod:`repro.results.suite` — declarative workloads × configurations
  matrices executed cache-miss-only through the ``pm.batch`` pool;
* :mod:`repro.results.report` — every paper table/figure, golden
  checks, and run-to-run diffs, rendered from the one store.

``python -m repro suite`` populates a store; ``python -m repro report``
renders from it.
"""

from repro.results.report import (MissingCells, check_against_goldens,
                                  diff_runs, render_all, render_runs)
from repro.results.store import (CellKey, Record, ResultStore, content_hash,
                                 store_path)
from repro.results.suite import (SUITES, SuiteError, SuiteOutcome,
                                 run_suite, standard_suite)

__all__ = [
    "CellKey",
    "MissingCells",
    "Record",
    "ResultStore",
    "SUITES",
    "SuiteError",
    "SuiteOutcome",
    "check_against_goldens",
    "content_hash",
    "diff_runs",
    "render_all",
    "render_runs",
    "run_suite",
    "standard_suite",
    "store_path",
]
