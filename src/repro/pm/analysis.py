"""Typed per-function analyses behind a memoizing manager.

The paper's methodology (Section 3) computes one set of setup analyses —
CFG, liveness, loop info, lifetime table — and feeds it to every
allocator, timing only the allocator cores.  Before this module the repo
*stated* that discipline but recomputed the analyses ad hoc in every
layer; the :class:`AnalysisManager` makes it structural:

* each analysis is a typed key (:class:`AnalysisKind`) with an explicit
  dependency list and a ``compute`` function;
* results are memoized per :class:`~repro.ir.function.Function` object
  (functions hash by identity);
* **invalidation is explicit**: whoever mutates a function must call
  :meth:`AnalysisManager.invalidate` (directly, or through the pass
  manager's preserved-analyses declarations in :mod:`repro.pm.passes`) —
  the cache never inspects code to guess staleness;
* analyses *transfer* onto structural clones: a clone linked to the
  function it was copied from is answered from the base's results.  No
  analysis refers to an instruction object — linear points are positions
  counted from each block's start — so every kind is shared outright,
  except the CFG, which gets fresh adjacency lists bound to the clone
  because binpacking's resolution mutates them.

Cache traffic is published into the manager's metrics registry
(``pm.analysis.computed[.<kind>]``, ``pm.analysis.hits``,
``pm.analysis.transfers``, ``pm.analysis.invalidated``) so the
analyze-once claim is observable, not asserted; computation is timed
under the familiar ``setup.<kind>`` profiler phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.allocators.base import SharedAnalyses
from repro.cfg.cfg import CFG
from repro.cfg.loops import LoopInfo
from repro.dataflow.liveness import LivenessInfo, compute_liveness
from repro.ir.function import Function
from repro.lifetimes.intervals import LifetimeTable, compute_lifetimes
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.target.machine import MachineDescription


def _share(value: Any, fn: Function) -> Any:
    """Transfer for label-, temp- and point-keyed results: valid for any
    clone as-is."""
    return value


@dataclass(frozen=True)
class AnalysisKind:
    """One typed analysis: a name, a compute function, and a transfer.

    Attributes:
        name: Stable key (also the metrics/profile suffix).
        compute: ``(manager, fn) -> result``; pulls dependencies through
            the manager so they are cached too.
        transfer: ``(result, clone_fn) -> result`` rebinding a cached
            result onto a structural clone of the analysed function.
            Must be equivalent to recomputing on the clone; by default
            the result is shared as-is.
        requires: Kinds this one reads through the manager (documentation
            and invalidation-audit aid; ``compute`` does the actual
            pulling).
    """

    name: str
    compute: Callable[["AnalysisManager", Function], Any]
    transfer: Callable[[Any, Function], Any] = _share
    requires: tuple[str, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnalysisKind({self.name})"


def _transfer_cfg(value: CFG, fn: Function) -> CFG:
    # Fresh adjacency lists: resolution's ``split_edge`` mutates them.
    return CFG(fn=fn,
               succs={label: list(s) for label, s in value.succs.items()},
               preds={label: list(p) for label, p in value.preds.items()})


CFG_ANALYSIS = AnalysisKind(
    "cfg",
    compute=lambda am, fn: CFG.build(fn),
    transfer=_transfer_cfg)

LIVENESS_ANALYSIS = AnalysisKind(
    "liveness",
    compute=lambda am, fn: compute_liveness(fn, am.get(CFG_ANALYSIS, fn)),
    requires=("cfg",))

LOOPS_ANALYSIS = AnalysisKind(
    "loops",
    compute=lambda am, fn: LoopInfo.build(am.get(CFG_ANALYSIS, fn)),
    requires=("cfg",))

LIFETIMES_ANALYSIS = AnalysisKind(
    "lifetimes",
    compute=lambda am, fn: compute_lifetimes(
        fn, am.machine,
        cfg=am.get(CFG_ANALYSIS, fn),
        liveness=am.get(LIVENESS_ANALYSIS, fn),
        loops=am.get(LOOPS_ANALYSIS, fn)),
    requires=("cfg", "liveness", "loops"))

#: Every registered kind, by name (the pass manager's preserve sets are
#: validated against this).
ALL_ANALYSES: dict[str, AnalysisKind] = {
    kind.name: kind
    for kind in (CFG_ANALYSIS, LIVENESS_ANALYSIS, LOOPS_ANALYSIS,
                 LIFETIMES_ANALYSIS)
}

#: Convenience preserve-set: the pass guarantees every cached analysis is
#: still valid when it returns (verifiers, and passes that maintain cache
#: coherence themselves).
PRESERVE_ALL = frozenset(ALL_ANALYSES)


@dataclass(eq=False)
class AnalysisManager:
    """Memoizes analyses per function, with explicit invalidation.

    The cache is keyed by :class:`Function` *object* (identity), so two
    clones of the same source function have independent entries.  A clone
    may be *linked* to the function it was copied from
    (:meth:`link_clone`); a query against a linked clone is answered by
    computing on the original — at most once per session — and
    transferring the result, which is how comparing four allocators
    shares one set of setup analyses.

    The invalidation contract (see docs/ARCHITECTURE.md): any code that
    mutates a function it did not just create must call
    :meth:`invalidate` before the next query, naming the analyses it
    provably preserved.  Mutation also severs the clone link — stale
    pre-mutation results must never arrive by transfer either.
    """

    machine: MachineDescription
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    _cache: dict[Function, dict[str, Any]] = field(default_factory=dict)
    _origins: dict[Function, Function] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def get(self, kind: AnalysisKind, fn: Function,
            profiler: PhaseProfiler | None = None) -> Any:
        """The ``kind`` analysis of ``fn`` — cached, transferred from the
        function's clone origin, or computed, in that order.

        ``profiler``, when given, times an actual computation under the
        ``setup.<kind>`` phase; hits and transfers are free and untimed.
        """
        per_fn = self._cache.get(fn)
        if per_fn is not None and kind.name in per_fn:
            self.metrics.bump("pm.analysis.hits")
            return per_fn[kind.name]
        base_fn = self._origins.get(fn)
        if base_fn is not None:
            value = kind.transfer(self.get(kind, base_fn, profiler), fn)
            self.metrics.bump("pm.analysis.transfers")
        else:
            if profiler is not None:
                with profiler.phase(f"setup.{kind.name}"):
                    value = kind.compute(self, fn)
            else:
                value = kind.compute(self, fn)
            self.metrics.bump("pm.analysis.computed")
            self.metrics.bump(f"pm.analysis.computed.{kind.name}")
        self._cache.setdefault(fn, {})[kind.name] = value
        return value

    def cached(self, kind: AnalysisKind, fn: Function) -> Any | None:
        """The cached result, or ``None`` — never computes or transfers."""
        return self._cache.get(fn, {}).get(kind.name)

    # Named accessors so consumers (the passes) need no kind imports —
    # which also keeps them free of circular-import hazards.
    def cfg(self, fn: Function,
            profiler: PhaseProfiler | None = None) -> CFG:
        return self.get(CFG_ANALYSIS, fn, profiler)

    def liveness(self, fn: Function,
                 profiler: PhaseProfiler | None = None) -> LivenessInfo:
        return self.get(LIVENESS_ANALYSIS, fn, profiler)

    def loops(self, fn: Function,
              profiler: PhaseProfiler | None = None) -> LoopInfo:
        return self.get(LOOPS_ANALYSIS, fn, profiler)

    def lifetimes(self, fn: Function,
                  profiler: PhaseProfiler | None = None) -> LifetimeTable:
        return self.get(LIFETIMES_ANALYSIS, fn, profiler)

    def shared(self, fn: Function,
               profiler: PhaseProfiler | None = None) -> SharedAnalyses:
        """The bundle every allocator receives for ``fn`` — the paper's
        setup common to all allocators (Section 3.2)."""
        return SharedAnalyses(cfg=self.cfg(fn, profiler),
                              liveness=self.liveness(fn, profiler),
                              loops=self.loops(fn, profiler),
                              lifetimes=self.lifetimes(fn, profiler))

    # ------------------------------------------------------------------
    # Clone links.
    # ------------------------------------------------------------------
    def link_clone(self, base: Function, clone: Function) -> None:
        """Declare ``clone`` a fresh structural copy of ``base`` so its
        analyses are answered by transfer instead of recomputation."""
        self._origins[clone] = base

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------
    def invalidate(self, fn: Function,
                   preserve: frozenset[str] = frozenset()) -> None:
        """Drop every cached analysis of ``fn`` not named in ``preserve``,
        and sever its clone link (post-mutation transfers would be stale).
        """
        unknown = preserve - PRESERVE_ALL
        if unknown:
            raise ValueError(f"unknown analyses in preserve set: "
                             f"{sorted(unknown)}")
        self._origins.pop(fn, None)
        per_fn = self._cache.get(fn)
        if per_fn is None:
            return
        dropped = [name for name in per_fn if name not in preserve]
        for name in dropped:
            del per_fn[name]
        if dropped:
            self.metrics.bump("pm.analysis.invalidated", len(dropped))
        if not per_fn:
            # An empty entry's key would keep a dead function alive.
            del self._cache[fn]
