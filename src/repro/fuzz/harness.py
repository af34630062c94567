"""The differential fuzz harness: configs × seeds → divergences.

One *check* runs one generated program through one allocator
configuration and compares against the oracle:

    reference = simulate(unallocated module)        # the oracle
    allocated = pipeline(module, config)            # DCE → allocate →
                                                    #   dataflow-verify →
                                                    #   peephole → verify
    simulate(allocated, trap_poison=True) must match the reference.

Five distinct failure kinds are reported (``crash``, ``verify``,
``dataflow``, ``sim-fault``, ``mismatch``) because they point at
different layers; :class:`repro.allocators.base.AllocationError` is a
*skip*, not a failure — a tiny machine may be legitimately too small for
a generated function's register demands.

The configuration grid covers all four allocators plus every
``BinpackOptions`` ablation point the paper's Section 2 calls out, since
the bugs the fuzzer exists to catch (consistency dataflow, edge
resolution, second-chance paths) hide behind specific knob combinations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.allocators import make_allocator
from repro.allocators.base import AllocationError
from repro.allocators.binpack.allocator import BinpackOptions
from repro.fuzz.generate import GeneratedProgram, program_for_seed
from repro.fuzz.shrink import reference_outcome, shrink_module
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.passes.verify_alloc import AllocationVerifyError
from repro.pm.batch import run_batch
from repro.pm.session import CompilationSession
from repro.sim import SimulationError, simulate
from repro.sim.machine import mismatch
from repro.spill import DEFAULT_CONTEXT, AllocationContext
from repro.target import MachineDescription, machine_spec


@dataclass(frozen=True)
class FuzzConfig:
    """One point of the allocator × options × context grid."""

    name: str
    allocator: str  # "second-chance" | "two-pass" | "coloring" | "poletto"
    options: BinpackOptions | None = None
    context: AllocationContext = DEFAULT_CONTEXT

    def for_seed(self, seed: int) -> "FuzzConfig":
        """The config actually checked for one fuzz seed: stress configs
        derive their stress seed from the fuzz seed, so every seed
        exercises a different register-drop/shuffle/eviction pattern
        while staying fully replayable from the (seed, config) pair."""
        if not self.context.stressed:
            return self
        return dataclasses.replace(self,
                                   context=self.context.with_seed(seed))


CONFIG_GRID: tuple[FuzzConfig, ...] = (
    FuzzConfig("sc-default", "second-chance"),
    FuzzConfig("sc-no-holes", "second-chance",
               BinpackOptions(use_holes=False)),
    FuzzConfig("sc-no-early2c", "second-chance",
               BinpackOptions(early_second_chance=False)),
    FuzzConfig("sc-no-moveelim", "second-chance",
               BinpackOptions(move_elimination=False)),
    FuzzConfig("sc-no-avoid-stores", "second-chance",
               BinpackOptions(avoid_consistent_stores=False)),
    FuzzConfig("sc-conservative", "second-chance",
               BinpackOptions(conservative_consistency=True)),
    FuzzConfig("sc-no-holes-conservative", "second-chance",
               BinpackOptions(use_holes=False, conservative_consistency=True)),
    FuzzConfig("sc-minimal", "second-chance",
               BinpackOptions(use_holes=False, early_second_chance=False,
                              move_elimination=False,
                              avoid_consistent_stores=False)),
    FuzzConfig("two-pass", "two-pass"),
    FuzzConfig("coloring", "coloring"),
    FuzzConfig("poletto", "poletto"),
)

#: The stress grid: every allocator under every seeded stress mode, plus
#: every allocator with rematerialization on.  Kept out of CONFIG_GRID so
#: the default fuzz run still measures exactly the paper's pipeline; CI's
#: stress-smoke leg and ``repro fuzz --stress`` run this one.  Each
#: config's stress seed is derived per fuzz seed (:meth:`FuzzConfig.for_seed`).
STRESS_GRID: tuple[FuzzConfig, ...] = tuple(
    FuzzConfig(f"{allocator}@{mode}", allocator,
               context=AllocationContext(stress=mode))
    for mode in ("reduced-regs", "forced-evict", "shuffle")
    for allocator in ("second-chance", "two-pass", "coloring", "poletto")
) + tuple(
    FuzzConfig(f"{allocator}+remat", allocator,
               context=AllocationContext(remat=True))
    for allocator in ("second-chance", "two-pass", "coloring", "poletto")
)

#: Divergences minimized per report: a systematically broken allocator
#: diverges on most seeds × configs, and shrinking each witness costs
#: hundreds of pipeline runs; later ones are reported with the full
#: module.
MAX_SHRINKS = 3


@dataclass
class Divergence:
    """One confirmed oracle divergence, with its (shrunken) witness."""

    seed: int
    config: str
    kind: str  # "crash" | "verify" | "dataflow" | "sim-fault" | "mismatch"
    message: str
    describe: str
    machine: str  # the machine's spec (repro.target.machine_spec)
    module_text: str  # IR text of the (shrunken) failing module
    shrunk_from: int  # instruction count before shrinking
    shrunk_to: int
    #: The resolved allocation context (``AllocationContext.describe()``,
    #: empty for the default) — together with the witness IR this is
    #: everything a one-command ``tools/shrink_ir.py`` replay needs.
    context: str = ""

    def format(self) -> str:
        ctx = f" context={self.context}" if self.context else ""
        return (f"[{self.kind}] config={self.config}{ctx} {self.describe}\n"
                f"  {self.message}\n"
                f"  witness shrunk {self.shrunk_from} -> {self.shrunk_to} "
                f"instructions:\n{self.module_text}")


def check_config(module: Module, machine: MachineDescription,
                 config: FuzzConfig, ref,
                 session: CompilationSession | None = None
                 ) -> tuple[str, str] | None:
    """Run one configuration; ``None`` when it matches the oracle.

    Returns ``("skip", reason)`` when the machine is legitimately too
    small, otherwise ``(kind, message)`` describing the divergence.
    ``ref`` is the oracle outcome for the unallocated ``module``.
    ``session`` (opened over ``module``) lets all eleven grid
    configurations share one analysis cache and one DCE'd base module
    (see :mod:`repro.pm`).
    """
    if session is None:
        session = CompilationSession(module, machine)
    try:
        result = session.run(make_allocator(config.allocator, config.options),
                             verify_dataflow=True, context=config.context)
    except AllocationError as exc:
        return ("skip", str(exc))
    except AllocationVerifyError as exc:
        return ("dataflow" if "dataflow" in str(exc) else "verify", str(exc))
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        return ("crash", f"{type(exc).__name__}: {exc}")
    try:
        out = simulate(result.module, machine, trap_poison=True,
                       max_steps=ref.dynamic_instructions * 8 + 100_000)
    except SimulationError as exc:
        return ("sim-fault", str(exc))
    problem = mismatch(ref, out)
    return None if problem is None else ("mismatch", problem)


def _shrink_divergence(program: GeneratedProgram, config: FuzzConfig,
                       kind: str, budget: int) -> Module:
    """Minimize the failing module, preserving config and failure kind.

    Mutant simulations get a step budget scaled to the *original*
    program's run: deleting a loop decrement makes the loop infinite, and
    without the tight budget every such mutant would burn the full
    default step limit before being rejected."""
    base = reference_outcome(program.module, program.machine)
    step_cap = (base.dynamic_instructions * 4 + 10_000) if base else 100_000

    def still_fails(candidate: Module) -> bool:
        # One session per candidate: the oracle's validity liveness and
        # the pipeline's setup analyses are computed once and shared
        # (candidates are all distinct modules, so nothing caches across
        # ddmin iterations — but within one, nothing is computed twice).
        session = CompilationSession(candidate, program.machine)
        ref = reference_outcome(candidate, program.machine,
                                max_steps=step_cap, session=session)
        if ref is None:
            return False
        found = check_config(candidate, program.machine, config, ref,
                             session=session)
        return found is not None and found[0] == kind

    return shrink_module(program.module, still_fails, budget=budget)


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    seeds: int = 0
    checks: int = 0
    skips: int = 0
    invalid_seeds: int = 0
    shrinks: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def merge(self, other: "FuzzReport") -> None:
        """Fold another report (e.g. one worker's seeds) into this one."""
        self.seeds += other.seeds
        self.checks += other.checks
        self.skips += other.skips
        self.invalid_seeds += other.invalid_seeds
        self.shrinks += other.shrinks
        self.divergences.extend(other.divergences)

    def format(self) -> str:
        lines = [f"fuzz: {self.seeds} seed(s), {self.checks} check(s), "
                 f"{self.skips} skip(s), {self.invalid_seeds} invalid "
                 f"seed(s), {len(self.divergences)} divergence(s)"]
        for div in self.divergences:
            lines.append(div.format())
        return "\n".join(lines)


def run_seed(seed: int, *, configs: tuple[FuzzConfig, ...] = CONFIG_GRID,
             shrink: bool = True, shrink_budget: int = 400,
             report: FuzzReport | None = None) -> FuzzReport:
    """Fuzz one seed across ``configs``, appending into ``report``.

    At most :data:`MAX_SHRINKS` divergences per report are minimized."""
    rep = report if report is not None else FuzzReport()
    rep.seeds += 1
    program = program_for_seed(seed)
    # One session serves the oracle check and all grid configurations:
    # the seed module's setup analyses and DCE'd base are computed once,
    # then transferred onto each configuration's clone.
    session = CompilationSession(program.module, program.machine)
    ref = reference_outcome(program.module, program.machine, session=session)
    if ref is None:
        # The generator promises terminating, fully-initialized programs;
        # an invalid seed is a generator bug worth counting, not hiding.
        rep.invalid_seeds += 1
        return rep
    size = sum(fn.instruction_count()
               for fn in program.module.functions.values())
    for config in configs:
        rep.checks += 1
        resolved = config.for_seed(seed)
        found = check_config(program.module, program.machine, resolved, ref,
                             session=session)
        if found is None:
            continue
        kind, message = found
        if kind == "skip":
            rep.skips += 1
            continue
        witness = program.module
        if shrink and rep.shrinks < MAX_SHRINKS:
            rep.shrinks += 1
            witness = _shrink_divergence(program, resolved, kind,
                                         shrink_budget)
        rep.divergences.append(Divergence(
            seed=seed, config=config.name, kind=kind, message=message,
            describe=program.describe,
            machine=machine_spec(program.machine),
            module_text=print_module(witness),
            shrunk_from=size,
            shrunk_to=sum(fn.instruction_count()
                          for fn in witness.functions.values()),
            context=resolved.context.describe()))
    return rep


def _seed_worker(payload) -> FuzzReport:
    """Process-pool entry: fuzz one seed into a fresh report."""
    seed, configs, shrink, shrink_budget = payload
    return run_seed(seed, configs=configs, shrink=shrink,
                    shrink_budget=shrink_budget)


def fuzz(seeds: range | list[int], *,
         configs: tuple[FuzzConfig, ...] = CONFIG_GRID,
         shrink: bool = True, shrink_budget: int = 400,
         progress=None, jobs: int = 1) -> FuzzReport:
    """Fuzz every seed in ``seeds``; return the aggregate report.

    With ``jobs > 1``, seeds run in parallel worker processes
    (:func:`repro.pm.batch.run_batch`) and the per-seed reports are
    merged back in seed order, so the aggregate is deterministic.  One
    semantic difference from serial: :data:`MAX_SHRINKS` caps minimizations
    *per seed* rather than across the whole run, since workers cannot
    see each other's shrink counts.
    """
    report = FuzzReport()
    if jobs > 1:
        payloads = [(seed, configs, shrink, shrink_budget) for seed in seeds]
        seed_reports = run_batch(_seed_worker, payloads, jobs=jobs)
        for seed, seed_report in zip(seeds, seed_reports):
            report.merge(seed_report)
            if progress is not None:
                progress(seed, report)
        return report
    for seed in seeds:
        run_seed(seed, configs=configs, shrink=shrink,
                 shrink_budget=shrink_budget, report=report)
        if progress is not None:
            progress(seed, report)
    return report
