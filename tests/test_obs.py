"""Observability subsystem tests: tracer + sinks, phase profiler,
metrics registry, and the invariants linking them to the allocators."""

import io

import pytest

from repro.allocators import (
    GraphColoring,
    PolettoLinearScan,
    SecondChanceBinpacking,
    TwoPassBinpacking,
)
from repro.ir.instr import Op, SpillPhase
from repro.ir.printer import print_module
from repro.lang import compile_minic
from repro.obs import (
    NULL_TRACER,
    EventKind,
    JsonlSink,
    MetricsRegistry,
    PhaseProfiler,
    RingBufferSink,
    TextSink,
    TraceEvent,
    Tracer,
    read_jsonl_trace,
)
from repro.pm.session import CompilationSession
from repro.sim import simulate
from repro.sim.machine import outputs_equal
from repro.target import tiny

#: Enough simultaneously-live values (plus a call) to force spilling on
#: the 4-register tiny machine, so every event kind has a chance to fire.
SPILLY = """
func int helper(int x) {
  return x * 2 + 1;
}

func int main() {
  int a = 1; int b = 2; int c = 3; int d = 4;
  int e = 5; int f = 6; int g = 7; int h = 8;
  int total = 0;
  for (int i = 0; i < 4; i = i + 1) {
    total = total + a + b + c + d + e + f + g + h + helper(i);
  }
  print total;
  print a + h;
  return 0;
}
"""


def spilly_module(machine):
    return compile_minic(SPILLY, machine)


def traced_run(allocator, extra_sinks=()):
    machine = tiny(4, 4)
    module = spilly_module(machine)
    ring = RingBufferSink(capacity=100_000)
    tracer = Tracer([ring, *extra_sinks])
    result = CompilationSession(module, machine).run(allocator, trace=tracer)
    return machine, result, tracer, ring


# ----------------------------------------------------------------------
# Tracer core and sinks.
# ----------------------------------------------------------------------
class TestTracer:
    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(EventKind.ASSIGN, temp="t1", reg="r1")
        assert not NULL_TRACER.counts

    def test_untraced_run_records_zero_events(self):
        machine = tiny(4, 4)
        result = CompilationSession(spilly_module(machine), machine).run(
            SecondChanceBinpacking())
        assert result.stats.trace is NULL_TRACER
        assert not result.stats.trace.counts

    def test_tracer_enabled_iff_it_has_sinks(self):
        assert Tracer([]).enabled is False
        assert Tracer([RingBufferSink()]).enabled is True

    def test_ambient_location(self):
        ring = RingBufferSink()
        tr = Tracer([ring])
        tr.set_location(fn="f")
        tr.set_location(block="B1")
        tr.emit(EventKind.ASSIGN, point=3, temp="t1", reg="r2")
        tr.set_location(fn="g")  # a new function resets the block
        tr.emit(EventKind.EVICT, temp="t9")
        first, second = ring.events()
        assert (first.fn, first.block, first.point) == ("f", "B1", 3)
        assert (second.fn, second.block) == ("g", None)

    def test_ring_buffer_keeps_most_recent(self):
        ring = RingBufferSink(capacity=2)
        tr = Tracer([ring])
        tr.set_location(fn="f")
        for point in range(5):
            tr.emit(EventKind.ASSIGN, point=point)
        assert [e.point for e in ring.events()] == [3, 4]
        assert tr.counts[EventKind.ASSIGN] == 5

    def test_text_sink_line_format(self):
        stream = io.StringIO()
        tr = Tracer([TextSink(stream)])
        tr.set_location(fn="f", block=None)
        tr.set_location(block="B2")
        tr.emit(EventKind.EVICT, point=7, temp="t3", reg="r1",
                detail="store")
        line = stream.getvalue().strip()
        assert "f/B2@7" in line
        assert "evict" in line
        assert "t3" in line and "-> r1" in line and "[store]" in line

    def test_event_json_round_trip(self):
        event = TraceEvent(EventKind.HOLE_REUSE, fn="f", block="B",
                           point=12, temp="t4", reg="r3", detail="x")
        assert TraceEvent.from_json(event.to_json()) == event
        sparse = TraceEvent(EventKind.ASSIGN, fn="f")
        assert TraceEvent.from_json(sparse.to_json()) == sparse

    def test_from_json_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TraceEvent.from_json({"kind": "nonsense", "fn": "f"})


# ----------------------------------------------------------------------
# JSONL interchange: emit -> parse -> replay.
# ----------------------------------------------------------------------
class TestJsonlRoundTrip:
    def test_replay_counts_equal_live_counts(self):
        stream = io.StringIO()
        _, _, tracer, ring = traced_run(SecondChanceBinpacking(),
                                        extra_sinks=[JsonlSink(stream)])
        assert sum(tracer.counts.values()) > 0
        replayed = list(read_jsonl_trace(stream.getvalue().splitlines()))
        assert replayed == ring.events()
        by_kind = {}
        for event in replayed:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert by_kind == dict(tracer.counts)

    def test_blank_lines_are_skipped(self):
        event = TraceEvent(EventKind.ASSIGN, fn="f", temp="t1", reg="r1")
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit(event)
        text = "\n" + stream.getvalue() + "\n\n"
        assert list(read_jsonl_trace(text.splitlines())) == [event]


# ----------------------------------------------------------------------
# Trace/IR invariants (the acceptance mapping).
# ----------------------------------------------------------------------
ALL_ALLOCATORS = [SecondChanceBinpacking, TwoPassBinpacking, GraphColoring,
                  PolettoLinearScan]


class TestTraceMatchesAllocatedCode:
    @pytest.mark.parametrize("factory", ALL_ALLOCATORS)
    def test_tracing_does_not_perturb_allocation(self, factory):
        machine = tiny(4, 4)
        module = spilly_module(machine)
        plain = CompilationSession(module, machine).run(factory())
        traced = CompilationSession(module, machine).run(
            factory(), trace=Tracer([RingBufferSink()]))
        assert print_module(plain.module) == print_module(traced.module)
        assert outputs_equal(simulate(plain.module, machine).output,
                             simulate(traced.module, machine).output)

    @pytest.mark.parametrize("factory", ALL_ALLOCATORS)
    def test_spill_events_match_spill_instructions(self, factory):
        """Every ``spill_store_emitted`` / ``second_chance_reload`` event
        corresponds to exactly one EVICT-phase store/load in the final IR
        (the peephole only deletes moves, so spill code survives)."""
        _, result, tracer, _ = traced_run(factory())
        stores = loads = 0
        for fn in result.module.functions.values():
            for instr in fn.instructions():
                if instr.spill_phase is SpillPhase.EVICT:
                    if instr.op is Op.STS:
                        stores += 1
                    elif instr.op is Op.LDS:
                        loads += 1
        assert tracer.counts[EventKind.SPILL_STORE_EMITTED] == stores
        assert tracer.counts[EventKind.SECOND_CHANCE_RELOAD] == loads
        assert stores > 0 and loads > 0  # the program must actually spill

    def test_resolution_events_match_resolve_instructions(self):
        _, result, tracer, _ = traced_run(SecondChanceBinpacking())
        resolve_instrs = sum(
            1 for fn in result.module.functions.values()
            for instr in fn.instructions()
            if instr.spill_phase is SpillPhase.RESOLVE)
        assert tracer.counts[EventKind.RESOLUTION_EDGE_FIX] == resolve_instrs

    def test_binpack_emits_its_signature_events(self):
        _, _, tracer, _ = traced_run(SecondChanceBinpacking())
        for kind in (EventKind.ASSIGN, EventKind.EVICT,
                     EventKind.SECOND_CHANCE_RELOAD,
                     EventKind.SPILL_STORE_EMITTED):
            assert tracer.counts[kind] > 0, kind


# ----------------------------------------------------------------------
# Phase profiler.
# ----------------------------------------------------------------------
class TestProfiler:
    def test_nesting_splits_self_from_total(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                sum(range(1000))
        outer, inner = prof.phases["outer"], prof.phases["inner"]
        assert outer.calls == inner.calls == 1
        assert inner.depth == 1 and inner.parent == "outer"
        assert outer.total_ns >= inner.total_ns
        # Parent's self time is its inclusive time minus the children's.
        assert outer.self_ns == outer.total_ns - inner.total_ns
        assert prof.seconds("never-ran") == 0.0

    def test_span_seconds_readable_after_exit(self):
        prof = PhaseProfiler()
        with prof.phase("p") as span:
            pass
        assert span.seconds >= 0.0
        assert span.seconds == pytest.approx(prof.seconds("p"))

    def test_self_seconds_total_equals_root_inclusive(self):
        prof = PhaseProfiler()
        with prof.phase("root"):
            with prof.phase("a"):
                pass
            with prof.phase("b"):
                with prof.phase("c"):
                    pass
        # Self times partition the root's inclusive time by construction.
        assert prof.self_seconds_total() == pytest.approx(
            prof.seconds("root"), abs=1e-9)

    def test_render_orders_parents_before_children(self):
        prof = PhaseProfiler()
        with prof.phase("setup"):
            with prof.phase("setup.cfg"):
                pass
        with prof.phase("allocate"):
            pass
        text = prof.render(title="t")
        # Rows follow the title, header, and separator lines.
        lines = text.splitlines()
        names = [line.split()[0] for line in lines[3:]]
        assert names == ["setup", "setup.cfg", "allocate"]

    def test_profile_reconciles_with_alloc_seconds(self):
        """The acceptance criterion: the profile's ``allocate`` phase and
        ``AllocationStats.alloc_seconds`` agree within 1% — they are the
        same measurement, so in fact they agree exactly."""
        machine = tiny(4, 4)
        prof = PhaseProfiler()
        result = CompilationSession(spilly_module(machine), machine).run(
            SecondChanceBinpacking(), profiler=prof)
        alloc = result.stats.alloc_seconds
        assert alloc > 0
        assert prof.seconds("allocate") == pytest.approx(alloc, rel=0.01)
        assert result.stats.profiler is prof
        # The pipeline phases were timed on the same profiler.
        for name in ("pipeline.dce", "pipeline.peephole", "pipeline.verify",
                     "setup", "allocate.scan", "allocate.resolve"):
            assert name in prof.phases, name


# ----------------------------------------------------------------------
# Metrics registry.
# ----------------------------------------------------------------------
class TestMetrics:
    def test_bump_set_get(self):
        m = MetricsRegistry()
        m.bump("a.b")
        m.bump("a.b", 4)
        m.set("gauge", 2.5)
        assert m.get("a.b") == 5
        assert m.get("gauge") == 2.5
        assert m.get("missing") == 0
        assert "a.b" in m and "missing" not in m
        assert len(m) == 2

    def test_snapshot_diff(self):
        m = MetricsRegistry()
        m.bump("x", 2)
        before = m.snapshot()
        m.bump("x", 3)
        m.bump("y")
        m.bump("z", 0)  # created but unchanged: not in the diff
        assert m.diff(before) == {"x": 3, "y": 1}
        assert before == {"x": 2}  # snapshot is an independent copy

    def test_render_filters_by_prefix(self):
        m = MetricsRegistry()
        m.bump("alloc.spills", 3)
        m.bump("sim.cycles", 9)
        text = m.render(prefix="alloc.")
        assert "alloc.spills" in text and "sim.cycles" not in text

    def test_pipeline_publishes_layered_counters(self):
        machine = tiny(4, 4)
        metrics = MetricsRegistry()
        session = CompilationSession(spilly_module(machine), machine,
                                     metrics=metrics)
        result = session.run(SecondChanceBinpacking(), metrics=metrics)
        assert result.stats.metrics is metrics
        for key in ("alloc.candidates", "alloc.functions",
                    "alloc.spill.evict.store", "binpack.scan.placements",
                    "pipeline.dce.removed",
                    "pipeline.peephole.moves_removed"):
            assert key in metrics, key
        # Metric mirrors the stats field it was published from.
        assert (metrics.get("alloc.candidates")
                == result.stats.total_candidates())
        simulate(result.module, machine, metrics=metrics)
        assert metrics.get("sim.dynamic.instructions") > 0
        assert metrics.get("sim.spill.evict.store") > 0
