"""Property-based tests: random programs through every allocator must
preserve observable behaviour, and core data structures obey their
invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocators import (
    GraphColoring,
    PolettoLinearScan,
    SecondChanceBinpacking,
    TwoPassBinpacking,
)
from repro.allocators.binpack.allocator import BinpackOptions
from repro.cfg.cfg import CFG
from repro.dataflow.liveness import compute_liveness
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.validate import validate_module
from repro.lifetimes.intervals import RangeSet, compute_lifetimes
from repro.pm.session import CompilationSession
from repro.sim.machine import outputs_equal, simulate
from repro.target import alpha, tiny
from repro.workloads.synthetic import random_module

MACHINES = [tiny(4, 4), tiny(6, 6), tiny(8, 8)]

END_TO_END = settings(max_examples=12, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])


def _oracle(module, machine, allocator):
    reference = simulate(module, machine, max_steps=2_000_000)
    result = CompilationSession(module, machine).run(allocator)
    outcome = simulate(result.module, machine, max_steps=4_000_000)
    assert outputs_equal(outcome.output, reference.output), (
        f"{allocator.name}: {reference.output[:8]} vs {outcome.output[:8]}")


class TestEndToEnd:
    @given(seed=st.integers(0, 10_000), machine_idx=st.integers(0, 2))
    @END_TO_END
    def test_second_chance_preserves_behaviour(self, seed, machine_idx):
        machine = MACHINES[machine_idx]
        module = random_module(seed, machine, size=18)
        _oracle(module, machine, SecondChanceBinpacking())

    @given(seed=st.integers(0, 10_000), machine_idx=st.integers(0, 2))
    @END_TO_END
    def test_coloring_preserves_behaviour(self, seed, machine_idx):
        machine = MACHINES[machine_idx]
        module = random_module(seed, machine, size=18)
        _oracle(module, machine, GraphColoring())

    @given(seed=st.integers(0, 10_000), machine_idx=st.integers(0, 2))
    @END_TO_END
    def test_two_pass_preserves_behaviour(self, seed, machine_idx):
        machine = MACHINES[machine_idx]
        module = random_module(seed, machine, size=18)
        _oracle(module, machine, TwoPassBinpacking())

    @given(seed=st.integers(0, 10_000), machine_idx=st.integers(0, 2))
    @END_TO_END
    def test_poletto_preserves_behaviour(self, seed, machine_idx):
        machine = MACHINES[machine_idx]
        module = random_module(seed, machine, size=18)
        _oracle(module, machine, PolettoLinearScan())

    @given(seed=st.integers(0, 10_000),
           holes=st.booleans(), esc=st.booleans(), moves=st.booleans(),
           cons=st.booleans(), conservative=st.booleans())
    @settings(max_examples=16, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_binpack_option_combination(self, seed, holes, esc, moves,
                                              cons, conservative):
        machine = tiny(5, 5)
        module = random_module(seed, machine, size=15)
        options = BinpackOptions(
            use_holes=holes, early_second_chance=esc, move_elimination=moves,
            avoid_consistent_stores=cons,
            conservative_consistency=conservative)
        _oracle(module, machine, SecondChanceBinpacking(options))


class TestStructuralProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_generated_modules_validate_and_round_trip(self, seed):
        machine = tiny(6, 6)
        module = random_module(seed, machine, size=20)
        validate_module(module)
        text = print_module(module)
        assert print_module(parse_module(text)) == text

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_lifetime_invariants(self, seed):
        machine = tiny(6, 6)
        module = random_module(seed, machine, size=20)
        for fn in module.functions.values():
            table = compute_lifetimes(fn, machine)
            for temp, lifetime in table.temps.items():
                ranges = list(lifetime.live)
                # Sorted, disjoint, non-empty, within the function.
                assert all(r.start < r.end for r in ranges)
                assert all(a.end <= b.start for a, b in zip(ranges, ranges[1:]))
                assert lifetime.start >= 0
                assert lifetime.end <= table.max_point
                # Every reference point is covered by a live range
                # (uses read a live value; defs begin one).
                for point in table.ref_points[temp]:
                    if point % 2 == 0:  # use point
                        assert lifetime.alive_at(point), (temp, point)
                    else:
                        assert lifetime.alive_at(point), (temp, point)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_liveness_matches_lifetime_block_boundaries(self, seed):
        machine = tiny(6, 6)
        module = random_module(seed, machine, size=20)
        for fn in module.functions.values():
            cfg = CFG.build(fn)
            liveness = compute_liveness(fn, cfg)
            table = compute_lifetimes(fn, machine, cfg, liveness)
            reachable = cfg.reachable()
            for block in fn.blocks:
                if block.label not in reachable:
                    continue
                start, _end = table.block_span[block.label]
                for temp in liveness.live_in_temps(block.label):
                    assert table.temps[temp].alive_at(start), (
                        f"{temp} live-in {block.label} but not covered")


ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 200)).map(
        lambda p: (min(p), max(p))),
    max_size=12)


class TestRangeSetProperties:
    @given(ranges_strategy)
    def test_normalization(self, raw):
        rs = RangeSet(raw)
        ranges = list(rs)
        assert all(r.start < r.end for r in ranges)
        assert all(a.end < b.start for a, b in zip(ranges, ranges[1:]))

    @given(ranges_strategy, st.integers(-5, 205))
    def test_covers_matches_naive(self, raw, point):
        rs = RangeSet(raw)
        naive = any(s <= point < e for s, e in raw if s < e)
        assert rs.covers(point) == naive

    @given(ranges_strategy, ranges_strategy)
    def test_overlaps_matches_naive(self, raw_a, raw_b):
        a, b = RangeSet(raw_a), RangeSet(raw_b)
        points_b = {p for s, e in raw_b if s < e for p in (s, e - 1)}
        naive = any(a.covers(p) for p in points_b) or any(
            b.covers(p) for s, e in raw_a if s < e for p in (s, e - 1))
        assert a.overlaps(b) == naive
        assert a.overlaps(b) == b.overlaps(a)

    @given(ranges_strategy, st.integers(0, 205))
    def test_clip_drops_only_earlier_points(self, raw, start):
        rs = RangeSet(raw)
        clipped = rs.clip(start)
        for point in range(max(0, start - 3), min(206, start + 50)):
            if point < start:
                assert not clipped.covers(point)
            else:
                assert clipped.covers(point) == rs.covers(point)

    @given(ranges_strategy, st.integers(-5, 205))
    def test_next_covered_is_first(self, raw, point):
        rs = RangeSet(raw)
        nxt = rs.next_covered_at_or_after(point)
        if nxt is None:
            assert all(not rs.covers(p) for p in range(point, 210))
        else:
            assert rs.covers(nxt)
            assert all(not rs.covers(p) for p in range(point, nxt))


def _model_rangeset(raw):
    """The original sort-merge construction, as the oracle for the flat
    parallel-array representation."""
    merged = []
    for start, end in sorted(raw):
        if start >= end:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [tuple(pair) for pair in merged]


class TestFlatRangeSetMatchesModel:
    """The flat-array RangeSet against the old construction semantics."""

    @given(ranges_strategy)
    def test_generic_construction_matches_model(self, raw):
        rs = RangeSet(raw)
        assert [(r.start, r.end) for r in rs] == _model_rangeset(raw)

    @given(ranges_strategy)
    def test_reverse_sweep_matches_model_on_descending_input(self, raw):
        # compute_lifetimes appends each temp's ranges with non-increasing
        # starts; the no-sort path must agree with the sorting one.
        descending = sorted(raw, reverse=True)
        rs = RangeSet.from_reverse_sweep(descending)
        assert [(r.start, r.end) for r in rs] == _model_rangeset(raw)
        assert rs == RangeSet(raw)

    @given(ranges_strategy)
    def test_reverse_sweep_falls_back_on_unsorted_input(self, raw):
        # Arbitrary (possibly unsorted) input must still normalize
        # correctly via the fallback, never silently mis-merge.
        rs = RangeSet.from_reverse_sweep(raw)
        assert [(r.start, r.end) for r in rs] == _model_rangeset(raw)

    @given(ranges_strategy, st.integers(-5, 205))
    def test_flat_queries_match_range_objects(self, raw, point):
        rs = RangeSet(raw)
        ranges = list(rs)  # materialized Range boundary
        assert rs.covers(point) == any(point in r for r in ranges)
        assert len(rs) == len(ranges)
        assert bool(rs) == bool(ranges)
        if ranges:
            assert rs.start == ranges[0].start
            assert rs.end == ranges[-1].end
