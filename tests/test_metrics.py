"""Statistics pipeline: run stats against an independent recomputation,
and aggregation semantics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob.metrics import (
    REFERENCE,
    RunRecord,
    RunStats,
    aggregate,
    nearest_rank_p90,
    run_stats,
)
from mcastmob.routing import StepSample

from conftest import group_rows


def sample(a, b, c, added=0, removed=0):
    return StepSample(a, b, c, added, removed)


def naive_stats(samples):
    """Spreadsheet-style recomputation, kept separate from the implementation."""
    ratios = []
    for s in samples:
        ratios.append((s.a_hops + s.b_hops) / s.c_hops)
    ratios_sorted = list(ratios)
    ratios_sorted.sort()
    idx = -(-9 * len(ratios_sorted) // 10) - 1  # ceil(0.9 n) - 1 without floats
    moves = samples[1:]  # sample 0 is the establishment
    ls = sorted(s.added_links for s in moves)
    out = {
        "mean_r": sum(ratios) / len(ratios),
        "p90_r": ratios_sorted[idx],
        "max_r": ratios_sorted[-1],
        "total_c": sum(s.c_hops for s in samples),
        "total_ab": sum(s.a_hops + s.b_hops for s in samples),
    }
    if moves:
        l_idx = -(-9 * len(ls) // 10) - 1
        out["mean_L"] = sum(ls) / len(ls)
        out["p90_L"] = ls[l_idx]
        out["max_L"] = ls[-1]
        out["mean_b"] = sum(s.b_hops for s in moves) / len(moves)
    return out


class TestRunStats:
    def test_identical_samples_ratio_one(self):
        samples = [sample(2, 3, 5) for _ in range(8)]
        stats = run_stats(samples)
        assert stats.mean_r == 1.0
        assert stats.total_ab == stats.total_c

    def test_two_sample_mean(self):
        samples = [sample(2, 2, 2), sample(3, 3, 3)]
        assert run_stats(samples).mean_r == 2.0

    def test_matches_independent_recomputation(self):
        rng = random.Random(42)
        samples = []
        for i in range(1000):
            c = rng.randrange(1, 11)
            slack = rng.randrange(0, 9)
            a = rng.randrange(0, c + slack + 1)
            b = c + slack - a
            samples.append(sample(a, b, c, added=rng.randrange(0, 7)))
        stats = run_stats(samples)
        expect = naive_stats(samples)
        for field, value in expect.items():
            assert getattr(stats, field) == pytest.approx(value, rel=1e-12), field
        assert stats.b_over_l == pytest.approx(expect["mean_b"] / expect["mean_L"], rel=1e-12)

    def test_percentile_convention(self):
        assert nearest_rank_p90(list(range(1, 11))) == 9  # ceil(9) = 9th of ten
        assert nearest_rank_p90([5]) == 5
        assert nearest_rank_p90([1, 2]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_stats([])
        with pytest.raises(ValueError):
            nearest_rank_p90([])

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError, match="c_hops"):
            run_stats([sample(1, 1, 0)])

    def test_b_over_l_none_when_stationary(self):
        samples = [sample(1, 2, 3, added=3)] + [sample(1, 2, 3) for _ in range(4)]
        stats = run_stats(samples)
        assert stats.mean_L == 0.0
        assert stats.b_over_l is None

    def test_p90_and_max_not_below_mean(self):
        rng = random.Random(3)
        samples = [
            sample(rng.randrange(0, 6), rng.randrange(0, 6), rng.randrange(1, 6),
                   added=rng.randrange(0, 5))
            for _ in range(50)
        ]
        for i, s in enumerate(samples):
            if s.a_hops + s.b_hops < s.c_hops:
                samples[i] = sample(s.c_hops, 0, s.c_hops)
        stats = run_stats(samples)
        assert stats.p90_r >= stats.mean_r or math.isclose(stats.p90_r, stats.mean_r)
        assert stats.max_r >= stats.p90_r
        assert stats.max_L >= stats.p90_L >= 0


def _record(topo, ttype, model, nodes, mean_r=2.0, mean_L=1.0, b_over_l=2.0, run=0,
            total_c=100, total_ab=200, max_r=3.0):
    stats = RunStats(
        samples=10, handoffs=9, total_c=total_c, total_ab=total_ab, mean_r=mean_r,
        p90_r=mean_r, max_r=max_r, mean_L=mean_L, p90_L=mean_L, max_L=mean_L,
        mean_b=b_over_l * mean_L if b_over_l else 0.0, b_over_l=b_over_l,
    )
    return RunRecord(topo, ttype, model, nodes, run, child_seed=run, stats=stats)


class TestAggregate:
    def test_single_run_passthrough(self):
        agg = aggregate([_record("t1", "ts", "random", 50, mean_r=1.7)])
        row = group_rows(agg)["ts", "random"]
        assert row.mean_r == 1.7
        assert row.runs == 1 and row.topologies == 1

    def test_group_mean(self):
        agg = aggregate(
            [
                _record("t1", "ts", "random", 50, mean_r=1.5),
                _record("t2", "ts", "random", 60, mean_r=2.5),
            ]
        )
        assert group_rows(agg)["ts", "random"].mean_r == 2.0

    def test_two_level_averaging(self):
        # topology t1 has two runs (1.0, 3.0 -> 2.0), t2 one run (4.0):
        # the group mean is (2.0 + 4.0) / 2, not the pooled (1+3+4)/3
        agg = aggregate(
            [
                _record("t1", "ts", "random", 50, mean_r=1.0, run=0),
                _record("t1", "ts", "random", 50, mean_r=3.0, run=1),
                _record("t2", "ts", "random", 60, mean_r=4.0),
            ]
        )
        assert group_rows(agg)["ts", "random"].mean_r == 3.0

    def test_max_variants(self):
        agg = aggregate(
            [
                _record("t1", "ts", "random", 50, max_r=5.0),
                _record("t2", "ts", "random", 60, max_r=9.0),
            ]
        )
        row = group_rows(agg)["ts", "random"]
        assert row.max_r_avg == 7.0
        assert row.max_r == 9.0

    def test_totals_sum_runs_then_average_topologies(self):
        agg = aggregate(
            [
                _record("t1", "ts", "random", 50, total_c=100, total_ab=150, run=0),
                _record("t1", "ts", "random", 50, total_c=100, total_ab=150, run=1),
                _record("t2", "ts", "random", 60, total_c=300, total_ab=600),
            ]
        )
        row = group_rows(agg)["ts", "random"]
        assert row.total_c == (200 + 300) / 2
        assert row.bw_ratio == (300 + 600) / (200 + 300)

    def test_order_independence(self):
        records = [
            _record(f"t{i}", "ts" if i % 2 else "r", "random" if i % 3 else "cluster",
                    40 + i, mean_r=1.0 + i / 7, run=i)
            for i in range(12)
        ]
        shuffled = list(records)
        random.Random(1).shuffle(shuffled)
        assert aggregate(records) == aggregate(shuffled)

    def test_overall_uses_reference_keys(self):
        agg = aggregate([_record("t1", "ts", "random", 50)])
        for key in ("mean_r", "mean_L", "b_over_l"):
            assert key in REFERENCE
            assert agg.overall(key) is not None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # topology index
            st.sampled_from(["random", "neighbor", "cluster"]),
            st.floats(min_value=1.0, max_value=9.0),
        ),
        min_size=1,
        max_size=20,
    ),
    seed=st.integers(min_value=0, max_value=999),
)
def test_aggregate_permutation_invariant(data, seed):
    records = [
        _record(f"t{ti}", "ts" if ti % 2 else "r", model, 40 + ti, mean_r=r, run=i)
        for i, (ti, model, r) in enumerate(data)
    ]
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    assert aggregate(records) == aggregate(shuffled)
