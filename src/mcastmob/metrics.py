"""Run statistics: route-efficiency ratio, added-link distributions, aggregation.

Percentiles use the nearest-rank convention on an ascending sort. Added-link
(L) statistics cover handoff samples only; the establishment join is tree
setup, not a handoff. The B/L ratio divides per-run means (av.B / av.L)
because L is frequently zero for individual steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean

# Headline averages of the original wide-area evaluation. Emitted as
# annotations for side-by-side comparison, never asserted: the topology
# instances behind them are not reproducible.
REFERENCE = {
    "mean_r": 2.11,
    "mean_L": 2.51,
    "b_over_l": 2.31,
    "total_ab": 11_157,
    "total_c": 6_208,
}


def nearest_rank_p90(values):
    """90th percentile, nearest-rank: element ceil(0.9 n) of the ascending sort."""
    if not values:
        raise ValueError("p90 of empty sequence")
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


@dataclass(frozen=True)
class RunStats:
    """Aggregates of one run's StepSamples, where sample i is step i.

    r statistics and link totals cover every sample; L statistics and
    mean_b cover the `handoffs` samples after sample 0, the establishment.
    b_over_l is None when there are no handoffs or mean_L is zero.
    """

    samples: int
    handoffs: int
    total_c: int
    total_ab: int
    mean_r: float
    p90_r: float
    max_r: float
    mean_L: float
    p90_L: float
    max_L: float
    mean_b: float
    b_over_l: float | None


def run_stats(samples) -> RunStats:
    """The RunStats of one run's samples: sample i is step i, sample 0 the establishment."""
    if not samples:
        raise ValueError("run_stats needs at least one sample")
    for i, s in enumerate(samples):
        if s.c_hops < 1:
            raise ValueError(f"sample {i} has c_hops < 1; r is undefined")
    ratios = [(s.a_hops + s.b_hops) / s.c_hops for s in samples]
    moves = samples[1:]
    added = [s.added_links for s in moves]
    mean_l = fmean(added) if added else 0.0
    mean_b = fmean(s.b_hops for s in moves) if moves else 0.0
    return RunStats(
        samples=len(samples),
        handoffs=len(moves),
        total_c=sum(s.c_hops for s in samples),
        total_ab=sum(s.a_hops + s.b_hops for s in samples),
        mean_r=fmean(ratios),
        p90_r=nearest_rank_p90(ratios),
        max_r=max(ratios),
        mean_L=mean_l,
        p90_L=float(nearest_rank_p90(added)) if added else 0.0,
        max_L=float(max(added)) if added else 0.0,
        mean_b=mean_b,
        b_over_l=(mean_b / mean_l) if mean_l > 0 else None,  # mean_l is 0.0 with no handoff
    )


@dataclass(frozen=True)
class RunRecord:
    """One run's stats tagged with its scenario coordinates."""

    topology: str
    topo_type: str
    model: str
    nodes: int
    run_index: int
    child_seed: int
    stats: RunStats


@dataclass(frozen=True)
class GroupStats:
    """Two-level averages for one (topology type, movement model) group.

    Level one averages each topology's runs; level two averages across
    topologies of the type. max_* fields come in two flavors: *_avg is the
    mean of per-topology maxima, the bare field the absolute maximum.
    total_c/total_ab are per-topology sums (all runs pooled) averaged across
    topologies; bw_ratio is the plain grand-sum ratio sum(a+b)/sum(c).
    """

    topo_type: str
    model: str
    topologies: int
    runs: int
    mean_r: float
    p90_r: float
    max_r_avg: float
    max_r: float
    mean_L: float
    p90_L: float
    max_L_avg: float
    max_L: float
    b_over_l: float | None
    total_c: float
    total_ab: float
    bw_ratio: float


@dataclass(frozen=True)
class AggregateStats:
    rows: tuple[GroupStats, ...]

    def overall(self, field):
        """Mean of `field` over the groups that have it; None when none has."""
        values = [getattr(r, field) for r in self.rows if getattr(r, field) is not None]
        return fmean(values) if values else None

    def overall_bw_ratio(self):
        total_ab = sum(r.total_ab * r.topologies for r in self.rows)
        total_c = sum(r.total_c * r.topologies for r in self.rows)
        return total_ab / total_c


def group_stats(records) -> GroupStats:
    """The GroupStats of one group's RunRecords; of one topology, its level-one values."""
    by_topo: dict[str, list[RunStats]] = {}
    for rec in records:
        by_topo.setdefault(rec.topology, []).append(rec.stats)
    per_topo = [stats for _, stats in sorted(by_topo.items())]

    def level_one(field, reduce=fmean):
        return [reduce(getattr(s, field) for s in stats) for stats in per_topo]

    max_r, max_l = level_one("max_r", max), level_one("max_L", max)
    total_c, total_ab = level_one("total_c", sum), level_one("total_ab", sum)
    known_bols = level_one("b_over_l", lambda values: [v for v in values if v is not None])
    bols = [fmean(known) for known in known_bols if known]
    return GroupStats(
        topo_type=records[0].topo_type,
        model=records[0].model,
        topologies=len(per_topo),
        runs=len(records),
        mean_r=fmean(level_one("mean_r")),
        p90_r=fmean(level_one("p90_r")),
        max_r_avg=fmean(max_r),
        max_r=max(max_r),
        mean_L=fmean(level_one("mean_L")),
        p90_L=fmean(level_one("p90_L")),
        max_L_avg=fmean(max_l),
        max_L=max(max_l),
        b_over_l=fmean(bols) if bols else None,
        total_c=fmean(total_c),
        total_ab=fmean(total_ab),
        bw_ratio=sum(total_ab) / sum(total_c),
    )


def aggregate(records) -> AggregateStats:
    """Group RunRecords by (topology type, movement model), two-level averaged.

    Order independent: permuting the input yields the same table.
    """
    if not records:
        raise ValueError("aggregate needs at least one record")
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.topo_type, rec.model), []).append(rec)
    return AggregateStats(rows=tuple(group_stats(g) for _, g in sorted(groups.items())))
