"""Report tables: every CSV writer's bytes against a csv-module reference, and `fmt`."""

import csv
import io
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from mcastmob import reporting
from mcastmob.experiment import RunResult
from mcastmob.metrics import AggregateStats, GroupStats, RunRecord, RunStats, group_stats
from mcastmob.movement import MovementTrace
from mcastmob.reporting import fmt
from mcastmob.routing import StepSample


def _csv_module(header, rows):
    """A table's bytes as the csv module writes them, one line per row."""
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")
    table.writerow(header)
    table.writerows(rows)
    return buf.getvalue().encode()


def _reference_samples(samples):
    return _csv_module(("step", "a", "b", "c", "added", "removed"), (
        (i, s.a_hops, s.b_hops, s.c_hops, s.added_links, s.removed_links)
        for i, s in enumerate(samples)))


def _reference_trace(trace):
    return _csv_module(("step_index", "node_id"), enumerate(trace.steps))


def _reference_run_stats(results):
    rows = []
    for res in results:
        rec, s = res.record, res.record.stats
        rows.append(map(fmt, (
            rec.topology, rec.topo_type, rec.model, rec.run_index, rec.child_seed, rec.nodes,
            res.cn, res.ha, s.samples, s.handoffs, s.mean_r, s.p90_r, s.max_r, s.mean_L,
            s.p90_L, s.max_L, s.mean_b, s.b_over_l, s.total_c, s.total_ab)))
    return _csv_module(reporting.RUN_STATS_COLUMNS, rows)


def _reference_aggregate(agg):
    return _csv_module(reporting.AGGREGATE_COLUMNS, (
        map(fmt, (g.topo_type, g.model, g.topologies, g.runs, g.mean_r, g.p90_r, g.max_r_avg,
                  g.max_r, g.mean_L, g.p90_L, g.max_L_avg, g.max_L, g.b_over_l, g.total_c,
                  g.total_ab, g.bw_ratio))
        for g in agg.rows))


def _reference_summary(results):
    by_key = {}
    for res in results:
        by_key.setdefault((res.record.topology, res.record.model), []).append(res.record)
    rows = []
    for (topo, model), records in sorted(by_key.items()):
        g = group_stats(records)
        rows += [(topo, model, metric, *map(fmt, cells)) for metric, *cells in (
            ("r", g.mean_r, g.p90_r, g.max_r),
            ("L", g.mean_L, g.p90_L, g.max_L),
            ("b_over_l", g.b_over_l, None, None),
            ("total_c", g.total_c, None, None),
            ("total_ab", g.total_ab, None, None),
        )]
    return _csv_module(("topology", "model", "metric", "mean", "p90", "max"), rows)


_LABELS = st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True)
_INTS = st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=2**64)
# integral, fractional and >= 1e15 values, and inf; bounded so a summary's sums stay finite
_FLOATS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.3, 2.5, 1e15 - 1, 1e15, 1e15 + 2, 999999999999999.9, 2.0**53,
                     1e300, math.inf]),
    st.integers(min_value=0, max_value=10**17).map(float),
    st.floats(min_value=0, max_value=1e300),
)
_RATIOS = st.none() | _FLOATS


@st.composite
def _results(draw):
    """Run results over a few topologies and models, as the run tables read them."""
    topologies = draw(st.lists(_LABELS, min_size=1, max_size=3))
    results = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        stats = RunStats(
            samples=draw(_INTS), handoffs=draw(_INTS), total_c=draw(_INTS) + 1,
            total_ab=draw(_INTS), mean_r=draw(_FLOATS), p90_r=draw(_FLOATS),
            max_r=draw(_FLOATS), mean_L=draw(_FLOATS), p90_L=draw(_FLOATS), max_L=draw(_FLOATS),
            mean_b=draw(_FLOATS), b_over_l=draw(_RATIOS))
        record = RunRecord(
            topology=draw(st.sampled_from(topologies)), topo_type="transit_stub",
            model=draw(st.sampled_from(["random", "neighbor", "cluster"])), nodes=draw(_INTS),
            run_index=draw(_INTS), child_seed=draw(_INTS), stats=stats)
        results.append(RunResult(record, draw(_INTS), draw(_INTS), MovementTrace(()), ()))
    return results


_GROUPS = st.builds(
    GroupStats, topo_type=_LABELS, model=_LABELS, topologies=_INTS, runs=_INTS,
    mean_r=_FLOATS, p90_r=_FLOATS, max_r_avg=_FLOATS, max_r=_FLOATS, mean_L=_FLOATS,
    p90_L=_FLOATS, max_L_avg=_FLOATS, max_L=_FLOATS, b_over_l=_RATIOS, total_c=_FLOATS,
    total_ab=_FLOATS, bw_ratio=_FLOATS)
_SAMPLES = st.lists(st.builds(StepSample, _INTS, _INTS, _INTS, _INTS, _INTS), max_size=12)


@settings(max_examples=100, deadline=None)
@given(samples=_SAMPLES, steps=st.lists(_INTS, max_size=12), results=_results(),
       groups=st.lists(_GROUPS, max_size=4))
def test_every_table_equals_the_csv_module_rendering(samples, steps, results, groups):
    """Each report table's bytes are the csv module's for the same cells: no cell is quoted."""
    trace, agg = MovementTrace(tuple(steps)), AggregateStats(rows=tuple(groups))
    tables = (
        (reporting.write_run_samples, samples, _reference_samples),
        (reporting.write_trace, trace, _reference_trace),
        (reporting.write_run_stats, results, _reference_run_stats),
        (reporting.write_aggregate, agg, _reference_aggregate),
        (reporting.write_summary, results, _reference_summary),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for write, data, reference in tables:
            path = os.path.join(tmp, "report", f"{write.__name__}.csv")
            write(path, data)
            with open(path, "rb") as fh:
                assert fh.read() == reference(data), write.__name__


def test_fmt_prints_integral_floats_as_ints_below_1e15_only():
    assert [fmt(v) for v in (1e15 - 1, 1e15, 1e15 + 2, 2.0**53)] == [
        "999999999999999", "1e+15", "1e+15", "9.0072e+15"]
    assert [fmt(v) for v in (None, 0, 7, 0.0, 3.0, 0.3, math.inf, "ts50")] == [
        "", "0", "7", "0", "3", "0.3", "inf", "ts50"]


def test_a_bare_file_name_is_written_in_the_working_directory(tmp_path, monkeypatch):
    """A path with no directory part makes no directory: `os.makedirs("")` would raise."""
    monkeypatch.chdir(tmp_path)
    reporting.write_handoff("handoff.csv", [])
    reporting.write_trace("trace.csv", MovementTrace((3, 1)))
    assert (tmp_path / "handoff.csv").read_bytes() == (
        ",".join(reporting.HANDOFF_COLUMNS) + "\n").encode()
    assert (tmp_path / "trace.csv").read_bytes() == b"step_index,node_id\n0,3\n1,1\n"
