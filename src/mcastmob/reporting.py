"""CSV and SVG emission for experiment reports.

Everything written here is a pure function of the experiment results: no
timestamps, no environment leakage, stable ordering and number formatting,
so re-running a scenario reproduces the report directory byte for byte.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import sys
from html import escape

from .metrics import REFERENCE, group_stats


def fmt(value):
    """Stable, compact number formatting for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return format(value, ".6g")
    return str(value)


def _write(path, chunks):
    """Write the strs of `chunks`, in order, to `path`, making its directory first."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _write_table(path, header, lines):
    """One CSV file, streamed: the `header` names, then `lines`, each a finished line.

    No cell needs quoting (README, "Report layout"), so the bytes are the csv
    module's, and no table is held as one string.
    """
    _write(path, itertools.chain((",".join(header) + "\n",), lines))


def write_run_samples(path, samples):
    """One row per sample, numbered by its position: sample i is step i."""
    _write_table(path, ("step", "a", "b", "c", "added", "removed"), (
        f"{i},{s.a_hops},{s.b_hops},{s.c_hops},{s.added_links},{s.removed_links}\n"
        for i, s in enumerate(samples)))


def write_trace(path, trace):
    _write_table(path, ("step_index", "node_id"),
                 (f"{i},{node}\n" for i, node in enumerate(trace.steps)))


RUN_STATS_COLUMNS = (
    "topology", "type", "model", "run", "child_seed", "nodes", "cn", "ha", "samples", "handoffs",
    "mean_r", "p90_r", "max_r", "mean_L", "p90_L", "max_L", "mean_b", "b_over_l", "total_c",
    "total_ab",
)


def write_run_stats(path, results):
    def lines():
        for res in results:
            rec, s = res.record, res.record.stats
            yield ",".join(map(fmt, (
                rec.topology, rec.topo_type, rec.model, rec.run_index, rec.child_seed, rec.nodes,
                res.cn, res.ha, s.samples, s.handoffs, s.mean_r, s.p90_r, s.max_r, s.mean_L,
                s.p90_L, s.max_L, s.mean_b, s.b_over_l, s.total_c, s.total_ab,
            ))) + "\n"

    _write_table(path, RUN_STATS_COLUMNS, lines())


AGGREGATE_COLUMNS = (
    "type", "model", "topologies", "runs", "mean_r", "p90_r", "max_r_avg", "max_r",
    "mean_L", "p90_L", "max_L_avg", "max_L", "b_over_l", "total_c", "total_ab", "bw_ratio",
)


def write_aggregate(path, agg):
    _write_table(path, AGGREGATE_COLUMNS, (
        ",".join(map(fmt, (
            g.topo_type, g.model, g.topologies, g.runs, g.mean_r, g.p90_r, g.max_r_avg, g.max_r,
            g.mean_L, g.p90_L, g.max_L_avg, g.max_L, g.b_over_l, g.total_c, g.total_ab,
            g.bw_ratio,
        ))) + "\n"
        for g in agg.rows
    ))


def write_summary(path, results):
    """Per (topology, movement) metric table: mean / p90 / max columns.

    Rows are `metrics.group_stats` of one topology's runs: r and L carry all
    three statistics (averaged over runs; max is the max across runs);
    b_over_l and the link totals only have a mean (totals summed over runs).
    """
    by_key: dict[tuple[str, str], list] = {}
    for res in results:
        by_key.setdefault((res.record.topology, res.record.model), []).append(res.record)

    def lines():
        for (topo, model), records in sorted(by_key.items()):
            g = group_stats(records)
            for metric, *cells in (
                ("r", g.mean_r, g.p90_r, g.max_r),
                ("L", g.mean_L, g.p90_L, g.max_L),
                ("b_over_l", g.b_over_l, None, None),
                ("total_c", g.total_c, None, None),
                ("total_ab", g.total_ab, None, None),
            ):
                yield ",".join((topo, model, metric, *map(fmt, cells))) + "\n"

    _write_table(path, ("topology", "model", "metric", "mean", "p90", "max"), lines())


HANDOFF_COLUMNS = (
    "topology", "model", "run", "step", "strategy", "L", "B", "latency_ms", "lost", "dup",
    "out_of_order", "control_msgs",
)


def write_handoff(path, rows):
    """handoff.csv, streamed: `rows` is a list of `experiment.HandoffRow`s.

    Rows of one simulation share its report, so each report's five cells are
    formatted once, keyed by its id, which the list keeps alive.
    """
    tails = {}  # id(report) -> its five cells and the line end

    def lines():
        for row in rows:
            rep = row.report
            tail = tails.get(id(rep))
            if tail is None:
                tail = tails[id(rep)] = (f"{fmt(rep.handoff_latency)},{rep.packets_lost},"
                                         f"{rep.packets_duplicated},{rep.out_of_order},"
                                         f"{rep.control_messages}\n")
            yield (f"{row.topology},{row.model},{row.run_index},{row.step},{row.strategy},"
                   f"{row.graft_links},{row.b_hops},{tail}")

    _write_table(path, HANDOFF_COLUMNS, lines())


def write_report_json(path, payload):
    _write(path, (json.dumps(payload, sort_keys=True, indent=2), "\n"))


_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")


def svg_grouped_bars(title, ylabel, groups, series, values, references=()):
    """Self-contained grouped bar chart; deterministic text output.

    groups and series are non-empty; values maps (group, series) -> number or
    None; references is a list of (label, value) horizontal dashed annotation lines.
    """
    width, height = 760, 430
    left, right, top, bottom = 70, 20, 40, 80
    plot_w, plot_h = width - left - right, height - top - bottom
    numbers = [v for v in values.values() if v is not None]
    numbers.extend(v for _, v in references)
    # headroom above the tallest bar, which must not overflow a finite maximum to inf
    ymax = min(max(numbers, default=1.0) * 1.15, sys.float_info.max) or 1.0

    def y(v):
        return top + plot_h - (v / ymax) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{width / 2:g}" y="22" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{escape(title)}</text>',
        f'<text x="16" y="{top + plot_h / 2:g}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {top + plot_h / 2:g})">'
        f'{escape(ylabel)}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.25, 0.5, 0.75, 1.0):
        val = ymax * frac
        parts.append(
            f'<line x1="{left - 4}" y1="{y(val):.2f}" x2="{left}" y2="{y(val):.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y(val) + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{val:.4g}</text>'
        )
    group_w = plot_w / len(groups)
    bar_w = group_w * 0.8 / len(series)
    for gi, group in enumerate(groups):
        gx = left + gi * group_w
        for si, name in enumerate(series):
            val = values.get((group, name))
            if val is None:
                continue
            x = gx + group_w * 0.1 + si * bar_w
            parts.append(
                f'<rect x="{x:.2f}" y="{y(val):.2f}" width="{bar_w:.2f}" '
                f'height="{top + plot_h - y(val):.2f}" fill="{_PALETTE[si % len(_PALETTE)]}"/>'
            )
        parts.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{top + plot_h + 16}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle">{escape(group)}</text>'
        )
    for ri, (label, val) in enumerate(references):
        parts.append(
            f'<line x1="{left}" y1="{y(val):.2f}" x2="{left + plot_w}" y2="{y(val):.2f}" '
            'stroke="#555555" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 4}" y="{y(val) - 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" fill="#555555">{escape(label)} {val:g}</text>'
        )
    legend_y = height - 36
    lx = left
    for si, name in enumerate(series):
        parts.append(
            f'<rect x="{lx}" y="{legend_y}" width="12" height="12" '
            f'fill="{_PALETTE[si % len(_PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{lx + 16}" y="{legend_y + 10}" font-family="sans-serif" '
            f'font-size="11">{escape(name)}</text>'
        )
        lx += 16 + 8 * len(name) + 24
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_csv(path, columns, numbers):
    """Rows of a CSV file as dicts; ValueError unless it has `columns` and no ragged row.

    The cells of the `numbers` columns become floats, or None where empty; a
    cell that is not a finite number >= 0 is named by its line and column.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns + numbers if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the columns {', '.join(missing)}")
        rows = []
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"{path} line {reader.line_num} does not match its header")
            for column in numbers:
                cell = row[column]
                try:
                    row[column] = float(cell) if cell else None
                except ValueError:
                    row[column] = math.nan
                if row[column] is not None and not 0 <= row[column] < math.inf:
                    raise ValueError(f"{path} line {reader.line_num} column {column}: "
                                     f"{cell!r} is not a finite number >= 0")
            rows.append(row)
    return rows


_PLOT_NUMBERS = ("mean_r", "mean_L", "b_over_l", "total_ab", "total_c")


def render_plots(report_dir):
    """Render grouped bar charts from an existing aggregate.csv.

    Emits one SVG per metric (mean_r, mean_L, b_over_l, link totals), with
    the reference-study averages drawn as dashed annotation lines. Returns
    the written paths.
    """
    agg_path = os.path.join(report_dir, "aggregate.csv")
    if not os.path.exists(agg_path):
        raise FileNotFoundError(f"missing {agg_path}; run a scenario first")
    rows = _read_csv(agg_path, ("type", "model"), _PLOT_NUMBERS)
    if not rows:
        raise ValueError(f"{agg_path} has no data rows")
    groups = sorted({r["type"] for r in rows})
    series = sorted({r["model"] for r in rows})

    def grab(column):
        return {(r["type"], r["model"]): r[column] for r in rows}

    totals = {(r["type"], f"{r['model']} {label}"): r[column]
              for r in rows for label, column in (("A+B", "total_ab"), ("C", "total_c"))}
    charts = (
        ("mean_r.svg", "Route efficiency ratio r by topology type and movement",
         "mean r = (A+B)/C", series, grab("mean_r"), (("reference", REFERENCE["mean_r"]),)),
        ("added_links.svg", "Links added per handoff by topology type and movement",
         "mean added links L", series, grab("mean_L"), (("reference", REFERENCE["mean_L"]),)),
        ("b_over_l.svg", "Handoff latency ratio av.B/av.L",
         "B/L", series, grab("b_over_l"), (("reference", REFERENCE["b_over_l"]),)),
        ("total_links.svg", "Total links traversed (Mobile IP A+B vs multicast C)",
         "links per topology (all runs)", sorted({key[1] for key in totals}), totals,
         (("reference A+B", REFERENCE["total_ab"]), ("reference C", REFERENCE["total_c"]))),
    )
    written = []
    for fname, title, ylabel, names, values, refs in charts:
        path = os.path.join(report_dir, "plots", fname)
        _write(path, (svg_grouped_bars(title, ylabel, groups, names, values, refs),))
        written.append(path)
    return written
