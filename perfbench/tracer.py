"""Outside-in tracing: wrap each module's public functions and record spans and counts.

Nothing inside the package changes. Every wrapped call records a span
(name, start, end, parent) and, for some functions, counts read from the
arguments or the return value. A function imported by name into another
module is patched under every name it is looked up by, so calls from
`experiment` to `simulate_handoff` are seen. Path-oracle BFS runs are
counted per oracle object in a WeakKeyDictionary: run oracles are freed
and their `id()` values reused, so id-keyed counts undercount BFS runs.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

from mcastmob import experiment, handoff, metrics, movement, reporting, routing, topology

_PACKAGE = "mcastmob"
_WRITERS = (
    "write_report_json", "write_run_samples", "write_trace", "write_run_stats",
    "write_aggregate", "write_summary", "write_handoff",
)


def nearest_rank(ordered, pct):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def high_percentile(ordered):
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the median stands in.
    """
    n = len(ordered)
    if n < 11:
        return nearest_rank(ordered, 50), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self._child_time = []
        self.total = Counter()  # name -> summed duration
        self.self_time = Counter()  # name -> summed duration minus child spans
        self.durations = defaultdict(list)
        self.counts = Counter()
        self._bfs_sources = weakref.WeakKeyDictionary()  # oracle -> sources searched
        self._patches = []

    # span bookkeeping -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer._call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _call(self, name, fn, args, kwargs):
        # the span's slot is reserved on entry so that children can name it as parent
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._child_time.append(0.0)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            dur = end - start
            if parent >= 0:
                self._child_time[parent] += dur
            self.total[name] += dur
            self.self_time[name] += dur - self._child_time[idx]
            self.durations[name].append(dur)

    # patching ---------------------------------------------------------------

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, after))

    def install(self):
        c = self.counts

        def built(args, topo):
            c["topology.nodes"] += topo.n
            c["topology.edges"] += topo.edge_count

        for attr in ("generate", "load_edge_list"):
            self._patch_function(topology, attr, "topology.build", built)
        self._patch_method(topology.PathOracle, "__init__", "oracle.init",
                           lambda args, _: c.update(("oracle.instances",)))
        self._patch_dist_from()

        self._patch_function(movement, "generate_trace", "movement.generate_trace")
        self._patch_function(routing, "establish", "routing.establish")
        self._patch_function(routing, "run_scenario", "routing.run_scenario")

        def joined(args, added):
            c["routing.joins"] += 1
            c["routing.links_grafted"] += added

        self._patch_method(routing.MulticastTree, "join", "routing.join", joined)
        self._patch_method(routing.MulticastTree, "prune", "routing.prune",
                           lambda args, _: c.update(("routing.prunes",)))

        self._patch_function(metrics, "run_stats", "metrics.run_stats")
        self._patch_function(metrics, "aggregate", "metrics.aggregate")

        for attr in ("execute_scenario", "build_topology", "run_single", "handoff_sweep"):
            self._patch_function(experiment, attr, f"experiment.{attr}")

        def simulated(args, rep):
            c["handoff.sims"] += 1
            c["handoff.packets_emitted"] += rep.packets_emitted
            c["handoff.packets_delivered"] += rep.packets_delivered
            c["handoff.control_messages"] += rep.control_messages
            c["handoff.giveups"] += math.isinf(rep.handoff_latency)

        self._patch_function(handoff, "simulate_handoff", "handoff.simulate_handoff", simulated)
        self._patch_function(handoff, "simulate_mip_handoff", "handoff.simulate_mip_handoff",
                             simulated)

        def wrote(args, _):
            c["reporting.files"] += 1
            c["reporting.bytes"] += os.path.getsize(args[0])

        for attr in _WRITERS:
            self._patch_function(reporting, attr, "reporting.write", wrote)

        def plotted(args, paths):
            c["reporting.files"] += len(paths)
            c["reporting.bytes"] += sum(os.path.getsize(p) for p in paths)

        self._patch_function(reporting, "render_plots", "reporting.render_plots", plotted)

    def _patch_dist_from(self):
        cls = topology.PathOracle
        original = cls.__dict__["dist_from"]
        sources = self._bfs_sources
        c = self.counts
        tracer = self

        @functools.wraps(original)
        def dist_from(oracle, source):
            seen = sources.get(oracle)
            if seen is None:
                seen = sources[oracle] = set()
            if source in seen:
                c["oracle.cache_hits"] += 1
                return tracer._call("oracle.dist_from.hit", original,
                                             (oracle, source), {})
            result = tracer._call("oracle.dist_from.bfs", original, (oracle, source), {})
            seen.add(source)
            c["oracle.bfs_runs"] += 1
            return result

        self._patches.append((cls, "dist_from", original))
        cls.dist_from = dist_from

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # results ----------------------------------------------------------------

    def metrics(self):
        """Per-layer counters and timings (seconds unless the name says ms/us)."""
        c, total, self_t = self.counts, self.total, self.self_time
        hits, bfs = c["oracle.cache_hits"], c["oracle.bfs_runs"]
        emitted = c["handoff.packets_emitted"]
        sim_s = total["handoff.simulate_handoff"] + total["handoff.simulate_mip_handoff"]
        out = {
            "topology.build_s": total["topology.build"],
            "topology.nodes": c["topology.nodes"],
            "topology.edges": c["topology.edges"],
            "oracle.bfs_runs": bfs,
            "oracle.cache_hits": hits,
            "oracle.hit_ratio": hits / (hits + bfs) if hits + bfs else 0.0,
            "oracle.bfs_s": total["oracle.dist_from.bfs"],
            "oracle.instances": c["oracle.instances"],
            "movement.traces": len(self.durations["movement.generate_trace"]),
            "movement.trace_s": total["movement.generate_trace"],
            "routing.joins": c["routing.joins"],
            "routing.prunes": c["routing.prunes"],
            "routing.links_grafted": c["routing.links_grafted"],
            "routing.join_s": total["routing.join"],
            "routing.prune_s": total["routing.prune"],
            "routing.run_scenario_self_s": self_t["routing.run_scenario"],
            "metrics.run_stats_s": total["metrics.run_stats"],
            "metrics.aggregate_s": total["metrics.aggregate"],
            "experiment.sweep_self_s": self_t["experiment.handoff_sweep"],
            "handoff.sims": c["handoff.sims"],
            "handoff.packets_emitted": emitted,
            "handoff.packets_delivered": c["handoff.packets_delivered"],
            "handoff.delivery_ratio": c["handoff.packets_delivered"] / emitted if emitted else 0.0,
            "handoff.control_messages": c["handoff.control_messages"],
            "handoff.giveups": c["handoff.giveups"],
            "handoff.us_per_packet": 1e6 * sim_s / emitted if emitted else 0.0,
            "reporting.write_s": total["reporting.write"],
            "reporting.files": c["reporting.files"],
            "reporting.bytes": c["reporting.bytes"],
            "reporting.plot_s": total["reporting.render_plots"],
        }
        runs_ms = sorted(1e3 * d for d in self.durations["experiment.run_single"])
        p_hi, pct = high_percentile(runs_ms) if runs_ms else (0.0, 0.0)
        out["experiment.run_ms.p50"] = nearest_rank(runs_ms, 50) if runs_ms else 0.0
        out["experiment.run_ms.p_hi"] = p_hi
        out["experiment.run_ms.p_hi_pct"] = pct
        out["experiment.run_ms.n"] = len(runs_ms)
        for key, span, pct in (("mcast", "handoff.simulate_handoff", 99),
                               ("mip", "handoff.simulate_mip_handoff", 98)):
            ms = sorted(1e3 * d for d in self.durations[span])
            out[f"handoff.{key}_ms.p50"] = nearest_rank(ms, 50) if ms else 0.0
            out[f"handoff.{key}_ms.p{pct}"] = nearest_rank(ms, pct) if ms else 0.0
            out[f"handoff.{key}_ms.n"] = len(ms)
        return out

    def write_spans(self, path):
        """Dump every span as CSV: id,name,start_us,end_us,parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},{parent}\n")
