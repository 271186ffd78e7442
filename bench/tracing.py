"""Span tracing of vnesim, installed from outside the package.

``Tracer.install`` replaces the package's functions with timing wrappers on
the attribute that is actually looked up at call time: functions that a
module imports by name are patched in the importing module, methods on
their class. Each call records a span ``[name, start, end, parent]`` in
memory; ``restore`` puts the originals back. ``layer_metrics`` turns the
spans of one run into the per-layer metrics of the benchmark.

Span times are inclusive (a span covers its children); self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.tallies = Counter()  # outcome counts taken from return values
        self._open = []  # indices of spans still running
        self._patched = []  # (owner, attribute, original)

    def wrap(self, name, fn, tally=None):
        spans, open_, tallies, clock = self.spans, self._open, self.tallies, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if tally is not None:
                tallies[tally[0]] += tally[1](result)
            return result

        return traced

    def patch(self, owner, attr, name, tally=None):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, tally))

    def install(self, vn):
        """Wrap every measured boundary of the vnesim package ``vn``."""
        controller = vn.controller.Controller
        view = vn.netmodel.SubstrateView
        accepted = ("embedder.embed_accepted", lambda outcome: outcome.accepted)
        for owner, attr, name, tally in (
            (vn.run, "build_substrate", "workload.build_substrate", None),
            (vn.run, "generate_workload", "workload.generate_workload", None),
            (vn.simulator.Engine, "run", "simulator.run", None),
            (controller, "on_arrival", "controller.on_arrival", None),
            (controller, "on_window_trigger", "controller.on_window_trigger", None),
            (controller, "on_departure", "controller.on_departure", None),
            (controller, "flush", "controller.flush", None),
            (vn.controller, "embed", "embedder.embed", accepted),
            (vn.controller, "splitting_embed", "embedder.embed", accepted),
            (vn.embedder, "greedy_node_map", "embedder.node_stage", None),
            (vn.embedder, "_dijkstra", "embedder.dijkstra",
             ("embedder.dijkstra_misses", lambda path: path is None)),
            (vn.controller, "remap_pass", "weights.remap_pass",
             ("weights.links_adopted", lambda changed: changed)),
            (vn.weights, "link_weight", "weights.link_weight", None),
            (vn.controller, "reserve", "netmodel.reserve", None),
            (view, "commit", "netmodel.commit", None),
            (view, "release", "netmodel.release", None),
            (view, "conservation_violations", "netmodel.audit", None),
            (vn.metrics.MetricsLog, "_append", "metrics.append", None),
            (vn.metrics, "summary", "metrics.summary", None),
            (vn.metrics, "csv_text", "metrics.csv_text", None),
        ):
            self.patch(owner, attr, name, tally)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, inclusive, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return {name: (calls[name], inclusive[name], own[name]) for name in calls}

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path):
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# Per-layer metrics of one traced run, without the strategy prefix:
# name -> (unit, better). Unit "count" marks an exact count: for the same
# code and seed it repeats exactly from run to run.
LAYER_METRICS = {
    "embedder.dijkstra_calls": ("count", "lower"),
    "embedder.dijkstra_s": ("s", "lower"),
    "embedder.dijkstra_p50_us": ("us", "lower"),
    "embedder.dijkstra_p99_us": ("us", "lower"),
    "embedder.dijkstra_miss_ratio": ("ratio", "lower"),
    "embedder.embed_calls": ("count", "lower"),
    "embedder.embed_s": ("s", "lower"),
    "embedder.node_stage_s": ("s", "lower"),
    "embedder.accept_ratio": ("ratio", "higher"),
    "weights.remap_pass_calls": ("count", "lower"),
    "weights.remap_pass_s": ("s", "lower"),
    "weights.link_weight_s": ("s", "lower"),
    "weights.links_scored": ("count", "lower"),
    "weights.adopt_ratio": ("ratio", "higher"),
    "netmodel.reserve_s": ("s", "lower"),
    "netmodel.commit_s": ("s", "lower"),
    "netmodel.release_s": ("s", "lower"),
    "netmodel.audit_calls": ("count", "lower"),
    "netmodel.audit_s": ("s", "lower"),
    "controller.on_arrival_s": ("s", "lower"),
    "controller.on_window_trigger_s": ("s", "lower"),
    "controller.on_departure_s": ("s", "lower"),
    "controller.commit_events": ("count", "lower"),
    "controller.tentative_acceptances": ("count", "higher"),
    "controller.batch_size_mean": ("requests", "higher"),
    "controller.cancel_ratio": ("ratio", "lower"),
    "simulator.events": ("count", "lower"),
    "simulator.self_s": ("s", "lower"),
    "metrics.append_calls": ("count", "lower"),
    "metrics.append_s": ("s", "lower"),
    "metrics.summary_s": ("s", "lower"),
    "metrics.csv_text_calls": ("count", "lower"),
    "workload.build_substrate_s": ("s", "lower"),
    "workload.generate_workload_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}
EXACT_COUNTS = tuple(name for name, (unit, _) in LAYER_METRICS.items() if unit == "count")


def _ratio(part, base):
    # a ratio over an empty base (no remap pass in splitting) reads 0
    return part / base if base else 0.0


def _percentile_us(durations, q):
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def layer_metrics(tracer, ledgers):
    """Per-layer metrics of one traced run (all except trace_overhead).

    ``ledgers`` holds the (controller, log) of each simulation of the run.
    """
    totals = tracer.totals()
    commit_events = sum(controller.commit_events for controller, _log in ledgers)
    accepted = sum(log.accepted for _controller, log in ledgers)
    cancelled = sum(log.cancelled for _controller, log in ledgers)
    committed = sum(log.committed for _controller, log in ledgers)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    dijkstra = tracer.durations("embedder.dijkstra")
    handled = sum(calls(f"controller.{h}") for h in ("on_arrival", "on_window_trigger", "on_departure"))
    attempted_commits = committed + cancelled
    return {
        "embedder.dijkstra_calls": calls("embedder.dijkstra"),
        "embedder.dijkstra_s": seconds("embedder.dijkstra"),
        "embedder.dijkstra_p50_us": _percentile_us(dijkstra, 0.50),
        "embedder.dijkstra_p99_us": _percentile_us(dijkstra, 0.99),
        "embedder.dijkstra_miss_ratio": _ratio(tracer.tallies["embedder.dijkstra_misses"], len(dijkstra)),
        "embedder.embed_calls": calls("embedder.embed"),
        "embedder.embed_s": seconds("embedder.embed"),
        "embedder.node_stage_s": seconds("embedder.node_stage"),
        "embedder.accept_ratio": _ratio(tracer.tallies["embedder.embed_accepted"], calls("embedder.embed")),
        "weights.remap_pass_calls": calls("weights.remap_pass"),
        "weights.remap_pass_s": seconds("weights.remap_pass"),
        "weights.link_weight_s": seconds("weights.link_weight"),
        "weights.links_scored": calls("weights.link_weight"),
        "weights.adopt_ratio": _ratio(tracer.tallies["weights.links_adopted"], calls("weights.link_weight")),
        "netmodel.reserve_s": seconds("netmodel.reserve"),
        "netmodel.commit_s": seconds("netmodel.commit"),
        "netmodel.release_s": seconds("netmodel.release"),
        "netmodel.audit_calls": calls("netmodel.audit"),
        "netmodel.audit_s": seconds("netmodel.audit"),
        "controller.on_arrival_s": seconds("controller.on_arrival"),
        "controller.on_window_trigger_s": seconds("controller.on_window_trigger"),
        "controller.on_departure_s": seconds("controller.on_departure"),
        "controller.commit_events": commit_events,
        "controller.tentative_acceptances": accepted,
        "controller.batch_size_mean": _ratio(attempted_commits, commit_events),
        "controller.cancel_ratio": _ratio(cancelled, accepted),
        "simulator.events": handled,
        "simulator.self_s": totals.get("simulator.run", (0, 0.0, 0.0))[2],
        "metrics.append_calls": calls("metrics.append"),
        "metrics.append_s": seconds("metrics.append"),
        "metrics.summary_s": seconds("metrics.summary"),
        "metrics.csv_text_calls": calls("metrics.csv_text"),
        "workload.build_substrate_s": seconds("workload.build_substrate"),
        "workload.generate_workload_s": seconds("workload.generate_workload"),
    }
