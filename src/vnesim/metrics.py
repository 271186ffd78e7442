"""Per-event metrics log, summary statistics, and the CSV trace format.

Every arrival, commit, and departure appends one row sampling the run state:
cumulative acceptance, mean link/switch utilization (committed plus tentative
consumption over totals), cumulative rule writes, commit events, remapped
links, and the latency proxy of the request just committed. Summaries are
pure functions of the logged rows, so recomputing them from an exported
trace reproduces the same numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .simulator import TICKS_PER_UNIT

CSV_COLUMNS = (
    "time",
    "event_kind",
    "request_id",
    "outcome",
    "cost",
    "cum_accept_rate",
    "avg_link_util",
    "avg_switch_util",
    "rule_writes_cum",
    "commit_events_cum",
    "remapped_links_cum",
    "latency_proxy",
)


@dataclass(frozen=True)
class Row:
    time: int  # ticks
    event_kind: str
    request_id: int
    outcome: str
    cost: int
    cum_accept_rate: float
    avg_link_util: float
    avg_switch_util: float
    rule_writes_cum: int
    commit_events_cum: int
    remapped_links_cum: int
    latency_proxy: float
    active: int  # concurrent committed requests (not exported)


class MetricsLog:
    """Collects one sample per event; fed by the controller."""

    def __init__(self, view, hop_delay=1.0, wait_delay=1.0):
        self.view = view
        self.hop_delay = hop_delay
        self.wait_delay = wait_delay
        self.rows = []
        self.arrivals = 0
        self.accepted = 0  # tentative or committed successes
        self.rejected = 0
        self.cancelled = 0  # rejected at commit
        self.committed = 0
        self.rule_writes = 0
        self.commit_events = 0
        self.remapped_links = 0
        self.active = 0
        self.fates = {}  # request id -> (arrival index, arrival ticks, final outcome)

    # -- recording ---------------------------------------------------------

    def _utilization_means(self):
        base = self.view.base
        link_util = 0.0
        for lk in base.links:
            link_util += 1.0 - self.view.residual_bandwidth(lk) / base.bandwidth[lk]
        switch_util = 0.0
        for u in base.switches:
            switch_util += 1.0 - self.view.residual_capacity(u) / base.capacity[u]
        return link_util / len(base.links), switch_util / len(base.switches)

    def _append(self, time, kind, request_id, outcome, cost, latency):
        link_util, switch_util = self._utilization_means()
        rate = (self.accepted - self.cancelled) / self.arrivals if self.arrivals else None
        self.rows.append(Row(
            time, kind, request_id, outcome, cost, rate,
            link_util, switch_util,
            self.rule_writes, self.commit_events, self.remapped_links,
            latency, self.active,
        ))

    def record_arrival(self, time, request_id, accepted, cost=None):
        self.arrivals += 1
        if accepted:
            self.accepted += 1
            outcome = "accepted"
        else:
            self.rejected += 1
            outcome = "rejected"
        self.fates[request_id] = [self.arrivals - 1, time, outcome]
        self._append(time, "arrival", request_id, outcome, cost, None)

    def record_commit_event(self, remapped_links_cum):
        self.commit_events += 1
        self.remapped_links = remapped_links_cum

    def record_commit(self, time, request_id, committed, cost=None,
                      mean_hops=0.0, wait=0, rules_written=0):
        if committed:
            self.committed += 1
            self.active += 1
            self.rule_writes += rules_written
            latency = self.latency_proxy(mean_hops, wait)
            self.fates[request_id][2] = "committed"
            self._append(time, "commit", request_id, "committed", cost, latency)
        else:
            self.cancelled += 1
            self.fates[request_id][2] = "rejected-at-commit"
            self._append(time, "commit", request_id, "rejected-at-commit", None, None)

    def record_departure(self, time, request_id):
        self.active -= 1
        self._append(time, "departure", request_id, "departed", None, None)

    def latency_proxy(self, mean_hops, wait_ticks) -> float:
        """Hop count times per-hop delay plus in-window wait times per-write
        delay; an immediately committed request waits zero."""
        return mean_hops * self.hop_delay + (wait_ticks / TICKS_PER_UNIT) * self.wait_delay


# ---------------------------------------------------------------------------
# summaries (all derived from the rows / fates only)


def cumulative_acceptance(log) -> float:
    if not log.arrivals:
        return 0.0
    return (log.accepted - log.cancelled) / log.arrivals


def acceptance_rate(log, grouping="by-count", bucket=100):
    """Accepted/arrived ratios bucketed by arrival count or by arrival time.

    ``by-count`` groups each consecutive ``bucket`` arrivals; ``by-time``
    groups arrivals into windows of ``bucket`` time units. A request counts
    as accepted when it was eventually committed. Returns a list of
    (bucket start, rate) pairs.
    """
    fates = sorted(log.fates.values())
    groups = {}
    for index, arrival_ticks, outcome in fates:
        if grouping == "by-count":
            key = (index // bucket) * bucket
        elif grouping == "by-time":
            width = int(round(bucket * TICKS_PER_UNIT))
            key = (arrival_ticks // width) * bucket
        else:
            raise ValueError(f"unknown grouping {grouping!r}")
        hit, total = groups.get(key, (0, 0))
        groups[key] = (hit + (outcome == "committed"), total + 1)
    return [(key, hit / total) for key, (hit, total) in sorted(groups.items())]


def _time_weighted(rows, value):
    """Integrate a per-row step function from t=0 to the last event."""
    if not rows:
        return 0.0
    area = 0.0
    prev_t, prev_v = 0, 0.0
    for row in rows:
        area += prev_v * (row.time - prev_t)
        prev_t, prev_v = row.time, value(row)
    span = rows[-1].time
    return area / span if span else prev_v


def utilization_series(log, kind="link"):
    attr = "avg_link_util" if kind == "link" else "avg_switch_util"
    return [(row.time / TICKS_PER_UNIT, getattr(row, attr)) for row in log.rows]


def time_weighted_utilization(log, kind="link") -> float:
    attr = "avg_link_util" if kind == "link" else "avg_switch_util"
    return _time_weighted(log.rows, lambda r: getattr(r, attr))


def mean_concurrent_active(log) -> float:
    """Time-weighted mean number of concurrently committed requests."""
    return _time_weighted(log.rows, lambda r: r.active)


def latency_series(log):
    return [
        (row.time / TICKS_PER_UNIT, row.latency_proxy)
        for row in log.rows
        if row.latency_proxy is not None
    ]


def mean_latency(log) -> float:
    series = [v for _, v in latency_series(log)]
    return sum(series) / len(series) if series else 0.0


def mean_cost_per_accepted(log) -> float:
    costs = [r.cost for r in log.rows if r.event_kind == "commit" and r.outcome == "committed"]
    return sum(costs) / len(costs) if costs else 0.0


def summary(log) -> dict:
    return {
        "arrivals": log.arrivals,
        "accepted": log.accepted - log.cancelled,
        "rejected": log.rejected,
        "rejected_at_commit": log.cancelled,
        "acceptance_rate": cumulative_acceptance(log),
        "mean_cost_per_accepted": mean_cost_per_accepted(log),
        "rule_writes": log.rule_writes,
        "commit_events": log.commit_events,
        "remapped_links": log.remapped_links,
        "mean_latency_proxy": mean_latency(log),
        "avg_link_utilization": time_weighted_utilization(log, "link"),
        "avg_switch_utilization": time_weighted_utilization(log, "switch"),
        "trace_sha256": trace_hash(log),
    }


# ---------------------------------------------------------------------------
# CSV trace


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(log) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in log.rows:
        lines.append(",".join((
            f"{row.time / TICKS_PER_UNIT:.6f}",
            row.event_kind,
            _cell(row.request_id),
            _cell(row.outcome),
            _cell(row.cost),
            _cell(row.cum_accept_rate),
            _cell(row.avg_link_util),
            _cell(row.avg_switch_util),
            _cell(row.rule_writes_cum),
            _cell(row.commit_events_cum),
            _cell(row.remapped_links_cum),
            _cell(row.latency_proxy),
        )))
    return "\n".join(lines) + "\n"


def export_csv(log, path) -> str:
    """Write the trace; identical log state yields byte-identical files."""
    text = csv_text(log)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def trace_hash(log) -> str:
    return hashlib.sha256(csv_text(log).encode("utf-8")).hexdigest()
