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
import math
from typing import NamedTuple

from .simulator import TICKS_PER_UNIT


class Row(NamedTuple):
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


CSV_COLUMNS = Row._fields  # the trace's header, in row order


def ordered_sum(values) -> float:
    """Left-to-right float sum; ``sum`` compensates rounding since Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


class MetricsLog:
    """Collects one sample per event; fed by the controller."""

    def __init__(self, view, hop_delay=1.0, wait_delay=1.0):
        self.view = view
        self.hop_delay = hop_delay
        self.wait_delay = wait_delay
        self.rows = []
        self.arrivals = 0
        self.accepted = 0  # tentative or committed successes; the rest were rejected
        self.cancelled = 0  # rejected at commit
        self.committed = 0
        self.rule_writes = 0
        self.commit_events = 0
        self.remapped_links = 0

    # -- recording ---------------------------------------------------------

    def _utilization_means(self):
        link_util, switch_util = self.view.link_util, self.view.switch_util
        return ordered_sum(link_util) / len(link_util), ordered_sum(switch_util) / len(switch_util)

    def _append(self, time, kind, request_id, outcome, cost, latency):
        link_util, switch_util = self._utilization_means()
        rate = (self.accepted - self.cancelled) / self.arrivals if self.arrivals else None
        self.rows.append(Row(
            time, kind, request_id, outcome, cost, rate,
            link_util, switch_util,
            self.rule_writes, self.commit_events, self.remapped_links,
            latency,
        ))

    def record_arrival(self, time, request_id, accepted, cost=None):
        self.arrivals += 1
        self.accepted += accepted
        outcome = "accepted" if accepted else "rejected"
        self._append(time, "arrival", request_id, outcome, cost, None)

    def record_commit_event(self, remapped_links):
        """One commit event, after a remap pass that moved ``remapped_links``."""
        self.commit_events += 1
        self.remapped_links += remapped_links

    def record_commit(self, time, request_id, committed, cost=None,
                      mean_hops=0.0, wait=0, rules_written=0):
        if committed:
            self.committed += 1
            self.rule_writes += rules_written
            latency = self.latency_proxy(mean_hops, wait)
            self._append(time, "commit", request_id, "committed", cost, latency)
        else:
            self.cancelled += 1
            self._append(time, "commit", request_id, "rejected-at-commit", None, None)

    def record_departure(self, time, request_id):
        self._append(time, "departure", request_id, "departed", None, None)

    def latency_proxy(self, mean_hops, wait_ticks) -> float:
        """Hop count times per-hop delay plus in-window wait times per-write
        delay; an immediately committed request waits zero."""
        return mean_hops * self.hop_delay + (wait_ticks / TICKS_PER_UNIT) * self.wait_delay


# ---------------------------------------------------------------------------
# summaries (all derived from the rows and counters only)


def cumulative_acceptance(log) -> float:
    if not log.arrivals:
        return 0.0
    return (log.accepted - log.cancelled) / log.arrivals


def acceptance_rate(log, grouping="by-count", bucket=100):
    """Accepted/arrived ratios bucketed by arrival count or by arrival time.

    ``by-count`` groups each consecutive ``bucket`` arrivals; ``by-time``
    groups arrivals into windows of ``bucket`` time units. A request counts
    as accepted when it was eventually committed. Returns a list of
    (bucket start, rate) pairs. Raises ValueError for an unknown grouping,
    a bucket that is not positive and finite, a by-count bucket that is not
    an integer, and a by-time bucket that rounds to 0 ticks.
    """
    if grouping not in ("by-count", "by-time"):
        raise ValueError(f"unknown grouping {grouping!r}")
    if not 0 < bucket < math.inf:  # NaN fails too
        raise ValueError(f"bucket must be positive and finite, got {bucket!r}")
    if grouping == "by-count" and not isinstance(bucket, int):
        raise ValueError(f"by-count bucket must be an integer, got {bucket!r}")
    width = bucket if grouping == "by-count" else int(round(bucket * TICKS_PER_UNIT))
    if width == 0:
        raise ValueError(f"by-time bucket {bucket!r} rounds to 0 ticks")
    committed = {r.request_id for r in log.rows if r.outcome == "committed"}
    arrivals = (r for r in log.rows if r.event_kind == "arrival")
    groups = {}
    for index, row in enumerate(arrivals):
        key = ((index if grouping == "by-count" else row.time) // width) * bucket
        hit, total = groups.get(key, (0, 0))
        groups[key] = (hit + (row.request_id in committed), total + 1)
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


def time_weighted_utilization(log, kind="link") -> float:
    attr = "avg_link_util" if kind == "link" else "avg_switch_util"
    return _time_weighted(log.rows, lambda r: getattr(r, attr))


def mean_latency(log) -> float:
    series = [r.latency_proxy for r in log.rows if r.latency_proxy is not None]
    return ordered_sum(series) / len(series) if series else 0.0


def mean_cost_per_accepted(log) -> float:
    costs = [r.cost for r in log.rows if r.event_kind == "commit" and r.outcome == "committed"]
    return sum(costs) / len(costs) if costs else 0.0


def statistics(log) -> dict:
    """The run's totals and means: every summary field but the trace hash."""
    return {
        "arrivals": log.arrivals,
        "accepted": log.accepted - log.cancelled,
        "rejected": log.arrivals - log.accepted,
        "rejected_at_commit": log.cancelled,
        "acceptance_rate": cumulative_acceptance(log),
        "mean_cost_per_accepted": mean_cost_per_accepted(log),
        "rule_writes": log.rule_writes,
        "commit_events": log.commit_events,
        "remapped_links": log.remapped_links,
        "mean_latency_proxy": mean_latency(log),
        "avg_link_utilization": time_weighted_utilization(log, "link"),
        "avg_switch_utilization": time_weighted_utilization(log, "switch"),
    }


def summary(log, text=None) -> dict:
    """``statistics`` plus the trace hash. A caller that has already
    formatted the trace passes it as ``text``, which must be
    ``csv_text(log)``; it is hashed instead of formatting the trace again."""
    stats = statistics(log)
    stats["trace_sha256"] = (trace_hash(log) if text is None
                             else hashlib.sha256(text.encode("utf-8")).hexdigest())
    return stats


# ---------------------------------------------------------------------------
# CSV trace


def csv_text(log) -> str:
    # the time in units, then every other field in order: None as an empty
    # cell, a float as its repr (which str gives), anything else as str
    lines = [",".join(CSV_COLUMNS)]
    for row in log.rows:
        lines.append(f"{row.time / TICKS_PER_UNIT:.6f},"
                     + ",".join(["" if v is None else str(v) for v in row[1:]]))
    return "\n".join(lines) + "\n"


def export_csv(log, path) -> str:
    """Write the trace and return its text, ``csv_text(log)``; identical log
    state yields byte-identical files."""
    text = csv_text(log)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


def trace_hash(log) -> str:
    return hashlib.sha256(csv_text(log).encode("utf-8")).hexdigest()
