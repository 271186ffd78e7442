"""Per-event metrics log, summary statistics, and the CSV trace.

Every arrival, commit, and departure appends one row sampling the run state:
cumulative acceptance, mean link/switch utilization, cumulative rule writes,
commit events, remapped links, and the latency proxy of the request just
committed. Appending a row also adds it into the summary's running values,
so ``statistics`` reads no row: the areas under the two utilization means
(``_append``) and the committed requests' cost and latency sums
(``record_commit``). The three float sums among them take one rounded
addition per row, in row order, from 0.0, as a pass over the rows would
(the builtin ``sum`` compensates from Python 3.12 on), so the summary
derived again from the trace text is the same to the bit
(``tests/reference.py``: ``summary_of_rows`` of ``parse_trace``).

The log keeps no rows. When its block of ``TRACE_BLOCK`` rows fills, it
formats them (``csv_text``), feeds the text to the trace's SHA-256, writes
it to its text stream if it has one, and drops them; ``trace_hash`` formats
the partial block. So each row is formatted once, and a log built with
``trace=False``, for callers that read only ``statistics``, formats none.

A row's mean utilization of a kind is the exact mean of its elements'
``(total - residual) / total`` (committed plus tentative use), rounded once:
one int division of the view's numerator per row (see ``netmodel``), so no
summation order or interpreter version can move it.

The trace hash is SHA-256 from the interpreter's builtin module (``_sha2``
from 3.12 on, ``_sha256`` before), as the stdlib's ``random`` takes its
``sha512``: ``hashlib`` would map OpenSSL's libcrypto (3.5 MB) for one
digest per run, so it is only the fallback on a build with neither module.
"""

from __future__ import annotations

from .simulator import TICKS_PER_UNIT

try:
    from _sha2 import sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


# a row's fields and the trace's header; the time is in ticks, written in units
CSV_COLUMNS = ("time", "event_kind", "request_id", "outcome", "cost", "cum_accept_rate",
               "avg_link_util", "avg_switch_util", "rule_writes_cum", "commit_events_cum",
               "remapped_links_cum", "latency_proxy")
TRACE_BLOCK = 256  # rows formatted into the trace at a time


class MetricsLog:
    """Collects one sample per event; fed by the controller. ``trace`` is
    True to hash the trace, a writable text stream to hash it and write it
    there, or False to keep no trace."""

    def __init__(self, view, hop_delay=1.0, wait_delay=1.0, trace=True):
        self.view = view
        self.hop_delay = hop_delay
        self.wait_delay = wait_delay
        self.arrivals = 0
        self.accepted = 0  # tentative or committed successes; the rest were rejected
        self.cancelled = 0  # rejected at commit
        self.committed = 0
        self.rule_writes = 0
        self.commit_events = 0
        self.remapped_links = 0
        # the summary's running values, added to in row order: the (time,
        # link, switch) of the last row and the areas under the two means up
        # to it, and the cost and latency sums of the committed requests
        self.last = (0, 0.0, 0.0)
        self.link_area = self.switch_area = 0.0
        self.cost_sum = 0
        self.latency_sum = 0.0
        if view is not None:
            # (link, switch) L * count, L being any element's scale times its
            # total: the means' denominators, the same on every row
            base = view.base
            self._wholes = (view.link_scale[0] * base.bandwidths[0] * len(base.links),
                            view.switch_scale[0] * base.capacities[0] * len(base.switches))
        # the trace: the rows not yet formatted, the digest of the text so far
        # and the stream it is also written to
        self.block = self.digest = self.stream = None
        if trace is not False:
            self.block, self.digest = [], sha256()
            self.stream = None if trace is True else trace
            self._write(",".join(CSV_COLUMNS) + "\n")

    # -- recording ---------------------------------------------------------

    def _utilization_means(self):
        link_whole, switch_whole = self._wholes
        return self.view.link_used / link_whole, self.view.switch_used / switch_whole

    def _append(self, time, kind, request_id, outcome, cost, latency):
        link, switch = self._utilization_means()
        last_time, last_link, last_switch = self.last
        span = time - last_time
        self.link_area += last_link * span
        self.switch_area += last_switch * span
        self.last = time, link, switch
        block = self.block
        if block is not None:
            rate = (self.accepted - self.cancelled) / self.arrivals if self.arrivals else None
            block.append((time, kind, request_id, outcome, cost, rate, link, switch,
                          self.rule_writes, self.commit_events, self.remapped_links, latency))
            if len(block) == TRACE_BLOCK:
                self._flush()

    def _flush(self):
        """Format the rows held into the trace, and drop them."""
        if self.block:
            self._write(csv_text(self.block))
            self.block.clear()

    def _write(self, text):
        self.digest.update(text.encode("utf-8"))
        if self.stream is not None:
            self.stream.write(text)

    def record_arrival(self, time, request_id, accepted, cost=None):
        self.arrivals += 1
        self.accepted += accepted
        outcome = "accepted" if accepted else "rejected"
        self._append(time, "arrival", request_id, outcome, cost, None)

    def record_commit_event(self, remapped_links):
        """One commit event, after a remap pass that moved ``remapped_links``."""
        self.commit_events += 1
        self.remapped_links += remapped_links

    def record_commit(self, time, request_id, cost, mean_hops, wait, rules_written):
        self.committed += 1
        self.rule_writes += rules_written
        latency = self.latency_proxy(mean_hops, wait)
        self.cost_sum += cost
        self.latency_sum += latency
        self._append(time, "commit", request_id, "committed", cost, latency)

    def record_cancel(self, time, request_id):
        self.cancelled += 1
        self._append(time, "commit", request_id, "rejected-at-commit", None, None)

    def record_departure(self, time, request_id):
        self._append(time, "departure", request_id, "departed", None, None)

    def latency_proxy(self, mean_hops, wait_ticks) -> float:
        """Hop count times per-hop delay plus in-window wait times per-write
        delay; an immediately committed request waits zero."""
        return mean_hops * self.hop_delay + (wait_ticks / TICKS_PER_UNIT) * self.wait_delay


# ---------------------------------------------------------------------------
# summaries (read from the counters and running values alone)


def statistics(log) -> dict:
    """The run's totals and means: every summary field but the trace hash.
    A time-weighted mean is its area over the last row's time, or the last
    row's value when that time is 0; a mean over the committed requests is
    0.0 when there are none."""
    committed, (span, link, switch) = log.committed, log.last
    return {
        "arrivals": log.arrivals,
        "accepted": log.accepted - log.cancelled,
        "rejected": log.arrivals - log.accepted,
        "rejected_at_commit": log.cancelled,
        "acceptance_rate": (log.accepted - log.cancelled) / log.arrivals if log.arrivals else 0.0,
        "mean_cost_per_accepted": log.cost_sum / committed if committed else 0.0,
        "rule_writes": log.rule_writes,
        "commit_events": log.commit_events,
        "remapped_links": log.remapped_links,
        "mean_latency_proxy": log.latency_sum / committed if committed else 0.0,
        "avg_link_utilization": log.link_area / span if span else link,
        "avg_switch_utilization": log.switch_area / span if span else switch,
    }


def summary(log) -> dict:
    """``statistics`` plus the trace hash."""
    stats = statistics(log)
    stats["trace_sha256"] = trace_hash(log)
    return stats


# ---------------------------------------------------------------------------
# CSV trace


def csv_text(rows) -> str:
    """The trace lines of ``rows``, row tuples in ``CSV_COLUMNS`` order: the
    time in units, then every other field in order: None as an empty cell,
    a float as its repr (which str gives), anything else as str."""
    return "".join([f"{row[0] / TICKS_PER_UNIT:.6f},"
                    + ",".join(["" if v is None else str(v) for v in row[1:]]) + "\n"
                    for row in rows])


def trace_hash(log) -> str:
    """SHA-256 of the trace so far, after formatting the rows the log still
    holds. The digest goes on taking the rows appended after it."""
    log._flush()
    return log.digest.hexdigest()
