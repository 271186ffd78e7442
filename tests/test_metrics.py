"""Metrics log, summaries, and the CSV trace format."""

import hashlib
import math

import pytest

from vnesim.metrics import (
    CSV_COLUMNS,
    MetricsLog,
    Row,
    acceptance_rate,
    csv_text,
    cumulative_acceptance,
    export_csv,
    mean_cost_per_accepted,
    mean_latency,
    ordered_sum,
    summary,
    time_weighted_utilization,
    trace_hash,
    _time_weighted,
)
from vnesim.netmodel import SubstrateView, VirtualNetworkRequest, reserve

from conftest import make_net
from reference import active_counts, build_reservation, fates, mean_concurrent_active


def fresh_log(**kwargs):
    net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    return MetricsLog(SubstrateView(net), **kwargs), net


def drive_tiny_run(log):
    """One rejected arrival, then one request through its whole life."""
    view = log.view
    log.record_arrival(1_000_000, 0, accepted=False)
    r = VirtualNetworkRequest(1, {0: 50}, {}, 2_000_000, 5_000_000)
    reserve(view, build_reservation(view, r, {0: 1}, {}))
    log.record_arrival(2_000_000, 1, accepted=True, cost=50)
    log.record_commit_event(remapped_links=0)
    view.commit(1)
    log.record_commit(
        3_000_000, 1, committed=True, cost=50, mean_hops=0.0,
        wait=1_000_000, rules_written=0,
    )
    view.release(1)
    log.record_departure(7_000_000, 1)


class TestRecording:
    def test_counters_and_fates(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        assert (log.arrivals, log.accepted, summary(log)["rejected"]) == (2, 1, 1)
        assert (log.committed, log.cancelled, active_counts(log.rows)[-1]) == (1, 0, 0)
        assert log.commit_events == 1
        assert fates(log) == {
            0: [0, 1_000_000, "rejected"],
            1: [1, 2_000_000, "committed"],
        }

    def test_rows_sample_the_run_state(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        kinds = [(r.event_kind, r.outcome, r.time) for r in log.rows]
        assert kinds == [
            ("arrival", "rejected", 1_000_000),
            ("arrival", "accepted", 2_000_000),
            ("commit", "committed", 3_000_000),
            ("departure", "departed", 7_000_000),
        ]
        rates = [r.cum_accept_rate for r in log.rows]
        assert rates == [0.0, 0.5, 0.5, 0.5]
        actives = active_counts(log.rows)
        assert actives == [0, 0, 1, 0]
        # 50 units tentative on switch 1 out of caps 100/100/100
        assert [round(r.avg_switch_util, 6) for r in log.rows] == [
            0.0, round(0.5 / 3, 6), round(0.5 / 3, 6), 0.0,
        ]

    def test_cancelled_commits_count_against_acceptance(self):
        log, _ = fresh_log()
        log.record_arrival(1, 0, accepted=True, cost=10)
        log.record_commit_event(remapped_links=0)
        log.record_commit(2, 0, committed=False)
        assert log.cancelled == 1
        assert fates(log)[0][2] == "rejected-at-commit"
        assert cumulative_acceptance(log) == 0.0
        row = log.rows[-1]
        assert row.outcome == "rejected-at-commit"
        assert row.cost is None and row.latency_proxy is None

    def test_latency_proxy_formula(self):
        log, _ = fresh_log(hop_delay=2.0, wait_delay=0.5)
        assert log.latency_proxy(3.0, 4_000_000) == 3.0 * 2.0 + 4.0 * 0.5

    def test_utilization_means_average_over_all_elements(self):
        log, net = fresh_log()
        r = VirtualNetworkRequest(1, {0: 1, 1: 1}, {(0, 1): 50}, 0, 10)
        reserve(log.view, build_reservation(log.view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 50),)}))
        link_util, switch_util = log._utilization_means()
        assert link_util == pytest.approx((0.5 + 0 + 0) / 3)
        assert switch_util == pytest.approx((0.01 + 0.01 + 0) / 3)


class TestAcceptanceRate:
    def build(self):
        log, _ = fresh_log()
        log.record_arrival(0, 0, accepted=True, cost=1)
        log.record_arrival(2_200_000, 1, accepted=False)
        log.record_arrival(2_500_000, 2, accepted=True, cost=1)
        log.record_arrival(3_500_000, 3, accepted=True, cost=1)
        for rid in (0, 2, 3):
            log.record_commit_event(0)
            log.record_commit(4_000_000, rid, committed=True, cost=1)
        return log

    def test_by_count_groups_consecutive_arrivals(self):
        assert acceptance_rate(self.build(), "by-count", bucket=2) == [
            (0, 0.5),
            (2, 1.0),
        ]

    def test_by_time_groups_arrival_windows(self):
        assert acceptance_rate(self.build(), "by-time", bucket=2) == [
            (0, 1.0),
            (2, pytest.approx(2 / 3)),
        ]

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError, match="unknown grouping"):
            acceptance_rate(self.build(), "by-vibes")

    @pytest.mark.parametrize("grouping", ["by-count", "by-time"])
    @pytest.mark.parametrize("bucket", [0, -5, -10, math.inf, math.nan])
    def test_bucket_not_positive_and_finite_rejected(self, grouping, bucket):
        with pytest.raises(ValueError, match="bucket must be positive and finite"):
            acceptance_rate(self.build(), grouping, bucket)

    def test_by_count_bucket_not_an_integer_rejected(self):
        # a fractional count would group 3, 2, 3, 2 arrivals under float keys
        with pytest.raises(ValueError, match="by-count bucket must be an integer"):
            acceptance_rate(self.build(), "by-count", 2.5)
        # by-time buckets are durations and stay fractional
        assert acceptance_rate(self.build(), "by-time", 2.5) == [
            (0.0, 0.5),
            (2.5, 1.0),
        ]

    def test_by_time_bucket_rounding_to_zero_ticks_rejected(self):
        with pytest.raises(ValueError, match="rounds to 0 ticks"):
            acceptance_rate(self.build(), "by-time", 1e-7)

    def test_cumulative_acceptance_of_empty_log(self):
        log, _ = fresh_log()
        assert cumulative_acceptance(log) == 0.0


def row(t, link=0.0, kind="arrival", latency=None, cost=None, outcome="x"):
    return Row(t, kind, 0, outcome, cost, None, link, 0.0, 0, 0, 0, latency)


class TestTimeWeighted:
    def test_step_integration_from_time_zero(self):
        rows = [row(6_000_000, link=1.0), row(8_000_000, link=0.0)]
        # zero until t=6, one until t=8: 2 of 8 time units
        assert _time_weighted(rows, lambda r: r.avg_link_util) == pytest.approx(0.25)

    def test_empty_rows(self):
        assert _time_weighted([], lambda r: r.avg_link_util) == 0.0

    def test_single_row_at_time_zero_returns_its_value(self):
        assert _time_weighted([row(0, link=0.7)], lambda r: r.avg_link_util) == 0.7

    def test_mean_concurrent_active(self):
        log, _ = fresh_log()
        # two commits at t=5, both depart at t=10
        commit = dict(kind="commit", outcome="committed")
        departure = dict(kind="departure", outcome="departed")
        log.rows = [row(5, **commit), row(5, **commit), row(10, **departure), row(10, **departure)]
        assert mean_concurrent_active(log) == pytest.approx(1.0)

    def test_time_weighted_utilization_reads_the_requested_kind(self):
        log, _ = fresh_log()
        log.rows = [row(10, link=0.4)]
        assert time_weighted_utilization(log, "link") == pytest.approx(0.0)
        log.rows = [row(0, link=0.4)]
        assert time_weighted_utilization(log, "link") == pytest.approx(0.4)

    def test_utilization_series_converts_ticks_to_units(self):
        # the trace is the series: its time column is in units
        log, _ = fresh_log()
        log.rows = [row(1_500_000, link=0.25)]
        fields = csv_text(log).splitlines()[1].split(",")
        assert (fields[0], fields[CSV_COLUMNS.index("avg_link_util")]) == ("1.500000", "0.25")


class TestDerivedStats:
    def test_mean_cost_counts_only_real_commits(self):
        log, _ = fresh_log()
        log.rows = [
            row(1, kind="arrival", cost=99, outcome="accepted"),
            row(2, kind="commit", cost=30, outcome="committed"),
            row(3, kind="commit", cost=None, outcome="rejected-at-commit"),
            row(4, kind="commit", cost=50, outcome="committed"),
        ]
        assert mean_cost_per_accepted(log) == 40.0

    def test_mean_latency_over_commit_rows(self):
        log, _ = fresh_log()
        log.rows = [
            row(1, latency=2.0),
            row(2, latency=None),
            row(3, latency=4.0),
        ]
        assert mean_latency(log) == 3.0

    def test_mean_latency_sums_left_to_right(self):
        # a compensated sum (``sum`` since Python 3.12, ``math.fsum``) keeps
        # the 1.0 that a left-to-right sum rounds away
        log, _ = fresh_log()
        series = [1e16, 1.0, -1e16]
        log.rows = [row(t, latency=v) for t, v in enumerate(series, start=1)]
        assert math.fsum(series) == 1.0
        assert ordered_sum(series) == (1e16 + 1.0) - 1e16 == 0.0
        assert mean_latency(log) == 0.0

    def test_summary_keys_and_values(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        s = summary(log)
        assert list(s) == [
            "arrivals",
            "accepted",
            "rejected",
            "rejected_at_commit",
            "acceptance_rate",
            "mean_cost_per_accepted",
            "rule_writes",
            "commit_events",
            "remapped_links",
            "mean_latency_proxy",
            "avg_link_utilization",
            "avg_switch_utilization",
            "trace_sha256",
        ]
        assert s["arrivals"] == 2
        assert s["accepted"] == 1
        assert s["acceptance_rate"] == 0.5
        assert s["mean_cost_per_accepted"] == 50.0
        assert s["mean_latency_proxy"] == 1.0
        assert s["trace_sha256"] == trace_hash(log)


class TestCsvTrace:
    def test_header_matches_the_schema(self):
        log, _ = fresh_log()
        assert csv_text(log) == ",".join(CSV_COLUMNS) + "\n"

    def test_row_formatting_literal(self):
        log, _ = fresh_log()
        log.record_arrival(1_500_000, 7, accepted=True, cost=35)
        assert csv_text(log).splitlines()[1] == (
            "1.500000,arrival,7,accepted,35,1.0,0.0,0.0,0,0,0,"
        )

    def test_rebuilt_log_yields_identical_bytes(self):
        a, _ = fresh_log()
        b, _ = fresh_log()
        drive_tiny_run(a)
        drive_tiny_run(b)
        assert csv_text(a) == csv_text(b)
        assert trace_hash(a) == trace_hash(b)

    def test_export_writes_exactly_the_text(self, tmp_path):
        log, _ = fresh_log()
        drive_tiny_run(log)
        out = tmp_path / "trace.csv"
        text = export_csv(log, out)
        assert text == csv_text(log)
        assert out.read_bytes() == text.encode("utf-8")

    def test_summary_hashes_the_formatted_text_as_the_trace_hash(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        given = summary(log, csv_text(log))
        assert given == summary(log)
        assert given["trace_sha256"] == trace_hash(log)

    def test_trace_hash_is_sha256_of_the_text(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        want = hashlib.sha256(csv_text(log).encode("utf-8")).hexdigest()
        assert trace_hash(log) == want
        assert len(want) == 64
