"""Metrics log, summaries, and the CSV trace format."""

import functools
import hashlib
import importlib.util
import io
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vnesim import metrics
from vnesim.config import RunConfig
from vnesim.metrics import (
    CSV_COLUMNS,
    MetricsLog,
    TRACE_BLOCK,
    csv_text,
    statistics,
    summary,
    trace_hash,
)
from vnesim.netmodel import SubstrateView, VirtualNetworkRequest, reserve
from vnesim.run import run_simulation
from vnesim.simulator import Engine

from conftest import make_net
from reference import (Row, acceptance_rate, active_counts, build_reservation,
                       exact_utilization_means, fates, mean_concurrent_active, ordered_sum,
                       parse_trace, summary_of_rows, time_weighted, trace_rows, trace_text)
from test_golden import COSTS14, GOLDEN, HEAVY

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_log(**kwargs):
    """A log on a triangle, writing its trace to a text stream unless
    ``trace`` says otherwise."""
    net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    kwargs.setdefault("trace", io.StringIO())
    return MetricsLog(SubstrateView(net), **kwargs), net


def formatted_rows(monkeypatch):
    """Every row that a log formats from here on, as the tuple it held."""
    rows = []
    real = metrics.csv_text

    def recording(block):
        rows.extend(block)
        return real(block)

    monkeypatch.setattr(metrics, "csv_text", recording)
    return rows


def stage(view, request_id, link_units):
    """Reserve one request: a virtual node on switches 1 and 2 each, and
    ``link_units`` on link (1, 2), of the fresh log's 300 link units."""
    r = VirtualNetworkRequest(request_id, {0: 1, 1: 1}, {(0, 1): link_units}, 0, 10)
    reserve(view, build_reservation(view, r, {0: 1, 1: 2},
                                    {(0, 1): (((1, 2), link_units),)}))


def drive_tiny_run(log):
    """One rejected arrival, then one request through its whole life."""
    view = log.view
    log.record_arrival(1_000_000, 0, accepted=False)
    r = VirtualNetworkRequest(1, {0: 50}, {}, 2_000_000, 5_000_000)
    reserve(view, build_reservation(view, r, {0: 1}, {}))
    log.record_arrival(2_000_000, 1, accepted=True, cost=50)
    log.record_commit_event(remapped_links=0)
    view.commit(1)
    log.record_commit(3_000_000, 1, cost=50, mean_hops=0.0, wait=1_000_000, rules_written=0)
    view.release(1)
    log.record_departure(7_000_000, 1)


class TestRecording:
    def test_counters_and_fates(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        assert (log.arrivals, log.accepted, summary(log)["rejected"]) == (2, 1, 1)
        rows = trace_rows(log)
        assert (log.committed, log.cancelled, active_counts(rows)[-1]) == (1, 0, 0)
        assert log.commit_events == 1
        assert fates(rows) == {
            0: [0, 1_000_000, "rejected"],
            1: [1, 2_000_000, "committed"],
        }

    def test_rows_sample_the_run_state(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        rows = trace_rows(log)
        kinds = [(r.event_kind, r.outcome, r.time) for r in rows]
        assert kinds == [
            ("arrival", "rejected", 1_000_000),
            ("arrival", "accepted", 2_000_000),
            ("commit", "committed", 3_000_000),
            ("departure", "departed", 7_000_000),
        ]
        rates = [r.cum_accept_rate for r in rows]
        assert rates == [0.0, 0.5, 0.5, 0.5]
        actives = active_counts(rows)
        assert actives == [0, 0, 1, 0]
        # 50 units tentative on switch 1 out of caps 100/100/100
        assert [round(r.avg_switch_util, 6) for r in rows] == [
            0.0, round(0.5 / 3, 6), round(0.5 / 3, 6), 0.0,
        ]

    def test_cancelled_commits_count_against_acceptance(self):
        log, _ = fresh_log()
        log.record_arrival(1, 0, accepted=True, cost=10)
        log.record_commit_event(remapped_links=0)
        log.record_cancel(2, 0)
        assert log.cancelled == 1
        rows = trace_rows(log)
        assert fates(rows)[0][2] == "rejected-at-commit"
        assert statistics(log)["acceptance_rate"] == summary_of_rows(rows)["acceptance_rate"] == 0.0
        row = rows[-1]
        assert row.outcome == "rejected-at-commit"
        assert row.cost is None and row.latency_proxy is None

    def test_a_commit_takes_every_value_it_records(self):
        # only a cancelled commit has no cost or latency, and it has its own call
        log, _ = fresh_log()
        for missing in ("cost", "mean_hops", "wait", "rules_written"):
            values = dict(cost=1, mean_hops=0.0, wait=0, rules_written=0)
            del values[missing]
            with pytest.raises(TypeError, match=missing):
                log.record_commit(1, 0, **values)
        assert (log.committed, log.cost_sum, trace_rows(log)) == (0, 0, [])

    def test_latency_proxy_formula(self):
        log, _ = fresh_log(hop_delay=2.0, wait_delay=0.5)
        assert log.latency_proxy(3.0, 4_000_000) == 3.0 * 2.0 + 4.0 * 0.5

    def test_utilization_means_average_over_all_elements(self):
        log, _ = fresh_log()
        stage(log.view, 1, 50)
        link_util, switch_util = log._utilization_means()
        assert link_util == pytest.approx((0.5 + 0 + 0) / 3)
        assert switch_util == pytest.approx((0.01 + 0.01 + 0) / 3)


class TestExactUtilizationMeans:
    """Each row's two means are the exact means of the per-element
    utilizations, rounded once, read from the view as the row is made."""

    CONFIGS = {
        "default": {},
        "random100": dict(substrate="random:100", interarrival_mean=0.5, requests=200),
        "costs14": COSTS14,
        "heavy": HEAVY,  # links split and remaps adopt
    }

    @pytest.mark.parametrize("strategy", ["batched", "per-request", "splitting"])
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_every_row_is_the_exact_mean_rounded(self, monkeypatch, strategy, config):
        exact = []
        append = MetricsLog._append

        def append_checked(log, *args):
            exact.append(tuple(map(float, exact_utilization_means(log.view))))
            append(log, *args)

        monkeypatch.setattr(MetricsLog, "_append", append_checked)
        overrides = dict(dict(requests=300, seed=1), **self.CONFIGS[config])
        _, log = run_simulation(RunConfig(strategy=strategy, **overrides), trace=io.StringIO())
        rows = trace_rows(log)
        assert len(exact) == len(rows) > 300
        assert [(r.avg_link_util, r.avg_switch_util) for r in rows] == exact


class TestAcceptanceRate:
    def build(self):
        log, _ = fresh_log()
        log.record_arrival(0, 0, accepted=True, cost=1)
        log.record_arrival(2_200_000, 1, accepted=False)
        log.record_arrival(2_500_000, 2, accepted=True, cost=1)
        log.record_arrival(3_500_000, 3, accepted=True, cost=1)
        for rid in (0, 2, 3):
            log.record_commit_event(0)
            log.record_commit(4_000_000, rid, cost=1, mean_hops=0.0, wait=0, rules_written=0)
        return trace_rows(log)

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

    def test_by_time_bucket_overflowing_the_tick_count_rejected(self):
        with pytest.raises(ValueError, match=r"by-time bucket 1e\+308 overflows the tick count"):
            acceptance_rate(self.build(), "by-time", 1e308)

    def test_cumulative_acceptance_of_empty_log(self):
        log, _ = fresh_log()
        assert statistics(log)["acceptance_rate"] == summary_of_rows(trace_rows(log))["acceptance_rate"] == 0.0


def row(t, link=0.0, kind="arrival", latency=None, cost=None, outcome="x"):
    return Row(t, kind, 0, outcome, cost, None, link, 0.0, 0, 0, 0, latency)


class TestTimeWeighted:
    """The log's running areas, and ``reference.time_weighted``, the pass
    over the rows that they must equal."""

    def test_step_integration_from_time_zero(self):
        rows = [row(6_000_000, link=1.0), row(8_000_000, link=0.0)]
        # zero until t=6, one until t=8: 2 of 8 time units
        assert time_weighted(rows, lambda r: r.avg_link_util) == pytest.approx(0.25)
        # through the log: a quarter of the link units from t=6 to t=8
        log, _ = fresh_log()
        stage(log.view, 1, 75)
        log.record_arrival(6_000_000, 1, accepted=True, cost=1)
        log.view.release(1)
        log.record_cancel(8_000_000, 1)
        assert [r.avg_link_util for r in trace_rows(log)] == [0.25, 0.0]
        assert statistics(log)["avg_link_utilization"] == 0.25 * 2 / 8

    def test_empty_rows(self):
        assert time_weighted([], lambda r: r.avg_link_util) == 0.0
        log, _ = fresh_log()
        assert statistics(log)["avg_link_utilization"] == 0.0

    def test_single_row_at_time_zero_returns_its_value(self):
        assert time_weighted([row(0, link=0.7)], lambda r: r.avg_link_util) == 0.7
        log, _ = fresh_log()
        stage(log.view, 1, 75)
        log.record_arrival(0, 1, accepted=True, cost=1)
        assert statistics(log)["avg_link_utilization"] == 0.25

    def test_mean_concurrent_active(self):
        log, _ = fresh_log()
        # two commits at t=5, both depart at t=10
        log.record_commit(5, 0, cost=1, mean_hops=0.0, wait=0, rules_written=0)
        log.record_commit(5, 1, cost=1, mean_hops=0.0, wait=0, rules_written=0)
        log.record_departure(10, 0)
        log.record_departure(10, 1)
        rows = trace_rows(log)
        assert active_counts(rows) == [1, 2, 1, 0]
        assert mean_concurrent_active(rows) == pytest.approx(1.0)

    def test_time_weighted_utilization_reads_the_requested_kind(self):
        log, _ = fresh_log()
        stage(log.view, 1, 75)
        log.record_arrival(0, 1, accepted=True, cost=1)
        first = trace_rows(log)[0]
        link, switch = first.avg_link_util, first.avg_switch_util
        assert (link, switch) == (0.25, 2 / 300)
        stats = statistics(log)
        assert (stats["avg_link_utilization"], stats["avg_switch_utilization"]) == (link, switch)
        # a first row at t=10 counts from then on: zero until the last row
        late, _ = fresh_log()
        stage(late.view, 1, 75)
        late.record_arrival(10, 1, accepted=True, cost=1)
        stats = statistics(late)
        assert (stats["avg_link_utilization"], stats["avg_switch_utilization"]) == (0.0, 0.0)

    def test_utilization_series_converts_ticks_to_units(self):
        # the trace is the series: its time column is in units
        log, _ = fresh_log()
        stage(log.view, 1, 75)
        log.record_arrival(1_500_000, 1, accepted=True, cost=1)
        fields = trace_text(log).splitlines()[1].split(",")
        assert (fields[0], fields[CSV_COLUMNS.index("avg_link_util")]) == ("1.500000", "0.25")


def same(got, want):
    # repr tells -0.0 from 0.0 and every other pair of floats apart
    return type(got) is float and repr(got) == repr(want)


class TestDerivedStats:
    """The summary's means over the committed requests, from the log's
    running sums, and from the rows by ``reference.summary_of_rows``."""

    def both(self, log, field):
        live, derived = statistics(log)[field], summary_of_rows(trace_rows(log))[field]
        assert repr(live) == repr(derived)
        return live

    def test_mean_cost_counts_only_real_commits(self):
        log, _ = fresh_log()
        log.record_arrival(1, 0, accepted=True, cost=99)
        log.record_commit(2, 0, cost=30, mean_hops=0.0, wait=0, rules_written=0)
        log.record_cancel(3, 1)
        log.record_commit(4, 2, cost=50, mean_hops=0.0, wait=0, rules_written=0)
        assert self.both(log, "mean_cost_per_accepted") == 40.0

    def test_mean_latency_over_commit_rows(self):
        log, _ = fresh_log()
        log.record_commit(1, 0, cost=1, mean_hops=2.0, wait=0, rules_written=0)
        log.record_cancel(2, 1)
        log.record_commit(3, 2, cost=1, mean_hops=4.0, wait=0, rules_written=0)
        assert [r.latency_proxy for r in trace_rows(log)] == [2.0, None, 4.0]
        assert self.both(log, "mean_latency_proxy") == 3.0

    def test_mean_latency_sums_left_to_right(self):
        # a compensated sum (``sum`` since Python 3.12, ``math.fsum``) keeps
        # the 1.0 that a left-to-right sum rounds away
        series = [1e16, 1.0, -1e16]
        assert math.fsum(series) == 1.0
        assert ordered_sum(series) == (1e16 + 1.0) - 1e16 == 0.0

        def commit_all(values):
            # with hop delay 1 and no wait, each latency is its mean hops
            log, _ = fresh_log()
            for t, v in enumerate(values, start=1):
                log.record_commit(t, t, cost=1, mean_hops=v, wait=0, rules_written=0)
            assert [r.latency_proxy for r in trace_rows(log)] == values
            return log

        assert self.both(commit_all(series), "mean_latency_proxy") == 0.0

        def fold(values):
            return functools.reduce(operator.add, values, 0.0)

        # one rounded addition per term, from 0.0, on every interpreter
        assert same(ordered_sum([-0.0]), 0.0)
        assert same(ordered_sum([-0.0, -0.0]), 0.0)
        assert same(ordered_sum([]), 0.0)
        assert same(ordered_sum(v for v in series), 0.0)
        rng = random.Random("ordered-sum")
        for i in range(2000):
            values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
                      for _ in range(rng.randint(0, 60))]
            assert same(ordered_sum(values), fold(values)), values
            if i % 10 == 0 and values:
                # the log's running sum is the same fold
                assert same(self.both(commit_all(values), "mean_latency_proxy"),
                            fold(values) / len(values)), values

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


class TestFoldedSummary:
    """``statistics`` reads the log's counters and running values, never a
    row, and the trace, parsed back, reproduces it to the bit."""

    def test_statistics_reads_no_row(self):
        _, log = run_simulation(RunConfig(requests=200, seed=5))
        before = repr(statistics(log))
        assert 0 < len(log.block) < TRACE_BLOCK  # the rows not yet formatted
        log.block.clear()
        assert repr(statistics(log)) == before

    def test_a_log_without_a_view_gives_the_zero_row(self):
        # what ``cli._COMPARE_COLUMNS`` is built from and ``compare
        # --requests 0`` prints
        zero = {"arrivals": 0, "accepted": 0, "rejected": 0, "rejected_at_commit": 0,
                "acceptance_rate": 0.0, "mean_cost_per_accepted": 0.0, "rule_writes": 0,
                "commit_events": 0, "remapped_links": 0, "mean_latency_proxy": 0.0,
                "avg_link_utilization": 0.0, "avg_switch_utilization": 0.0}
        assert repr(statistics(MetricsLog(None))) == repr(zero)
        assert repr(summary_of_rows([])) == repr(zero)

    @pytest.mark.parametrize("strategy", ["batched", "per-request", "splitting"])
    def test_parsed_trace_reproduces_the_summary(self, strategy, monkeypatch):
        held = formatted_rows(monkeypatch)
        rng = random.Random(f"parsed-trace-{strategy}")
        for requests in (0, 1, 2, 40, 200, 260):
            config = RunConfig(
                strategy=strategy, requests=requests, seed=rng.randrange(10_000),
                substrate=rng.choice(["default", "random:40"]),
                mode=rng.choice(["whichever-first", "count-only", "time-only"]),
                batch_size=rng.randint(1, 8), interarrival_mean=rng.choice([0.5, 2.0, 5.0]),
                hop_delay=rng.uniform(0.1, 3.0), wait_delay=rng.uniform(0.1, 3.0),
                horizon=rng.choice([None, rng.uniform(1.0, 600.0)]))
            held.clear()
            _, log = run_simulation(config, trace=io.StringIO())
            rows = trace_rows(log)
            assert rows == held, config
            assert repr(statistics(log)) == repr(summary_of_rows(rows)), config

    def test_parse_trace_types_each_cell(self, monkeypatch):
        held = formatted_rows(monkeypatch)
        log, _ = fresh_log()
        drive_tiny_run(log)
        rows = trace_rows(log)
        assert rows == held and len(rows) == 4
        assert [[type(v) for v in r] for r in rows] == [[type(v) for v in r] for r in held]

    def test_parse_trace_rejects_another_header_or_width(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        header, first, *_ = trace_text(log).splitlines(keepends=True)
        with pytest.raises(ValueError, match="is not the trace's columns"):
            parse_trace(header.replace("cost", "price") + first)
        with pytest.raises(ValueError, match="does not have 12 cells"):
            parse_trace(header + first.rstrip("\n") + ",\n")
        with pytest.raises(ValueError, match="does not have 6 decimals"):
            parse_trace(header + first.replace(".000000", ".0000", 1))


class TestCsvTrace:
    def test_header_matches_the_schema(self):
        log, _ = fresh_log()
        assert trace_text(log) == ",".join(CSV_COLUMNS) + "\n"
        assert csv_text([]) == ""

    def test_row_formatting_literal(self):
        log, _ = fresh_log()
        log.record_arrival(1_500_000, 7, accepted=True, cost=35)
        line = "1.500000,arrival,7,accepted,35,1.0,0.0,0.0,0,0,0,"
        assert trace_text(log).splitlines()[1] == line
        assert csv_text([(1_500_000, "arrival", 7, "accepted", 35, 1.0, 0.0, 0.0, 0, 0, 0,
                          None)]) == line + "\n"

    def test_rebuilt_log_yields_identical_bytes(self):
        a, _ = fresh_log()
        b, _ = fresh_log()
        drive_tiny_run(a)
        drive_tiny_run(b)
        assert trace_text(a) == trace_text(b)
        assert trace_hash(a) == trace_hash(b)

    def test_export_writes_exactly_the_text(self, tmp_path):
        # a file stream gets the same bytes as a text buffer, and they hash
        # to the trace hash
        out = tmp_path / "trace.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            log, _ = fresh_log(trace=fh)
            drive_tiny_run(log)
            digest = trace_hash(log)
        buffered, _ = fresh_log()
        drive_tiny_run(buffered)
        assert out.read_bytes() == trace_text(buffered).encode("utf-8")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_summary_hashes_the_formatted_text_as_the_trace_hash(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        given = summary(log)
        assert given == dict(statistics(log), trace_sha256=trace_hash(log))
        assert given["trace_sha256"] == hashlib.sha256(trace_text(log).encode("utf-8")).hexdigest()

    def test_trace_hash_is_sha256_of_the_text(self):
        log, _ = fresh_log()
        drive_tiny_run(log)
        want = hashlib.sha256(trace_text(log).encode("utf-8")).hexdigest()
        assert trace_hash(log) == want
        assert len(want) == 64

    def test_hash_and_text_agree_around_a_block_boundary(self):
        # the log formats TRACE_BLOCK rows at a time into the digest and the
        # stream; each count of rows hashes to the SHA-256 of the text written
        longest = 2 * TRACE_BLOCK
        full, _ = fresh_log()
        for i in range(longest):
            full.record_departure(1000 * i, i)
        lines = trace_text(full).splitlines(keepends=True)
        assert len(lines) == longest + 1
        for count in (0, 1, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1, longest):
            log, _ = fresh_log()
            for i in range(count):
                log.record_departure(1000 * i, i)
            digest = trace_hash(log)
            text = log.stream.getvalue()
            assert text == "".join(lines[:count + 1]), count
            assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest(), count

    def test_a_hash_taken_mid_run_leaves_the_final_hash(self, monkeypatch):
        # trace_hash formats the partial block; the rows after it go on
        # into the same digest and stream
        strategy, overrides, expected = GOLDEN[0]
        config = RunConfig(strategy=strategy, **dict(dict(requests=400), **overrides))
        append, taken = MetricsLog._append, []

        def append_and_hash(log, *args):
            append(log, *args)
            if log.arrivals % 37 == 1:
                taken.append(trace_hash(log))

        monkeypatch.setattr(MetricsLog, "_append", append_and_hash)
        _, log = run_simulation(config, trace=io.StringIO())
        assert len(set(taken)) > 10
        assert trace_hash(log) == expected
        monkeypatch.undo()
        _, once = run_simulation(config, trace=io.StringIO())
        assert trace_hash(once) == expected
        assert trace_text(log) == trace_text(once)

    def test_a_run_holds_fewer_rows_than_a_block(self, monkeypatch):
        held = []
        dispatch = Engine._dispatch

        def dispatch_and_count(engine, *args):
            dispatch(engine, *args)
            held.append(len(engine.controller.log.block))

        monkeypatch.setattr(Engine, "_dispatch", dispatch_and_count)
        engine, log = run_simulation(RunConfig(requests=1500, seed=0))
        assert len(held) == engine.events_dispatched > 1500
        assert max(held) < TRACE_BLOCK
        assert len(log.block) == held[-1]


def fresh_python(code):
    """Run ``code`` in a new interpreter with this checkout's ``src`` first on
    the path; returns its standard output, and fails the test if it fails."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


class TestDigestModule:
    """The trace hash comes from the builtin SHA-256 module, so a run never
    maps OpenSSL through ``_hashlib``; ``hashlib`` is only the fallback."""

    @pytest.mark.skipif(not (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")),
                        reason="this interpreter has no builtin SHA-256 module")
    def test_a_run_and_its_summary_never_load_hashlib(self):
        out = fresh_python(
            "import sys\n"
            "import vnesim\n"
            "_, log = vnesim.run_simulation(vnesim.RunConfig(strategy='batched', requests=50))\n"
            "vnesim.summary(log)\n"
            "print('_hashlib' in sys.modules, vnesim.metrics.sha256.__module__)\n")
        loaded, module = out.split()
        assert loaded == "False"
        assert module in ("_sha2", "_sha256")

    def test_without_the_builtin_modules_hashlib_gives_the_same_hash(self):
        strategy, overrides, expected = GOLDEN[0]
        out = fresh_python(
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "import vnesim\n"
            f"config = vnesim.RunConfig(strategy={strategy!r}, **dict(dict(requests=400), **{overrides!r}))\n"
            "_, log = vnesim.run_simulation(config)\n"
            "print(vnesim.metrics.sha256 is hashlib.sha256, vnesim.summary(log)['trace_sha256'])\n")
        assert out.split() == ["True", expected]
