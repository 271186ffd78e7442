"""Tick arithmetic, seeded streams, and event-loop ordering."""

from dataclasses import dataclass, field

import pytest

from vnesim.simulator import (
    ARRIVAL,
    DEPARTURE,
    TICKS_PER_UNIT,
    TRIGGER,
    Engine,
    RandomStreams,
    draw_interarrival,
    draw_lifetime,
    to_ticks,
)

from reference import to_units


def test_tick_conversions():
    assert TICKS_PER_UNIT == 1_000_000
    assert to_ticks(5) == 5_000_000
    assert to_ticks(0.25) == 250_000
    assert to_units(2_500_000) == 2.5
    assert to_units(to_ticks(119.75)) == 119.75


def test_event_kind_priorities():
    # at one tick: departures resolve first, then arrivals, then triggers
    assert DEPARTURE < ARRIVAL < TRIGGER


class TestRandomStreams:
    def test_same_seed_reproduces_every_stream(self):
        a, b = RandomStreams(42), RandomStreams(42)
        assert [a.interarrival.random() for _ in range(5)] == [
            b.interarrival.random() for _ in range(5)
        ]
        assert [a.lifetime.random() for _ in range(5)] == [
            b.lifetime.random() for _ in range(5)
        ]
        assert a.topology.random() == b.topology.random()
        assert [a.request(7).random() for _ in range(5)] == [
            b.request(7).random() for _ in range(5)
        ]

    def test_streams_are_mutually_distinct(self):
        s = RandomStreams(42)
        draws = {
            "interarrival": s.interarrival.random(),
            "lifetime": s.lifetime.random(),
            "topology": s.topology.random(),
            "request0": s.request(0).random(),
            "request1": s.request(1).random(),
        }
        assert len(set(draws.values())) == len(draws)

    def test_request_streams_do_not_advance_each_other(self):
        s = RandomStreams(9)
        first = s.request(3).random()
        s.request(4).random()
        s.request(5).random()
        assert RandomStreams(9).request(3).random() == first

    def test_string_and_int_seeds_are_distinct_families(self):
        assert RandomStreams(1).interarrival.random() != RandomStreams("1x").interarrival.random()


class TestExponentialDraws:
    def test_draws_are_strictly_positive_ticks(self):
        stream = RandomStreams(0).interarrival
        draws = [draw_interarrival(stream) for _ in range(10_000)]
        assert all(isinstance(d, int) and d >= 1 for d in draws)

    def test_means_land_near_the_defaults(self):
        streams = RandomStreams(123)
        n = 20_000
        ia = sum(draw_interarrival(streams.interarrival) for _ in range(n)) / n
        lt = sum(draw_lifetime(streams.lifetime) for _ in range(n)) / n
        assert abs(ia / TICKS_PER_UNIT - 5.0) < 0.15
        assert abs(lt / TICKS_PER_UNIT - 120.0) < 3.6

    def test_custom_means_scale(self):
        stream = RandomStreams(7).interarrival
        n = 20_000
        mean = sum(draw_interarrival(stream, 0.5) for _ in range(n)) / n
        assert abs(mean / TICKS_PER_UNIT - 0.5) < 0.02


@dataclass
class FakeRequest:
    request_id: int
    arrival: int


@dataclass
class RecordingController:
    """Captures dispatch order; schedules nothing back."""

    seen: list = field(default_factory=list)

    def on_arrival(self, engine, request):
        self.seen.append(("arrival", engine.now, request.request_id))

    def on_departure(self, engine, request_id):
        self.seen.append(("departure", engine.now, request_id))

    def on_window_trigger(self, engine, epoch):
        self.seen.append(("trigger", engine.now, epoch))

    def flush(self, engine):
        self.seen.append(("flush", engine.now, None))

    @property
    def pending(self):
        return 0


class TestEngine:
    def test_sorted_arrivals_dispatch_in_order(self):
        ctl = RecordingController()
        reqs = [FakeRequest(1, 3), FakeRequest(2, 5), FakeRequest(0, 7)]
        engine = Engine(ctl, reqs).run()
        assert ctl.seen == [
            ("arrival", 3, 1),
            ("arrival", 5, 2),
            ("arrival", 7, 0),
        ]
        assert engine.now == 7
        assert engine.events_dispatched == 3

    def test_a_decreasing_arrival_raises_naming_the_request(self):
        ctl = RecordingController()
        engine = Engine(ctl, [FakeRequest(0, 7), FakeRequest(1, 3), FakeRequest(2, 5)])
        with pytest.raises(ValueError, match="request 1 arrives at tick 3, before .* tick 7"):
            engine.run()
        assert ctl.seen == []

    def test_arrivals_are_read_one_ahead_of_the_clock(self):
        read, seen_at_dispatch = [], []

        def arrivals():
            for r in [FakeRequest(0, 2), FakeRequest(1, 4), FakeRequest(2, 6)]:
                read.append(r.request_id)
                yield r

        class Watching(RecordingController):
            def on_arrival(self, engine, request):
                seen_at_dispatch.append(list(read))

        Engine(Watching(), arrivals()).run()
        # the next arrival is in the heap before the current one dispatches
        assert seen_at_dispatch == [[0, 1], [0, 1, 2], [0, 1, 2]]

    def test_lazy_arrivals_keep_the_tie_order(self):
        # arrivals at 5, 5 and 9; each arrival at 5 schedules a departure and
        # a trigger at 9, so the lazily pushed arrival at 9 gets a later
        # sequence number than both, yet dispatches between them by kind
        class Scheduling(RecordingController):
            def on_arrival(self, engine, request):
                super().on_arrival(engine, request)
                if engine.now == 5:
                    engine.schedule_trigger(9, epoch=request.request_id)
                    engine.schedule_departure(9, request_id=request.request_id)

        ctl = Scheduling()
        Engine(ctl, [FakeRequest(0, 5), FakeRequest(1, 5), FakeRequest(2, 9)]).run()
        assert ctl.seen == [
            ("arrival", 5, 0),
            ("arrival", 5, 1),
            ("departure", 9, 0),
            ("departure", 9, 1),
            ("arrival", 9, 2),
            ("trigger", 9, 0),
            ("trigger", 9, 1),
        ]

    def test_same_tick_orders_departure_arrival_trigger(self):
        ctl = RecordingController()
        engine = Engine(ctl, [FakeRequest(0, 5)])
        engine.schedule_trigger(5, epoch=0)
        engine.schedule_departure(5, request_id=9)
        engine.run()
        assert ctl.seen == [
            ("departure", 5, 9),
            ("arrival", 5, 0),
            ("trigger", 5, 0),
        ]

    def test_equal_time_and_kind_keeps_insertion_order(self):
        ctl = RecordingController()
        engine = Engine(ctl, [FakeRequest(i, 4) for i in range(4)])
        engine.run()
        assert [rid for _, _, rid in ctl.seen] == [0, 1, 2, 3]

    def test_horizon_leaves_later_events_unplayed(self):
        ctl = RecordingController()
        engine = Engine(ctl, [FakeRequest(0, 3), FakeRequest(1, 30)], horizon=10)
        engine.run()
        assert ctl.seen == [("arrival", 3, 0)]
        assert engine.events_dispatched == 1

    def test_event_exactly_at_the_horizon_still_plays(self):
        ctl = RecordingController()
        Engine(ctl, [FakeRequest(0, 10)], horizon=10).run()
        assert ctl.seen == [("arrival", 10, 0)]

    def test_zero_requests_complete_immediately(self):
        ctl = RecordingController()
        engine = Engine(ctl, []).run()
        assert ctl.seen == []
        assert engine.now == 0
        assert engine.events_dispatched == 0
