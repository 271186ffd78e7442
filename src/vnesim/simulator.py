"""Deterministic discrete-event engine and seeded random streams.

Simulated time is an integer count of micro-time-units (ticks), so equal-time
comparisons are exact. The event queue is a heap of
(time, kind, sequence, payload) tuples: at equal times departures dispatch
before arrivals, and arrivals before window triggers; the monotone sequence
number makes the order total. The engine reads its arrivals from an iterable
and keeps one pending arrival in the heap: popping an arrival pushes the
next one before the popped one dispatches (the event-scheduling pattern in
which each arrival schedules the next), so only the requests near the clock
need exist. Arrivals must not decrease; for every such input the dispatch
order is the one of pushing them all up front. Replaying the same master
seed and config reproduces the event trace bit for bit.

Random streams derive from a master seed as independent stdlib generators
seeded with stable strings ("<seed>/interarrival", "/lifetime", "/topology",
"/request/<i>"); string seeding hashes via SHA-512 inside CPython, so the
streams do not depend on platform or process.
"""

from __future__ import annotations

import math
from heapq import heappush, heappop
from random import Random

TICKS_PER_UNIT = 1_000_000

DEPARTURE = 0
ARRIVAL = 1
TRIGGER = 2

DEFAULT_INTERARRIVAL_MEAN = 5.0
DEFAULT_LIFETIME_MEAN = 120.0


def to_ticks(units) -> int:
    return int(round(units * TICKS_PER_UNIT))


class RandomStreams:
    """Independent per-purpose generators derived from one master seed."""

    def __init__(self, master_seed):
        self.master_seed = master_seed
        self.interarrival = Random(f"{master_seed}/interarrival")
        self.lifetime = Random(f"{master_seed}/lifetime")
        self.topology = Random(f"{master_seed}/topology")

    def request(self, index) -> Random:
        """Generator for the demand graph of request ``index``."""
        return Random(f"{self.master_seed}/request/{index}")


# -log(1 - u) at the largest u that random() returns, 1 - 2**-53: the
# largest multiple of its mean that one draw can be (about 36.7)
MAX_DRAW_FACTOR = -math.log(2.0 ** -53)


def _exponential_ticks(stream, mean_units) -> int:
    # inverse CDF on the stream's next uniform; at least one tick so draws
    # are strictly positive and arrival times strictly increase
    u = stream.random()
    return max(1, int(round(-math.log(1.0 - u) * mean_units * TICKS_PER_UNIT)))


def draw_interarrival(stream, mean=DEFAULT_INTERARRIVAL_MEAN) -> int:
    """Exponential inter-arrival gap in ticks (mean 5 time units)."""
    return _exponential_ticks(stream, mean)


def draw_lifetime(stream, mean=DEFAULT_LIFETIME_MEAN) -> int:
    """Exponential service lifetime in ticks (mean 120 time units)."""
    return _exponential_ticks(stream, mean)


class Engine:
    """Heap-driven event loop feeding a controller.

    ``arrivals`` is an iterable of requests whose ``arrival`` ticks do not
    decrease; it is read one request ahead of the clock, and a decrease
    raises ValueError naming the request. The controller schedules
    departures (at commit) and window triggers back through the engine.
    After the queue drains, any still-pending batch is flushed so every
    tentative request resolves: at the last event time, or with a horizon
    at the horizon itself, even when the queue drained long before it
    (ROADMAP item 7).
    """

    def __init__(self, controller, arrivals, horizon=None, check_invariants=False):
        self.controller = controller
        self.now = 0
        self.horizon = horizon  # ticks, optional
        self.check_invariants = check_invariants
        self.events_dispatched = 0
        self._heap = []
        self._seq = 0
        self._arrivals = iter(arrivals)
        self._push_next_arrival(-math.inf)

    def _push_next_arrival(self, after):
        """Push the next arrival, which must not come before tick ``after``."""
        request = next(self._arrivals, None)
        if request is not None:
            if request.arrival < after:
                raise ValueError(f"request {request.request_id} arrives at tick {request.arrival}, "
                                 f"before the previous arrival at tick {after}: "
                                 f"arrivals must not decrease")
            self._push(request.arrival, ARRIVAL, request)

    def _push(self, time, kind, payload):
        heappush(self._heap, (time, kind, self._seq, payload))
        self._seq += 1

    def schedule_departure(self, time, request_id):
        self._push(time, DEPARTURE, request_id)

    def schedule_trigger(self, time, epoch):
        self._push(time, TRIGGER, epoch)

    def _dispatch(self, time, kind, payload):
        self.now = time
        self.events_dispatched += 1
        if kind == DEPARTURE:
            self.controller.on_departure(self, payload)
        elif kind == ARRIVAL:
            self.controller.on_arrival(self, payload)
        else:
            self.controller.on_window_trigger(self, payload)
        if self.check_invariants:
            self._audit()

    def _drain(self):
        while self._heap:
            if self.horizon is not None and self._heap[0][0] > self.horizon:
                return
            time, kind, _seq, payload = heappop(self._heap)
            if kind == ARRIVAL:
                self._push_next_arrival(time)
            self._dispatch(time, kind, payload)

    def run(self):
        self._drain()
        while self.controller.pending:
            if self.horizon is not None:
                self.now = self.horizon
            self.controller.flush(self)
            self._drain()
        return self

    def _audit(self):
        problems = self.controller.view.conservation_violations()
        policy = self.controller.row.policy
        if policy.counts and self.controller.pending > policy.size:
            problems.append(
                f"batch holds {self.controller.pending} > {policy.size} tentative requests"
            )
        if problems:
            raise AssertionError("; ".join(problems))
