"""The machine's speed, sampled between the events of a timed run.

On a shared host the CPU's speed changes from one millisecond to the next
and for minutes at a time (README.md, "Noise"), so an event's host time
says as much about the machine as about the program. ``SpeedClock`` times
every dispatched event of a run and, whenever ``GAP`` seconds have passed
since its last probe, runs and times a probe before the event: a fixed
piece of pure-Python work that does not touch vnesim. An event's time over
the probe time around it (the median of the nearest probes) is its cost in
probes, which moves far less with the machine's speed than its time does.
A cost in probes times ``REFERENCE_S`` is the time the work takes when the
probe takes ``REFERENCE_S``: host seconds at one fixed machine speed.
"""

from __future__ import annotations

import functools
import gc
import heapq
import statistics
from random import Random
from time import perf_counter

GAP = 0.005  # seconds from one probe to the next
WINDOW = 2  # an event's probe time is the median of 2 * WINDOW + 1 probes
# The probe's median time on an unloaded core of the machine the benchmark
# was tuned on (2-core Intel Xeon VM, CPython 3.11).
REFERENCE_S = 158e-6


def _graph(n=120, extra=60, seed=0):
    rng = Random(seed)
    adj = {u: [] for u in range(n)}
    pairs = [(u, rng.randrange(u)) for u in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    for a, b in pairs:
        w = rng.randint(1, 9)
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


_ADJ = _graph()
_ENDS = ((0, 119), (7, 64), (33, 98))


def probe():
    """Shortest paths between fixed switch pairs on a fixed graph.

    The garbage collector is off meanwhile, so the probe never pays for the
    program's garbage.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _shortest_paths()
    finally:
        if was_enabled:
            gc.enable()


def _shortest_paths():
    for src, dst in _ENDS:
        heap, settled = [(0, src)], set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if node == dst:
                break
            for nb, w in _ADJ[node]:
                if nb not in settled:
                    heapq.heappush(heap, (cost + w, nb))


class SpeedClock:
    """Times each call of ``Engine._dispatch``, with probes between calls.

    Installed and restored like a ``tracing.Tracer``.
    """

    def __init__(self):
        self.events = []  # seconds of each dispatched event
        self.probes = []  # (index of the event it preceded, seconds)
        self._patched = None

    def install(self, vn):
        engine = vn.simulator.Engine
        original = vars(engine)["_dispatch"]
        events, probes, clock = self.events, self.probes, perf_counter
        last = [float("-inf")]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            if start - last[0] >= GAP:
                probe()
                end = clock()
                probes.append((len(events), end - start))
                last[0] = start = end
            result = original(*args, **kwargs)
            events.append(clock() - start)
            return result

        engine._dispatch = timed
        self._patched = (engine, original)

    def restore(self):
        if self._patched is not None:
            engine, original = self._patched
            engine._dispatch = original
            self._patched = None

    def probe_seconds(self):
        return sum(seconds for _index, seconds in self.probes)

    def cost(self, rest):
        """The run's cost in probes: every event, plus ``rest`` seconds
        outside the events taken at the run's median probe time."""
        times = [seconds for _index, seconds in self.probes]
        smooth = [statistics.median(times[max(0, j - WINDOW):j + WINDOW + 1])
                  for j in range(len(times))]
        total, j = 0.0, 0
        for i, seconds in enumerate(self.events):
            while j + 1 < len(self.probes) and self.probes[j + 1][0] <= i:
                j += 1
            total += seconds / smooth[j]
        return total + rest / statistics.median(smooth)


def probe_time(count=5):
    """The median time of ``count`` probes run now."""
    times = []
    for _ in range(count):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return statistics.median(times)
