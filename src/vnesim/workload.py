"""Workload generation: substrates and random virtual network requests.

The default substrate is a 14-switch backbone (ring plus seven cross-links,
average degree 3) whose wiring ships as a data file; capacities and
bandwidths are drawn uniformly from [100, 250] per seed, unit costs are 1.
A ``random:<n>`` substrate is a random spanning tree plus uniform extra
links drawn by rejection, in time and memory linear in n. Virtual requests
are uniform random spanning trees (via Prufer sequences) plus each
remaining node pair independently with a fixed probability, with uniform
integer demands. The default demand ranges model a flow-table-bound
fabric: node demands (up to 35 units) compete with rules for switch memory,
the scarce resource, while link demands (up to 4 units) leave bandwidth
comfortable. Generation is a pure function of (master seed, spec, request
index). A request's links are tuples of one table, ``_pair_rows``, grown
in place to the largest node count asked for: 1,500 default requests (3 to
10 nodes) then share 45 link tuples, not one per link, and a spec of up to
N nodes keeps one N x N table alive, not one per node count. The draws and
the link order do not depend on the table.

A run holds only the requests in flight: ``iter_schedule`` draws each
arrival and lifetime as it is asked for, and ``iter_requests`` reads that
schedule and builds its requests ``REQUEST_BLOCK`` at a time, so neither
the schedule nor the workload is ever whole in memory.
``generate_workload`` is the same requests as one list.

Integer draws go straight to the stream's ``getrandbits``: ``_randbelow``,
``_randints`` and ``_shuffle`` reproduce ``Random.randrange``, ``randint``
and ``shuffle`` draw for draw (the rejection loop of CPython's
``_randbelow_with_getrandbits``, 3.10 to 3.13) without their per-draw calls.
``tests/test_workload.py::TestInlineDraws`` pins them to ``Random`` itself,
and ``TestGeneratorsMatchRandomMethods`` pins the generators to their
``Random``-method versions in ``tests/reference.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from importlib import resources
from itertools import islice

from .netmodel import SubstrateNetwork, VirtualNetworkRequest, load_topology, norm_link
from .simulator import (
    DEFAULT_INTERARRIVAL_MEAN,
    DEFAULT_LIFETIME_MEAN,
    RandomStreams,
    draw_interarrival,
    draw_lifetime,
)


@dataclass
class GeneratorSpec:
    """Knobs for substrate and virtual-request generation."""

    substrate: str = "default"  # "default" | "random:<n>" | topology file path
    vnodes_min: int = 3
    vnodes_max: int = 10
    edge_prob: float = 0.5
    node_demand_min: int = 1
    node_demand_max: int = 35
    link_demand_min: int = 1
    link_demand_max: int = 4
    cap_min: int = 100
    cap_max: int = 250

    def validate(self):
        for lo, hi, what in (
            (self.vnodes_min, self.vnodes_max, "virtual node count"),
            (self.node_demand_min, self.node_demand_max, "node demand"),
            (self.link_demand_min, self.link_demand_max, "link demand"),
            (self.cap_min, self.cap_max, "capacity"),
        ):
            if not (isinstance(lo, int) and isinstance(hi, int)) or lo < 1 or hi < lo:
                raise ValueError(f"{what} range [{lo}, {hi}] is not a nonempty positive integer range")
        if not 0 < self.edge_prob <= 1:
            raise ValueError(f"edge probability must be in (0, 1], got {self.edge_prob}")
        return self


def _empty_range(n):
    # getrandbits(0) is 0, so a draw from fewer than one value would never end
    return ValueError(f"empty range for a draw: {n} values")


def _randbelow(getrandbits, n):
    """A draw from range(n), as ``Random.randrange(n)`` makes it."""
    if n < 1:
        raise _empty_range(n)
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _randints(getrandbits, lo, hi, count):
    """``count`` draws of ``Random.randint(lo, hi)``, in order."""
    n = hi - lo + 1
    if n < 1:
        raise _empty_range(n)
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _shuffle(getrandbits, x):
    """``Random.shuffle(x)``: swap each x[i], last to second, with x[j] for
    j drawn from range(i + 1)."""
    for i in range(len(x) - 1, 0, -1):
        j = _randbelow(getrandbits, i + 1)
        x[i], x[j] = x[j], x[i]


def _default_shape():
    text = resources.files("vnesim.data").joinpath("default14.edges").read_text("utf-8")
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            a, b = line.split()
            edges.append(norm_link(int(a), int(b)))
    switches = sorted({s for e in edges for s in e})
    return switches, edges


def _drawn_network(stream, switches, edges, spec) -> SubstrateNetwork:
    """The network on ``switches`` and ``edges`` with capacities drawn for
    the switches in order, then bandwidths for the edges in sorted order,
    uniform over the spec's range; unit costs are 1."""
    lo, hi = spec.cap_min, spec.cap_max
    edges = sorted(edges)
    caps = _randints(stream.getrandbits, lo, hi, len(switches))
    bws = _randints(stream.getrandbits, lo, hi, len(edges))
    return SubstrateNetwork([(u, cap, 1) for u, cap in zip(switches, caps)],
                            [(a, b, bw, 1) for (a, b), bw in zip(edges, bws)])


def default_substrate(stream, spec: GeneratorSpec = None) -> SubstrateNetwork:
    """The built-in 14-switch substrate with per-seed uniform resources."""
    switches, edges = _default_shape()
    return _drawn_network(stream, switches, edges, spec or GeneratorSpec())


def random_substrate(stream, n_switches, spec: GeneratorSpec = None) -> SubstrateNetwork:
    """A connected random substrate: random spanning tree plus extra links
    up to roughly average degree 3, resources uniform like the default.

    The extra links are drawn by rejection (Batagelj & Brandes, Phys. Rev.
    E 71, 2005): each attempt draws two switches uniformly and adds their
    link unless they are equal or already linked, until the network has
    its links. That is a uniform set of non-tree pairs, in time and memory
    linear in n: the links wanted are about 3 / (n - 1) of all pairs, so
    past a handful of switches nearly every attempt adds one. The count is
    capped at all pairs, which n = 3 would otherwise ask one more than."""
    if n_switches < 2:
        raise ValueError("need at least 2 switches")
    getrandbits = stream.getrandbits
    switches = list(range(1, n_switches + 1))
    order = switches[:]
    _shuffle(getrandbits, order)
    edges = {norm_link(order[i], order[_randbelow(getrandbits, i)]) for i in range(1, n_switches)}
    want = min(max(n_switches - 1, round(1.5 * n_switches)), n_switches * (n_switches - 1) // 2)
    while len(edges) < want:
        a = 1 + _randbelow(getrandbits, n_switches)
        b = 1 + _randbelow(getrandbits, n_switches)
        if a != b:
            edges.add(norm_link(a, b))
    return _drawn_network(stream, switches, edges, spec or GeneratorSpec())


def random_size(source):
    """n of a ``random:<n>`` substrate source, None for any other source;
    raises ValueError unless n is an integer >= 2."""
    if not source.startswith("random:"):
        return None
    try:
        size = int(source.split(":", 1)[1])
    except ValueError:
        size = 0
    if size < 2:
        raise ValueError(f"substrate {source!r}: random:<n> needs an integer n >= 2")
    return size


def build_substrate(source, stream, spec: GeneratorSpec = None) -> SubstrateNetwork:
    if source == "default":
        return default_substrate(stream, spec)
    size = random_size(source)
    if size is not None:
        return random_substrate(stream, size, spec)
    return load_topology(source)


_PAIRS = []  # the one link table; see _pair_rows


def _pair_rows(n):
    """The link table, grown in place to at least n nodes: ``rows[a][b]`` and
    ``rows[b][a]`` are one tuple ``(min(a, b), max(a, b))``. Every call returns
    the same table and growing keeps its tuples, so all requests share their
    link tuples instead of holding their own; callers must not change it."""
    rows = _PAIRS
    old = len(rows)
    if n > old:
        for row in rows:
            row.extend([None] * (n - old))
        rows.extend([None] * n for _ in range(n - old))
        for a in range(n):
            for b in range(max(a, old), n):
                rows[a][b] = rows[b][a] = (a, b)
    return rows


def _prufer_tree(stream, n):
    """Uniform random labeled tree on nodes 0..n-1, as an edge list of
    ``_pair_rows``'s tuples."""
    if n < 2:
        return []
    rows = _pair_rows(n)
    if n == 2:
        return [rows[0][1]]
    seq = _randints(stream.getrandbits, 0, n - 1, n - 2)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append(rows[leaf][x])
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(rows[heapq.heappop(leaves)][heapq.heappop(leaves)])
    return edges


def gen_virtual_request(stream, spec: GeneratorSpec, request_id, arrival, lifetime) -> VirtualNetworkRequest:
    """One random request: tree plus extra edges, uniform integer demands.

    For a validated spec it meets ``VirtualNetworkRequest``'s contract: a
    spanning tree connects the nodes, each link is (a, b) with a < b, and
    each demand is an integer >= 1. Its links are ``_pair_rows``'s tuples."""
    getrandbits, random = stream.getrandbits, stream.random
    n = spec.vnodes_min + _randbelow(getrandbits, spec.vnodes_max - spec.vnodes_min + 1)
    rows = _pair_rows(n)
    links = set(_prufer_tree(stream, n))
    for a in range(n):
        for link in rows[a][a + 1:n]:
            if link not in links and random() < spec.edge_prob:
                links.add(link)
    node_demands = dict(enumerate(_randints(getrandbits, spec.node_demand_min, spec.node_demand_max, n)))
    links = sorted(links)
    link_demands = dict(zip(links, _randints(getrandbits, spec.link_demand_min, spec.link_demand_max,
                                             len(links))))
    return VirtualNetworkRequest(request_id, node_demands, link_demands, arrival, lifetime)


# Requests built per step of iter_requests. On bench/run.py's default
# workload, one at a time ran 11-13% slower per event than building every
# request up front (most likely cache locality lost to the events between
# requests), 32 and 64 up to 6% slower, and 256 level with it (BENCH_27.json).
REQUEST_BLOCK = 256


def iter_schedule(streams: RandomStreams, count, interarrival_mean=DEFAULT_INTERARRIVAL_MEAN,
                  lifetime_mean=DEFAULT_LIFETIME_MEAN):
    """The ``(arrival, lifetime)`` ticks of ``count`` requests, each pair
    drawn as it is asked for: Poisson arrivals from ``streams.interarrival``,
    exponential lifetimes from ``streams.lifetime``. Arrivals strictly
    increase."""
    interarrival, lifetimes = streams.interarrival, streams.lifetime
    now = 0
    for _ in range(count):
        now += draw_interarrival(interarrival, interarrival_mean)
        yield now, draw_lifetime(lifetimes, lifetime_mean)


def iter_requests(streams: RandomStreams, spec: GeneratorSpec, schedule):
    """Request i of the iterable ``schedule``, demand graph from
    ``streams.request(i)`` per the validated ``spec``, in order; built
    ``REQUEST_BLOCK`` at a time, so at most that many pairs are read and
    requests built ahead of the one last asked for."""
    pairs = enumerate(schedule)
    while block := list(islice(pairs, REQUEST_BLOCK)):
        yield from [gen_virtual_request(streams.request(i), spec, i, arrival, lifetime)
                    for i, (arrival, lifetime) in block]


def generate_workload(streams: RandomStreams, spec: GeneratorSpec, count,
                      interarrival_mean=DEFAULT_INTERARRIVAL_MEAN,
                      lifetime_mean=DEFAULT_LIFETIME_MEAN) -> list:
    """All ``count`` requests of ``iter_requests`` over ``iter_schedule``,
    as one list; raises ValueError for an invalid spec before any draw."""
    spec.validate()
    schedule = iter_schedule(streams, count, interarrival_mean, lifetime_mean)
    return list(iter_requests(streams, spec, schedule))
