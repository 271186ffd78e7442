"""Workload generation: substrates and random virtual network requests.

The default substrate is a 14-switch backbone (ring plus seven cross-links,
average degree 3) whose wiring ships as a data file; capacities and
bandwidths are drawn uniformly from [100, 250] per seed, unit costs are 1.
Virtual requests are uniform random spanning trees (via Prufer sequences)
plus each remaining node pair independently with a fixed probability, with
uniform integer demands. The default demand ranges model a flow-table-bound
fabric: node demands (up to 35 units) compete with rules for switch memory,
the scarce resource, while link demands (up to 4 units) leave bandwidth
comfortable. Generation is a pure function of (master seed, spec, request
index).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from importlib import resources

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


def _draw_resources(stream, switches, edges, cap_min, cap_max):
    capacity = {u: stream.randint(cap_min, cap_max) for u in switches}
    bandwidth = {lk: stream.randint(cap_min, cap_max) for lk in sorted(edges)}
    return capacity, bandwidth


def default_substrate(stream, spec: GeneratorSpec = None) -> SubstrateNetwork:
    """The built-in 14-switch substrate with per-seed uniform resources."""
    spec = spec or GeneratorSpec()
    switches, edges = _default_shape()
    capacity, bandwidth = _draw_resources(stream, switches, edges, spec.cap_min, spec.cap_max)
    return SubstrateNetwork(
        switches, edges, capacity,
        {u: 1 for u in switches}, bandwidth, {lk: 1 for lk in edges},
    )


def random_substrate(stream, n_switches, spec: GeneratorSpec = None) -> SubstrateNetwork:
    """A connected random substrate: random spanning tree plus extra links
    up to roughly average degree 3, resources uniform like the default."""
    if n_switches < 2:
        raise ValueError("need at least 2 switches")
    spec = spec or GeneratorSpec()
    switches = list(range(1, n_switches + 1))
    edges = set()
    order = switches[:]
    stream.shuffle(order)
    for i in range(1, len(order)):
        edges.add(norm_link(order[i], order[stream.randrange(i)]))
    want = max(n_switches - 1, round(1.5 * n_switches))
    pairs = [
        (a, b)
        for i, a in enumerate(switches)
        for b in switches[i + 1:]
        if (a, b) not in edges
    ]
    stream.shuffle(pairs)
    for pair in pairs[: max(0, want - len(edges))]:
        edges.add(pair)
    edges = sorted(edges)
    capacity, bandwidth = _draw_resources(stream, switches, edges, spec.cap_min, spec.cap_max)
    return SubstrateNetwork(
        switches, edges, capacity,
        {u: 1 for u in switches}, bandwidth, {lk: 1 for lk in edges},
    )


def build_substrate(source, stream, spec: GeneratorSpec = None) -> SubstrateNetwork:
    if source == "default":
        return default_substrate(stream, spec)
    if source.startswith("random:"):
        return random_substrate(stream, int(source.split(":", 1)[1]), spec)
    return load_topology(source)


def _prufer_tree(stream, n):
    """Uniform random labeled tree on nodes 0..n-1, as an edge list."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [stream.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append(norm_link(leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(norm_link(heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def gen_virtual_request(stream, spec: GeneratorSpec, request_id, arrival, lifetime) -> VirtualNetworkRequest:
    """One random request: tree plus extra edges, uniform integer demands."""
    n = stream.randint(spec.vnodes_min, spec.vnodes_max)
    links = set(_prufer_tree(stream, n))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in links and stream.random() < spec.edge_prob:
                links.add((a, b))
    node_demands = {
        i: stream.randint(spec.node_demand_min, spec.node_demand_max) for i in range(n)
    }
    link_demands = {
        lk: stream.randint(spec.link_demand_min, spec.link_demand_max)
        for lk in sorted(links)
    }
    return VirtualNetworkRequest(request_id, node_demands, link_demands, arrival, lifetime)


def generate_workload(streams: RandomStreams, spec: GeneratorSpec, count,
                      interarrival_mean=DEFAULT_INTERARRIVAL_MEAN,
                      lifetime_mean=DEFAULT_LIFETIME_MEAN) -> list:
    """Poisson arrivals with exponential lifetimes, demand graphs per spec."""
    spec.validate()
    out = []
    now = 0
    for i in range(count):
        now += draw_interarrival(streams.interarrival, interarrival_mean)
        lifetime = draw_lifetime(streams.lifetime, lifetime_mean)
        out.append(gen_virtual_request(streams.request(i), spec, i, now, lifetime))
    return out
