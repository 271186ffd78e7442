"""The integer-indexed A* routing kernel against the path-tuple Dijkstra it
replaced: on every instance both return the identical switch sequence, or
None in both.

The oracle below is a verbatim copy of the earlier ``_dijkstra``: a forward
search whose heap keys are whole ``(cost, hops, path)`` tuples, so the first
label settled at dst is the (cost, hops, lexicographic path) minimum by
construction.
"""

import heapq
import random

import pytest

from vnesim.netmodel import (
    Mapping,
    SubstrateNetwork,
    SubstrateView,
    VirtualNetworkRequest,
    norm_link,
    reserve,
)

from reference import adj, cheapest_feasible_path


def _dijkstra(adj, link_cost, residual, src, dst, demand):
    # Keys are (cost, hops, path); appending an edge strictly increases the
    # key, so the first settled label per switch is optimal and the settled
    # path at dst realizes every tie-break in one pass.
    heap = [(0, 0, (src,))]
    settled = set()
    while heap:
        cost, hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return path
        for nb in adj[node]:
            if nb in settled:
                continue
            lk = norm_link(node, nb)
            if residual(lk) < demand:
                continue
            heapq.heappush(heap, (cost + link_cost[lk], hops + 1, path + (nb,)))
    return None


def oracle(view, src, dst, demand):
    base = view.base if isinstance(view, SubstrateView) else view
    return _dijkstra(adj(base), base.link_cost, view.residual_bandwidth, src, dst, demand)


def make_net(rng, ids, links, min_bw, max_bw):
    # memory n leaves room for one tentative unit per incident link
    return SubstrateNetwork(
        ids, links,
        {u: len(ids) for u in ids}, {u: 1 for u in ids},
        {lk: rng.randint(min_bw, max_bw) for lk in links},
        {lk: rng.randint(1, 5) for lk in links},
    )


def random_instance(rng):
    """A connected substrate of 6-40 switches with scattered ids, unit costs
    1-5, and random committed and tentative link loads."""
    n = rng.randint(6, 40)
    ids = rng.sample(range(1, 4 * n), n)
    order = ids[:]
    rng.shuffle(order)
    links = {norm_link(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(ids, 2)
        links.add(norm_link(a, b))
    net = make_net(rng, ids, sorted(links), 1, 8)
    committed, tentative = {}, {}
    for lk in net.links:
        committed[lk] = rng.randint(0, net.bandwidth[lk])
        tentative[lk] = rng.randint(0, net.bandwidth[lk] - committed[lk])
    # the view reads committed loads when it is built, and tentative ones
    # through reserve, one request per loaded link
    net.link_load.update(committed)
    view = SubstrateView(net)
    for rid, lk in enumerate(net.links):
        if tentative[lk]:
            request = VirtualNetworkRequest(rid, {0: 1, 1: 1}, {(0, 1): tentative[lk]})
            reserve(view, request, Mapping({0: lk[0], 1: lk[1]}, {(0, 1): ((lk, tentative[lk]),)}))
    assert view.residual_bandwidths() == [
        net.bandwidth[lk] - committed[lk] - tentative[lk] for lk in net.links
    ]
    return net, view


def queries(rng, net, count):
    for _ in range(count):
        src, dst = rng.sample(net.switches, 2)
        yield src, dst, rng.randint(1, 4)


def test_same_path_as_the_path_tuple_dijkstra_on_random_instances():
    rng = random.Random("routing-kernel")
    checked = found = 0
    for _ in range(2000):
        net, view = random_instance(rng)
        for src, dst, demand in queries(rng, net, 3):
            for where in (net, view):
                want = oracle(where, src, dst, demand)
                got = cheapest_feasible_path(where, src, dst, demand)
                assert got == want, (type(where).__name__, src, dst, demand)
                checked += 1
                found += want is not None
    # both outcomes are exercised, and plenty of each
    assert checked == 12000
    assert 2000 < found < 10000


@pytest.mark.parametrize("shape", ["path", "ring"])
def test_same_path_where_hop_distances_pass_the_clamp(shape):
    rng = random.Random(f"routing-kernel-{shape}")
    n = 300 if shape == "path" else 600
    ids = list(range(n))
    links = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if shape == "ring" else [])
    net = make_net(rng, ids, links, 2, 3)
    for lk in net.links:
        net.link_load[lk] = rng.randint(0, 1)  # demand 1 always fits
    assert max(net.hop_bounds(0)) == 255  # the bound is clamped here
    pairs = [(0, n - 1), (n - 1, 0), (0, n // 2), (n // 2, 0), (5, n - 6)]
    pairs += [tuple(rng.sample(ids, 2)) for _ in range(20)]
    for src, dst in pairs:
        for demand in (1, 2):
            want = oracle(net, src, dst, demand)
            assert cheapest_feasible_path(net, src, dst, demand) == want
            assert want is not None or demand == 2


def test_index_shares_one_tuple_per_link_and_sorts_each_row():
    rng = random.Random("index")
    net, view = random_instance(rng)
    # the view keeps no per-link dict; its derived overlay loads reuse the keys
    for per_link in (net.bandwidth, net.link_cost, net.link_load, net.link_index, view.t_link_load):
        assert all(key is lk for key, lk in zip(per_link, net.links))
    for i, row in enumerate(net.rows):
        assert [u for u, _j, _step in row] == sorted(u for u, _j, _step in row)
        for u, j, step in row:
            assert net.links[j] == norm_link(net.switches[i], net.switches[u])
            assert step == net.link_cost[net.links[j]] * net.label_base + 1
