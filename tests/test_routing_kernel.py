"""The integer-indexed routing kernel (the walk along tight links, else A*)
against the path-tuple Dijkstra it replaced: on every instance both return
the identical switch sequence, or None in both, and the link ids the kernel
hands back with its path are the ones along it (``reference.route``).

The oracle below is a verbatim copy of the earlier ``_dijkstra``: a forward
search whose heap keys are whole ``(cost, hops, path)`` tuples, so the first
label settled at dst is the (cost, hops, lexicographic path) minimum by
construction.
"""

import heapq
import random
from collections import Counter
from pathlib import Path

import pytest

from vnesim import embedder
from vnesim.config import RunConfig
from vnesim.netmodel import (
    SubstrateNetwork,
    SubstrateView,
    VirtualNetworkRequest,
    load_topology,
    norm_link,
    reserve,
)
from vnesim.run import run_simulation
from vnesim.workload import build_substrate

from reference import (
    adj,
    build_reservation,
    cheapest_feasible_path,
    named_totals,
    residual_lists,
    route,
    t_link_load,
)


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
    """The oracle's path with the link ids along it, as the kernel returns
    them; None when there is no path. A network is read through its
    committed residuals."""
    base = view.base if isinstance(view, SubstrateView) else view
    residual = dict(zip(base.links, residual_lists(view)[1]))
    return route(base, _dijkstra(adj(base), named_totals(base)[3],
                                 residual.__getitem__, src, dst, demand))


def make_net(rng, ids, links, min_bw, max_bw, max_cost=5):
    # memory 3n leaves room for a committed node and rule unit and a
    # tentative node unit per incident link
    bandwidths = [rng.randint(min_bw, max_bw) for _ in links]
    costs = [rng.randint(1, max_cost) for _ in links]
    return SubstrateNetwork([(u, 3 * len(ids), 1) for u in ids],
                            [(a, b, bw, c) for (a, b), bw, c in zip(links, bandwidths, costs)])


def hold(view, rid, lk, units):
    """Reserve ``units`` on link lk for request rid, its two nodes of one
    unit each on lk's ends."""
    request = VirtualNetworkRequest(rid, {0: 1, 1: 1}, {(0, 1): units})
    reserve(view, build_reservation(view, request, {0: lk[0], 1: lk[1]},
                                    {(0, 1): ((lk, units),)}))


def committed_view(net, loads):
    """A view over ``net`` that committed one request per loaded link, of
    that link's load (link -> units); a view starts from the totals, so
    committed state is built through it."""
    view = SubstrateView(net)
    for rid, (lk, units) in enumerate(loads.items()):
        if units:
            hold(view, rid, lk, units)
            assert view.commit(rid)
    return view


def random_instance(rng, max_cost=5):
    """A connected substrate of 6-40 switches with scattered ids, unit costs
    1 to max_cost, and random committed and tentative link loads."""
    n = rng.randint(6, 40)
    ids = rng.sample(range(1, 4 * n), n)
    order = ids[:]
    rng.shuffle(order)
    links = {norm_link(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(ids, 2)
        links.add(norm_link(a, b))
    net = make_net(rng, ids, sorted(links), 1, 8, max_cost)
    committed, tentative = {}, {}
    bandwidth = named_totals(net)[2]
    for lk in net.links:
        committed[lk] = rng.randint(0, bandwidth[lk])
        tentative[lk] = rng.randint(0, bandwidth[lk] - committed[lk])
    # one request per loaded link, the committed ones first
    view = committed_view(net, committed)
    for rid, lk in enumerate(net.links, len(net.links)):
        if tentative[lk]:
            hold(view, rid, lk, tentative[lk])
    assert view.bandwidth_left == [
        bandwidth[lk] - committed[lk] - tentative[lk] for lk in net.links
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


def clamp_instance(rng, shape, max_cost=5):
    """A path of 300 or a ring of 600 switches, so hop distances pass the
    255 clamp, with link bandwidths 2-3 and loads 0-1 (demand 1 always fits);
    returns the substrate and the (src, dst) pairs to query."""
    n = 300 if shape == "path" else 600
    ids = list(range(n))
    links = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if shape == "ring" else [])
    net = make_net(rng, ids, links, 2, 3, max_cost)
    committed_view(net, {lk: rng.randint(0, 1) for lk in net.links})
    assert max(net.hop_bounds(0)) == 255  # the bound is clamped here
    pairs = [(0, n - 1), (n - 1, 0), (0, n // 2), (n // 2, 0), (5, n - 6)]
    pairs += [tuple(rng.sample(ids, 2)) for _ in range(20)]
    return net, pairs


@pytest.mark.parametrize("shape", ["path", "ring"])
def test_same_path_where_hop_distances_pass_the_clamp(shape):
    net, pairs = clamp_instance(random.Random(f"routing-kernel-{shape}"), shape)
    for src, dst in pairs:
        for demand in (1, 2):
            want = oracle(net, src, dst, demand)
            assert cheapest_feasible_path(net, src, dst, demand) == want
            assert want is not None or demand == 2


class CountingHeapq:
    """Stands in for ``heapq`` inside the embedder. Every A* search pops its
    heap at least once; the walk along tight links never touches it."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


@pytest.fixture
def resolved(monkeypatch):
    """Checks one query against the oracle and counts who answered it:
    ``(walk or A*, path found)``."""
    counter = CountingHeapq()
    monkeypatch.setattr(embedder, "heapq", counter)
    tally = Counter()

    def check(where, src, dst, demand):
        want = oracle(where, src, dst, demand)
        before = counter.pops
        got = cheapest_feasible_path(where, src, dst, demand)
        assert got == want, (type(where).__name__, src, dst, demand)
        tally["astar" if counter.pops > before else "walk", want is not None] += 1

    check.tally = tally
    return check


@pytest.mark.parametrize("max_cost", [1, 2])
def test_walk_and_astar_match_the_path_tuple_dijkstra(resolved, max_cost):
    # unit costs make every shortest-hop link tight, costs 1-2 only some;
    # loads saturate part of the tight links, so the walk is often blocked
    rng = random.Random(f"routing-walk-{max_cost}")
    for _ in range(1000):
        net, view = random_instance(rng, max_cost)
        for src, dst, demand in queries(rng, net, 3):
            for where in (net, view):
                resolved(where, src, dst, demand)
    tally = resolved.tally
    assert sum(tally.values()) == 6000
    assert tally["walk", False] == 0  # the walk returns only paths it walked
    # each side answers a real share; A* also finds paths the walk missed
    assert tally["walk", True] > 300
    assert tally["astar", True] > 600 and tally["astar", False] > 600


@pytest.mark.parametrize("max_cost", [1, 2])
def test_the_blocking_list_never_changes_the_answer(max_cost):
    # the same fuzz, searched with and without a list for the links that
    # blocked the answer; the list holds only links too thin for the demand
    rng = random.Random(f"routing-thin-{max_cost}")
    counted = Counter()
    for _ in range(1000):
        net, view = random_instance(rng, max_cost)
        index = {u: i for i, u in enumerate(net.switches)}
        for src, dst, demand in queries(rng, net, 3):
            for residual in (residual_lists(net)[1], view.bandwidth_left):
                thin = []
                got = embedder._dijkstra(net, residual, index[src], index[dst], demand, thin)
                assert got == embedder._dijkstra(net, residual, index[src], index[dst], demand)
                assert all(residual[j] < demand for j in thin)
                counted[got is not None, bool(thin)] += 1
    assert min(counted.values()) > 200, counted


@pytest.mark.parametrize("shape", ["path", "ring"])
def test_walk_at_unit_cost_where_hop_distances_pass_the_clamp(resolved, shape):
    net, pairs = clamp_instance(random.Random(f"routing-walk-{shape}"), shape, max_cost=1)
    for src, dst in pairs:
        for demand in (1, 2):
            resolved(net, src, dst, demand)
    tally = resolved.tally
    # the pairs beyond 255 hops, and demand-2 queries blocked on the way,
    # fall back to A*; the rest are walked
    assert tally["walk", True] > 0 and tally["astar", True] > 0


def test_index_shares_one_tuple_per_link_and_sorts_each_row():
    rng = random.Random("index")
    net, view = random_instance(rng)
    # totals and unit costs are lists by link id, the view keeps no per-link
    # dict, and the committed loads and derived overlay loads reuse the keys
    for per_link in (net.link_load, t_link_load(view)):
        assert all(key is lk for key, lk in zip(per_link, net.links))
    for i, row in enumerate(net.rows):
        assert [u for u, _j, _step in row] == sorted(u for u, _j, _step in row)
        for u, j, step in row:
            assert net.links[j] == norm_link(net.switches[i], net.switches[u])
            assert step == net.link_costs[j] * net.label_base + 1


def bfs_tables(net):
    """Every switch's hop-distance table from its own breadth-first search,
    clamped at 255 as ``hop_bounds`` clamps it."""
    return [bytes(min(h, 255) for h in net._hops_from(v)) for v in range(len(net.rows))]


def unit_net(ids, links):
    return SubstrateNetwork([(u, 1, 1) for u in ids], [(a, b, 1, 1) for a, b in links])


def centred_path(ecc0):
    """A path of 2 * ecc0 + 1 switches with switch 0 at its middle: switch 0
    is ecc0 hops from either end, and the ends are 2 * ecc0 apart."""
    ids = list(range(1, ecc0 + 1)) + [0] + list(range(ecc0 + 1, 2 * ecc0 + 1))
    return unit_net(ids, zip(ids, ids[1:]))


def ring(n):
    return unit_net(range(n), [(i, (i + 1) % n) for i in range(n)])


def star(n, hub):
    return unit_net(range(n), [(hub, u) for u in range(n) if u != hub])


def sweep_instances():
    yield "default", build_substrate("default", random.Random(0))
    for n in range(2, 61):
        for seed in range(3):
            yield f"random:{n} seed {seed}", build_substrate(f"random:{n}", random.Random(seed))
    for seed in range(4):
        yield f"random:300 seed {seed}", build_substrate("random:300", random.Random(seed))
    yield "costs14", load_topology(Path(__file__).parent / "data" / "costs14.topo")
    yield "star, hub 5", star(10, 5)
    for ecc0 in (16, 17):
        yield f"centred path, ecc0 {ecc0}", centred_path(ecc0)
        yield f"ring, ecc0 {ecc0}", ring(2 * ecc0)


def test_the_sweep_gives_every_switch_its_breadth_first_table():
    # the sweep itself, also past its ecc0 bound, and whatever side
    # hop_bounds picks, asked first for the last switch
    for name, net in sweep_instances():
        want = bfs_tables(net)
        assert net._swept_hop_bounds() == want, name
        last = len(want) - 1
        assert net.hop_bounds(last) == want[last], name
        assert [net.hop_bounds(v) for v in range(len(want))] == want, name


@pytest.fixture
def tables_built(monkeypatch):
    """Counts every per-source breadth-first search, every sweep and every
    substrate whose connectivity is checked (one search from switch 0)."""
    counts = Counter()
    for name, key in (("_hops_from", "bfs"), ("_swept_hop_bounds", "sweep"),
                      ("_check_connected", "networks")):
        def counted(*args, _method=getattr(SubstrateNetwork, name), _key=key):
            counts[_key] += 1
            return _method(*args)
        monkeypatch.setattr(SubstrateNetwork, name, counted)
    return counts


@pytest.mark.parametrize("strategy", ["batched", "per-request", "splitting"])
@pytest.mark.parametrize("config", [
    {"seed": 11},
    {"substrate": "random:300", "requests": 200, "interarrival_mean": 0.5, "seed": 0},
], ids=["default", "random300"])
def test_a_run_sweeps_once_and_searches_only_at_construction(tables_built, strategy, config):
    run_simulation(RunConfig(strategy=strategy, **config))
    assert tables_built == {"networks": 1, "bfs": 1, "sweep": 1}


def test_the_size_rule_picks_the_side(tables_built):
    # at most 2,048 switches and ecc0 at most 16 sweep; one more of either
    # searches from each switch asked, and only from it
    for net, sweeps in ((star(2048, 0), True), (star(2049, 0), False),
                        (centred_path(16), True), (centred_path(17), False)):
        tables_built.clear()
        net.hop_bounds(1)
        assert tables_built == ({"sweep": 1} if sweeps else {"bfs": 1})
        assert len(net._hop_bounds) == (len(net.rows) if sweeps else 1)


@pytest.mark.parametrize("shape", ["path", "ring"])
def test_clamp_instances_never_sweep(tables_built, shape):
    net, pairs = clamp_instance(random.Random(f"routing-sweep-{shape}"), shape)
    for src, dst in pairs:
        cheapest_feasible_path(net, src, dst, 1)
    assert tables_built["sweep"] == 0
    assert tables_built["bfs"] == 1 + len(net._hop_bounds) > 2
