"""Substrate builders and random request generation."""

import gc
import random
import tracemalloc
import weakref

import pytest

from vnesim import workload
from vnesim.config import RunConfig
from vnesim.controller import Controller
from vnesim.netmodel import TopologyError, VirtualNetworkRequest, parse_topology
from vnesim.run import run_simulation
from vnesim.simulator import RandomStreams, to_ticks
import reference
from vnesim.workload import (
    REQUEST_BLOCK,
    GeneratorSpec,
    _default_shape,
    _pair_rows,
    _prufer_tree,
    _randbelow,
    _randints,
    _shuffle,
    build_substrate,
    default_substrate,
    gen_virtual_request,
    generate_workload,
    iter_requests,
    iter_schedule,
    random_substrate,
)

from conftest import make_net
from reference import adj, networks_equal, topology_text

WIDTHS = (1, 2, 3, 4, 5, 7, 8, 9, 35, 151)
# every range one value wide, every candidate virtual link taken
DEGENERATE = GeneratorSpec(vnodes_min=6, vnodes_max=6, edge_prob=1.0, node_demand_min=7,
                           node_demand_max=7, link_demand_min=3, link_demand_max=3,
                           cap_min=120, cap_max=120)


class TestGeneratorSpec:
    def test_validate_returns_self_for_chaining(self):
        spec = GeneratorSpec()
        assert spec.validate() is spec

    def test_rejects_inverted_ranges(self):
        with pytest.raises(ValueError, match="virtual node count"):
            GeneratorSpec(vnodes_min=5, vnodes_max=3).validate()
        with pytest.raises(ValueError, match="node demand"):
            GeneratorSpec(node_demand_min=10, node_demand_max=2).validate()
        with pytest.raises(ValueError, match="link demand"):
            GeneratorSpec(link_demand_min=0, link_demand_max=4).validate()
        with pytest.raises(ValueError, match="capacity"):
            GeneratorSpec(cap_min=0, cap_max=10).validate()

    def test_rejects_bad_edge_probability(self):
        with pytest.raises(ValueError, match="edge probability"):
            GeneratorSpec(edge_prob=0.0).validate()
        with pytest.raises(ValueError, match="edge probability"):
            GeneratorSpec(edge_prob=1.5).validate()
        GeneratorSpec(edge_prob=1.0).validate()  # inclusive upper end

    def test_default_demand_ranges(self):
        spec = GeneratorSpec()
        assert (spec.node_demand_min, spec.node_demand_max) == (1, 35)
        assert (spec.link_demand_min, spec.link_demand_max) == (1, 4)
        assert (spec.cap_min, spec.cap_max) == (100, 250)


class TestInlineDraws:
    """The inline draws against ``random.Random`` itself: the same values
    from the same seeds, and the stream left where ``Random`` leaves it
    (its next ``random()`` agrees)."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_randbelow_is_randrange(self, width):
        for seed in range(40):
            want, got = random.Random(seed), random.Random(seed)
            assert [_randbelow(got.getrandbits, width) for _ in range(30)] == [
                want.randrange(width) for _ in range(30)]
            assert got.random() == want.random()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_randints_is_randint(self, width):
        for seed in range(40):
            want, got = random.Random(seed), random.Random(seed)
            lo = seed - 20
            assert _randints(got.getrandbits, lo, lo + width - 1, 30) == [
                want.randint(lo, lo + width - 1) for _ in range(30)]
            assert got.random() == want.random()

    @pytest.mark.parametrize("size", (0, 1) + WIDTHS[1:] + (256, 257, 44_551))
    def test_shuffle_is_random_shuffle(self, size):
        for seed in range(3 if size > 1000 else 40):
            want, got = random.Random(seed), random.Random(seed)
            expected, actual = list(range(size)), list(range(size))
            want.shuffle(expected)
            _shuffle(got.getrandbits, actual)
            assert actual == expected
            assert got.random() == want.random()


    def test_an_empty_range_raises_instead_of_drawing_forever(self):
        stream = random.Random(0)
        for n in (0, -1, -2):
            with pytest.raises(ValueError, match="empty range"):
                _randbelow(stream.getrandbits, n)
            with pytest.raises(ValueError, match="empty range"):
                _randints(stream.getrandbits, 5, 4 + n, 3)
        with pytest.raises(ValueError, match="empty range"):
            default_substrate(stream, GeneratorSpec(cap_min=9, cap_max=8))
        with pytest.raises(ValueError, match="empty range"):
            gen_virtual_request(stream, GeneratorSpec(vnodes_min=4, vnodes_max=3), 0, 0, 1)


class TestGeneratorsMatchRandomMethods:
    """The generators against their versions in ``reference`` that draw
    through ``Random.randint``, ``randrange`` and ``shuffle``: the same
    networks and requests, and the stream left at the same place."""

    @pytest.mark.parametrize("spec", [GeneratorSpec(), DEGENERATE], ids=["defaults", "degenerate"])
    @pytest.mark.parametrize("n", [2, 3, 4, 9, 40, 300, 5_000])
    def test_random_substrate(self, n, spec):
        for seed in range(2 if n >= 300 else 12):
            want, got = random.Random(f"{seed}/topology"), random.Random(f"{seed}/topology")
            assert networks_equal(random_substrate(got, n, spec), reference.random_substrate(want, n, spec))
            assert got.random() == want.random()

    @pytest.mark.parametrize("spec", [GeneratorSpec(), DEGENERATE], ids=["defaults", "degenerate"])
    def test_default_substrate(self, spec):
        for seed in range(12):
            want, got = random.Random(seed), random.Random(seed)
            assert networks_equal(default_substrate(got, spec),
                                  reference._drawn_network(want, *_default_shape(), spec))
            assert got.random() == want.random()

    def test_prufer_tree(self):
        for n in range(12):
            for seed in range(20):
                want, got = random.Random(seed), random.Random(seed)
                edges = _prufer_tree(got, n)
                assert edges == reference._prufer_tree(want, n)
                assert all(e is _pair_rows(n)[e[0]][e[1]] for e in edges)
                assert got.random() == want.random()

    @pytest.mark.parametrize("spec", [GeneratorSpec(), DEGENERATE], ids=["defaults", "degenerate"])
    def test_gen_virtual_request(self, spec):
        for i in range(300):
            want, got = random.Random(f"7/request/{i}"), random.Random(f"7/request/{i}")
            a = gen_virtual_request(got, spec, i, i, 5)
            b = reference.gen_virtual_request(want, spec, i, i, 5)
            assert a == b
            assert list(a.node_demands.items()) == list(b.node_demands.items())
            assert list(a.link_demands.items()) == list(b.link_demands.items())
            rows = _pair_rows(len(a.node_demands))
            assert all(lk is rows[lk[0]][lk[1]] for lk in a.link_demands)
            assert got.random() == want.random()


class TestDefaultSubstrate:
    def test_shape_is_fourteen_switches_average_degree_three(self):
        net = default_substrate(random.Random("shape"))
        assert len(net.switches) == 14
        assert len(net.links) == 21
        assert sum(len(adj(net)[u]) for u in net.switches) / 14 == 3.0

    def test_resources_drawn_within_the_spec_range(self):
        net = default_substrate(random.Random(5))
        assert all(100 <= c <= 250 for c in net.capacities)
        assert all(100 <= b <= 250 for b in net.bandwidths)
        assert net.switch_costs == [1] * 14 and net.link_costs == [1] * 21

    def test_same_stream_seed_same_substrate(self):
        assert networks_equal(default_substrate(random.Random(3)), default_substrate(random.Random(3)))
        assert not networks_equal(default_substrate(random.Random(3)), default_substrate(random.Random(4)))

    def test_custom_resource_range(self):
        spec = GeneratorSpec(cap_min=5, cap_max=7)
        net = default_substrate(random.Random(0), spec)
        assert all(5 <= c <= 7 for c in net.capacities)
        assert all(5 <= b <= 7 for b in net.bandwidths)


class CountingStream:
    """A stream whose ``getrandbits``, the only draw ``random_substrate``
    makes, counts its calls."""

    def __init__(self, seed):
        self._stream = random.Random(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return self._stream.getrandbits(k)


class TestRandomSubstrate:
    def test_size_and_density(self):
        for n in range(2, 41):
            net = random_substrate(random.Random(n), n)
            assert len(net.switches) == n
            assert net.switches == list(range(1, n + 1))
            assert len(net.links) == min(max(n - 1, round(1.5 * n)), n * (n - 1) // 2)

    def test_draws_grow_linearly_with_size(self):
        # all pairs listed and shuffled would take about 227 draws per switch
        # at n = 300; the smaller size runs first so that such a build fails
        # before it tries to list 2e8 pairs
        for n in (300, 20_000):
            stream = CountingStream(0)
            random_substrate(stream, n)
            assert stream.calls < 20 * n

    def test_every_pair_is_equally_likely(self):
        # 9 of the 15 pairs of 6 switches are links, and labels are symmetric,
        # so each pair is a link with chance exactly 0.6
        counts = dict.fromkeys(((a, b) for a in range(1, 7) for b in range(a + 1, 7)), 0)
        for seed in range(3_000):
            for link in random_substrate(random.Random(seed), 6).links:
                counts[link] += 1
        assert all(abs(c / 3_000 - 0.6) <= 0.04 for c in counts.values()), counts

    def test_deterministic_per_stream(self):
        assert networks_equal(random_substrate(random.Random(1), 8), random_substrate(random.Random(1), 8))

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError, match="at least 2"):
            random_substrate(random.Random(0), 1)


class TestPruferTree:
    def test_tiny_sizes(self):
        assert _prufer_tree(random.Random(0), 0) == []
        assert _prufer_tree(random.Random(0), 1) == []
        assert _prufer_tree(random.Random(0), 2) == [(0, 1)]

    def test_is_a_spanning_tree(self):
        for n in (3, 5, 9, 20):
            edges = _prufer_tree(random.Random(n), n)
            assert len(edges) == n - 1
            # union-find connectivity over exactly n-1 edges == tree
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in edges:
                ra, rb = find(a), find(b)
                assert ra != rb  # no cycles
                parent[ra] = rb
            assert len({find(i) for i in range(n)}) == 1


class TestSharedPairTuples:
    """All requests share ``_pair_rows``'s one table of link tuples."""

    def test_the_table_grows_in_place_from_tiny_sizes(self):
        rows = _pair_rows(0)
        assert _pair_rows(1) is rows and rows[0][0] == (0, 0)
        assert _pair_rows(2) is rows
        assert rows[0][1] == (0, 1) and rows[0][1] is rows[1][0]
        kept, size = rows[0][1], len(rows)
        assert _pair_rows(size + 3) is rows
        assert len(rows) == size + 3 and all(len(row) == size + 3 for row in rows)
        assert rows[0][1] is kept

    def test_both_orders_of_a_pair_are_one_normalized_tuple(self):
        rows = _pair_rows(10)
        assert _pair_rows(10) is rows
        for a in range(10):
            for b in range(10):
                assert rows[a][b] == (min(a, b), max(a, b))
                assert rows[a][b] is rows[b][a]

    def test_the_table_stays_one_table_up_to_many_nodes(self):
        # one table per node count from 3 to 120 kept 21.7 MB of rows and
        # tuples alive by tracemalloc; the one grown table keeps 0.5 MB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(3, 121):
                spec = GeneratorSpec(vnodes_min=n, vnodes_max=n, edge_prob=0.05)
                gen_virtual_request(random.Random(n), spec, n, 0, 1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000
        rows = _pair_rows(0)
        assert len(rows) >= 120 and rows[119][7] == (7, 119)

    def test_a_workload_holds_one_tuple_per_node_pair_and_count(self):
        spec = GeneratorSpec()
        requests = generate_workload(RandomStreams(3), spec, 300)
        links = [lk for r in requests for lk in r.link_demands]
        bound = sum(n * (n - 1) // 2 for n in range(spec.vnodes_min, spec.vnodes_max + 1))
        assert bound == 164
        assert len(links) > bound
        assert len({id(lk) for lk in links}) <= bound


class TestGenVirtualRequest:
    def test_fields_respect_the_spec(self):
        spec = GeneratorSpec(vnodes_min=4, vnodes_max=6, node_demand_max=9, link_demand_max=3)
        for i in range(50):
            r = gen_virtual_request(random.Random(i), spec, i, to_ticks(i), to_ticks(5))
            n = len(r.node_demands)
            assert 4 <= n <= 6
            assert set(r.node_demands) == set(range(n))
            assert all(1 <= d <= 9 for d in r.node_demands.values())
            assert all(1 <= d <= 3 for d in r.link_demands.values())
            assert all(a < b for a, b in r.link_demands)
            assert len(r.link_demands) >= n - 1
            assert r.request_id == i and r.arrival == to_ticks(i)

    def test_edge_probability_one_gives_complete_graphs(self):
        spec = GeneratorSpec(vnodes_min=5, vnodes_max=5, edge_prob=1.0)
        r = gen_virtual_request(random.Random(0), spec, 0, 0, 1)
        assert len(r.link_demands) == 10

    def test_deterministic_per_stream(self):
        spec = GeneratorSpec()
        a = gen_virtual_request(random.Random("r"), spec, 0, 0, 1)
        b = gen_virtual_request(random.Random("r"), spec, 0, 0, 1)
        assert (a.node_demands, a.link_demands) == (b.node_demands, b.link_demands)


class TestGeneratedRequestsAreValid:
    """The request constructor checks nothing; every generated request must
    meet its contract, as ``reference.check_request`` checks it (its
    rejections are TestVirtualNetworkRequest in test_netmodel.py)."""

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(),
        GeneratorSpec(vnodes_min=1, vnodes_max=1),
        GeneratorSpec(vnodes_min=1, vnodes_max=6, edge_prob=1.0),
        GeneratorSpec(node_demand_min=7, node_demand_max=7, link_demand_min=3, link_demand_max=3),
    ], ids=["defaults", "one-node", "complete", "equal-demand-bounds"])
    def test_every_generated_request_passes_the_checking_function(self, spec):
        for seed in range(4):
            for r in generate_workload(RandomStreams(seed), spec, 300):
                assert reference.check_request(r) is r and type(r) is VirtualNetworkRequest


class TestGenerateWorkload:
    def test_count_ids_and_strictly_increasing_arrivals(self):
        streams = RandomStreams(11)
        reqs = generate_workload(streams, GeneratorSpec(), 200)
        assert len(reqs) == 200
        assert [r.request_id for r in reqs] == list(range(200))
        assert all(a.arrival < b.arrival for a, b in zip(reqs, reqs[1:]))
        assert all(r.lifetime >= 1 for r in reqs)

    def test_prefix_stability(self):
        # the first k requests do not depend on how many follow them
        short = generate_workload(RandomStreams(5), GeneratorSpec(), 3)
        long = generate_workload(RandomStreams(5), GeneratorSpec(), 10)
        assert short == long[:3]

    def test_custom_means_shift_the_draws(self):
        fast = generate_workload(
            RandomStreams(5), GeneratorSpec(), 400, interarrival_mean=1.0
        )
        slow = generate_workload(
            RandomStreams(5), GeneratorSpec(), 400, interarrival_mean=50.0
        )
        assert fast[-1].arrival < slow[-1].arrival

    def test_invalid_spec_is_caught_up_front(self):
        with pytest.raises(ValueError, match="edge probability"):
            generate_workload(RandomStreams(0), GeneratorSpec(edge_prob=0), 1)

    def test_the_list_is_the_streamed_requests_of_the_schedule(self):
        spec = GeneratorSpec()
        schedule = list(iter_schedule(RandomStreams(8), 2 * REQUEST_BLOCK + 5, 2.0, 30.0))
        assert all(a < b for (a, _), (b, _) in zip(schedule, schedule[1:]))
        streamed = iter_requests(RandomStreams(8), spec, schedule)
        assert list(streamed) == generate_workload(RandomStreams(8), spec, len(schedule), 2.0, 30.0)
        assert [(r.arrival, r.lifetime) for r in generate_workload(
            RandomStreams(8), spec, len(schedule), 2.0, 30.0)] == schedule

    def test_requests_are_built_a_block_at_a_time(self):
        made = []
        streamed = iter_requests(RandomStreams(2), GeneratorSpec(),
                                 iter_schedule(RandomStreams(2), REQUEST_BLOCK + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workload, "gen_virtual_request",
                       lambda *args: made.append(args[2]) or gen_virtual_request(*args))
            assert next(streamed).request_id == 0
            assert made == list(range(REQUEST_BLOCK))
            for _ in range(REQUEST_BLOCK - 1):
                next(streamed)
            assert len(made) == REQUEST_BLOCK
            assert next(streamed).request_id == REQUEST_BLOCK
            assert made == list(range(REQUEST_BLOCK + 1))


class TestRunHoldsTheRequestsInFlight:
    def test_requests_are_built_at_most_a_block_ahead_and_none_outlive_the_run(self, monkeypatch):
        made, drawn, ahead, drawn_ahead = [], [], [], []
        on_arrival = Controller.on_arrival
        draw_interarrival = workload.draw_interarrival

        def make(*args):
            request = gen_virtual_request(*args)
            made.append(weakref.ref(request))
            return request

        def draw(*args):
            drawn.append(1)
            return draw_interarrival(*args)

        def arrive(self, engine, request):
            # built (drawn), less dispatched with this one
            ahead.append(len(made) - (request.request_id + 1))
            drawn_ahead.append(len(drawn) - (request.request_id + 1))
            return on_arrival(self, engine, request)

        monkeypatch.setattr(workload, "gen_virtual_request", make)
        monkeypatch.setattr(workload, "draw_interarrival", draw)
        monkeypatch.setattr(Controller, "on_arrival", arrive)
        engine, log = run_simulation(RunConfig(requests=3 * REQUEST_BLOCK + 10, seed=6))
        assert len(made) == len(drawn) == log.arrivals == 3 * REQUEST_BLOCK + 10
        assert max(ahead) == REQUEST_BLOCK
        # the schedule is drawn a block ahead too, and its checks drew none of it
        assert max(drawn_ahead) <= REQUEST_BLOCK
        gc.collect()
        assert [ref for ref in made if ref() is not None] == []


class TestBuildSubstrate:
    def test_default_dispatch(self):
        assert networks_equal(build_substrate("default", random.Random(2)), default_substrate(random.Random(2)))

    def test_random_dispatch(self):
        assert networks_equal(build_substrate("random:6", random.Random(2)), random_substrate(
            random.Random(2), 6
        ))

    @pytest.mark.parametrize("source", ["random:abc", "random:1", "random:"])
    def test_bad_random_size_raises(self, source):
        with pytest.raises(ValueError, match=r"random:<n> needs an integer n >= 2"):
            build_substrate(source, random.Random(0))

    @pytest.mark.parametrize("size", [None, 2, 9, 40])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_generated_substrates_round_trip_through_text(self, size, seed):
        # the generators' rows and the parser's rows build the same network
        stream = random.Random(seed)
        net = default_substrate(stream) if size is None else random_substrate(stream, size)
        assert networks_equal(parse_topology(topology_text(net)), net)

    def test_file_dispatch(self, tmp_path):
        net = make_net([1, 2, 3], [(1, 2), (2, 3)], caps={1: 42})
        p = tmp_path / "lab.topo"
        p.write_text(topology_text(net), encoding="utf-8")
        loaded = build_substrate(str(p), random.Random(0))
        assert networks_equal(loaded, net)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            build_substrate(str(tmp_path / "absent.topo"), random.Random(0))

    def test_invalid_file_raises_topology_error(self, tmp_path):
        p = tmp_path / "bad.topo"
        p.write_text("switch 1 100\nswitch 2 100\n", encoding="utf-8")  # no links
        with pytest.raises(TopologyError, match="disconnected"):
            build_substrate(str(p), random.Random(0))
