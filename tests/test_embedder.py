"""Greedy embedding with a path budget k, and the exhaustive reference search."""

import random
from collections import Counter
from types import SimpleNamespace

import networkx as nx
import pytest

import vnesim.controller
from vnesim import embedder
from vnesim.config import RunConfig
from vnesim.embedder import (
    LINK_STAGE,
    NODE_STAGE,
    EmbedOutcome,
    embed,
    greedy_node_map,
)
from vnesim.netmodel import SubstrateView, VirtualNetworkRequest, reserve
from vnesim.run import run_simulation
from vnesim.simulator import RandomStreams
from vnesim.workload import GeneratorSpec, gen_virtual_request, random_substrate

from conftest import make_net
from test_golden import HEAVY
from reference import (
    build_reservation,
    check_request,
    cheapest_feasible_path,
    indexed,
    indexed_map,
    indexed_parts,
    link_ids_along,
    link_units_of,
    mapping_cost,
    max_index_node_map,
    named_path,
    named_totals,
    node_units_of,
    oracle_embed,
    path_links,
    residual_bandwidth,
    residual_capacity,
    route,
    validate_mapping,
)


def req(rid=1, nodes=None, links=None):
    return check_request(VirtualNetworkRequest(
        rid,
        nodes if nodes is not None else {"a": 10, "b": 20},
        links if links is not None else {("a", "b"): 5},
        0,
        10,
    ))


class TestGreedyNodeMap:
    def test_biggest_demand_takes_emptiest_switch(self):
        net = make_net([1, 2, 3], [(1, 2), (2, 3)], caps={1: 50, 2: 80, 3: 70})
        m = greedy_node_map(SubstrateView(net), req(nodes={"a": 10, "b": 30}, links={("a", "b"): 1}))
        assert m == indexed_map(net, {"b": 2, "a": 3})

    def test_residual_tie_prefers_smaller_switch_id(self, triangle):
        m = greedy_node_map(SubstrateView(triangle), req(nodes={"a": 5, "b": 5}, links={("a", "b"): 1}))
        assert m == indexed_map(triangle, {"a": 1, "b": 2})

    def test_demand_tie_places_smaller_virtual_id_first(self):
        net = make_net([1, 2], [(1, 2)], caps={1: 100, 2: 60})
        m = greedy_node_map(SubstrateView(net), req(nodes={"a": 5, "b": 5}, links={("a", "b"): 1}))
        assert m == indexed_map(net, {"a": 1, "b": 2})

    def test_counts_committed_and_tentative_load(self, triangle):
        view = SubstrateView(triangle)
        filler = req(rid=9, nodes={"x": 70}, links={})
        reserve(view, build_reservation(view, filler, {"x": 1}, {}))
        m = greedy_node_map(view, req(nodes={"a": 50}, links={}))
        assert m == indexed_map(triangle, {"a": 2})

    def test_none_when_demand_exceeds_every_switch(self, triangle):
        assert greedy_node_map(SubstrateView(triangle), req(nodes={"a": 101}, links={})) is None

    def test_none_when_more_nodes_than_switches(self, triangle):
        r = req(
            nodes={"a": 1, "b": 1, "c": 1, "d": 1},
            links={("a", "b"): 1, ("a", "c"): 1, ("a", "d"): 1},
        )
        assert greedy_node_map(SubstrateView(triangle), r) is None

    def test_matches_the_max_index_loop_on_heavy_ties(self):
        rng = random.Random("node-stage")
        placed = refused = 0
        for _ in range(3000):
            view = SimpleNamespace(capacity_left=[rng.randint(0, 5) for _ in range(rng.randint(1, 40))])
            switches = len(view.capacity_left)
            # demands up to 6 sometimes exceed every residual
            nodes = {v: rng.randint(1, rng.choice((3, 6))) for v in range(rng.randint(1, switches + 2))}
            r = SimpleNamespace(node_demands=nodes)
            want = max_index_node_map(view, r)
            assert greedy_node_map(view, r) == want, (view.capacity_left, nodes)
            placed += want is not None
            refused += want is None
        assert placed > 500 and refused > 500


class TestCheapestFeasiblePath:
    def test_prefers_cheap_over_short(self):
        # direct link costs 5, the two-hop detour costs 2
        net = make_net(
            [1, 2, 3],
            [(1, 2), (1, 3), (2, 3)],
            link_costs={(1, 2): 5, (1, 3): 1, (2, 3): 1},
        )
        assert cheapest_feasible_path(net, 1, 2, 10) == route(net, (1, 3, 2))

    def test_cost_tie_prefers_fewer_hops(self, triangle):
        assert cheapest_feasible_path(triangle, 1, 2, 10) == route(triangle, (1, 2))

    def test_skips_links_without_residual(self, triangle):
        view = SubstrateView(triangle)
        r = req(nodes={"a": 1, "b": 1}, links={("a", "b"): 95})
        outcome = embed(view, r)
        reserve(view, outcome.reservation)
        # direct (1, 2) now has 5 left; demand 10 must detour
        assert cheapest_feasible_path(view, 1, 2, 10) == route(view, (1, 3, 2))

    def test_none_when_no_feasible_path(self, line3):
        assert cheapest_feasible_path(line3, 1, 3, 101) is None

    def test_unknown_switch_raises(self, line3):
        with pytest.raises(ValueError, match="unknown switch"):
            cheapest_feasible_path(line3, 1, 9, 1)

    def test_same_endpoints_raise(self, line3):
        with pytest.raises(ValueError, match="must differ"):
            cheapest_feasible_path(line3, 2, 2, 1)

    def test_matches_networkx_shortest_paths(self):
        rng = random.Random("path-oracle")
        checked = 0
        for trial in range(60):
            n = rng.randint(4, 9)
            net = random_substrate(random.Random(f"sub-{trial}"), n)
            demand = rng.randint(1, 300)
            link_cost = named_totals(net)[3]
            g = nx.Graph()
            g.add_nodes_from(net.switches)
            for lk in net.links:
                if residual_bandwidth(net, lk) >= demand:
                    g.add_edge(*lk, weight=link_cost[lk])
            src, dst = rng.sample(net.switches, 2)
            found = cheapest_feasible_path(net, src, dst, demand)
            if found is None:
                assert not nx.has_path(g, src, dst)
            else:
                path = named_path(net, found[0])
                assert found[1] == link_ids_along(net, path)
                want = nx.shortest_path_length(g, src, dst, weight="weight")
                got = sum(link_cost[lk] for lk in path_links(path))
                assert got == want
                checked += 1
        assert checked > 20  # the fuzz actually exercised feasible cases


class TestEmbed:
    def test_hand_example(self, line3):
        view = SubstrateView(line3)
        outcome = embed(view, req())
        assert outcome.accepted
        assert outcome.reservation.node_map == indexed_map(line3, {"b": 1, "a": 2})
        assert outcome.reservation.link_paths == indexed_parts(line3, {("a", "b"): (((2, 1), 5),)})
        assert outcome.reservation.cost == 35

    def test_embed_does_not_mutate_the_view(self, triangle):
        view = SubstrateView(triangle)
        embed(view, req())
        assert view.tentative == {}
        assert all(residual_capacity(view, u) == 100 for u in view.base.switches)
        assert all(residual_bandwidth(view, l) == 100 for l in view.base.links)

    def test_node_stage_rejection(self, triangle):
        outcome = embed(SubstrateView(triangle), req(nodes={"a": 101}, links={}))
        assert not outcome.accepted
        assert outcome.rejection == NODE_STAGE
        assert outcome.reservation is None

    def test_link_stage_rejection(self, line3):
        outcome = embed(SubstrateView(line3), req(links={("a", "b"): 101}))
        assert outcome.rejection == LINK_STAGE

    def test_sibling_links_share_one_bandwidth_budget(self):
        net = make_net(
            [1, 2, 3],
            [(1, 2), (1, 3), (2, 3)],
            bws={(1, 2): 10, (2, 3): 10, (1, 3): 5},
        )
        view = SubstrateView(net)
        r = req(
            nodes={"a": 1, "b": 1, "c": 1},
            links={("a", "b"): 8, ("a", "c"): 6, ("b", "c"): 5},
        )
        # routed alone, a-c fits via 1-2-3; after sibling a-b takes 8 of
        # link (1, 2) it no longer does, and embed must notice
        assert cheapest_feasible_path(view, 1, 3, 6) == route(view, (1, 2, 3))
        assert embed(view, r).rejection == LINK_STAGE

    def test_demands_fill_a_shared_link_to_exact_capacity(self):
        net = make_net(
            [1, 2, 3],
            [(1, 2), (1, 3), (2, 3)],
            bws={(1, 2): 100, (1, 3): 5, (2, 3): 100},
        )
        view = SubstrateView(net)
        r = req(
            nodes={"a": 3, "b": 2, "c": 1},
            links={("a", "b"): 60, ("a", "c"): 40},
        )
        outcome = embed(view, r)
        assert outcome.accepted
        # (a, b) = 60 routes first onto the direct link; (a, c) = 40 cannot
        # use the thin direct (1, 3) and detours through (1, 2), landing it
        # at exactly its 100-unit capacity
        assert outcome.reservation.link_paths == indexed_parts(net, {
            ("a", "b"): (((1, 2), 60),),
            ("a", "c"): (((1, 2, 3), 40),),
        })
        reserve(view, outcome.reservation)
        assert residual_bandwidth(view, (1, 2)) == 0


class TestSplittingEmbed:
    def split_case_net(self):
        return make_net(
            [1, 2, 3],
            [(1, 2), (1, 3), (2, 3)],
            caps={1: 100, 2: 90, 3: 10},
            bws={(1, 2): 60, (1, 3): 40, (2, 3): 40},
        )

    def test_splits_across_two_paths(self):
        view = SubstrateView(self.split_case_net())
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 100})
        outcome = embed(view, r, k=2)
        assert outcome.accepted
        assert outcome.reservation.node_map == indexed_map(view, {"a": 1, "b": 2})
        assert outcome.reservation.link_paths == indexed_parts(view, {
            ("a", "b"): (((1, 2), 60), ((1, 3, 2), 40)),
        })
        assert outcome.reservation.cost == 175

    def test_fractions_are_exact(self):
        # the parts are integer units that add up to the demand exactly
        view = SubstrateView(self.split_case_net())
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 100})
        parts = embed(view, r, k=2).reservation.link_paths[("a", "b")]
        assert [units for _, units, _ids in parts] == [60, 40]
        assert all(isinstance(units, int) for _, units, _ids in parts)
        assert sum(units for _, units, _ids in parts) == r.link_demands[("a", "b")]

    def test_k1_rejects_what_needs_a_split(self):
        view = SubstrateView(self.split_case_net())
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 100})
        assert embed(view, r, k=1).rejection == LINK_STAGE

    def test_rejects_when_k_paths_cannot_cover(self):
        view = SubstrateView(self.split_case_net())
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 150})
        assert embed(view, r, k=3).rejection == LINK_STAGE

    def test_whole_demand_takes_single_path_when_possible(self, triangle):
        view = SubstrateView(triangle)
        r = req(nodes={"a": 1, "b": 1}, links={("a", "b"): 50})
        outcome = embed(view, r, k=2)
        assert outcome.reservation.link_paths == indexed_parts(triangle, {("a", "b"): (((1, 2), 50),)})

    def test_k_below_one_raises(self, triangle):
        with pytest.raises(ValueError, match="at least 1"):
            embed(SubstrateView(triangle), req(), k=0)

    def test_k1_agrees_with_embed_on_random_instances(self):
        spec = GeneratorSpec()
        agreements = 0
        for seed in range(40):
            streams = RandomStreams(seed)
            net = random_substrate(streams.topology, 8, spec)
            view = SubstrateView(net)
            r = gen_virtual_request(streams.request(0), spec, 0, 0, 10)
            single = embed(view, r)
            assert embed(view, r, k=1) == single
            if single.accepted:
                # k = 1 puts each link's full demand on one path
                assert single.reservation.link_paths.keys() == r.link_demands.keys()
                for vl, parts in single.reservation.link_paths.items():
                    assert len(parts) == 1
                    assert parts[0][1] == r.link_demands[vl]
                assert single.reservation.cost == mapping_cost(net, r, single.reservation)
                agreements += 1
        assert agreements > 10

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_record_terms_are_the_ones_its_paths_give(self, k):
        # embed builds the reservation reserve stages: its node units by
        # switch index, link units by link id, cost and each part's link ids
        # must equal what the node map and paths give, on the instances
        # drawn above
        spec = GeneratorSpec()
        accepted = 0
        for seed in range(40):
            streams = RandomStreams(seed)
            net = random_substrate(streams.topology, 8, spec)
            r = gen_virtual_request(streams.request(0), spec, 0, 0, 10)
            res = embed(SubstrateView(net), r, k).reservation
            if res is None:
                continue
            assert res.request is r
            assert res.node_units == node_units_of(net, r, res)
            assert res.link_units == link_units_of(net, res)
            assert res.cost == mapping_cost(net, r, res)
            assert res.rule_units == {} and res.blocked is None
            for parts in res.link_paths.values():
                for path, _units, ids in parts:
                    assert ids == link_ids_along(net, named_path(net, path))
            accepted += 1
        assert accepted > 10

    def test_split_cost_matches_by_hand(self):
        net = self.split_case_net()
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 100})
        split = embed(SubstrateView(net), r, k=2).reservation
        # nodes 20 + 15; 60 units over one link; 40 units over two links
        assert mapping_cost(net, r, split) == 35 + 60 + 80

    def three_path_net(self):
        # from switch 1 to switch 2: direct at cost 1 carrying 50, over 3 at
        # cost 2 carrying 30, over 4 at cost 4 carrying 20
        return make_net(
            [1, 2, 3, 4],
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
            caps={1: 100, 2: 90, 3: 10, 4: 10},
            bws={(1, 2): 50, (1, 3): 30, (2, 3): 40, (1, 4): 20, (2, 4): 25},
            link_costs={(1, 4): 2, (2, 4): 2},
        )

    @pytest.mark.parametrize("k, demand, parts", [
        # the first part takes the direct link's bottleneck; the second
        # takes the 20 left, not the 30 its path could carry
        (2, 70, (((1, 2), 50), ((1, 3, 2), 20))),
        # a k = 2 link's last part must carry the whole remainder, so a
        # second part thinner than the remainder needs k = 3: it takes its
        # path's bottleneck, 30 of the 50 left
        (3, 100, (((1, 2), 50), ((1, 3, 2), 30), ((1, 4, 2), 20))),
    ])
    def test_each_part_takes_the_remainder_or_its_paths_bottleneck(self, k, demand, parts):
        net = self.three_path_net()
        view = SubstrateView(net)
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): demand})
        outcome = embed(view, r, k=k)
        assert outcome.reservation.node_map == indexed_map(net, {"a": 1, "b": 2})
        assert outcome.reservation.link_paths == indexed_parts(net, {("a", "b"): parts})
        # the terms handed to reserve are the ones the paths give
        assert outcome.reservation.link_units == link_units_of(net, outcome.reservation)
        assert outcome.reservation.cost == mapping_cost(net, r, outcome.reservation)

    def test_validate_split_mapping_accepts_the_real_thing(self):
        net = self.split_case_net()
        view = SubstrateView(net)
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 100})
        split = embed(view, r, k=2).reservation
        assert bool(validate_mapping(view, r, split)) is True

    def test_validate_split_mapping_flags_short_allocation(self):
        net = self.split_case_net()
        view = SubstrateView(net)
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 100})
        broken = indexed(view, r, {"a": 1, "b": 2}, {("a", "b"): (((1, 2), 60),)})
        result = validate_mapping(view, r, broken)
        assert not result.ok
        assert any("sum to demand 100" in v.detail for v in result.violations)

    def test_last_allowed_part_skips_the_one_unit_search(self, monkeypatch):
        # with the one path that is left too thin for the rest of the demand,
        # a part that would be the k-th cannot cover it: reject without
        # searching for a partial path
        calls = []
        real = embedder._dijkstra

        def counting(net, residual, src, dst, demand, thin=None):
            calls.append(demand)
            return real(net, residual, src, dst, demand, thin)

        monkeypatch.setattr(embedder, "_dijkstra", counting)
        view = SubstrateView(self.split_case_net())
        r = req(nodes={"a": 20, "b": 15}, links={("a", "b"): 100})
        assert embed(view, r, k=1).rejection == LINK_STAGE
        assert calls == [100]
        calls.clear()
        assert embed(view, r, k=2).accepted
        assert calls == [100, 1, 40]


def test_parts_keep_the_link_id_lists_routing_returned(monkeypatch):
    # routing hands back the link ids it walked: each part embed builds
    # keeps one of those very lists, and each remap move the list its search
    # returned, so nothing derives ids from a path; on a default batched run
    # and on a bandwidth-bound one, every move of both checked
    routed, counts = [], Counter()
    real_route, real_reserve = embedder._dijkstra, vnesim.controller.reserve
    real_move = SubstrateView.move_tentative_link

    def routing(*args):
        found = real_route(*args)
        routed.append(found)
        return found

    def staging(view, res):
        returned = {id(found[1]) for found in routed if found is not None}
        for parts in res.link_paths.values():
            for _path, _units, ids in parts:
                assert id(ids) in returned
                counts["parts"] += 1
        routed.clear()
        return real_reserve(view, res)

    def moving(view, request_id, vlink, path, taken):
        searched, searched_ids = routed[-1]  # the pass's search for this link
        assert path is searched and taken is searched_ids
        real_move(view, request_id, vlink, path, taken)
        (_path, _units, ids), = view.tentative[request_id].link_paths[vlink]
        assert ids is taken
        counts["moves"] += 1

    monkeypatch.setattr(embedder, "_dijkstra", routing)
    monkeypatch.setattr(vnesim.controller, "reserve", staging)
    monkeypatch.setattr(SubstrateView, "move_tentative_link", moving)
    _, log = run_simulation(RunConfig(strategy="batched", seed=11))
    assert log.accepted > 1000 and counts["parts"] > log.accepted
    assert counts["moves"] == log.remapped_links > 5
    counts.clear()
    _, log = run_simulation(RunConfig(strategy="batched", **HEAVY))
    assert counts["moves"] == log.remapped_links > 0


class TestOracle:
    def test_limits_are_enforced(self, triangle):
        big = random_substrate(random.Random(0), 9)
        with pytest.raises(ValueError, match="switches"):
            oracle_embed(big, req())
        wide = req(
            nodes={n: 1 for n in "abcde"},
            links={("a", x): 1 for x in "bcde"},
        )
        with pytest.raises(ValueError, match="virtual nodes"):
            oracle_embed(triangle, wide)

    def test_feasible_with_minimum_cost(self, triangle):
        feasible, cost = oracle_embed(triangle, req())
        # nodes 10 + 20 on unit-cost switches, one direct link of 5
        assert (feasible, cost) == (True, 35)

    def test_infeasible_when_demand_oversized(self, triangle):
        assert oracle_embed(triangle, req(nodes={"a": 101}, links={})) == (False, None)

    def test_greedy_placement_can_block_routing_the_oracle_survives(self):
        net = make_net(
            [1, 2, 3],
            [(1, 2), (1, 3)],
            caps={1: 100, 2: 100, 3: 60},
            bws={(1, 2): 40, (1, 3): 100},
        )
        r = req(nodes={"a": 50, "b": 50}, links={("a", "b"): 50})
        assert embed(SubstrateView(net), r).rejection == LINK_STAGE
        assert oracle_embed(net, r) == (True, 150)

    def test_more_capacity_can_flip_greedy_to_reject(self):
        def build(cap2):
            return make_net(
                [1, 2, 3],
                [(1, 2), (1, 3)],
                caps={1: 100, 2: cap2, 3: 60},
                bws={(1, 2): 40, (1, 3): 100},
            )

        r = req(nodes={"a": 50, "b": 50}, links={("a", "b"): 50})
        small = embed(SubstrateView(build(55)), r)
        assert small.accepted and small.reservation.cost == 150
        # raising switch 2's capacity attracts the first node there, and the
        # only path out of switch 2 is too thin for the demand
        assert embed(SubstrateView(build(120)), r).rejection == LINK_STAGE

    def test_never_beats_oracle_on_random_instances(self):
        spec = GeneratorSpec(vnodes_min=2, vnodes_max=4)
        wins = 0
        for seed in range(30):
            streams = RandomStreams(f"oracle-{seed}")
            net = random_substrate(streams.topology, 6, spec)
            r = gen_virtual_request(streams.request(0), spec, 0, 0, 10)
            feasible, best = oracle_embed(net, r, switch_limit=7, vnode_limit=4)
            outcome = embed(SubstrateView(net), r)
            if outcome.accepted:
                assert feasible
                assert best <= outcome.reservation.cost
                wins += 1
        assert wins > 10


def test_embed_outcome_accepted_property():
    assert EmbedOutcome(reservation=object()).accepted is True
    assert EmbedOutcome(rejection=NODE_STAGE).accepted is False
