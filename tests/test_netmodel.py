"""Resource ledger, mapping validation, cost, and the topology text format."""

import pytest

from vnesim.netmodel import (
    INJECTIVITY,
    NODE_CAPACITY,
    PATH_BANDWIDTH,
    PATH_EXISTENCE,
    Mapping,
    MappingStructureError,
    ReservationError,
    SubstrateView,
    TopologyError,
    UnknownRequestError,
    VirtualNetworkRequest,
    load_topology,
    mapping_cost,
    norm_link,
    parse_topology,
    path_links,
    reserve,
    rule_units_for,
    topology_text,
    validate_mapping,
)

from conftest import make_net


def req(rid=1, nodes=None, links=None, arrival=0, lifetime=10):
    return VirtualNetworkRequest(
        rid,
        nodes if nodes is not None else {0: 10, 1: 20},
        links if links is not None else {(0, 1): 5},
        arrival,
        lifetime,
    )


def test_norm_link_orders_endpoints():
    assert norm_link(3, 1) == (1, 3)
    assert norm_link(1, 3) == (1, 3)


def test_path_links_decomposes_switch_sequence():
    assert path_links((1, 2, 3)) == [(1, 2), (2, 3)]
    assert path_links((3, 1)) == [(1, 3)]
    assert path_links((7,)) == []


class TestVirtualNetworkRequest:
    def test_departure_is_arrival_plus_lifetime(self):
        r = req(arrival=5, lifetime=7)
        assert r.departure == 12

    def test_rejects_nonpositive_node_demand(self):
        with pytest.raises(ValueError, match="node 0"):
            req(nodes={0: 0, 1: 5}, links={(0, 1): 1})

    def test_rejects_non_integer_link_demand(self):
        with pytest.raises(ValueError, match="positive integer"):
            req(links={(0, 1): 2.5})

    def test_rejects_unnormalized_link(self):
        with pytest.raises(ValueError, match="not normalized"):
            req(links={(1, 0): 5})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            req(links={(0, 0): 5})

    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            req(links={(0, 2): 5})

    def test_rejects_disconnected_demand_graph(self):
        with pytest.raises(ValueError, match="not connected"):
            req(nodes={0: 1, 1: 1, 2: 1}, links={(0, 1): 1})

    def test_rejects_nonpositive_lifetime(self):
        with pytest.raises(ValueError, match="lifetime"):
            req(lifetime=0)


class TestSubstrateNetwork:
    def test_sorts_switches_and_links(self):
        net = make_net([3, 1, 2], [(2, 3), (1, 2)])
        assert net.switches == [1, 2, 3]
        assert net.links == [(1, 2), (2, 3)]
        assert net.adj == {1: [2], 2: [1, 3], 3: [2]}

    def test_rejects_duplicate_switch(self):
        with pytest.raises(TopologyError, match="duplicate switch"):
            make_net([1, 1, 2], [(1, 2)])

    def test_rejects_duplicate_link_both_orientations(self):
        with pytest.raises(TopologyError, match="duplicate link"):
            make_net([1, 2], [(1, 2), (2, 1)], bws={(1, 2): 5, (2, 1): 5})

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            make_net([1, 2], [(1, 1), (1, 2)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(TopologyError, match="unknown switch"):
            make_net([1, 2], [(1, 3)])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(TopologyError, match="capacity must be positive"):
            make_net([1, 2], [(1, 2)], caps={1: 0})

    def test_rejects_nonpositive_unit_costs(self):
        with pytest.raises(TopologyError, match="switch 1: unit cost must be positive"):
            make_net([1, 2], [(1, 2)], switch_costs={1: 0})
        with pytest.raises(TopologyError, match=r"link \(1, 2\): unit cost must be positive"):
            make_net([1, 2], [(1, 2)], link_costs={(1, 2): -5})

    def test_rejects_disconnected_and_names_a_representative(self):
        with pytest.raises(TopologyError, match="switch 4"):
            make_net([1, 2, 4, 5], [(1, 2), (4, 5)])

    def test_unknown_release_raises(self, triangle):
        with pytest.raises(UnknownRequestError):
            triangle.release(99)


class TestReserveAndCommit:
    def test_tentative_reserve_hits_view_not_base(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        mapping = Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)})
        reserve(view, r, mapping, tentative=True)
        assert view.residual_capacity(1) == 90
        assert view.residual_bandwidth((1, 2)) == 95
        assert triangle.residual_capacity(1) == 100
        assert triangle.residual_bandwidth((1, 2)) == 100
        assert view.conservation_violations() == []

    def test_release_tentative_restores_everything(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert view.release(r.request_id) is True
        assert view.residual_capacity(1) == 100
        assert view.residual_bandwidth((1, 2)) == 100
        assert view.tentative == {}

    def test_commit_moves_reservation_and_installs_rule_memory(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert view.commit(r.request_id) is True
        # nodes 10 + one rule on each path switch
        assert triangle.residual_capacity(1) == 100 - 10 - 1
        assert triangle.residual_capacity(2) == 100 - 20 - 1
        assert triangle.rule_load == {1: 1, 2: 1, 3: 0}
        assert view.tentative == {}
        assert view.conservation_violations() == []

    def test_commit_fails_without_rule_headroom(self):
        # switch 2 is filled to the brim by a committed request, so the
        # transit rule of the next request cannot fit
        net = make_net([1, 2, 3], [(1, 2), (2, 3)])
        view = SubstrateView(net)
        squatter = req(rid=1, nodes={0: 100}, links={})
        reserve(view, squatter, Mapping({0: 2}, {}), tentative=False)
        r = req(rid=2, nodes={0: 10, 1: 10}, links={(0, 1): 5})
        reserve(view, r, Mapping({0: 1, 1: 3}, {(0, 1): (((1, 2, 3), 5),)}))
        assert view.commit(2) is False
        # the reservation stays tentative and fully accounted
        assert 2 in view.tentative
        assert view.conservation_violations() == []
        # freeing the squatter makes the same commit succeed
        view.release(1)
        assert view.commit(2) is True
        assert net.rule_load[2] == 1

    def test_double_release_returns_false(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        view.commit(r.request_id)
        assert view.release(r.request_id) is True
        assert view.release(r.request_id) is False

    def test_overbooked_reserve_raises_and_applies_nothing(self, triangle):
        view = SubstrateView(triangle)
        r = req(nodes={0: 150, 1: 10}, links={(0, 1): 5})
        with pytest.raises(ReservationError):
            reserve(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert view.residual_capacity(1) == 100
        assert view.residual_bandwidth((1, 2)) == 100
        assert view.tentative == {}

    def test_duplicate_reserve_raises(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        with pytest.raises(ReservationError, match="already reserved"):
            reserve(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))

    def test_sibling_tentative_requests_see_each_other(self, triangle):
        view = SubstrateView(triangle)
        first = req(rid=1, nodes={0: 60}, links={})
        reserve(view, first, Mapping({0: 1}, {}))
        second = req(rid=2, nodes={0: 60}, links={})
        with pytest.raises(ReservationError):
            reserve(view, second, Mapping({0: 1}, {}))


def test_rule_units_one_per_link_path_switch():
    link_paths = {
        (0, 1): (((1, 2, 3), 5),),
        (1, 2): (((3, 2), 4),),
    }
    assert rule_units_for(link_paths) == {1: 1, 2: 2, 3: 2}


def test_rule_units_split_paths_count_per_path():
    link_paths = {(0, 1): (((1, 2), 6), ((1, 3, 2), 4))}
    assert rule_units_for(link_paths) == {1: 2, 2: 2, 3: 1}


class TestValidateMapping:
    def test_good_mapping_is_valid(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        result = validate_mapping(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert bool(result) is True
        assert result.violations == []

    def test_injectivity_violation(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        result = validate_mapping(view, r, Mapping({0: 1, 1: 1}, {(0, 1): (((1, 2), 5),)}))
        kinds = [v.kind for v in result.violations]
        assert INJECTIVITY in kinds

    def test_node_capacity_violation_is_cumulative_per_switch(self, triangle):
        view = SubstrateView(triangle)
        # two virtual nodes of 60 on one switch: each alone fits, the sum not
        r = req(nodes={0: 60, 1: 60}, links={(0, 1): 1})
        result = validate_mapping(view, r, Mapping({0: 1, 1: 1}, {(0, 1): (((1, 2), 1),)}))
        kinds = {v.kind for v in result.violations}
        assert NODE_CAPACITY in kinds

    def test_path_must_connect_the_hosts(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        result = validate_mapping(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 3), 5),)}))
        assert [v.kind for v in result.violations] == [PATH_EXISTENCE]

    def test_path_must_be_simple(self):
        net = make_net([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        view = SubstrateView(net)
        r = req()
        result = validate_mapping(view, r, Mapping({0: 1, 1: 2}, {(0, 1): (((1, 3, 1, 2), 5),)}))
        assert any(v.kind == PATH_EXISTENCE for v in result.violations)

    def test_bandwidth_violation_sums_links_sharing_an_element(self, triangle):
        view = SubstrateView(triangle)
        r = req(
            nodes={0: 1, 1: 1, 2: 1},
            links={(0, 1): 60, (0, 2): 60, (1, 2): 1},
        )
        # both 60-unit links routed across (1, 2): 120 > 100 even though each fits
        mapping = Mapping(
            {0: 1, 1: 2, 2: 3},
            {(0, 1): (((1, 2), 60),), (0, 2): (((1, 2, 3), 60),), (1, 2): (((2, 3), 1),)},
        )
        result = validate_mapping(view, r, mapping)
        bad = [v for v in result.violations if v.kind == PATH_BANDWIDTH]
        assert [v.element for v in bad] == [(1, 2)]

    def test_parts_must_be_positive_and_sum_to_the_demand(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        good = {(0, 1): (((1, 2), 3), ((1, 3, 2), 2))}
        assert validate_mapping(view, r, Mapping({0: 1, 1: 2}, good))
        for parts in ((((1, 2), 4),), (((1, 2), 6), ((1, 3, 2), -1))):
            result = validate_mapping(view, r, Mapping({0: 1, 1: 2}, {(0, 1): parts}))
            assert [v.kind for v in result.violations] == [PATH_EXISTENCE]
            assert "sum to demand 5" in result.violations[0].detail

    def test_wrong_node_cover_is_structural(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        with pytest.raises(MappingStructureError, match="node map"):
            validate_mapping(view, r, Mapping({0: 1}, {(0, 1): (((1, 2), 5),)}))

    def test_unknown_substrate_link_is_structural(self, line3):
        view = SubstrateView(line3)
        r = req()
        with pytest.raises(MappingStructureError, match="no substrate link"):
            validate_mapping(view, r, Mapping({0: 1, 1: 3}, {(0, 1): (((1, 3), 5),)}))


class TestCost:
    def test_hand_computed_mapping_cost(self, line3):
        # nodes: 10*1 + 20*1 = 30; link: 5 units on two links = 10; total 40
        r = req()
        mapping = Mapping({0: 1, 1: 3}, {(0, 1): (((1, 2, 3), 5),)})
        assert mapping_cost(line3, r, mapping) == 40

    def test_cost_weights_by_unit_costs(self):
        net = make_net(
            [1, 2, 3],
            [(1, 2), (2, 3)],
            switch_costs={1: 2, 3: 3},
            link_costs={(1, 2): 4, (2, 3): 5},
        )
        r = req()
        mapping = Mapping({0: 1, 1: 3}, {(0, 1): (((1, 2, 3), 5),)})
        # nodes: 10*2 + 20*3 = 80; link: 5*4 + 5*5 = 45
        assert mapping_cost(net, r, mapping) == 125

    def test_allocation_cost_covers_split_allocations(self, triangle):
        r = req(links={(0, 1): 10})
        mapping = Mapping({0: 1, 1: 2}, {(0, 1): (((1, 2), 6), ((1, 3, 2), 4))})
        # nodes 30; direct part 6*1; detour part over two links 4*2 = 8
        assert mapping_cost(triangle, r, mapping) == 30 + 6 + 8


class TestTopologyFormat:
    GOOD = """
    # backbone
    switch 1 100
    switch 2 150 2   # explicit unit cost
    switch 3 200
    link 1 2 80
    link 2 3 90 3
    """

    def test_parse_reads_capacities_costs_comments(self):
        net = parse_topology(self.GOOD)
        assert net.switches == [1, 2, 3]
        assert net.capacity == {1: 100, 2: 150, 3: 200}
        assert net.switch_cost == {1: 1, 2: 2, 3: 1}
        assert net.bandwidth == {(1, 2): 80, (2, 3): 90}
        assert net.link_cost == {(1, 2): 1, (2, 3): 3}

    def test_round_trip_through_text(self):
        net = parse_topology(self.GOOD)
        assert parse_topology(topology_text(net)) == net

    def test_unknown_declaration_carries_line_number(self):
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 100\nrouter 2 100")
        assert err.value.line == 2
        assert "router" in str(err.value)

    def test_malformed_fields_carry_line_number(self):
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 many")
        assert err.value.line == 1

    def test_duplicate_link_carries_line_number(self):
        text = "switch 1 100\nswitch 2 100\nlink 1 2 50\nlink 2 1 60"
        with pytest.raises(TopologyError) as err:
            parse_topology(text)
        assert err.value.line == 4

    def test_nonpositive_unit_costs_carry_line_number(self):
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 100\nswitch 2 100 -1\nlink 1 2 50")
        assert err.value.line == 2 and "unit cost" in str(err.value)
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 100\nswitch 2 100\nlink 1 2 50 0")
        assert err.value.line == 3 and "unit cost" in str(err.value)

    def test_link_to_unknown_switch(self):
        with pytest.raises(TopologyError, match="unknown switch"):
            parse_topology("switch 1 100\nswitch 2 100\nlink 1 9 50")

    def test_empty_input_rejected(self):
        with pytest.raises(TopologyError, match="no switches"):
            parse_topology("# nothing here\n")

    def test_load_topology_from_file(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text(self.GOOD, encoding="utf-8")
        assert load_topology(p) == parse_topology(self.GOOD)
