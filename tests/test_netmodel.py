"""Resource ledger, mapping validation, cost, and the topology text format."""

import copy
from dataclasses import replace

import pytest

from vnesim import netmodel
from vnesim.netmodel import (
    ReservationError,
    SubstrateNetwork,
    SubstrateView,
    TopologyError,
    UnknownRequestError,
    VirtualNetworkRequest,
    load_topology,
    norm_link,
    parse_topology,
    reserve,
)

from conftest import make_net
from reference import (
    INJECTIVITY,
    NODE_CAPACITY,
    PATH_BANDWIDTH,
    PATH_EXISTENCE,
    MappingStructureError,
    adj,
    build_reservation,
    check_request,
    full_audit,
    indexed,
    mapping_cost,
    move_tentative,
    named_totals,
    networks_equal,
    path_links,
    residual_bandwidth,
    residual_capacity,
    rule_units_of,
    t_link_load,
    topology_text,
    validate_mapping,
    indexed_parts,
)


def req(rid=1, nodes=None, links=None, arrival=0, lifetime=10):
    return check_request(VirtualNetworkRequest(
        rid,
        nodes if nodes is not None else {0: 10, 1: 20},
        links if links is not None else {(0, 1): 5},
        arrival,
        lifetime,
    ))


def test_norm_link_orders_endpoints():
    assert norm_link(3, 1) == (1, 3)
    assert norm_link(1, 3) == (1, 3)


def test_path_links_decomposes_switch_sequence():
    assert path_links((1, 2, 3)) == [(1, 2), (2, 3)]
    assert path_links((3, 1)) == [(1, 3)]
    assert path_links((7,)) == []


class TestVirtualNetworkRequest:
    """The request contract, as ``req`` checks it through
    ``reference.check_request``; the constructor itself checks nothing."""

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
        assert adj(net) == {1: [2], 2: [1, 3], 3: [2]}

    def test_rows_out_of_order_give_sorted_flat_lists(self):
        net = SubstrateNetwork(
            [(3, 7, 4), (1, 5, 2), (2, 6, 3)],
            [(3, 2, 11, 5), (2, 1, 10, 6)],
        )
        assert net.switches == [1, 2, 3]
        assert net.capacities == [5, 6, 7]
        assert net.switch_costs == [2, 3, 4]
        # a (2, 1, bw, cost) row keys link (1, 2)
        assert net.links == [(1, 2), (2, 3)]
        assert net.bandwidths == [10, 11]
        assert net.link_costs == [6, 5]

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
        # the view is the ledger's only writer, so release goes through it
        with pytest.raises(UnknownRequestError):
            SubstrateView(triangle).release(99)


class TestReserveAndCommit:
    def test_a_fresh_view_starts_from_the_totals(self):
        net = make_net([1, 2, 3], [(1, 2), (2, 3)], caps={1: 40, 3: 90}, bws={(2, 3): 7})
        # it reads no committed load: a base without them builds the same view
        del net.rule_load, net.link_load
        view = SubstrateView(net)
        assert view.capacity_left == net.capacities == [40, 100, 90]
        assert view.bandwidth_left == net.bandwidths == [100, 7]
        # copies, which the view debits while the totals stay
        assert view.capacity_left is not net.capacities and view.bandwidth_left is not net.bandwidths
        assert view.switch_used == view.link_used == 0

    def test_tentative_reserve_hits_view_not_base(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        res = build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)})
        # the record handed in is the one staged, not a copy
        assert reserve(view, res) is res
        assert view.tentative[r.request_id] is res
        assert residual_capacity(view, 1) == 90
        assert residual_bandwidth(view, (1, 2)) == 95
        assert residual_capacity(triangle, 1) == 100
        assert residual_bandwidth(triangle, (1, 2)) == 100
        assert view.conservation_violations() == []

    def test_release_tentative_restores_everything(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert view.release(r.request_id) is True
        assert residual_capacity(view, 1) == 100
        assert residual_bandwidth(view, (1, 2)) == 100
        assert view.tentative == {}

    def test_commit_moves_reservation_and_installs_rule_memory(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert view.commit(r.request_id) is True
        # nodes 10 + one rule on each path switch
        assert residual_capacity(triangle, 1) == 100 - 10 - 1
        assert residual_capacity(triangle, 2) == 100 - 20 - 1
        assert triangle.rule_load == {1: 1, 2: 1, 3: 0}
        assert view.tentative == {}
        assert view.conservation_violations() == []

    def test_commit_fails_without_rule_headroom(self):
        # switch 2 is filled to the brim by a committed request, so the
        # transit rule of the next request cannot fit
        net = make_net([1, 2, 3], [(1, 2), (2, 3)])
        view = SubstrateView(net)
        squatter = req(rid=1, nodes={0: 100}, links={})
        reserve(view, build_reservation(view, squatter, {0: 2}, {}))
        assert view.commit(1) is True
        r = req(rid=2, nodes={0: 10, 1: 10}, links={(0, 1): 5})
        reserve(view, build_reservation(view, r, {0: 1, 1: 3}, {(0, 1): (((1, 2, 3), 5),)}))
        assert view.commit(2) is False
        # the reservation stays tentative and fully accounted
        assert 2 in view.tentative
        assert view.conservation_violations() == []
        # freeing the squatter makes the same commit succeed
        view.release(1)
        assert view.commit(2) is True
        assert net.rule_load[2] == 1

    def test_move_keeps_the_ledger_balanced(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 3, 2), 5),)}))
        move_tentative(view, r.request_id, (0, 1), [1, 2])
        res = view.tentative[r.request_id]
        assert res.link_paths == indexed_parts(triangle, {(0, 1): (((1, 2), 5),)})
        assert res.link_units == {triangle.links.index((1, 2)): 5}
        assert res.cost == mapping_cost(triangle, r, res) == 30 + 5
        assert t_link_load(view) == {(1, 2): 5, (1, 3): 0, (2, 3): 0}
        assert view.conservation_violations() == []

    def test_move_counts_the_units_it_frees_on_shared_links(self):
        # the old path 1-2-3 fills link (1, 2); the new path 1-2-4-3 reuses
        # it, so the move fits only because the link's own units come back
        net = make_net([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)], bws={(1, 2): 10})
        view = SubstrateView(net)
        r = req(nodes={0: 1, 1: 1}, links={(0, 1): 10})
        reserve(view, build_reservation(view, r, {0: 1, 1: 3}, {(0, 1): (((1, 2, 3), 10),)}))
        assert residual_bandwidth(view, (1, 2)) == 0
        move_tentative(view, r.request_id, (0, 1), (1, 2, 4, 3))
        res = view.tentative[r.request_id]
        assert res.link_paths == indexed_parts(net, {(0, 1): (((1, 2, 4, 3), 10),)})
        assert res.link_units == {net.links.index(lk): 10 for lk in ((1, 2), (2, 4), (3, 4))}
        assert res.cost == mapping_cost(net, r, res) == 2 + 30
        assert residual_bandwidth(view, (1, 2)) == 0
        assert residual_bandwidth(view, (2, 3)) == 100
        assert view.conservation_violations() == []

    def test_refused_move_raises_and_applies_nothing(self, triangle):
        view = SubstrateView(triangle)
        hog = req(rid=1, nodes={0: 1, 1: 1}, links={(0, 1): 100})
        reserve(view, build_reservation(view, hog, {0: 1, 1: 2}, {(0, 1): (((1, 2), 100),)}))
        r = req(rid=2, nodes={0: 1, 1: 1}, links={(0, 1): 5})
        reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 3, 2), 5),)}))
        res_before = copy.deepcopy(view.tentative[2])
        load_before = t_link_load(view)
        # (1, 2) is full and the old path frees nothing on it
        with pytest.raises(ReservationError, match=r"link \(1, 2\)"):
            move_tentative(view, 2, (0, 1), (1, 2))
        assert view.tentative[2] == res_before
        assert t_link_load(view) == load_before
        assert view.conservation_violations() == []

    def test_double_release_raises(self, triangle):
        # a released id is unknown to the ledger, like one never reserved
        view = SubstrateView(triangle)
        r = req()
        reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        view.commit(r.request_id)
        assert view.release(r.request_id) is True
        with pytest.raises(UnknownRequestError):
            view.release(r.request_id)

    def test_overbooked_reserve_raises_and_applies_nothing(self, triangle):
        view = SubstrateView(triangle)
        r = req(nodes={0: 150, 1: 10}, links={(0, 1): 5})
        with pytest.raises(ReservationError):
            reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert residual_capacity(view, 1) == 100
        assert residual_bandwidth(view, (1, 2)) == 100
        assert view.tentative == {}

    def test_duplicate_reserve_raises(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        with pytest.raises(ReservationError, match="already reserved"):
            reserve(view, build_reservation(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))

    def test_sibling_tentative_requests_see_each_other(self, triangle):
        view = SubstrateView(triangle)
        first = req(rid=1, nodes={0: 60}, links={})
        reserve(view, build_reservation(view, first, {0: 1}, {}))
        second = req(rid=2, nodes={0: 60}, links={})
        with pytest.raises(ReservationError):
            reserve(view, build_reservation(view, second, {0: 1}, {}))


def test_rule_units_one_per_link_path_switch(triangle):
    # commit counts them by switch index, as the reference derives them
    view = SubstrateView(triangle)
    r = req(nodes={0: 1, 1: 1, 2: 1}, links={(0, 1): 5, (1, 2): 4})
    reserve(view, build_reservation(view, r, {0: 1, 1: 3, 2: 2}, {
        (0, 1): (((1, 2, 3), 5),),
        (1, 2): (((3, 2), 4),),
    }))
    assert view.commit(r.request_id) is True
    res = triangle.committed[r.request_id]
    assert res.rule_units == rule_units_of(triangle, res) == {0: 1, 1: 2, 2: 2}


def test_rule_units_split_paths_count_per_path():
    # switches 10, 20 and 30 are indices 0, 1 and 2: the units key by index
    net = make_net([10, 20, 30], [(10, 20), (10, 30), (20, 30)])
    view = SubstrateView(net)
    r = req(links={(0, 1): 10})
    reserve(view, build_reservation(view, r, {0: 10, 1: 20},
                                    {(0, 1): (((10, 20), 6), ((10, 30, 20), 4))}))
    assert view.commit(r.request_id) is True
    res = net.committed[r.request_id]
    assert res.rule_units == rule_units_of(net, res) == {0: 2, 1: 2, 2: 1}


class TestViewAudit:
    """The view's audit covers its flat residuals and utilization numerators."""

    @staticmethod
    def staged(net):
        view = SubstrateView(net)
        reserve(view, build_reservation(view, req(rid=1), {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert view.commit(1) is True
        reserve(view, build_reservation(view, req(rid=2), {0: 1, 1: 3}, {(0, 1): (((1, 3), 5),)}))
        assert view.conservation_violations() == []
        return view

    @pytest.mark.parametrize("flat,element", [
        ("capacity_left", "switch 2"), ("bandwidth_left", "link (1, 3)"),
    ])
    def test_a_corrupted_residual_entry_is_reported(self, triangle, flat, element):
        view = self.staged(triangle)
        getattr(view, flat)[1] -= 1
        found = view.conservation_violations()
        assert any(v.startswith(f"{element}: effective residual") for v in found), found

    @pytest.mark.parametrize("numerator,kind", [("switch_used", "switch"), ("link_used", "link")])
    def test_a_corrupted_utilization_term_is_reported(self, triangle, numerator, kind):
        view = self.staged(triangle)
        setattr(view, numerator, getattr(view, numerator) + 1)  # 1 / L of a utilization off
        found = view.conservation_violations()
        assert len(found) == 1 and found[0].startswith(f"{kind} utilization numerator"), found

    def test_a_release_behind_the_views_back_is_reported(self, triangle):
        view = self.staged(triangle)
        # release request 1 on the base by hand, as only the view may
        res = triangle.committed.pop(1)
        for units, names, load in ((res.rule_units, triangle.switches, triangle.rule_load),
                                   (res.link_units, triangle.links, triangle.link_load)):
            for i, n in units.items():
                load[names[i]] -= n
        # the committed loads still match the committed sums: only the
        # view's stale flat residuals are reported
        stale = view.conservation_violations()
        assert sorted(v.split(":")[0] for v in stale) == ["link (1, 2)", "switch 1", "switch 2"]
        assert all("effective residual" in v for v in stale)
        assert stale == full_audit(view)

    def test_a_load_is_read_by_name_not_by_position(self, triangle):
        view = self.staged(triangle)
        # the same values in switch order, under other names
        triangle.rule_load = {1: 1, 3: 1, 2: 0}
        found = view.conservation_violations()
        assert found == ["switch 2: rule load 0 != per-request sum 1",
                         "switch 3: rule load 1 != per-request sum 0"]
        assert found == full_audit(view)

    @pytest.mark.parametrize("units", ["node_units", "rule_units", "link_units"])
    def test_a_committed_records_unit_maps_are_read_only(self, triangle, units):
        view = self.staged(triangle)
        res = triangle.committed[1]
        with pytest.raises(TypeError):
            getattr(res, units)[0] = 1
        with pytest.raises(TypeError):
            del getattr(res, units)[0]
        # the tentative record is still writable, for the remap's moves
        getattr(view.tentative[2], units)[0] = 1

    def test_a_reassigned_unit_map_is_reported(self, triangle):
        view = self.staged(triangle)
        res = triangle.committed[1]
        frozen = res.link_units
        res.link_units = {**frozen, 0: frozen[0] + 1}
        found = view.conservation_violations()
        assert found == ["link (1, 2): load 5 != per-request sum 6",
                         "link (1, 2): effective residual 95 != total less per-request sums 94"]
        assert found == full_audit(view)
        # the reassigned map is a plain dict: an edit in place shows too
        res.link_units[0] += 1
        assert view.conservation_violations() == full_audit(view)
        assert "per-request sum 7" in view.conservation_violations()[0]
        res.link_units = frozen
        assert view.conservation_violations() == []

    def test_a_new_view_reports_the_records_its_base_already_held(self, triangle):
        first = self.staged(triangle)
        # a view starts from the totals: committed request 1 is missing from
        # its lists, and the other view's tentative request 2 is not its own
        view = SubstrateView(triangle)
        found = view.conservation_violations()
        assert found == ["switch 1: effective residual 100 != total less per-request sums 89",
                         "switch 2: effective residual 100 != total less per-request sums 79",
                         "link (1, 2): effective residual 100 != total less per-request sums 95"]
        assert found == full_audit(view)
        assert first.conservation_violations() == [] == full_audit(first)

    @pytest.mark.parametrize("same_record", [True, False])
    def test_a_release_and_recommit_of_one_id_between_audits(self, triangle, same_record):
        view = self.staged(triangle)
        res = triangle.committed[1]
        view.release(1)
        if not same_record:
            res = build_reservation(view, req(rid=1), {0: 3, 1: 2}, {(0, 1): (((3, 1, 2), 4),)})
        reserve(view, res)
        assert view.commit(1) is True
        assert view.conservation_violations() == [] == full_audit(view)

    def test_a_same_id_swap_is_summed_by_its_units(self, triangle):
        view = self.staged(triangle)
        res = triangle.committed[1]
        # another record with equal units balances, shared maps or copies
        triangle.committed[1] = replace(res)
        assert view.conservation_violations() == []
        triangle.committed[1] = replace(res, node_units=dict(res.node_units),
                                        link_units=dict(res.link_units))
        assert view.conservation_violations() == []
        # one that carries other units does not
        triangle.committed[1] = replace(res, link_units={**res.link_units, 0: 1})
        found = view.conservation_violations()
        assert found and found == full_audit(view)
        triangle.committed[1] = res
        assert view.conservation_violations() == []

    @pytest.mark.parametrize("units", ["node_units", "link_units"])
    def test_a_tentative_index_past_the_end_raises_until_mended(self, triangle, units):
        view = self.staged(triangle)
        # the record's own map, as a remap move edits it, its other units first
        own = getattr(view.tentative[2], units)
        past = len(triangle.links if units == "link_units" else triangle.switches)
        own[past] = 1
        for audit in (view.conservation_violations, lambda: full_audit(view)):
            with pytest.raises(IndexError):
                audit()
        del own[past]
        assert view.conservation_violations() == full_audit(view) == []

    def test_a_tentative_records_rule_units_are_summed(self, triangle):
        # only commit gives a record rule units; the overlay sum counts any
        view = self.staged(triangle)
        view.tentative[2].rule_units[2] = 1
        found = view.conservation_violations()
        assert found == ["switch 3: effective residual 80 != total less per-request sums 79"]
        assert found == full_audit(view)
        del view.tentative[2].rule_units[2]
        assert view.conservation_violations() == []

    def test_a_balanced_ledger_passes_on_whole_lists_alone(self, triangle, monkeypatch):
        # the element pass recounts each numerator; a balanced ledger must
        # not reach it, whatever entered or left since the last call
        view = self.staged(triangle)

        def element_pass(*args):
            raise AssertionError("the audit walked the elements")

        monkeypatch.setattr(netmodel, "_scaled_used", element_pass)
        assert view.commit(2) is True
        assert view.conservation_violations() == []
        view.release(1)
        assert view.conservation_violations() == []
        reserve(view, build_reservation(view, req(rid=3), {0: 2, 1: 3}, {(0, 1): (((2, 3), 7),)}))
        assert view.conservation_violations() == []

    # Each corruption breaks one check of the audit and nothing else: the
    # view's _debit keeps a residual and its utilization numerator
    # consistent, and a unit moved between a committed and a tentative
    # reservation leaves the effective residual as it was.
    @staticmethod
    def rule_load(net, view):
        net.rule_load[1] += 1

    @staticmethod
    def link_load(net, view):
        net.link_load[1, 2] += 1

    @staticmethod
    def switch_residual(net, view):
        view._debit({1: 1}, {})

    @staticmethod
    def link_residual(net, view):
        view._debit({}, {1: 1})

    # A committed record is frozen, so these swap in another record object
    # that carries the overdrawn units.
    @staticmethod
    def committed_switch_overdrawn(net, view):
        res = net.committed[1]
        net.committed[1] = replace(res, node_units={**res.node_units, 0: res.node_units[0] + 200})
        view.tentative[2].node_units[0] -= 200

    @staticmethod
    def committed_link_overdrawn(net, view):
        res = net.committed[1]
        net.committed[1] = replace(res, link_units={**res.link_units, 0: res.link_units[0] + 200})
        net.link_load[1, 2] += 200
        view.tentative[2].link_units[0] = -200

    @staticmethod
    def effective_switch_overdrawn(net, view):
        view.tentative[2].node_units[2] += 200
        view._debit({2: 200}, {})

    @staticmethod
    def effective_link_overdrawn(net, view):
        view.tentative[2].link_units[1] += 200
        view._debit({}, {1: 200})

    @staticmethod
    def switch_term(net, view):
        view.switch_used += 1

    @staticmethod
    def link_term(net, view):
        view.link_used -= 1

    CHECKS = [
        ("rule_load", "switch 1: rule load 2 != per-request sum 1"),
        ("link_load", "link (1, 2): load 6 != per-request sum 5"),
        ("switch_residual", "switch 2: effective residual 78 != total less per-request sums 79"),
        ("link_residual", "link (1, 3): effective residual 94 != total less per-request sums 95"),
        ("committed_switch_overdrawn", "switch 1: negative residual -111"),
        ("committed_link_overdrawn", "link (1, 2): negative residual -105"),
        ("effective_switch_overdrawn", "switch 3: negative effective residual"),
        ("effective_link_overdrawn", "link (1, 3): negative effective residual"),
        ("switch_term", "switch utilization numerator"),
        ("link_term", "link utilization numerator"),
    ]

    @pytest.mark.parametrize("corrupt,line", CHECKS, ids=[c for c, _ in CHECKS])
    def test_each_check_is_reported_on_its_own(self, triangle, corrupt, line):
        view = self.staged(triangle)
        getattr(self, corrupt)(triangle, view)
        found = view.conservation_violations()
        assert len(found) == 1 and found[0].startswith(line), found


class TestValidateMapping:
    def test_good_mapping_is_valid(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        result = validate_mapping(view, r, indexed(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 5),)}))
        assert bool(result) is True
        assert result.violations == []

    def test_injectivity_violation(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        result = validate_mapping(view, r, indexed(view, r, {0: 1, 1: 1}, {(0, 1): (((1, 2), 5),)}))
        kinds = [v.kind for v in result.violations]
        assert INJECTIVITY in kinds

    def test_node_capacity_violation_is_cumulative_per_switch(self, triangle):
        view = SubstrateView(triangle)
        # two virtual nodes of 60 on one switch: each alone fits, the sum not
        r = req(nodes={0: 60, 1: 60}, links={(0, 1): 1})
        result = validate_mapping(view, r, indexed(view, r, {0: 1, 1: 1}, {(0, 1): (((1, 2), 1),)}))
        kinds = {v.kind for v in result.violations}
        assert NODE_CAPACITY in kinds

    def test_path_must_connect_the_hosts(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        result = validate_mapping(view, r, indexed(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 3), 5),)}))
        assert [v.kind for v in result.violations] == [PATH_EXISTENCE]

    def test_path_must_be_simple(self):
        net = make_net([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        view = SubstrateView(net)
        r = req()
        mapping = indexed(view, r, {0: 1, 1: 2}, {(0, 1): (((1, 3, 1, 2), 5),)})
        result = validate_mapping(view, r, mapping)
        assert any(v.kind == PATH_EXISTENCE for v in result.violations)

    def test_bandwidth_violation_sums_links_sharing_an_element(self, triangle):
        view = SubstrateView(triangle)
        r = req(
            nodes={0: 1, 1: 1, 2: 1},
            links={(0, 1): 60, (0, 2): 60, (1, 2): 1},
        )
        # both 60-unit links routed across (1, 2): 120 > 100 even though each fits
        mapping = indexed(
            view, r,
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
        assert validate_mapping(view, r, indexed(view, r, {0: 1, 1: 2}, good))
        for parts in ((((1, 2), 4),), (((1, 2), 6), ((1, 3, 2), -1))):
            result = validate_mapping(view, r, indexed(view, r, {0: 1, 1: 2}, {(0, 1): parts}))
            assert [v.kind for v in result.violations] == [PATH_EXISTENCE]
            assert "sum to demand 5" in result.violations[0].detail

    def test_wrong_node_cover_is_structural(self, triangle):
        view = SubstrateView(triangle)
        r = req()
        with pytest.raises(MappingStructureError, match="node map"):
            validate_mapping(view, r, indexed(view, r, {0: 1}, {(0, 1): (((1, 2), 5),)}))

    def test_unknown_substrate_link_is_structural(self, line3):
        view = SubstrateView(line3)
        r = req()
        with pytest.raises(MappingStructureError, match="no substrate link"):
            validate_mapping(view, r, indexed(view, r, {0: 1, 1: 3}, {(0, 1): (((1, 3), 5),)}))


class TestCost:
    def test_hand_computed_mapping_cost(self, line3):
        # nodes: 10*1 + 20*1 = 30; link: 5 units on two links = 10; total 40
        r = req()
        mapping = indexed(line3, r, {0: 1, 1: 3}, {(0, 1): (((1, 2, 3), 5),)})
        assert mapping_cost(line3, r, mapping) == 40

    def test_cost_weights_by_unit_costs(self):
        net = make_net(
            [1, 2, 3],
            [(1, 2), (2, 3)],
            switch_costs={1: 2, 3: 3},
            link_costs={(1, 2): 4, (2, 3): 5},
        )
        r = req()
        mapping = indexed(net, r, {0: 1, 1: 3}, {(0, 1): (((1, 2, 3), 5),)})
        # nodes: 10*2 + 20*3 = 80; link: 5*4 + 5*5 = 45
        assert mapping_cost(net, r, mapping) == 125

    def test_allocation_cost_covers_split_allocations(self, triangle):
        r = req(links={(0, 1): 10})
        mapping = indexed(triangle, r, {0: 1, 1: 2}, {(0, 1): (((1, 2), 6), ((1, 3, 2), 4))})
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
        assert named_totals(net) == (
            {1: 100, 2: 150, 3: 200}, {1: 1, 2: 2, 3: 1},
            {(1, 2): 80, (2, 3): 90}, {(1, 2): 1, (2, 3): 3},
        )

    def test_round_trip_through_text(self):
        net = parse_topology(self.GOOD)
        assert networks_equal(parse_topology(topology_text(net)), net)

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

    def test_duplicate_switch_carries_the_second_line(self):
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 100\nswitch 2 100\nswitch 1 100\nlink 1 2 50")
        assert err.value.line == 3 and "duplicate switch 1" in str(err.value)
        # elements are checked in input order: the first declaration fails first
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 0\nswitch 1 100\nswitch 2 100\nlink 1 2 50")
        assert err.value.line == 1 and "capacity" in str(err.value)

    def test_nonpositive_unit_costs_carry_line_number(self):
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 100\nswitch 2 100 -1\nlink 1 2 50")
        assert err.value.line == 2 and "unit cost" in str(err.value)
        with pytest.raises(TopologyError) as err:
            parse_topology("switch 1 100\nswitch 2 100\nlink 1 2 50 0")
        assert err.value.line == 3 and "unit cost" in str(err.value)

    def test_link_to_unknown_switch(self):
        with pytest.raises(TopologyError, match="unknown switch") as err:
            parse_topology("switch 1 100\nswitch 2 100\nlink 1 9 50")
        assert err.value.line == 3

    def test_empty_input_rejected(self):
        with pytest.raises(TopologyError, match="no switches"):
            parse_topology("# nothing here\n")

    def test_lone_switch_rejected(self):
        # connected, but no virtual link could be routed and no link sampled
        with pytest.raises(TopologyError, match="topology has no links") as err:
            parse_topology("switch 1 100\n")
        assert err.value.line is None

    def test_load_topology_from_file(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text(self.GOOD, encoding="utf-8")
        assert networks_equal(load_topology(p), parse_topology(self.GOOD))
