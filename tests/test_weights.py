"""Link weight records and the weight-ordered remap pass."""

import pytest

from vnesim.embedder import embed
from vnesim.netmodel import (
    SubstrateView,
    UnknownRequestError,
    VirtualNetworkRequest,
    reserve,
)
from vnesim.simulator import RandomStreams
from vnesim.weights import LinkWeightRecord, _priority, link_weight, remap_pass
from vnesim.workload import GeneratorSpec, gen_virtual_request, random_substrate

from conftest import make_net
from reference import (
    build_reservation,
    check_request,
    indexed_parts,
    named,
    named_totals,
    path_links,
    residual_bandwidth,
    route,
    t_link_load,
)


def tentative(view, rid, node_map, paths, nodes, links):
    """Reserve a hand-picked single-path mapping tentatively; returns the request."""
    r = check_request(VirtualNetworkRequest(rid, nodes, links, 0, 10))
    link_paths = {vl: ((path, links[vl]),) for vl, path in paths.items()}
    reserve(view, build_reservation(view, r, node_map, link_paths))
    return r


class TestUsedAndFree:
    def test_used_counts_bandwidth_plus_one_rule_per_switch(self, line3):
        view = SubstrateView(line3)
        r = tentative(
            view, 1, {"a": 1, "b": 3}, {("a", "b"): (1, 2, 3)},
            nodes={"a": 5, "b": 7}, links={("a", "b"): 10},
        )
        # 10 units on each of 2 hops, plus a rule on each of 3 switches
        assert link_weight(view, r, ("a", "b")).used == 23

    def test_free_sums_residuals_along_the_path(self, line3):
        view = SubstrateView(line3)
        r = tentative(
            view, 1, {"a": 1, "b": 3}, {("a", "b"): (1, 2, 3)},
            nodes={"a": 5, "b": 7}, links={("a", "b"): 10},
        )
        # links: (100-10) + (100-10); switches less one rule unit each:
        # (100-5-1) + (100-1) + (100-7-1)
        assert link_weight(view, r, ("a", "b")).free == 180 + 94 + 99 + 92

    def test_weight_is_used_minus_free(self, line3):
        view = SubstrateView(line3)
        r = tentative(
            view, 1, {"a": 1, "b": 3}, {("a", "b"): (1, 2, 3)},
            nodes={"a": 5, "b": 7}, links={("a", "b"): 10},
        )
        rec = link_weight(view, r, ("a", "b"))
        path, ids = route(line3, (1, 2, 3))
        assert ids == [line3.links.index((1, 2)), line3.links.index((2, 3))]
        assert rec == LinkWeightRecord(
            request_id=1,
            vlink=("a", "b"),
            path=path,
            ids=ids,
            demand=10,
            used=23,
            free=465,
            weight=23 - 465,
        )
        # the record keeps the part's own list of link ids
        assert rec.ids is view.tentative[1].link_paths[("a", "b")][0][2]

    def test_free_memory_term_clamps_at_zero(self):
        # switch 2 has one unit left; after the rule attribution it shows 0,
        # not -... anything
        net = make_net([1, 2, 3], [(1, 2), (2, 3)], caps={2: 100})
        view = SubstrateView(net)
        squat = VirtualNetworkRequest(7, {"x": 99}, {}, 0, 5)
        reserve(view, build_reservation(view, squat, {"x": 2}, {}))
        r = tentative(
            view, 1, {"a": 1, "b": 3}, {("a", "b"): (1, 2, 3)},
            nodes={"a": 5, "b": 7}, links={("a", "b"): 10},
        )
        free = link_weight(view, r, ("a", "b")).free
        assert free == 180 + 94 + 0 + 92

    def test_unreserved_vlink_is_rejected(self, line3):
        view = SubstrateView(line3)
        r = tentative(
            view, 1, {"a": 1, "b": 3}, {("a", "b"): (1, 2, 3)},
            nodes={"a": 5, "b": 7}, links={("a", "b"): 10},
        )
        with pytest.raises(ValueError, match="no tentative reservation"):
            link_weight(view, r, ("a", "z"))

    def test_unknown_request_is_rejected(self, line3):
        view = SubstrateView(line3)
        r = VirtualNetworkRequest(5, {"a": 1}, {}, 0, 10)
        with pytest.raises(UnknownRequestError):
            link_weight(view, r, ("a", "b"))


class TestPrioritize:
    @staticmethod
    def rec(rid, vlink, weight, used):
        return LinkWeightRecord(rid, vlink, (1, 2), [0], 1, used, used - weight, weight)

    def test_orders_by_weight_then_used_then_ids(self):
        r1 = self.rec(1, (0, 1), weight=5, used=10)
        r2 = self.rec(2, (0, 1), weight=-2, used=1)
        r3 = self.rec(3, (0, 1), weight=5, used=12)
        r4 = self.rec(0, (0, 1), weight=7, used=3)
        assert sorted([r1, r2, r3, r4], key=_priority) == [r4, r3, r1, r2]

    def test_full_tie_falls_back_to_request_then_vlink(self):
        a = self.rec(2, (0, 1), weight=4, used=9)
        b = self.rec(1, (0, 2), weight=4, used=9)
        c = self.rec(1, (0, 1), weight=4, used=9)
        assert sorted([a, b, c], key=_priority) == [c, b, a]

    def test_input_order_is_irrelevant(self):
        recs = [self.rec(i, (0, 1), weight=i % 3, used=i) for i in range(6)]
        import itertools

        want = sorted(recs, key=_priority)
        for perm in itertools.permutations(recs):
            assert sorted(perm, key=_priority) == want


class TestRemapPass:
    def test_adopts_a_strictly_cheaper_path(self, triangle):
        view = SubstrateView(triangle)
        # tentative on the detour while the direct link sits free
        tentative(
            view, 1, {"a": 1, "b": 2}, {("a", "b"): (1, 3, 2)},
            nodes={"a": 1, "b": 1}, links={("a", "b"): 10},
        )
        assert remap_pass(view) == 1
        res = view.tentative[1]
        assert res.link_paths == indexed_parts(view, {("a", "b"): (((1, 2), 10),)})
        assert residual_bandwidth(view, (1, 3)) == 100
        assert residual_bandwidth(view, (2, 3)) == 100
        assert residual_bandwidth(view, (1, 2)) == 90
        assert view.conservation_violations() == []

    def diamond(self, thin_bw=10):
        return make_net(
            [1, 2, 3, 4],
            [(1, 2), (2, 4), (1, 3), (3, 4)],
            bws={(1, 3): thin_bw, (3, 4): thin_bw},
        )

    def test_equal_cost_adopts_only_lower_peak_utilization(self):
        view = SubstrateView(self.diamond(thin_bw=10))
        tentative(
            view, 1, {"a": 1, "b": 4}, {("a", "b"): (1, 3, 4)},
            nodes={"a": 1, "b": 1}, links={("a", "b"): 5},
        )
        # both 2-hop paths cost 10; peak utilization 5/10 vs 5/100
        assert remap_pass(view) == 1
        assert view.tentative[1].link_paths == indexed_parts(view, {("a", "b"): (((1, 2, 4), 5),)})

    def test_equal_cost_equal_utilization_keeps_the_incumbent(self):
        view = SubstrateView(self.diamond(thin_bw=100))
        tentative(
            view, 1, {"a": 1, "b": 4}, {("a", "b"): (1, 3, 4)},
            nodes={"a": 1, "b": 1}, links={("a", "b"): 5},
        )
        assert remap_pass(view) == 0
        assert view.tentative[1].link_paths == indexed_parts(view, {("a", "b"): (((1, 3, 4), 5),)})

    def test_already_optimal_path_stays(self, triangle):
        view = SubstrateView(triangle)
        tentative(
            view, 1, {"a": 1, "b": 2}, {("a", "b"): (1, 2)},
            nodes={"a": 1, "b": 1}, links={("a", "b"): 10},
        )
        assert remap_pass(view) == 0
        assert view.tentative[1].link_paths == indexed_parts(view, {("a", "b"): (((1, 2), 10),)})

    def test_heavier_link_claims_the_scarce_path_first(self):
        net = make_net(
            [1, 2, 3],
            [(1, 2), (1, 3), (2, 3)],
            bws={(1, 2): 10, (1, 3): 100, (2, 3): 100},
        )
        view = SubstrateView(net)
        tentative(
            view, 1, {"a": 1, "b": 2}, {("a", "b"): (1, 3, 2)},
            nodes={"a": 1, "b": 1}, links={("a", "b"): 10},
        )
        tentative(
            view, 2, {"a": 1, "b": 2}, {("a", "b"): (1, 3, 2)},
            nodes={"a": 1, "b": 1}, links={("a", "b"): 6},
        )
        # the 10-unit link outweighs the 6-unit one, remaps first, and takes
        # the whole direct link; the lighter one then has nowhere better
        assert remap_pass(view) == 1
        assert view.tentative[1].link_paths == indexed_parts(view, {("a", "b"): (((1, 2), 10),)})
        assert view.tentative[2].link_paths == indexed_parts(view, {("a", "b"): (((1, 3, 2), 6),)})
        assert residual_bandwidth(view, (1, 2)) == 0

    def test_split_reservations_are_refused(self, triangle):
        view = SubstrateView(triangle)
        r = VirtualNetworkRequest(1, {"a": 1, "b": 1}, {("a", "b"): 120}, 0, 10)
        split = build_reservation(
            view, r, {"a": 1, "b": 2}, {("a", "b"): (((1, 2), 100), ((1, 3, 2), 20))}
        )
        reserve(view, split)
        with pytest.raises(ValueError, match="single-path"):
            remap_pass(view)

    def test_batch_link_cost_never_increases(self):
        # embed a batch while blocker requests clog most of a few links,
        # then release the blockers (departures) and remap: freed capacity
        # lets tentative links move, and the batch cost must only drop
        import random

        spec = GeneratorSpec(link_demand_min=10, link_demand_max=60)

        def batch_link_cost(view):
            link_cost = named_totals(view.base)[3]
            total = 0
            for res in view.tentative.values():
                for allocs in named(view, res).link_paths.values():
                    for path, units, _ids in allocs:
                        total += units * sum(link_cost[lk] for lk in path_links(path))
            return total

        remaps = 0
        for seed in range(25):
            streams = RandomStreams(f"remap-{seed}")
            net = random_substrate(streams.topology, 8, spec)
            view = SubstrateView(net)
            rng = random.Random(f"blockers-{seed}")
            blockers = []
            for j, lk in enumerate(rng.sample(net.links, 4)):
                hold = residual_bandwidth(net, lk) - rng.randint(1, 8)
                rid = 1000 + j
                blocker = VirtualNetworkRequest(rid, {0: 1, 1: 1}, {(0, 1): hold}, 0, 10)
                reserve(view, build_reservation(view, blocker, {0: lk[0], 1: lk[1]},
                                                {(0, 1): ((lk, hold),)}))
                assert view.commit(rid)
                blockers.append(rid)
            for i in range(8):
                outcome = embed(view, gen_virtual_request(streams.request(i), spec, i, 0, 10))
                if outcome.accepted:
                    reserve(view, outcome.reservation)
            for rid in blockers:
                view.release(rid)  # through the view, whose residuals follow
            before = batch_link_cost(view)
            changed = remap_pass(view)
            after = batch_link_cost(view)
            assert after <= before
            assert view.conservation_violations() == []
            remaps += changed
        assert remaps > 20  # the fuzz actually exercised adoptions

    def test_a_pass_that_adopts_nothing_leaves_the_overlay_untouched(self, monkeypatch):
        # a freshly embedded batch with nothing released since: every
        # incumbent is still its link's cheapest feasible path
        moves = []
        original = SubstrateView.move_tentative_link

        def spy(view, *args):
            moves.append(args)
            return original(view, *args)

        monkeypatch.setattr(SubstrateView, "move_tentative_link", spy)
        spec = GeneratorSpec(link_demand_min=10, link_demand_max=60)
        scored = 0
        for seed in range(10):
            streams = RandomStreams(f"still-{seed}")
            view = SubstrateView(random_substrate(streams.topology, 8, spec))
            for i in range(8):
                outcome = embed(view, gen_virtual_request(streams.request(i), spec, i, 0, 10))
                if outcome.accepted:
                    reserve(view, outcome.reservation)
            before = (
                {rid: (dict(res.link_paths), dict(res.link_units))
                 for rid, res in view.tentative.items()},
                t_link_load(view),
            )
            assert remap_pass(view) == 0
            after = (
                {rid: (dict(res.link_paths), dict(res.link_units))
                 for rid, res in view.tentative.items()},
                t_link_load(view),
            )
            assert after == before
            scored += sum(len(res.link_paths) for res in view.tentative.values())
        assert moves == []
        assert scored > 50  # the passes really scored links
