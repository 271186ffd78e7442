"""Quantified randomized checks: ledger identities, embedding soundness,
cost invariances, and whole-run accounting, over seeded random instances."""

import random

from vnesim.config import RunConfig
from vnesim.embedder import embed, oracle_embed
from vnesim.metrics import summary, trace_hash
from vnesim.netmodel import (
    Mapping,
    SubstrateNetwork,
    SubstrateView,
    mapping_cost,
    norm_link,
    path_links,
    reserve,
    validate_mapping,
)
from vnesim.run import run_simulation
from vnesim.weights import link_weight
from vnesim.workload import GeneratorSpec, gen_virtual_request, random_substrate

SMALL = GeneratorSpec(vnodes_min=2, vnodes_max=4, node_demand_min=1, node_demand_max=30,
                      link_demand_min=1, link_demand_max=20, edge_prob=0.6)


def draw_instance(seed, n_switches=8, spec=SMALL):
    rng = random.Random(f"prop-{seed}")
    net = random_substrate(rng, n_switches, spec)
    return net, gen_virtual_request(rng, spec, seed, 1, 100)


def ledger_state(view):
    b = view.base
    return (dict(b.node_load), dict(b.rule_load), dict(b.link_load),
            set(b.committed), dict(view.t_node_load), dict(view.t_link_load),
            set(view.tentative))


class TestLedgerFuzz:
    def test_reserve_release_round_trip_is_identity(self):
        done = 0
        for seed in range(60):
            net, req = draw_instance(seed)
            view = SubstrateView(net)
            out = embed(view, req)
            if not out.accepted:
                continue
            for tentative in (True, False):
                before = ledger_state(view)
                reserve(view, req, out.mapping, tentative=tentative)
                assert ledger_state(view) != before
                assert view.release(req.request_id) is True
                assert ledger_state(view) == before
            done += 1
        assert done > 40

    def test_conservation_under_random_operation_sequences(self):
        for seed in range(15):
            rng = random.Random(f"ops-{seed}")
            net = random_substrate(random.Random(f"ops-net-{seed}"), 8, SMALL)
            view = SubstrateView(net)
            held = {}  # request id -> (request, mapping, committed?)
            next_rid = 0
            for _step in range(120):
                roll = rng.random()
                if roll < 0.55:
                    req = gen_virtual_request(rng, SMALL, next_rid, 1, 100)
                    next_rid += 1
                    out = embed(view, req)
                    if out.accepted:
                        reserve(view, req, out.mapping)
                        held[req.request_id] = [req, out.mapping, False]
                elif roll < 0.8 and any(not v[2] for v in held.values()):
                    rid = rng.choice([r for r, v in held.items() if not v[2]])
                    if view.commit(rid):
                        held[rid][2] = True
                    else:  # no rule headroom: cancelled, resources returned
                        view.release(rid)
                        del held[rid]
                elif held:
                    rid = rng.choice(sorted(held))
                    assert view.release(rid) is True
                    del held[rid]

                # recompute every element's books from the mappings we hold
                exp_node = {u: 0 for u in net.switches}
                exp_rule = {u: 0 for u in net.switches}
                exp_link = {lk: 0 for lk in net.links}
                for req, mapping, committed in held.values():
                    for vn, sw in mapping.node_map.items():
                        exp_node[sw] += req.node_demands[vn]
                    for vl, parts in mapping.link_paths.items():
                        (path, units), = parts
                        assert units == req.link_demands[vl]
                        for lk in path_links(path):
                            exp_link[lk] += units
                        if committed:  # flow rules exist only once committed
                            for sw in path:
                                exp_rule[sw] += 1
                for u in net.switches:
                    assert view.residual_capacity(u) == net.capacity[u] - exp_node[u] - exp_rule[u]
                    assert view.residual_capacity(u) >= 0
                for lk in net.links:
                    assert view.residual_bandwidth(lk) == net.bandwidth[lk] - exp_link[lk]
                    assert view.residual_bandwidth(lk) >= 0
                assert view.conservation_violations() == []

    def test_every_ledger_mutation_bumps_the_version(self, triangle):
        from vnesim.netmodel import VirtualNetworkRequest

        view = SubstrateView(triangle)
        req = VirtualNetworkRequest(1, {"a": 5, "b": 5}, {("a", "b"): 3})
        seen = {view.version}

        def bumped():
            assert view.version not in seen
            seen.add(view.version)

        reserve(view, req, Mapping({"a": 1, "b": 2}, {("a", "b"): (((1, 2), 3),)}))
        bumped()
        record = link_weight(view, req, ("a", "b"), (1, 2))
        assert record.ledger_version == view.version
        view.release_tentative_link(1, ("a", "b"))
        bumped()
        assert record.ledger_version != view.version  # record now stale
        view.reserve_tentative_link(1, ("a", "b"), (1, 3, 2), 3)
        bumped()
        assert view.commit(1)
        bumped()
        assert view.release(1) is True
        bumped()


class TestCostInvariance:
    def test_mapping_cost_survives_switch_relabeling(self):
        done = 0
        for seed in range(30):
            rng = random.Random(f"relabel-{seed}")
            n = rng.randrange(4, 9)
            plain = random_substrate(random.Random(f"relabel-net-{seed}"), n, SMALL)
            switch_cost = {u: rng.randrange(1, 6) for u in plain.switches}
            link_cost = {lk: rng.randrange(1, 6) for lk in plain.links}
            net = SubstrateNetwork(plain.switches, plain.links, dict(plain.capacity),
                                   switch_cost, dict(plain.bandwidth), link_cost)
            req = gen_virtual_request(rng, SMALL, seed, 1, 100)
            out = embed(SubstrateView(net), req)
            if not out.accepted:
                continue
            assert mapping_cost(net, req, out.mapping) == out.cost

            perm = dict(zip(net.switches, rng.sample(range(101, 101 + n), n)))
            relabeled = SubstrateNetwork(
                sorted(perm.values()),
                sorted(norm_link(perm[a], perm[b]) for a, b in net.links),
                {perm[u]: net.capacity[u] for u in net.switches},
                {perm[u]: switch_cost[u] for u in net.switches},
                {norm_link(perm[a], perm[b]): net.bandwidth[(a, b)] for a, b in net.links},
                {norm_link(perm[a], perm[b]): link_cost[(a, b)] for a, b in net.links},
            )
            moved = Mapping(
                {vn: perm[sw] for vn, sw in out.mapping.node_map.items()},
                {vl: tuple((tuple(perm[s] for s in path), units) for path, units in parts)
                 for vl, parts in out.mapping.link_paths.items()},
            )
            assert mapping_cost(relabeled, req, moved) == out.cost
            done += 1
        assert done > 20


class TestEmbeddingSoundness:
    def test_accepted_embeddings_validate_and_reserve_cleanly(self):
        accepted = 0
        for seed in range(150):
            net, req = draw_instance(seed, n_switches=5 + seed % 5)
            view = SubstrateView(net)
            out = embed(view, req)
            if not out.accepted:
                continue
            accepted += 1
            assert validate_mapping(view, req, out.mapping)
            before = ledger_state(view)
            reserve(view, req, out.mapping)
            assert view.conservation_violations() == []
            assert min(view.residual_capacity(u) for u in view.switches) >= 0
            assert min(view.residual_bandwidth(lk) for lk in view.links) >= 0
            view.release(req.request_id)
            assert ledger_state(view) == before
        assert accepted > 120

    def test_split_embeddings_conserve_each_link_demand_exactly(self):
        spec = GeneratorSpec(vnodes_min=2, vnodes_max=3, node_demand_min=1,
                             node_demand_max=30, link_demand_min=80,
                             link_demand_max=240, edge_prob=0.7)
        accepted = real_splits = 0
        for seed in range(120):
            rng = random.Random(f"split-{seed}")
            net = random_substrate(rng, 6, spec)
            req = gen_virtual_request(rng, spec, seed, 1, 100)
            view = SubstrateView(net)
            out = embed(view, req, 2)
            if not out.accepted:
                continue
            accepted += 1
            assert validate_mapping(view, req, out.mapping)
            for vl, allocs in out.mapping.link_paths.items():
                assert sum(units for _, units in allocs) == req.link_demands[vl]
                assert all(isinstance(units, int) and units >= 1 for _, units in allocs)
            if any(len(allocs) > 1 for allocs in out.mapping.link_paths.values()):
                real_splits += 1
            before = ledger_state(view)
            reserve(view, req, out.mapping)
            assert view.conservation_violations() == []
            view.release(req.request_id)
            assert ledger_state(view) == before
        assert accepted > 70
        assert real_splits > 25  # the quantifier really covers multi-path cases

    def test_oracle_feasibility_is_monotone_under_capacity_increase(self):
        spec = GeneratorSpec(vnodes_min=2, vnodes_max=3, node_demand_min=1,
                             node_demand_max=25, link_demand_min=1,
                             link_demand_max=15, edge_prob=0.7)
        checked = 0
        for seed in range(25):
            rng = random.Random(f"mono-{seed}")
            net = random_substrate(random.Random(f"mono-net-{seed}"), 5, spec)
            req = gen_virtual_request(rng, spec, seed, 1, 100)
            feasible, cost = oracle_embed(net, req)
            if not feasible:
                continue
            capacity, bandwidth = dict(net.capacity), dict(net.bandwidth)
            if rng.random() < 0.5:
                capacity[rng.choice(net.switches)] += rng.randrange(1, 60)
            else:
                bandwidth[rng.choice(net.links)] += rng.randrange(1, 60)
            boosted = SubstrateNetwork(net.switches, net.links, capacity,
                                       dict(net.switch_cost), bandwidth, dict(net.link_cost))
            still_feasible, new_cost = oracle_embed(boosted, req)
            assert still_feasible
            assert new_cost <= cost  # enlarged feasible set can only help
            checked += 1
        assert checked > 15

    def test_uniform_switch_capacity_raise_preserves_the_outcome(self):
        done = 0
        for seed in range(40):
            net, req = draw_instance(seed)
            out = embed(SubstrateView(net), req)
            if not out.accepted:
                continue
            delta = random.Random(f"delta-{seed}").randrange(1, 100)
            boosted = SubstrateNetwork(net.switches, net.links,
                                       {u: c + delta for u, c in net.capacity.items()},
                                       dict(net.switch_cost), dict(net.bandwidth),
                                       dict(net.link_cost))
            again = embed(SubstrateView(boosted), req)
            # same residual order and unchanged bandwidths: identical choices
            assert again.accepted
            assert again.mapping.node_map == out.mapping.node_map
            assert again.mapping.link_paths == out.mapping.link_paths
            assert again.cost == out.cost
            done += 1
        assert done > 25


class TestWholeRunAccounting:
    def test_accounting_identity_and_full_drain(self):
        for seed in range(3):
            arrival_rows = {}
            for strategy in ("batched", "per-request", "splitting"):
                engine, log = run_simulation(RunConfig(
                    strategy=strategy, requests=80, seed=seed, check_invariants=True))
                s = summary(log)
                assert s["accepted"] + s["rejected"] + s["rejected_at_commit"] == s["arrivals"] == 80
                times = [r.time for r in log.rows]
                assert times == sorted(times)  # the clock never runs backwards
                departures = [r for r in log.rows if r.event_kind == "departure"]
                assert len(departures) == log.committed  # everything drains
                base = engine.controller.view.base
                assert base.committed == {} and engine.controller.view.tentative == {}
                assert set(base.node_load.values()) == {0}
                assert set(base.rule_load.values()) == {0}
                assert set(base.link_load.values()) == {0}
                arrival_rows[strategy] = [
                    (r.time, r.request_id) for r in log.rows if r.event_kind == "arrival"
                ]
            # one workload realization shared by all three strategies
            assert arrival_rows["batched"] == arrival_rows["per-request"] == arrival_rows["splitting"]

    def test_batching_cuts_commit_events_on_seed_matched_workloads(self):
        for seed in range(4):
            counts = {}
            for strategy in ("batched", "per-request"):
                _, log = run_simulation(RunConfig(strategy=strategy, requests=100, seed=seed))
                counts[strategy] = summary(log)["commit_events"]
            assert counts["batched"] < counts["per-request"]

    def test_uncontended_batching_writes_the_same_rules_with_fewer_commits(self):
        # capacities far above any demand: both strategies commit the same
        # mappings, so the write counters agree and only commit events differ
        for seed in range(3):
            stats = {}
            for strategy in ("batched", "per-request"):
                _, log = run_simulation(RunConfig(
                    strategy=strategy, requests=80, seed=seed,
                    cap_min=10**6, cap_max=2 * 10**6, check_invariants=True))
                stats[strategy] = summary(log)
            batched, one_by_one = stats["batched"], stats["per-request"]
            assert batched["accepted"] == one_by_one["accepted"] == 80
            assert batched["rule_writes"] == one_by_one["rule_writes"]
            assert batched["commit_events"] < one_by_one["commit_events"]

    def test_identical_configs_reproduce_the_trace_hash(self):
        first = trace_hash(run_simulation(RunConfig(requests=60, seed=11))[1])
        second = trace_hash(run_simulation(RunConfig(requests=60, seed=11))[1])
        assert first == second
