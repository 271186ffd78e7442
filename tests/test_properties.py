"""Quantified randomized checks: ledger identities, embedding soundness,
cost invariances, and whole-run accounting, over seeded random instances."""

import io
import math
import random
from dataclasses import replace

import pytest

from vnesim.config import RunConfig
from vnesim.embedder import embed
from vnesim.metrics import summary, trace_hash
from vnesim.netmodel import (
    ReservationError,
    SubstrateNetwork,
    SubstrateView,
    reserve,
)
from vnesim.run import run_simulation
from vnesim.simulator import Engine
from vnesim.workload import GeneratorSpec, gen_virtual_request, random_substrate

from reference import (
    _simple_paths,
    adj,
    committed_left,
    element_rows,
    full_audit,
    indexed,
    link_ids_along,
    link_units_of,
    mapping_cost,
    move_tentative,
    named,
    named_path,
    named_totals,
    node_units_of,
    oracle_embed,
    path_links,
    residual_bandwidth,
    residual_capacity,
    rule_units_of,
    t_link_load,
    t_switch_load,
    trace_rows,
    validate_mapping,
)
from test_golden import HEAVY, RANDOM100

SMALL = GeneratorSpec(vnodes_min=2, vnodes_max=4, node_demand_min=1, node_demand_max=30,
                      link_demand_min=1, link_demand_max=20, edge_prob=0.6)


def draw_instance(seed, n_switches=8, spec=SMALL):
    rng = random.Random(f"prop-{seed}")
    net = random_substrate(rng, n_switches, spec)
    return net, gen_virtual_request(rng, spec, seed, 1, 100)


def ledger_state(view):
    b = view.base
    return (committed_left(b), dict(b.rule_load), dict(b.link_load),
            set(b.committed), t_switch_load(view), t_link_load(view),
            view.switch_used, view.link_used, set(view.tentative))


class TestLedgerFuzz:
    def test_reserve_release_round_trip_is_identity(self):
        done = 0
        for seed in range(60):
            net, req = draw_instance(seed)
            view = SubstrateView(net)
            out = embed(view, req)
            if not out.accepted:
                continue
            for commit in (False, True):
                before = ledger_state(view)
                reserve(view, out.reservation)
                if commit:
                    assert view.commit(req.request_id) is True
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
                        reserve(view, out.reservation)
                        held[req.request_id] = [req, out.reservation, False]
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
                    mapping = named(net, mapping)
                    for vn, sw in mapping.node_map.items():
                        exp_node[sw] += req.node_demands[vn]
                    for vl, parts in mapping.link_paths.items():
                        (path, units, _ids), = parts
                        assert units == req.link_demands[vl]
                        for lk in path_links(path):
                            exp_link[lk] += units
                        if committed:  # flow rules exist only once committed
                            for sw in path:
                                exp_rule[sw] += 1
                capacity, _switch_cost, bandwidth, _link_cost = named_totals(net)
                for u in net.switches:
                    assert residual_capacity(view, u) == capacity[u] - exp_node[u] - exp_rule[u]
                    assert residual_capacity(view, u) >= 0
                for lk in net.links:
                    assert residual_bandwidth(view, lk) == bandwidth[lk] - exp_link[lk]
                    assert residual_bandwidth(view, lk) >= 0
                # the flat lists the view keeps, entry by entry
                caps = [capacity[u] - exp_node[u] - exp_rule[u] for u in net.switches]
                bws = [bandwidth[lk] - exp_link[lk] for lk in net.links]
                assert view.capacity_left == caps
                assert view.bandwidth_left == bws
                # each numerator: every element's used units times L / total, L the lcm
                for used, totals, names, left in ((view.switch_used, capacity, net.switches, caps),
                                                  (view.link_used, bandwidth, net.links, bws)):
                    whole = math.lcm(*totals.values())
                    assert used == sum((totals[e] - r) * (whole // totals[e]) for e, r in zip(names, left))
                assert view.conservation_violations() == []


    def test_carried_link_ids_and_cost_follow_every_step(self):
        # embed builds the reservation with its node units by switch index,
        # its link units by link id and its cost, and reserve stages that
        # record; after every embed, reserve, move, commit and release, each
        # term must equal what its node map and paths give, the rule units
        # by switch index too (rules only once committed), and each part's
        # link ids those along its path
        moved = 0
        for seed in range(15):
            rng = random.Random(f"carried-{seed}")
            plain = random_substrate(random.Random(f"carried-net-{seed}"), 8, SMALL)
            switches, links = element_rows(plain)
            net = SubstrateNetwork([(u, cap, rng.randrange(1, 6)) for u, cap, _cost in switches],
                                   [(a, b, bw, rng.randrange(1, 6)) for a, b, bw, _cost in links])
            view = SubstrateView(net)
            neighbours = adj(net)
            for rid in range(120):
                roll = rng.random()
                if roll < 0.4:
                    req = gen_virtual_request(rng, SMALL, rid, 1, 100)
                    out = embed(view, req, rng.choice((1, 2)))
                    if out.accepted:
                        res = out.reservation
                        assert res.node_units == node_units_of(net, req, res)
                        assert res.link_units == link_units_of(net, res)
                        assert res.cost == mapping_cost(net, req, res)
                        assert reserve(view, res) is res
                elif roll < 0.75:
                    movable = [(res, vl) for res in view.tentative.values()
                               for vl, parts in sorted(res.link_paths.items()) if len(parts) == 1]
                    if movable:
                        res, (a, b) = rng.choice(movable)
                        hosts = named(net, res).node_map
                        paths = _simple_paths(neighbours, hosts[a], hosts[b])
                        try:
                            move_tentative(view, res.request_id, (a, b), rng.choice(paths))
                            moved += 1
                        except ReservationError:
                            pass
                elif roll < 0.9 and view.tentative:
                    rid = rng.choice(sorted(view.tentative))
                    if not view.commit(rid):
                        view.release(rid)
                elif net.committed:
                    view.release(rng.choice(sorted(net.committed)))
                for res in [*view.tentative.values(), *net.committed.values()]:
                    assert res.link_units == link_units_of(net, res)
                    assert res.cost == mapping_cost(net, res.request, res)
                    assert res.node_units == node_units_of(net, res.request, res)
                    committed = res.request_id in net.committed
                    assert res.rule_units == (rule_units_of(net, res) if committed else {})
                    for parts in res.link_paths.values():
                        for path, _units, ids in parts:
                            assert ids == link_ids_along(net, named_path(net, path))
            assert view.conservation_violations() == []
        assert moved > 200


def audits_agree(view):
    """The view's audit, asserted equal to the one that sums afresh."""
    found = view.conservation_violations()
    assert found == full_audit(view)
    return found


def corrupt_and_undo(rng, view):
    """Break a clean ledger in one of the ways the audit must see, behind
    the view's back, check both audits agree, undo it and check again:
    a committed load, a flat residual, a numerator or a total; a committed
    or a tentative record swapped for another or popped; a committed
    record's unit map reassigned, or one with an index past the end, on
    which both audits raise; a tentative record's own map edited in place."""
    base = view.base
    committed, tentative = base.committed, view.tentative
    kinds = ["load", "residual", "numerator", "total"]
    if committed:
        kinds += ["swap", "reassign", "pop", "out of range"]
    if tentative:
        kinds += ["swap pending", "pop pending", "edit pending"]
    kind = rng.choice(kinds)
    if kind in ("load", "residual", "total"):
        table = rng.choice({"load": (base.rule_load, base.link_load),
                            "residual": (view.capacity_left, view.bandwidth_left),
                            "total": (base.capacities, base.bandwidths)}[kind])
        key = rng.choice(list(table) if type(table) is dict else range(len(table)))
        # a total may drop to 1, below what its element holds
        step = rng.choice((1, 1 - table[key])) if kind == "total" else 1
        table[key] += step
        assert audits_agree(view)
        table[key] -= step
    elif kind == "numerator":
        name = rng.choice(("switch_used", "link_used"))
        setattr(view, name, getattr(view, name) + 1)
        assert audits_agree(view)
        setattr(view, name, getattr(view, name) - 1)
    elif kind == "out of range":
        # the audit raises partway through its update; once the record is
        # mended, the next audit must not build on what that one left
        rid = rng.choice(sorted(committed))
        res = committed[rid]
        field = rng.choice(("node_units", "rule_units", "link_units"))
        past = len(base.links if field == "link_units" else base.switches)
        committed[rid] = replace(res, **{field: {past: 1, **getattr(res, field)}})
        for audit in (view.conservation_violations, lambda: full_audit(view)):
            with pytest.raises(IndexError):
                audit()
        committed[rid] = res
    else:
        ledger = tentative if kind.endswith("pending") else committed
        rid = rng.choice(sorted(ledger))
        res = ledger[rid]
        if kind.startswith("pop"):  # a release on the base or overlay alone
            records = list(ledger.items())
            del ledger[rid]
            assert audits_agree(view)
            ledger.clear()
            ledger.update(records)  # in the order they had
        else:
            field = rng.choice([f for f in ("node_units", "rule_units", "link_units")
                                if getattr(res, f)])
            units = getattr(res, field)
            i = rng.choice(sorted(units))
            step = rng.choice((-1, 1))
            other = {**units, i: units[i] + step}
            if kind.startswith("swap"):  # the same id, another record object
                ledger[rid] = replace(res, **{field: other})
                assert audits_agree(view)
                ledger[rid] = res
            elif kind == "reassign":  # the same record, one unit map reassigned
                setattr(res, field, other)
                assert audits_agree(view)
                other[i] += 2  # a plain map can still change in place
                assert audits_agree(view)
                setattr(res, field, units)
            else:  # the tentative record's own map, as a remap move edits it
                units[i] += step
                assert audits_agree(view)
                units[i] -= step
    assert audits_agree(view) == []


def audited_ledger_steps(rng, net, count, steps, path_between):
    """``count`` random steps on a view of ``net``: embed and reserve, a
    remap move onto ``path_between(neighbours, a, b)``, commit, release, a
    release and recommit of one id, a second view over the base, or a
    corruption undone. After each, the view's audit must say exactly what
    the audit that sums afresh says, and find nothing; ``steps`` counts
    the moves, recommits, new views and corruptions."""
    neighbours = adj(net)
    view = SubstrateView(net)
    for step in range(count):
        roll = rng.random()
        if roll < 0.35:
            out = embed(view, gen_virtual_request(rng, SMALL, step, 1, 100), rng.choice((1, 2)))
            if out.accepted:
                reserve(view, out.reservation)
        elif roll < 0.5:
            movable = [(res, vl) for res in view.tentative.values()
                       for vl, parts in sorted(res.link_paths.items()) if len(parts) == 1]
            if movable:
                res, (a, b) = rng.choice(movable)
                hosts = named(net, res).node_map
                try:
                    move_tentative(view, res.request_id, (a, b),
                                   path_between(neighbours, hosts[a], hosts[b]))
                    steps["move"] += 1
                except ReservationError:
                    pass
        elif roll < 0.7 and view.tentative:
            rid = rng.choice(sorted(view.tentative))
            if not view.commit(rid):
                view.release(rid)
        elif roll < 0.8 and net.committed:
            view.release(rng.choice(sorted(net.committed)))
        elif roll < 0.87 and net.committed:
            # release and commit one id again between two audits,
            # the same record or one with other paths
            rid = rng.choice(sorted(net.committed))
            res = net.committed[rid]
            view.release(rid)
            if rng.random() < 0.5:
                res = embed(view, res.request).reservation
            if res is not None:
                reserve(view, res)
                if not view.commit(rid):
                    view.release(rid)
            steps["recommit"] += 1
        elif roll < 0.9:
            # a second view over the base starts from the totals: both
            # audits report every committed record it did not see; the
            # walk goes on with the first view
            assert (audits_agree(SubstrateView(net)) != []) == bool(net.committed)
            steps["new view"] += 1
        else:
            corrupt_and_undo(rng, view)
            steps["corrupt"] += 1
        assert audits_agree(view) == []


def primes_from(start, count) -> list:
    """The first ``count`` primes >= ``start``, by trial division."""
    out = []
    n = start
    while len(out) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


def random_path(rng, neighbours, src, dst) -> tuple:
    """One simple path src->dst, by a depth-first search that tries each
    switch's neighbours in random order."""
    seen = set()
    stack = [(src, (src,))]
    while stack:
        node, path = stack.pop()
        if node == dst:
            return path
        if node not in seen:
            seen.add(node)
            around = sorted(neighbours[node])
            rng.shuffle(around)
            stack.extend((nb, path + (nb,)) for nb in around if nb not in seen)
    raise ValueError(f"no path from {src} to {dst}")


class TestIncrementalAudit:
    """The audit keeps what it expects of the ledger from one call to the
    next; after every step it must say exactly what the audit that sums
    afresh says."""

    def test_random_ledger_steps_and_corruptions(self):
        steps = {"recommit": 0, "new view": 0, "corrupt": 0, "move": 0}
        for seed in range(12):
            rng = random.Random(f"audit-{seed}")
            net = random_substrate(random.Random(f"audit-net-{seed}"), 8, SMALL)
            audited_ledger_steps(rng, net, 150, steps,
                                 lambda around, a, b: rng.choice(_simple_paths(around, a, b)))
        assert min(steps.values()) > 40, steps

    def test_ledger_steps_on_pairwise_coprime_totals(self):
        # every total a distinct prime from 101 up, on random:300: each
        # kind's lcm L, and so its scales and numerators, runs to thousands
        # of bits, where a kept numerator is largest
        rng = random.Random("audit-coprime")
        drawn = random_substrate(random.Random("audit-coprime-net"), 300, SMALL)
        switches, links = element_rows(drawn)
        primes = primes_from(101, len(switches) + len(links))
        net = SubstrateNetwork(
            [(u, p, cost) for (u, _cap, cost), p in zip(switches, primes)],
            [(a, b, p, cost) for (a, b, _bw, cost), p in zip(links, primes[len(switches):])])
        view = SubstrateView(net)
        assert min(view.switch_scale[0].bit_length(), view.link_scale[0].bit_length()) > 2000
        steps = {"recommit": 0, "new view": 0, "corrupt": 0, "move": 0}
        audited_ledger_steps(rng, net, 400, steps,
                             lambda neighbours, a, b: random_path(rng, neighbours, a, b))
        assert min(steps.values()) > 5, steps

    @pytest.mark.parametrize("strategy", ["batched", "per-request", "splitting"])
    def test_after_every_event_of_audited_runs(self, monkeypatch, strategy):
        configs = [dict(seed=seed, requests=300) for seed in range(4)]
        audits, corrupted = audit_every_event(monkeypatch, strategy, configs)
        assert audits > 1500 and corrupted > 100, (audits, corrupted)

    @pytest.mark.parametrize("config", ["random100", "heavy"])
    @pytest.mark.parametrize("strategy", ["batched", "per-request", "splitting"])
    def test_after_every_event_of_golden_runs(self, monkeypatch, strategy, config):
        # a substrate of 100 switches, and links that split and remaps adopt
        configs = [{"random100": RANDOM100, "heavy": HEAVY}[config]]
        audits, corrupted = audit_every_event(monkeypatch, strategy, configs)
        assert audits > 300 and corrupted > 20, (audits, corrupted)


def audit_every_event(monkeypatch, strategy, configs):
    """Run ``strategy`` on each config with the invariant check on; at each
    event, before the package's own audit, require both audits to agree
    and find nothing, and on one event in ten corrupt the ledger and undo
    it. Returns how many events were audited and how many corrupted."""
    rng = random.Random(f"audited-{strategy}")
    real = Engine._audit
    audits = corrupted = 0

    def audit(engine):
        nonlocal audits, corrupted
        view = engine.controller.view
        audits += 1
        assert audits_agree(view) == []
        if rng.random() < 0.1:
            corrupt_and_undo(rng, view)
            corrupted += 1
        real(engine)  # the package's own audit, which must find nothing

    monkeypatch.setattr(Engine, "_audit", audit)
    for config in configs:
        run_simulation(RunConfig(strategy=strategy, check_invariants=True, **config))
    return audits, corrupted


class TestCostInvariance:
    def test_mapping_cost_survives_switch_relabeling(self):
        done = 0
        for seed in range(30):
            rng = random.Random(f"relabel-{seed}")
            n = rng.randrange(4, 9)
            plain = random_substrate(random.Random(f"relabel-net-{seed}"), n, SMALL)
            switches, links = element_rows(plain)
            switches = [(u, cap, rng.randrange(1, 6)) for u, cap, _cost in switches]
            links = [(a, b, bw, rng.randrange(1, 6)) for a, b, bw, _cost in links]
            net = SubstrateNetwork(switches, links)
            req = gen_virtual_request(rng, SMALL, seed, 1, 100)
            out = embed(SubstrateView(net), req)
            if not out.accepted:
                continue
            assert mapping_cost(net, req, out.reservation) == out.reservation.cost

            perm = dict(zip(net.switches, rng.sample(range(101, 101 + n), n)))
            relabeled = SubstrateNetwork(
                [(perm[u], cap, cost) for u, cap, cost in switches],
                [(perm[a], perm[b], bw, cost) for a, b, bw, cost in links],
            )
            by_id = named(net, out.reservation)
            moved = indexed(
                relabeled, req,
                {vn: perm[sw] for vn, sw in by_id.node_map.items()},
                {vl: tuple((tuple(perm[s] for s in path), units) for path, units, _ids in parts)
                 for vl, parts in by_id.link_paths.items()},
            )
            assert mapping_cost(relabeled, req, moved) == out.reservation.cost
            done += 1
        assert done > 20

    def test_order_preserving_relabel_returns_the_same_index_form_record(self):
        # the switch list is sorted, so ids relabelled in their own order keep
        # every switch's index; embed's tie-breaks (the lowest switch for a
        # node, the lexicographic path for a link) read indices, so on both
        # networks it must return the identical record: node map, parts,
        # units, cost and blocked links. Equal capacities on half the
        # instances make placement ties common; unit link costs make routing
        # ties common throughout.
        done = 0
        for seed in range(30):
            rng = random.Random(f"keep-order-{seed}")
            n = rng.randrange(4, 10)
            spec = SMALL if seed % 2 else GeneratorSpec(
                vnodes_min=2, vnodes_max=4, cap_min=100, cap_max=100, edge_prob=0.6)
            plain = random_substrate(random.Random(f"keep-order-net-{seed}"), n, spec)
            new = dict(zip(plain.switches, sorted(rng.sample(range(101, 101 + 5 * n), n))))
            switches, links = element_rows(plain)
            relabeled = SubstrateNetwork([(new[u], cap, cost) for u, cap, cost in switches],
                                         [(new[a], new[b], bw, cost) for a, b, bw, cost in links])
            assert [new[u] for u in plain.switches] == relabeled.switches
            views = SubstrateView(plain), SubstrateView(relabeled)
            for rid in range(8):
                req = gen_virtual_request(rng, spec, rid, 1, 100)
                k = rng.choice((1, 2))
                blocked = ({}, {}) if k == 1 else (None, None)
                out, again = (embed(view, req, k, b) for view, b in zip(views, blocked))
                assert again == out
                if out.accepted:
                    reserve(views[0], out.reservation)
                    reserve(views[1], again.reservation)
                    done += 1
        assert done > 100


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
            assert validate_mapping(view, req, out.reservation)
            before = ledger_state(view)
            reserve(view, out.reservation)
            assert view.conservation_violations() == []
            assert min(residual_capacity(view, u) for u in view.base.switches) >= 0
            assert min(residual_bandwidth(view, lk) for lk in view.base.links) >= 0
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
            assert validate_mapping(view, req, out.reservation)
            for vl, allocs in out.reservation.link_paths.items():
                assert sum(units for _, units, _ids in allocs) == req.link_demands[vl]
                assert all(isinstance(units, int) and units >= 1 for _, units, _ids in allocs)
            if any(len(allocs) > 1 for allocs in out.reservation.link_paths.values()):
                real_splits += 1
            before = ledger_state(view)
            reserve(view, out.reservation)
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
            capacity, switch_cost, bandwidth, link_cost = named_totals(net)
            if rng.random() < 0.5:
                capacity[rng.choice(net.switches)] += rng.randrange(1, 60)
            else:
                bandwidth[rng.choice(net.links)] += rng.randrange(1, 60)
            boosted = SubstrateNetwork([(u, capacity[u], switch_cost[u]) for u in net.switches],
                                       [(*lk, bandwidth[lk], link_cost[lk]) for lk in net.links])
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
            switches, links = element_rows(net)
            boosted = SubstrateNetwork([(u, cap + delta, cost) for u, cap, cost in switches], links)
            again = embed(SubstrateView(boosted), req)
            # same residual order and unchanged bandwidths: identical choices
            assert again.accepted
            assert again.reservation.node_map == out.reservation.node_map
            assert again.reservation.link_paths == out.reservation.link_paths
            assert again.reservation.cost == out.reservation.cost
            done += 1
        assert done > 25


class TestWholeRunAccounting:
    def test_accounting_identity_and_full_drain(self):
        for seed in range(3):
            arrival_rows = {}
            for strategy in ("batched", "per-request", "splitting"):
                engine, log = run_simulation(RunConfig(
                    strategy=strategy, requests=80, seed=seed, check_invariants=True),
                    trace=io.StringIO())
                s = summary(log)
                assert s["accepted"] + s["rejected"] + s["rejected_at_commit"] == s["arrivals"] == 80
                rows = trace_rows(log)
                times = [r.time for r in rows]
                assert times == sorted(times)  # the clock never runs backwards
                departures = [r for r in rows if r.event_kind == "departure"]
                assert len(departures) == log.committed  # everything drains
                view = engine.controller.view
                base = view.base
                assert base.committed == {} and view.tentative == {}
                # the audited run drained the view back to where it started
                assert view.capacity_left == base.capacities
                assert view.bandwidth_left == base.bandwidths
                assert view.switch_used == view.link_used == 0
                assert set(base.rule_load.values()) == {0} == set(base.link_load.values())
                arrival_rows[strategy] = [
                    (r.time, r.request_id) for r in rows if r.event_kind == "arrival"
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
