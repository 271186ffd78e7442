"""The remap pass that skips links which cannot move, against the pass that
scores and routes every link: on every instance both adopt the same paths.

The oracle below is a copy of the earlier ``remap_pass`` and ``_score``,
which compute a record for every tentatively mapped virtual link and search
each one again; it also checks every link id the ledger carries or routing
returns against the ids taken from the path. The instances are
bandwidth-bound batches embedded with ``blocked``, after which committed
requests depart and tentative ones are cancelled, so links that blocked a
route at embed time gain units. A second family embeds a batch back to back
and cancels part of it, so many such links are still blocked at pass start
and a move of the pass may open one. One more test requires
the pass not to depend on the order of a reservation's links. Two check the
blocking links each of embed's searches reports: they are too thin at that
call, all of them where the A* decided, and while they stay too thin the
search returns the route embed took.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import vnesim.controller
from vnesim import embedder, weights
from vnesim.config import RunConfig
from vnesim.embedder import embed
from vnesim.netmodel import (
    SubstrateNetwork,
    SubstrateView,
    VirtualNetworkRequest,
    norm_link,
    reserve,
)
from vnesim.run import run_simulation
from vnesim.weights import _priority, link_weight, remap_pass

from conftest import make_net
from test_golden import HEAVY
from test_routing_kernel import CountingHeapq
from reference import (
    build_reservation,
    check_request,
    indexed_map,
    indexed_parts,
    link_ids_along,
    named_path,
    named_totals,
    t_link_load,
)


def _score(base, residual, ids, units):
    """(link cost of units on the links ``ids``, peak link utilization once
    they are placed there); a lower tuple is a better path."""
    links, (_capacity, _switch_cost, bandwidth, link_cost) = base.links, named_totals(base)
    cost = units * sum(link_cost[links[j]] for j in ids)
    peak = max(
        Fraction(bandwidth[links[j]] - residual[j] + units, bandwidth[links[j]]) for j in ids
    )
    return cost, peak


def oracle_remap_pass(view, requests, turns=None) -> int:
    """``turns``, when given, receives ``[(request id, vlink), the list at
    its turn, moved]`` for each link in processing order."""
    records = []
    for request in requests:
        res = view.tentative[request.request_id]
        for vlink in sorted(res.link_paths):
            records.append(link_weight(view, request, vlink))
    base = view.base
    residual = view.bandwidth_left[:]  # equal to the view's between links
    changed = 0
    for rec in sorted(records, key=_priority):
        turn = [(rec.request_id, rec.vlink), residual[:], False]
        if turns is not None:
            turns.append(turn)
        units = rec.demand
        ids = link_ids_along(base, named_path(base, rec.path))
        assert rec.ids == ids
        for j in ids:
            residual[j] += units
        node_map = view.tentative[rec.request_id].node_map
        a, b = rec.vlink
        found = embedder._dijkstra(base, residual, node_map[a], node_map[b], units)
        if found is not None and found[0] != rec.path:
            new_path, new_ids = found
            assert new_ids == link_ids_along(base, named_path(base, new_path))
            if _score(base, residual, new_ids, units) < _score(base, residual, ids, units):
                view.move_tentative_link(rec.request_id, rec.vlink, new_path, new_ids)
                ids = new_ids
                changed += 1
                turn[2] = True
        for j in ids:
            residual[j] -= units
    return changed


def random_request(rng, rid, demand_max=10):
    """2-4 virtual nodes on a connected demand graph; link demands large
    against the substrate's bandwidths."""
    n = rng.randint(2, 4)
    nodes = {v: rng.randint(1, 3) for v in range(n)}
    links = {norm_link(v, rng.randrange(v)) for v in range(1, n)}
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        links.add(norm_link(a, b))
    demands = {lk: rng.randint(1, demand_max) for lk in sorted(links)}
    return check_request(VirtualNetworkRequest(rid, nodes, demands, 0, 10))


def scenario(seed):
    """A view holding a tentative batch whose blocking links have since
    gained units, and that batch; the same seed builds the same state.

    Background requests are committed first. The batch is embedded with
    ``blocked`` while background requests depart between its arrivals; then
    more depart and some batch members are cancelled. About one reservation
    in eight keeps ``blocked`` unknown, as hand-made reservations do.
    """
    rng = random.Random(f"remap-skip-{seed}")
    n = rng.randint(5, 14)
    ids = rng.sample(range(1, 4 * n), n)
    order = ids[:]
    rng.shuffle(order)
    links = {norm_link(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    for _ in range(rng.randint(1, 2 * n)):
        a, b = rng.sample(ids, 2)
        links.add(norm_link(a, b))
    links = sorted(links)
    bandwidths = [rng.randint(10, 40) for _ in links]
    costs = [rng.randint(1, 4) for _ in links]
    net = SubstrateNetwork([(u, 1000, 1) for u in ids],
                           [(a, b, bw, c) for (a, b), bw, c in zip(links, bandwidths, costs)])
    view = SubstrateView(net)
    rid = 0
    background = []
    for _ in range(rng.randint(4, 12)):
        r = random_request(rng, rid)
        rid += 1
        outcome = embed(view, r)
        if outcome.accepted:
            reserve(view, outcome.reservation)
            assert view.commit(r.request_id)
            background.append(r.request_id)
    batch = []
    for _ in range(rng.randint(3, 10)):
        r = random_request(rng, rid)
        rid += 1
        outcome = embed(view, r, 1, {})
        if outcome.accepted:
            res = reserve(view, outcome.reservation)
            if rng.random() >= 0.875:
                res.blocked = None
            batch.append(r)
        if background and rng.random() < 0.4:
            view.release(background.pop(rng.randrange(len(background))))
    for _ in range(rng.randint(0, len(background))):
        view.release(background.pop(rng.randrange(len(background))))
    for r in list(batch):
        if rng.random() < 0.15:
            view.release(r.request_id)
            batch.remove(r)
    return view, batch, background


def bandwidth_bound_batch(seed, max_cost=4):
    """A view holding a tentative batch embedded back to back with
    ``blocked`` on a bandwidth-bound substrate with link unit costs 1 to
    ``max_cost``, a quarter of it then cancelled, and that batch; the same
    seed builds the same state.

    The cancelled units let some members move, while most links that
    blocked a route still carry too little: those links are still blocked
    at pass start, and a move may free units on one of them.
    """
    rng = random.Random(f"remap-lazy-{seed}")
    n = rng.randint(5, 10)
    ids = rng.sample(range(1, 4 * n), n)
    order = ids[:]
    rng.shuffle(order)
    links = {norm_link(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    for _ in range(rng.randint(n, 2 * n)):
        a, b = rng.sample(ids, 2)
        links.add(norm_link(a, b))
    net = SubstrateNetwork([(u, 1000, 1) for u in ids],
                           [(a, b, rng.randint(10, 30), rng.randint(1, max_cost)) for a, b in sorted(links)])
    view = SubstrateView(net)
    batch = []
    for rid in range(rng.randint(8, 20)):
        r = random_request(rng, rid, 12)
        outcome = embed(view, r, 1, {})
        if outcome.accepted:
            reserve(view, outcome.reservation)
            batch.append(r)
    for r in list(batch):
        if rng.random() < 0.25:
            view.release(r.request_id)
            batch.remove(r)
    return view, batch


def still_blocked_links(view):
    """(request id, vlink) -> (B, demand) for each link still blocked at
    pass start: its B is nonempty and has no link that carries its demand.
    Read before a pass clears B."""
    left = view.bandwidth_left
    out = {}
    for rid, res in view.tentative.items():
        for vlink, gate in (res.blocked or {}).items():
            (_path, units, _ids), = res.link_paths[vlink]
            if gate and max(left[j] for j in gate) < units:
                out[rid, vlink] = gate, units
    return out


def state(view):
    return (
        {rid: dict(res.link_paths) for rid, res in view.tentative.items()},
        t_link_load(view),
    )


def test_same_moves_as_the_pass_that_routes_every_link():
    counted = {"passes": 0, "adopted": 0, "known": 0, "gated": 0}
    for seed in range(400):
        view, _, _ = scenario(seed)
        want_view, want_batch, _ = scenario(seed)
        assert state(view) == state(want_view)
        for res in view.tentative.values():
            if res.blocked is not None:
                counted["known"] += len(res.link_paths)
                counted["gated"] += len(res.blocked)
        got = remap_pass(view)
        want = oracle_remap_pass(want_view, want_batch)
        assert got == want, seed
        assert state(view) == state(want_view), seed
        assert view.conservation_violations() == []
        counted["passes"] += 1
        counted["adopted"] += want
    # plenty of adoptions, and of links both with and without a blocking set
    assert counted["passes"] == 400
    assert counted["adopted"] > 200
    assert counted["gated"] > 1000 and counted["known"] - counted["gated"] > 200


def test_a_second_pass_matches_the_second_pass_of_the_oracle():
    adopted = 0
    for seed in range(400):
        view, batch, background = scenario(seed)
        want_view, want_batch, _ = scenario(seed)
        assert remap_pass(view) == oracle_remap_pass(want_view, want_batch), seed
        assert all(view.tentative[r.request_id].blocked is None for r in batch)
        # units freed after the first pass reach links that moved in it
        for rid in background:
            view.release(rid)
            want_view.release(rid)
        got = remap_pass(view)
        want = oracle_remap_pass(want_view, want_batch)
        assert got == want, seed
        assert state(view) == state(want_view), seed
        adopted += want
    assert adopted > 20


def test_links_still_blocked_at_pass_start_move_as_the_oracle_moves():
    counted = Counter()
    for seed in range(1000):
        view, _ = bandwidth_bound_batch(seed)
        want_view, want_batch = bandwidth_bound_batch(seed)
        blocked = still_blocked_links(view)
        turns = []
        want = oracle_remap_pass(want_view, want_batch, turns)
        assert remap_pass(view) == want, seed
        assert state(view) == state(want_view), seed
        if not want:
            continue
        # the first adoption, and the links still blocked at pass start on
        # either side of it
        first = next(i for i, (_key, _left, moved) in enumerate(turns) if moved)
        before = [key for key, _left, _moved in turns[:first] if key in blocked]
        after = [(i, key) for i, (key, _left, _moved) in enumerate(turns) if i > first and key in blocked]
        counted["both sides"] += bool(before and after)
        # one that the first move opens is routed after it
        opened = [(i, key) for i, key in after
                  if max(turns[first + 1][1][j] for j in blocked[key][0]) >= blocked[key][1]]
        counted["opened"] += bool(opened)
        counted["opened, then moved"] += any(turns[i][2] for i, _key in opened)
    assert counted["both sides"] > 50
    assert counted["opened"] > 10 and counted["opened, then moved"] > 0, counted


def test_a_default_run_scores_each_candidate_once_and_every_move(monkeypatch):
    passes, moves = [], []  # passes: (candidates, scored) in reading order
    real_weight, real_pass = weights.link_weight, vnesim.controller.remap_pass
    real_move = SubstrateView.move_tentative_link

    def counting_weight(view, request, vlink):
        passes[-1][1].append((request.request_id, vlink))
        return real_weight(view, request, vlink)

    def counting_pass(view):
        # every link but those whose known B is empty, in the order the
        # pass reads the batch
        candidates = [(rid, vlink) for rid, res in view.tentative.items()
                      for vlink in res.link_paths
                      if res.blocked is None or res.blocked.get(vlink)]
        passes.append((candidates, []))
        return real_pass(view)

    def checked_move(self, request_id, vlink, path, ids):
        assert (request_id, vlink) in passes[-1][1]
        moves.append((request_id, vlink))
        return real_move(self, request_id, vlink, path, ids)

    monkeypatch.setattr(weights, "link_weight", counting_weight)
    monkeypatch.setattr(vnesim.controller, "remap_pass", counting_pass)
    monkeypatch.setattr(SubstrateView, "move_tentative_link", checked_move)
    _, log = run_simulation(RunConfig(strategy="batched", seed=11))
    assert log.remapped_links == len(moves) > 0
    for candidates, scored in passes:
        assert scored == candidates
    # B holds only the links that decided each route: 56 scores for the 8
    # moves
    assert (sum(len(scored) for _candidates, scored in passes), len(moves)) == (56, 8)


def test_the_pass_does_not_depend_on_the_order_of_a_reservations_links(monkeypatch):
    # Each batch is staged twice, by two runs of the same config; the second
    # gives the pass every reservation's links and blocking sets in reverse
    # insertion order, and puts the links back in order after it.
    real_pass = vnesim.controller.remap_pass

    def run(reverse):
        seen = []

        def recording_pass(view):
            orders = {}
            for rid, res in view.tentative.items():
                orders[rid] = list(res.link_paths)
                if reverse:
                    for entries in (res.link_paths, res.blocked or {}):
                        items = list(entries.items())
                        entries.clear()
                        entries.update(reversed(items))
            changed = real_pass(view)
            seen.append((changed, {rid: dict(res.link_paths) for rid, res in view.tentative.items()},
                         view.bandwidth_left[:], view.capacity_left[:]))
            for rid, res in view.tentative.items():
                moved = dict(res.link_paths)
                res.link_paths.clear()
                res.link_paths.update((vlink, moved[vlink]) for vlink in orders[rid])
            return changed

        monkeypatch.setattr(vnesim.controller, "remap_pass", recording_pass)
        run_simulation(RunConfig(strategy="batched", **dict(HEAVY, seed=2)))
        return seen

    forward, backward = run(False), run(True)
    assert forward == backward
    assert sum(changed for changed, *_ in forward) > 0


def test_a_skipped_split_link_is_still_refused(triangle):
    view = SubstrateView(triangle)
    r = VirtualNetworkRequest(1, {"a": 1, "b": 1}, {("a", "b"): 120}, 0, 10)
    split = build_reservation(view, r, {"a": 1, "b": 2}, {("a", "b"): (((1, 2), 100), ((1, 3, 2), 20))})
    split.blocked = {}  # nothing blocked it: a skip
    reserve(view, split)
    with pytest.raises(ValueError, match="single-path"):
        remap_pass(view)


def test_blocked_links_need_a_single_path_budget(triangle):
    r = VirtualNetworkRequest(1, {"a": 1, "b": 1}, {("a", "b"): 10}, 0, 10)
    with pytest.raises(ValueError, match="k = 1"):
        embed(SubstrateView(triangle), r, 2, {})


def routed_calls(monkeypatch, seeds):
    """Every search that ``embed`` makes with ``blocked`` while it builds
    ``bandwidth_bound_batch`` at unit link costs 1 (where the walk decides
    most searches) and 1 to 4: ``(base, residual at the call, src, dst,
    demand, what it returned, the blocking list, A* decided)``."""
    counter = CountingHeapq()
    monkeypatch.setattr(embedder, "heapq", counter)
    real, real_embed = embedder._dijkstra, embed
    calls = []

    def recording(net, residual, src, dst, demand, thin=None):
        before, pops = residual[:], counter.pops
        found = real(net, residual, src, dst, demand, thin)
        if thin is not None:
            calls.append((net, before, src, dst, demand, found, thin, counter.pops > pops))
        return found

    def checked_embed(view, request, k, blocked):
        # an accepted request made one search per virtual link, in order,
        # and its B per link is that search's list
        start = len(calls)
        outcome = real_embed(view, request, k, blocked)
        if outcome.accepted:
            ours = calls[start:]
            assert len(ours) == len(request.link_demands)
            for vlink, (_net, _r, _s, _t, d, found, thin, _astar) in zip(embedder._link_order(request), ours):
                assert outcome.reservation.link_paths[vlink] == ((found[0], d, found[1]),)
                assert blocked.get(vlink, ()) == tuple(sorted(thin))
        return outcome

    monkeypatch.setattr(embedder, "_dijkstra", recording)
    monkeypatch.setitem(globals(), "embed", checked_embed)  # the name bandwidth_bound_batch calls
    for seed in seeds:
        for max_cost in (1, 4):
            bandwidth_bound_batch(seed, max_cost)
    monkeypatch.undo()
    return calls


def test_each_recorded_b_is_thin_and_the_whole_thin_set_where_the_astar_decided(monkeypatch):
    counted = Counter()
    for _net, r, _s, _t, d, _found, thin, astar in routed_calls(monkeypatch, range(300)):
        too_thin = [j for j, left in enumerate(r) if left < d]
        assert set(thin) <= set(too_thin)
        if astar:
            assert thin == too_thin
        counted["astar" if astar else "walk", bool(thin)] += 1
        counted["narrower"] += len(thin) < len(too_thin)
    # both decide thousands of searches, the walk some past a thin tight
    # link, and B is narrower than the thin set in thousands
    assert counted["walk", True] > 200 and counted["walk", False] > 2000
    assert counted["astar", True] > 2000
    assert counted["narrower"] > 2000, counted


def test_search_returns_the_incumbent_while_every_link_of_b_stays_too_thin(monkeypatch):
    # the lemma of the weights module: with B below the demand and the
    # route's own links at or above it, whatever the other links hold, the
    # search returns the route embed took
    rng = random.Random("b-lemma")
    counted = Counter()
    for net, r, s, t, d, found, thin, astar in routed_calls(monkeypatch, range(300)):
        if found is None:
            continue
        path, ids = found
        for _ in range(4):
            residual = [rng.randint(0, 2 * d + 2) for _ in r]
            for j in thin:
                residual[j] = rng.randint(0, d - 1)
            for j in ids:
                residual[j] = rng.randint(d, 2 * d)
            assert embedder._dijkstra(net, residual, s, t, d) == (path, ids)
            counted["astar" if astar else "walk"] += 1
    assert counted["walk"] > 10000 and counted["astar"] > 10000, counted


def test_embed_records_the_links_that_could_not_carry_each_route():
    # 1-2 carries 10, so the 12-unit link detours over 1-3; that leaves 8
    # units on 1-3, short of the 9-unit sibling, which takes 1-2-3
    net = make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)], bws={(1, 2): 10, (1, 3): 20, (2, 3): 30})
    view = SubstrateView(net)
    r = VirtualNetworkRequest(1, {"a": 2, "b": 1, "c": 1}, {("a", "b"): 12, ("a", "c"): 9}, 0, 10)
    blocked = {}
    outcome = embed(view, r, 1, blocked)
    res = outcome.reservation
    assert res.node_map == indexed_map(net, {"a": 1, "b": 2, "c": 3})
    assert res.link_paths == indexed_parts(net, {("a", "b"): (((1, 3, 2), 12),),
                                                 ("a", "c"): (((1, 2, 3), 9),)})
    assert blocked == {("a", "b"): (net.links.index((1, 2)),), ("a", "c"): (net.links.index((1, 3)),)}
    # the reservation carries the record for the remap pass
    assert res.blocked is blocked
    # without the argument, or where every link carries the demand, nothing is recorded
    assert embed(view, r).reservation == replace(res, blocked=None)
    blocked = {}
    embed(view, VirtualNetworkRequest(2, {"a": 1, "b": 1}, {("a", "b"): 10}, 0, 10), 1, blocked)
    assert blocked == {}
