"""Embedding: greedy node placement plus cheapest-path routing, one embedder.

``embed(view, request, k)`` is the only embedder; ``k`` is the path budget
per virtual link. With k = 1 (batched and per-request) every virtual link
rides one path; with k > 1 (splitting) a link whose demand no single path
can carry is spread over up to k paths. An accepted request comes back as
the ``Reservation`` that ``reserve`` stages, in index form: its node map and
paths name switches by index, its paths in the ledger's
``vlink -> ((path, units, ids), ...)`` form, with its units and cost.

All choices are deterministic under total tie-break orders; ``switches`` is
sorted, so switch-index order is switch-id order:

* node placement: virtual nodes by descending demand (ties by id), each onto
  the feasible switch with the largest effective residual (ties by lowest
  switch index);
* routing: links by descending demand (ties by link id), each onto the
  feasible path minimizing summed link unit cost, ties broken by fewer hops,
  then by lexicographic switch-index sequence.

Routing first walks from src along exact hop distances (below). Where the
walk is blocked it runs one A* search, backward from dst to src, on the
integer index of ``SubstrateNetwork`` (switch i is ``switches[i]``, link j
is ``links[j]``) against a flat list of residuals by link id. A label packs
(cost, hops) into one int, ``cost * H + hops``, with H larger than any hop
count, so int order is pair order and labels add along a path; a link of unit
cost c steps a label by ``c * H + 1``, at least ``min_step = cmin * H + 1``.
The bound ``lb[v] = min(hopdist(v, src), 255) * min_step`` (hop distances on
the whole substrate, from ``SubstrateNetwork.hop_bounds``) never exceeds the
label of any path from v to src, and it changes by at most ``min_step``
across a link, clamped or not, so it is consistent. The heap is ordered by
``(f, g, v)`` with ``f = g + lb``.

Tie-break: call u a tight neighbour of v when ``g*(v) = g*(u) + step(u, v)``
over a feasible link. Consistency gives ``f(u) <= f(v)``, and ``g*(u) <
g*(v)``, so u settles, and relaxes v, before v settles; hence when v settles,
``nxt[v]`` is the smallest-index neighbour that starts an optimal remainder to
dst. Every optimal path has the same hop count, so the lexicographic minimum
among them is built by taking the smallest such next switch at every step:
the walk along ``nxt`` from src, once src settles, is the (cost, hops,
switch sequence) minimum that a forward search over whole paths returns.

Walk first: with ``to_t = hop_bounds(dst)``, every src-dst path has at least
``to_t[src]`` hops, each of step at least ``min_step``, so its label is at
least ``to_t[src] * min_step``. Call a link from v to u tight when
``to_t[u] = to_t[v] - 1`` and its step is ``min_step``. A path of tight links
meets that bound, so it is (cost, hops)-optimal over all links and hence over
the feasible ones; conversely a path meeting the bound has ``to_t[src]``
hops of step ``min_step`` and loses one hop of distance at each, so every
optimal path is made of tight links whenever a tight feasible path exists.
The walk starts at src and takes, at each switch, the smallest-index neighbour
over a tight link with ``residual >= demand``. If it reaches dst, its path
beats every other optimal path at their first difference, so it is the
same lexicographic minimum the A* returns. If it dead-ends, the A* runs as
if the walk had not been tried. A clamped ``to_t[src] = 255`` (true distance
above 255) leaves no neighbour at 254, and a costlier link is never tight, so
there the walk can only fail, never return a wrong path.

Both read each link id from ``rows`` as they pass it (the A* sets ``via[u]``
wherever it sets ``nxt[u]``), so a path comes back with its link ids, and
its part keeps that very list. A part found at the whole remaining demand
takes all of it without a scan, since every link on it carries that much;
only a split's one-unit fallback takes its path's bottleneck, below the
remainder that no path carries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress

from .netmodel import Reservation

NODE_STAGE = "node-stage"
LINK_STAGE = "link-stage"


@dataclass(frozen=True)
class EmbedOutcome:
    """Result of an embedding attempt: the reservation to stage, or a
    rejection stage (node-stage when placement failed, link-stage when
    routing did)."""

    reservation: Reservation = None
    rejection: str = None

    @property
    def accepted(self) -> bool:
        return self.reservation is not None


def greedy_node_map(view, request):
    """Place virtual nodes by descending demand onto the emptiest feasible
    switch (the lowest index, so the lowest id, among equals); returns the
    node map, virtual node -> switch index, or None when some node cannot be
    placed.

    Each switch hosts at most one virtual node, so the picks take the
    residuals in descending order, one value each: the k-th pick is the k-th
    largest. A value equal to the previous pick's is found after that pick's
    index, any other value from index 0; either way at the lowest index not
    yet taken.
    """
    demands = request.node_demands
    order = sorted(demands, key=lambda n: (-demands[n], n))
    left = view.capacity_left
    if len(order) > len(left):
        return None
    find = left.index
    node_map = {}
    prev, at = None, 0
    for vn, r in zip(order, sorted(left, reverse=True)):
        if r < demands[vn]:
            return None
        at = node_map[vn] = find(r, at + 1 if r == prev else 0)
        prev = r
    return node_map


def _dijkstra(net, residual, s, t, demand, thin=None):
    """The cheapest path from switch index s to switch index t over links
    whose ``residual[link id] >= demand``, as ``(switch-index tuple, list of
    its link ids)``; None when there is none. The walk along tight links,
    else backward A* on the index (see the module docstring).

    A list passed as ``thin`` receives the links that blocked the answer:
    the ids of the tight links the walk passed over as too thin, in walk
    order, when the walk reaches t; else every id with ``residual[id] <
    demand``, ascending, whatever the A* returns.
    """
    rows = net.rows
    step_min = net.min_step
    # the walk along tight feasible links (see the module docstring)
    to_t = net.hop_bounds(t)
    path, ids = [s], []
    v, h = s, to_t[s]
    while h:
        h -= 1
        for u, j, step in rows[v]:
            if to_t[u] == h and step == step_min:
                if residual[j] >= demand:
                    break
                if thin is not None:
                    thin.append(j)
        else:
            break  # blocked: the A* below decides
        v = u
        path.append(u)
        ids.append(j)
    else:  # h reached 0: the walk is at dst
        return tuple(path), ids
    if thin is not None:
        thin[:] = compress(range(len(residual)), map(demand.__gt__, residual))
    lb = net.hop_bounds(s)
    n = len(rows)
    dist = [None] * n
    nxt = [n] * n
    via = [n] * n
    done = bytearray(n)
    dist[t] = 0
    heap = [(lb[t] * step_min, 0, t)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _f, g, v = pop(heap)
        if done[v]:
            continue
        done[v] = 1
        if v == s:
            path, ids = [s], []
            while v != t:
                ids.append(via[v])
                v = nxt[v]
                path.append(v)
            return tuple(path), ids
        for u, j, step in rows[v]:
            if done[u] or residual[j] < demand:
                continue
            gu = g + step
            old = dist[u]
            if old is None or gu < old:
                dist[u] = gu
                nxt[u] = v
                via[u] = j
                push(heap, (gu + lb[u] * step_min, gu, u))
            elif gu == old and v < nxt[u]:
                nxt[u] = v
                via[u] = j
    return None


def _link_order(request):
    return sorted(request.link_demands, key=lambda l: (-request.link_demands[l], l))


def embed(view, request, k=1, blocked=None) -> EmbedOutcome:
    """Greedy embedding of one request against a view, up to k paths per link.

    Routing per virtual link: if one path can carry the whole remaining
    demand, use the cheapest such path; otherwise saturate the bottleneck of
    the cheapest path with any spare bandwidth and continue with the
    remainder. Rejects at the link stage when the demand cannot be covered
    within k paths.

    Does not mutate the view: routing runs against a flat copy of its
    residuals, debited after each part, so sibling links of the same request
    never oversubscribe a shared substrate link. The caller stages the
    returned reservation with ``reserve``: its ``node_units`` by switch
    index, ``link_units`` by link id over every part, and ``cost``.

    With k = 1, a dict passed as ``blocked`` receives, for each virtual link
    whose route some substrate link could not carry, ``vlink -> ascending
    tuple of the ids of the links that blocked its route``: the tight links
    the routing walk passed over as too thin when the walk reached dst, or
    every id j with residual[j] < demand in that flat copy at that call,
    earlier siblings already debited, when the A* decided. The reservation
    carries it as ``blocked``; the remap pass uses it to skip links that
    cannot move (see ``weights``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if blocked is not None and k != 1:
        raise ValueError("blocked links are recorded only with k = 1")
    node_map = greedy_node_map(view, request)
    if node_map is None:
        return EmbedOutcome(rejection=NODE_STAGE)
    base = view.base
    residual = view.bandwidth_left[:]  # debited part by part
    link_paths = {}
    link_units = {}
    for vl in _link_order(request):
        remaining = request.link_demands[vl]
        src, dst = node_map[vl[0]], node_map[vl[1]]
        thin = None if blocked is None else []
        parts = []
        while remaining > 0 and len(parts) < k:
            found = _dijkstra(base, residual, src, dst, remaining, thin)
            if found is not None:
                path, link_ids = found
                alloc = remaining  # every link of the path carries it
            elif len(parts) == k - 1:
                break  # a last part cannot cover what no single path carries
            else:
                found = _dijkstra(base, residual, src, dst, 1)
                if found is None:
                    break
                path, link_ids = found
                alloc = min(map(residual.__getitem__, link_ids))  # the bottleneck
            for j in link_ids:
                residual[j] -= alloc
                link_units[j] = link_units.get(j, 0) + alloc
            parts.append((path, alloc, link_ids))
            remaining -= alloc
        if remaining > 0:
            return EmbedOutcome(rejection=LINK_STAGE)
        if thin:
            blocked[vl] = tuple(sorted(thin))
        link_paths[vl] = tuple(parts)
    # placement is injective: each switch hosts one virtual node's demand
    demands = request.node_demands
    node_units = {i: demands[vn] for vn, i in node_map.items()}
    # host unit cost times node demand, plus link unit cost times units
    switch_costs, link_costs = base.switch_costs, base.link_costs
    cost = sum(switch_costs[i] * n for i, n in node_units.items())
    cost += sum(link_costs[j] * n for j, n in link_units.items())
    return EmbedOutcome(Reservation(request, node_map, link_paths, node_units, link_units,
                                    cost=cost, blocked=blocked))

