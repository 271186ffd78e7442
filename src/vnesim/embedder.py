"""Embedding: greedy node placement plus cheapest-path routing, one embedder.

``embed(view, request, k)`` is the only embedder; ``k`` is the path budget
per virtual link. With k = 1 (batched and per-request) every virtual link
rides one path; with k > 1 (splitting) a link whose demand no single path
can carry is spread over up to k paths. The result is always a ``Mapping``
in the ledger's ``vlink -> ((path, units), ...)`` form.

All choices are deterministic under total tie-break orders:

* node placement: virtual nodes by descending demand (ties by id), each onto
  the feasible switch with the largest effective residual (ties by switch id);
* routing: links by descending demand (ties by link id), each onto the
  feasible path minimizing summed link unit cost, ties broken by fewer hops,
  then by lexicographic switch-id sequence.

``oracle_embed`` is an independent exhaustive search used to bound the
heuristics on small instances; it shares no routing code with ``embed``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import permutations

from .netmodel import Mapping, SubstrateView, mapping_cost, norm_link, path_links

NODE_STAGE = "node-stage"
LINK_STAGE = "link-stage"


@dataclass(frozen=True)
class EmbedOutcome:
    """Result of an embedding attempt: a mapping and its cost, or a rejection
    stage (node-stage when placement failed, link-stage when routing did)."""

    mapping: object = None
    cost: int = None
    rejection: str = None

    @property
    def accepted(self) -> bool:
        return self.mapping is not None


def _base(view):
    return view.base if isinstance(view, SubstrateView) else view


def greedy_node_map(view, request):
    """Place virtual nodes by descending demand onto the emptiest feasible
    switch; returns the node map, or None when some node cannot be placed."""
    order = sorted(request.node_demands, key=lambda n: (-request.node_demands[n], n))
    used = set()
    node_map = {}
    for vn in order:
        need = request.node_demands[vn]
        best = None
        best_resid = -1
        for sw in _base(view).switches:
            if sw in used:
                continue
            resid = view.residual_capacity(sw)
            if resid >= need and resid > best_resid:
                best, best_resid = sw, resid
        if best is None:
            return None
        node_map[vn] = best
        used.add(best)
    return node_map


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


def cheapest_feasible_path(view, src, dst, demand):
    """Cheapest simple path from src to dst over links with residual >= demand.

    Returns the switch sequence, or None when no feasible path exists.
    """
    base = _base(view)
    if src not in base.adj or dst not in base.adj:
        raise ValueError(f"unknown switch: {src if src not in base.adj else dst}")
    if src == dst:
        raise ValueError("src and dst must differ")
    return _dijkstra(base.adj, base.link_cost, view.residual_bandwidth, src, dst, demand)


def _link_order(request):
    return sorted(request.link_demands, key=lambda l: (-request.link_demands[l], l))


def embed(view, request, k=1) -> EmbedOutcome:
    """Greedy embedding of one request against a view, up to k paths per link.

    Routing per virtual link: if one path can carry the whole remaining
    demand, use the cheapest such path; otherwise saturate the bottleneck of
    the cheapest path with any spare bandwidth and continue with the
    remainder. Rejects at the link stage when the demand cannot be covered
    within k paths.

    Does not mutate the view: routing runs against a working picture updated
    after each part, so sibling links of the same request never
    oversubscribe a shared substrate link. The caller reserves the returned
    mapping.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    node_map = greedy_node_map(view, request)
    if node_map is None:
        return EmbedOutcome(rejection=NODE_STAGE)
    base = _base(view)
    extra = {}

    def residual(lk):
        return view.residual_bandwidth(lk) - extra.get(lk, 0)

    link_paths = {}
    for vl in _link_order(request):
        remaining = request.link_demands[vl]
        src, dst = node_map[vl[0]], node_map[vl[1]]
        parts = []
        while remaining > 0 and len(parts) < k:
            path = _dijkstra(base.adj, base.link_cost, residual, src, dst, remaining)
            if path is not None:
                alloc = remaining
            elif len(parts) == k - 1:
                break  # a last part cannot cover what no single path carries
            else:
                path = _dijkstra(base.adj, base.link_cost, residual, src, dst, 1)
                if path is None:
                    break
                # below `remaining`, or the whole-demand search had found it
                alloc = min(residual(lk) for lk in path_links(path))
            for lk in path_links(path):
                extra[lk] = extra.get(lk, 0) + alloc
            parts.append((path, alloc))
            remaining -= alloc
        if remaining > 0:
            return EmbedOutcome(rejection=LINK_STAGE)
        link_paths[vl] = tuple(parts)
    mapping = Mapping(node_map, link_paths)
    return EmbedOutcome(mapping, mapping_cost(base, request, mapping))


# ---------------------------------------------------------------------------
# exhaustive reference search


def _simple_paths(adj, src, dst):
    """All simple paths src->dst, by depth-first search."""
    out = []
    stack = [(src, (src,))]
    while stack:
        node, path = stack.pop()
        if node == dst:
            out.append(path)
            continue
        for nb in adj[node]:
            if nb not in path:
                stack.append((nb, path + (nb,)))
    return out


def oracle_embed(net, request, switch_limit=8, vnode_limit=4):
    """Exhaustive embedding search on small instances.

    Enumerates every injective node assignment and, per assignment,
    backtracks over all simple-path routings with cumulative bandwidth
    accounting. Returns (feasible, minimum cost) where cost is None when
    infeasible. Refuses instances above the stated limits.
    """
    base = _base(net)
    if len(base.switches) > switch_limit:
        raise ValueError(f"oracle limited to {switch_limit} switches")
    if len(request.node_demands) > vnode_limit:
        raise ValueError(f"oracle limited to {vnode_limit} virtual nodes")

    vnodes = sorted(request.node_demands)
    vlinks = _link_order(request)
    paths_memo = {}

    def simple_paths(src, dst):
        key = (src, dst)
        if key not in paths_memo:
            found = _simple_paths(base.adj, src, dst)
            found.sort(key=lambda p: (sum(base.link_cost[l] for l in path_links(p)), len(p)))
            paths_memo[key] = found
        return paths_memo[key]

    best = None
    feasible = False

    for combo in permutations(base.switches, len(vnodes)):
        assign = dict(zip(vnodes, combo))
        if any(net.residual_capacity(assign[vn]) < request.node_demands[vn] for vn in vnodes):
            continue
        node_cost = sum(
            base.switch_cost[assign[vn]] * request.node_demands[vn] for vn in vnodes
        )
        if best is not None and node_cost >= best:
            continue
        used = {}

        def route(i, acc):
            nonlocal best, feasible
            if best is not None and node_cost + acc >= best:
                return
            if i == len(vlinks):
                feasible = True
                best = node_cost + acc
                return
            vl = vlinks[i]
            demand = request.link_demands[vl]
            for path in simple_paths(assign[vl[0]], assign[vl[1]]):
                links = path_links(path)
                if any(net.residual_bandwidth(l) - used.get(l, 0) < demand for l in links):
                    continue
                for l in links:
                    used[l] = used.get(l, 0) + demand
                route(i + 1, acc + demand * sum(base.link_cost[l] for l in links))
                for l in links:
                    used[l] -= demand
            return

        route(0, 0)

    return feasible, best
