"""Reference code the tests check the package against.

Nothing here runs in a simulation. The exhaustive embedder (the criterion-2
oracle) and the mapping checker share no routing code with
``vnesim.embedder.embed``, which is why they live apart from it.
``check_request`` checks the request contract that the package's
constructor states but does not check: the tests' hand-built requests and
every generated one must pass it.

The package names a switch by its index in the sorted switch list
everywhere past its edges: a reservation's node map and paths hold switch
indices. Tests state node maps and paths in switch ids, so this module is
the one place that converts: ``indexed`` and ``indexed_parts`` turn
hand-given ids into the package's index form, and the checkers (the ledger
terms, the cost, the mapping checker) take index-form records and read them
by name through ``named``. The ledger terms of a reservation (its node and
rule units per switch index, its units per link id and its cost) are
derived here from the node map and the paths alone, for reservations built
by hand and to check the ones that ``embed`` builds; so are the link ids of
each part. These read a part's path and units only, so a mapping may give
its parts as ``(path, units)``. ``full_audit`` is the ledger audit that sums
every per-request unit afresh, the list the view's audit, which keeps its
committed sums, must equal; ``exact_utilization_means`` gives the exact
fractions that each row's utilization means must round to. The node stage
is given as one ``max`` and one ``index`` per virtual node, for
``greedy_node_map`` to match. The rest
derives from a network or a finished run what the package itself never
needs: adjacency, equality and text of a substrate, its totals and residuals by name, the overlay's loads,
the fate and the state of a request, the longest wait and the mean number
of concurrently committed requests, and a tick count in time units. The
log keeps no rows: a trace's text (``trace_text`` of a log that writes to a
text stream) reads back into rows (``parse_trace``, ``trace_rows``), and
``summary_of_rows`` derives every field of ``metrics.statistics`` from
rows alone by passes over them, the oracle for the log's running values;
``acceptance_rate`` buckets the acceptance by arrival count or time. Last
come the substrate and
request generators as they drew through ``Random.randint``, ``randrange``
and ``shuffle``, which the inline draws of ``vnesim.workload`` must match
network for network and request for request.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

from vnesim import embedder
from vnesim.metrics import CSV_COLUMNS, trace_hash
from vnesim.netmodel import (
    Reservation,
    SubstrateNetwork,
    SubstrateView,
    VirtualNetworkRequest,
    norm_link,
)
from vnesim.simulator import TICKS_PER_UNIT
from vnesim.workload import GeneratorSpec

NODE_CAPACITY = "node-capacity"
INJECTIVITY = "injectivity"
PATH_EXISTENCE = "path-existence"
PATH_BANDWIDTH = "path-bandwidth"


def _base(view):
    return view.base if isinstance(view, SubstrateView) else view


# ---------------------------------------------------------------------------
# the request contract, which the package's constructor does not check


def check_request(r) -> VirtualNetworkRequest:
    """Return ``r`` if it meets ``VirtualNetworkRequest``'s contract, else
    raise ValueError naming the first breach: every demand a positive
    integer, each virtual link normalized between two declared nodes, a
    positive lifetime, a nonnegative arrival, and a connected demand graph."""
    for n, d in r.node_demands.items():
        if not isinstance(d, int) or d <= 0:
            raise ValueError(f"node {n}: demand must be a positive integer, got {d!r}")
    for lk, d in r.link_demands.items():
        a, b = lk
        if a == b:
            raise ValueError(f"virtual link {lk}: self-loop")
        if norm_link(a, b) != lk:
            raise ValueError(f"virtual link {lk}: not normalized")
        if a not in r.node_demands or b not in r.node_demands:
            raise ValueError(f"virtual link {lk}: endpoint not a declared node")
        if not isinstance(d, int) or d <= 0:
            raise ValueError(f"virtual link {lk}: demand must be a positive integer, got {d!r}")
    if r.lifetime <= 0:
        raise ValueError("lifetime must be positive")
    if r.arrival < 0:
        raise ValueError("arrival must be nonnegative")
    if r.node_demands:
        adjacent = {n: [] for n in r.node_demands}
        for a, b in r.link_demands:
            adjacent[a].append(b)
            adjacent[b].append(a)
        seen = {next(iter(adjacent))}
        stack = list(seen)
        while stack:
            for m in adjacent[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        if len(seen) != len(adjacent):
            raise ValueError("demand graph is not connected")
    return r


# ---------------------------------------------------------------------------
# switch ids to the package's switch indices and back


def switch_indices(net) -> dict:
    """Switch id -> switch index, its place in the sorted switch list."""
    return {u: i for i, u in enumerate(_base(net).switches)}


def indexed_map(net, node_map) -> dict:
    """A node map given in switch ids, by switch index."""
    index = switch_indices(net)
    return {vn: index[sw] for vn, sw in node_map.items()}


def indexed_parts(net, link_paths) -> dict:
    """``vlink -> ((path, units), ...)`` with paths in switch ids, in the
    ledger's part form: each part ``(path, units, ids)``, its path by switch
    index and ``ids`` the link ids along it."""
    index = switch_indices(net)
    return {vl: tuple((tuple(index[sw] for sw in path), n, link_ids_along(net, path))
                      for path, n in parts)
            for vl, parts in link_paths.items()}


def indexed(net, request, node_map, link_paths) -> Reservation:
    """A mapping given in switch ids, as the checkers take it: node map and
    ``(path, units)`` parts by switch index, with no ids, units or cost, so
    it may break any constraint. An unknown switch id is structural."""
    index = switch_indices(net)

    def at(sw):
        if sw not in index:
            raise MappingStructureError(f"unknown switch {sw}")
        return index[sw]

    return Reservation(request, {vn: at(sw) for vn, sw in node_map.items()},
                       {vl: tuple((tuple(map(at, path)), n) for path, n in parts)
                        for vl, parts in link_paths.items()})


def named(net, mapping) -> SimpleNamespace:
    """An index-form mapping read by switch id: its ``node_map`` and
    ``link_paths`` with switch ids for switch indices, each part keeping its
    units and any ids it has. A switch index outside the network is
    structural."""
    switches = _base(net).switches

    def name(i):
        if not 0 <= i < len(switches):
            raise MappingStructureError(f"unknown switch index {i}")
        return switches[i]

    return SimpleNamespace(
        node_map={vn: name(i) for vn, i in mapping.node_map.items()},
        link_paths={vl: tuple((tuple(map(name, path)), *rest) for path, *rest in parts)
                    for vl, parts in mapping.link_paths.items()})


def named_path(net, path) -> tuple:
    """A path of switch indices as switch ids."""
    switches = _base(net).switches
    return tuple(switches[i] for i in path)


# ---------------------------------------------------------------------------
# ledger terms of an index-form mapping, derived from its paths


def path_links(path) -> list:
    """Substrate links, as (low, high) switch-id pairs, traversed by a
    switch-id sequence."""
    return [norm_link(path[i], path[i + 1]) for i in range(len(path) - 1)]


def link_ids_along(net, path) -> list:
    """Link ids along a switch-id sequence, found by their place in the link
    list."""
    links = _base(net).links
    return [links.index(lk) for lk in path_links(path)]


def route(net, path):
    """A path given in switch ids in the routing kernel's return shape,
    ``(switch-index tuple, link ids along it)``; None stays None."""
    if path is None:
        return None
    index = switch_indices(net)
    return tuple(index[sw] for sw in path), link_ids_along(net, path)


def link_units_of(net, mapping) -> dict:
    """Link id -> units over every part's path of a mapping."""
    units = {}
    for parts in named(net, mapping).link_paths.values():
        for path, n, *_ids in parts:
            for j in link_ids_along(net, path):
                units[j] = units.get(j, 0) + n
    return units


def node_units_of(net, request, mapping) -> dict:
    """Switch index -> node demand hosted there by a mapping."""
    units = {}
    for vn, i in mapping.node_map.items():
        units[i] = units.get(i, 0) + request.node_demands[vn]
    return units


def rule_units_of(net, mapping) -> dict:
    """Switch index -> flow rules a mapping installs: one per virtual link,
    part and switch on the part's path."""
    units = {}
    for parts in mapping.link_paths.values():
        for path, _n, *_ids in parts:
            for i in path:
                units[i] = units.get(i, 0) + 1
    return units


def mapping_cost(net, request, mapping) -> int:
    """Embedding cost: host unit cost times node demand, plus link unit cost
    times units on every link of every part's path, read by switch id. Pure
    in the topology (ignores residuals)."""
    _capacity, switch_cost, _bandwidth, link_cost = named_totals(_base(net))
    mapping = named(net, mapping)
    cost = 0
    for vn, sw in mapping.node_map.items():
        cost += switch_cost[sw] * request.node_demands[vn]
    for parts in mapping.link_paths.values():
        for path, units, *_ids in parts:
            for lk in path_links(path):
                cost += link_cost[lk] * units
    return cost


def build_reservation(net, request, node_map, link_paths) -> Reservation:
    """A hand-built reservation in index form from a node map and ``(path,
    units)`` parts in switch ids, with the terms they give: each part's link
    ids, node units by switch index (summed, so a node map need not be
    injective), link units by link id and the cost; no rule units."""
    res = Reservation(request, indexed_map(net, node_map), indexed_parts(net, link_paths))
    res.node_units = node_units_of(net, request, res)
    res.link_units = link_units_of(net, res)
    res.cost = mapping_cost(net, request, res)
    return res


def move_tentative(view, request_id, vlink, path):
    """``move_tentative_link`` onto a path given in switch ids, by switch
    index and with its link ids derived here, as the remap pass hands over
    what its search returned."""
    view.move_tentative_link(request_id, vlink, *route(view, path))


def residual_bandwidth(net, lk) -> int:
    """Residual bandwidth of link lk: effective on a view, committed on a
    network."""
    if isinstance(net, SubstrateView):
        return net.bandwidth_left[net.base.links.index(lk)]
    return net.bandwidths[net.links.index(lk)] - net.link_load[lk]


def residual_capacity(net, u) -> int:
    """Residual memory of switch u: effective on a view, committed on a
    network."""
    i = switch_indices(net)[u]
    if isinstance(net, SubstrateView):
        return net.capacity_left[i]
    return net.capacities[i] - net.node_load[u] - net.rule_load[u]


def t_node_load(view) -> dict:
    """Switch -> tentative node units: base residual less effective residual."""
    base = view.base
    return {u: residual_capacity(base, u) - r for u, r in zip(base.switches, view.capacity_left)}


def t_link_load(view) -> dict:
    """Link -> tentative units: base residual less effective residual."""
    base = view.base
    return {lk: residual_bandwidth(base, lk) - r for lk, r in zip(base.links, view.bandwidth_left)}


# ---------------------------------------------------------------------------
# the ledger audit, summed afresh


def full_audit(view) -> list:
    """The view's audit with nothing kept between calls: every committed and
    tentative per-request unit summed afresh, and each numerator recounted
    with ``L`` taken afresh from the totals. The package's
    ``SubstrateView.conservation_violations``, which keeps its committed
    sums, residuals and numerators from one call to the next and sums only
    the tentative overlay afresh, must return exactly this list.

    Audit the ledger in one pass; an empty list means every element
    balances. The committed and the tentative per-request units are
    summed by index; each element's committed loads must equal the
    committed sums, its flat residual its total less both sums, and
    neither its committed nor its effective residual may be negative. Each
    kind's utilization numerator must equal its recount from the flat
    residuals."""
    base = view.base
    switches, links = base.switches, base.links
    node, rule, link = _unit_sums(base.committed, len(switches), len(links))
    t_node, t_rule, t_link = _unit_sums(view.tentative, len(switches), len(links))
    out = []
    node_load, rule_load, link_load = base.node_load, base.rule_load, base.link_load
    for u, n, r in zip(switches, node, rule):
        if node_load[u] != n or rule_load[u] != r:
            out.append(f"switch {u}: loads ({node_load[u]}, {rule_load[u]}) "
                       f"!= per-request sums ({n}, {r})")
    for lk, n in zip(links, link):
        if link_load[lk] != n:
            out.append(f"link {lk}: load {link_load[lk]} != per-request sum {n}")
    held_sw = [n + r for n, r in zip(node, rule)]
    pending_sw = [n + r for n, r in zip(t_node, t_rule)]
    for kind, names, totals, held, pending, left, used in (
        ("switch", switches, base.capacities, held_sw, pending_sw,
         view.capacity_left, view.switch_used),
        ("link", links, base.bandwidths, link, t_link,
         view.bandwidth_left, view.link_used),
    ):
        for name, total, h, p, resid in zip(names, totals, held, pending, left):
            if total - h < 0:
                out.append(f"{kind} {name}: negative residual {total - h}")
            if resid != total - h - p:
                out.append(f"{kind} {name}: effective residual {resid} "
                           f"!= total less per-request sums {total - h - p}")
            if resid < 0:
                out.append(f"{kind} {name}: negative effective residual")
        whole = math.lcm(*totals)
        if used != sum((total - resid) * (whole // total) for total, resid in zip(totals, left)):
            out.append(f"{kind} utilization numerator {used} does not match the residuals")
    return out


def exact_utilization_means(view) -> tuple:
    """(link, switch) mean utilization as exact fractions, each element's
    ``(total - residual) / total`` from the flat residuals and the totals;
    a row's ``avg_link_util`` and ``avg_switch_util`` must be their floats."""
    base = view.base
    return tuple(sum((Fraction(t - r, t) for t, r in zip(totals, left)), Fraction(0)) / len(totals)
                 for totals, left in ((base.bandwidths, view.bandwidth_left),
                                      (base.capacities, view.capacity_left)))


def _unit_sums(reservations, switches, links) -> tuple:
    """(node, rule, link) units of every reservation in a request id ->
    Reservation dict, summed into lists by switch index and link id."""
    sums = ([0] * switches, [0] * switches, [0] * links)
    for res in reservations.values():
        for units, into in zip((res.node_units, res.rule_units, res.link_units), sums):
            for i, n in units.items():
                into[i] += n
    return sums


# ---------------------------------------------------------------------------
# substrate helpers


def adj(net) -> dict:
    """Sorted neighbour ids per switch (derived from the routing index)."""
    sw = net.switches
    return {u: [sw[i] for i, _j, _step in row] for u, row in zip(sw, net.rows)}


def named_totals(net) -> tuple:
    """A network's totals and unit costs keyed by name: (capacity, switch
    cost) by switch id, (bandwidth, link cost) by link tuple."""
    return (dict(zip(net.switches, net.capacities)), dict(zip(net.switches, net.switch_costs)),
            dict(zip(net.links, net.bandwidths)), dict(zip(net.links, net.link_costs)))


def element_rows(net) -> tuple:
    """A network's element rows as SubstrateNetwork takes them, in sorted
    order: ``(id, capacity, unit cost)`` per switch and ``(a, b, bandwidth,
    unit cost)`` per link."""
    return (list(zip(net.switches, net.capacities, net.switch_costs)),
            [(a, b, bw, cost) for (a, b), bw, cost in zip(net.links, net.bandwidths, net.link_costs)])


def networks_equal(a: SubstrateNetwork, b: SubstrateNetwork) -> bool:
    """Same topology, unit costs, capacities and committed loads."""
    return (
        a.switches == b.switches
        and a.links == b.links
        and a.capacities == b.capacities
        and a.switch_costs == b.switch_costs
        and a.bandwidths == b.bandwidths
        and a.link_costs == b.link_costs
        and a.node_load == b.node_load
        and a.rule_load == b.rule_load
        and a.link_load == b.link_load
    )


def topology_text(net: SubstrateNetwork) -> str:
    """Serialize a substrate back to the text format (sorted, reloadable)."""
    switches, links = element_rows(net)
    lines = ["# substrate topology"]
    lines += [f"switch {u} {cap} {cost}" for u, cap, cost in switches]
    lines += [f"link {a} {b} {bw} {cost}" for a, b, bw, cost in links]
    return "\n".join(lines) + "\n"


def cheapest_feasible_path(view, src, dst, demand):
    """Cheapest simple path from switch src to switch dst, both ids, over
    links with residual >= demand.

    Returns what the routing kernel does, ``(switch-index tuple, link ids
    along it)``, or None when no feasible path exists; a network is read
    through a fresh view.
    """
    if not isinstance(view, SubstrateView):
        view = SubstrateView(view)
    index = switch_indices(view)
    for sw in (src, dst):
        if sw not in index:
            raise ValueError(f"unknown switch: {sw}")
    if src == dst:
        raise ValueError("src and dst must differ")
    return embedder._dijkstra(view.base, view.bandwidth_left[:], index[src], index[dst], demand)


def max_index_node_map(view, request):
    """The greedy node stage as one ``max`` and one ``index`` per virtual
    node over a copy of the residuals, each pick marked used with -1 (every
    demand is positive); ``embedder.greedy_node_map`` must return the same
    map, or None."""
    order = sorted(request.node_demands, key=lambda n: (-request.node_demands[n], n))
    resid = view.capacity_left[:]
    node_map = {}
    for vn in order:
        best_resid = max(resid)
        if best_resid < request.node_demands[vn]:
            return None
        best = resid.index(best_resid)
        node_map[vn] = best
        resid[best] = -1
    return node_map


# ---------------------------------------------------------------------------
# mapping checker


class MappingStructureError(ValueError):
    """Mapping references virtual or substrate elements that do not exist."""


@dataclass(frozen=True)
class Violation:
    kind: str
    element: object
    detail: str = ""


@dataclass
class ValidationResult:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def _check_structure(net, request, mapping):
    """``mapping`` is read by switch id; ``named`` has already refused a
    switch index outside the network."""
    node_map, link_paths = mapping.node_map, mapping.link_paths
    if set(node_map) != set(request.node_demands):
        raise MappingStructureError("node map does not cover exactly the request's virtual nodes")
    if set(link_paths) != set(request.link_demands):
        raise MappingStructureError("link map does not cover exactly the request's virtual links")
    link_set = set(net.links)
    for vl, parts in link_paths.items():
        for path, _units, *_ids in parts:
            for lk in path_links(path):
                if lk not in link_set:
                    raise MappingStructureError(f"virtual link {vl}: no substrate link {lk}")


def validate_mapping(view, request, mapping) -> ValidationResult:
    """Check a mapping against the four embedding constraints, cumulatively.

    Demands of this request that share a substrate element are summed before
    comparing with the element's effective residual, so an accepted mapping is
    always reservable as-is. Each virtual link's parts must be positive and
    sum to its demand. ``mapping`` is in index form and is checked by switch
    id, as are the violations' elements. Structural problems (references to
    elements that do not exist) raise MappingStructureError; constraint
    problems are returned as violations.
    """
    net = _base(view)
    mapping = named(net, mapping)
    _check_structure(net, request, mapping)
    violations = []

    hosts = {}
    for vn in sorted(mapping.node_map):
        hosts.setdefault(mapping.node_map[vn], []).append(vn)
    for sw in sorted(hosts):
        if len(hosts[sw]) > 1:
            violations.append(Violation(
                INJECTIVITY, sw,
                f"virtual nodes {hosts[sw]} share switch {sw}",
            ))

    for sw in sorted(hosts):
        demand = sum(request.node_demands[vn] for vn in hosts[sw])
        if demand > residual_capacity(view, sw):
            violations.append(Violation(
                NODE_CAPACITY, sw,
                f"demand {demand} exceeds residual {residual_capacity(view, sw)}",
            ))

    wanted = {}
    for vl in sorted(mapping.link_paths):
        a, b = vl
        parts = mapping.link_paths[vl]
        units = [part[1] for part in parts]
        if sum(units) != request.link_demands[vl] or any(n < 1 for n in units):
            violations.append(Violation(
                PATH_EXISTENCE, vl,
                f"part units {units} must be positive and sum to demand {request.link_demands[vl]}",
            ))
        ends = {mapping.node_map[a], mapping.node_map[b]}
        for path, n, *_ids in parts:
            path = tuple(path)
            if len(path) < 2 or {path[0], path[-1]} != ends:
                violations.append(Violation(
                    PATH_EXISTENCE, vl,
                    f"path endpoints {path[:1] + path[-1:]} do not host the virtual endpoints",
                ))
            elif len(set(path)) != len(path):
                violations.append(Violation(PATH_EXISTENCE, vl, f"path {path} is not simple"))
            for lk in path_links(path):
                wanted[lk] = wanted.get(lk, 0) + n
    for lk in sorted(wanted):
        if wanted[lk] > residual_bandwidth(view, lk):
            violations.append(Violation(
                PATH_BANDWIDTH, lk,
                f"demand {wanted[lk]} exceeds residual {residual_bandwidth(view, lk)}",
            ))

    return ValidationResult(not violations, violations)


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
    vlinks = sorted(request.link_demands, key=lambda l: (-request.link_demands[l], l))
    neighbours = adj(base)
    _capacity, switch_cost, _bandwidth, link_cost = named_totals(base)
    paths_memo = {}

    def simple_paths(src, dst):
        key = (src, dst)
        if key not in paths_memo:
            found = _simple_paths(neighbours, src, dst)
            found.sort(key=lambda p: (sum(link_cost[l] for l in path_links(p)), len(p)))
            paths_memo[key] = found
        return paths_memo[key]

    best = None
    feasible = False

    for combo in permutations(base.switches, len(vnodes)):
        assign = dict(zip(vnodes, combo))
        if any(residual_capacity(net, assign[vn]) < request.node_demands[vn] for vn in vnodes):
            continue
        node_cost = sum(
            switch_cost[assign[vn]] * request.node_demands[vn] for vn in vnodes
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
                if any(residual_bandwidth(net, l) - used.get(l, 0) < demand for l in links):
                    continue
                for l in links:
                    used[l] = used.get(l, 0) + demand
                route(i + 1, acc + demand * sum(link_cost[l] for l in links))
                for l in links:
                    used[l] -= demand
            return

        route(0, 0)

    return feasible, best


# ---------------------------------------------------------------------------
# the trace parsed back, and the summary derived from its rows alone


def _optional(parse):
    return lambda cell: None if cell == "" else parse(cell)


def _ticks(cell) -> int:
    """A time cell, always 6 decimals, read exactly as ticks."""
    whole, dot, fraction = cell.partition(".")
    if not dot or len(fraction) != 6:
        raise ValueError(f"time {cell!r} does not have 6 decimals")
    return int(whole + fraction)


# a trace row parsed back: its fields by ``CSV_COLUMNS`` name, the time in ticks
Row = namedtuple("Row", CSV_COLUMNS)

# each column's parser, in ``CSV_COLUMNS`` order; ``cost``,
# ``cum_accept_rate`` and ``latency_proxy`` are empty cells when None
_CELL_PARSERS = (_ticks, str, int, str, _optional(int), _optional(float), float, float,
                 int, int, int, _optional(float))


def parse_trace(text) -> list:
    """The ``Row`` list of a trace's text, each cell of the type the log's
    row held; raises ValueError on a header other than ``CSV_COLUMNS`` or a
    line of another width. A float cell is its repr, so it reads back to
    the same float."""
    header, *lines = text.splitlines()
    if tuple(header.split(",")) != CSV_COLUMNS:
        raise ValueError(f"header {header!r} is not the trace's columns")
    rows = []
    for line in lines:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"line {line!r} does not have {len(CSV_COLUMNS)} cells")
        rows.append(Row(*(parse(cell) for parse, cell in zip(_CELL_PARSERS, cells))))
    return rows


def trace_text(log) -> str:
    """The trace a log has written so far to its text stream (a log built
    with ``trace=io.StringIO()``), the rows it still holds included."""
    trace_hash(log)  # formats the rows the log still holds
    return log.stream.getvalue()


def trace_rows(log) -> list:
    """The rows a log has written so far, parsed back (``trace_text``)."""
    return parse_trace(trace_text(log))


def ordered_sum(values) -> float:
    """Left-to-right float sum from 0.0: one rounded addition per term, in
    order, so an empty input gives 0.0 and a leading -0.0 adds to 0.0. The
    builtin ``sum`` compensates rounding from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def time_weighted(rows, value) -> float:
    """Integrate a per-row step function from t=0 to the last event, over
    that span; with no span, the last row's value, and 0.0 with no rows."""
    if not rows:
        return 0.0
    area = 0.0
    prev_t, prev_v = 0, 0.0
    for row in rows:
        area += prev_v * (row.time - prev_t)
        prev_t, prev_v = row.time, value(row)
    span = rows[-1].time
    return area / span if span else prev_v


def summary_of_rows(rows) -> dict:
    """The fields of ``metrics.statistics``, in its order, derived from the
    rows alone by passes over them: the counts from the outcomes, the
    cumulative counters from the last row, the mean cost and latency over
    the committed rows (``ordered_sum``), and the utilizations by
    ``time_weighted``."""
    arrivals = sum(r.event_kind == "arrival" for r in rows)
    accepted = sum(r.outcome == "accepted" for r in rows)
    cancelled = sum(r.outcome == "rejected-at-commit" for r in rows)
    costs = [r.cost for r in rows if r.event_kind == "commit" and r.outcome == "committed"]
    latencies = [r.latency_proxy for r in rows if r.latency_proxy is not None]
    last = rows[-1] if rows else None
    return {
        "arrivals": arrivals,
        "accepted": accepted - cancelled,
        "rejected": arrivals - accepted,
        "rejected_at_commit": cancelled,
        "acceptance_rate": (accepted - cancelled) / arrivals if arrivals else 0.0,
        "mean_cost_per_accepted": sum(costs) / len(costs) if costs else 0.0,
        "rule_writes": last.rule_writes_cum if last else 0,
        "commit_events": last.commit_events_cum if last else 0,
        "remapped_links": last.remapped_links_cum if last else 0,
        "mean_latency_proxy": ordered_sum(latencies) / len(latencies) if latencies else 0.0,
        "avg_link_utilization": time_weighted(rows, lambda r: r.avg_link_util),
        "avg_switch_utilization": time_weighted(rows, lambda r: r.avg_switch_util),
    }


def acceptance_rate(rows, grouping="by-count", bucket=100):
    """Accepted/arrived ratios bucketed by arrival count or by arrival time.

    ``by-count`` groups each consecutive ``bucket`` arrivals; ``by-time``
    groups arrivals into windows of ``bucket`` time units. A request counts
    as accepted when it was eventually committed. Returns a list of
    (bucket start, rate) pairs. Raises ValueError for an unknown grouping,
    a bucket that is not positive and finite, a by-count bucket that is not
    an integer, and a by-time bucket that rounds to 0 ticks or whose tick
    count overflows.
    """
    if grouping not in ("by-count", "by-time"):
        raise ValueError(f"unknown grouping {grouping!r}")
    if not 0 < bucket < math.inf:  # NaN fails too
        raise ValueError(f"bucket must be positive and finite, got {bucket!r}")
    if grouping == "by-count" and not isinstance(bucket, int):
        raise ValueError(f"by-count bucket must be an integer, got {bucket!r}")
    if grouping == "by-time" and not bucket * TICKS_PER_UNIT < math.inf:
        raise ValueError(f"by-time bucket {bucket!r} overflows the tick count")
    width = bucket if grouping == "by-count" else int(round(bucket * TICKS_PER_UNIT))
    if width == 0:
        raise ValueError(f"by-time bucket {bucket!r} rounds to 0 ticks")
    committed = {r.request_id for r in rows if r.outcome == "committed"}
    arrivals = (r for r in rows if r.event_kind == "arrival")
    groups = {}
    for index, row in enumerate(arrivals):
        key = ((index if grouping == "by-count" else row.time) // width) * bucket
        hit, total = groups.get(key, (0, 0))
        groups[key] = (hit + (row.request_id in committed), total + 1)
    return [(key, hit / total) for key, (hit, total) in sorted(groups.items())]


# ---------------------------------------------------------------------------
# facts of a run, derived from the ledger and the log


def request_state(controller, request_id) -> str:
    """The state of a request: tentative or committed by the ledger, else
    the log's final outcome, "rejected" or "rejected-at-commit", or
    "departed" for a committed request that has left the ledger."""
    if request_id in controller.view.tentative:
        return "tentative"
    if request_id in controller.view.base.committed:
        return "committed"
    outcome = fates(trace_rows(controller.log))[request_id][2]
    return "departed" if outcome == "committed" else outcome


def fates(rows) -> dict:
    """Request id -> [arrival index, arrival ticks, final outcome], read off
    the arrival rows and then the commit rows, whose outcome is final."""
    out = {}
    for r in rows:
        if r.event_kind == "arrival":
            out[r.request_id] = [len(out), r.time, r.outcome]
        elif r.event_kind == "commit":
            out[r.request_id][2] = r.outcome
    return out


def longest_wait(rows) -> int:
    """Largest commit-row time minus arrival time, in ticks, over every
    commit row, cancelled ones included; 0 when nothing was committed."""
    arrived = fates(rows)
    return max(
        (r.time - arrived[r.request_id][1] for r in rows if r.event_kind == "commit"),
        default=0,
    )


def active_counts(rows) -> list:
    """Concurrently committed requests after each row: up at a commit row
    that committed, down at a departure row."""
    active, out = 0, []
    for r in rows:
        if r.event_kind == "commit" and r.outcome == "committed":
            active += 1
        elif r.event_kind == "departure":
            active -= 1
        out.append(active)
    return out


def mean_concurrent_active(rows) -> float:
    """Time-weighted mean number of concurrently committed requests."""
    counts = iter(active_counts(rows))
    return time_weighted(rows, lambda _row: next(counts))


def to_units(ticks) -> float:
    """A tick count in time units, the inverse of ``simulator.to_ticks``."""
    return ticks / TICKS_PER_UNIT


# ---------------------------------------------------------------------------
# The generators drawing through Random's methods


def _drawn_network(stream, switches, edges, spec) -> SubstrateNetwork:
    """The network on ``switches`` and ``edges`` with capacities drawn for
    the switches in order, then bandwidths for the edges in sorted order,
    uniform over the spec's range; unit costs are 1."""
    lo, hi = spec.cap_min, spec.cap_max
    switch_rows = [(u, stream.randint(lo, hi), 1) for u in switches]
    return SubstrateNetwork(switch_rows, [(a, b, stream.randint(lo, hi), 1) for a, b in sorted(edges)])


def random_substrate(stream, n_switches, spec: GeneratorSpec = None) -> SubstrateNetwork:
    """A connected random substrate: random spanning tree plus extra links
    up to roughly average degree 3, resources uniform like the default.
    Each extra link is drawn by rejection: two switches drawn uniformly,
    kept unless they are equal or already linked."""
    if n_switches < 2:
        raise ValueError("need at least 2 switches")
    switches = list(range(1, n_switches + 1))
    edges = set()
    order = switches[:]
    stream.shuffle(order)
    for i in range(1, len(order)):
        edges.add(norm_link(order[i], order[stream.randrange(i)]))
    n = n_switches
    want = min(max(n - 1, round(1.5 * n)), n * (n - 1) // 2)
    while len(edges) < want:
        a = 1 + stream.randrange(n)
        b = 1 + stream.randrange(n)
        if a != b and norm_link(a, b) not in edges:
            edges.add(norm_link(a, b))
    return _drawn_network(stream, switches, edges, spec or GeneratorSpec())


def _prufer_tree(stream, n):
    """Uniform random labeled tree on nodes 0..n-1, as an edge list."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [stream.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append(norm_link(leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(norm_link(heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def gen_virtual_request(stream, spec: GeneratorSpec, request_id, arrival, lifetime) -> VirtualNetworkRequest:
    """One random request: tree plus extra edges, uniform integer demands."""
    n = stream.randint(spec.vnodes_min, spec.vnodes_max)
    links = set(_prufer_tree(stream, n))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in links and stream.random() < spec.edge_prob:
                links.add((a, b))
    node_demands = {
        i: stream.randint(spec.node_demand_min, spec.node_demand_max) for i in range(n)
    }
    link_demands = {
        lk: stream.randint(spec.link_demand_min, spec.link_demand_max)
        for lk in sorted(links)
    }
    return VirtualNetworkRequest(request_id, node_demands, link_demands, arrival, lifetime)
