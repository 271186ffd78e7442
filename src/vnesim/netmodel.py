"""Substrate network model: topology and the integer resource ledger.

The substrate is an undirected graph of switches and links. Every resource is
an integer: switch memory (shared by hosted virtual nodes and installed flow
rules), link bandwidth, and unit costs. Totals and unit costs are flat lists,
by switch index (switch i is ``switches[i]``, and ``switches`` is sorted, so
index order is id order) and by link id (link j is ``links[j]``).
Reservations are tracked per request in the same index form, node maps and
paths included, so that release is exact and the conservation identity

    residual + hosted demands + held rule units == total capacity

can be audited on every element at any event boundary.

Committed state lives on ``SubstrateNetwork``; tentative (uncommitted)
reservations live in a ``SubstrateView`` overlay so a batch can be staged,
remapped, and then committed or cancelled atomically. The overlay is the
pending batch, in arrival order. The view is the only writer and auditor
of the ledger: ``SubstrateView.commit`` and ``SubstrateView.release``
change the committed loads and ``committed``; the network only holds them,
and its ``rule_load`` is the one record of installed flow rules.
The committed loads keep names as keys (``node_load`` and ``rule_load`` by
switch id, ``link_load`` by link tuple); the view maps indices to names only
when it books them. Switch ids are otherwise read only by the constructor,
the parser and messages.

A ``Reservation`` is the one allocation record: ``embed`` builds it with the
units and the cost it computed while it routed, ``reserve`` stages that same
object, a remap move adjusts its link units and cost, and commit and release
read it. Each virtual link's route is a tuple of ``(path, units, ids)``
parts, ``ids`` the link ids that routing walked along ``path``, kept from
the routing kernel to release so no reader derives them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TopologyError(ValueError):
    """Bad topology definition; carries the offending line number if known."""

    def __init__(self, message, line=None, at=None):
        self.line = line
        self.at = at  # ("switch" | "link", index in SubstrateNetwork's input) or None
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ReservationError(RuntimeError):
    """Reservation would drive a residual negative; nothing was applied."""


class UnknownRequestError(KeyError):
    """Request id was never reserved on this ledger."""


def norm_link(a: int, b: int) -> tuple[int, int]:
    """Normalize an undirected link to (low, high) id order."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class VirtualNetworkRequest:
    """A virtual network to embed: demand graph plus arrival and lifetime.

    Demands are strictly positive integers. ``node_demands`` maps virtual
    node id -> memory units, ``link_demands`` maps a normalized virtual link
    (a, b) -> bandwidth units. ``arrival`` and ``lifetime`` are in ticks
    (integer micro-time-units).
    """

    request_id: int
    node_demands: dict
    link_demands: dict
    arrival: int = 0
    lifetime: int = 1

    def __post_init__(self):
        for n, d in self.node_demands.items():
            if not isinstance(d, int) or d <= 0:
                raise ValueError(f"node {n}: demand must be a positive integer, got {d!r}")
        for lk, d in list(self.link_demands.items()):
            a, b = lk
            if a == b:
                raise ValueError(f"virtual link {lk}: self-loop")
            if norm_link(a, b) != lk:
                raise ValueError(f"virtual link {lk}: not normalized")
            if a not in self.node_demands or b not in self.node_demands:
                raise ValueError(f"virtual link {lk}: endpoint not a declared node")
            if not isinstance(d, int) or d <= 0:
                raise ValueError(f"virtual link {lk}: demand must be a positive integer, got {d!r}")
        if self.lifetime <= 0:
            raise ValueError("lifetime must be positive")
        if self.arrival < 0:
            raise ValueError("arrival must be nonnegative")
        if self.node_demands and not self._connected():
            raise ValueError("demand graph is not connected")

    def _connected(self) -> bool:
        nodes = list(self.node_demands)
        adj = {n: [] for n in nodes}
        for a, b in self.link_demands:
            adj[a].append(b)
            adj[b].append(a)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for m in adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return len(seen) == len(nodes)

    @property
    def departure(self) -> int:
        return self.arrival + self.lifetime


@dataclass
class Reservation:
    """One request's allocation: an injective node map plus the paths of
    every virtual link, and the units by index that release subtracts.

    ``node_map``: virtual node -> switch index. ``link_paths``: normalized
    virtual link -> tuple of (path, units, ids) parts, each path a tuple of
    switch indices whose ends host the virtual endpoints, the units summing to
    the link's demand, and ``ids`` the list of link ids along the path as
    routing returned it, never mutated; a single-path link is the one-part
    case. ``cost`` is the mapping cost of its current paths.
    """

    request: VirtualNetworkRequest
    node_map: dict
    link_paths: dict
    node_units: dict = field(default_factory=dict)  # switch index -> units
    link_units: dict = field(default_factory=dict)  # link id -> units
    rule_units: dict = field(default_factory=dict)  # switch index -> rule count
    cost: int = 0
    # vlink -> ids of the links that could not carry it when embed routed it,
    # for links with any; None when unknown. Read once by the remap pass.
    blocked: dict = None

    @property
    def request_id(self) -> int:
        return self.request.request_id


class SubstrateNetwork:
    """Committed resource ledger over a validated substrate topology: totals
    and unit costs by switch index and link id, committed loads by name; a
    ``SubstrateView`` writes the loads and ``committed``."""

    def __init__(self, switches, links):
        """``switches`` holds ``(id, capacity, unit cost)`` rows and ``links``
        ``(a, b, bandwidth, unit cost)`` rows; a link is keyed by
        ``norm_link(a, b)``. Checks every switch, then every link, in input
        order, then that the topology is connected and has a link."""
        # routing settles each switch once, which needs unit costs >= 0
        known = {}
        for i, (u, cap, cost) in enumerate(switches):
            if u in known:
                raise TopologyError(f"duplicate switch {u}", at=("switch", i))
            if cap <= 0:
                raise TopologyError(f"switch {u}: capacity must be positive", at=("switch", i))
            if cost <= 0:
                raise TopologyError(f"switch {u}: unit cost must be positive", at=("switch", i))
            known[u] = cap, cost
        if not known:
            raise TopologyError("topology has no switches")
        seen = {}
        for i, (a, b, bw, cost) in enumerate(links):
            lk = norm_link(a, b)
            if a == b:
                raise TopologyError(f"self-loop on switch {a}", at=("link", i))
            if lk in seen:
                raise TopologyError(f"duplicate link {lk}", at=("link", i))
            if a not in known or b not in known:
                raise TopologyError(f"link {lk} references unknown switch", at=("link", i))
            if bw <= 0:
                raise TopologyError(f"link {lk}: bandwidth must be positive", at=("link", i))
            if cost <= 0:
                raise TopologyError(f"link {lk}: unit cost must be positive", at=("link", i))
            seen[lk] = bw, cost
        self.switches = sorted(known)
        self.capacities = [known[u][0] for u in self.switches]
        self.switch_costs = [known[u][1] for u in self.switches]
        # one tuple object per link, shared by every per-link dict
        self.links = sorted(seen)
        self.bandwidths = [seen[lk][0] for lk in self.links]
        self.link_costs = [seen[lk][1] for lk in self.links]
        self._index()
        self._check_connected()
        if not self.links:
            # a lone switch is connected, but has no link to route over or
            # to average utilization over
            raise TopologyError("topology has no links")

        self.node_load = {u: 0 for u in self.switches}
        self.rule_load = {u: 0 for u in self.switches}
        self.link_load = {l: 0 for l in self.links}
        self.committed = {}

    def _index(self):
        """The integer index routing runs on: switch i is ``switches[i]``,
        link j is ``links[j]``. ``rows[i]`` lists ``(neighbour index, link id,
        step)`` sorted by neighbour, where step packs the link's unit cost c
        and its one hop as ``c * label_base + 1``; since no simple path has
        ``label_base`` hops, summed steps order paths by (cost, hops)."""
        index = {u: i for i, u in enumerate(self.switches)}
        self.label_base = len(self.switches) + 1
        self.min_step = min(self.link_costs, default=1) * self.label_base + 1
        # one int object per distinct step
        steps = {c: c * self.label_base + 1 for c in set(self.link_costs)}
        rows = [[] for _ in self.switches]
        for j, ((a, b), c) in enumerate(zip(self.links, self.link_costs)):
            step = steps[c]
            ia, ib = index[a], index[b]
            rows[ia].append((ib, j, step))
            rows[ib].append((ia, j, step))
        self.rows = [tuple(sorted(row)) for row in rows]
        self._hop_bounds = {}

    def _hops_from(self, s) -> list:
        """Hop distance from switch index s to every switch index; -1 when
        unreachable."""
        rows = self.rows
        hops = [-1] * len(rows)
        hops[s] = 0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for v in frontier:
                for u, _j, _step in rows[v]:
                    if hops[u] < 0:
                        hops[u] = depth
                        reached.append(u)
            frontier = reached
        return hops

    def hop_bounds(self, s) -> bytes:
        """Hop distance from switch index s to each switch index, clamped at
        255, memoized per s. Links are undirected, so the same table is the
        distance to s: routing reads it at both ends, at dst for the walk
        along tight links and at src for the A* bound. A clamped distance
        still changes by at most one across a link, which keeps that bound
        consistent."""
        bounds = self._hop_bounds.get(s)
        if bounds is None:
            hops = self._hops_from(s)
            bounds = self._hop_bounds[s] = bytes([h if h < 255 else 255 for h in hops])
        return bounds

    def _check_connected(self):
        strays = [i for i, h in enumerate(self._hops_from(0)) if h < 0]
        # name one representative per stranded component
        reps = []
        while strays:
            reached = self._hops_from(strays[0])
            reps.append(self.switches[strays[0]])
            strays = [i for i in strays if reached[i] < 0]
        if reps:
            raise TopologyError(
                "topology is disconnected; unreachable component(s) containing "
                + ", ".join(f"switch {r}" for r in reps)
            )


class SubstrateView:
    """A substrate plus an overlay of tentative (uncommitted) reservations.

    Effective residuals subtract both committed and tentative consumption, so
    staged batch members see each other. ``tentative`` maps request id to
    Reservation in reserve order; the controller reserves each accepted
    arrival, so this overlay is its pending batch. ``commit`` moves
    one reservation into the committed ledger and installs its flow rules; it
    fails (leaving the reservation tentative) only when rule-memory headroom
    is missing. The view is the only writer of the base's loads and
    ``committed``, and the only auditor of the ledger.

    The view keeps the effective residuals flat, ``capacity_left`` by switch
    index and ``bandwidth_left`` by link id, with each element's utilization
    term ``1.0 - residual / total`` in ``switch_util`` and ``link_util``;
    ``reserve``, ``commit``, ``release`` and ``move_tentative_link`` update
    only the entries they touch. Every ledger change must therefore go through
    the view: a base mutated behind its back leaves the lists stale, and
    ``conservation_violations`` reports it.
    """

    def __init__(self, base: SubstrateNetwork):
        self.base = base
        self.tentative = {}
        node, rule, link = base.node_load, base.rule_load, base.link_load
        self.capacity_left = [c - node[u] - rule[u] for u, c in zip(base.switches, base.capacities)]
        self.bandwidth_left = [b - link[lk] for lk, b in zip(base.links, base.bandwidths)]
        self.switch_util = [1.0 - r / c for r, c in zip(self.capacity_left, base.capacities)]
        self.link_util = [1.0 - r / b for r, b in zip(self.bandwidth_left, base.bandwidths)]

    def _debit(self, node_units, link_units, sign=1):
        """Take (sign 1) or give back (sign -1) units of switches by index
        and of links by id, recomputing their utilization terms."""
        base = self.base
        for units, totals, left, util in (
            (node_units, base.capacities, self.capacity_left, self.switch_util),
            (link_units, base.bandwidths, self.bandwidth_left, self.link_util),
        ):
            for i, n in units.items():
                r = left[i] = left[i] - sign * n
                util[i] = 1.0 - r / totals[i]

    def commit(self, request_id) -> bool:
        """Commit a tentative reservation and install its flow rules.

        Returns False (reservation stays tentative, nothing applied) when some
        switch lacks rule-memory headroom. Node and link units never fail
        here: they are already counted in the effective residuals.
        """
        res = self.tentative.get(request_id)
        if res is None:
            raise UnknownRequestError(request_id)
        rules = {}  # one unit per (virtual link, part, switch on its path)
        for parts in res.link_paths.values():
            for path, _units, _ids in parts:
                for i in path:
                    rules[i] = rules.get(i, 0) + 1
        left = self.capacity_left
        for i, units in rules.items():
            if left[i] < units:
                return False
        res.rule_units = rules
        self._book(res)
        self.base.committed[request_id] = res
        del self.tentative[request_id]
        self._debit(rules, {})  # node and link units were already debited
        return True

    def release(self, request_id) -> bool:
        """Release a tentative or committed request and return True; raises
        UnknownRequestError for an id that is neither, a released one too."""
        res = self.tentative.pop(request_id, None)
        if res is None:
            res = self.base.committed.pop(request_id, None)
            if res is None:
                raise UnknownRequestError(request_id)
            self._book(res, -1)
            self._debit(res.rule_units, {}, -1)
        self._debit(res.node_units, res.link_units, -1)
        return True

    def _book(self, res, sign=1):
        """Add (sign 1) or remove (sign -1) a reservation's node, rule and
        link units in the committed loads, mapping each index to the name
        that keys the load. No headroom check is needed: the effective
        residuals already count every unit."""
        base = self.base
        for units, names, load in ((res.node_units, base.switches, base.node_load),
                                   (res.rule_units, base.switches, base.rule_load),
                                   (res.link_units, base.links, base.link_load)):
            for i, n in units.items():
                load[names[i]] += sign * n

    def tentative_reservation(self, request_id) -> Reservation:
        res = self.tentative.get(request_id)
        if res is None:
            raise UnknownRequestError(request_id)
        return res

    def move_tentative_link(self, request_id, vlink, path, ids):
        """Move one single-path virtual link of a tentative reservation onto
        ``path`` (for remap), atomically. ``ids`` are the link ids of
        ``path`` as routing returned them; the ids freed are those its own
        part carries. The units freed from the old path count as headroom,
        and when some link of the new path still lacks it ReservationError
        is raised with nothing applied. The reservation's cost changes by
        ``units`` times the new path's link cost less the old one's."""
        res = self.tentative_reservation(request_id)
        (_old, units, freed), = res.link_paths[vlink]
        base = self.base
        for j in ids:
            if self.bandwidth_left[j] + (units if j in freed else 0) < units:
                raise ReservationError(f"link {base.links[j]}: reservation exceeds residual bandwidth")
        link_units = res.link_units
        for j in freed:
            link_units[j] -= units
            if link_units[j] == 0:
                del link_units[j]
        for j in ids:
            link_units[j] = link_units.get(j, 0) + units
        costs = base.link_costs
        res.cost += units * (sum(costs[j] for j in ids) - sum(costs[j] for j in freed))
        self._debit({}, dict.fromkeys(freed, units), -1)
        self._debit({}, dict.fromkeys(ids, units))
        res.link_paths[vlink] = ((path, units, ids),)

    def conservation_violations(self) -> list:
        """Audit the ledger in one pass; an empty list means every element
        balances. The committed and the tentative per-request units are
        summed by index; each element's committed loads must equal the
        committed sums, its flat residual its total less both sums, neither
        its committed nor its effective residual may be negative, and its
        utilization term must match its flat residual."""
        base = self.base
        switches, links = base.switches, base.links
        node, rule, link = _unit_sums(base.committed, len(switches), len(links))
        t_node, t_rule, t_link = _unit_sums(self.tentative, len(switches), len(links))
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
        for kind, names, totals, held, pending, left, util in (
            ("switch", switches, base.capacities, held_sw, pending_sw,
             self.capacity_left, self.switch_util),
            ("link", links, base.bandwidths, link, t_link,
             self.bandwidth_left, self.link_util),
        ):
            for name, total, h, p, resid, term in zip(names, totals, held, pending, left, util):
                if total - h < 0:
                    out.append(f"{kind} {name}: negative residual {total - h}")
                if resid != total - h - p:
                    out.append(f"{kind} {name}: effective residual {resid} "
                               f"!= total less per-request sums {total - h - p}")
                if resid < 0:
                    out.append(f"{kind} {name}: negative effective residual")
                if term != 1.0 - resid / total:
                    out.append(f"{kind} {name}: utilization term {term!r} does not match residual {resid}")
        return out


def _unit_sums(reservations, switches, links) -> tuple:
    """(node, rule, link) units of every reservation in a request id ->
    Reservation dict, summed into lists by switch index and link id."""
    sums = ([0] * switches, [0] * switches, [0] * links)
    for res in reservations.values():
        for units, into in zip((res.node_units, res.rule_units, res.link_units), sums):
            for i, n in units.items():
                into[i] += n
    return sums


def reserve(view: SubstrateView, res: Reservation) -> Reservation:
    """Stage a reservation in the view's tentative overlay, atomically, and
    return it.

    The record is kept as handed, with the units and the cost that ``embed``
    computed. Raises ReservationError (applying nothing) if any element lacks
    headroom or the request is already reserved. ``SubstrateView.commit``
    later moves the reservation into the committed ledger with its flow rules.
    """
    rid = res.request_id
    base = view.base
    if rid in view.tentative or rid in base.committed:
        raise ReservationError(f"request {rid} is already reserved")
    left = view.capacity_left
    for i, units in res.node_units.items():
        if left[i] < units:
            raise ReservationError(f"switch {base.switches[i]}: reservation exceeds residual capacity")
    left = view.bandwidth_left
    for j, units in res.link_units.items():
        if left[j] < units:
            raise ReservationError(f"link {base.links[j]}: reservation exceeds residual bandwidth")
    view._debit(res.node_units, res.link_units)
    view.tentative[rid] = res
    return res

# ---------------------------------------------------------------------------
# topology text format


def parse_topology(text: str) -> SubstrateNetwork:
    """Parse the plain-text topology format.

    One declaration per line; ``#`` starts a comment. Forms:

        switch <id> <capacity> [<unit_cost>]
        link <id_a> <id_b> <bandwidth> [<unit_cost>]

    Unit costs default to 1. Each declaration becomes one of the element
    rows SubstrateNetwork takes, in file order. Raises TopologyError with the
    offending line number: first for an unknown declaration, then for
    malformed switch fields, then link fields, then for the first element
    SubstrateNetwork rejects (for a duplicate, the line of the second
    declaration). A topology with no switches, no links, or more than one
    component raises without a line number.
    """
    switch_lines = []
    link_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "switch":
            switch_lines.append((lineno, tokens[1:]))
        elif tokens[0] == "link":
            link_lines.append((lineno, tokens[1:]))
        else:
            raise TopologyError(f"unknown declaration {tokens[0]!r}", lineno)

    def ints(lineno, tokens, what, count_min, count_max):
        if not count_min <= len(tokens) <= count_max:
            raise TopologyError(f"{what}: expected {count_min}-{count_max} fields, got {len(tokens)}", lineno)
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise TopologyError(f"{what}: fields must be integers", lineno) from None

    # a missing unit cost is 1
    switches = [(ints(lineno, tokens, "switch", 2, 3) + [1])[:3] for lineno, tokens in switch_lines]
    links = [(ints(lineno, tokens, "link", 3, 4) + [1])[:4] for lineno, tokens in link_lines]
    try:
        return SubstrateNetwork(switches, links)
    except TopologyError as exc:
        if exc.at is None:
            raise
        kind, index = exc.at
        lineno = (switch_lines if kind == "switch" else link_lines)[index][0]
        raise TopologyError(str(exc), lineno) from None


def load_topology(path) -> SubstrateNetwork:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TopologyError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_topology(text)

