"""Substrate network model: topology, integer resource ledger, mapping checks.

The substrate is an undirected graph of switches and links. Every resource is
an integer: switch memory (shared by hosted virtual nodes and installed flow
rules), link bandwidth, and unit costs. Reservations are tracked per request
so that release is exact and the conservation identity

    residual + hosted demands + held rule units == total capacity

can be audited on every element at any event boundary.

Committed state lives on ``SubstrateNetwork``; tentative (uncommitted)
reservations live in a ``SubstrateView`` overlay so a batch can be staged,
remapped, and then committed or cancelled atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


NODE_CAPACITY = "node-capacity"
INJECTIVITY = "injectivity"
PATH_EXISTENCE = "path-existence"
PATH_BANDWIDTH = "path-bandwidth"


class TopologyError(ValueError):
    """Bad topology definition; carries the offending line number if known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MappingStructureError(ValueError):
    """Mapping references virtual or substrate elements that do not exist."""


class ReservationError(RuntimeError):
    """Reservation would drive a residual negative; nothing was applied."""


class UnknownRequestError(KeyError):
    """Request id was never reserved on this ledger."""


def norm_link(a: int, b: int) -> tuple[int, int]:
    """Normalize an undirected link to (low, high) id order."""
    return (a, b) if a <= b else (b, a)


def path_links(path) -> list[tuple[int, int]]:
    """Substrate links traversed by a switch sequence."""
    return [norm_link(path[i], path[i + 1]) for i in range(len(path) - 1)]


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


@dataclass(frozen=True)
class Mapping:
    """An embedding: injective node map plus the paths of every virtual link.

    ``node_map``: virtual node -> switch. ``link_paths``: normalized virtual
    link -> tuple of (path, units) parts, each path a tuple of switch ids
    whose ends host the virtual endpoints, the integer units summing to the
    link's demand. A single-path link is the one-part case; this is also the
    form the ledger keeps in ``Reservation.link_paths``.
    """

    node_map: dict
    link_paths: dict


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


@dataclass
class Reservation:
    """Per-request ledger record; the unit dicts are what release subtracts."""

    request_id: int
    node_map: dict
    link_paths: dict  # vlink -> tuple of (path tuple, allocated units)
    node_units: dict = field(default_factory=dict)  # switch -> units
    link_units: dict = field(default_factory=dict)  # link -> units
    rule_units: dict = field(default_factory=dict)  # switch -> rule count

    def hosting_paths(self):
        return [p for _, allocs in sorted(self.link_paths.items()) for p, _ in allocs]


def rule_units_for(link_paths: dict) -> dict:
    """Flow-rule memory per switch: one unit per (virtual link, path, switch)."""
    units = {}
    for vl in link_paths:
        for path, _alloc in link_paths[vl]:
            for sw in path:
                units[sw] = units.get(sw, 0) + 1
    return units


class SubstrateNetwork:
    """Committed resource ledger over a validated substrate topology."""

    def __init__(self, switches, links, capacity, switch_cost, bandwidth, link_cost):
        self.switches = sorted(switches)
        if not self.switches:
            raise TopologyError("topology has no switches")
        if len(set(self.switches)) != len(self.switches):
            raise TopologyError("duplicate switch id")
        known = set(self.switches)
        self.links = []
        seen = set()
        for a, b in links:
            if a == b:
                raise TopologyError(f"self-loop on switch {a}")
            lk = norm_link(a, b)
            if lk in seen:
                raise TopologyError(f"duplicate link {lk}")
            if a not in known or b not in known:
                raise TopologyError(f"link {lk} references unknown switch")
            seen.add(lk)
            self.links.append(lk)
        self.links.sort()
        self.capacity = dict(capacity)
        self.switch_cost = dict(switch_cost)
        self.bandwidth = {norm_link(*l): u for l, u in bandwidth.items()}
        self.link_cost = {norm_link(*l): c for l, c in link_cost.items()}
        # routing settles each switch once, which needs unit costs >= 0
        for u in self.switches:
            if self.capacity.get(u, 0) <= 0:
                raise TopologyError(f"switch {u}: capacity must be positive")
            if self.switch_cost.setdefault(u, 1) <= 0:
                raise TopologyError(f"switch {u}: unit cost must be positive")
        for lk in self.links:
            if self.bandwidth.get(lk, 0) <= 0:
                raise TopologyError(f"link {lk}: bandwidth must be positive")
            if self.link_cost.setdefault(lk, 1) <= 0:
                raise TopologyError(f"link {lk}: unit cost must be positive")

        self.adj = {u: [] for u in self.switches}
        for a, b in self.links:
            self.adj[a].append(b)
            self.adj[b].append(a)
        for u in self.adj:
            self.adj[u].sort()
        self._check_connected()

        self.node_load = {u: 0 for u in self.switches}
        self.rule_load = {u: 0 for u in self.switches}
        self.link_load = {l: 0 for l in self.links}
        self.committed = {}
        self._ever = set()
        self.version = 0

    def _check_connected(self):
        seen = {self.switches[0]}
        stack = [self.switches[0]]
        while stack:
            for m in self.adj[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        if len(seen) != len(self.switches):
            strays = sorted(set(self.switches) - seen)
            # name one representative per stranded component
            reps = []
            while strays:
                rep = strays[0]
                comp = {rep}
                stack = [rep]
                while stack:
                    for m in self.adj[stack.pop()]:
                        if m not in comp:
                            comp.add(m)
                            stack.append(m)
                reps.append(rep)
                strays = [s for s in strays if s not in comp]
            raise TopologyError(
                "topology is disconnected; unreachable component(s) containing "
                + ", ".join(f"switch {r}" for r in reps)
            )

    def residual_capacity(self, u) -> int:
        return self.capacity[u] - self.node_load[u] - self.rule_load[u]

    def residual_bandwidth(self, lk) -> int:
        return self.bandwidth[lk] - self.link_load[lk]

    def commit_reservation(self, res: Reservation):
        """Apply a reservation to the committed ledger, atomically."""
        if res.request_id in self.committed:
            raise ReservationError(f"request {res.request_id} already committed")
        for u, units in res.node_units.items():
            if self.residual_capacity(u) < units + res.rule_units.get(u, 0):
                raise ReservationError(f"switch {u}: reservation exceeds residual capacity")
        for u, units in res.rule_units.items():
            if u not in res.node_units and self.residual_capacity(u) < units:
                raise ReservationError(f"switch {u}: rule units exceed residual capacity")
        for lk, units in res.link_units.items():
            if self.residual_bandwidth(lk) < units:
                raise ReservationError(f"link {lk}: reservation exceeds residual bandwidth")
        for u, units in res.node_units.items():
            self.node_load[u] += units
        for u, units in res.rule_units.items():
            self.rule_load[u] += units
        for lk, units in res.link_units.items():
            self.link_load[lk] += units
        self.committed[res.request_id] = res
        self._ever.add(res.request_id)
        self.version += 1

    def release(self, request_id) -> bool:
        """Release a committed request. Returns False on a repeated release."""
        res = self.committed.pop(request_id, None)
        if res is None:
            if request_id in self._ever:
                return False
            raise UnknownRequestError(request_id)
        for u, units in res.node_units.items():
            self.node_load[u] -= units
        for u, units in res.rule_units.items():
            self.rule_load[u] -= units
        for lk, units in res.link_units.items():
            self.link_load[lk] -= units
        self.version += 1
        return True

    def conservation_violations(self) -> list:
        """Audit the ledger; empty list means every element balances."""
        out = []
        want_node = {u: 0 for u in self.switches}
        want_rule = {u: 0 for u in self.switches}
        want_link = {l: 0 for l in self.links}
        for res in self.committed.values():
            for u, units in res.node_units.items():
                want_node[u] += units
            for u, units in res.rule_units.items():
                want_rule[u] += units
            for lk, units in res.link_units.items():
                want_link[lk] += units
        for u in self.switches:
            if self.node_load[u] != want_node[u] or self.rule_load[u] != want_rule[u]:
                out.append(
                    f"switch {u}: loads ({self.node_load[u]}, {self.rule_load[u]}) "
                    f"!= per-request sums ({want_node[u]}, {want_rule[u]})"
                )
            if self.residual_capacity(u) < 0:
                out.append(f"switch {u}: negative residual {self.residual_capacity(u)}")
            if self.residual_capacity(u) + self.node_load[u] + self.rule_load[u] != self.capacity[u]:
                out.append(f"switch {u}: conservation identity broken")
        for lk in self.links:
            if self.link_load[lk] != want_link[lk]:
                out.append(f"link {lk}: load {self.link_load[lk]} != per-request sum {want_link[lk]}")
            if self.residual_bandwidth(lk) < 0:
                out.append(f"link {lk}: negative residual {self.residual_bandwidth(lk)}")
            if self.residual_bandwidth(lk) + self.link_load[lk] != self.bandwidth[lk]:
                out.append(f"link {lk}: conservation identity broken")
        return out

    def __eq__(self, other):
        if not isinstance(other, SubstrateNetwork):
            return NotImplemented
        return (
            self.switches == other.switches
            and self.links == other.links
            and self.capacity == other.capacity
            and self.switch_cost == other.switch_cost
            and self.bandwidth == other.bandwidth
            and self.link_cost == other.link_cost
            and self.node_load == other.node_load
            and self.rule_load == other.rule_load
            and self.link_load == other.link_load
        )


class SubstrateView:
    """A substrate plus an overlay of tentative (uncommitted) reservations.

    Effective residuals subtract both committed and tentative consumption, so
    staged batch members see each other. ``commit`` moves one reservation into
    the committed ledger and installs its flow rules; it fails (leaving the
    reservation tentative) only when rule-memory headroom is missing.
    """

    def __init__(self, base: SubstrateNetwork):
        self.base = base
        self.t_node_load = {u: 0 for u in base.switches}
        self.t_link_load = {l: 0 for l in base.links}
        self.tentative = {}
        self.overlay_version = 0

    @property
    def switches(self):
        return self.base.switches

    @property
    def links(self):
        return self.base.links

    @property
    def version(self):
        return (self.base.version, self.overlay_version)

    def residual_capacity(self, u) -> int:
        return self.base.residual_capacity(u) - self.t_node_load[u]

    def residual_bandwidth(self, lk) -> int:
        return self.base.residual_bandwidth(lk) - self.t_link_load[lk]

    def commit(self, request_id) -> bool:
        """Commit a tentative reservation and install its flow rules.

        Returns False (reservation stays tentative, nothing applied) when some
        switch lacks rule-memory headroom. Node and link units never fail
        here: they are already counted in the effective residuals.
        """
        res = self.tentative.get(request_id)
        if res is None:
            raise UnknownRequestError(request_id)
        rules = rule_units_for(res.link_paths)
        for u, units in rules.items():
            if self.residual_capacity(u) < units:
                return False
        self._drop_overlay(res)
        res.rule_units = rules
        self.base.commit_reservation(res)
        return True

    def _drop_overlay(self, res):
        for u, units in res.node_units.items():
            self.t_node_load[u] -= units
        for lk, units in res.link_units.items():
            self.t_link_load[lk] -= units
        del self.tentative[res.request_id]
        self.overlay_version += 1

    def release(self, request_id) -> bool:
        res = self.tentative.get(request_id)
        if res is not None:
            self._drop_overlay(res)
            return True
        return self.base.release(request_id)

    def tentative_reservation(self, request_id) -> Reservation:
        res = self.tentative.get(request_id)
        if res is None:
            raise UnknownRequestError(request_id)
        return res

    def release_tentative_link(self, request_id, vlink):
        """Take one virtual link's allocation out of the overlay (for remap)."""
        res = self.tentative_reservation(request_id)
        allocs = res.link_paths.pop(vlink)
        for path, units in allocs:
            for lk in path_links(path):
                res.link_units[lk] -= units
                if res.link_units[lk] == 0:
                    del res.link_units[lk]
                self.t_link_load[lk] -= units
        self.overlay_version += 1
        return allocs

    def reserve_tentative_link(self, request_id, vlink, path, units):
        """Put a (re-routed) virtual link allocation back into the overlay."""
        res = self.tentative_reservation(request_id)
        if vlink in res.link_paths:
            raise ReservationError(f"virtual link {vlink} already reserved")
        path = tuple(path)
        for lk in path_links(path):
            if self.residual_bandwidth(lk) < units:
                raise ReservationError(f"link {lk}: reservation exceeds residual bandwidth")
        for lk in path_links(path):
            res.link_units[lk] = res.link_units.get(lk, 0) + units
            self.t_link_load[lk] += units
        res.link_paths[vlink] = ((path, units),)
        self.overlay_version += 1

    def conservation_violations(self) -> list:
        out = self.base.conservation_violations()
        want_node = {u: 0 for u in self.switches}
        want_link = {l: 0 for l in self.links}
        for res in self.tentative.values():
            for u, units in res.node_units.items():
                want_node[u] += units
            for lk, units in res.link_units.items():
                want_link[lk] += units
        for u in self.switches:
            if self.t_node_load[u] != want_node[u]:
                out.append(f"switch {u}: overlay load {self.t_node_load[u]} != sum {want_node[u]}")
            if self.residual_capacity(u) < 0:
                out.append(f"switch {u}: negative effective residual")
        for lk in self.links:
            if self.t_link_load[lk] != want_link[lk]:
                out.append(f"link {lk}: overlay load {self.t_link_load[lk]} != sum {want_link[lk]}")
            if self.residual_bandwidth(lk) < 0:
                out.append(f"link {lk}: negative effective residual")
        return out


def _check_structure(net, request, mapping):
    node_map, link_paths = mapping.node_map, mapping.link_paths
    if set(node_map) != set(request.node_demands):
        raise MappingStructureError("node map does not cover exactly the request's virtual nodes")
    if set(link_paths) != set(request.link_demands):
        raise MappingStructureError("link map does not cover exactly the request's virtual links")
    known = set(net.switches)
    link_set = set(net.links)
    for vn, sw in node_map.items():
        if sw not in known:
            raise MappingStructureError(f"virtual node {vn} mapped to unknown switch {sw}")
    for vl, parts in link_paths.items():
        for path, _units in parts:
            for sw in path:
                if sw not in known:
                    raise MappingStructureError(f"virtual link {vl}: unknown switch {sw} on path")
            for lk in path_links(path):
                if lk not in link_set:
                    raise MappingStructureError(f"virtual link {vl}: no substrate link {lk}")


def validate_mapping(view, request, mapping) -> ValidationResult:
    """Check a mapping against the four embedding constraints, cumulatively.

    Demands of this request that share a substrate element are summed before
    comparing with the element's effective residual, so an accepted mapping is
    always reservable as-is. Each virtual link's parts must be positive and
    sum to its demand. Structural problems (references to elements that do
    not exist) raise MappingStructureError; constraint problems are returned
    as violations.
    """
    net = view.base if isinstance(view, SubstrateView) else view
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
        if demand > view.residual_capacity(sw):
            violations.append(Violation(
                NODE_CAPACITY, sw,
                f"demand {demand} exceeds residual {view.residual_capacity(sw)}",
            ))

    wanted = {}
    for vl in sorted(mapping.link_paths):
        a, b = vl
        parts = mapping.link_paths[vl]
        units = [n for _, n in parts]
        if sum(units) != request.link_demands[vl] or any(n < 1 for n in units):
            violations.append(Violation(
                PATH_EXISTENCE, vl,
                f"part units {units} must be positive and sum to demand {request.link_demands[vl]}",
            ))
        ends = {mapping.node_map[a], mapping.node_map[b]}
        for path, n in parts:
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
        if wanted[lk] > view.residual_bandwidth(lk):
            violations.append(Violation(
                PATH_BANDWIDTH, lk,
                f"demand {wanted[lk]} exceeds residual {view.residual_bandwidth(lk)}",
            ))

    return ValidationResult(not violations, violations)


def mapping_cost(net, request, mapping) -> int:
    """Embedding cost: host unit cost times node demand, plus link unit cost
    times units on every link of every part's path. Pure in the topology
    (ignores residuals); ``mapping`` may also be a Reservation."""
    base = net.base if isinstance(net, SubstrateView) else net
    cost = 0
    for vn, sw in mapping.node_map.items():
        cost += base.switch_cost[sw] * request.node_demands[vn]
    for parts in mapping.link_paths.values():
        for path, units in parts:
            for lk in path_links(path):
                cost += base.link_cost[lk] * units
    return cost


def reserve(view: SubstrateView, request, mapping, tentative=True) -> Reservation:
    """Reserve a mapping's resources on the view, atomically.

    Tentative reservations go to the view's overlay; otherwise straight into
    the committed ledger. Raises ReservationError (applying nothing) if any
    element lacks headroom or the request is already reserved.
    """
    rid = request.request_id
    if rid in view.tentative or rid in view.base.committed:
        raise ReservationError(f"request {rid} is already reserved")
    node_units = {}
    for vn, sw in mapping.node_map.items():
        node_units[sw] = node_units.get(sw, 0) + request.node_demands[vn]
    link_units = {}
    for parts in mapping.link_paths.values():
        for path, units in parts:
            for lk in path_links(path):
                link_units[lk] = link_units.get(lk, 0) + units
    for u, units in node_units.items():
        if view.residual_capacity(u) < units:
            raise ReservationError(f"switch {u}: reservation exceeds residual capacity")
    for lk, units in link_units.items():
        if view.residual_bandwidth(lk) < units:
            raise ReservationError(f"link {lk}: reservation exceeds residual bandwidth")
    res = Reservation(rid, dict(mapping.node_map), dict(mapping.link_paths), node_units, link_units)
    if tentative:
        for u, units in node_units.items():
            view.t_node_load[u] += units
        for lk, units in link_units.items():
            view.t_link_load[lk] += units
        view.tentative[rid] = res
        view.base._ever.add(rid)
        view.overlay_version += 1
    else:
        view.base.commit_reservation(res)
    return res


# ---------------------------------------------------------------------------
# topology text format


def parse_topology(text: str, origin: str = "<string>") -> SubstrateNetwork:
    """Parse the plain-text topology format.

    One declaration per line; ``#`` starts a comment. Forms:

        switch <id> <capacity> [<unit_cost>]
        link <id_a> <id_b> <bandwidth> [<unit_cost>]

    Unit costs default to 1. Raises TopologyError with the offending line
    number on malformed input, duplicates, self-loops, unknown endpoints,
    non-positive capacities or unit costs, or a disconnected topology.
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

    switches, capacity, switch_cost = [], {}, {}
    for lineno, tokens in switch_lines:
        vals = ints(lineno, tokens, "switch", 2, 3)
        sid, cap = vals[0], vals[1]
        cost = vals[2] if len(vals) == 3 else 1
        if sid in capacity:
            raise TopologyError(f"duplicate switch {sid}", lineno)
        if cap <= 0:
            raise TopologyError(f"switch {sid}: capacity must be positive", lineno)
        if cost <= 0:
            raise TopologyError(f"switch {sid}: unit cost must be positive", lineno)
        switches.append(sid)
        capacity[sid] = cap
        switch_cost[sid] = cost

    links, bandwidth, link_cost = [], {}, {}
    for lineno, tokens in link_lines:
        vals = ints(lineno, tokens, "link", 3, 4)
        a, b, bw = vals[0], vals[1], vals[2]
        cost = vals[3] if len(vals) == 4 else 1
        if a == b:
            raise TopologyError(f"self-loop on switch {a}", lineno)
        lk = norm_link(a, b)
        if lk in bandwidth:
            raise TopologyError(f"duplicate link {lk}", lineno)
        if a not in capacity or b not in capacity:
            raise TopologyError(f"link {lk} references unknown switch", lineno)
        if bw <= 0:
            raise TopologyError(f"link {lk}: bandwidth must be positive", lineno)
        if cost <= 0:
            raise TopologyError(f"link {lk}: unit cost must be positive", lineno)
        links.append(lk)
        bandwidth[lk] = bw
        link_cost[lk] = cost

    if not switches:
        raise TopologyError(f"{origin}: no switches declared")
    return SubstrateNetwork(switches, links, capacity, switch_cost, bandwidth, link_cost)


def load_topology(path) -> SubstrateNetwork:
    with open(path, encoding="utf-8") as fh:
        return parse_topology(fh.read(), origin=str(path))


def topology_text(net: SubstrateNetwork) -> str:
    """Serialize a substrate back to the text format (sorted, reloadable)."""
    lines = ["# substrate topology"]
    for u in net.switches:
        lines.append(f"switch {u} {net.capacity[u]} {net.switch_cost[u]}")
    for a, b in net.links:
        lines.append(f"link {a} {b} {net.bandwidth[(a, b)]} {net.link_cost[(a, b)]}")
    return "\n".join(lines) + "\n"
