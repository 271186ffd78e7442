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

Mean utilization is exact. Per kind, with ``L`` the lcm of the totals, the
view keeps one integer numerator ``sum((total_i - residual_i) * (L //
total_i))``, ``L`` times the sum of the per-element utilizations; the mean
is that numerator over ``L * count``, an int division that CPython rounds
correctly, whatever the summation order or the interpreter version.

Committed state lives on ``SubstrateNetwork``; tentative (uncommitted)
reservations live in a ``SubstrateView`` overlay so a batch can be staged,
remapped, and then committed or cancelled atomically. The overlay is the
pending batch, in arrival order. The view is the only writer and auditor
of the ledger: ``SubstrateView.commit`` and ``SubstrateView.release``
change ``committed`` and the committed loads, ``rule_load`` by switch id
and ``link_load`` by link tuple, which restate it by name for the benchmark
only; the view maps indices to names only when it books them. Switch ids
are otherwise read only by the constructor, the parser and messages.

A ``Reservation`` is the one allocation record: ``embed`` builds it with the
units and the cost it computed while it routed, ``reserve`` stages that same
object, a remap move adjusts its link units and cost, and commit and release
read it. Each virtual link's route is a tuple of ``(path, units, ids)``
parts, ``ids`` the link ids that routing walked along ``path``, kept from
the routing kernel to release so no reader derives them again.

A committed record is frozen: ``commit`` makes its node, rule and link unit
maps read-only. The audit keeps its expectation of the committed ledger
between calls and sums the overlay afresh; ``_Expected`` states what it
keeps and why that is as strict as summing everything afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress
from operator import attrgetter, mul, ne, or_, sub
from types import MappingProxyType

# ``hop_bounds`` builds every table in one sweep on substrates up to this
# many switches (V**2 bytes of tables, 4 MiB) ...
SWEEP_MAX_SWITCHES = 2048
# ... whose switch 0 is at most this many hops from every switch, so the
# diameter, and each round count and distance, is at most twice that
SWEEP_MAX_ECC0 = 16


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
    (a, b) -> bandwidth units, a != b, both declared nodes, and the links
    connect the nodes. ``arrival`` >= 0 and ``lifetime`` > 0 are in ticks
    (integer micro-time-units). The constructor checks none of this;
    ``workload.gen_virtual_request``, which builds every simulated request,
    meets it by construction.
    """

    request_id: int
    node_demands: dict
    link_demands: dict
    arrival: int = 0
    lifetime: int = 1

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
    case. ``cost`` is the mapping cost of its current paths. Once committed,
    the three unit maps are read-only.
    """

    request: VirtualNetworkRequest
    node_map: dict
    link_paths: dict
    node_units: dict = field(default_factory=dict)  # switch index -> units
    link_units: dict = field(default_factory=dict)  # link id -> units
    rule_units: dict = field(default_factory=dict)  # switch index -> rule count
    cost: int = 0
    # vlink -> ids of the links that blocked its route when embed routed it
    # (the thin tight links its walk passed over, or every thin link where
    # the A* decided), for links with any; None when unknown. Read once by
    # the remap pass.
    blocked: dict = None

    @property
    def request_id(self) -> int:
        return self.request.request_id


class SubstrateNetwork:
    """Committed resource ledger over a validated substrate topology: totals
    and unit costs by switch index and link id; ``committed`` and the rule
    and link loads by name, which a ``SubstrateView`` writes."""

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

        # bench/run.py:134 and bench/selftest.py:83-90 read these two by
        # name; nothing else needs them, and ROADMAP item 2 removes them
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
        255. Links are undirected, so the same table is the distance to s:
        routing reads it at both ends, at dst for the walk along tight links
        and at src for the A* bound. A clamped distance still changes by at
        most one across a link, which keeps that bound consistent.

        The tables are memoized. On a substrate of at most
        ``SWEEP_MAX_SWITCHES`` switches whose switch 0 is at most
        ``SWEEP_MAX_ECC0`` hops from every switch, the first call fills the
        memo with every switch's table from one sweep (``_swept_hop_bounds``);
        elsewhere, where the sweep would cost more or its tables would not
        fit, each s gets its own breadth-first search on its first call."""
        memo = self._hop_bounds
        bounds = memo.get(s)
        if bounds is None:
            if not memo and len(self.rows) <= SWEEP_MAX_SWITCHES and self._ecc0 <= SWEEP_MAX_ECC0:
                memo.update(enumerate(self._swept_hop_bounds()))
                return memo[s]
            hops = self._hops_from(s)
            bounds = memo[s] = bytes([h if h < 255 else 255 for h in hops])
        return bounds

    def _swept_hop_bounds(self) -> list:
        """Every switch's hop-distance table at once, by switch index, by a
        multi-source breadth-first sweep in bit-parallel lanes (Then et al.,
        "The More the Merrier: Efficient Multi-Source Graph Traversal", VLDB
        2015). Switch v keeps one int ``ball`` with a byte lane per switch:
        lane u is 1 once u is within d hops of v. Each round ORs every
        neighbour's ball into v's, until every ball is ``ones``, all lanes 1;
        a full ball stays full, so it drops out. Lane u of ``ecc[v] * ones -
        total[v]``, where ``total[v]`` sums v's ball over the ``ecc[v]``
        rounds it was short of ``ones``, from round 0 (v alone), counts the
        rounds u was out of reach: the hop distance between u and v. Every
        distance of a connected substrate stays below 256 here, so no lane
        carries into the next, and that int's little-endian bytes are
        ``hop_bounds(v)``."""
        rows = self.rows
        n = len(rows)
        ones = int.from_bytes(b"\x01" * n, "little")
        balls = [1 << 8 * v for v in range(n)]
        total = balls[:]
        ecc = [1] * n
        neighbours = [[u for u, _j, _step in row] for row in rows]
        get = balls.__getitem__
        short = range(n)
        while short:
            grown = [reduce(or_, map(get, neighbours[v]), get(v)) for v in short]
            still = []
            for v, ball in zip(short, grown):
                balls[v] = ball
                if ball != ones:
                    total[v] += ball
                    ecc[v] += 1
                    still.append(v)
            short = still
        return [(e * ones - t).to_bytes(n, "little") for e, t in zip(ecc, total)]

    def _check_connected(self):
        """Raise TopologyError naming one switch of each component that
        switch 0 does not reach; keeps switch 0's eccentricity as ``_ecc0``."""
        hops = self._hops_from(0)
        self._ecc0 = max(hops)
        strays = [i for i, h in enumerate(hops) if h < 0]
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


class _Pending(dict):
    """Request id -> tentative Reservation; a missing id raises
    UnknownRequestError, a KeyError."""

    def __missing__(self, request_id):
        raise UnknownRequestError(request_id)


class SubstrateView:
    """A substrate plus an overlay of tentative (uncommitted) reservations.

    Effective residuals subtract both committed and tentative consumption, so
    staged batch members see each other. ``tentative`` maps request id to
    Reservation in reserve order, and raises UnknownRequestError for an id
    it does not hold; the controller reserves each accepted
    arrival, so this overlay is its pending batch. ``commit`` moves
    one reservation into the committed ledger and installs its flow rules; it
    fails (leaving the reservation tentative) only when rule-memory headroom
    is missing; the committed record's unit maps become read-only. The view
    is the only writer of the base's ``committed`` and loads, and the only
    auditor of the ledger (``_Expected``).

    The view keeps the effective residuals flat, ``capacity_left`` by switch
    index and ``bandwidth_left`` by link id, and the utilization numerators
    ``switch_used`` and ``link_used`` (module docstring), with each
    element's ``L // total`` in ``switch_scale`` and ``link_scale``. They
    start as the totals and 0; ``reserve``, ``commit``, ``release`` and
    ``move_tentative_link`` update only the entries they touch. So every
    ledger change must go through the view: records a base held before the
    view, or changes behind its back, leave the lists stale, and
    ``conservation_violations`` reports it.
    """

    def __init__(self, base: SubstrateNetwork):
        self.base = base
        self.tentative = _Pending()
        self.capacity_left = list(base.capacities)
        self.bandwidth_left = list(base.bandwidths)
        self.switch_scale = _scales(base.capacities)
        self.link_scale = _scales(base.bandwidths)
        self.switch_used = self.link_used = 0
        # what the audit expects of the committed ledger, kept between calls, or None
        self._expected = None

    def _debit(self, node_units, link_units, sign=1):
        """Take (sign 1) or give back (sign -1) units of switches by index
        and of links by id, and the same units, scaled, in the numerators."""
        self.switch_used += _take(self.capacity_left, self.switch_scale, node_units, sign)
        self.link_used += _take(self.bandwidth_left, self.link_scale, link_units, sign)

    def commit(self, request_id) -> bool:
        """Commit a tentative reservation and install its flow rules.

        Returns False (reservation stays tentative, nothing applied) when some
        switch lacks rule-memory headroom. Node and link units never fail
        here: they are already counted in the effective residuals. A
        committed record's ``node_units``, ``rule_units`` and ``link_units``
        are read-only views of its own copies.
        """
        res = self.tentative[request_id]
        rules = {}  # one unit per (virtual link, part, switch on its path)
        for parts in res.link_paths.values():
            for path, _units, _ids in parts:
                for i in path:
                    rules[i] = rules.get(i, 0) + 1
        left = self.capacity_left
        for i, units in rules.items():
            if left[i] < units:
                return False
        # read-only: the audit keeps its committed sums by these very maps
        res.node_units = MappingProxyType(dict(res.node_units))
        res.link_units = MappingProxyType(dict(res.link_units))
        res.rule_units = MappingProxyType(rules)
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
        """Add (sign 1) or remove (sign -1) a reservation's rule and link
        units in the committed loads, mapping each index to the name that
        keys the load. No headroom check is needed: the effective residuals
        already count every unit."""
        base = self.base
        for units, names, load in ((res.rule_units, base.switches, base.rule_load),
                                   (res.link_units, base.links, base.link_load)):
            for i, n in units.items():
                load[names[i]] += sign * n

    def move_tentative_link(self, request_id, vlink, path, ids):
        """Move one single-path virtual link of a tentative reservation onto
        ``path`` (for remap), atomically. ``ids`` are the link ids of
        ``path`` as routing returned them; the ids freed are those its own
        part carries. The units freed from the old path count as headroom,
        and when some link of the new path still lacks it ReservationError
        is raised with nothing applied. The reservation's cost changes by
        ``units`` times the new path's link cost less the old one's. Raises
        UnknownRequestError for an id that is not tentative."""
        res = self.tentative[request_id]
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
        """Audit the ledger; an empty list means every element balances.
        Each switch's rule load and each link's load must equal their
        committed per-request sums, each element's flat residual its total
        less the committed and tentative sums, and neither its committed nor
        its effective residual may be negative. Each kind's utilization
        numerator must equal its recount from the flat residuals; ``_debit``
        moves both together, so a stray debit is reported once, by the
        residual check. The committed sums are the ones ``_Expected`` keeps,
        the tentative ones are summed afresh; whole lists are compared
        first, and when a check fails one pass over the elements names each
        failure, in element order."""
        base = self.base
        switches, links = base.switches, base.links
        derived = [base.capacities, base.bandwidths, self.switch_scale, self.link_scale]
        exp, self._expected = self._expected, None  # derived afresh next call if this raises
        if exp is None or exp.derived != derived:
            exp = _Expected(derived)
        exp.diff(base.committed)
        effective, numerators = exp.effective(self.tentative)
        self._expected = exp
        rule, link = exp.sums
        rule_load, link_load = base.rule_load, base.link_load
        # each load's keys in index order, then its values against the sums
        if (list(rule_load) == switches and list(link_load) == links
                and list(rule_load.values()) == rule and list(link_load.values()) == link
                and min(exp.free[0]) >= 0 and min(exp.free[1]) >= 0
                and self.capacity_left == effective[0] and self.bandwidth_left == effective[1]
                and min(self.capacity_left) >= 0 and min(self.bandwidth_left) >= 0
                and numerators == [self.switch_used, self.link_used]):
            return []
        out = []
        for u, n in zip(switches, rule):
            if rule_load[u] != n:
                out.append(f"switch {u}: rule load {rule_load[u]} != per-request sum {n}")
        for lk, n in zip(links, link):
            if link_load[lk] != n:
                out.append(f"link {lk}: load {link_load[lk]} != per-request sum {n}")
        for kind, names, totals, free, expected, left, scale, used in (
                ("switch", switches, base.capacities, exp.free[0], effective[0],
                 self.capacity_left, self.switch_scale, self.switch_used),
                ("link", links, base.bandwidths, exp.free[1], effective[1],
                 self.bandwidth_left, self.link_scale, self.link_used)):
            for name, f, e, resid in zip(names, free, expected, left):
                if f < 0:
                    out.append(f"{kind} {name}: negative residual {f}")
                if resid != e:
                    out.append(f"{kind} {name}: effective residual {resid} "
                               f"!= total less per-request sums {e}")
                if resid < 0:
                    out.append(f"{kind} {name}: negative effective residual")
            if used != _scaled_used(totals, left, scale):
                out.append(f"{kind} utilization numerator {used} does not match the residuals")
        return out


_UNIT_MAPS = attrgetter("node_units", "rule_units", "link_units")


class _Expected:
    """What the audit expects of a view's committed ledger, kept between
    calls and derived from its records and ``derived``, copies of the
    (switch, link) totals and scales: ``sums``, the committed rule and link
    units by index, the two loads the audit checks, and per kind ``free``,
    the totals less every committed unit, node units included, and
    ``used``, those units times their scales. ``order`` and ``summed`` hold
    each committed record's unit maps as last added, in record order and by
    request id. Each call applies only the records that entered, left or
    changed (``diff``: read-only maps by identity, plain ones by value with
    copies); the audit starts afresh when the totals or scales differ from
    ``derived`` or a call raised. So each kept value equals its fresh sum.
    The overlay, at most one batch, is summed afresh on every call
    (``effective``), so comparing whole lists with the results is as strict
    as summing afresh."""

    def __init__(self, derived):
        self.derived = list(map(list, derived))
        capacities, bandwidths, switch_scale, link_scale = self.derived
        self.free = list(capacities), list(bandwidths)
        rule, link = self.sums = [0] * len(capacities), [0] * len(bandwidths)
        self.used = [0, 0]
        by_switch = self.free[0], switch_scale, 0
        self.targets = (None, *by_switch), (rule, *by_switch), (link, self.free[1], link_scale, 1)
        self.order, self.summed = [], {}

    def diff(self, records):
        """Add in the committed records (request id -> Reservation) that
        entered or changed since the last call, take out those that left or
        changed. A plain map is kept as a copy, so an edit in place differs
        from it at the next call."""
        maps = list(map(_UNIT_MAPS, records.values()))
        if maps == self.order:
            return
        summed = self.summed
        stale = map(ne, map(summed.get, records), maps)  # a new id gets None
        for rid, units in list(compress(zip(records, maps), stale)):
            old = summed.get(rid)
            if old is not None:
                self._add(old, -1)
            self._add(units, 1)
            if not (type(units[0]) is type(units[1]) is type(units[2]) is MappingProxyType):
                units = tuple(map(dict, units))
            summed[rid] = units
        if len(summed) > len(records):  # every id in records is in summed now
            for rid in summed.keys() - records.keys():
                self._add(summed.pop(rid), -1)
        self.order[:] = map(summed.__getitem__, records)

    def _add(self, maps, sign):
        """Add (sign 1) or take out (sign -1) one committed record's maps."""
        for units, (sums, free, scale, k) in zip(maps, self.targets):
            scaled = 0
            for i, n in units.items():
                n *= sign
                free[i] -= n
                scaled += n * scale[i]
                if sums is not None:
                    sums[i] += n
            self.used[k] += scaled

    def effective(self, tentative) -> tuple:
        """Copies of ``free`` and ``used`` less and plus every tentative unit,
        summed afresh: the expected effective residuals and numerators."""
        switch, link = left = list(self.free[0]), list(self.free[1])
        switch_scale, link_scale = self.derived[2:]
        switch_used, link_used = self.used
        for res in tentative.values():
            for i, n in chain(res.node_units.items(), res.rule_units.items()):
                switch[i] -= n
                switch_used += n * switch_scale[i]
            for j, n in res.link_units.items():
                link[j] -= n
                link_used += n * link_scale[j]
        return left, [switch_used, link_used]


def _scales(totals) -> list:
    """``L // total`` for each total, ``L`` the lcm of all of them."""
    whole = math.lcm(*totals)
    return [whole // t for t in totals]


def _scaled_used(totals, left, scale) -> int:
    """A utilization numerator counted afresh: each element's used units,
    ``total - left``, times its scale, summed."""
    return sum(map(mul, map(sub, totals, left), scale))


def _take(left, scale, units, sign) -> int:
    """Take (sign 1) or give back (sign -1) ``units`` by index from
    ``left``; return the numerator's change."""
    used = 0
    for i, n in units.items():
        left[i] -= sign * n
        used += n * scale[i]
    return sign * used


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

