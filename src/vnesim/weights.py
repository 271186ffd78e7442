"""Per-link weight records and the one-pass batch remap.

The pass reads its batch from the view's tentative overlay, the pending
batch in arrival order, and each link's path (switch indices), units and
link ids from the link's own part. For every tentatively mapped virtual link
it scores:

* used resources R: bandwidth the link holds on each path link, plus one
  rule-memory unit for every switch its path transits;
* free resources A: what remains along that same path, summed as effective
  residual bandwidth per path link plus effective residual memory per path
  switch after this link's one-unit rule attribution (clamped at zero);
* weight W = R - A.

Heavier links (large W) sit on scarce resources, so the remap pass processes
them first: the cheapest feasible path of each link is searched again against
everything else, and the new path is adopted only when it strictly lowers the
link's cost contribution, or matches it with a strictly lower maximum link
utilization. The pass lifts each link only in its own flat copy of the
residuals; the view's overlay moves only when a path is adopted. Node
placements never move.

Which links could move. With k = 1, ``embed`` routed a virtual link of demand
d onto P, the (cost, hops, switch sequence) minimum over the substrate links
F = {j : r[j] >= d}, where r is embed's flat residual list at that call,
earlier siblings already debited. The links that blocked it, B
(``Reservation.blocked``), lie in {j : r[j] < d}, so P uses no link of B. In
the pass, let r' be the pass's list when the link is reached, its own units
added back, so every link of P has r'[j] >= d and P is feasible. Suppose
r'[j] < d for every j in B; then the search returns P, the incumbent, and
nothing moves. There are two cases, by what decided P at embed:

* the A*, after the walk dead-ended: B = {j : r[j] < d}. Every j outside B is
  in F, so the feasible set {j : r'[j] >= d} lies inside F and contains P,
  and P stays its minimum.
* the walk, which reached dst: B holds the tight links it passed over as too
  thin. Rows and hop bounds depend on the topology alone, so the walk on r'
  meets, at each switch of P, the same tight links in the same row order.
  Those before P's link were passed over at embed, so they are in B and are
  still too thin; P's link is tight and carries d under r'. So the walk on r'
  takes P's link at every switch and returns P itself.

r' counts units freed by departures, cancellations and earlier moves of the
pass alike. A link with B empty can never move, so the pass neither scores,
sorts nor routes it; leaving it out keeps its own residual round trip, which
nets to zero, and the relative order of the rest, since sorting a subset
keeps its order. Every other link is scored once, at pass start, and routed
only when some j in B has r'[j] >= d. B describes the path embed chose, so
the pass reads it once and clears it; a reservation with B unknown (None) is
scored and routed whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import embedder


@dataclass(frozen=True)
class LinkWeightRecord:
    """Weight snapshot for one tentatively mapped virtual link."""

    request_id: int
    vlink: tuple
    path: tuple  # switch indices
    ids: list  # link ids along path, the part's own list
    demand: int
    used: int  # R
    free: int  # A
    weight: int  # W = R - A


def _single_path(vlink, allocs):
    """The one (path, units, ids) part of a single-path link."""
    if len(allocs) != 1:
        raise ValueError(f"virtual link {vlink} is split; weights apply to single-path links")
    return allocs[0]


def link_weight(view, request, vlink) -> LinkWeightRecord:
    """Score one single-path virtual link on the path its part holds.

    R is the bandwidth held per path link plus one rule unit per path switch.
    A is the effective residuals along the path: the link's own bandwidth is
    already reserved, so link residuals are read as-is; its flow rules are
    not installed until commit, so one memory unit per switch is attributed
    explicitly (never below zero per switch).
    """
    allocs = view.tentative[request.request_id].link_paths.get(vlink)
    if allocs is None:
        raise ValueError(f"virtual link {vlink} has no tentative reservation")
    path, units, ids = _single_path(vlink, allocs)
    used = units * len(ids) + len(path)
    free = sum(view.bandwidth_left[j] for j in ids)
    left = view.capacity_left
    free += sum(max(0, left[i] - 1) for i in path)
    return LinkWeightRecord(request.request_id, vlink, path, ids, units, used, free,
                            used - free)


def _priority(rec):
    """Sort key of the processing order: descending weight, ties by higher
    R, then by (request id, virtual link id) ascending; unique per link."""
    return -rec.weight, -rec.used, rec.request_id, rec.vlink


def _score(base, residual, ids, units):
    """(link cost of units on the links ``ids``, peak link utilization once
    they are placed there); a lower tuple is a better path."""
    bandwidths, link_costs = base.bandwidths, base.link_costs
    cost = units * sum(link_costs[j] for j in ids)
    peak = max(Fraction(bandwidths[j] - residual[j] + units, bandwidths[j]) for j in ids)
    return cost, peak


def remap_pass(view) -> int:
    """One weight-ordered remap pass over the view's tentative batch.

    Computes a fresh record for every tentatively mapped virtual link that
    could move (see the module docstring), sorts them by priority, and
    re-routes each link in that order against a flat copy of the residuals
    with the link's own units added back. Only an adopted path touches the
    view's overlay. Returns the number of links whose path changed. Total
    batch cost never increases.
    """
    pairs = []  # (record, B), B None when unknown
    for res in view.tentative.values():
        blocked, res.blocked = res.blocked, None  # valid for this pass only
        for vlink, allocs in res.link_paths.items():  # any order: _priority is unique
            _single_path(vlink, allocs)  # a split link is refused, skipped or not
            gate = None if blocked is None else blocked.get(vlink, ())
            if gate != ():  # an empty B: nothing blocked its route, it cannot move
                pairs.append((link_weight(view, res.request, vlink), gate))
    base = view.base
    residual = view.bandwidth_left[:]  # equal to the view's between links
    changed = 0
    for rec, gate in sorted(pairs, key=lambda pair: _priority(pair[0])):
        units = rec.demand
        # B and the path share no link, so the add-back leaves B's residuals
        if gate is not None and max(map(residual.__getitem__, gate)) < units:
            continue  # no blocking link can carry it yet: the search returns the incumbent
        ids = rec.ids
        for j in ids:
            residual[j] += units
        node_map = view.tentative[rec.request_id].node_map
        a, b = rec.vlink
        found = embedder._dijkstra(base, residual, node_map[a], node_map[b], units)
        if found is not None and found[0] != rec.path:
            new_path, new_ids = found
            if _score(base, residual, new_ids, units) < _score(base, residual, ids, units):
                view.move_tentative_link(rec.request_id, rec.vlink, new_path, new_ids)
                ids = new_ids
                changed += 1
        for j in ids:
            residual[j] -= units
    return changed
