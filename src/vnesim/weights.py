"""Per-link weight records and the one-pass batch remap.

For every tentatively mapped virtual link the controller scores:

* used resources R: bandwidth the link holds on each path link, plus one
  rule-memory unit for every switch its path transits;
* free resources A: what remains along that same path, summed as effective
  residual bandwidth per path link plus effective residual memory per path
  switch after this link's one-unit rule attribution (clamped at zero);
* weight W = R - A.

Heavier links (large W) sit on scarce resources, so the remap pass processes
them first: each link's reservation is lifted, the cheapest feasible path is
recomputed against everything else, and the new path is adopted only when it
strictly lowers the link's cost contribution, or matches it with a strictly
lower maximum link utilization. Node placements never move.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import embedder
from .netmodel import path_links


@dataclass(frozen=True)
class LinkWeightRecord:
    """Weight snapshot for one tentatively mapped virtual link."""

    request_id: int
    vlink: tuple
    path: tuple
    demand: int
    used: int  # R
    free: int  # A
    weight: int  # W = R - A


def _reserved_single_path(view, request, vlink):
    res = view.tentative_reservation(request.request_id)
    allocs = res.link_paths.get(vlink)
    if allocs is None:
        raise ValueError(f"virtual link {vlink} has no tentative reservation")
    if len(allocs) != 1:
        raise ValueError(f"virtual link {vlink} is split; weights apply to single paths")
    return allocs[0]


def _check_path(view, request, vlink, path):
    reserved_path, units = _reserved_single_path(view, request, vlink)
    if tuple(path) != reserved_path:
        raise ValueError(
            f"path {tuple(path)} does not match the reservation {reserved_path}"
        )
    return reserved_path, units


def used_resources(view, request, vlink, path) -> int:
    """R: bandwidth held per path link plus one rule unit per path switch."""
    path, units = _check_path(view, request, vlink, path)
    hops = len(path) - 1
    return units * hops + len(path)


def free_resources(view, request, vlink, path) -> int:
    """A: effective residuals along the hosting path.

    The link's own bandwidth is already reserved, so link residuals are read
    as-is; its flow rules are not installed until commit, so one memory unit
    per switch is attributed explicitly (never below zero per switch).
    """
    path, _units = _check_path(view, request, vlink, path)
    free = sum(view.residual_bandwidth(lk) for lk in path_links(path))
    free += sum(max(0, view.residual_capacity(sw) - 1) for sw in path)
    return free


def link_weight(view, request, vlink, path) -> LinkWeightRecord:
    path, units = _check_path(view, request, vlink, path)
    used = used_resources(view, request, vlink, path)
    free = free_resources(view, request, vlink, path)
    return LinkWeightRecord(
        request.request_id, vlink, path, units, used, free, used - free
    )


def prioritize(records) -> list:
    """Processing order: descending weight, ties by higher R, then by
    (request id, virtual link id) ascending."""
    return sorted(records, key=lambda r: (-r.weight, -r.used, r.request_id, r.vlink))


def _path_cost(base, path, units):
    return units * sum(base.link_cost[lk] for lk in path_links(path))


def _max_utilization_after(view, path, units):
    """Largest link utilization along path once units are placed on it."""
    base = view.base
    worst = Fraction(0)
    for lk in path_links(path):
        load = base.bandwidth[lk] - view.residual_bandwidth(lk) + units
        worst = max(worst, Fraction(load, base.bandwidth[lk]))
    return worst


def remap_pass(view, requests) -> int:
    """One weight-ordered remap pass over a tentative batch.

    Computes a fresh record for every tentatively mapped virtual link,
    prioritizes once, and re-routes each link in that order. Mutates the
    view's overlay in place and returns the number of links whose path
    actually changed. Total batch cost never increases.
    """
    records = []
    for request in requests:
        res = view.tentative_reservation(request.request_id)
        for vlink in sorted(res.link_paths):
            allocs = res.link_paths[vlink]
            if len(allocs) != 1:
                raise ValueError("remap applies to single-path reservations only")
            records.append(link_weight(view, request, vlink, allocs[0][0]))
    base = view.base
    residual = view.residual_bandwidths()  # kept equal to the view's, link by link
    changed = 0
    for rec in prioritize(records):
        res = view.tentative_reservation(rec.request_id)
        (old_path, units), = view.release_tentative_link(rec.request_id, rec.vlink)
        for j in base.path_link_ids(old_path):
            residual[j] += units
        a, b = rec.vlink
        new_path = embedder._dijkstra(base, residual, res.node_map[a], res.node_map[b], units)
        adopt = False
        if new_path is not None and new_path != old_path:
            old_cost = _path_cost(base, old_path, units)
            new_cost = _path_cost(base, new_path, units)
            if new_cost < old_cost:
                adopt = True
            elif new_cost == old_cost:
                adopt = _max_utilization_after(view, new_path, units) < _max_utilization_after(
                    view, old_path, units
                )
        path = new_path if adopt else old_path
        view.reserve_tentative_link(rec.request_id, rec.vlink, path, units)
        for j in base.path_link_ids(path):
            residual[j] -= units
        changed += adopt
    return changed
