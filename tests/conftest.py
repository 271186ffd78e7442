"""Shared fixtures: small hand-built substrates used across test modules."""

import pytest

from vnesim.netmodel import SubstrateNetwork


def make_net(switches, links, caps=None, bws=None, switch_costs=None, link_costs=None):
    """SubstrateNetwork with per-element overrides and unit-cost defaults."""
    caps = caps or {}
    bws = bws or {}
    switch_costs = switch_costs or {}
    link_costs = link_costs or {}
    return SubstrateNetwork(
        [(u, caps.get(u, 100), switch_costs.get(u, 1)) for u in switches],
        [(a, b, bws.get((a, b), 100), link_costs.get((a, b), 1)) for a, b in links],
    )

@pytest.fixture
def triangle():
    """Three switches, all pairs linked, capacity 100 everywhere."""
    return make_net([1, 2, 3], [(1, 2), (1, 3), (2, 3)])


@pytest.fixture
def line3():
    """1 - 2 - 3 path substrate, capacity 100 everywhere."""
    return make_net([1, 2, 3], [(1, 2), (2, 3)])
