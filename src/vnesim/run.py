"""Assemble and execute one simulation from a RunConfig."""

from __future__ import annotations

import math

from .config import ConfigError, RunConfig
from .controller import BatchPolicy, make_controller
from .metrics import MetricsLog
from .simulator import TICKS_PER_UNIT, Engine, RandomStreams, to_ticks
from .workload import build_substrate, generate_workload


def run_simulation(config: RunConfig):
    """Build substrate, workload, controller, and engine; run to completion.

    Returns (engine, log); the controller is reachable as engine.controller.
    The same config always produces the same trace, byte for byte.
    """
    config.validate()
    streams = RandomStreams(config.seed)
    spec = config.generator_spec()
    substrate = build_substrate(config.substrate, streams.topology, spec)
    requests = generate_workload(
        streams, spec, config.requests,
        interarrival_mean=config.interarrival_mean,
        lifetime_mean=config.lifetime_mean,
    )
    policy = BatchPolicy(
        size=config.batch_size,
        window=to_ticks(config.effective_window()),
        mode=config.mode,
    )
    horizon = to_ticks(config.horizon) if config.horizon is not None else None
    last = _check_clock(config, requests, policy.window, horizon)
    _check_latency(config, substrate, requests, last)
    _check_cost(config, substrate, requests)
    controller = make_controller(config.strategy, substrate, policy, log=None,
                                 split_paths=config.split_paths)
    log = MetricsLog(controller.view, hop_delay=config.hop_delay,
                     wait_delay=config.wait_delay)
    controller.log = log
    engine = Engine(
        controller, requests,
        horizon=horizon,
        check_invariants=config.check_invariants,
    )
    engine.run()
    return engine, log


def _check_clock(config, requests, window, horizon):
    """Reject a workload whose events run past float range: the metrics
    divide by the last event tick. ``validate`` bounds each draw, but
    many inter-arrival gaps can sum past it. No event comes after the last
    departure or the last arrival's window, nor after the horizon. Returns
    that bound on the last event tick, 0 without requests."""
    if not requests:
        return 0
    last = max(requests[-1].arrival + window, max(r.departure for r in requests))
    if horizon is not None:
        last = min(last, horizon)
    try:
        float(last)
    except OverflowError:
        raise ConfigError(
            f"interarrival_mean {config.interarrival_mean}: {len(requests)} arrivals and "
            f"their lifetimes run the clock past float range") from None
    return last


def _check_latency(config, substrate, requests, last):
    """Reject delays whose latency proxies, summed over the run for their
    mean, leave float range. Each request commits at most once, with a proxy
    of at most a simple path's hops times hop_delay plus the time of the last
    event (the ``last`` tick) times wait_delay."""
    hops = len(requests) * ((len(substrate.switches) - 1) * config.hop_delay)
    waits = len(requests) * ((last / TICKS_PER_UNIT) * config.wait_delay)
    if not math.isfinite(hops + waits):
        name = "hop_delay" if not math.isfinite(hops) else "wait_delay"
        raise ConfigError(f"{name} {getattr(config, name)}: the latency proxies of "
                          f"{len(requests)} requests overflow float range summed for their mean")


def _check_cost(config, substrate, requests):
    """Reject unit costs that can take one request's mapping cost past float
    range: the metrics average the costs as floats. A request costs at most
    its node demands times the largest switch cost, plus its link demands
    times a simple path's V - 1 hops at the largest link cost."""
    per_node = max(substrate.switch_costs)
    per_link = (len(substrate.switches) - 1) * max(substrate.link_costs)
    bound = max((sum(r.node_demands.values()) * per_node + sum(r.link_demands.values()) * per_link
                 for r in requests), default=0)
    try:
        float(bound)
    except OverflowError:
        raise ConfigError(f"substrate {config.substrate}: its unit costs can take a request's "
                          f"mapping cost past float range") from None
