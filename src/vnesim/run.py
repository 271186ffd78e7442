"""Assemble and execute one simulation from a RunConfig."""

from __future__ import annotations

import math

from .config import ConfigError, RunConfig
from .controller import BatchPolicy, make_controller
from .metrics import MetricsLog
from .simulator import TICKS_PER_UNIT, Engine, RandomStreams, to_ticks
from .workload import arrival_schedule, build_substrate, generate_workload, iter_requests


def run_simulation(config: RunConfig, trace=True):
    """Build substrate, arrival schedule, controller, and engine; run to completion.

    Returns (engine, log); the controller is reachable as engine.controller.
    The engine builds the requests from the schedule as the clock reaches
    them (``workload.iter_requests``), so a run holds the requests in
    flight, not the whole workload. The log makes the trace as the run goes,
    as ``trace`` asks (``MetricsLog``: True, a text stream or False); it is
    whole once ``trace_hash`` or ``summary`` has read the log. The same
    config always produces the same trace, byte for byte.
    """
    config.validate()
    streams = RandomStreams(config.seed)
    spec = config.generator_spec()
    substrate = build_substrate(config.substrate, streams.topology, spec)
    schedule = arrival_schedule(streams, config.requests, config.interarrival_mean,
                                config.lifetime_mean)
    policy = BatchPolicy(
        size=config.batch_size,
        window=to_ticks(config.effective_window()),
        mode=config.mode,
    )
    horizon = to_ticks(config.horizon) if config.horizon is not None else None
    controller = make_controller(config.strategy, substrate, policy, log=None,
                                 split_paths=config.split_paths)
    last = _check_clock(config, schedule, policy.window, horizon, controller.row.policy)
    _check_latency(config, substrate, last)
    _check_cost(config, substrate, spec)
    log = MetricsLog(controller.view, hop_delay=config.hop_delay,
                     wait_delay=config.wait_delay, trace=trace)
    controller.log = log
    engine = Engine(
        controller, iter_requests(streams, spec, schedule),
        horizon=horizon,
        check_invariants=config.check_invariants,
    )
    engine.run()
    return engine, log


def _check_clock(config, schedule, window, horizon, row_policy):
    """Reject a workload whose events run past float range: the metrics
    divide by the last event tick. ``validate`` bounds each draw, but
    many inter-arrival gaps can sum past it. No event comes after the last
    departure or the last arrival's window, nor after the horizon; but a
    batch left pending when the queue drains commits at the horizon
    (``Engine.run``), which only a count-only ``row_policy`` of size > 1
    can leave. Returns that bound on the last event tick, 0 without
    requests."""
    if not schedule:
        return 0
    last = max(schedule[-1][0] + window,
               max(arrival + lifetime for arrival, lifetime in schedule))
    if horizon is not None:
        last = horizon if row_policy.size > 1 and not row_policy.timed else min(last, horizon)
    try:
        float(last)
    except OverflowError:
        raise ConfigError(
            f"interarrival_mean {config.interarrival_mean}: {len(schedule)} arrivals and "
            f"their lifetimes run the clock past float range") from None
    return last


def _check_latency(config, substrate, last):
    """Reject delays whose latency proxies, summed over the run for their
    mean, leave float range. Each request commits at most once, with a proxy
    of at most a simple path's hops times hop_delay plus the time of the last
    event (the ``last`` tick) times wait_delay."""
    hops = config.requests * ((len(substrate.switches) - 1) * config.hop_delay)
    waits = config.requests * ((last / TICKS_PER_UNIT) * config.wait_delay)
    if not math.isfinite(hops + waits):
        name = "hop_delay" if not math.isfinite(hops) else "wait_delay"
        raise ConfigError(f"{name} {getattr(config, name)}: the latency proxies of "
                          f"{config.requests} requests overflow float range summed for their mean")


def _check_cost(config, substrate, spec):
    """Reject unit costs that can take one request's mapping cost past float
    range: the metrics average the costs as floats. A request costs at most
    its node demands times the largest switch cost, plus its link demands
    times a simple path's V - 1 hops at the largest link cost.

    No request has more node demand than ``vnodes_max`` nodes at the most
    each, nor more link demand than all their pairs at the most each; when
    that bound fits a float, so does every request's. Only when it does not
    are the requests generated up front to bound each one."""
    per_node = max(substrate.switch_costs)
    per_link = (len(substrate.switches) - 1) * max(substrate.link_costs)
    n = spec.vnodes_max
    try:
        float(n * spec.node_demand_max * per_node
              + n * (n - 1) // 2 * spec.link_demand_max * per_link)
        return
    except OverflowError:
        pass  # some request might pass float range: bound each one
    requests = generate_workload(RandomStreams(config.seed), spec, config.requests,
                                 config.interarrival_mean, config.lifetime_mean)
    bound = max((sum(r.node_demands.values()) * per_node + sum(r.link_demands.values()) * per_link
                 for r in requests), default=0)
    try:
        float(bound)
    except OverflowError:
        raise ConfigError(f"substrate {config.substrate}: its unit costs can take a request's "
                          f"mapping cost past float range") from None
