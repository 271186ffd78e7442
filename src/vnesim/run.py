"""Check, assemble and execute one simulation from a RunConfig.

``check_config`` is the one place that decides whether a config can run;
``run_simulation`` calls it first, and the CLI calls it for every config
before its first line of output. A run holds only the requests in flight:
the arrival schedule is drawn as the clock reaches it, and no check holds
the whole schedule or workload either.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .config import ConfigError, RunConfig
from .controller import BatchPolicy, Controller, strategy_row
from .metrics import MetricsLog
from .simulator import MAX_DRAW_FACTOR, TICKS_PER_UNIT, Engine, RandomStreams, to_ticks
# no run calls generate_workload; bench/tracing.py wraps it here by name
from .workload import build_substrate, generate_workload, iter_requests, iter_schedule

# What check_config found: the run's streams (only the topology stream has
# been drawn from), its substrate, its strategy row and its horizon in ticks.
CheckedConfig = namedtuple("CheckedConfig", "streams spec substrate row horizon")


def check_config(config: RunConfig) -> CheckedConfig:
    """Every check of ``config``, without running it; raises ConfigError,
    or TopologyError or OSError for a topology file, as the run would.

    It validates the fields, builds the substrate and takes the strategy's
    row (no controller, no view), then bounds the clock, the latency
    proxies and the mapping costs against float range."""
    config.validate()
    streams = RandomStreams(config.seed)
    spec = config.generator_spec()
    substrate = build_substrate(config.substrate, streams.topology, spec)
    policy = BatchPolicy(
        size=config.batch_size,
        window=to_ticks(config.effective_window()),
        mode=config.mode,
    )
    row = strategy_row(config.strategy, policy, config.split_paths)
    horizon = to_ticks(config.horizon) if config.horizon is not None else None
    _check_clock(config, substrate, row.policy, horizon)
    _check_cost(config, substrate, spec)
    return CheckedConfig(streams, spec, substrate, row, horizon)


def run_simulation(config: RunConfig, trace=True):
    """Check the config, then build the controller and engine; run to completion.

    Returns (engine, log); the controller is reachable as engine.controller.
    The engine builds the requests from the schedule as the clock reaches
    them (``workload.iter_requests`` over ``workload.iter_schedule``), so a
    run holds the requests in flight, not the whole schedule or workload.
    The log makes the trace as the run goes, as ``trace`` asks
    (``MetricsLog``: True, a text stream or False); it is whole once
    ``trace_hash`` or ``summary`` has read the log. The same config always
    produces the same trace, byte for byte.
    """
    streams, spec, substrate, row, horizon = check_config(config)
    controller = Controller(substrate, row, log=None)
    log = MetricsLog(controller.view, hop_delay=config.hop_delay,
                     wait_delay=config.wait_delay, trace=trace)
    controller.log = log
    schedule = iter_schedule(streams, config.requests, config.interarrival_mean,
                             config.lifetime_mean)
    engine = Engine(
        controller, iter_requests(streams, spec, schedule),
        horizon=horizon,
        check_invariants=config.check_invariants,
    )
    engine.run()
    return engine, log


def _check_clock(config, substrate, row_policy, horizon):
    """Reject a workload whose events run past float range, or whose
    latency proxies do (``_check_latency``): the metrics divide by the last
    event tick. ``validate`` bounds each draw, but many inter-arrival gaps
    can sum past it.

    No event comes after the last departure, nor after the last arrival's
    window when ``row_policy`` is timed (only a timed row schedules window
    triggers), nor after the horizon; but a batch left pending when the
    queue drains commits at the horizon (``Engine.run``), which only a
    count-only ``row_policy`` of size > 1 can leave. No gap or lifetime
    passes its mean's largest draw, so that bound needs no draws; only when
    it fails either check is the schedule drawn afresh, pair by pair, to
    bound the last event exactly. So the check holds no schedule."""
    if not config.requests:
        _check_latency(config, substrate, 0)
        return
    window = row_policy.window if row_policy.timed else 0
    gap_max, life_max = (max(1, to_ticks(MAX_DRAW_FACTOR * mean))
                         for mean in (config.interarrival_mean, config.lifetime_mean))
    try:
        last = _last_tick(config.requests * gap_max + max(window, life_max), row_policy, horizon)
        _check_latency(config, substrate, last)
        return
    except (OverflowError, ConfigError):
        pass  # the draws may still fit: bound the schedule itself
    arrival = departure = 0
    for arrival, lifetime in iter_schedule(RandomStreams(config.seed), config.requests,
                                           config.interarrival_mean, config.lifetime_mean):
        departure = max(departure, arrival + lifetime)
    try:
        last = _last_tick(max(arrival + window, departure), row_policy, horizon)
    except OverflowError:
        raise ConfigError(
            f"interarrival_mean {config.interarrival_mean}: {config.requests} arrivals and "
            f"their lifetimes run the clock past float range") from None
    _check_latency(config, substrate, last)


def _last_tick(last, row_policy, horizon):
    """``last``, the bound on the last event tick without a horizon, under
    ``horizon``; raises OverflowError when it leaves float range."""
    if horizon is not None:
        last = horizon if row_policy.size > 1 and not row_policy.timed else min(last, horizon)
    float(last)
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
    are the requests generated afresh, as the run builds them, to bound each
    one with a running maximum."""
    per_node = max(substrate.switch_costs)
    per_link = (len(substrate.switches) - 1) * max(substrate.link_costs)
    n = spec.vnodes_max
    try:
        float(n * spec.node_demand_max * per_node
              + n * (n - 1) // 2 * spec.link_demand_max * per_link)
        return
    except OverflowError:
        pass  # some request might pass float range: bound each one
    streams = RandomStreams(config.seed)
    schedule = iter_schedule(streams, config.requests, config.interarrival_mean,
                             config.lifetime_mean)
    bound = max((sum(r.node_demands.values()) * per_node + sum(r.link_demands.values()) * per_link
                 for r in iter_requests(streams, spec, schedule)), default=0)
    try:
        float(bound)
    except OverflowError:
        raise ConfigError(f"substrate {config.substrate}: its unit costs can take a request's "
                          f"mapping cost past float range") from None
