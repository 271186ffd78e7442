"""Command-line interface.

Subcommands:

* ``run``                one simulation; writes the CSV trace, prints a summary
* ``compare``            the three strategies on one seed and workload, side by side
* ``sweep``              repeat runs over seeds or batch sizes, optionally in parallel
* ``validate-topology``  parse and check a topology file, nothing else

Every RunConfig field is settable by flag and by ``--config`` file
(``key = value`` lines); flags win. Every command checks every config it
will run (``run.check_config``) before its first line of output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from multiprocessing import Pool

from .config import ConfigError, RunConfig, _coerce, build_config, parse_config_file
from .controller import _MODES, STRATEGIES
from .metrics import MetricsLog, statistics, summary
from .netmodel import TopologyError, load_topology
from .run import check_config, run_simulation


_HELP = {
    "strategy": f"one of {', '.join(STRATEGIES)}",
    "batch_size": "commit after this many tentative successes (n)",
    "window": "commit window in time units (default 5*n)",
    "mode": f"one of {', '.join(_MODES)}",
    "split_paths": "path budget per virtual link for the splitting strategy",
    "substrate": "'default', 'random:<n>', or a topology file",
    "out": "CSV trace path",
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_config_flags(parser, include_strategy=True):
    """One flag per RunConfig field; values stay text until _config_from_args."""
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    for f in fields(RunConfig):
        if f.name == "strategy" and not include_strategy:
            continue
        if f.type == "bool":
            parser.add_argument(_flag(f.name), dest=f.name, action="store_const",
                                const="true", help=_HELP.get(f.name))
        else:
            parser.add_argument(_flag(f.name), dest=f.name, help=_HELP.get(f.name))


def _config_from_args(args) -> RunConfig:
    """File values, then flags, each coerced and checked like the other."""
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {
        f.name: _coerce(f.name, raw, _flag(f.name))
        for f in fields(RunConfig)
        if (raw := getattr(args, f.name, None)) is not None
    }
    return build_config(file_values, flag_values)


def _format(value):
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _print_summary(stats):
    for key, value in stats.items():
        print(f"{key} {_format(value)}")


def cmd_run(args) -> int:
    config = _config_from_args(args)
    out = config.out or "trace.csv"
    # the trace streams into a file beside --out, which replaces --out only
    # once the run and its summary succeed: a failed run leaves --out as it was
    partial = f"{out}.{os.getpid()}.tmp"
    stream = open(partial, "w", encoding="utf-8", newline="")
    try:
        with stream:
            engine, log = run_simulation(config, trace=stream)
            stats = summary(log)
        os.replace(partial, out)
    except BaseException:
        os.remove(partial)
        raise
    print(f"trace {out}")
    print(f"events {engine.events_dispatched}")
    _print_summary(stats)
    return 0


# the strategy, then the statistics' keys in their order
_COMPARE_COLUMNS = ("strategy", *statistics(MetricsLog(None, trace=False)))


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    configs = [replace(config, strategy=strategy) for strategy in STRATEGIES]
    for strategy_config in configs:
        check_config(strategy_config)
    print(",".join(_COMPARE_COLUMNS))
    for strategy_config in configs:
        _, log = run_simulation(strategy_config, trace=False)
        stats = statistics(log)
        stats["strategy"] = strategy_config.strategy
        print(",".join(_format(stats[c]) for c in _COMPARE_COLUMNS))
    return 0


def _sweep_one(payload):
    kind, value, config = payload
    _, log = run_simulation(config, trace=False)
    stats = statistics(log)
    stats[kind] = value
    return value, stats


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    for flag, value in (("--runs", args.runs), ("--workers", args.workers)):
        if value < 1:
            print(f"{flag} must be at least 1, got {value}", file=sys.stderr)
            return 2
    if args.batch_sizes:
        kind = "batch_size"
        try:
            values = [int(v) for v in args.batch_sizes.split(",")]
        except ValueError:
            print(f"bad --batch-sizes list: {args.batch_sizes!r}", file=sys.stderr)
            return 2
        jobs = [(kind, n, replace(config, batch_size=n)) for n in values]
    else:
        kind = "seed"
        seeds = range(config.seed, config.seed + args.runs)
        jobs = [(kind, s, replace(config, seed=s)) for s in seeds]
    for _, _, job_config in jobs:
        check_config(job_config)

    # the output does not depend on the worker count
    workers = min(args.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(_sweep_one, jobs)
    else:
        results = [_sweep_one(job) for job in jobs]
    results.sort(key=lambda item: item[0])

    columns = (kind,) + _COMPARE_COLUMNS[1:]
    print(",".join(columns))
    for _, stats in results:
        print(",".join(_format(stats[c]) for c in columns))
    return 0


def cmd_validate_topology(args) -> int:
    try:
        net = load_topology(args.path)
    except (TopologyError, OSError) as exc:
        print(f"invalid topology: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {len(net.switches)} switches, {len(net.links)} links, connected")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vnesim",
        description="Online virtual network embedding simulator with a batching, remapping controller.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run all three strategies on the same workload")
    _add_config_flags(p_cmp, include_strategy=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="repeat runs over seeds or batch sizes")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--runs", type=int, default=10,
                         help="number of consecutive seeds from the configured seed")
    p_sweep.add_argument("--batch-sizes", dest="batch_sizes",
                         help="comma list of n values to sweep instead of seeds")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes (at most one per CPU)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate-topology", help="check a topology file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate_topology)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    except (TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
