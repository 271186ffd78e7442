"""Command-line interface.

Subcommands:

* ``run``                one simulation; writes the CSV trace, prints a summary
* ``compare``            the three strategies on one seed and workload, side by side
* ``sweep``              repeat runs over seeds or batch sizes, optionally in parallel
* ``validate-topology``  parse and check a topology file, nothing else

Every RunConfig field is settable by flag and by ``--config`` file
(``key = value`` lines); flags win.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from multiprocessing import Pool

from .config import ConfigError, RunConfig, build_config, parse_config_file
from .controller import STRATEGIES
from .metrics import export_csv, summary
from .netmodel import TopologyError, load_topology
from .run import run_simulation


def _add_config_flags(parser, include_strategy=True):
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    if include_strategy:
        parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--requests", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int,
                        help="commit after this many tentative successes (n)")
    parser.add_argument("--window", type=float,
                        help="commit window in time units (default 5*n)")
    parser.add_argument("--mode", choices=("count-only", "time-only", "whichever-first"))
    parser.add_argument("--split-paths", dest="split_paths", type=int,
                        help="path budget per virtual link for the splitting strategy")
    parser.add_argument("--substrate", help="'default', 'random:<n>', or a topology file")
    parser.add_argument("--interarrival-mean", dest="interarrival_mean", type=float)
    parser.add_argument("--lifetime-mean", dest="lifetime_mean", type=float)
    parser.add_argument("--hop-delay", dest="hop_delay", type=float)
    parser.add_argument("--wait-delay", dest="wait_delay", type=float)
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--out", help="CSV trace path")
    parser.add_argument("--check-invariants", dest="check_invariants",
                        action="store_const", const=True)
    parser.add_argument("--vnodes-min", dest="vnodes_min", type=int)
    parser.add_argument("--vnodes-max", dest="vnodes_max", type=int)
    parser.add_argument("--edge-prob", dest="edge_prob", type=float)
    parser.add_argument("--node-demand-min", dest="node_demand_min", type=int)
    parser.add_argument("--node-demand-max", dest="node_demand_max", type=int)
    parser.add_argument("--link-demand-min", dest="link_demand_min", type=int)
    parser.add_argument("--link-demand-max", dest="link_demand_max", type=int)
    parser.add_argument("--cap-min", dest="cap_min", type=int)
    parser.add_argument("--cap-max", dest="cap_max", type=int)


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {
        key: getattr(args, key)
        for key in RunConfig.__dataclass_fields__
        if hasattr(args, key)
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
    engine, log = run_simulation(config)
    out = config.out or "trace.csv"
    export_csv(log, out)
    print(f"trace {out}")
    print(f"events {engine.events_dispatched}")
    _print_summary(summary(log))
    return 0


_COMPARE_COLUMNS = (
    "strategy", "arrivals", "accepted", "rejected", "rejected_at_commit",
    "acceptance_rate", "mean_cost_per_accepted", "rule_writes",
    "commit_events", "remapped_links", "mean_latency_proxy",
    "avg_link_utilization", "avg_switch_utilization",
)


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    print(",".join(_COMPARE_COLUMNS))
    for strategy in STRATEGIES:
        _, log = run_simulation(replace(config, strategy=strategy))
        stats = summary(log)
        stats["strategy"] = strategy
        print(",".join(_format(stats[c]) for c in _COMPARE_COLUMNS))
    return 0


def _sweep_one(payload):
    kind, value, config = payload
    _, log = run_simulation(config)
    stats = summary(log)
    stats[kind] = value
    return value, stats


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
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
        first, count = args.seed or 0, args.runs
        jobs = [(kind, s, replace(config, seed=s)) for s in range(first, first + count)]
    for _, _, job_config in jobs:
        job_config.validate()

    if args.workers > 1:
        with Pool(args.workers) as pool:
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
                         help="number of consecutive seeds starting at --seed")
    p_sweep.add_argument("--batch-sizes", dest="batch_sizes",
                         help="comma list of n values to sweep instead of seeds")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes")
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
