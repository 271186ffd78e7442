"""Host-time benchmark of vnesim: µs per simulated event for each strategy.

Run from the repository root:

    python3 bench/run.py --workload default --seed 0 --seconds 30 --trace 0

For one seed, each strategy runs what ``vnesim compare`` runs:
``run_simulation(RunConfig(...))`` and then ``summary(log)``, which builds
the CSV text and its SHA-256. The seed reaches the program only through
``RunConfig.seed``.

On ``random300-loaded`` one ``--seed`` stands for ``SEEDS_PER_RUN`` seeds,
each with its own substrate and requests, run back to back as one run.

``--trace 0`` sets up ``SETUPS`` times, then repeats rounds of one run per
strategy for about ``--seconds`` seconds. Reported per strategy is the host
µs of ``run_simulation`` plus ``summary`` per dispatched event, taken at one
fixed machine speed (see speed.py) and the median over the repeats; the
median set-up time (import of vnesim, ``build_substrate``,
``generate_workload``), taken at that speed too; and the peak resident
memory of the process.

``--trace 1`` runs each strategy untraced and then traced (the wrappers of
tracing.py around the package's functions) for about ``--seconds`` seconds
and reports the per-layer metrics of the fastest traced run, prefixed with
the strategy. Its spans are written to ``.bench_out/``.

Every run's output is checked (see ``output_problems``). A crash or a
failed check counts as a failed run; a simulated rejection does not. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 0 whenever
that line is printed, and 2 when the package cannot be imported and set up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, SpeedClock, probe_time
from tracing import EXACT_COUNTS, LAYER_METRICS, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

STRATEGIES = ("batched", "per-request", "splitting")
SETUPS = 5  # set-ups timed in each --trace 0 run

# RunConfig fields per workload; BENCHMARK.json and README.md say why.
WORKLOADS = {
    "default": {"substrate": "default", "requests": 1500},
    "random300-loaded": {"substrate": "random:300", "requests": 200, "interarrival_mean": 0.5},
    "default-audited": {"substrate": "default", "requests": 1500, "check_invariants": True},
}

# How many seeds one --seed stands for: --seed * k to --seed * k + k - 1.
# Each random300-loaded seed draws its own substrate, and an event's cost
# differs by seed far more than between repeats (README.md, "Noise").
SEEDS_PER_RUN = {"random300-loaded": 6}

OUTCOMES = ("acceptance_rate", "rejected_at_commit", "mean_cost_per_accepted",
            "remapped_links", "trace_sha256")


class CheckFailed(Exception):
    """A run's output failed a correctness check."""


def load_vnesim():
    """Import vnesim from this checkout's src/, replacing any earlier import."""
    for name in [m for m in sys.modules if m == "vnesim" or m.startswith("vnesim.")]:
        del sys.modules[name]
    vn = importlib.import_module("vnesim")
    if Path(vn.__file__).resolve().parent != SRC / "vnesim":
        raise ImportError(f"vnesim imported from {vn.__file__}, not from {SRC}")
    return vn


def run_seeds(workload, seed):
    """The RunConfig seeds that one --seed stands for."""
    k = SEEDS_PER_RUN.get(workload, 1)
    return [seed * k + i for i in range(k)]


def make_configs(vn, workload, strategy, seed):
    return [vn.RunConfig(strategy=strategy, seed=s, **WORKLOADS[workload])
            for s in run_seeds(workload, seed)]


def set_up(workload, seed, after_step=None):
    """Import vnesim, build the substrates and generate the requests.

    ``after_step(seconds)``, when given, is called after each step (the
    import, then each seed's substrate and requests) with the seconds the
    step took; the time it takes itself is left out. Returns the imported
    package and the seconds the steps took.
    """
    steps = []

    def step_done(start):
        steps.append(perf_counter() - start)
        if after_step is not None:
            after_step(steps[-1])
        return perf_counter()

    start = perf_counter()
    vn = load_vnesim()
    start = step_done(start)
    for config in make_configs(vn, workload, STRATEGIES[0], seed):
        streams = vn.RandomStreams(config.seed)
        spec = config.generator_spec()
        vn.workload.build_substrate(config.substrate, streams.topology, spec)
        vn.generate_workload(streams, spec, config.requests,
                             interarrival_mean=config.interarrival_mean,
                             lifetime_mean=config.lifetime_mean)
        start = step_done(start)
    return vn, sum(steps)


def output_problems(engine, log, result, config):
    """Everything wrong with a finished run; an empty list means it is sound."""
    controller = engine.controller
    view = controller.view
    problems = list(view.conservation_violations())
    if controller.rules.installed != view.base.rule_load:
        problems.append("rule table disagrees with the ledger's rule load")
    if controller.pending or view.tentative:
        problems.append(f"{controller.pending} requests still pending, "
                        f"{len(view.tentative)} still in the overlay")
    resolved = result["accepted"] + result["rejected"] + result["rejected_at_commit"]
    if resolved != result["arrivals"]:
        problems.append(f"accepted + rejected + rejected_at_commit = {resolved} "
                        f"!= {result['arrivals']} arrivals")
    if result["arrivals"] != config.requests:
        problems.append(f"{result['arrivals']} arrivals, {config.requests} requests generated")
    return problems


def simulate(vn, config, expect_sha=None, tracer=None):
    """One checked run. Returns (µs per event, summary, engine, log).

    Raises CheckFailed when the output is wrong, or when its trace hash
    differs from ``expect_sha`` (an earlier run of the same config).
    """
    if tracer is not None:
        tracer.install(vn)
    try:
        start = perf_counter()
        engine, log = vn.run.run_simulation(config)
        result = vn.metrics.summary(log)
        elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    problems = output_problems(engine, log, result, config)
    if expect_sha is not None and result["trace_sha256"] != expect_sha:
        problems.append(f"trace_sha256 {result['trace_sha256']} != {expect_sha} of an earlier run")
    if problems:
        raise CheckFailed("; ".join(problems[:5]))
    return elapsed * 1e6 / engine.events_dispatched, result, engine, log


def simulate_all(vn, configs, expect_shas=None, tracer=None):
    """A strategy's configs back to back, each checked as ``simulate`` does.

    Returns the µs per event over all of them, each config's summary, the
    events dispatched in all, and each config's (controller, log).
    """
    seconds, events, results, ledgers = 0.0, 0, [], []
    for config, sha in zip(configs, expect_shas or [None] * len(configs)):
        us, result, engine, log = simulate(vn, config, sha, tracer)
        seconds += us * engine.events_dispatched / 1e6
        events += engine.events_dispatched
        results.append(result)
        ledgers.append((engine.controller, log))
    return seconds * 1e6 / events, results, events, ledgers


def _outcomes(configs, results):
    return [dict(seed=c.seed, **{k: r[k] for k in OUTCOMES}) for c, r in zip(configs, results)]


def _shas(outcomes, strategy):
    return [o["trace_sha256"] for o in outcomes[strategy]] if strategy in outcomes else None


class Tally:
    """Runs attempted and failed; a crash or failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one failed run must not stop the benchmark
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return None


class Budget:
    """The time left for a run's repeats.

    A strategy runs again only while a repeat as long as its last one still
    ends within the budget, so the cheaper strategies fill its end. Every
    strategy runs at least once.
    """

    def __init__(self, seconds):
        self.end = perf_counter() + seconds
        self.last = {}  # strategy -> seconds its last repeat took

    def fits(self, strategy):
        return strategy not in self.last or perf_counter() + self.last[strategy] <= self.end

    def left(self):
        return any(self.fits(s) for s in STRATEGIES)

    def run(self, strategy, fn):
        start = perf_counter()
        try:
            return fn()
        finally:
            self.last[strategy] = perf_counter() - start


def set_up_at_reference(workload, seed):
    """One set-up's seconds at the reference speed of speed.py.

    Each step is divided by the probe time around it: the mean of the
    probe times sampled just before and just after it.
    """
    before, total = probe_time(), 0.0

    def at_reference(seconds):
        nonlocal before, total
        after = probe_time()
        total += seconds * REFERENCE_S * 2 / (before + after)
        before = after

    set_up(workload, seed, at_reference)
    return total


def timed_runs(vn, workload, seed, seconds, tally):
    """``SETUPS`` set-ups, then rounds of one untraced run per strategy.

    Returns the set-up seconds; per strategy, the µs/event of each repeat,
    as timed and at the reference speed of speed.py; and the outcomes.
    """
    setups = [set_up_at_reference(workload, seed) for _ in range(SETUPS)]

    configs = {s: make_configs(vn, workload, s, seed) for s in STRATEGIES}
    timed = {s: [] for s in STRATEGIES}
    at_reference = {s: [] for s in STRATEGIES}
    outcomes = {}

    def timed_run(s):
        clock = SpeedClock()
        run_us, results, events, _ledgers = simulate_all(vn, configs[s], _shas(outcomes, s), clock)
        if len(clock.events) != events:
            raise CheckFailed(f"{len(clock.events)} events timed, {events} dispatched")
        elapsed = run_us * events / 1e6 - clock.probe_seconds()
        cost = clock.cost(elapsed - sum(clock.events))
        return elapsed * 1e6 / events, cost * REFERENCE_S * 1e6 / events, results

    budget = Budget(seconds)
    while budget.left():
        for s in STRATEGIES:
            if not budget.fits(s):
                continue
            got = budget.run(s, lambda: tally.attempt(f"{workload}/{s}", lambda: timed_run(s)))
            if got is not None:
                timed[s].append(got[0])
                at_reference[s].append(got[1])
                outcomes.setdefault(s, _outcomes(configs[s], got[2]))
    return setups, timed, at_reference, outcomes


def traced_runs(vn, workload, seed, seconds, tally):
    """Rounds of one untraced and one traced run per strategy.

    Returns, per strategy, the per-layer metrics of the fastest traced run
    with ``trace_overhead`` added, the outcomes, and that run's tracer.
    """
    configs = {s: make_configs(vn, workload, s, seed) for s in STRATEGIES}
    plain = {s: [] for s in STRATEGIES}
    fastest = {}  # strategy -> (traced µs/event, layer metrics, tracer)
    outcomes = {}

    def traced_run(s):
        tracer = Tracer()
        us, _results, events, ledgers = simulate_all(vn, configs[s], _shas(outcomes, s), tracer)
        layers = layer_metrics(tracer, ledgers)
        problems = []
        if layers["simulator.events"] != events:
            problems.append(f"traced {layers['simulator.events']} handler calls "
                            f"for {events} events")
        for name in EXACT_COUNTS:
            if s in fastest and layers[name] != fastest[s][1][name]:
                problems.append(f"exact count {name} changed from "
                                f"{fastest[s][1][name]} to {layers[name]}")
        if problems:
            raise CheckFailed("; ".join(problems))
        return us, layers, tracer

    def both_runs(s):
        got = tally.attempt(f"{workload}/{s}",
                            lambda: simulate_all(vn, configs[s], _shas(outcomes, s)))
        if got is None:
            return
        plain[s].append(got[0])
        outcomes.setdefault(s, _outcomes(configs[s], got[1]))
        got = tally.attempt(f"{workload}/{s} traced", lambda: traced_run(s))
        if got is not None and (s not in fastest or got[0] < fastest[s][0]):
            fastest[s] = got

    budget = Budget(seconds)
    while budget.left():
        for s in STRATEGIES:
            if budget.fits(s):
                budget.run(s, lambda: both_runs(s))

    layers, tracers = {}, {}
    OUT_DIR.mkdir(exist_ok=True)
    for s, (us, metrics, tracer) in fastest.items():
        layers[s] = dict(metrics, trace_overhead=us / min(plain[s]))
        tracers[s] = tracer
        tracer.write(OUT_DIR / f"spans-{workload}-{s}.csv")
    return layers, outcomes, tracers


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vnesim" / "__init__.py").is_file():
        print(f"error: no vnesim package under {SRC}; run from a vnesim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        vn = set_up(args.workload, args.seed)[0]
    except Exception:  # the program cannot even be set up: no result
        traceback.print_exc()
        return 2
    tally = Tally()

    if args.trace:
        layers, outcomes, tracers = traced_runs(vn, args.workload, args.seed, args.seconds, tally)
        metrics = {
            f"{s}.{name}": _metric(layers[s][name] if s in layers else None, unit)
            for s in STRATEGIES
            for name, (unit, _better) in LAYER_METRICS.items()
        }
        for s, tracer in tracers.items():
            spans = tracer.totals()
            traced_s = sum(own for _calls, _incl, own in spans.values())
            top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:6]
            print(f"{s}: fastest traced run {traced_s:.3f} s; largest self times: "
                  + ", ".join(f"{name} {own:.3f} s ({own / traced_s:.0%})"
                              for name, (_calls, _incl, own) in top))
    else:
        setups, timed, at_reference, outcomes = timed_runs(
            vn, args.workload, args.seed, args.seconds, tally)
        metrics = {f"{s}.us_per_event": _metric(statistics.median(at_reference[s])
                                                if at_reference[s] else None, "us")
                   for s in STRATEGIES}
        for s in STRATEGIES:
            print(f"{s}: {len(timed[s])} runs, us/event as timed "
                  + " ".join(f"{v:.1f}" for v in timed[s]) + "; at the reference speed "
                  + " ".join(f"{v:.1f}" for v in at_reference[s]))
        print("set-ups at the reference speed (s): " + " ".join(f"{v:.4f}" for v in setups))
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print("outcomes: " + json.dumps(outcomes, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    correct = tally.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
