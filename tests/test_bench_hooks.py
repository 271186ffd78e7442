"""The benchmark in bench/ must find every name it wraps or reads.

``Tracer.install`` looks each measured function up by name on the module or
class that the code calls it through, so a renamed or dropped name breaks
every traced benchmark run. This test installs the tracer on the package,
runs each strategy, and checks the spans, the trace bytes and the restore.
It also runs each strategy through bench/run.py's checked ``simulate`` and
``tracing.layer_metrics``, which read the controller's rule table, pending
count, commit events and overlay, and the log's counts, and through the
timed path that ``speed.SpeedClock`` wraps around ``Engine._dispatch``.
"""

import sys
from pathlib import Path

import pytest

import vnesim
from vnesim.config import RunConfig
from vnesim.controller import STRATEGIES
from vnesim.metrics import trace_hash

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import run as bench_run  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402


def run(strategy):
    # link demands of 40-120 units leave some substrate link unable to carry
    # a virtual link, so batched has links the remap pass must score
    config = RunConfig(
        strategy=strategy, requests=100, seed=3, link_demand_min=40, link_demand_max=120)
    _, log = vnesim.run.run_simulation(config)
    return trace_hash(log)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_run_records_spans_and_keeps_the_trace(strategy):
    untraced = run(strategy)
    tracer = Tracer()
    tracer.install(vnesim)
    patched = list(tracer._patched)
    try:
        traced = run(strategy)
    finally:
        tracer.restore()
    calls = {name: count for name, (count, _, _) in tracer.totals().items()}
    for name in ("embedder.embed", "embedder.dijkstra", "netmodel.commit"):
        assert calls.get(name, 0) > 0, name
    assert calls["embedder.embed"] == 100  # one embed per arrival
    # links_scored and adopt_ratio are read off these spans: only batched remaps
    for name in ("weights.remap_pass", "weights.link_weight"):
        assert (calls.get(name, 0) > 0) == (strategy == "batched"), name
    assert traced == untraced
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
    assert vnesim.controller.embed is vnesim.embedder.embed
    assert vnesim.controller.splitting_embed is vnesim.embedder.embed


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bench_checks_and_layer_metrics_read_the_run(strategy):
    config = RunConfig(strategy=strategy, requests=100, seed=3)
    tracer = Tracer()
    # raises CheckFailed when a check fails, AttributeError when a name it reads is gone
    _us, result, engine, log = bench_run.simulate(vnesim, config, tracer=tracer)
    metrics = layer_metrics(tracer, [(engine.controller, log)])
    assert set(metrics) | {"trace_overhead"} == set(LAYER_METRICS)
    assert metrics["controller.commit_events"] == result["commit_events"] > 0
    assert metrics["controller.tentative_acceptances"] == log.accepted > 0
    assert metrics["controller.batch_size_mean"] == (
        (log.committed + log.cancelled) / log.commit_events)


def test_timed_run_times_every_dispatched_event_and_restores_dispatch():
    # the benchmark's end-to-end numbers come from SpeedClock wrapping
    # Engine._dispatch, as bench/run.py's timed runs install it
    config = RunConfig(strategy="batched", requests=100, seed=3)
    original = vars(vnesim.simulator.Engine)["_dispatch"]
    clock = SpeedClock()
    _us, _results, events, _ledgers = bench_run.simulate_all(vnesim, [config], None, clock)
    assert len(clock.events) == events > 0
    assert clock.probes
    assert vars(vnesim.simulator.Engine)["_dispatch"] is original


@pytest.mark.parametrize("corrupt,audited", [
    pytest.param(corrupt, audited, id=corrupt + ("-audited" if audited else ""))
    for audited in (False, True) for corrupt in ("link_load", "rule_table")])
def test_bench_audit_reports_each_selftest_corruption(corrupt, audited):
    # bench/selftest.py corrupts a finished run in these two ways and expects
    # a failed run; the audit must report each one as a problem, since an
    # exception (say, from a key of another form) would fail the run as well.
    # Unaudited, the check after the run is the view's first audit, as in
    # bench/selftest.py; audited, as on default-audited, it follows one
    # audit per event, whose kept expectation it must check the loads against
    config = RunConfig(strategy="batched", requests=100, seed=3, check_invariants=audited)
    engine, log = vnesim.run.run_simulation(config)
    result = vnesim.metrics.summary(log)
    assert bench_run.output_problems(engine, log, result, config) == []
    if corrupt == "link_load":
        base = engine.controller.view.base
        base.link_load[base.links[0]] += 1
    else:
        rules = engine.controller.rules.installed
        rules[next(iter(rules))] += 1
    assert bench_run.output_problems(engine, log, result, config) != []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_committed_loads_keep_the_key_forms_bench_reads(strategy):
    # bench/selftest.py corrupts `rules[next(iter(rules))]` and
    # `base.link_load[base.links[0]]`, and bench/run.py compares the rule
    # table with the rule load; on a list or on index keys those would still
    # "detect" a corruption, for the wrong reason. bench/ does not read
    # node_load: its form is pinned because the audit's fast path compares
    # its keys with `switches`
    config = RunConfig(strategy=strategy, requests=100, seed=3)
    engine, _log = vnesim.run.run_simulation(config)
    base = engine.controller.view.base
    for by_switch in (engine.controller.rules.installed, base.rule_load, base.node_load):
        assert type(by_switch) is dict and list(by_switch) == base.switches
    assert type(base.link_load) is dict and list(base.link_load) == base.links
