"""End-to-end acceptance gate.

Each test exercises one numbered criterion against the stated tolerance and
prints a single pass/fail line (run with -s to see them as they happen).
"""

import io
import os
import random
import subprocess
import sys
import time

import vnesim.controller
from vnesim.config import RunConfig
from vnesim.embedder import embed
from vnesim.metrics import MetricsLog, summary
from vnesim.netmodel import SubstrateView, norm_link, reserve
from vnesim.run import run_simulation
from vnesim.simulator import (
    RandomStreams,
    draw_interarrival,
    draw_lifetime,
    to_ticks,
)
from vnesim.weights import link_weight, remap_pass
from vnesim.workload import GeneratorSpec, default_substrate, gen_virtual_request, random_substrate

from reference import (
    build_reservation,
    element_rows,
    longest_wait,
    mapping_cost,
    mean_concurrent_active,
    named,
    named_totals,
    oracle_embed,
    path_links,
    residual_bandwidth,
    residual_capacity,
    to_units,
    trace_rows,
    trace_text,
    validate_mapping,
)


def report(label, ok, detail):
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_conservation_fuzz():
    # ≥ 1e5 events across 50 seeds, every boundary audited, under 60 s
    started = time.time()
    events = 0
    for seed in range(50):
        strategy = ("batched", "per-request", "splitting")[seed % 3]
        engine, _ = run_simulation(RunConfig(
            strategy=strategy, requests=1300, seed=seed, check_invariants=True))
        events += engine.events_dispatched
        assert engine.controller.view.conservation_violations() == []
    elapsed = time.time() - started
    report("1 (conservation fuzz)", events >= 100_000 and elapsed < 60.0,
           f"{events} audited events across 50 seeds in {elapsed:.1f}s")


def test_criterion_2_oracle_containment():
    spec = GeneratorSpec(vnodes_min=2, vnodes_max=4, node_demand_min=20,
                         node_demand_max=200, link_demand_min=10,
                         link_demand_max=150, edge_prob=0.6)
    embed_accepts = oracle_feasible = 0
    containment_breaks = validation_breaks = cost_breaks = 0
    for i in range(500):
        rng = random.Random(f"oracle-{i}")
        net = random_substrate(random.Random(f"oracle-net-{i}"), rng.randrange(4, 8), spec)
        req = gen_virtual_request(rng, spec, i, 1, 100)
        view = SubstrateView(net)
        outcome = embed(view, req)
        feasible, best_cost = oracle_embed(net, req)
        if feasible:
            oracle_feasible += 1
        if outcome.accepted:
            embed_accepts += 1
            if not feasible:
                containment_breaks += 1
            if not validate_mapping(view, req, outcome.reservation):
                validation_breaks += 1
            if feasible and best_cost > outcome.reservation.cost:
                cost_breaks += 1
    ratio = embed_accepts / oracle_feasible
    ok = (containment_breaks == 0 and validation_breaks == 0
          and cost_breaks == 0 and ratio >= 0.70)
    report("2 (oracle containment)", ok,
           f"embed {embed_accepts}/500, oracle {oracle_feasible}/500, "
           f"ratio {ratio:.3f} >= 0.70, 0 containment/validation/cost breaks")


def test_criterion_3_cost_exactness():
    def evaluate(net, req, mapping):
        # test-local cost evaluator: unit cost times units, per element
        _capacity, switch_cost, _bandwidth, link_cost = named_totals(net)
        total = 0
        for vn, sw in mapping.node_map.items():
            total += req.node_demands[vn] * switch_cost[sw]
        for parts in mapping.link_paths.values():
            for path, units, _ids in parts:
                for a, b in zip(path, path[1:]):
                    total += units * link_cost[norm_link(a, b)]
        return total

    spec = GeneratorSpec(vnodes_min=2, vnodes_max=4, node_demand_min=1,
                         node_demand_max=30, link_demand_min=1,
                         link_demand_max=20, edge_prob=0.6)
    checked = 0
    i = 0
    while checked < 100:
        rng = random.Random(f"cost-{i}")
        plain = random_substrate(random.Random(f"cost-net-{i}"), 4 + i % 5, spec)
        switches, links = element_rows(plain)
        net = type(plain)([(u, cap, rng.randrange(1, 7)) for u, cap, _cost in switches],
                          [(a, b, bw, rng.randrange(1, 7)) for a, b, bw, _cost in links])
        req = gen_virtual_request(rng, spec, i, 1, 100)
        i += 1
        outcome = embed(SubstrateView(net), req)
        if not outcome.accepted:
            continue
        res = outcome.reservation
        assert mapping_cost(net, req, res) == evaluate(net, req, named(net, res))
        assert res.cost == evaluate(net, req, named(net, res))
        checked += 1
    report("3 (cost exactness)", True,
           f"{checked} mappings match the independent evaluator exactly")


def test_criterion_4_workload_statistics():
    streams = RandomStreams(0)
    n = 100_000
    ia = to_units(sum(draw_interarrival(streams.interarrival) for _ in range(n))) / n
    lt = to_units(sum(draw_lifetime(streams.lifetime) for _ in range(n))) / n
    _, log = run_simulation(RunConfig(
        strategy="per-request", requests=1500, seed=0,
        cap_min=100_000_000, cap_max=250_000_000), trace=io.StringIO())
    concurrent = mean_concurrent_active(trace_rows(log))
    ok = (4.95 <= ia <= 5.05 and 118.8 <= lt <= 121.2 and 21.0 <= concurrent <= 27.0)
    report("4 (workload statistics)", ok,
           f"inter-arrival mean {ia:.3f} in [4.95, 5.05], lifetime mean {lt:.2f} "
           f"in [118.8, 121.2], concurrent {concurrent:.2f} in [21, 27]")


def test_criterion_5_weight_algebra():
    # hand value: demand 10 on a 2-hop path -> 10*2 + 3 = 23 used units
    from vnesim.netmodel import VirtualNetworkRequest
    from conftest import make_net

    net = make_net([1, 2, 3], [(1, 2), (2, 3)])
    req = VirtualNetworkRequest(1, {"a": 1, "b": 1}, {("a", "b"): 10})
    view = SubstrateView(net)
    reserve(view, build_reservation(view, req, {"a": 1, "b": 3}, {("a", "b"): (((1, 2, 3), 10),)}))
    hand = link_weight(view, req, ("a", "b")).used
    assert hand == 23

    spec = GeneratorSpec(vnodes_min=2, vnodes_max=4, node_demand_min=1,
                         node_demand_max=20, link_demand_min=1,
                         link_demand_max=15, edge_prob=0.6)
    records = 0
    for s in range(150):
        rng = random.Random(f"weights-{s}")
        view = SubstrateView(default_substrate(random.Random(f"weights-net-{s}")))
        for rid in range(30):
            req = gen_virtual_request(rng, spec, rid, 1, 100)
            outcome = embed(view, req)
            if not outcome.accepted:
                continue
            reserve(view, outcome.reservation)
            for vl, allocs in named(view, view.tentative[rid]).link_paths.items():
                (path, _units, _ids), = allocs
                rec = link_weight(view, req, vl)
                used = req.link_demands[vl] * (len(path) - 1) + len(path)
                free = sum(residual_bandwidth(view, lk) for lk in path_links(path)) \
                     + sum(max(0, residual_capacity(view, sw) - 1) for sw in path)
                assert rec.weight == used - free == rec.used - rec.free
                records += 1
    report("5 (weight algebra)", records >= 10_000,
           f"hand value 23 exact; W = R - A on {records} fuzzed records")


def test_criterion_6_strategy_trends(monkeypatch):
    started = time.time()
    remap_audit = {"calls": 0, "violations": 0}

    def audited_remap(view):
        link_cost = named_totals(view.base)[3]

        def batch_link_cost():
            total = 0
            for res in view.tentative.values():
                for allocs in named(view, res).link_paths.values():
                    for path, units, _ids in allocs:
                        for lk in path_links(path):
                            total += link_cost[lk] * units
            return total

        before = batch_link_cost()
        changed = remap_pass(view)
        remap_audit["calls"] += 1
        if batch_link_cost() > before:
            remap_audit["violations"] += 1
        return changed

    monkeypatch.setattr(vnesim.controller, "remap_pass", audited_remap)

    results = {}
    for strategy in ("batched", "per-request", "splitting"):
        for seed in range(10):
            _, log = run_simulation(RunConfig(strategy=strategy, requests=1500, seed=seed))
            results[strategy, seed] = summary(log)

    accept_wins = sum(
        results["batched", s]["acceptance_rate"] >= results["splitting", s]["acceptance_rate"]
        for s in range(10))
    cost_wins = sum(
        results["batched", s]["mean_cost_per_accepted"]
        <= results["per-request", s]["mean_cost_per_accepted"]
        for s in range(10))
    commit_wins = sum(
        results["batched", s]["commit_events"] < results["per-request", s]["commit_events"]
        for s in range(10))
    elapsed = time.time() - started

    report("6a (acceptance trend)", accept_wins >= 8,
           f"batched >= splitting on {accept_wins}/10 seeds (need 8)")
    report("6b (cost trend)", cost_wins >= 8,
           f"batched <= per-request on {cost_wins}/10 seeds (need 8)")
    report("6c (commit batching)", commit_wins == 10,
           f"strictly fewer commit events on {commit_wins}/10 seeds")
    report("6d (remap monotonicity)",
           remap_audit["calls"] > 0 and remap_audit["violations"] == 0,
           f"{remap_audit['calls']} remap passes, 0 cost increases; "
           f"trend sweep took {elapsed:.0f}s")


def test_criterion_7_determinism(tmp_path):
    config = RunConfig(requests=200, seed=3)
    first = trace_text(run_simulation(config, trace=io.StringIO())[1])
    second = trace_text(run_simulation(config, trace=io.StringIO())[1])
    assert first == second

    # the CLI processes import the same package as this test
    src = os.path.dirname(os.path.dirname(vnesim.controller.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "vnesim.cli", "run",
             "--requests", "200", "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == first.encode("utf-8")
    report("7 (determinism)", ok,
           "two in-process runs and two CLI processes agree byte for byte")


def test_criterion_8_batch_policy_exactness(monkeypatch):
    class BatchProbe(MetricsLog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.max_tentative = 0

        def record_arrival(self, time, request_id, accepted, cost=None):
            super().record_arrival(time, request_id, accepted, cost)
            self.max_tentative = max(self.max_tentative, len(self.view.tentative))

    monkeypatch.setattr("vnesim.run.MetricsLog", BatchProbe)

    deepest = 0
    for seed in range(10):
        _, log = run_simulation(RunConfig(
            requests=400, seed=seed, batch_size=7, mode="count-only"))
        deepest = max(deepest, log.max_tentative)
    count_ok = deepest == 7  # batches fill to exactly n, never beyond

    # commit-row time minus arrival, cancelled commits included
    longest = 0
    for seed in range(10):
        _, log = run_simulation(RunConfig(requests=400, seed=seed), trace=io.StringIO())
        longest = max(longest, longest_wait(trace_rows(log)))
    window_ok = longest <= to_ticks(25.0)
    report("8 (batch policy exactness)", count_ok and window_ok,
           f"deepest batch {deepest} (n=7); longest tentative wait "
           f"{to_units(longest):.2f} <= window 25.0")
