"""Self-test of the benchmark. Run from the repository root:

    python3 bench/selftest.py

Checks that the metric names of run.py and tracing.py match
BENCHMARK.json, that a second seed runs clean in both modes, that the exact
counts repeat between two traced processes, that a corrupted ledger or rule
table makes the output check fail the run, and that the benchmark refuses
to run without the package. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from tracing import EXACT_COUNTS, LAYER_METRICS

SEED = 1  # not the seed the benchmark was tuned on
failures = []


def check(ok, what, detail=""):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)
        if detail:
            print(detail)


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def test_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "workloads in BENCHMARK.json are the ones run.py runs")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        f"{s}.{name}": row for s in run.STRATEGIES for name, row in LAYER_METRICS.items()
    }, "per-layer metrics, units and directions in BENCHMARK.json match tracing.py")
    return {m["name"] for m in spec["end_to_end"]}


def test_second_seed_runs_clean(end_to_end):
    code, result, err = bench("--workload", "default", "--seed", str(SEED),
                              "--seconds", "1", "--trace", "0")
    check(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
          f"untraced run on seed {SEED} is correct with no failed run", err[-2000:])
    check(result is not None and set(result["metrics"]) == end_to_end,
          "untraced run reports exactly the end-to-end metrics")


def test_exact_counts_repeat():
    counts = []
    for _ in range(2):
        code, result, err = bench("--workload", "default", "--seed", str(SEED),
                                  "--seconds", "1", "--trace", "1")
        check(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
              f"traced run on seed {SEED} is correct with no failed run", err[-2000:])
        if result is None:
            return
        counts.append({f"{s}.{n}": result["metrics"][f"{s}.{n}"]["value"]
                       for s in run.STRATEGIES for n in EXACT_COUNTS})
    check(counts[0] == counts[1], "exact counts repeat between two traced processes")


def test_corruption_fails_the_run():
    sys.path.insert(0, str(run.SRC))
    vn = run.load_vnesim()
    config = vn.RunConfig(strategy="batched", requests=200, seed=SEED)
    real = vn.run.run_simulation

    def corrupt_link_load(engine):
        base = engine.controller.view.base
        base.link_load[base.links[0]] += 1

    def corrupt_rule_table(engine):
        rules = engine.controller.rules.installed
        rules[next(iter(rules))] += 1

    print("the two FAILED tracebacks that follow are expected", flush=True)
    for corrupt in (corrupt_link_load, corrupt_rule_table):
        def corrupted(cfg):
            engine, log = real(cfg)
            corrupt(engine)
            return engine, log

        tally = run.Tally()
        vn.run.run_simulation = corrupted
        try:
            got = tally.attempt(corrupt.__name__, lambda: run.simulate(vn, config))
        finally:
            vn.run.run_simulation = real
        check(got is None and (tally.attempted, tally.failed) == (1, 1),
              f"{corrupt.__name__} is reported as a failed run")
    tally = run.Tally()
    check(tally.attempt("clean", lambda: run.simulate(vn, config)) is not None
          and tally.failed == 0, "the same run uncorrupted passes the check")


def test_refuses_without_package():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, result, _err = bench("--workload", "default", "--seed", "0",
                                   "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(code != 0 and result is None,
          "without the package the benchmark exits nonzero and prints no result")


def main():
    end_to_end = test_names_match_benchmark_json()
    test_second_seed_runs_clean(end_to_end)
    test_exact_counts_repeat()
    test_corruption_fails_the_run()
    test_refuses_without_package()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
