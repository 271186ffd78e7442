"""The span tracer in bench/tracing.py must find every name it wraps.

``Tracer.install`` looks each measured function up by name on the module or
class that the code calls it through, so a renamed or dropped name breaks
every traced benchmark run. This test installs the tracer on the package,
runs each strategy, and checks the spans, the trace bytes and the restore.
"""

import sys
from pathlib import Path

import pytest

import vnesim
from vnesim.config import RunConfig
from vnesim.controller import STRATEGIES
from vnesim.metrics import trace_hash

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402


def run(strategy):
    _, log = vnesim.run.run_simulation(RunConfig(strategy=strategy, requests=100, seed=3))
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
