"""Golden trace hashes: the same config must keep producing the same bytes.

Each of the 38 cases pins the ``trace_sha256`` of one run. A refactor or speedup must
leave every hash as it is; a deliberate behaviour change regenerates them in
its own change and says why. Each case also checks the run's summary, which
the log folds as it appends rows, against the one derived by passes over its
trace parsed back (``reference.summary_of_rows`` of ``parse_trace``), field
by field by ``repr``, and against the summary of the same run with no
trace (``trace=False``). Runs are short (400 requests unless stated), so the
whole file takes a few seconds.

Run as a script, ``python tests/test_golden.py`` checks every case without
pytest, so each installed interpreter can be checked; it exits 1 on any
mismatch.
"""

import io
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    def parametrize(*_args, **_kwargs):
        return lambda test: test
else:
    import pytest

    parametrize = pytest.mark.parametrize

from vnesim.config import RunConfig
from vnesim.metrics import statistics, trace_hash
from vnesim.run import run_simulation

from reference import parse_trace, summary_of_rows

RANDOM100 = dict(seed=0, substrate="random:100", interarrival_mean=0.5, requests=300)
SPLIT3 = dict(seed=1, split_paths=3)
COUNT_ONLY = dict(seed=2, mode="count-only")
TIME_ONLY = dict(seed=3, mode="time-only", batch_size=3)
# bandwidth-bound: link demands large enough that links split and remaps adopt
HEAVY = dict(seed=4, requests=300, link_demand_min=40, link_demand_max=120)
# the default 14-switch shape with unit costs from 1 to 4
COSTS14 = dict(seed=0, substrate=str(Path(__file__).resolve().parent / "data" / "costs14.topo"))

GOLDEN = [
    ("batched", dict(seed=0), "f71084de8b94cc7c058f2e67d8459ace871e12ce6044f15478f7e04e8c83c769"),
    ("batched", dict(seed=1), "7a7d6e606cd5a1207fa4e67944bd1ce2b7e512ef5397c83a9e26895c8eac5f9a"),
    ("batched", dict(seed=2), "043b9dd20fed7ee112f67efeca025f660504e0b1c265438ae519598e0db80497"),
    ("batched", dict(seed=3), "6707ca76180e8a30607daa276a85b81d57a04e919b61c6a2ff933638de9fd110"),
    ("batched", dict(seed=4), "8dde4bee1dc2c3ea6ace4e820a6c51e288aee8b58e8b73896998650a4f1aa69a"),
    ("batched", RANDOM100, "534b68c08a1bf1698f1c828ec552c578a45c1d55996c556544b8cf7162b42e2f"),
    ("batched", SPLIT3, "7a7d6e606cd5a1207fa4e67944bd1ce2b7e512ef5397c83a9e26895c8eac5f9a"),
    ("batched", COUNT_ONLY, "52e44053f223dc9e41fbab1da2715ea8383f16bde4aa948298ee8634f2e3566c"),
    ("batched", TIME_ONLY, "c7d674e4f83e04b3497735cbb56de922b012ae8bbbd6f9627b745e27e570f031"),
    ("batched", HEAVY, "332dd2ce80ca4a5ebdc6daf0f2e62963407fed16059fdd0b6b0aa69a47c21a2e"),
    ("per-request", dict(seed=0), "352719de5f5ceae831f56b4d258d524252078a81161419ffeb207550df7b1588"),
    ("per-request", dict(seed=1), "45d0234002610b3b4c620c9c34df63c631b39cf8b1f79f7ce4bc790d347c68b8"),
    ("per-request", dict(seed=2), "1d35e661ef47ff799b34766c2969e905d1c507170afdd55817b5d58e362ec0f3"),
    ("per-request", dict(seed=3), "eb185995333934a89eef014d4b2b6cb7f68514640c3c685974d028a3957f0b69"),
    ("per-request", dict(seed=4), "ef6526534de57da6758751b715b6f8390ac6dbd7388cf64fa6556da86e794771"),
    ("per-request", RANDOM100, "c1e0346b01bcaf266ab7cdee249790454d8161e21c1731ffa3661e4855219394"),
    ("per-request", SPLIT3, "45d0234002610b3b4c620c9c34df63c631b39cf8b1f79f7ce4bc790d347c68b8"),
    ("per-request", COUNT_ONLY, "1d35e661ef47ff799b34766c2969e905d1c507170afdd55817b5d58e362ec0f3"),
    ("per-request", TIME_ONLY, "eb185995333934a89eef014d4b2b6cb7f68514640c3c685974d028a3957f0b69"),
    ("per-request", HEAVY, "bf80e03776d6f72f6ecbf9f3bcc7cfbb47456ce5b17493291970544f5b1a2059"),
    ("splitting", dict(seed=0), "a7c1617919e6181283b6e0c63dd9490f5ef7553a03a1c6c791d0b54d1737f15d"),
    ("splitting", dict(seed=1), "477f06dcf5081760520f056660d2b847e58039ea0f7d67198fc4fd15365bb1cd"),
    ("splitting", dict(seed=2), "69ec5c9b21908730ef4a499b9ffc3c66c0cb62d51ef28df109f2eb22a5d847ae"),
    ("splitting", dict(seed=3), "9b7d2f79c8a414202ddd19cf3d13ca7985e980b16b5beb99d5f94ab0b32fe9c9"),
    ("splitting", dict(seed=4), "51be62cf400d0ee4fb5a76f1587b309330b9e602eb797e23045268a29cd3d074"),
    ("splitting", RANDOM100, "ee2c2c9038ba87f85ea635575ebb5968d9dd3ffd8af8178afc5ad51cfeb49867"),
    ("splitting", SPLIT3, "477f06dcf5081760520f056660d2b847e58039ea0f7d67198fc4fd15365bb1cd"),
    ("splitting", COUNT_ONLY, "69ec5c9b21908730ef4a499b9ffc3c66c0cb62d51ef28df109f2eb22a5d847ae"),
    ("splitting", TIME_ONLY, "c7d674e4f83e04b3497735cbb56de922b012ae8bbbd6f9627b745e27e570f031"),
    ("splitting", HEAVY, "fc4e9afdd47ee40a7bcde9a2355d91ccf04523cf08580f193379710cd85630ee"),
    ("splitting", dict(HEAVY, split_paths=1), "453e51a36684106ea7a24888c6b0d56907818fe9a9f6792ebc7acb29f9760297"),
    ("splitting", dict(HEAVY, split_paths=3), "9c4d71bd7c550658ed97b4824876ab585a9a70691706d6798818e5ebb2eea809"),
    # the one case whose remap adopts a path by the utilization tie-break
    ("batched", dict(HEAVY, seed=2), "ee34e1f58c7a04f1aa3e18537d479664385dc32913ba9f2ecf3e7cfcec4e42c4"),
    # the horizon moves the last commit: mean_latency_proxy 958.245356, 17.888272 without it
    ("batched", dict(requests=200, seed=3, mode="count-only", horizon=100000),
     "ee7ed81608f373a87ac3198a29a3bf82c39052d18cf2859b82d7a416c67fabdf"),
    # costs other than 1 order the routes; the batched remap adopts 2 paths
    ("batched", COSTS14, "3ce1c4257b9d779b1038db438cf16f403acb50d90e733b0bf00b9a5bb48feeb4"),
    ("per-request", COSTS14, "231dda4633a2d8aac372a8aa082929cf30b80dcfc9c40310f65f2b208d2e5992"),
    ("splitting", COSTS14, "ffe8851bbc1538862df7491a217599c6893efc7db252ed139508fab77a31bd82"),
    # the benchmark's random300-loaded config: links still blocked at pass
    # start open after a move of the pass, and 6 links move
    ("batched", dict(seed=7, substrate="random:300", interarrival_mean=0.5, requests=200),
     "686a066577faa1fe00e9102fc3f949c18afbc6d1f8ec024108999eff33f7993d"),
]


def _case_id(case):
    """The strategy and the overrides; a substrate file by its name alone."""
    strategy, overrides, _ = case
    return strategy + "-" + "-".join(f"{k}={Path(v).name if k == 'substrate' else v}"
                                     for k, v in overrides.items())


@parametrize("strategy,overrides,expected", GOLDEN, ids=[_case_id(c) for c in GOLDEN])
def test_trace_hash_is_unchanged(strategy, overrides, expected):
    config = RunConfig(strategy=strategy, **dict(dict(requests=400), **overrides))
    text = io.StringIO()
    _, log = run_simulation(config, trace=text)
    assert trace_hash(log) == expected, "trace hash"
    assert repr(statistics(log)) == repr(summary_of_rows(parse_trace(text.getvalue()))), "summary"
    _, untraced = run_simulation(config, trace=False)
    assert repr(statistics(untraced)) == repr(statistics(log)), "summary without a trace"


def main() -> int:
    if sys.flags.optimize:
        sys.exit("run without -O: the check is an assert")
    failed = 0
    for case in GOLDEN:
        try:
            test_trace_hash_is_unchanged(*case)
        except AssertionError as mismatch:
            failed += 1
            print("MISMATCH", _case_id(case), mismatch)
    print(f"Python {sys.version.split()[0]}: {len(GOLDEN) - failed}/{len(GOLDEN)} golden hashes "
          "and summaries hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
