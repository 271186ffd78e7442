"""Golden trace hashes: the same config must keep producing the same bytes.

Each case pins the ``trace_sha256`` of one run. A refactor or speedup must
leave every hash as it is; a deliberate behaviour change regenerates them in
its own change and says why. Runs are short (400 requests unless stated), so
the whole file takes a few seconds.

Run as a script, ``python tests/test_golden.py`` checks every case without
pytest, so each installed interpreter can be checked; it exits 1 on any
mismatch.
"""

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
from vnesim.metrics import trace_hash
from vnesim.run import run_simulation

RANDOM100 = dict(seed=0, substrate="random:100", interarrival_mean=0.5, requests=300)
SPLIT3 = dict(seed=1, split_paths=3)
COUNT_ONLY = dict(seed=2, mode="count-only")
TIME_ONLY = dict(seed=3, mode="time-only", batch_size=3)
# bandwidth-bound: link demands large enough that links split and remaps adopt
HEAVY = dict(seed=4, requests=300, link_demand_min=40, link_demand_max=120)
# the default 14-switch shape with unit costs from 1 to 4
COSTS14 = dict(seed=0, substrate=str(Path(__file__).resolve().parent / "data" / "costs14.topo"))

GOLDEN = [
    ("batched", dict(seed=0), "1e4d14393ee1953b11cfe366141d823fef44831ebaab857098f36a9bf7f5401b"),
    ("batched", dict(seed=1), "212e8f4b0e1ddb9f171dc7f63a7bd0e733feb7e053334dcc18ff083c45115a78"),
    ("batched", dict(seed=2), "e06c3a954fea17c8379dfadb5f9124c21001d80c241fc8e00749211148605fea"),
    ("batched", dict(seed=3), "230ea311647fdad2f04bc3d98ae65cdf61d291d378382625ac982d9f8167c362"),
    ("batched", dict(seed=4), "e3ec1af3045478494ee9a45e440df3edd274b908dc068b006b6a33b9c633c3c5"),
    ("batched", RANDOM100, "3b4aa8381dda53cafb3ff78a1648ccedf98cb0c2f96f19dae713f9a9e96584dd"),
    ("batched", SPLIT3, "212e8f4b0e1ddb9f171dc7f63a7bd0e733feb7e053334dcc18ff083c45115a78"),
    ("batched", COUNT_ONLY, "fd7155290d2cbc20569faea79520738fb2ac7e0cbfa28cd29c93bea64900486b"),
    ("batched", TIME_ONLY, "8648061e1414b44f60a7a346a64c9e6b23565d6e52cfffa5bb15801b23aca9df"),
    ("batched", HEAVY, "07dad0f4197f46052202d11a7f3f68eb92f39ab7d4df1e79b00d046d1ea2a1f1"),
    ("per-request", dict(seed=0), "42cc431744b30e9d2bee99cfa13086a9152bdd0a20c5a0eac32306052a0b693c"),
    ("per-request", dict(seed=1), "1ae590329b2f257af02ba5dadda6871d04e2f1a016d88e0e4d43640fcaba9a01"),
    ("per-request", dict(seed=2), "ed2aa15957a996927e8ebd155313ba53f1f7c028cf58d7f9d344a12c2852fef8"),
    ("per-request", dict(seed=3), "f59a803958b8eddb63a5e2864f38d1b0fe2cdb769bed236e0308a34a27f8ae64"),
    ("per-request", dict(seed=4), "2960d88d67f511f86221cd5c38e2ac3774dc2bae23ce1a698d8d57f6d6df3880"),
    ("per-request", RANDOM100, "74a36a9b4e2a920e4c8ed6fa3d93b31ee4b479979d55b5af1b51ce2d85789acc"),
    ("per-request", SPLIT3, "1ae590329b2f257af02ba5dadda6871d04e2f1a016d88e0e4d43640fcaba9a01"),
    ("per-request", COUNT_ONLY, "ed2aa15957a996927e8ebd155313ba53f1f7c028cf58d7f9d344a12c2852fef8"),
    ("per-request", TIME_ONLY, "f59a803958b8eddb63a5e2864f38d1b0fe2cdb769bed236e0308a34a27f8ae64"),
    ("per-request", HEAVY, "a8bdf3df09b1da60e62a05db96690265592209051efe9870f0241ac1bff0ce63"),
    ("splitting", dict(seed=0), "ad2d414cd518517539983a775b1202224c471af1728834d4f4789bf02668885c"),
    ("splitting", dict(seed=1), "4c3df9895fb7c22a968ecff8cea25672799b859b43647fbae9784495df188934"),
    ("splitting", dict(seed=2), "ff95b927a07aa2c3251206c7f534be002359091ecfe90c71665a5b3f89a02c55"),
    ("splitting", dict(seed=3), "d16fd5210bbfd37af8385ddc931a30586233553cb90870f3a77007d36dd2e156"),
    ("splitting", dict(seed=4), "84765f10e98d33b8c71d3519225468233a98ba94c784d3e632ded865a0695c30"),
    ("splitting", RANDOM100, "e98d33f387e5d4c0ee75c74e690fb80492aed1a247b2607cb6d080b07f0b5b2f"),
    ("splitting", SPLIT3, "4c3df9895fb7c22a968ecff8cea25672799b859b43647fbae9784495df188934"),
    ("splitting", COUNT_ONLY, "ff95b927a07aa2c3251206c7f534be002359091ecfe90c71665a5b3f89a02c55"),
    ("splitting", TIME_ONLY, "8648061e1414b44f60a7a346a64c9e6b23565d6e52cfffa5bb15801b23aca9df"),
    ("splitting", HEAVY, "54366671ba7135494a2306bc966ecc946983f34cf79f09fbfd573cf3e035f23b"),
    ("splitting", dict(HEAVY, split_paths=1), "f30f72fdb16954f03e7785fb41628232ddb32c3611e586c7b15189e1a2b3c1de"),
    ("splitting", dict(HEAVY, split_paths=3), "1831f7e1989e0f14012f68ab843ab9b151631f4fc2f19bd20a7f5dfb614f44d1"),
    # the one case whose remap adopts a path by the utilization tie-break
    ("batched", dict(HEAVY, seed=2), "9e967c0f26e0bfb288f8bc7c04a9e67e637ae5a291c7286d512488264cba4237"),
    # the horizon moves the last commit: mean_latency_proxy 958.245356, 17.888272 without it
    ("batched", dict(requests=200, seed=3, mode="count-only", horizon=100000),
     "d83279de5f6e81aacbf4b42f35b3c42ab46c463c2c6638af50354b283547b9fd"),
    # costs other than 1 order the routes; the batched remap adopts 2 paths
    ("batched", COSTS14, "9c2747d2982de7b1e5872628dbed28eb787f697c2192e4faa3fd3c2c7ed7dca6"),
    ("per-request", COSTS14, "be93d89f003c4b27f0152bc520bb05764fbecddb2c890817c19c7256a3b0b67b"),
    ("splitting", COSTS14, "23153f363a33219a8e9a35971e5ea9ea4bc5edbeadb21f6d5ff5143af68f127f"),
]


def _case_id(case):
    """The strategy and the overrides; a substrate file by its name alone."""
    strategy, overrides, _ = case
    return strategy + "-" + "-".join(f"{k}={Path(v).name if k == 'substrate' else v}"
                                     for k, v in overrides.items())


@parametrize("strategy,overrides,expected", GOLDEN, ids=[_case_id(c) for c in GOLDEN])
def test_trace_hash_is_unchanged(strategy, overrides, expected):
    config = RunConfig(strategy=strategy, **dict(dict(requests=400), **overrides))
    _, log = run_simulation(config)
    assert trace_hash(log) == expected


def main() -> int:
    if sys.flags.optimize:
        sys.exit("run without -O: the check is an assert")
    failed = 0
    for case in GOLDEN:
        try:
            test_trace_hash_is_unchanged(*case)
        except AssertionError:
            failed += 1
            print("MISMATCH", _case_id(case))
    print(f"Python {sys.version.split()[0]}: {len(GOLDEN) - failed}/{len(GOLDEN)} golden hashes hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
