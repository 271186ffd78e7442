"""The golden trace hashes under each other installed Python, 3.10 to 3.13.

``metrics.ordered_sum`` is the builtin ``sum`` below Python 3.12 and a loop
from 3.12 on, so one interpreter checks only one side of that switch. Each
case runs ``tests/test_golden.py`` as a script, with ``PYTHONPATH=src``,
under the ``python3.X`` that PATH finds. It is skipped when that is the
version running the tests (``test_golden.py`` checks that one in process),
when PATH has no such interpreter, or when it does not start as that version.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERSIONS = ((3, 10), (3, 11), (3, 12), (3, 13))


@pytest.mark.parametrize("version", VERSIONS, ids=[f"python{a}.{b}" for a, b in VERSIONS])
def test_golden_hashes_hold_under(version):
    name = "python%d.%d" % version
    if version == sys.version_info[:2]:
        pytest.skip(f"{name} runs these tests")
    exe = shutil.which(name)
    if exe is None:
        pytest.skip(f"no {name} on PATH")
    try:
        probe = subprocess.run([exe, "-c", f"import sys; sys.exit(sys.version_info[:2] != {version})"],
                               capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip(f"{name} does not start")
    if probe.returncode != 0:
        pytest.skip(f"{name} does not start as Python {version[0]}.{version[1]}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([exe, str(ROOT / "tests" / "test_golden.py")],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
