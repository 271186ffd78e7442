"""The golden trace hashes and summaries under each other installed Python,
3.10 to 3.13.

Neither may depend on the interpreter. Each row's utilization means are
exact integer divisions. The summary's float sums are three running sums in
``metrics.MetricsLog``, the areas under the two means and the latency sum,
each one rounded addition per row, in row order, from 0.0, where the
builtin ``sum`` would change its rounding at 3.12. The golden script checks
each case's hash against its pinned value and its summary against
``reference.summary_of_rows``, the same sums as passes over the parsed
trace, so every version must give the same hashes and summaries that add
in row order. Each case runs ``tests/test_golden.py`` as a script, with ``PYTHONPATH=src``,
under the ``python3.X`` that PATH finds or, when that one does not start as
its version (a pyenv shim exits unless its version is selected), under
the first ``$PYENV_ROOT/versions/3.X.*/bin/python3.X`` that does, with
``PYENV_ROOT`` defaulting to ``~/.pyenv``. It is skipped when that is the
version running the tests (``test_golden.py`` checks that one in process),
or when no such interpreter starts as that version.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERSIONS = ((3, 10), (3, 11), (3, 12), (3, 13))


def _starts_as(exe, version) -> bool:
    try:
        probe = subprocess.run([str(exe), "-c", f"import sys; sys.exit(sys.version_info[:2] != {version})"],
                               capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0


def interpreter(version):
    """The first of PATH's ``python3.X`` and the pyenv installs of 3.X that
    starts as Python 3.X, or None."""
    name = "python%d.%d" % version
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    candidates = [shutil.which(name)] + sorted(pyenv.glob("%d.%d.*/bin/%s" % (version + (name,))))
    return next((exe for exe in candidates if exe is not None and _starts_as(exe, version)), None)


@pytest.mark.parametrize("version", VERSIONS, ids=[f"python{a}.{b}" for a, b in VERSIONS])
def test_golden_hashes_hold_under(version):
    name = "python%d.%d" % version
    if version == sys.version_info[:2]:
        pytest.skip(f"{name} runs these tests")
    exe = interpreter(version)
    if exe is None:
        pytest.skip(f"no {name} on PATH or under $PYENV_ROOT/versions starts as Python {version[0]}.{version[1]}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([str(exe), str(ROOT / "tests" / "test_golden.py")],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
