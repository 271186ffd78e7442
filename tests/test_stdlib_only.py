"""The package imports nothing outside the standard library: runtime
dependencies stay at none (``pyproject.toml`` declares none)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vnesim"


def absolute_imports(path) -> list:
    """(line, top-level module name) of every absolute import in ``path``,
    guarded or nested ones included; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_every_absolute_import_is_stdlib_or_the_package():
    # the trace digest prefers the builtin SHA-256 module to ``hashlib``; it
    # is ``_sha256`` up to 3.11 and ``_sha2`` from 3.12, and each version's
    # sys.stdlib_module_names lists only its own name
    allowed = sys.stdlib_module_names | {"_sha2", "_sha256", "vnesim"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    outside = [f"{path.name}:{line}: {name}" for path in sources
               for line, name in absolute_imports(path) if name not in allowed]
    assert outside == []
