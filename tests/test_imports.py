"""Import lint: no module of the package imports a name that it never uses.

No linter is assumed installed, so the test walks each module's syntax
tree.  A name imported only so that the benchmark's tracer can wrap it
there sits on a ``# noqa: F401`` line, and must be one that
``perfbench/tracing.py`` wraps in that module.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "igabem").glob("*.py"))


def _traced_names() -> dict:
    """Per module, the attributes that the tracer replaces there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {module: {attr for attr, _, _ in targets}
            for module, targets in tracing._MODULE_TARGETS.items()}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> the line that imports it
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = lines[alias.lineno - 1]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported) - used
    waived = {name for name in unused if "# noqa: F401" in imported[name]}
    assert unused == waived, f"{path.name} imports unused {sorted(unused - waived)}"
    untraced = waived - _traced_names().get(path.stem, set())
    assert not untraced, f"{path.name} waives {sorted(untraced)}, which no tracer wraps"


def test_experiments_and_cli_load_no_scipy():
    # scipy loads where a rule is built or a system solved, so importing the
    # runner and the command line (``igabem rates``, ``--help``) skips it
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, igabem.experiments, igabem.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
