"""Import and surface lint: no module of the package imports a name that
it never uses, and no public name is there for the tests alone.

No linter is assumed installed, so the tests walk each module's syntax
tree.  A name imported only so that the benchmark's tracer can wrap it
there sits on a ``# noqa: F401`` line, and must be one that
``perfbench/tracing.py`` wraps in that module.  Every name in a module's
``__all__`` must be read by the program: by ``src/igabem``, ``scripts/`` or
``perfbench/`` outside its own tests, where an import line or an
``__all__`` entry does not count.  ``UNREAD_PUBLIC`` lists the exceptions,
each with its reason.
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

# public names that no program path reads yet, and why each stays
UNREAD_PUBLIC = {
    "kappa": "a precondition of the reliability analysis, for the run trace "
             "of ROADMAP item 5",
    "level_gaps_ok": "a precondition of the reliability analysis, for the run "
                     "trace of ROADMAP item 5",
    "partition_quality": "the Faermann partition check, for the run trace of "
                         "ROADMAP item 5",
    "PartitionCheck": "what partition_quality returns",
    "aitken": "perfbench/tracing.py wraps experiments.aitken by name",
}


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


def _public_names() -> dict:
    """Each name in a package module's ``__all__``, with its module."""
    names = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                names.update((e.value, path.stem) for e in node.value.elts)
    return names


def _read_names() -> set:
    """Every name the program reads: names and attributes in the syntax
    trees of the package, the scripts and the benchmark, its tests aside.
    Import lines bind names and ``__all__`` holds strings, so neither
    counts."""
    files = [*MODULES, *sorted((ROOT / "scripts").glob("*.py")),
             *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_"))]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_is_read_by_the_program():
    public = _public_names()
    unread = set(public) - _read_names() - set(UNREAD_PUBLIC)
    assert not unread, ("public names that only tests read: "
                        f"{sorted(f'{public[n]}.{n}' for n in unread)}")
    stale = set(UNREAD_PUBLIC) - set(public)
    assert not stale, f"UNREAD_PUBLIC names no public name {sorted(stale)}"
