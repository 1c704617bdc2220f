"""Import hygiene: every name a package module imports at module level is
used in that module, or re-exported through ``__all__``.  No linter runs
on this repository, so this is the check that catches a name an edit
leaves behind.  Also: importing the command line leaves the per-search
interning module unloaded."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import aam

PACKAGE = Path(aam.__file__).resolve().parent

# Imported and unused on purpose: the benchmark's own tests check that the
# tracer rebinds this name in ``analysis``.
KEPT = {("analysis", "sort_key")}


def unused_imports(path: Path) -> list[str]:
    """The module-level imported names that ``path`` never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path)
    }
    assert unused - KEPT == set()
    assert KEPT <= unused  # an exception that is used is no longer one


def test_the_check_sees_an_unused_import(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps, loads as load\n"
        "__all__ = ['dumps']\n"
        "def f(x: sys.Path) -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == ["load", "os"]


def test_importing_the_command_line_does_not_load_interning():
    """``aam.interning`` is imported by the first abstract search, so a
    command line that never searches abstractly does not compile it."""
    probe = "import sys, aam.cli; print(sorted(m for m in sys.modules if m.startswith('aam.')))"
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert "'aam.cli'" in r.stdout
    assert "aam.interning" not in r.stdout
