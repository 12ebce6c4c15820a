"""The runtime stays stdlib-only: every import in ``src/qrees`` is either
relative to the package or names a standard-library module, and importing
the package or its command line loads no stdlib module it does not use."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qrees"


def imported_roots(tree: ast.AST) -> list[str]:
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        root
        for root in imported_roots(tree)
        if root != "qrees" and root not in sys.stdlib_module_names
    ]
    assert not foreign, f"{path.name} imports {foreign}"


def test_import_loads_no_dataclasses_or_inspect() -> None:
    """`import qrees`, then `import qrees.cli`, in a fresh interpreter: neither
    adds `dataclasses` or `inspect` (which pulls in `ast`, `dis` and
    `tokenize`) to the modules already loaded, whatever `site` loaded."""
    script = (
        "import sys\n"
        "for name in ('qrees', 'qrees.cli'):\n"
        "    before = set(sys.modules)\n"
        "    __import__(name)\n"
        "    print(name, *sorted(set(sys.modules) - before))\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    added = {line.split()[0]: set(line.split()[1:]) for line in done.stdout.splitlines()}
    assert set(added) == {"qrees", "qrees.cli"}
    for name, modules in added.items():
        assert not modules & {"dataclasses", "inspect"}, f"import {name} loads {sorted(modules)}"
