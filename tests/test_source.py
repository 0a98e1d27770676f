"""Source hygiene checks that need no linter: every module-level import in
``src/mtvlm``, ``tests`` and ``tools`` is used by the module that makes it,
and every name the package exports exists. ``perfbench`` is left out: it
is the benchmark, which changes on its own terms."""

import ast
from pathlib import Path

import pytest

import mtvlm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mtvlm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(),
                                                            key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\n" \
             "from json import dumps, loads\nx = np.zeros(dumps(1))\n"
    assert unused_imports(source) == ["line 2: os", "line 4: loads"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_test_or_tool_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_exported_name_resolves():
    missing = [name for name in mtvlm.__all__ if not hasattr(mtvlm, name)]
    assert missing == []
    namespace: dict = {}
    exec("from mtvlm import *", namespace)
    assert set(mtvlm.__all__) <= set(namespace)
