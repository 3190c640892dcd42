"""Every name a library module imports is read in that module.

``__init__`` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modfunctor"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source):
    """Names bound by an import statement that no expression of `source` reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds a
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name: line for name, line in bound.items() if name not in read}


def test_the_scan_finds_unread_imports():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom x import a, b\nb(np)\n"
    assert unread_imports(source) == {"os": 2, "a": 4}


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"characters", "cli", "lie", "modular_data", "surfaces"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == {}
