"""Every package, test and benchmark module reads each name it imports at
top level."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/xbnn/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("perfbench/*.py")])


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads; a
    name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from a import b, c\n__all__ = ['c']\nnp.zeros(os.sep)\n")
    assert unread_imports(source) == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []
