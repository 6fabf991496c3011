"""Every module of the library and of scripts/ uses each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "knot818").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _imported(tree):
    """``(name, line)`` for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referenced(tree):
    """Every name the code reads, the names inside string annotations included."""
    names = _names(tree)
    annotations = [
        node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else node.annotation
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


def _unused(source):
    tree = ast.parse(source)
    used = _referenced(tree)
    return [f"line {line}: {name}" for name, line in _imported(tree) if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "import os.path\nimport sys\nfrom typing import Optional, Sequence\n"
        "def f(x: 'Optional[int]') -> None:\n    return os.path.sep\n"
    )
    assert _unused(source) == ["line 2: sys", "line 3: Sequence"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert _unused(path.read_text(encoding="utf-8")) == []
