"""Every module of the library, of scripts/ and of tests/ uses each name it imports,
and no library module imports another module's private name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*(ROOT / "src" / "knot818").glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


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


def _private_imports(source):
    """``from .module import _name`` lines: one module reading another's private name."""
    return [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_the_check_finds_a_private_import():
    source = "from .laurent import ONE, _pack\nfrom . import _codec\nfrom typing import _T\n"
    assert _private_imports(source) == ["line 1: _pack from .laurent", "line 2: _codec from ."]


def test_no_library_module_imports_a_private_name():
    found = {path.name: _private_imports(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "knot818").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
