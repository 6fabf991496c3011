"""Every module of the library, of scripts/ and of tests/ uses each name it imports,
no library module imports another module's private name, and every public
name the library defines has a reader outside tests/."""

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


def _annotated(tree):
    """The names inside string annotations."""
    names = set()
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


def _referenced(tree):
    """Every name the code reads, the names inside string annotations included."""
    return _names(tree) | _annotated(tree)


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


LIBRARY = sorted((ROOT / "src" / "knot818").glob("*.py"))
# Besides the library itself, its readers are scripts/ and perfbench/ (read, never written); tests/ is none.
OUTSIDE_READERS = sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")])


def _defined(tree):
    """The public names a module's top level defines: functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read(tree):
    """Every name the code reads: loaded names, attributes, imported names and string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names | _annotated(tree)


def _unread(library, outside):
    """``file: name`` for each public name of a ``{file: source}`` library that neither it nor ``outside`` reads."""
    read = set().union(*(_read(ast.parse(source)) for source in [*library.values(), *outside]))
    return [
        f"{name}: {defined}"
        for name, source in sorted(library.items())
        for defined in _defined(ast.parse(source))
        if not defined.startswith("_") and defined not in read
    ]


def _sources():
    library = {path.name: path.read_text(encoding="utf-8") for path in LIBRARY}
    return library, [path.read_text(encoding="utf-8") for path in OUTSIDE_READERS]


def test_the_check_finds_a_name_only_tests_read():
    library, outside = _sources()
    library["errors.py"] += "\n\ndef only_tests():\n    pass\n"
    assert _unread(library, outside) == ["errors.py: only_tests"]


def test_every_public_name_has_a_reader():
    assert _unread(*_sources()) == []
