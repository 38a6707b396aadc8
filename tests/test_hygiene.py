"""Three scans: names nothing reads, and imports outside the standard library.

Every name an import binds is read somewhere in its module.  Covers the
library modules (except `__init__.py`, whose imports are the package's
re-exports) and the test files.  `from __future__` imports bind nothing the
code reads and are skipped.

Every module-level function, class and constant of the library is read
somewhere in `src/`, `tests/` or `bench/`, as a name or as an attribute;
an import or a re-export alone is not a read.  Dunder names such as
`__version__` are read by tools, not code, and are skipped.

Every import in the library, module-level or inside a function, is
relative or of a standard-library module: the package has no runtime
dependency.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "dpratio").glob("*.py"))
FILES = [p for p in LIBRARY if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
READERS = LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_finds_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a import b, c\nc()\n") == [
        "os",
        "system",
        "b",
    ]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_no_unused_imports():
    unused = {
        str(p.relative_to(ROOT)): names
        for p in FILES
        if (names := unused_imports(p.read_text()))
    }
    assert unused == {}


def module_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_scan_finds_unread_definition():
    tree = ast.parse("from m import a\nB = 1\nC: int = 2\n__version__ = '1'\ndef d(): return m.e\n")
    assert module_definitions(tree) == ["B", "C", "d"]
    assert read_names(tree) == {"int", "m", "e"}


def test_every_definition_is_read():
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in READERS))
    unread = {
        p.name: names
        for p in LIBRARY
        if (names := [n for n in module_definitions(ast.parse(p.read_text())) if n not in read])
    }
    assert unread == {}


def third_party_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    top = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            top += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top.append(node.module.split(".")[0])
    return [name for name in top if name not in sys.stdlib_module_names]


def test_scan_finds_third_party_import():
    source = "import os.path\nfrom . import x\nfrom .y import z\ndef f():\n    import mpmath\n"
    assert third_party_imports(source) == ["mpmath"]
    assert third_party_imports("from numpy.linalg import det\nfrom collections import abc\n") == [
        "numpy"
    ]


def test_library_imports_only_the_standard_library():
    found = {
        p.name: names for p in LIBRARY if (names := third_party_imports(p.read_text()))
    }
    assert found == {}
