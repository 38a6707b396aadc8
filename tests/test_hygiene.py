"""Every name an import binds is read somewhere in its module.

Covers the library modules (except `__init__.py`, whose imports are the
package's re-exports) and the test files.  `from __future__` imports bind
nothing the code reads and are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in (ROOT / "src" / "dpratio").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


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
