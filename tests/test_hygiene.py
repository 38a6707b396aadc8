"""Eleven scans: names nothing reads, imports outside the standard library,
private names read across modules, the boundaries around the oracles and
around the counting kernels, production functions only checks read, the
benchmark's hold on the library, the README's CLI synopsis, and the
benchmark records at the repository root.

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

No library module imports an underscore name of another `dpratio` module,
by `from .x import _y` or as `x._y` of a module it imported: what two
modules share has a public name in the module that owns it.

`dpratio.oracles` holds the reference routes the cross-checks compare the
production routes against.  No library module but `verify.py` imports it,
so no production route can rest on an oracle, and every public function of
`oracles.py` is read in `verify.py` or in `oracles.py` itself: an oracle no
check uses is not kept.

`dpratio.layered` and `dpratio.permanent` hold the counting kernels.  No
library module but `counting.py` imports them, so every library route to a
kernel passes counting's guards, `LAYERED_MAX_K` and `PERMANENT_MAX_N`.

Every module-level function of a production module (every library module
but `oracles.py`, `verify.py` and `__init__.py`) is read by a production
module: a function that only the checks or the tests read is a reference
route, and belongs in `oracles.py`.

Every `dpratio` name a benchmark script (`bench/*.py`) imports resolves in
`src/`, and every module named in `bench/spans.py`'s `MODULES` exists: a
rename in the library would otherwise break the benchmark's output check
unseen, since only `bench/smoke.py` runs it.

Every option string of every `dpratio` subcommand appears in that
subcommand's synopsis line(s) of the README's CLI block, so the synopsis
keeps up with `cli.build_parser()`.

Every `BENCH_*.json` at the root names the parent and the change it
measured by git SHA, holds at least ten alternating pairs, and compares
the two sides on each of its workloads in every end-to-end metric of
`BENCHMARK.json`, so no record leaves out a metric the benchmark bounds.
"""

import argparse
import ast
import json
import re
import sys
from pathlib import Path

from dpratio.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "dpratio").glob("*.py"))
FILES = [p for p in LIBRARY if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
READERS = LIBRARY + sorted((ROOT / "tests").glob("*.py")) + BENCH


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


def private_imports(source: str) -> list[str]:
    """`module._name`, sorted, for each underscore name of a `dpratio`
    module that `source`, a module of the package, imports by name or reads
    as an attribute of a module it imported; dunder names are skipped."""
    tree = ast.parse(source)
    found = set()
    modules = {}  # bound name -> the dpratio module it is
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative: the package is flat, so this is dpratio
                package = f"dpratio.{node.module}" if node.module else "dpratio"
            else:
                package = node.module
            if package.split(".")[0] != "dpratio":
                continue
            for a in node.names:
                if package == "dpratio":
                    modules[a.asname or a.name] = f"dpratio.{a.name}"
                elif a.name.startswith("_"):
                    found.add(f"{package}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "dpratio":  # `import dpratio.x` binds dpratio
                    modules[a.asname or "dpratio"] = a.name if a.asname else "dpratio"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or node.attr[:1] != "_" or node.attr[:2] == "__":
            continue
        parts, value = [], node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in modules:
            module = ".".join([modules[value.id], *reversed(parts)])
            if module != "dpratio":
                found.add(f"{module}.{node.attr}")
    return sorted(found)


def test_scan_finds_private_import():
    source = (
        "import os\n"
        "from .counting import _pack, count\n"
        "from dpratio.moments import _exact_float\n"
        "from . import digraph, series as s\n"
        "import dpratio.params\n"
        "import dpratio.oracles as o\n"
        "def f():\n"
        "    from .packed import pack\n"
        "    x = digraph._value(1), s._x, s.h_table, dpratio.params._y, o._z, os._exit\n"
        "    return x, f.__name__, digraph.__name__, pack._cache\n"
    )
    assert private_imports(source) == [
        "dpratio.counting._pack",
        "dpratio.digraph._value",
        "dpratio.moments._exact_float",
        "dpratio.oracles._z",
        "dpratio.params._y",
        "dpratio.series._x",
    ]


def test_no_module_imports_a_private_name():
    found = {p.name: names for p in LIBRARY if (names := private_imports(p.read_text()))}
    assert found == {}


def module_imports(source: str, module: str) -> list[int]:
    """Line numbers of the imports of the `dpratio` module `module` (as
    `dpratio.x`), in any form, in a module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: the package is flat, so this is dpratio
                package = f"dpratio.{node.module}" if node.module else "dpratio"
            else:
                package = node.module
            modules = [package] + [f"{package}.{a.name}" for a in node.names]
        else:
            continue
        if any(m == module or m.startswith(f"{module}.") for m in modules):
            found.append(node.lineno)
    return found


def test_scan_finds_oracle_import():
    source = (
        "from . import counting, oracles\n"
        "from .oracles import h_bruteforce\n"
        "import dpratio.oracles\n"
        "def f():\n"
        "    from dpratio import oracles as o\n"
        "from . import series\n"
        "from .counting import oracles_like\n"
        "import oracles\n"
    )
    assert module_imports(source, "dpratio.oracles") == [1, 2, 3, 5]


def test_only_verify_imports_the_oracles():
    found = {
        p.name: lines
        for p in LIBRARY
        if p.name != "verify.py" and (lines := module_imports(p.read_text(), "dpratio.oracles"))
    }
    assert found == {}
    verify = (ROOT / "src" / "dpratio" / "verify.py").read_text()
    assert module_imports(verify, "dpratio.oracles") != []


KERNELS = ("dpratio.layered", "dpratio.permanent")


def test_scan_finds_kernel_import():
    source = (
        "from . import counting, layered\n"
        "from .permanent import permanent\n"
        "import dpratio.layered as l\n"
        "def f():\n"
        "    from dpratio import permanent\n"
        "from .layered_like import x\n"
        "from .counting import count_layered\n"
    )
    assert [module_imports(source, m) for m in KERNELS] == [[1, 3], [2, 5]]


def test_only_counting_imports_the_kernels():
    # every library route to the layered and Glynn kernels passes
    # counting's guards, LAYERED_MAX_K and PERMANENT_MAX_N
    found = {
        (p.name, m): lines
        for p in LIBRARY
        for m in KERNELS
        if p.name != "counting.py" and (lines := module_imports(p.read_text(), m))
    }
    assert found == {}
    counting = (ROOT / "src" / "dpratio" / "counting.py").read_text()
    assert all(module_imports(counting, m) for m in KERNELS)


def unread_oracles(oracles_source: str, verify_source: str) -> list[str]:
    """The public module-level functions of `oracles_source` that neither
    module reads."""
    tree = ast.parse(oracles_source)
    read = read_names(tree) | read_names(ast.parse(verify_source))
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_scan_finds_unread_oracle():
    oracles_source = "def a(): return b()\ndef b(): pass\ndef c(): pass\ndef _d(): pass\nE = 1\n"
    assert unread_oracles(oracles_source, "from . import oracles\noracles.a()\n") == ["c"]


def test_every_oracle_is_used_by_a_check():
    src = ROOT / "src" / "dpratio"
    assert unread_oracles((src / "oracles.py").read_text(), (src / "verify.py").read_text()) == []


def unread_in_production(sources: dict[str, str]) -> list[str]:
    """`module.function` for each module-level function of the production
    modules in `sources` (file name -> source) that none of them reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{name.removesuffix('.py')}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name not in read
    ]


def test_scan_finds_production_function_only_checks_read():
    sources = {
        "a.py": "def f(): return g()\ndef g(): pass\ndef h(): pass\ndef _i(): pass\nJ = 1\n",
        "b.py": "from . import a\ndef main(): a._i()\nif __name__ == '__main__':\n    main()\n",
    }
    assert unread_in_production(sources) == ["a.f", "a.h"]


def test_every_production_function_is_read_in_production():
    sources = {
        p.name: p.read_text()
        for p in LIBRARY
        if p.name not in ("oracles.py", "verify.py", "__init__.py")
    }
    assert unread_in_production(sources) == []


def top_level_bindings(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level, by definition or import."""
    bound = set(module_definitions(tree))
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
    return bound


def unresolved_imports(source: str, package: Path) -> list[str]:
    """The `dpratio` modules and names imported anywhere in `source` that
    the flat package in the directory `package` lacks."""

    def module_file(module: str) -> Path:  # "dpratio" -> __init__.py, "dpratio.x" -> x.py
        return package / f"{module.partition('.')[2] or '__init__'}.py"

    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(node.module, a.name) for a in node.names]
        else:
            continue
        for module, name in names:
            if module.split(".")[0] != "dpratio":
                continue
            if not module_file(module).is_file():
                missing.append(module)
            elif name is not None:
                full = f"{module}.{name}"
                bound = top_level_bindings(ast.parse(module_file(module).read_text()))
                if name not in bound and not (module == "dpratio" and module_file(full).is_file()):
                    missing.append(full)
    return missing


def test_scan_finds_unresolved_bench_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text("import math\ndef f(): pass\nG = 1\n")
    source = (
        "import os\n"
        "import dpratio.a\n"
        "import dpratio.b\n"
        "from dpratio import a, b, f, g\n"
        "from dpratio.a import f, G, math, h\n"
        "from collections import a\n"
        "def run():\n"
        "    from dpratio.c import x\n"
    )
    assert unresolved_imports(source, tmp_path) == [
        "dpratio.b",
        "dpratio.b",
        "dpratio.g",
        "dpratio.a.h",
        "dpratio.c",
    ]


def test_bench_imports_resolve():
    package = ROOT / "src" / "dpratio"
    found = {p.name: names for p in BENCH if (names := unresolved_imports(p.read_text(), package))}
    assert found == {}


def spans_modules(source: str) -> tuple[str, ...]:
    """The value of the module-level `MODULES` tuple in `source`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


def test_spans_modules_exist():
    modules = spans_modules((ROOT / "bench" / "spans.py").read_text())
    assert modules
    assert [m for m in modules if not (ROOT / "src" / "dpratio" / f"{m}.py").is_file()] == []


def synopsis(readme: str) -> dict[str, str]:
    """Each subcommand's synopsis in the first sh block of the README's CLI
    section: its `dpratio <name>` lines and the indented lines that follow."""
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines: dict[str, str] = {}
    name = None
    for line in block.splitlines():
        if line.startswith("dpratio "):
            name = line.split()[1]
            lines[name] = lines.get(name, "") + line + "\n"
        elif name and line.startswith(" "):
            lines[name] += line + "\n"
    return lines


def missing_options(readme: str, parser: argparse.ArgumentParser) -> list[str]:
    """`<command> <option>` for each option string of a subcommand that its
    synopsis lacks as a whole word, and `<command>` for a subcommand with no
    synopsis line; -h/--help is argparse's own and skipped."""
    lines = synopsis(readme)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = []
    for name, sub in commands.choices.items():
        if name not in lines:
            missing.append(name)
            continue
        for action in sub._actions:
            for opt in action.option_strings:
                word = rf"(?<![\w-]){re.escape(opt)}(?![\w-])"
                if opt not in ("-h", "--help") and not re.search(word, lines[name]):
                    missing.append(f"{name} {opt}")
    return missing


def test_scan_finds_missing_cli_option():
    parser = argparse.ArgumentParser(prog="dpratio")
    commands = parser.add_subparsers()
    options = {"count": ["--in", "--out"], "sweep": ["--k", "--k-list"], "verify": []}
    for name, opts in options.items():
        sub = commands.add_parser(name)
        for opt in opts:
            sub.add_argument(opt)
    readme = (
        "# x\n\n```sh\ndpratio count --out F\n```\n\n## CLI\n\n```sh\n"
        "dpratio count --in FILE\n"
        "dpratio sweep --k-list 4,6\n"
        "              [--out FILE]\n"
        "```\n\n```sh\ndpratio verify\n```\n"
    )
    assert synopsis(readme) == {
        "count": "dpratio count --in FILE\n",
        "sweep": "dpratio sweep --k-list 4,6\n              [--out FILE]\n",
    }
    # --out of count appears only outside the CLI block, --k only inside --k-list
    assert missing_options(readme, parser) == ["count --out", "sweep --k", "verify"]


def test_readme_synopsis_names_every_cli_option():
    assert missing_options((ROOT / "README.md").read_text(), build_parser()) == []


SHA = re.compile(r"[0-9a-f]{40}")


def bench_record_problems(record: dict, metrics: list[str]) -> list[str]:
    """What a root `BENCH_*.json` lacks: the parent's `git_sha`; the
    change's `git_sha`, which may be null only beside a `src_tree` (the
    change's commit is made after the file); at least ten pairs; and on
    each workload a `comparison` entry for every metric in `metrics`."""
    problems = []
    if not SHA.fullmatch(str(record.get("parent", {}).get("git_sha"))):
        problems.append("parent git_sha")
    change = record.get("change", {})
    if "git_sha" not in change or not SHA.fullmatch(
        str(change["git_sha"] or change.get("src_tree"))
    ):
        problems.append("change git_sha")
    if not record.get("pairs", 0) >= 10:
        problems.append("pairs")
    if not record.get("workloads"):
        problems.append("workloads")
    for name, workload in record.get("workloads", {}).items():
        comparison = workload.get("comparison", {})
        problems += [f"{name} {m}" for m in metrics if m not in comparison]
    return problems


def test_scan_finds_incomplete_bench_record():
    record = {
        "parent": {"git_sha": "a" * 40},
        "change": {"git_sha": None, "src_tree": "b" * 40},
        "pairs": 10,
        "workloads": {"w": {"comparison": {"m1": {}, "m2": {}}}},
    }
    assert bench_record_problems(record, ["m1", "m2"]) == []
    assert bench_record_problems(record, ["m1", "m2", "m3"]) == ["w m3"]
    del record["workloads"]["w"]["comparison"]["m2"]
    assert bench_record_problems(record, ["m1", "m2"]) == ["w m2"]
    record["change"] = {"src_tree": "b" * 40}
    record["parent"]["git_sha"] = None
    record["pairs"] = 9
    assert bench_record_problems(record, ["m1"]) == ["parent git_sha", "change git_sha", "pairs"]


def test_bench_records_are_complete():
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    found = {p.name: bench_record_problems(json.loads(p.read_text()), metrics) for p in records}
    assert {name: problems for name, problems in found.items() if problems} == {}
