"""The package holds the code it runs: every function in src/ has a caller in src/."""

import ast
from pathlib import Path

import dealerlab

#: functions kept in src/ before their caller, each with the ROADMAP item that brings it
AWAITING_CALLER = {
    "goal_functional": "item 6, the engine route of the diffusive-target welfare",
    "integrated_market": "item 3, the discrete game's welfare report",
}


def uncalled_functions(sources) -> set:
    """Names of the non-dunder functions that no code outside their own body names.

    A name counts as a bare name or an attribute (``f(...)``, ``obj.f``,
    ``type=f``); an import alone names nothing, and a recursive call, or a
    call from a same-named method, is inside the definition.
    """
    defined, named = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            named.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            named.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sources:
        visit(ast.parse(path.read_text()), frozenset())
    return defined - named


def kept_imports(source: Path) -> set:
    """Names imported on a line marked ``noqa: F401``: kept unread on purpose."""
    text = source.read_text()
    lines = text.splitlines()
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "noqa: F401" in lines[alias.lineno - 1]
    }


def unread_imports(source: Path) -> set:
    """Names that a module imports and never reads.

    ``from __future__`` imports bind nothing to read, and an import on a line
    marked ``noqa: F401`` is kept on purpose.  ``import a.b`` binds ``a``.
    """
    text = source.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imported - read


def test_every_function_in_src_is_named_in_src():
    # code that only tests call lives under tests/ (see crosschecks.py)
    sources = sorted(Path(dealerlab.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    assert uncalled_functions(sources) == set(AWAITING_CALLER)


def test_the_scan_flags_only_uncalled_functions(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from x import imported_only\n"
        "def used(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def passed(): pass\n"
        "def unused(): return used()\n"
        "class C:\n"
        "    def __init__(self): self.m()\n"
        "    def m(self): return sorted([], key=passed)\n"
        "    def g(self): return self.other.g()\n"
    )
    assert uncalled_functions([source]) == {"recursive", "unused", "g"}


def test_every_import_in_src_is_read():
    # the package's __init__ imports its public names for others to read
    sources = sorted(Path(dealerlab.__file__).parent.glob("*.py"))
    unread = {path.name: unread_imports(path) for path in sources if path.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}


def test_only_the_traced_boundary_import_is_kept_unread():
    # equilibrium keeps kernel_expectation_path for the benchmark tracer to wrap, until
    # ROADMAP item 1 drops that boundary; any other kept import needs an edit here
    sources = sorted(Path(dealerlab.__file__).parent.glob("*.py"))
    kept = {f"{path.stem}.{name}" for path in sources for name in kept_imports(path)}
    assert kept == {"equilibrium.kernel_expectation_path"}


def test_the_import_scan_flags_only_unread_names(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys as system\n"
        "import xml.dom\n"
        "from x import (\n"
        "    read,\n"
        "    unread,\n"
        ")\n"
        "from y import kept  # noqa: F401\n"
        "from t import Annotation\n"
        "def f(a: Annotation) -> None:\n"
        "    from z import local, shadowed\n"
        "    shadowed = 1\n"
        "    return read(os.sep), local\n"
    )
    assert unread_imports(source) == {"system", "xml", "unread", "shadowed"}
    assert kept_imports(source) == {"kept"}
