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
