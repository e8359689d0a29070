"""Layering rules of the package, checked on its source.

The one-representation rule: code that reads a finite restriction-closed
set of classes reads its StateMachine.  The class registry's rows and
representatives are read only inside automaton.py, by compute_nucleus,
which sorts each round's class representatives, and by check_recurrent,
which walks words with no finite bound given in advance.  No module
imports a private name of another, and only automaton.py reads or writes
the inverse marker."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "selfsim"

# (module, top-level definition) pairs outside automaton.py that may name _registry
ALLOWED = {("nucleus", "compute_nucleus"), ("dynamics", "check_recurrent")}


def registry_readers() -> set:
    """(module, enclosing top-level definition or None) for every source
    line of the package that names _registry, comments included."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        spans = [(node.lineno, node.end_lineno, node.name) for node in ast.parse(text).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for n, line in enumerate(text.splitlines(), 1):
            if "_registry" in line:
                owner = next((name for lo, hi, name in spans if lo <= n <= hi), None)
                out.add((path.stem, owner))
    return out


def test_registry_is_read_only_where_allowed():
    readers = registry_readers()
    assert sorted(r for r in readers if r[0] != "automaton" and r not in ALLOWED) == []
    # the scan sees the readers it allows, so it cannot pass by finding nothing
    assert ALLOWED <= readers
    assert any(module == "automaton" for module, _ in readers)


def inverse_symbol_code() -> set:
    """(module, line) of every string constant in the package's code, not its
    docstrings, that holds the inverse marker ``^-1``."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        out |= {(path.stem, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "^-1" in node.value and id(node) not in docstrings}
    return out


def test_only_automaton_reads_or_writes_inverse_symbols():
    found = inverse_symbol_code()
    assert sorted(hit for hit in found if hit[0] != "automaton") == []
    # the scan sees the one reader and writer, so it cannot pass by finding nothing
    assert any(module == "automaton" for module, _ in found)


def private_imports(text: str) -> set:
    """(module, name) for every ``from .module import _name`` in the source
    text, at module level or inside a function."""
    return {(node.module, alias.name) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")}


def test_no_module_imports_a_private_name_of_another():
    found = {(path.stem, *hit) for path in sorted(SRC.glob("*.py"))
             for hit in private_imports(path.read_text())}
    assert sorted(found) == []
    # the scan sees a function-level import, so it cannot pass by finding nothing
    assert private_imports("def f():\n    from .schreier import _tower, build\n") == {
        ("schreier", "_tower")}
