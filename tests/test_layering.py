"""Layering rules of the package, checked on its source.

The one-representation rule: code that reads a finite restriction-closed
set of classes reads its StateMachine.  The class registry's rows and
representatives are read only inside automaton.py; the nucleus and
check_recurrent identify their products on their machines' rows, and
outside automaton.py only the listed entry points that take elements as
arguments call a restriction closure or a class lookup.  No
module imports a private name of another, and only automaton.py reads or
writes the inverse marker.  Every bound has one owner, the automaton's Bounds:
no function takes a per-call budget or cache.  Every walk goes through
graphs.py: outside the modules with their own algorithms, a while loop
appears only where it is listed.  No code only tests reach: every
function, method or class the package defines, dunders aside, is read
somewhere in src/, bench/ or demos/ outside its own definition, and a
re-export in ``__init__.py`` is no such read.  Every call of a decider that
returns (answer, witness) unpacks or subscripts its result."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "selfsim"


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
    assert sorted(r for r in readers if r[0] != "automaton") == []
    # the scan sees the one reader, so it cannot pass by finding nothing
    assert any(module == "automaton" for module, _ in readers)


# the calls that identify elements through the class registry
REGISTRY_CALLS = {"reachable_closure", "canonical_id", "canonical", "state_index", "inverse"}
# (module, top-level definition) -> the registry calls it makes, sorted: the
# entry points that take elements as arguments.  compute_nucleus builds S
# and nothing more; past a closure, code reads the machine's rows
ALLOWED_REGISTRY_CALLS = {
    ("nucleus", "compute_nucleus"): ["reachable_closure"],
    ("nucleus", "limit_restrictions"): ["reachable_closure"],
    ("dynamics", "check_recurrent"): ["reachable_closure", "state_index"],
    ("dynamics", "germ_equal"): ["reachable_closure", "state_index"],
    ("schreier", "default_generating_set"): ["reachable_closure"],
    ("schreier", "_label_set"): ["inverse", "reachable_closure", "state_index"],
}


def registry_calls(text: str) -> dict:
    """(enclosing top-level definition or None) -> the sorted names of the
    REGISTRY_CALLS calls in the source text, as names or attributes."""
    out = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in REGISTRY_CALLS:
                    out.setdefault(owner, []).append(name)
            top = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, owner or (child.name if top else None))
    visit(ast.parse(text), None)
    return {owner: sorted(names) for owner, names in out.items()}


def test_registry_is_called_only_by_element_entry_points():
    # the scan sees a method call inside a nested def and a bare call, and
    # skips a mere reference, so it cannot pass by finding nothing
    sample = "def f(aut, g):\n    def h():\n        return aut.inverse(g)\n" \
             "    return reachable_closure(aut, [h()]), aut.canonical\n\nx = canonical_id(1)\n"
    assert registry_calls(sample) == {"f": ["inverse", "reachable_closure"],
                                      None: ["canonical_id"]}
    found = {(path.stem, owner): names for path in sorted(SRC.glob("*.py"))
             if path.stem != "automaton" for owner, names in registry_calls(path.read_text()).items()}
    assert found == ALLOWED_REGISTRY_CALLS


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


def signatures(text: str) -> list:
    """(name, parameter names) for every def in the source text, methods
    and nested defs included."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
            out.append((node.name, tuple(p.arg for p in params if p)))
    return out


def class_fields(text: str, name: str) -> list:
    """The annotated field names of the class ``name`` in the source text."""
    return [stmt.target.id for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef) and node.name == name
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)]


def test_every_bound_is_read_from_the_automaton():
    # the scans see a nested def's parameters and skip unannotated class
    # attributes, so they cannot pass by finding nothing
    sample = "class Bounds:\n    a: int = 1\n    b = 2\n\ndef f(x, *, budget=None):\n" \
             "    def g(_cache):\n        pass\n"
    assert signatures(sample) == [("f", ("x", "budget")), ("g", ("_cache",))]
    assert class_fields(sample, "Bounds") == ["a"]
    found = [(path.stem, *sig) for path in sorted(SRC.glob("*.py"))
             for sig in signatures(path.read_text())]
    assert [hit for hit in found if {"budget", "_cache"} & set(hit[2])] == []
    assert [params for _, name, params in found if name == "compute_nucleus"] == [("aut",)]
    assert class_fields((SRC / "automaton.py").read_text(), "Bounds") == ["max_states",
                                                                          "max_rounds"]


# modules whose own algorithms keep their while loops: the graph helpers,
# Smith normal form and the path normal forms
WHILE_MODULES = {"graphs", "ktheory", "infinite_paths"}
# (module, enclosing definitions) of the other while loops: a bisimulation,
# a memo's eviction and a union-find; every run to a repeat goes through
# graphs.rho and every breadth-first search through graphs.bfs
ALLOWED_WHILE = {("automaton", "Automaton._discerning_path"), ("automaton", "_SymbolMemo.put"),
                 ("schreier", "SchreierGraph.is_connected.find")}


def while_loops(text: str) -> list:
    """The dotted names of the definitions enclosing each while loop in the
    source text, in source order; "" for one at module level."""
    out = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, names + [child.name])
                continue
            if isinstance(child, ast.While):
                out.append(".".join(names))
            visit(child, names)
    visit(ast.parse(text), [])
    return out


def test_while_loops_only_where_allowed():
    # the scan sees a nested def's loop, so it cannot pass by finding nothing
    sample = "class C:\n    def f(self):\n        def g():\n            while 1:\n" \
             "                while 0:\n                    pass\n"
    assert while_loops(sample) == ["C.f.g", "C.f.g"]
    found = {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             if path.stem not in WHILE_MODULES for owner in while_loops(path.read_text())}
    assert sorted(found - ALLOWED_WHILE) == []
    # ... and the loops it allows, so the list cannot outlive them unnoticed
    assert found == ALLOWED_WHILE


def name_sites(text: str) -> dict:
    """name -> the lines where the source text reads it: as a name, an
    attribute or an imported name.  A string constant, an ``__all__`` entry
    included, is text, not a read."""
    sites = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        sites.setdefault(name, []).append(node.lineno)
    return sites


def unread_definitions(package: dict, readers: dict) -> list:
    """(file, name) of each function, method or class defined in the files
    ``package`` (file -> source text), dunders excluded, whose name no file
    of ``readers`` reads outside the definition's own lines.  An
    ``__init__.py`` is no reader: a re-export alone reaches nothing."""
    sites = {path: name_sites(text) for path, text in readers.items()
             if Path(path).name != "__init__.py"}
    out = []
    for path, text in package.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in own
                       for where, found in sites.items() for line in found.get(node.name, ())):
                out.append((path, node.name))
    return out


def test_no_definition_is_reached_only_by_tests():
    # the scan flags a function that only calls itself, one that only the
    # package's __init__.py imports and lists in __all__, a method only a test
    # calls and a property whose name appears only in other strings, so it
    # cannot pass by finding nothing
    lib = {"lib.py": "def helper():\n    return 1\n\ndef api():\n    return helper()\n\n"
                     "def recurse(n):\n    return recurse(n - 1)\n\n"
                     "def exported():\n    pass\n\n"
                     "class C:\n    def tested(self):\n        pass\n\n"
                     "    @property\n    def worded(self):\n        return 'worded'\n\n"
                     "    def __len__(self):\n        return 0\n",
           "__init__.py": "from .lib import C, api, exported\n__all__ = ['C', 'api', 'exported']\n"}
    demo = {"demo.py": "from lib import C, api\napi()\nprint({'worded': 1}, 'tested')\n"}
    assert unread_definitions(lib, {**lib, **demo}) == [
        ("lib.py", "recurse"), ("lib.py", "exported"), ("lib.py", "tested"), ("lib.py", "worded")]
    package = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for d in ("bench", "demos") for p in sorted((ROOT / d).glob("*.py"))}
    assert unread_definitions(package, {**package, **readers}) == []


# the deciders that return (answer, witness) on every outcome
DECIDERS = {"ae_equivalent", "is_regular", "is_hausdorff", "stable_equivalent",
            "unstable_equivalent"}


def bare_decider_calls(text: str) -> list:
    """Lines of the calls of DECIDERS in the source text whose result is
    neither unpacked into two names nor subscripted.  A tuple is always
    truthy, and == or != on two results would compare their witnesses."""
    tree = ast.parse(text)
    taken = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Subscript)
             or isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Tuple) and len(node.targets[0].elts) == 2}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in taken
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in DECIDERS]


def test_decider_results_are_unpacked_or_subscripted():
    # the scan flags a truthiness test, a comparison of two results, a
    # one-name assignment and a discarded call, and passes unpacking and
    # indexing, so it cannot pass by finding nothing
    sample = "assert is_regular(nuc)\nassert a(x, y) == dynamics.ae_equivalent(y, x, n)\n" \
             "got = stable_equivalent(x, y, n)\nunstable_equivalent(x, y, n)\n" \
             "ok, wit = is_hausdorff(nuc)\nok, (m, g) = unstable_equivalent(x, y, n)\n" \
             "assert not dynamics.is_regular(nuc)[0]\n"
    assert sorted(bare_decider_calls(sample)) == [1, 2, 3, 4]
    found = [(str(p.relative_to(ROOT)), line)
             for d in (SRC, ROOT / "tests", ROOT / "demos") for p in sorted(d.glob("*.py"))
             for line in bare_decider_calls(p.read_text())]
    assert found == []
