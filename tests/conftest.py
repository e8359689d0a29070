import pytest

from selfsim.automaton import Automaton, Element, GeneratorRule, reachable_closure
from selfsim.graphs import Graph, enumerate_paths

# Acceptance results collected by tests/test_acceptance.py; printed in the
# terminal summary so every criterion gets its own pass/fail line.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(ident: str, ok: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((ident, ok, detail))
    assert ok, f"acceptance criterion {ident}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for ident, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {ident}" + (f" -- {detail}" if detail else "")
        terminalreporter.write_line(line)


def unit(v):
    return Element(v, ())


def paths_at(graph, n, v):
    """vE^n: the paths of E^n with range v, in enumerate_paths order."""
    return [p for p in enumerate_paths(graph, n) if p.r(graph) == v]


def class_index(aut, machine):
    """Class id -> state number for a restriction-closed machine that holds
    no class ids (a nucleus, ``Nucleus.power`` or a Schreier label set): the
    registry's restriction closure of its states, the tail compute_nucleus
    once ran.  Its states come in the machine's order."""
    return reachable_closure(aut, machine.states).index


def shortlex_power(nuc, k):
    """``nuc.power(k)`` renumbered in (word_key, dom) order, the order the
    parent loops read it in."""
    sm = nuc.power(k)
    return sm.renumbered(sorted(range(len(sm)), key=sm.shortlex))


def with_bounds(aut, bounds):
    """The same rule table as a fresh automaton under ``bounds``."""
    return Automaton(aut.graph, aut.generators, bounds)


def build_ex310():
    """The two-vertex four-edge automaton: a.1=4|v, a.2=3|b, b.3=1|v, b.4=2|a."""
    g = Graph(["v", "w"], [("1", "v", "v"), ("2", "w", "v"),
                           ("3", "v", "w"), ("4", "v", "w")])
    gens = {
        "a": GeneratorRule("v", "w", {"1": ("4", unit("v")), "2": ("3", Element("w", (("b", 1),)))}),
        "b": GeneratorRule("w", "v", {"3": ("1", unit("v")), "4": ("2", Element("v", (("a", 1),)))}),
    }
    return Automaton(g, gens)


def build_basilica():
    """Two vertices, loops 0,1 at v, edge 2: v->w, loop 3 at w; three generators."""
    g = Graph(["v", "w"], [("0", "v", "v"), ("1", "v", "v"),
                           ("2", "v", "w"), ("3", "w", "w")])
    gens = {
        "a": GeneratorRule("v", "w", {"0": ("2", unit("v")), "1": ("3", Element("v", (("a", 1),)))}),
        "b": GeneratorRule("w", "v", {"2": ("0", unit("v")), "3": ("1", Element("w", (("c", 1),)))}),
        "c": GeneratorRule("w", "v", {"2": ("1", unit("v")), "3": ("0", Element("w", (("b", 1),)))}),
    }
    return Automaton(g, gens)


def build_odometer():
    """Binary adding machine: single vertex, a.0=1|unit, a.1=0|a."""
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    gens = {
        "a": GeneratorRule("v", "v", {"0": ("1", unit("v")), "1": ("0", Element("v", (("a", 1),)))}),
    }
    return Automaton(g, gens)


def build_nonhausdorff():
    """Contracting, faithful, irregular and non-Hausdorff: h fixes loop 0 with
    restriction h, strongly fixes loop 1, and swaps loops 2 and 3."""
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v"), ("2", "v", "v"), ("3", "v", "v")])
    gens = {
        "h": GeneratorRule("v", "v", {
            "0": ("0", Element("v", (("h", 1),))),
            "1": ("1", unit("v")),
            "2": ("3", unit("v")),
            "3": ("2", unit("v")),
        }),
    }
    return Automaton(g, gens)


def build_noncontracting():
    """Word growth under restriction: g|_0 = h and h|_0 = h h on a loop."""
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    gens = {
        "g": GeneratorRule("v", "v", {"0": ("0", Element("v", (("h", 1),))), "1": ("1", unit("v"))}),
        "h": GeneratorRule("v", "v", {"0": ("0", Element("v", (("h", 1), ("h", 1)))),
                                      "1": ("1", unit("v"))}),
    }
    return Automaton(g, gens)


@pytest.fixture(scope="session")
def ex310():
    return build_ex310()


@pytest.fixture(scope="session")
def basilica():
    return build_basilica()


@pytest.fixture(scope="session")
def odometer():
    return build_odometer()


@pytest.fixture(scope="session")
def nonhausdorff():
    return build_nonhausdorff()
