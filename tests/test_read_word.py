"""``read_word`` against the three word readers it replaced.

Element literals, spec-file restriction rules and the automaton validator
each had their own copy of the symbol and chaining rules; the copies below
are those readers, kept as oracles.  On seeded random inputs both sides give
the same result, or the same exception class with the same message, except
for the two spec-file wordings in ``_RENAMED``.  The old readers spelled a
power g^k as k symbols; read_word merges them into one run (g, k), so words
are compared after expansion.
"""

import random
from dataclasses import replace
from pathlib import Path as FsPath

import pytest

from selfsim.automaton import Automaton, Element, GeneratorRule
from selfsim.errors import (
    NonComposableError,
    NotBijectiveOnEdgesError,
    RestrictionVertexMismatchError,
    SelfSimError,
    UnknownSymbolError,
)
from selfsim.specfile import parse_spec

SPECS = sorted((FsPath(__file__).resolve().parent.parent / "specs").glob("*.ss"))


# -- the replaced readers -----------------------------------------------------------


def old_element(aut, tokens):
    """``Automaton.element`` before read_word."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    syms = []  # (name, exp, dom, cod)
    for tok in tokens:
        inv = tok.endswith("^-1")
        base = tok[:-3] if inv else tok
        if base in aut.generators:
            rule = aut.generators[base]
            d, c = (rule.cod, rule.dom) if inv else (rule.dom, rule.cod)
            syms.append((base, -1 if inv else 1, d, c))
        elif base in set(aut.graph.vertices) and not inv:
            syms.append((base, 0, base, base))
        else:
            raise UnknownSymbolError(f"unknown symbol {tok!r}")
    if not syms:
        raise UnknownSymbolError("an element literal needs at least one token")
    for (_, _, d, _), (_, _, _, c2) in zip(syms, syms[1:]):
        if d != c2:
            raise NonComposableError("adjacent symbols do not chain")
    return Element(syms[-1][2], tuple((n, e) for n, e, _, _ in syms if e != 0))


def old_spec_rules(spec):
    """The rule tables ``SpecFile.automaton`` built before read_word."""
    graph = spec.graph()
    vset = set(graph.vertices)
    ends = {g.name: (g.dom, g.cod) for g in spec.generators}
    gens = {}
    for g in spec.generators:
        rules = {}
        for (edge, image, toks) in g.rules:
            if not graph.has_edge(edge) or not graph.has_edge(image):
                raise UnknownSymbolError(f"rule of {g.name!r} uses unknown edge")
            chain = []  # (symbol or None for unit, dom, cod)
            for tok in toks:
                inv = tok.endswith("^-1")
                base = tok[:-3] if inv else tok
                if base in ends:
                    d, c = ends[base]
                    if inv:
                        d, c = c, d
                    chain.append(((base, -1 if inv else 1), d, c))
                elif tok in vset:
                    chain.append((None, tok, tok))
                else:
                    raise UnknownSymbolError(f"unknown symbol {tok!r} in rule of {g.name!r}")
            if not chain:
                raise UnknownSymbolError(f"empty restriction in rule of {g.name!r}")
            for (_, d1, _), (_, _, c2) in zip(chain, chain[1:]):
                if d1 != c2:
                    raise UnknownSymbolError(
                        f"restriction symbols do not chain in rule of {g.name!r}")
            word = tuple(sym for (sym, _, _) in chain if sym is not None)
            rules[edge] = (image, Element(chain[-1][1], word))
        gens[g.name] = GeneratorRule(g.dom, g.cod, rules)
    return gens


def old_validate(graph, generators):
    """``_validate`` before read_word."""
    violations = []

    def endpoints(sym):
        rule = generators[sym[0]]
        return (rule.dom, rule.cod) if sym[1] == 1 else (rule.cod, rule.dom)

    for name, rule in sorted(generators.items()):
        if rule.dom not in set(graph.vertices) or rule.cod not in set(graph.vertices):
            violations.append(NotBijectiveOnEdgesError(name, "unknown dom/cod vertex"))
            continue
        dom_edges = {e.id for e in graph.range_edges(rule.dom)}
        cod_edges = {e.id for e in graph.range_edges(rule.cod)}
        if set(rule.rules) != dom_edges:
            violations.append(NotBijectiveOnEdgesError(
                name, f"rules cover {sorted(rule.rules)}, need exactly {sorted(dom_edges)}"))
            continue
        images = [img for img, _ in rule.rules.values()]
        if set(images) - cod_edges or len(set(images)) != len(images) or set(images) != cod_edges:
            violations.append(NotBijectiveOnEdgesError(
                name, f"edge images {sorted(images)} are not a bijection onto {sorted(cod_edges)}"))
            continue
        for e, (img, restr) in sorted(rule.rules.items()):
            want_d, want_c = graph.s(e), graph.s(img)
            d = c = restr.dom
            ok = True
            prev_d = None
            for i, sym in enumerate(restr.word):
                if sym[0] not in generators:
                    ok = False
                    break
                sd, sc = endpoints(sym)
                if i == 0:
                    c = sc
                if prev_d is not None and prev_d != sc:
                    ok = False
                    break
                prev_d = sd
            if restr.word:
                d = endpoints(restr.word[-1])[0]
            if not ok:
                violations.append(RestrictionVertexMismatchError(name, e, "word does not chain"))
            elif d != want_d or c != want_c:
                violations.append(RestrictionVertexMismatchError(
                    name, e, f"restriction has (d, c) = ({d}, {c}), rule needs ({want_d}, {want_c})"))
    return violations


# The spec-file messages that now read as read_word's, with the rule appended.
_RENAMED = {"restriction symbols do not chain": "adjacent symbols do not chain",
            "empty restriction": "an element literal needs at least one token"}


def outcome(f, *args):
    try:
        return f(*args)
    except SelfSimError as e:
        return type(e), str(e)


def renamed(result):
    if isinstance(result, tuple) and result[0] is UnknownSymbolError:
        for old, new in _RENAMED.items():
            if result[1].startswith(old + " in rule of "):
                return result[0], new + result[1][len(old):]
    return result


def violations(found):
    return [(type(v), str(v)) for v in found]


def expanded(word):
    """A word of runs written out as the old readers' signed symbols."""
    return tuple((name, 1 if k > 0 else -1) for name, k in word for _ in range(abs(k)))


def expanded_element(result):
    return Element(result.dom, expanded(result.word)) if isinstance(result, Element) else result


def expanded_rules(gens):
    return {name: GeneratorRule(rule.dom, rule.cod, {
        e: (img, expanded_element(r)) for e, (img, r) in rule.rules.items()})
        for name, rule in gens.items()}


# -- random inputs ------------------------------------------------------------------


def token_pool(aut):
    gens = list(aut.generators)
    return (gens + [g + "^-1" for g in gens] + list(aut.graph.vertices)
            + [v + "^-1" for v in aut.graph.vertices]
            + ["zz", "zz^-1", "^-1", "", aut.graph.edges[0].id])


def random_tokens(rng, pool, known):
    """Mostly known symbols, so that words of every length chain now and then."""
    return [rng.choice(known if rng.random() < 0.85 else pool) for _ in range(rng.randrange(6))]


def random_word(rng, aut):
    """A signed word over the generators and an unknown name, seldom chaining."""
    names = list(aut.generators) + (["zz"] if rng.random() < 0.2 else [])
    return tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randrange(4)))


@pytest.fixture(scope="module", params=[p.name for p in SPECS])
def spec(request):
    return parse_spec((SPECS[0].parent / request.param).read_text())


def test_element_matches_old_reader(spec):
    aut = spec.automaton()
    pool = token_pool(aut)
    known = pool[:2 * len(aut.generators) + len(aut.graph.vertices)]
    rng = random.Random(12)
    kinds = set()
    for _ in range(2000):
        toks = random_tokens(rng, pool, known)
        arg = " ".join(toks) if rng.random() < 0.3 and all(toks) else toks
        want = outcome(old_element, aut, arg)
        assert expanded_element(outcome(aut.element, arg)) == want, arg
        kinds.add(want[0] if isinstance(want, tuple) else Element)
    # on one vertex every pair of symbols chains
    assert kinds == {Element, UnknownSymbolError} | (
        {NonComposableError} if len(aut.graph.vertices) > 1 else set())


def test_spec_rules_match_old_resolver(spec):
    graph = spec.graph()
    aut = spec.automaton()
    pool = token_pool(aut)
    known = pool[:2 * len(aut.generators) + len(aut.graph.vertices)]
    rng = random.Random(12)
    kinds = set()
    for _ in range(300):
        gens = []
        for g in spec.generators:
            rules = []
            for edge, image, toks in g.rules:
                roll = rng.random()
                if roll < 0.1:
                    toks = tuple(random_tokens(rng, pool, known))
                elif roll < 0.12:
                    edge = "nope"
                rules.append((edge, image, toks))
            gens.append(replace(g, rules=tuple(rules)))
        mutated = replace(spec, generators=tuple(gens))
        want = renamed(outcome(old_spec_rules, mutated))
        got = outcome(mutated.automaton)
        if isinstance(want, dict):
            assert expanded_rules(got.generators) == want
            assert violations(got.violations) == violations(old_validate(graph, want))
            kinds.add(bool(got.violations))
        else:
            assert got == want
            kinds.add(want[1].split(" ")[0])
    assert kinds >= {False, "unknown", "rule"} | (
        {True, "adjacent"} if len(graph.vertices) > 1 else set())


def test_validate_matches_old_validator(spec):
    aut = spec.automaton()
    graph = aut.graph
    vertices = list(graph.vertices) + ["nowhere"]
    edges = [e.id for e in graph.edges]
    rng = random.Random(12)
    seen = set()
    for _ in range(1000):
        gens = dict(aut.generators)
        for name in rng.sample(sorted(gens), rng.randrange(1, len(gens) + 1)):
            rule = gens[name]
            rules = dict(rule.rules)
            roll = rng.random()
            if roll < 0.1:
                rule = GeneratorRule(rng.choice(vertices), rng.choice(vertices), rules)
            elif roll < 0.2:
                edge = rng.choice(sorted(rules))
                rules[edge] = (rng.choice(edges), rules[edge][1])
            elif roll < 0.25 and len(rules) > 1:
                del rules[rng.choice(sorted(rules))]
            else:
                edge = rng.choice(sorted(rules))
                dom = rng.choice(vertices) if rng.random() < 0.3 else rules[edge][1].dom
                rules[edge] = (rules[edge][0], Element(dom, random_word(rng, aut)))
            gens[name] = GeneratorRule(rule.dom, rule.cod, rules)
        got = Automaton(graph, gens).violations
        try:
            want = old_validate(graph, gens)
        except KeyError:
            # the old validator looked up the last symbol of a word it had
            # already found unknown; that word does not chain
            assert any(str(v).endswith("word does not chain") for v in got)
            seen.add("KeyError")
            continue
        assert violations(got) == violations(want)
        seen |= {str(v).split(": ")[-1].split(" ")[0] for v in want}
        seen.add(bool(want))
    assert {True, False, "word", "unknown", "edge", "KeyError"} <= seen
    if len(vertices) > 2:
        assert "restriction" in seen


# -- runs are validated as runs -----------------------------------------------------


def test_validate_reads_runs_not_letters(monkeypatch):
    """A run (g, k) is checked in O(1), never spelled out as k letters."""
    from selfsim import automaton
    from selfsim.ktheory import IntMatrix, katsura_automaton

    def spelled(word):
        raise AssertionError(f"spelled out {word!r}")

    monkeypatch.setattr(automaton, "_tokens", spelled)
    aut = katsura_automaton(IntMatrix.of([[2]]), IntMatrix.of([[10 ** 12]]))
    assert aut.violations == []
    assert aut.generators["a1"].rules["e1_1_1"][1].word == (("a1", 5 * 10 ** 11),)


@pytest.mark.parametrize("k", [2, -2, 3])
def test_validate_rejects_a_power_of_a_non_loop(k):
    """b : w -> v is no loop, so b b does not chain, though each b fits the
    rule's (d, c) = (w, v) and no two runs are adjacent: old_validate, which
    checks adjacent symbols only, never reaches this case."""
    aut = parse_spec((SPECS[0].parent / "ex310.ss").read_text()).automaton()
    a = aut.generators["a"]
    rules = {**a.rules, "2": ("3", Element("w", (("b", k),)))}
    got = Automaton(aut.graph, {**aut.generators, "a": GeneratorRule("v", "w", rules)})
    assert [str(v) for v in got.violations] == [
        str(RestrictionVertexMismatchError("a", "2", "word does not chain"))]
    with pytest.raises(NonComposableError):  # the spelled-out word does not chain either
        aut.element(" ".join(["b" if k > 0 else "b^-1"] * abs(k)))
