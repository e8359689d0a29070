import random

import pytest

from selfsim.automaton import Automaton, Element, GeneratorRule, reachable_closure
from selfsim.errors import (
    AutomatonError,
    DomainMismatchError,
    NonComposableError,
    NotBijectiveOnEdgesError,
    RestrictionVertexMismatchError,
)
from selfsim.graphs import Graph, Path

from conftest import build_ex310, paths_at, unit


def path(aut, literal):
    return Path.of(aut.graph, list(literal))


def act_table_oracle(aut, g, n):
    """Brute force: the map of g on all length-n paths at d(g)."""
    out = {}
    for p in paths_at(aut.graph, n, g.dom):
        out[p.edges] = aut.act(g, p).edges
    return out


def random_element(aut, rng, max_len=5):
    """A random composable signed word, grown right to left."""
    names = sorted(aut.generators)
    for _ in range(200):
        toks = []
        cod = None
        want_len = rng.randint(0, max_len)
        for _ in range(want_len):
            opts = []
            for n in names:
                rule = aut.generators[n]
                if cod is None or rule.cod == cod:
                    opts.append((n, 1, rule.dom))
                if cod is None or rule.dom == cod:
                    opts.append((n, -1, rule.cod))
            if not opts:
                break
            n, e, nxt = rng.choice(opts)
            toks.append((n, e))
            cod = nxt
        if toks:
            word = tuple(toks)
            return Element(cod, word)
        if want_len == 0:
            return aut.unit(rng.choice(aut.graph.vertices))
    raise AssertionError("could not sample an element")


def random_path_at(aut, rng, v, length):
    g = aut.graph
    edges = []
    cur = v
    for _ in range(length):
        opts = g.range_edges(cur)
        e = rng.choice(opts)
        edges.append(e.id)
        cur = e.src
    return Path(v, tuple(edges)) if edges else Path.empty(v)


def test_validate_automaton_ok(ex310, basilica):
    assert ex310.violations == []
    assert basilica.violations == []


def test_validate_automaton_not_bijective():
    g = build_ex310().graph
    gens = {
        "a": GeneratorRule("v", "w", {"1": ("4", unit("v")), "2": ("4", unit("w"))}),
        "b": GeneratorRule("w", "v", {"3": ("1", unit("v")), "4": ("2", Element("v", (("a", 1),)))}),
    }
    aut = Automaton(g, gens)
    assert any(isinstance(v, NotBijectiveOnEdgesError) and v.generator == "a"
               for v in aut.violations)


def test_validate_automaton_restriction_mismatch():
    g = build_ex310().graph
    gens = {
        # a|_1 should be a unit at v = s(1); declare it at w instead
        "a": GeneratorRule("v", "w", {"1": ("4", unit("w")), "2": ("3", Element("w", (("b", 1),)))}),
        "b": GeneratorRule("w", "v", {"3": ("1", unit("v")), "4": ("2", Element("v", (("a", 1),)))}),
    }
    aut = Automaton(g, gens)
    assert any(isinstance(v, RestrictionVertexMismatchError) for v in aut.violations)



def test_generator_name_ending_in_inverse_marker_is_rejected():
    # every token reader takes a trailing ^-1 for inversion, so x^-1 could
    # not be written back into a spec or an element literal
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    rules = {"0": ("1", unit("v")), "1": ("0", Element("v", (("x^-1", 1),)))}
    with pytest.raises(AutomatonError, match=r"'x\^-1' ends in the inverse marker"):
        Automaton(g, {"x^-1": GeneratorRule("v", "v", rules)})
    assert Automaton(g, {"x^-2": GeneratorRule("v", "v", rules | {"1": ("0", unit("v"))})})

def test_act_long_word(ex310):
    a = ex310.generator("a")
    assert ex310.act(a, path(ex310, "242312")).edges == tuple("323112")


def test_act_unit_and_domain(ex310):
    p = path(ex310, "11")
    assert ex310.act(ex310.unit("v"), p) == p
    with pytest.raises(DomainMismatchError):
        ex310.act(ex310.generator("a"), path(ex310, "31"))  # r = w != d(a)


def test_act_b_on_3231(ex310):
    b = ex310.generator("b")
    assert ex310.act(b, path(ex310, "3231")).edges == tuple("1231")


def test_restrict_displayed_computations(ex310):
    a, b = ex310.generator("a"), ex310.generator("b")
    ab = ex310.compose(a, b)
    ba = ex310.compose(b, a)
    assert ex310.equal(ex310.restrict(ab, path(ex310, "3")), ex310.unit("v"))
    assert ex310.equal(ex310.restrict(ab, path(ex310, "4")), ba)
    assert ex310.equal(ex310.restrict(ba, path(ex310, "1")), a)
    assert ex310.equal(ex310.restrict(ba, path(ex310, "2")), b)


def test_restrict_empty_path(ex310):
    a = ex310.generator("a")
    assert ex310.restrict(a, Path.empty("v")) == a


def test_inverse_rule_table(ex310):
    # Invert the rule table by hand: a.1=4 and a.2=3 give the oracle
    # a^-1.4=1 with restriction (a|_1)^-1 = v, a^-1.3=2 with (a|_2)^-1 = b^-1.
    ainv = ex310.inverse(ex310.generator("a"))
    assert ainv.dom == "w"
    assert ex310.act(ainv, path(ex310, "4")).edges == ("1",)
    assert ex310.act(ainv, path(ex310, "3")).edges == ("2",)
    assert ex310.equal(ex310.restrict(ainv, path(ex310, "4")), ex310.unit("v"))
    assert ex310.equal(ex310.restrict(ainv, path(ex310, "3")),
                       ex310.inverse(ex310.generator("b")))


def test_inverse_involution_and_units(ex310):
    b = ex310.generator("b")
    assert ex310.equal(ex310.inverse(ex310.inverse(b)), b)
    assert ex310.inverse(ex310.unit("v")) == ex310.unit("v")


def test_compose_chain_and_errors(ex310):
    a, b = ex310.generator("a"), ex310.generator("b")
    ba = ex310.compose(b, a)
    assert ex310.act(ba, path(ex310, "1")).edges == ("2",)  # b.(a.1) = b.4 = 2
    assert ex310.equal(ex310.compose(ex310.unit("w"), a), a)
    with pytest.raises(NonComposableError):
        ex310.compose(a, a)  # d(a) = v != c(a) = w


def test_compose_with_inverse_is_unit(ex310):
    a = ex310.generator("a")
    gg = ex310.compose(a, ex310.inverse(a))
    # oracle: brute-force action comparison on wE^2
    assert gg.dom == "w"
    for p in paths_at(ex310.graph, 2, "w"):
        assert ex310.act(gg, p) == p
    assert ex310.equal(gg, ex310.unit("w"))


def test_equal_basics(ex310):
    a, b = ex310.generator("a"), ex310.generator("b")
    assert ex310.equal(a, a)
    # a^-1 and b both map w-rooted paths, but disagree on edge 4
    assert not ex310.equal(ex310.inverse(a), b)
    assert not ex310.equal(a, b)  # different endpoints entirely


def test_equal_vs_depth8_oracle(ex310):
    rng = random.Random(20260810)
    for _ in range(60):
        g = random_element(ex310, rng)
        h = random_element(ex310, rng)
        if g.dom != h.dom or ex310.cod(g) != ex310.cod(h):
            continue
        expected = act_table_oracle(ex310, g, 8) == act_table_oracle(ex310, h, 8)
        assert ex310.equal(g, h) == expected


def test_action_is_bijection_per_level(ex310):
    rng = random.Random(7)
    for _ in range(10):
        g = random_element(ex310, rng, max_len=3)
        for n in range(1, 7):
            table = act_table_oracle(ex310, g, n)
            images = set(table.values())
            assert len(images) == len(table)
            target = {p.edges for p in paths_at(ex310.graph, n, ex310.cod(g))}
            assert images == target


def test_reachable_closure_ex310(ex310):
    sm = reachable_closure(ex310, [ex310.generator("a")])
    names = {ex310.canonical(s).name() for s in sm.states}
    # a|_2 = b, then unit restrictions of both units appear: the unit at w is
    # forced once v restricts along edge 2 (restriction closure invariant).
    assert names == {"a", "b", "v", "w"}
    # each row covers exactly the edges into its state's domain, in order,
    # and every successor is a state
    for d, row in zip(sm.doms, sm.rows):
        assert list(row) == [e.id for e in ex310.graph.range_edges(d)]
        assert all(j in range(len(sm)) for _, j in row.values())


def test_reachable_closure_units(ex310):
    sm = reachable_closure(ex310, [ex310.unit("v")])
    names = {s.name() for s in sm.states}
    assert names == {"v", "w"}
    assert all(s.is_unit for s in sm.states)


def test_reachable_closure_basilica_contains_ca(basilica):
    ba = basilica.compose(basilica.generator("b"), basilica.generator("a"))
    ca = basilica.compose(basilica.generator("c"), basilica.generator("a"))
    sm = reachable_closure(basilica, [ba])
    ids = {basilica.canonical_id(s) for s in sm.states}
    assert basilica.canonical_id(ca) in ids


def test_action_restriction_identities(ex310, basilica):
    """r(g.mu) = c(g); s(g.mu) = g|_mu . s(mu); g|_{mu nu} = (g|_mu)|_nu;
    (hg)|_mu = (h|_{g.mu})(g|_mu); g^-1|_eta = (g|_{g^-1.eta})^-1."""
    rng = random.Random(99)
    for aut in (ex310, basilica):
        for _ in range(250):
            g = random_element(aut, rng, max_len=4)
            mu = random_path_at(aut, rng, g.dom, rng.randint(0, 4))
            img = aut.act(g, mu)
            assert img.r(aut.graph) == aut.cod(g)
            rest = aut.restrict(g, mu)
            assert aut.cod(rest) == img.s(aut.graph)
            nu = random_path_at(aut, rng, mu.s(aut.graph), rng.randint(0, 3))
            from selfsim.graphs import concat
            munu = concat(aut.graph, mu, nu)
            assert aut.restrict(g, munu) == aut.restrict(rest, nu)
            # (hg)|_mu law
            h = random_element(aut, rng, max_len=3)
            if h.dom == aut.cod(g):
                hg = aut.compose(h, g)
                lhs = aut.restrict(hg, mu)
                rhs = aut.compose(aut.restrict(h, img), rest)
                assert aut.equal(lhs, rhs)
            # inverse law
            eta = random_path_at(aut, rng, aut.cod(g), rng.randint(0, 3))
            ginv = aut.inverse(g)
            lhs = aut.restrict(ginv, eta)
            rhs = aut.inverse(aut.restrict(g, aut.act(ginv, eta)))
            assert aut.equal(lhs, rhs)


def test_act_prefix_compatible(ex310):
    rng = random.Random(3)
    for _ in range(50):
        g = random_element(ex310, rng, max_len=4)
        p = random_path_at(ex310, rng, g.dom, 6)
        img = ex310.act(g, p)
        for k in range(7):
            prefix = Path(p.base, p.edges[:k]) if k else Path.empty(p.base)
            assert ex310.act(g, prefix).edges == img.edges[:k]


def loop_reachable_closure(aut, seeds):
    """reachable_closure as it was: a hand-rolled breadth-first loop that
    charges every class past the seeds against max_states as it is found."""
    from selfsim.automaton import StateMachine
    from selfsim.errors import ClosureLimitError

    budget, registry = aut.bounds.max_states, aut._registry
    order, index = [], {}
    for s in seeds:
        cid = registry.lookup(s)[0]
        if cid not in index:
            index[cid] = len(order)
            order.append(cid)
    rows = []
    for cid in order:
        row = {}
        for eid, img, succ in registry.row(cid):
            if succ not in index:
                if len(order) >= budget:
                    raise ClosureLimitError(budget, "restriction closure")
                index[succ] = len(order)
                order.append(succ)
            row[eid] = (img, index[succ])
        rows.append(row)
    states = [registry.reps[cid] for cid in order]
    return StateMachine(states, [g.dom for g in states], [aut.cod(g) for g in states], rows, index)


def test_reachable_closure_vs_loop_oracle():
    from pathlib import Path as FsPath

    from selfsim.automaton import Bounds
    from selfsim.errors import ClosureLimitError
    from selfsim.specfile import parse_spec

    def outcome(closure, spec, max_states, seeds):
        aut = spec.automaton(Bounds(max_states=max_states))  # a fresh registry each time
        try:
            sm = closure(aut, seeds)
        except ClosureLimitError as e:
            return str(e)
        return sm.to_json(), sm.index

    rng = random.Random(29)
    answers = {"closed": 0, "past budget": 0, "closed, more seed classes than max_states": 0}
    for path in sorted((FsPath(__file__).resolve().parent.parent / "specs").glob("*.ss")):
        spec = parse_spec(path.read_text())
        aut = spec.automaton()
        pools = [[random_element(aut, rng, max_len=4) for _ in range(rng.randint(1, 6))]
                 for _ in range(12)]
        try:  # a restriction-closed seed set: the closure adds nothing to it
            pools.append(reachable_closure(aut, aut.basic_elements()).states)
        except ClosureLimitError:  # the non-contracting spec's closure grows words
            pass
        for seeds in pools:
            try:
                classes = len({aut.canonical_id(g) for g in seeds})
            except ClosureLimitError:
                classes = 0
            for max_states in range(1, 16):
                got = outcome(reachable_closure, spec, max_states, seeds)
                assert got == outcome(loop_reachable_closure, spec, max_states, seeds), \
                    (path.stem, seeds, max_states)
                if isinstance(got, str):
                    answers["past budget"] += 1
                else:
                    answers["closed"] += 1
                    answers["closed, more seed classes than max_states"] += classes > max_states
    assert min(answers.values()) > 0, answers
