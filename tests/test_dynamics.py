import json
import random
from math import lcm
from pathlib import Path as FsPath

import pytest

from selfsim.automaton import Automaton, Bounds, Element, GeneratorRule, word_key
from selfsim.errors import (
    ClosureLimitError,
    DomainMismatchError,
    JunctionMismatchError,
    NotStronglyConnectedError,
)
from selfsim.graphs import Graph, Path, cyclic_nodes, limit_nodes, validate_graph
from selfsim.infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath
from selfsim.ktheory import IntMatrix, katsura_automaton
from selfsim.nucleus import Nucleus, compute_nucleus
from selfsim.specfile import parse_spec
from selfsim.dynamics import (
    AeWitness,
    IrregularityWitness,
    NonHausdorffWitness,
    RecurrenceReport,
    ae_class,
    ae_equivalent,
    ae_equivalent_bi,
    check_recurrent,
    find_discerning_path,
    germ_equal,
    is_hausdorff,
    is_regular,
    level_transitive,
    make_germ,
    shift_class,
    stable_equivalent,
    unstable_equivalent,
    _unstable_element_pool,
)



@pytest.fixture(scope="module")
def nuc310(ex310):
    return compute_nucleus(ex310)


@pytest.fixture(scope="module")
def nucbas(basilica):
    return compute_nucleus(basilica)


def random_left_path(aut, rng, max_cycle=6, max_tail=4):
    g = aut.graph
    for _ in range(60):
        start = rng.choice(g.vertices)
        cyc = _cycle_through(g, rng, start, rng.randint(1, max_cycle))
        if cyc is None:
            continue
        tail = _walk(g, rng, g.s(cyc[-1]), rng.randint(0, max_tail))
        return LeftInfinitePath.make(g, cyc, tail)
    raise AssertionError("no cycle found")


def random_bi_path(aut, rng, max_cycle=4, max_mid=3):
    g = aut.graph
    for _ in range(100):
        start = rng.choice(g.vertices)
        rho = _cycle_through(g, rng, start, rng.randint(1, max_cycle))
        if rho is None:
            continue
        mid = _walk(g, rng, g.s(rho[-1]), rng.randint(0, max_mid))
        cur = g.s(mid[-1]) if mid else g.s(rho[-1])
        pi = _cycle_through(g, rng, cur, rng.randint(1, max_cycle))
        if pi is None:
            continue
        return BiInfinitePath.make(g, rho, mid, pi, rng.randint(-3, 3))
    raise AssertionError("no bi-infinite path found")


def _walk(g, rng, start, length):
    out, cur = [], start
    for _ in range(length):
        e = rng.choice(g.range_edges(cur))
        out.append(e.id)
        cur = e.src
    return out


def _cycle_through(g, rng, start, max_len):
    for _ in range(40):
        cur, walk = start, []
        for _ in range(max(1, max_len)):
            e = rng.choice(g.range_edges(cur))
            walk.append(e.id)
            cur = e.src
            if cur == start:
                return walk
    return None


# -- asymptotic equivalence ------------------------------------------------------


def test_ae_reflexive_with_unit_witness(ex310, nuc310):
    x = LeftInfinitePath.make(ex310.graph, ["1"], [])
    ok, wit = ae_equivalent(x, x, nuc310, want_witness=True)
    assert ok and wit.entry_state == "v"


def test_ae_class_of_loop_is_singleton(ex310, nuc310):
    x = LeftInfinitePath.make(ex310.graph, ["1"], [])
    assert ae_class(x, nuc310) == [x]
    y = LeftInfinitePath.make(ex310.graph, ["1"], ["2", "4"])
    assert not ae_equivalent(x, y, nuc310)


def test_ae_equivalence_laws_and_class_bound(ex310, nuc310):
    rng = random.Random(11)
    aut = ex310
    for _ in range(120):
        x = random_left_path(aut, rng)
        y = random_left_path(aut, rng)
        z = random_left_path(aut, rng)
        assert ae_equivalent(x, x, nuc310)
        assert ae_equivalent(x, y, nuc310) == ae_equivalent(y, x, nuc310)
        if ae_equivalent(x, y, nuc310) and ae_equivalent(y, z, nuc310):
            assert ae_equivalent(x, z, nuc310)
        cls = ae_class(x, nuc310)
        assert x in cls
        assert len(cls) <= len(nuc310)
        for m in cls:
            assert ae_equivalent(x, m, nuc310)


def subset_construction_ae_oracle(aut, nuc, x, y):
    """Independent decision of x ~ y: T_n = nucleus states mapping the last-n
    window of x onto that of y satisfies T_{n+1} = {h : h.x_{-(n+1)} =
    y_{-(n+1)} and h|_{x_{-(n+1)}} in T_n}; the runs of the transducer are
    exactly the inverse limit of the T_n, which is nonempty iff all T_n are
    (finite sets).  (T_n, phase) evolves deterministically, so iterate until
    a repeat: empty T somewhere = inequivalent, repeat with all nonempty =
    equivalent.  Right-to-left subset construction, no cycle analysis."""
    from math import lcm as _lcm

    g = aut.graph
    ids = lambda h: aut.canonical_id(h)
    state_of = {ids(h): h for h in nuc.states}
    t = frozenset(state_of)
    period = _lcm(len(x.cycle), len(y.cycle))
    transient = max(len(x.tail), len(y.tail))
    seen = set()
    n = 0
    while True:
        n += 1
        ex_, ey_ = x.edge_at(-n), y.edge_at(-n)
        nxt = set()
        for cid in t:
            for h in nuc.states:
                if h.dom != g.r(ex_):
                    continue
                img, rw = aut.word_act_edge(h.word, ex_)
                if img == ey_ and ids(Element(g.s(ex_), rw)) == cid:
                    nxt.add(ids(h))
        t = frozenset(nxt)
        if not t:
            return False
        if n >= transient:
            key = (t, (n - transient) % period)
            if key in seen:
                return True
            seen.add(key)


def test_ae_vs_subset_construction_oracle(ex310, nuc310):
    rng = random.Random(97)
    agree_true = agree_false = 0
    for i in range(150):
        x = random_left_path(ex310, rng)
        if i % 3 == 0:
            y = rng.choice(ae_class(x, nuc310))  # guarantee equivalent pairs
        else:
            y = random_left_path(ex310, rng)
        got = ae_equivalent(x, y, nuc310)
        want = subset_construction_ae_oracle(ex310, nuc310, x, y)
        assert got == want, (str(x), str(y))
        if got:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 10 and agree_false > 10


def test_ae_class_consistency(ex310, nuc310):
    # membership in ae_class agrees with the pairwise decision procedure
    rng = random.Random(23)
    for _ in range(40):
        x = random_left_path(ex310, rng)
        y = random_left_path(ex310, rng)
        assert (y in ae_class(x, nuc310)) == ae_equivalent(x, y, nuc310)


def test_shift_well_defined_on_classes(ex310, nuc310):
    g = ex310.graph
    assert shift_class(g, LeftInfinitePath.make(g, ["2", "3"], [])) == \
        LeftInfinitePath.make(g, ["3", "2"], [])
    rng = random.Random(31)
    for _ in range(150):
        x = random_left_path(ex310, rng)
        y = random_left_path(ex310, rng)
        if ae_equivalent(x, y, nuc310):
            assert ae_equivalent(shift_class(g, x), shift_class(g, y), nuc310)


def test_fiber_bijectivity_on_classes(ex310, nuc310):
    # deleting the last edge maps the class of x.e injectively into the class of x
    g = ex310.graph
    rng = random.Random(37)
    for _ in range(40):
        x = random_left_path(ex310, rng)
        exts = [e for e in g.edges if g.r(e.id) == x.s(g)]
        for e in exts:
            xe = LeftInfinitePath.make(g, x.cycle, x.tail + (e.id,))
            cls_up = ae_class(xe, nuc310)
            cls_dn = ae_class(x, nuc310)
            images = [shift_class(g, m) for m in cls_up]
            assert len({(m.cycle, m.tail) for m in images}) == len(cls_up)
            for m in images:
                assert m in cls_dn


def test_ae_can_cross_source_vertices():
    # A generator p: u -> v carrying a loop e at u onto a loop f at v with
    # p|_e = p makes e^inf equivalent to f^inf even though the two paths
    # have different source vertices: the implementing sequence never has
    # to end in a unit.
    from selfsim.automaton import Automaton, Element, GeneratorRule
    from selfsim.graphs import Graph

    g = Graph(["u", "v"], [("e", "u", "u"), ("f", "v", "v")])
    aut = Automaton(g, {
        "p": GeneratorRule("u", "v", {"e": ("f", Element("u", (("p", 1),)))}),
    })
    assert aut.violations == []
    nuc = compute_nucleus(aut)
    x = LeftInfinitePath.make(g, ["e"], [])
    y = LeftInfinitePath.make(g, ["f"], [])
    assert x.s(g) == "u" and y.s(g) == "v"
    assert ae_equivalent(x, y, nuc)
    assert sorted(str(m) for m in ae_class(x, nuc)) == ["(e)^inf", "(f)^inf"]


def test_ae_bi_basics(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["1"], [], ["1"], 0)
    assert ae_equivalent_bi(x, x, nuc310)
    y = BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], 0)
    z = BiInfinitePath.make(g, ["4", "2"], [], ["4", "2"], 0)
    assert not ae_equivalent_bi(x, y, nuc310)
    assert ae_equivalent_bi(y, z, nuc310)


def test_ae_bi_implies_truncation_ae_and_transitive(ex310, nuc310):
    g = ex310.graph
    rng = random.Random(41)
    pairs = 0
    for _ in range(200):
        x = random_bi_path(ex310, rng)
        y = random_bi_path(ex310, rng)
        if ae_equivalent_bi(x, y, nuc310):
            pairs += 1
            for n in range(-6, 7):
                assert ae_equivalent(x.left_truncation(g, n), y.left_truncation(g, n), nuc310)
        z = random_bi_path(ex310, rng)
        if ae_equivalent_bi(x, y, nuc310) and ae_equivalent_bi(y, z, nuc310):
            assert ae_equivalent_bi(x, z, nuc310)
    assert pairs > 0


# -- regularity / Hausdorffness ---------------------------------------------------


def brute_force_irregularity(aut, nuc, depth):
    """Search for a nucleus state with a fixed path of the given length whose
    intermediate restrictions are never units."""
    for h in nuc.non_units():
        frontier = [(h, h.dom)]
        for _ in range(depth):
            nxt = []
            for (state, v) in frontier:
                for e in aut.graph.range_edges(v):
                    img, rw = aut.word_act_edge(state.word, e.id)
                    if img != e.id:
                        continue
                    succ = Element(e.src, rw)
                    if aut.equal(succ, aut.unit(e.src)):
                        continue
                    nxt.append((succ, e.src))
            frontier = nxt
            if not frontier:
                break
        if frontier:
            return True
    return False


def test_regular_ex310_and_basilica(nuc310, nucbas):
    assert is_regular(nuc310)
    assert is_regular(nucbas)
    assert is_hausdorff(nuc310)
    assert is_hausdorff(nucbas)


def test_regular_vs_brute_force(ex310, basilica, nonhausdorff, odometer):
    for aut in (ex310, basilica, nonhausdorff, odometer):
        nuc = compute_nucleus(aut)
        depth = max(10, len(nuc) + 1)
        assert is_regular(nuc) == (not brute_force_irregularity(aut, nuc, depth))


def test_odometer_regular_vacuously(odometer):
    nuc = compute_nucleus(odometer)
    assert is_regular(nuc)
    assert is_hausdorff(nuc)


def test_nonhausdorff_witness(nonhausdorff):
    nuc = compute_nucleus(nonhausdorff)
    ok, wit = is_regular(nuc, want_witness=True)
    assert not ok
    g = nonhausdorff
    y = wit.fixed_path
    elem = g.element(wit.element)
    # the witness path really is fixed with never-unit restrictions
    state = elem
    for n in range(1, 9):
        p = y.prefix_path(g.graph, n)
        assert g.act(elem, p) == p
        assert not g.equal(g.restrict(elem, p), g.unit(p.s(g.graph)))
    ok2, wit2 = is_hausdorff(nuc, want_witness=True)
    assert not ok2
    mu = list(wit2.strongly_fixed_extension)
    # every prefix of the fixed path extends to a strongly fixed path
    for n in range(0, 6):
        lam = y.prefix(n) + mu
        p = Path.of(g.graph, lam)
        assert g.act(elem, p) == p
        assert g.restrict(elem, p).is_unit


def test_hausdorff_but_irregular():
    # h fixes loop 0 with restriction h and swaps 2, 3; no strongly fixed
    # extensions exist, so the cycle reaches no unit: Hausdorff yet irregular.
    from selfsim.automaton import Automaton, GeneratorRule
    from selfsim.graphs import Graph
    from conftest import unit

    g = Graph(["v"], [("0", "v", "v"), ("2", "v", "v"), ("3", "v", "v")])
    aut = Automaton(g, {
        "h": GeneratorRule("v", "v", {
            "0": ("0", Element("v", (("h", 1),))),
            "2": ("3", unit("v")),
            "3": ("2", unit("v")),
        }),
    })
    nuc = compute_nucleus(aut)
    assert not is_regular(nuc)
    assert is_hausdorff(nuc)


def test_regular_implies_hausdorff_everywhere(ex310, basilica, odometer, nonhausdorff):
    for aut in (ex310, basilica, odometer, nonhausdorff):
        nuc = compute_nucleus(aut)
        if is_regular(nuc):
            assert is_hausdorff(nuc)


# -- recurrence / level transitivity ----------------------------------------------


def test_recurrent_odometer(odometer):
    rep = check_recurrent(odometer, 4)
    assert rep.recurrent


def test_recurrent_needs_strong_connectivity(basilica):
    with pytest.raises(NotStronglyConnectedError):
        check_recurrent(basilica, 4)


def test_recurrent_ex310_reports(ex310):
    rep = check_recurrent(ex310, 6)
    # bounded search: either outcome is acceptable, but it must be stable
    rep2 = check_recurrent(ex310, 6)
    assert rep == rep2


def test_level_transitive(ex310, basilica, odometer):
    for n in range(1, 7):
        assert level_transitive(ex310, n)
        assert level_transitive(basilica, n)
        assert level_transitive(odometer, n)


def test_level_transitive_trivial_action_false():
    from selfsim.automaton import Automaton
    from selfsim.graphs import Graph

    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    aut = Automaton(g, {})
    assert not level_transitive(aut, 1)


# -- germs -------------------------------------------------------------------------


def test_germ_identity_offsets(ex310, nuc310):
    g = ex310.graph
    x = RightInfinitePath.make(g, [], ["1"])
    g1 = make_germ(ex310, x, 2, ex310.unit("v"), 2, x)
    g2 = make_germ(ex310, x, 5, ex310.unit("v"), 5, x)
    assert germ_equal(g1, g2, nuc310)
    assert germ_equal(g1, g1, nuc310)


def test_germ_distinct_elements_equal_restrictions(ex310, nuc310):
    g = ex310.graph
    y = RightInfinitePath.make(g, [], ["1"])
    x = ex310.act_infinite(ex310.generator("a"), y)  # 4 . (1)^inf
    g1 = make_germ(ex310, x, 0, ex310.generator("a"), 0, y)
    g2 = make_germ(ex310, x, 1, ex310.unit("v"), 1, y)
    # a|_1 = v, so the germs agree from depth 1 on although a != unit
    assert germ_equal(g1, g2, nuc310)


def test_germ_equal_with_headed_ray(ex310, nuc310):
    g = ex310.graph
    y = RightInfinitePath.make(g, ["4"], ["1"])  # 4 . 1 . 1 ...
    b = ex310.generator("b")
    x = ex310.act_infinite(b, y)  # 2 . 4 . 1 ...
    assert x.prefix(3) == ["2", "4", "1"]
    g1 = make_germ(ex310, x, 0, b, 0, y)
    g2 = make_germ(ex310, x, 2, ex310.unit("v"), 2, y)
    # b|_{41} = a|_1 = unit, so the germs merge at depth 2
    assert germ_equal(g1, g2, nuc310)
    g3 = make_germ(ex310, x, 1, ex310.generator("a"), 1, y)
    # a's restrictions along 1^inf are units from depth 1 on as well
    assert germ_equal(g1, g3, nuc310)


def test_germ_lag_mismatch(ex310, nuc310):
    g = ex310.graph
    x = RightInfinitePath.make(g, [], ["1"])
    g1 = make_germ(ex310, x, 2, ex310.unit("v"), 2, x)
    g3 = make_germ(ex310, x, 3, ex310.unit("v"), 2, x)  # shift^3 = shift^2 on (1)^inf
    assert not germ_equal(g1, g3, nuc310)


def l_scan_oracle(aut, g1, g2, depth):
    """Exhaustive search for l with equal restrictions along y."""
    graph = aut.graph
    if g1.x != g2.x or g1.y != g2.y or (g1.m - g1.n) != (g2.m - g2.n):
        return False
    for l in range(max(g1.n, g2.n), depth):
        a = aut.restrict(g1.g, g1.y.segment(graph, g1.n, l))
        b = aut.restrict(g2.g, g2.y.segment(graph, g2.n, l))
        if aut.equal(a, b):
            return True
    return False


def random_germ_pair(aut, rng):
    from test_automaton import random_element

    g = aut.graph
    for _ in range(100):
        start = rng.choice(g.vertices)
        cyc = _cycle_through(g, rng, start, rng.randint(1, 4))
        if cyc is None:
            continue
        y = RightInfinitePath.make(g, [], cyc)
        n = rng.randint(0, 3)
        elem = random_element(aut, rng, max_len=3)
        if elem.dom != g.r(y.edge_at(n + 1)):
            continue
        x = aut.act_infinite(elem, y.shift(g, n))
        m = rng.randint(0, 3)
        # re-anchor x so that shift^m(x') = x: prepend m arbitrary edges
        pre = _walk_into(g, rng, x.r(g), m)
        if pre is None:
            continue
        xm = RightInfinitePath.make(g, pre + list(x.head), x.cycle)
        g1 = make_germ(aut, xm, m, elem, n, y)
        elem2 = random_element(aut, rng, max_len=3)
        if elem2.dom != g.r(y.edge_at(n + 1)) or aut.cod(elem2) != aut.cod(elem):
            continue
        if aut.act_infinite(elem2, y.shift(g, n)) != x:
            continue
        g2 = make_germ(aut, xm, m, elem2, n, y)
        return g1, g2
    return None


def _walk_into(g, rng, target, length):
    """A length-`length` edge sequence ending so its source is `target`,
    i.e. pre + x composes: s(pre[-1]) = r(x)."""
    if length == 0:
        return []
    for _ in range(50):
        edges = []
        cur = target
        for _ in range(length):
            opts = [e for e in g.edges if e.src == cur]
            if not opts:
                break
            e = rng.choice(opts)
            edges.append(e.id)
            cur = e.dst
        if len(edges) == length:
            return list(reversed(edges))
    return None


def test_germ_equal_vs_l_scan(ex310, nuc310):
    rng = random.Random(53)
    found = 0
    for _ in range(300):
        pair = random_germ_pair(ex310, rng)
        if pair is None:
            continue
        found += 1
        g1, g2 = pair
        assert germ_equal(g1, g2, nuc310) == l_scan_oracle(ex310, g1, g2, 32)
    assert found >= 50


# -- stable / unstable -------------------------------------------------------------


def test_stable_reflexive_and_finite_right_difference(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["2", "3"], [], ["1"], 0)
    ok, m = stable_equivalent(x, x, nuc310, want_witness=True)
    assert ok and m == 0
    y = BiInfinitePath.make(g, ["2", "3"], ["1", "1", "2", "4"], ["1"], 0)
    assert stable_equivalent(x, y, nuc310)


def test_stable_negative(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["1"], [], ["1"], 0)
    y = BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], 0)
    assert not stable_equivalent(x, y, nuc310)


def test_stable_respects_translation(ex310, nuc310):
    g = ex310.graph
    rng = random.Random(61)
    for _ in range(60):
        x = random_bi_path(ex310, rng)
        y = random_bi_path(ex310, rng)
        st = stable_equivalent(x, y, nuc310)
        assert st == stable_equivalent(x.translate(g, 1), y.translate(g, 1), nuc310)


def test_unstable_reflexive_and_witness(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["2", "3"], [], ["1"], 0)
    ok, wit = unstable_equivalent(x, x, nuc310, want_witness=True)
    assert ok and wit[0] == 0 and wit[1].is_unit


def test_unstable_a_witness(ex310, nuc310):
    g = ex310.graph
    # x has right tail 1.1.1... from position 1; y has 4.1.1... from position 1
    x = BiInfinitePath.make(g, ["2", "3"], ["1"], ["1"], 0)
    y = BiInfinitePath.make(g, ["3", "2"], ["4"], ["1"], 1)
    assert x.edge_at(1) == "1" and y.edge_at(1) == "4"
    ok, (m, elem) = unstable_equivalent(x, y, nuc310, want_witness=True)
    assert ok
    assert m == 0 and elem.name() == "a"


def test_unstable_symmetry_via_inverse(ex310, nuc310):
    rng = random.Random(71)
    for _ in range(60):
        x = random_bi_path(ex310, rng)
        y = random_bi_path(ex310, rng)
        assert unstable_equivalent(x, y, nuc310) == unstable_equivalent(y, x, nuc310)


def test_unstable_negative(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["1"], [], ["1"], 0)
    y = BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], 0)
    assert not unstable_equivalent(x, y, nuc310)


def test_regular_iff_principal_isotropy(ex310, nuc310, nonhausdorff):
    # On a regular action every isotropy germ [x, n, g, n, x] collapses to a
    # unit germ (the restrictions eventually die); on an irregular one some
    # isotropy germ stays nontrivial forever.
    g = ex310.graph
    x = RightInfinitePath.make(g, [], ["1"])
    trivial = ex310.compose(ex310.inverse(ex310.generator("a")), ex310.generator("a"))
    iso = make_germ(ex310, x, 0, trivial, 0, x)
    unit_germ = make_germ(ex310, x, 0, ex310.unit("v"), 0, x)
    assert germ_equal(iso, unit_germ, nuc310)

    nucnh = compute_nucleus(nonhausdorff)
    gnh = nonhausdorff.graph
    y = RightInfinitePath.make(gnh, [], ["0"])
    h = nonhausdorff.generator("h")
    iso2 = make_germ(nonhausdorff, y, 0, h, 0, y)
    unit2 = make_germ(nonhausdorff, y, 0, nonhausdorff.unit("v"), 0, y)
    assert not is_regular(nucnh)
    assert not germ_equal(iso2, unit2, nucnh)


def test_recurrent_nucleus_generates(odometer):
    # For a contracting, recurrent action the nucleus is a generating set:
    # every generator is a product of at most a few nucleus elements.
    assert check_recurrent(odometer, 4).recurrent
    nuc = compute_nucleus(odometer)
    # products of length <= 3 over nucleus states
    layer = {odometer.canonical_id(s): s for s in nuc.states}
    span = dict(layer)
    for _ in range(2):
        nxt = {}
        for gelem in layer.values():
            for s in nuc.states:
                if s.dom == odometer.cod(gelem):
                    prod = odometer.compose(s, gelem)
                    nxt.setdefault(odometer.canonical_id(prod), odometer.canonical(prod))
        span.update(nxt)
        layer = nxt
    for name in odometer.generators:
        assert odometer.canonical_id(odometer.generator(name)) in span


# -- discerning paths ---------------------------------------------------------------


def test_discerning_path(ex310, nuc310, nonhausdorff):
    g = ex310.graph
    mu = find_discerning_path(nuc310)
    for h in nuc310.non_units():
        if h.dom != mu.r(g):
            continue
        if ex310.act(h, mu) == mu:
            assert ex310.restrict(h, mu).is_unit
    nucnh = compute_nucleus(nonhausdorff)
    mu2 = find_discerning_path(nucnh)
    gnh = nonhausdorff.graph
    for h in nucnh.non_units():
        if h.dom == mu2.r(gnh) and nonhausdorff.act(h, mu2) == mu2:
            assert nonhausdorff.restrict(h, mu2).is_unit


# -- the word-based deciders, kept as differential oracles ----------------------------
#
# Before the deciders read the nucleus's Moore machine they acted words on
# edges and looked every restriction up by class id.  These are those
# deciders, unchanged but for names; the new ones must agree with them on
# return values and witnesses.

ROOT = FsPath(__file__).resolve().parent.parent
SPECS = ("basilica", "ex310", "katsura", "noncontracting", "nonhausdorff", "odometer")


def _zone_tables(L, boundary, edge_fn):
    return {n % L: edge_fn(n) for n in range(boundary - L, boundary)}


def _arcs(F):
    return lambda u: (F[u],) if u in F else ()


def old_left_arrival_states(aut, nuc, edge_x, edge_y, boundary, L):
    graph = aut.graph
    ex = _zone_tables(L, boundary, edge_x)
    ey = _zone_tables(L, boundary, edge_y) if edge_y is not None else None
    state_of = {}
    nodes = []
    for h in nuc.states:
        cid = aut.canonical_id(h)
        state_of[cid] = h
        for p in range(L):
            if h.dom == graph.r(ex[p]):
                nodes.append((p, cid))
    F = {}
    for (p, cid) in nodes:
        h = state_of[cid]
        img, rw = aut.word_act_edge(h.word, ex[p])
        if ey is not None and img != ey[p]:
            continue
        F[(p, cid)] = ((p + 1) % L, aut.canonical_id(Element(graph.s(ex[p]), rw)))
    bp = boundary % L
    arrivals = {cid: state_of[cid] for (p, cid) in limit_nodes(nodes, _arcs(F)) if p == bp}
    return sorted(arrivals.values(), key=lambda h: (word_key(h.word), h.dom))


def old_ae_equivalent(x, y, nuc, want_witness=False):
    aut = nuc.automaton
    graph = aut.graph
    T = max(len(x.tail), len(y.tail))
    L = lcm(len(x.cycle), len(y.cycle))
    for h in old_left_arrival_states(aut, nuc, x.edge_at, y.edge_at, -T, L):
        state, run, ok = h, [], True
        for n in range(-T, 0):
            e = x.edge_at(n)
            if state.dom != graph.r(e):
                ok = False
                break
            img, rw = aut.word_act_edge(state.word, e)
            if img != y.edge_at(n):
                ok = False
                break
            run.append((n, aut.canonical(state).name(), img))
            state = Element(graph.s(e), rw)
        if ok:
            if want_witness:
                return True, AeWitness(aut.canonical(h).name(), tuple(run))
            return True
    return (False, None) if want_witness else False


def old_ae_class(x, nuc):
    aut = nuc.automaton
    graph = aut.graph
    T, L = len(x.tail), len(x.cycle)
    boundary = -T
    ex = _zone_tables(L, boundary, x.edge_at)
    state_of = {}
    nodes = []
    for h in nuc.states:
        cid = aut.canonical_id(h)
        state_of[cid] = h
        for p in range(L):
            if h.dom == graph.r(ex[p]):
                nodes.append((p, cid))
    F, out_edge = {}, {}
    for (p, cid) in nodes:
        img, rw = aut.word_act_edge(state_of[cid].word, ex[p])
        F[(p, cid)] = ((p + 1) % L, aut.canonical_id(Element(graph.s(ex[p]), rw)))
        out_edge[(p, cid)] = img
    members = {}
    for u in sorted(cyclic_nodes(nodes, _arcs(F))):
        cycle_out, cur = [], u
        while True:
            cycle_out.append(out_edge[cur])
            cur = F[cur]
            if cur == u:
                break
        p0 = u[0]
        n1 = (boundary - 1) - ((boundary - 1 - p0) % L)
        tail_out, state = [], state_of[u[1]]
        for n in range(n1, 0):
            e = x.edge_at(n)
            img, rw = aut.word_act_edge(state.word, e)
            tail_out.append(img)
            state = Element(graph.s(e), rw)
        members[LeftInfinitePath.make(graph, cycle_out, tail_out)] = True
    return sorted(members, key=lambda m: (m.cycle, m.tail))


def old_ae_equivalent_bi(x, y, nuc):
    aut = nuc.automaton
    graph = aut.graph
    a0 = min(x.anchor, y.anchor)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    L = lcm(len(x.left_cycle), len(y.left_cycle))
    ty, tx = y.right_tail(graph, b0), x.right_tail(graph, b0)
    for h in old_left_arrival_states(aut, nuc, x.edge_at, y.edge_at, a0, L):
        state, ok = h, True
        for n in range(a0, b0):
            e = x.edge_at(n)
            if state.dom != graph.r(e):
                ok = False
                break
            img, rw = aut.word_act_edge(state.word, e)
            if img != y.edge_at(n):
                ok = False
                break
            state = Element(graph.s(e), rw)
        if ok and aut.act_infinite(state, tx) == ty:
            return True
    return False


def old_fixed_edge_digraph(nuc):
    aut = nuc.automaton
    arcs = {}
    for h in nuc.states:
        cid = aut.canonical_id(h)
        arcs.setdefault(cid, [])
        for e in aut.graph.range_edges(h.dom):
            img, rw = aut.word_act_edge(h.word, e.id)
            if img == e.id:
                arcs[cid].append((e.id, aut.canonical_id(Element(e.src, rw))))
    return arcs


def old_find_cycle(candidates, arcs, restrict_to):
    color = {}
    for start in sorted(candidates):
        if start in color:
            continue
        stack = [(start, iter(arcs.get(start, ())))]
        color[start] = "gray"
        trail, labels = [start], []
        while stack:
            node, it = stack[-1]
            advanced = False
            for (e, succ) in it:
                if succ not in restrict_to:
                    continue
                if color.get(succ) == "gray":
                    i = trail.index(succ)
                    return trail[i:], labels[i:] + [e]
                if succ not in color:
                    color[succ] = "gray"
                    trail.append(succ)
                    labels.append(e)
                    stack.append((succ, iter(arcs.get(succ, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = "black"
                stack.pop()
                if len(trail) > 1:
                    trail.pop()
                    labels.pop()
                else:
                    trail.pop()
    return None


def old_path_to_unit(start, arcs, unit_ids):
    prev = {start: None}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        if cur in unit_ids:
            labels = []
            while prev[cur] is not None:
                p, e = prev[cur]
                labels.append(e)
                cur = p
            return list(reversed(labels))
        for (e, succ) in arcs.get(cur, ()):
            if succ not in prev:
                prev[succ] = (cur, e)
                queue.append(succ)
    return []


def old_is_regular(nuc, want_witness=False):
    aut = nuc.automaton
    arcs = old_fixed_edge_digraph(nuc)
    unit_ids = {aut.canonical_id(s) for s in nuc.states if s.is_unit}
    non_units = {aut.canonical_id(s) for s in nuc.states} - unit_ids
    hit = old_find_cycle(non_units, arcs, non_units)
    if hit is None:
        return (True, None) if want_witness else True
    if not want_witness:
        return False
    states, labels = hit
    rep = next(s for s in nuc.states if aut.canonical_id(s) == states[0])
    return False, IrregularityWitness(rep.name(), RightInfinitePath.make(aut.graph, (), labels))


def old_is_hausdorff(nuc, want_witness=False):
    aut = nuc.automaton
    arcs = old_fixed_edge_digraph(nuc)
    unit_ids = {aut.canonical_id(s) for s in nuc.states if s.is_unit}
    all_ids = {aut.canonical_id(s) for s in nuc.states}
    reaching = set(unit_ids)
    changed = True
    while changed:
        changed = False
        for cid in all_ids:
            if cid not in reaching and any(succ in reaching for (_e, succ) in arcs.get(cid, ())):
                reaching.add(cid)
                changed = True
    pool = (all_ids - unit_ids) & reaching
    hit = old_find_cycle(pool, arcs, pool)
    if hit is None:
        return (True, None) if want_witness else True
    if not want_witness:
        return False
    states, labels = hit
    rep = next(s for s in nuc.states if aut.canonical_id(s) == states[0])
    y = RightInfinitePath.make(aut.graph, (), labels)
    ext = old_path_to_unit(states[0], arcs, unit_ids)
    return False, NonHausdorffWitness(rep.name(), y, tuple(ext))


def old_find_discerning_path(nuc, max_len=64):
    aut = nuc.automaton
    graph = aut.graph
    start_states = {v: frozenset((aut.canonical_id(h), aut.canonical_id(h))
                                 for h in nuc.states if not h.is_unit and h.dom == v)
                    for v in graph.vertices}
    unit_ids = {aut.canonical_id(s) for s in nuc.states if s.is_unit}
    state_of = {aut.canonical_id(s): s for s in nuc.states}
    queue, seen = [], set()
    for v in sorted(graph.vertices):
        queue.append((Path.empty(v), start_states[v]))
        seen.add((v, start_states[v]))
    while queue:
        mu, pairs = queue.pop(0)
        if all(rc in unit_ids for (_g, rc) in pairs):
            return mu
        if len(mu) >= max_len:
            continue
        for e in graph.range_edges(mu.s(graph)):
            nxt = []
            for (gc, rc) in pairs:
                img, rw = aut.word_act_edge(state_of[rc].word, e.id)
                if img == e.id:
                    nxt.append((gc, aut.canonical_id(Element(e.src, rw))))
            nxt = frozenset(nxt)
            if (e.src, nxt) in seen:
                continue
            seen.add((e.src, nxt))
            queue.append((Path(mu.r(graph) if mu.edges else mu.base, mu.edges + (e.id,)), nxt))
    raise DomainMismatchError(f"no discerning path of length <= {max_len} found")


def old_check_recurrent(aut, depth=6):
    graph = aut.graph
    if not validate_graph(graph).strongly_connected:
        raise NotStronglyConnectedError("check_recurrent needs a strongly connected graph")
    basic = [aut.unit(v) for v in graph.vertices]
    for name in sorted(aut.generators):
        basic += [aut.generator(name), aut.inverse(aut.generator(name))]
    targets = {}
    for e in graph.edges:
        for f in graph.edges:
            for h in basic:
                if h.dom == graph.s(e.id) and aut.cod(h) == graph.s(f.id):
                    targets[(e.id, f.id, aut.canonical_id(h))] = (e, f, h)
    unmet = set(targets)

    def scan(g):
        for (eid, fid, hcid) in list(unmet):
            e = targets[(eid, fid, hcid)][0]
            if g.dom != graph.r(eid):
                continue
            img, rw = aut.word_act_edge(g.word, eid)
            if img == fid and aut.canonical_id(Element(e.src, rw)) == hcid:
                unmet.discard((eid, fid, hcid))

    seen_ids, frontier = set(), []
    for g in basic:
        cid = aut.canonical_id(g)
        if cid not in seen_ids:
            seen_ids.add(cid)
            frontier.append(aut.canonical(g))
            scan(g)
    length = 1
    while unmet and length < depth:
        nxt = []
        for g in frontier:
            for name in sorted(aut.generators):
                for sym in (aut.generator(name), aut.inverse(aut.generator(name))):
                    if sym.dom != aut.cod(g):
                        continue
                    prod = aut.compose(sym, g)
                    cid = aut.canonical_id(prod)
                    if cid in seen_ids:
                        continue
                    seen_ids.add(cid)
                    rep = aut.canonical(prod)
                    nxt.append(rep)
                    scan(rep)
        frontier = nxt
        length += 1
        if not frontier:
            break
    if unmet:
        missing = tuple(sorted(f"({e},{f},{targets[(e, f, c)][2].name()})" for (e, f, c) in unmet))
        return RecurrenceReport(False, depth, missing)
    return RecurrenceReport(True, depth)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (ClosureLimitError, DomainMismatchError, NotStronglyConnectedError) as e:
        return type(e).__name__, str(e)


def _root_order_automaton():
    """A random system whose 23-state nucleus numbers its states in another
    order than their class ids, so the regular and Hausdorff witnesses
    depend on the DFS starting from the pool in class id order."""
    graph = Graph(["u"], [("e0", "u", "u"), ("e1", "u", "u"), ("e2", "u", "u")])
    q, q_inv, p = (Element("u", (w,)) for w in (("q", 1), ("q", -1), ("p", 1)))
    gens = {
        "p": GeneratorRule("u", "u", {"e0": ("e2", q_inv), "e1": ("e0", Element("u", ())),
                                      "e2": ("e1", q)}),
        "q": GeneratorRule("u", "u", {"e0": ("e1", q_inv), "e1": ("e2", Element("u", ())),
                                      "e2": ("e0", p)}),
    }
    return Automaton(graph, gens, Bounds(max_states=40, max_rounds=5))


def _differential_systems():
    """(label, automaton, nucleus or None): the six specs, 40 seeded random
    automata with a nucleus, the root-order system, and the first 20
    Katsura systems of the katsura-ladder pool that have a nucleus."""
    from test_acceptance import _random_automaton

    out = []
    for spec in SPECS:
        aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
        nuc = compute_nucleus(aut)
        out.append((spec, aut, nuc if isinstance(nuc, Nucleus) else None))
    rng = random.Random(2024)
    found = 0
    while found < 40:
        aut = _random_automaton(rng)
        if aut is None:
            continue
        nuc = compute_nucleus(aut)
        if isinstance(nuc, Nucleus):
            out.append((f"random{found}", aut, nuc))
            found += 1
    aut = _root_order_automaton()
    out.append(("root order", aut, compute_nucleus(aut)))
    pool = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())["pool"]
    kept = 0
    for entry in pool:
        if entry["nucleus_ms"] is None or kept == 20:
            continue
        aut = katsura_automaton(IntMatrix.of(entry["A"]), IntMatrix.of(entry["B"]))
        nuc = compute_nucleus(aut)
        if isinstance(nuc, Nucleus):
            out.append((f"katsura {entry['A']} {entry['B']}", aut, nuc))
            kept += 1
    return out


def _glued_pairs(aut, nuc, x):
    """Bi-infinite partners of x: a member z of the ae class of x's left part
    glued, where x's right tail starts, to g . (that tail) for each nucleus
    state g acting there; these include the equivalent partners."""
    graph = aut.graph
    b = x.anchor + len(x.center)
    right = x.right_tail(graph, b)
    for z in old_ae_class(x.left_truncation(graph, b - 1), nuc):
        for g in nuc.states:
            if g.dom != right.r(graph):
                continue
            w = aut.act_infinite(g, right)
            try:
                yield BiInfinitePath.make(graph, z.cycle, z.tail + w.head, w.cycle,
                                          b - len(z.tail))
            except JunctionMismatchError:  # z and g . tail do not meet
                continue


def test_nucleus_deciders_match_word_oracles():
    rng = random.Random(77)
    seen = {"ae_true": 0, "bi_true": 0, "irregular": 0, "non_hausdorff": 0, "discerning": 0}
    for label, aut, nuc in _differential_systems():
        depth = 4 if label in SPECS else 3
        assert _outcome(check_recurrent, aut, depth) == _outcome(old_check_recurrent, aut, depth), label
        if nuc is None:
            continue
        for want in (False, True):
            assert is_regular(nuc, want) == old_is_regular(nuc, want), label
            assert is_hausdorff(nuc, want) == old_is_hausdorff(nuc, want), label
        seen["irregular"] += not is_regular(nuc)
        seen["non_hausdorff"] += not is_hausdorff(nuc)
        disc = _outcome(find_discerning_path, nuc)
        assert disc == _outcome(old_find_discerning_path, nuc), label
        seen["discerning"] += disc[0] == "ok"
        assert _outcome(find_discerning_path, nuc, 1) == _outcome(old_find_discerning_path, nuc, 1)
        for _ in range(6):
            x, y = random_left_path(aut, rng), random_left_path(aut, rng)
            cls = ae_class(x, nuc)
            assert cls == old_ae_class(x, nuc), (label, x)
            for z in [y] + cls:
                for want in (False, True):
                    assert ae_equivalent(x, z, nuc, want) == old_ae_equivalent(x, z, nuc, want), \
                        (label, x, z)
                seen["ae_true"] += ae_equivalent(x, z, nuc)
            u, v = random_bi_path(aut, rng), random_bi_path(aut, rng)
            partners = [v, u] + list(_glued_pairs(aut, nuc, u))[:8]
            for w in partners:
                got = ae_equivalent_bi(u, w, nuc)
                assert got == old_ae_equivalent_bi(u, w, nuc), (label, u, w)
                assert ae_equivalent_bi(w, u, nuc) == old_ae_equivalent_bi(w, u, nuc)
                seen["bi_true"] += got
    # the comparison covers both answers of every decider
    assert all(seen.values()), seen


def test_nucleus_deciders_act_no_word(monkeypatch, ex310, nonhausdorff):
    calls = []
    original = Automaton.word_act_edge

    def counted(self, word, edge):
        calls.append(edge)
        return original(self, word, edge)

    rng = random.Random(3)
    for aut in (ex310, nonhausdorff):
        nuc = compute_nucleus(aut)
        x, y = random_left_path(aut, rng), random_left_path(aut, rng)
        u, v = random_bi_path(aut, rng), random_bi_path(aut, rng)
        monkeypatch.setattr(Automaton, "word_act_edge", counted)
        ae_equivalent(x, x, nuc, want_witness=True)
        ae_equivalent(x, y, nuc, want_witness=True)
        ae_class(x, nuc)
        ae_equivalent_bi(u, u, nuc)
        ae_equivalent_bi(u, v, nuc)
        is_regular(nuc, want_witness=True)
        is_hausdorff(nuc, want_witness=True)
        try:
            find_discerning_path(nuc)
        except DomainMismatchError:
            pass
        monkeypatch.setattr(Automaton, "word_act_edge", original)
        assert calls == []


# -- level transitivity: the built Schreier graph, kept as the oracle -------------


def old_level_transitive(aut, n, gen_set=None):
    """Build Gamma_n and test its connectivity."""
    from selfsim.schreier import build_schreier, default_generating_set

    gens = gen_set if gen_set is not None else default_generating_set(aut)
    return build_schreier(aut, gens, n).is_connected()


@pytest.mark.parametrize("spec", [s for s in SPECS if s != "noncontracting"])
def test_level_transitive_vs_built_graph(spec):
    import warnings

    aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
    for n in range(1, 10):
        assert level_transitive(aut, n) == old_level_transitive(aut, n), n
    # one generator alone: both extend it (with the same warnings) and agree
    gens = [aut.generator(sorted(aut.generators)[0])]
    for n in (1, 2, 5):
        with warnings.catch_warnings(record=True) as new_w:
            warnings.simplefilter("always")
            got = level_transitive(aut, n, gens)
        with warnings.catch_warnings(record=True) as old_w:
            warnings.simplefilter("always")
            want = old_level_transitive(aut, n, gens)
        assert got == want
        assert [str(w.message) for w in new_w] == [str(w.message) for w in old_w]


def test_level_transitive_vs_built_graph_random():
    import warnings

    from test_acceptance import _random_automaton

    rng = random.Random(3)
    checked = transitive = 0
    while checked < 40:
        aut = _random_automaton(rng)
        if aut is None:
            continue
        checked += 1
        for n in range(1, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # non-closed label sets are extended
                got = level_transitive(aut, n)
                assert got == old_level_transitive(aut, n), (checked, n)
            transitive += got
    assert 0 < transitive < 200


# -- unstable equivalence: the word-based scan, kept as the oracle ----------------


def old_unstable_equivalent(x, y, nuc, want_witness=False):
    """unstable_equivalent as it was: act_infinite of each element of the
    closure of N u N^2 on x's right tail from every M, compared with y's."""
    aut = nuc.automaton
    graph = aut.graph
    pool = [aut.canonical(s) for s in _unstable_element_pool(nuc).states]
    m0 = max(0, x.anchor + len(x.center), y.anchor + len(y.center))
    period = lcm(len(x.right_cycle), len(y.right_cycle))
    for m in range(0, m0 + period):
        tx = x.right_tail(graph, m + 1)
        ty = y.right_tail(graph, m + 1)
        for g in pool:
            if g.dom != tx.r(graph) or aut.cod(g) != ty.r(graph):
                continue
            if aut.act_infinite(g, tx) == ty:
                return (True, (m, g)) if want_witness else True
    return (False, None) if want_witness else False


def _unstable_partners(aut, x, elements, rng):
    """For each element g acting where x's right tail starts, g . (that
    tail) glued to a random left-infinite path that meets it: a partner
    unstably equivalent to x."""
    graph = aut.graph
    b = x.anchor + len(x.center)
    tail = x.right_tail(graph, b)
    for g in elements:
        if g.dom != tail.r(graph):
            continue
        w = aut.act_infinite(g, tail)
        for _ in range(10):
            z = random_left_path(aut, rng, max_cycle=4, max_tail=3)
            if z.s(graph) == graph.r(w.edge_at(1)):
                yield BiInfinitePath.make(graph, z.cycle, z.tail + w.head, w.cycle,
                                          b - len(z.tail))
                break


@pytest.mark.parametrize("spec", [s for s in SPECS if s != "noncontracting"])
def test_unstable_vs_word_oracle(spec):
    aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
    nuc = compute_nucleus(aut)
    pool = _unstable_element_pool(nuc).states
    rng = random.Random(SPECS.index(spec))
    answers = []
    ids = [e.id for e in aut.graph.edges]
    for _ in range(30):
        u, v = random_bi_path(aut, rng), random_bi_path(aut, rng)
        if len(aut.graph.vertices) == 1:  # random_bi_path's cycles have length 1 there
            v = BiInfinitePath.make(aut.graph, v.left_cycle, v.center,
                                    rng.choices(ids, k=rng.randint(1, 4)), v.anchor)
        partners = list(_unstable_partners(aut, u, pool, rng))
        for w in [v, u.translate(aut.graph, 1)] + rng.sample(partners, min(6, len(partners))):
            for x, y in ((u, w), (w, u)):
                got = unstable_equivalent(x, y, nuc, want_witness=True)
                assert got == old_unstable_equivalent(x, y, nuc, want_witness=True), (x, y)
                answers.append(got[0])
    assert 0 < answers.count(True) < len(answers)


def test_unstable_acts_no_infinite_path(monkeypatch, ex310, nonhausdorff):
    calls = []
    original = Automaton.act_infinite

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    rng = random.Random(5)
    for aut in (ex310, nonhausdorff):
        nuc = compute_nucleus(aut)
        u, v = random_bi_path(aut, rng), random_bi_path(aut, rng)
        monkeypatch.setattr(Automaton, "act_infinite", counted)
        for x, y in ((u, u), (u, v), (v, u)):
            unstable_equivalent(x, y, nuc, want_witness=True)
        monkeypatch.setattr(Automaton, "act_infinite", original)
    assert calls == []
