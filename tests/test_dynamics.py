import json
import random
from math import lcm
from pathlib import Path as FsPath

import pytest

from selfsim.automaton import Automaton, Bounds, Element, GeneratorRule, reachable_closure, word_key
from selfsim.errors import (
    ClosureLimitError,
    DomainMismatchError,
    JunctionMismatchError,
    NotStronglyConnectedError,
)
from selfsim.graphs import Graph, Path, limit_nodes, rho, validate_graph
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
    germ_equal,
    is_hausdorff,
    is_regular,
    level_transitive,
    make_germ,
    stable_equivalent,
    unstable_equivalent,
)
from selfsim.dynamics import _left_arrival_states, _phase_steps, _run, _succ

from conftest import shortlex_power
from test_graphs import cyclic_nodes
from test_nucleus import old_unstable_element_pool



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


# -- path views that only the tests read: the library walks edge_at ----------------


def window(x, lo, hi):
    """The edges x_lo ... x_{hi-1} of an infinite path."""
    return [x.edge_at(i) for i in range(lo, hi)]


def segment(graph, y, n, l):
    """y(n, l) = y_{n+1} ... y_l of a right-infinite path, empty at
    r(y_{n+1}) when l = n."""
    edges = window(y, n + 1, l + 1)
    return Path.of(graph, edges) if edges else Path.empty(graph.r(y.edge_at(n + 1)))


def left_truncation(graph, x, n):
    """x(-inf, n) = ... x_{n-1} x_n of a bi-infinite path: its cycle ends
    at n or where x's left cycle ends, whichever comes first."""
    b = min(n, x.anchor - 1)
    return LeftInfinitePath.make(graph, window(x, b + 1 - len(x.left_cycle), b + 1),
                                 window(x, b + 1, n + 1))


def right_tail(graph, x, m):
    """x(m, inf) = x_m x_{m+1} ... of a bi-infinite path: its cycle starts
    at m or where x's right cycle starts, whichever comes last."""
    c = max(m, x.anchor + len(x.center))
    return RightInfinitePath.make(graph, window(x, m, c), window(x, c, c + len(x.right_cycle)))


def translate(graph, x, k):
    """tau^k x, with (tau x)_n = x_{n-1}."""
    return BiInfinitePath.make(graph, x.left_cycle, x.center, x.right_cycle, x.anchor + k)


def non_units(nuc):
    return [s for s in nuc.states if not s.is_unit]


# -- asymptotic equivalence ------------------------------------------------------


def test_ae_reflexive_with_unit_witness(ex310, nuc310):
    x = LeftInfinitePath.make(ex310.graph, ["1"], [])
    ok, wit = ae_equivalent(x, x, nuc310)
    assert ok and wit.entry_state == "v"


def test_ae_class_of_loop_is_singleton(ex310, nuc310):
    x = LeftInfinitePath.make(ex310.graph, ["1"], [])
    assert ae_class(x, nuc310) == [x]
    y = LeftInfinitePath.make(ex310.graph, ["1"], ["2", "4"])
    assert not ae_equivalent(x, y, nuc310)[0]


def test_ae_equivalence_laws_and_class_bound(ex310, nuc310):
    rng = random.Random(11)
    aut = ex310
    for _ in range(120):
        x = random_left_path(aut, rng)
        y = random_left_path(aut, rng)
        z = random_left_path(aut, rng)
        assert ae_equivalent(x, x, nuc310)[0]
        assert ae_equivalent(x, y, nuc310)[0] == ae_equivalent(y, x, nuc310)[0]
        if ae_equivalent(x, y, nuc310)[0] and ae_equivalent(y, z, nuc310)[0]:
            assert ae_equivalent(x, z, nuc310)[0]
        cls = ae_class(x, nuc310)
        assert x in cls
        assert len(cls) <= len(nuc310)
        for m in cls:
            assert ae_equivalent(x, m, nuc310)[0]


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
        got = ae_equivalent(x, y, nuc310)[0]
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
        assert (y in ae_class(x, nuc310)) == ae_equivalent(x, y, nuc310)[0]


def test_shift_well_defined_on_classes(ex310, nuc310):
    g = ex310.graph
    assert LeftInfinitePath.make(g, ["2", "3"], []).shift(g) == \
        LeftInfinitePath.make(g, ["3", "2"], [])
    rng = random.Random(31)
    for _ in range(150):
        x = random_left_path(ex310, rng)
        y = random_left_path(ex310, rng)
        if ae_equivalent(x, y, nuc310)[0]:
            assert ae_equivalent(x.shift(g), y.shift(g), nuc310)[0]


def test_fiber_bijectivity_on_classes(ex310, nuc310):
    # deleting the last edge maps the class of x.e injectively into the class of x
    g = ex310.graph
    rng = random.Random(37)
    for _ in range(40):
        x = random_left_path(ex310, rng)
        exts = [e for e in g.edges if g.r(e.id) == g.s(x.edge_at(-1))]
        for e in exts:
            xe = LeftInfinitePath.make(g, x.cycle, x.tail + (e.id,))
            cls_up = ae_class(xe, nuc310)
            cls_dn = ae_class(x, nuc310)
            images = [m.shift(g) for m in cls_up]
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
    assert g.s(x.edge_at(-1)) == "u" and g.s(y.edge_at(-1)) == "v"
    assert ae_equivalent(x, y, nuc)[0]
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
                assert ae_equivalent(left_truncation(g, x, n), left_truncation(g, y, n), nuc310)[0]
        z = random_bi_path(ex310, rng)
        if ae_equivalent_bi(x, y, nuc310) and ae_equivalent_bi(y, z, nuc310):
            assert ae_equivalent_bi(x, z, nuc310)
    assert pairs > 0


# -- regularity / Hausdorffness ---------------------------------------------------


def brute_force_irregularity(aut, nuc, depth):
    """Search for a nucleus state with a fixed path of the given length whose
    intermediate restrictions are never units."""
    for h in non_units(nuc):
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
    assert is_regular(nuc310)[0]
    assert is_regular(nucbas)[0]
    assert is_hausdorff(nuc310)[0]
    assert is_hausdorff(nucbas)[0]


def test_regular_vs_brute_force(ex310, basilica, nonhausdorff, odometer):
    for aut in (ex310, basilica, nonhausdorff, odometer):
        nuc = compute_nucleus(aut)
        depth = max(10, len(nuc) + 1)
        assert is_regular(nuc)[0] == (not brute_force_irregularity(aut, nuc, depth))


def test_odometer_regular_vacuously(odometer):
    nuc = compute_nucleus(odometer)
    assert is_regular(nuc)[0]
    assert is_hausdorff(nuc)[0]


def test_nonhausdorff_witness(nonhausdorff):
    nuc = compute_nucleus(nonhausdorff)
    ok, wit = is_regular(nuc)
    assert not ok
    g = nonhausdorff
    y = wit.fixed_path
    elem = g.element(wit.element)
    # the witness path really is fixed with never-unit restrictions
    state = elem
    for n in range(1, 9):
        p = segment(g.graph, y, 0, n)
        assert g.act(elem, p) == p
        assert not g.equal(g.restrict(elem, p), g.unit(p.s(g.graph)))
    ok2, wit2 = is_hausdorff(nuc)
    assert not ok2
    mu = list(wit2.strongly_fixed_extension)
    # every prefix of the fixed path extends to a strongly fixed path
    for n in range(0, 6):
        lam = window(y, 1, n + 1) + mu
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
    assert not is_regular(nuc)[0]
    assert is_hausdorff(nuc)[0]


def test_regular_implies_hausdorff_everywhere(ex310, basilica, odometer, nonhausdorff):
    for aut in (ex310, basilica, odometer, nonhausdorff):
        nuc = compute_nucleus(aut)
        if is_regular(nuc)[0]:
            assert is_hausdorff(nuc)[0]


# -- recurrence / level transitivity ----------------------------------------------


def test_recurrent_odometer(odometer):
    rep = check_recurrent(odometer, 4)
    assert rep.recurrent


def test_recurrent_needs_strong_connectivity(basilica):
    with pytest.raises(NotStronglyConnectedError):
        check_recurrent(basilica, 4)
    for d in range(8):
        with pytest.raises(NotStronglyConnectedError):
            check_recurrent(_spec("basilica"), d)


def _spec(name):
    return parse_spec((ROOT / "specs" / f"{name}.ss").read_text()).automaton()


def test_recurrent_ex310_reports():
    # products of two generators miss four targets; of three, none
    aut = _spec("ex310")
    assert check_recurrent(aut, 2) == RecurrenceReport(
        False, 2, ("(2,3,a^-1)", "(2,4,b)", "(3,2,a)", "(4,2,b^-1)"))
    assert [check_recurrent(aut, d) for d in range(3, 8)] == [
        RecurrenceReport(True, d) for d in range(3, 8)]


# the number of targets check_recurrent misses at depths 0, 1, 2, ... on
# the strongly connected specs with a finite S, as measured; at the depths
# up to 7 past its list, a spec is recurrent
MISSING = {"ex310": (10, 10, 4), "odometer": (6, 6, 2),
           "katsura": (56, 56, 44, 38, 38, 38, 38, 38), "nonhausdorff": (25,) * 8}


@pytest.mark.parametrize("spec", sorted(MISSING))
def test_recurrence_on_the_specs_at_depths_0_to_7(spec):
    reports = [check_recurrent(_spec(spec), d) for d in range(8)]
    assert [r.depth for r in reports] == list(range(8))
    missing = MISSING[spec]
    assert [r.recurrent for r in reports] == [False] * len(missing) + [True] * (8 - len(missing))
    assert [len(r.missing) for r in reports[:len(missing)]] == list(missing)
    assert all(r.missing == () for r in reports[len(missing):])
    # depth 0 searches the basic elements alone, as depth 1 does
    assert reports[0].missing == reports[1].missing
    # one automaton, its registry warmed by each depth before, gives the same reports
    aut = _spec(spec)
    assert [check_recurrent(aut, d) for d in range(8)] == reports


def test_recurrent_needs_a_finite_restriction_closure():
    with pytest.raises(ClosureLimitError) as err:
        check_recurrent(_spec("noncontracting"), 3)
    assert err.value.what == "restriction word growth"


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
    assert window(x, 1, 4) == ["2", "4", "1"]
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
        a = aut.restrict(g1.g, segment(graph, g1.y, g1.n, l))
        b = aut.restrict(g2.g, segment(graph, g2.y, g2.n, l))
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


def old_germ_equal(g1, g2, nuc, max_steps=10_000):
    """germ_equal as it was: both restrictions stepped along y by acting
    words, class ids compared at each depth, until a (class, class, phase)
    triple repeats past y's head or max_steps triples are seen."""
    aut = nuc.automaton
    graph = aut.graph
    if g1.x != g2.x or g1.y != g2.y or (g1.m - g1.n) != (g2.m - g2.n):
        return False
    y = g1.y
    l0 = max(g1.n, g2.n)
    a = aut.restrict(g1.g, segment(graph, y, g1.n, l0))
    b = aut.restrict(g2.g, segment(graph, y, g2.n, l0))
    seen = set()
    l = l0
    while len(seen) <= max_steps:
        ca, cb = aut.canonical_id(a), aut.canonical_id(b)
        if ca == cb:
            return True
        phase = (l - len(y.head)) % len(y.cycle) if l >= len(y.head) else l - len(y.head)
        key = (ca, cb, phase)
        if l >= len(y.head) and key in seen:
            return False
        seen.add(key)
        e = y.edge_at(l + 1)
        a = aut.restrict(a, Path.of(graph, [e]))
        b = aut.restrict(b, Path.of(graph, [e]))
        l += 1
    return False


def test_germ_equal_vs_word_stepping():
    answers = []
    for spec in ("basilica", "ex310", "katsura", "nonhausdorff", "odometer"):
        aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
        nuc = compute_nucleus(aut)
        rng = random.Random(SPECS.index(spec))
        for _ in range(200):
            pair = random_germ_pair(aut, rng)
            if pair is not None:
                for g1, g2 in (pair, pair[::-1]):
                    answers.append(germ_equal(g1, g2, nuc))
                    assert answers[-1] == old_germ_equal(g1, g2, nuc), (spec, g1, g2)
    assert len(answers) > 1000 and 0 < answers.count(False) < len(answers)


def _far_germ_pairs(aut, rng):
    """Germs [x, 0, g, n, y] and [x, d, h, n + d, y] with d in 1..40 and y
    a ray with a head of up to 3 edges; h is g's restriction along
    y(n, n + d), a unit or a random element.  The pairs make_germ accepts,
    in both orders."""
    from test_automaton import random_element

    g = aut.graph
    cyc = _cycle_through(g, rng, rng.choice(g.vertices), rng.randint(1, 4))
    head = _walk_into(g, rng, g.r(cyc[0]), rng.randint(0, 3)) if cyc else None
    if head is None:
        return []
    y = RightInfinitePath.make(g, head, cyc)
    n, d = rng.randint(0, 3), rng.randint(1, 40)
    elem = random_element(aut, rng, max_len=3)
    if elem.dom != g.r(y.edge_at(n + 1)):
        return []
    x = aut.act_infinite(elem, y.shift(g, n))
    g1 = make_germ(aut, x, 0, elem, n, y)
    out = []
    for h in (aut.restrict(elem, segment(g, y, n, n + d)), aut.unit(g.r(y.edge_at(n + d + 1))),
              random_element(aut, rng, max_len=3)):
        try:
            g2 = make_germ(aut, x, d, h, n + d, y)
        except DomainMismatchError:
            continue
        out += [(g1, g2), (g2, g1)]
    return out


def test_germ_equal_far_offsets_vs_word_stepping():
    # one element's walk indexes into its repeat to reach the other's offset
    answers = []
    for spec in ("basilica", "ex310", "katsura", "nonhausdorff", "odometer"):
        aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
        nuc = compute_nucleus(aut)
        rng = random.Random(100 + SPECS.index(spec))
        for _ in range(150):
            for g1, g2 in _far_germ_pairs(aut, rng):
                answers.append(germ_equal(g1, g2, nuc))
                assert answers[-1] == old_germ_equal(g1, g2, nuc), (spec, g1, g2)
    assert len(answers) > 300 and 0 < answers.count(False) < len(answers)


def test_germ_closure_past_budget_is_typed():
    # the 6-state nucleus fits, but the 8-state closure of (b a)^3's restrictions does not
    aut = parse_spec((ROOT / "specs" / "ex310.ss").read_text()).automaton(
        Bounds(max_states=6))
    nuc = compute_nucleus(aut)
    assert len(nuc) == 6
    y = RightInfinitePath.make(aut.graph, [], ["1"])
    g = aut.element("b a b a b a")
    germ = make_germ(aut, aut.act_infinite(g, y), 0, g, 0, y)
    with pytest.raises(ClosureLimitError):
        germ_equal(germ, germ, nuc)


# -- stable / unstable -------------------------------------------------------------


def test_stable_reflexive_and_finite_right_difference(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["2", "3"], [], ["1"], 0)
    ok, m = stable_equivalent(x, x, nuc310)
    assert ok and m == 0
    y = BiInfinitePath.make(g, ["2", "3"], ["1", "1", "2", "4"], ["1"], 0)
    assert stable_equivalent(x, y, nuc310)[0]


def test_stable_negative(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["1"], [], ["1"], 0)
    y = BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], 0)
    assert not stable_equivalent(x, y, nuc310)[0]


def test_stable_respects_translation(ex310, nuc310):
    g = ex310.graph
    rng = random.Random(61)
    for _ in range(60):
        x = random_bi_path(ex310, rng)
        y = random_bi_path(ex310, rng)
        st = stable_equivalent(x, y, nuc310)[0]
        assert st == stable_equivalent(translate(g, x, 1), translate(g, y, 1), nuc310)[0]


def test_unstable_reflexive_and_witness(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["2", "3"], [], ["1"], 0)
    ok, wit = unstable_equivalent(x, x, nuc310)
    assert ok and wit[0] == 0 and wit[1].is_unit


def test_unstable_a_witness(ex310, nuc310):
    g = ex310.graph
    # x has right tail 1.1.1... from position 1; y has 4.1.1... from position 1
    x = BiInfinitePath.make(g, ["2", "3"], ["1"], ["1"], 0)
    y = BiInfinitePath.make(g, ["3", "2"], ["4"], ["1"], 1)
    assert x.edge_at(1) == "1" and y.edge_at(1) == "4"
    ok, (m, elem) = unstable_equivalent(x, y, nuc310)
    assert ok
    assert m == 0 and elem.name() == "a"


def test_unstable_symmetry_via_inverse(ex310, nuc310):
    rng = random.Random(71)
    for _ in range(60):
        x = random_bi_path(ex310, rng)
        y = random_bi_path(ex310, rng)
        assert unstable_equivalent(x, y, nuc310)[0] == unstable_equivalent(y, x, nuc310)[0]


def test_unstable_negative(ex310, nuc310):
    g = ex310.graph
    x = BiInfinitePath.make(g, ["1"], [], ["1"], 0)
    y = BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], 0)
    assert not unstable_equivalent(x, y, nuc310)[0]


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
    assert not is_regular(nucnh)[0]
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


def old_ae_equivalent(x, y, nuc):
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
            return True, AeWitness(aut.canonical(h).name(), tuple(run))
    return False, None


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


def every_node_ae_class(x, nuc):
    """ae_class as it was before it kept one phase: every limit node of the
    phase map read its cycle and its run to the end, O(L) work each, so
    O(L^2) in all on a cycle of length L."""
    T, L = len(x.tail), len(x.cycle)
    steps = _phase_steps(nuc, x.edge_at, None, -T, L)
    members = set()
    for u in limit_nodes(steps, _succ(steps)):
        cycle_out = [steps[v][1] for v in rho(u, lambda v: steps[v][0])[0]]
        n1 = (-T - 1) - ((-T - 1 - u[0]) % L)  # largest zone position = u's phase mod L
        tail_out = [img for _i, img in _run(nuc.machine, u[1], x.edge_at, n1, 0)]
        members.add(LeftInfinitePath.make(nuc.automaton.graph, cycle_out, tail_out))
    return sorted(members, key=lambda m: (m.cycle, m.tail))


def test_ae_class_work_is_linear_in_the_cycle(monkeypatch, basilica):
    # one limit node per cycle of the phase map: on (0^n.1)^inf the runs
    # stay at most |nucleus| and the positions walked at most |nucleus| (L + 2)
    # for every cycle length L; the loop over every node made a run per node,
    # L + 1 of them here
    import selfsim.dynamics as dynamics

    nuc = compute_nucleus(basilica)
    work = {"runs": 0, "positions": 0}
    run, walk = dynamics._run, dynamics.rho

    def counted_run(sm, i, x_at, lo, hi, y_at=None):
        work["runs"] += 1
        work["positions"] += hi - lo
        return run(sm, i, x_at, lo, hi, y_at)

    def counted_rho(start, step):
        out = walk(start, step)
        work["positions"] += len(out[0])
        return out
    monkeypatch.setattr(dynamics, "_run", counted_run)
    monkeypatch.setattr(dynamics, "rho", counted_rho)
    for n in (50, 100, 200, 400, 800):
        x = LeftInfinitePath.make(basilica.graph, ("0",) * n + ("1",))
        work.update(runs=0, positions=0)
        members = ae_class(x, nuc)
        assert x in members
        assert 0 < work["runs"] <= len(nuc)
        assert work["positions"] <= len(nuc) * (n + 2)
    assert members == every_node_ae_class(x, nuc)


def test_ae_class_on_a_5000_edge_cycle_answers_in_a_second():
    import io
    import time

    from selfsim.cli import dispatch

    x = "(" + ".".join(["0"] * 4999 + ["1"]) + ")^inf"
    buf = io.StringIO()
    t0 = time.perf_counter()
    code = dispatch(["--json", "class", "--spec", str(ROOT / "specs" / "basilica.ss"), "--x", x],
                    stdout=buf)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and json.loads(buf.getvalue())["members"] == [x]


def old_ae_equivalent_bi(x, y, nuc):
    aut = nuc.automaton
    graph = aut.graph
    a0 = min(x.anchor, y.anchor)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    L = lcm(len(x.left_cycle), len(y.left_cycle))
    ty, tx = right_tail(graph, y, b0), right_tail(graph, x, b0)
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
    """A DFS for a cycle inside restrict_to, from each candidate in the
    order given."""
    color = {}
    for start in candidates:
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


def old_is_regular(nuc):
    aut = nuc.automaton
    arcs = old_fixed_edge_digraph(nuc)
    non_units = [aut.canonical_id(s) for s in nuc.states if not s.is_unit]  # in state order
    hit = old_find_cycle(non_units, arcs, set(non_units))
    if hit is None:
        return True, None
    states, labels = hit
    rep = next(s for s in nuc.states if aut.canonical_id(s) == states[0])
    return False, IrregularityWitness(rep.name(), RightInfinitePath.make(aut.graph, (), labels))


def old_is_hausdorff(nuc):
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
    hit = old_find_cycle([c for c in map(aut.canonical_id, nuc.states) if c in pool], arcs, pool)
    if hit is None:
        return True, None
    states, labels = hit
    rep = next(s for s in nuc.states if aut.canonical_id(s) == states[0])
    y = RightInfinitePath.make(aut.graph, (), labels)
    ext = old_path_to_unit(states[0], arcs, unit_ids)
    return False, NonHausdorffWitness(rep.name(), y, tuple(ext))


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


# pool indices in bench/expected/katsura-ladder.json of strongly connected
# Katsura systems with no nucleus whose S ends in word growth within 40 ms
WORD_GROWTH_POOL = (136, 163, 207, 218)


def test_check_recurrent_reports_the_bound_of_s_where_s_is_infinite():
    # the word search met the word bound among its products; the search on
    # S's machine meets it in S, and reports what compute_nucleus reports
    pool = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())["pool"]
    for i in WORD_GROWTH_POOL:
        entry = pool[i]
        assert entry["nucleus_ms"] is None, i

        def aut():
            return katsura_automaton(IntMatrix.of(entry["A"]), IntMatrix.of(entry["B"]))
        assert validate_graph(aut().graph).strongly_connected, i
        bound_hit = compute_nucleus(aut()).bound_hit
        for depth in (4, 6):
            with pytest.raises(ClosureLimitError):
                old_check_recurrent(aut(), depth)
            with pytest.raises(ClosureLimitError) as new:
                check_recurrent(aut(), depth)
            assert new.value.what == bound_hit, (i, depth)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (ClosureLimitError, DomainMismatchError, NotStronglyConnectedError) as e:
        return type(e).__name__, str(e)


def _root_order_automaton():
    """A random system with a 23-state nucleus whose regular and Hausdorff
    witnesses depend on where the DFS starts: from the pool's states in
    state order."""
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
    from test_nucleus import nucleus_unless_certified

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
        nuc = nucleus_unless_certified(aut)
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
    right = right_tail(graph, x, b)
    for z in old_ae_class(left_truncation(graph, x, b - 1), nuc):
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
    seen = {"ae_true": 0, "bi_true": 0, "irregular": 0, "non_hausdorff": 0}
    for label, aut, nuc in _differential_systems():
        depth = 4 if label in SPECS else 3
        assert _outcome(check_recurrent, aut, depth) == _outcome(old_check_recurrent, aut, depth), label
        if nuc is None:
            continue
        regular, wit = is_regular(nuc)
        assert (regular, wit) == old_is_regular(nuc), label
        hausdorff, wit = is_hausdorff(nuc)
        assert (hausdorff, wit) == old_is_hausdorff(nuc), label
        seen["irregular"] += not regular
        seen["non_hausdorff"] += not hausdorff
        for _ in range(6):
            x, y = random_left_path(aut, rng), random_left_path(aut, rng)
            cls = ae_class(x, nuc)
            assert cls == old_ae_class(x, nuc) == every_node_ae_class(x, nuc), (label, x)
            for z in [y] + cls:
                ok, wit = ae_equivalent(x, z, nuc)
                assert (ok, wit) == old_ae_equivalent(x, z, nuc), (label, x, z)
                seen["ae_true"] += ok
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
        assert ae_equivalent(x, x, nuc)[0]
        ok, wit = ae_equivalent(x, y, nuc)
        assert (wit is None) != ok
        ae_class(x, nuc)
        ae_equivalent_bi(u, u, nuc)
        ae_equivalent_bi(u, v, nuc)
        regular, wit = is_regular(nuc)
        assert (wit is None) == regular
        hausdorff, wit = is_hausdorff(nuc)
        assert (wit is None) == hausdorff
        monkeypatch.setattr(Automaton, "word_act_edge", original)
        assert calls == []


# -- level transitivity: a search of the built Schreier graph, kept as the oracle -


def bfs_is_connected(gamma):
    """SchreierGraph.is_connected as it was: one search over the columns
    from the first vertex, counting what it reaches."""
    from selfsim.graphs import bfs
    from selfsim.schreier import _moves

    starts = [(v, 0) for v, grp in gamma.groups.items() if grp]
    if not starts:
        return True
    moves = _moves(gamma.machine, gamma.cols.items())
    reached = bfs(starts[:1], lambda node: [(None, (cod, col[node[1]]))
                                           for col, cod in moves.get(node[0], ())])
    return sum(1 for _ in reached) == sum(map(len, gamma.groups.values()))


def old_level_transitive(aut, n, gen_set=None):
    """Build Gamma_n and search it for connectivity."""
    from selfsim.schreier import build_schreier, default_generating_set

    gens = gen_set if gen_set is not None else default_generating_set(aut)
    return bfs_is_connected(build_schreier(aut, gens, n))


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


def old_unstable_equivalent(x, y, nuc):
    """unstable_equivalent as it was: act_infinite of each element of the
    closure of N u N^2 on x's right tail from every M, compared with y's."""
    aut = nuc.automaton
    graph = aut.graph
    pool = [aut.canonical(s) for s in old_unstable_element_pool(nuc).states]
    m0 = max(0, x.anchor + len(x.center), y.anchor + len(y.center))
    period = lcm(len(x.right_cycle), len(y.right_cycle))
    for m in range(0, m0 + period):
        tx = right_tail(graph, x, m + 1)
        ty = right_tail(graph, y, m + 1)
        for g in pool:
            if g.dom != tx.r(graph) or aut.cod(g) != ty.r(graph):
                continue
            if aut.act_infinite(g, tx) == ty:
                return True, (m, g)
    return False, None


def _unstable_partners(aut, x, elements, rng):
    """For each element g acting where x's right tail starts, g . (that
    tail) glued to a random left-infinite path that meets it: a partner
    unstably equivalent to x."""
    graph = aut.graph
    b = x.anchor + len(x.center)
    tail = right_tail(graph, x, b)
    for g in elements:
        if g.dom != tail.r(graph):
            continue
        w = aut.act_infinite(g, tail)
        for _ in range(10):
            z = random_left_path(aut, rng, max_cycle=4, max_tail=3)
            if graph.s(z.edge_at(-1)) == graph.r(w.edge_at(1)):
                yield BiInfinitePath.make(graph, z.cycle, z.tail + w.head, w.cycle,
                                          b - len(z.tail))
                break


@pytest.mark.parametrize("spec", [s for s in SPECS if s != "noncontracting"])
def test_unstable_vs_word_oracle(spec):
    aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
    nuc = compute_nucleus(aut)
    pool = old_unstable_element_pool(nuc).states
    rng = random.Random(SPECS.index(spec))
    answers = []
    ids = [e.id for e in aut.graph.edges]
    for _ in range(30):
        u, v = random_bi_path(aut, rng), random_bi_path(aut, rng)
        if len(aut.graph.vertices) == 1:  # random_bi_path's cycles have length 1 there
            v = BiInfinitePath.make(aut.graph, v.left_cycle, v.center,
                                    rng.choices(ids, k=rng.randint(1, 4)), v.anchor)
        partners = list(_unstable_partners(aut, u, pool, rng))
        for w in [v, translate(aut.graph, u, 1)] + rng.sample(partners, min(6, len(partners))):
            for x, y in ((u, w), (w, u)):
                ok, wit = unstable_equivalent(x, y, nuc)
                assert (ok, wit) == old_unstable_equivalent(x, y, nuc), (x, y)
                answers.append(ok)
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
            ok, wit = unstable_equivalent(x, y, nuc)
            assert (wit is None) != ok
        monkeypatch.setattr(Automaton, "act_infinite", original)
    assert calls == []


# -- the least witness: the galloping search and the linear scans, kept as oracles --


def galloping_least(holds, top: int) -> int | None:
    """The least m < top with holds(m), or None, for holds monotone in m
    (once true, true on): tests m = 0, 1, 3, 7, ..., top - 1, then bisects."""
    lo, m = 0, 0  # holds is false below lo
    while lo < top and not holds(m):
        lo, m = m + 1, min(2 * m + 1, top - 1)
    while lo < m:
        mid = (lo + m) // 2
        lo, m = (lo, mid) if holds(mid) else (mid + 1, m)
    return m if lo < top else None


def galloping_holds(sm, i: int, x, y, lo: int, b0: int, R: int) -> bool:
    """Whether state i's run from position lo maps x's edges onto y's
    forever.  _run takes it to b0.  From b0 on both paths repeat with period
    R, so the run's next step depends only on its (state, phase) node, the
    phase p standing for the positions b0 + p mod R: graphs.rho walks the
    nodes to the first repeat or failure."""
    def step(node):  # None when the run leaves the state's domain or misses y
        i, p = node
        hit = sm.rows[i].get(x.edge_at(b0 + p))
        if hit is None or hit[0] != y.edge_at(b0 + p):
            return None
        return hit[1], (p + 1) % R
    run = _run(sm, i, x.edge_at, lo, b0, y.edge_at)  # [] when lo >= b0
    if run is None:
        return False
    if run:  # the state reached at b0: the last step's successor
        j, _ = run[-1]
        i = sm.rows[j][x.edge_at(b0 - 1)][1]
    # rho returns (nodes, None) for a walk that stops
    return rho((i, (max(lo, b0) - b0) % R), step)[1] is not None


def galloping_stable_equivalent(x, y, nuc):
    """True iff some left-truncation pair x(-inf,-m), y(-inf,-m) is
    asymptotically equivalent.  Truncating further preserves equivalence and
    the truncation pairs are eventually periodic in m, so the search bound
    transient + lcm is complete, and the least such m is found by
    galloping_least."""
    graph = nuc.automaton.graph
    m0 = max(0, 1 - x.anchor, 1 - y.anchor)
    period = lcm(len(x.left_cycle), len(y.left_cycle))
    m = galloping_least(lambda m: ae_equivalent(
        left_truncation(graph, x, -m), left_truncation(graph, y, -m), nuc)[0], m0 + period)
    return m is not None, m


def galloping_unstable_equivalent(x, y, nuc):
    """True iff some g in the closure of N u N^2 maps x(M+1, inf) onto
    y(M+1, inf); monotone in M by restriction, periodic past the centers,
    so the least M is found by galloping_least.  Each g runs on the pool's
    machine: right of the centers a step depends only on (state, position
    mod R) with R the lcm of the right cycles, so a run that reaches a
    repeated (state, phase) pair there without failing holds forever
    (galloping_holds).  The witness is the first such state."""
    sm = shortlex_power(nuc, 2)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    R = lcm(len(x.right_cycle), len(y.right_cycle))

    def first_state(m):
        return next((i for i in range(len(sm)) if galloping_holds(sm, i, x, y, m + 1, b0, R)), None)
    m = galloping_least(lambda m: first_state(m) is not None, max(0, b0) + R)
    if m is None:
        return False, None
    return True, (m, nuc.automaton.canonical(sm.states[first_state(m)]))


def test_least_on_every_monotone_predicate():
    for top in range(40):
        for first in range(top + 2):  # first >= top: false on the whole range
            asked = []

            def holds(m):
                assert 0 <= m < top
                asked.append(m)
                return m >= first
            assert galloping_least(holds, top) == (first if first < top else None), (top, first)
            assert len(asked) <= 2 * top.bit_length() + 1, (top, first, asked)


def linear_stable_equivalent(x, y, nuc):
    """stable_equivalent as it was: a scan over m upward."""
    graph = nuc.automaton.graph
    m0 = max(0, 1 - x.anchor, 1 - y.anchor)
    period = lcm(len(x.left_cycle), len(y.left_cycle))
    for m in range(0, m0 + period):
        if ae_equivalent(left_truncation(graph, x, -m), left_truncation(graph, y, -m), nuc)[0]:
            return True, m
    return False, None


def linear_unstable_equivalent(x, y, nuc):
    """unstable_equivalent as it was: a scan over M upward, and at each M
    over the states of nuc.power(2) in (word_key, dom) order."""
    sm = shortlex_power(nuc, 2)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    R = lcm(len(x.right_cycle), len(y.right_cycle))
    for m in range(0, max(0, b0) + R):
        end = max(m + 1, b0) + len(sm) * R + 1
        for i in range(len(sm)):
            if _run(sm, i, x.edge_at, m + 1, end, y.edge_at) is not None:
                return True, (m, nuc.automaton.canonical(sm.states[i]))
    return False, None


def _glued_partners(aut, nuc, x, rng):
    """Paths that agree with x left of a random cut (stable partners) and
    ones whose right part from a random cut is a nucleus state's image of
    x's (unstable partners), glued to random other halves."""
    g = aut.graph
    c = rng.randint(x.anchor - 3, x.anchor + len(x.center) + 3)
    z = left_truncation(g, x, c - 1)
    for _ in range(10):
        mid = _walk(g, rng, g.s(z.edge_at(-1)), rng.randint(0, 3))
        pi = _cycle_through(g, rng, g.s(mid[-1] if mid else z.edge_at(-1)), rng.randint(1, 4))
        if pi is not None:
            yield BiInfinitePath.make(g, z.cycle, z.tail + tuple(mid), pi, c - len(z.tail))
            break
    w = right_tail(g, x, c)
    for h in rng.sample(nuc.states, min(3, len(nuc.states))):
        if h.dom != w.r(g):
            continue
        hw = aut.act_infinite(h, w)
        for _ in range(10):
            left = random_left_path(aut, rng, max_cycle=4, max_tail=3)
            if g.s(left.edge_at(-1)) == g.r(hw.edge_at(1)):
                yield BiInfinitePath.make(g, left.cycle, left.tail + hw.head, hw.cycle,
                                          c - len(left.tail))
                break


@pytest.mark.parametrize("spec", [s for s in SPECS if s != "noncontracting"])
def test_least_witnesses_match_the_linear_scans(spec):
    aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
    nuc = compute_nucleus(aut)
    g = aut.graph
    rng = random.Random(SPECS.index(spec) + 90)
    late = {"stable": 0, "unstable": 0}
    for _ in range(25):
        x = random_bi_path(aut, rng)
        x = BiInfinitePath.make(g, x.left_cycle, x.center, x.right_cycle, rng.randint(-9, 9))
        for y in [random_bi_path(aut, rng), *_glued_partners(aut, nuc, x, rng)]:
            for u, v in ((x, y), (y, x)):
                ok, m = stable_equivalent(u, v, nuc)
                assert (ok, m) == linear_stable_equivalent(u, v, nuc), (u, v)
                late["stable"] += bool(m)
                ok, wit = unstable_equivalent(u, v, nuc)
                assert (ok, wit) == linear_unstable_equivalent(u, v, nuc), (u, v)
                late["unstable"] += bool(ok and wit[0])
    assert late["stable"] > 0 and late["unstable"] > 0, late


# -- the set walks against the galloping search -------------------------------------


@pytest.mark.parametrize("spec", [s for s in SPECS if s != "noncontracting"])
def test_set_walks_match_the_galloping_search(spec):
    aut = parse_spec((ROOT / "specs" / f"{spec}.ss").read_text()).automaton()
    nuc = compute_nucleus(aut)
    g = aut.graph
    rng = random.Random(SPECS.index(spec) + 180)
    seen = {"stable_late": 0, "unstable_late": 0, "bi_true": 0, "bi_false": 0}
    for a in range(-40, 41):
        x, y = random_bi_path(aut, rng), random_bi_path(aut, rng)
        x = BiInfinitePath.make(g, x.left_cycle, x.center, x.right_cycle, a)
        y = BiInfinitePath.make(g, y.left_cycle, y.center, y.right_cycle, a + rng.randint(-3, 3))
        for w in [y, *_glued_partners(aut, nuc, x, rng)]:
            for u, v in ((x, w), (w, x)):
                ok, m = stable_equivalent(u, v, nuc)
                assert (ok, m) == galloping_stable_equivalent(u, v, nuc), (u, v)
                seen["stable_late"] += bool(m)
                ok, wit = unstable_equivalent(u, v, nuc)
                assert (ok, wit) == galloping_unstable_equivalent(u, v, nuc), (u, v)
                seen["unstable_late"] += bool(ok and wit[0])
                got = ae_equivalent_bi(u, v, nuc)
                assert got == horizon_ae_equivalent_bi(u, v, nuc), (u, v)
                seen[f"bi_{str(got).lower()}"] += 1
    # nonzero least witnesses occur, so the walks' stopping points are compared
    assert all(seen.values()), seen


def test_set_walks_cost_the_same_at_far_anchors(monkeypatch, ex310, nuc310):
    # the pair at anchors a, a + 1 for a = +-10^3 and +-10^5: the number of
    # edges read does not depend on a
    g = ex310.graph
    calls = []
    original = BiInfinitePath.edge_at

    def counted(self, n):
        calls.append(n)
        return original(self, n)

    deciders = {"stable": stable_equivalent, "unstable": unstable_equivalent,
                "bi": ae_equivalent_bi}
    answers, counts = {}, {}
    for a in (10 ** 3, -10 ** 3, 10 ** 5, -10 ** 5):
        x = BiInfinitePath.make(g, ["2", "3"], ["1"], ["1"], a)
        y = BiInfinitePath.make(g, ["3", "2"], ["4"], ["1"], a + 1)
        for name, decide in deciders.items():
            monkeypatch.setattr(BiInfinitePath, "edge_at", counted)
            answers[name, a] = decide(x, y, nuc310)
            monkeypatch.setattr(BiInfinitePath, "edge_at", original)
            counts[name, a > 0, abs(a)] = len(calls)
            calls.clear()
    for a in (10 ** 3, 10 ** 5):
        ok, (m, elem) = answers["unstable", a]
        assert ok and m == a - 1 and elem.name() == "b a"
        assert answers["stable", -a] == (True, a + 1)
        assert answers["stable", a] == (True, 0) and answers["unstable", -a][1][0] == 0
    for name in deciders:
        for positive in (True, False):
            assert counts[name, positive, 10 ** 3] == counts[name, positive, 10 ** 5] > 0, counts


# -- repeat walks: the hand-rolled loops that graphs.rho replaced, kept as oracles --


def loop_act_infinite(aut, g, x):
    """Automaton.act_infinite as it was: restrictions run along x in one
    loop until the (class id, cycle phase) pair repeats past x's head."""
    budget = aut.bounds.max_states
    word, out, seen, n = g.word, [], {}, 1
    while True:
        if n > len(x.head):
            phase = (n - len(x.head) - 1) % len(x.cycle)
            key = (aut.canonical_id(Element(aut.graph.r(x.edge_at(n)), word)), phase)
            if key in seen:
                cut = seen[key]
                return RightInfinitePath.make(aut.graph, out[:cut], out[cut:])
            if len(seen) > budget:
                raise ClosureLimitError(budget, "act_infinite cycle search")
            seen[key] = len(out)
        img, word = aut.word_act_edge(word, x.edge_at(n))
        out.append(img)
        n += 1


def loop_germ_equal(g1, g2, nuc):
    """germ_equal as it was: each walk to the first repeated (state tuple,
    phase) pair is a hand-rolled loop over unfolded positions."""
    aut = nuc.automaton
    if g1.x != g2.x or g1.y != g2.y or (g1.m - g1.n) != (g2.m - g2.n):
        return False
    y, l0 = g1.y, max(g1.n, g2.n)
    h, c = len(y.head), len(y.cycle)
    sm = reachable_closure(aut, [g1.g, g2.g])

    def walk(node, l):
        nodes, seen = [], {}
        while (key := (node, min(l, h + (l - h) % c))) not in seen:
            seen[key] = len(nodes)
            nodes.append(node)
            node, l = tuple(sm.rows[i][y.edge_at(l + 1)][1] for i in node), l + 1
        return nodes, seen[key]

    def at_l0(g, n):
        nodes, k = walk((sm.state_index(aut, g),), n)
        return nodes[min(l0 - n, k + (l0 - n - k) % (len(nodes) - k))]

    pairs, _ = walk(at_l0(g1.g, g1.n) + at_l0(g2.g, g2.n), l0)
    return any(i == j for i, j in pairs)


def horizon_ae_equivalent_bi(x, y, nuc):
    """ae_equivalent_bi as it was: each run checked up to a horizon of
    |nucleus| R + 1 positions past the centers."""
    a0 = min(x.anchor, y.anchor)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    L = lcm(len(x.left_cycle), len(y.left_cycle))
    end = b0 + len(nuc.machine) * lcm(len(x.right_cycle), len(y.right_cycle)) + 1
    return any(_run(nuc.machine, h, x.edge_at, a0, end, y.edge_at) is not None
               for h in _left_arrival_states(nuc, x.edge_at, y.edge_at, a0, L))


def horizon_unstable_equivalent(x, y, nuc):
    """unstable_equivalent as it was: each run on nuc.power(2) checked up
    to a horizon of |pool| R + 1 positions past the centers."""
    sm = shortlex_power(nuc, 2)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    R = lcm(len(x.right_cycle), len(y.right_cycle))

    def first_state(m):
        end = max(m + 1, b0) + len(sm) * R + 1
        return next((i for i in range(len(sm))
                     if _run(sm, i, x.edge_at, m + 1, end, y.edge_at) is not None), None)
    m = galloping_least(lambda m: first_state(m) is not None, max(0, b0) + R)
    if m is None:
        return False, None
    return True, (m, nuc.automaton.canonical(sm.states[first_state(m)]))


def _random_ray_and_element(aut, rng):
    """A right-infinite path with a head of up to 3 edges and a random
    element acting on it, or None."""
    from test_automaton import random_element

    g = aut.graph
    cyc = _cycle_through(g, rng, rng.choice(g.vertices), rng.randint(1, 4))
    head = _walk_into(g, rng, g.r(cyc[0]), rng.randint(0, 3)) if cyc else None
    if head is None:
        return None
    y = RightInfinitePath.make(g, head, cyc)
    for _ in range(20):
        elem = random_element(aut, rng, max_len=4)
        if elem.dom == y.r(g):
            return elem, y
    return None


def test_repeat_walks_match_the_parent_loops():
    rng = random.Random(171)
    seen = {"act": 0, "act_past_budget": 0, "germ_true": 0, "germ_false": 0,
            "bi_true": 0, "bi_false": 0, "unstable_true": 0, "unstable_false": 0}
    for label, aut, nuc in _differential_systems():
        if label.startswith("random"):
            continue  # the six specs and the recorded Katsura nuclei
        for _ in range(8):
            hit = _random_ray_and_element(aut, rng)
            if hit is None:
                continue
            elem, y = hit
            got = _outcome(aut.act_infinite, elem, y)
            assert got == _outcome(loop_act_infinite, aut, elem, y), (label, elem, y)
            seen["act"] += got[0] == "ok"
            # the cycle search budget: the same threshold and message
            small = Automaton(aut.graph, aut.generators, Bounds(max_states=rng.randint(1, 3)))
            got = _outcome(small.act_infinite, elem, y)
            assert got == _outcome(loop_act_infinite, small, elem, y), (label, elem, y)
            seen["act_past_budget"] += got[0] == "ClosureLimitError"
        if nuc is None:
            continue
        for _ in range(6):
            for g1, g2 in [*filter(None, [random_germ_pair(aut, rng)]), *_far_germ_pairs(aut, rng)]:
                got = germ_equal(g1, g2, nuc)
                assert got == loop_germ_equal(g1, g2, nuc), (label, g1, g2)
                seen[f"germ_{str(got).lower()}"] += 1
            u, v = random_bi_path(aut, rng), random_bi_path(aut, rng)
            for w in [v, u, *list(_glued_pairs(aut, nuc, u))[:4]]:
                for x, y in ((u, w), (w, u)):
                    got = ae_equivalent_bi(x, y, nuc)
                    assert got == horizon_ae_equivalent_bi(x, y, nuc), (label, x, y)
                    seen[f"bi_{str(got).lower()}"] += 1
            for x, y in ((u, u), (u, v), (v, u)):
                ok, wit = unstable_equivalent(x, y, nuc)
                assert (ok, wit) == horizon_unstable_equivalent(x, y, nuc), (label, x, y)
                seen[f"unstable_{str(ok).lower()}"] += 1
    # the comparison covers both answers of every decider, and the budget
    assert all(seen.values()), seen
