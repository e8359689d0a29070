"""Acceptance criteria, one test per criterion, each recording a PASS/FAIL
line in the terminal summary.  Criterion 2b (the 12-element basilica-type
nucleus) is implemented exactly as stated and is expected to fail: the
minimal contracting core of that action provably has 14 classes (the pair
b c^-1, c b^-1 restricts to itself along the edges 01 forever); see
test_nucleus.py::test_nucleus_basilica for the brute-force demonstration
and the project notes for the analysis.
"""

import random
import time

import pytest

from selfsim.automaton import Automaton, Bounds, Element, GeneratorRule
from selfsim.graphs import Graph, Path, concat
from selfsim.ktheory import AbelianGroup, IntMatrix, katsura_automaton, katsura_ktheory, smith_normal_form
from selfsim.nucleus import NotContractingWithinBound, Nucleus, compute_nucleus
from selfsim.schreier import build_schreier, default_generating_set, distance_profile, project_psi
from selfsim.dynamics import ae_class, ae_equivalent, germ_equal, is_hausdorff, is_regular

from conftest import (
    build_basilica,
    build_ex310,
    build_noncontracting,
    build_nonhausdorff,
    build_odometer,
    class_index,
    paths_at,
    record_criterion,
    with_bounds,
)
from test_automaton import random_element, random_path_at
from test_dynamics import brute_force_irregularity, l_scan_oracle, random_germ_pair, random_left_path
from test_schreier import is_cycle_with_unit_loops, vname

EX310 = build_ex310()
BASILICA = build_basilica()
NUC310 = compute_nucleus(EX310)
GENS310 = default_generating_set(EX310)


def test_criterion_1_action_calculus():
    a = EX310.generator("a")
    p = Path.of(EX310.graph, list("242312"))
    EX310.act(a, p)  # warm caches
    best = min(_timed(lambda: EX310.act(a, p)) for _ in range(5))
    img = EX310.act(a, p)
    ok = img.edges == tuple("323112") and best < 0.001
    record_criterion("1 (a.242312 = 323112, < 1 ms)", ok,
                     f"image={''.join(img.edges)}, best={best * 1e6:.0f}us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2a_nucleus_ex310():
    t0 = time.perf_counter()
    nuc = compute_nucleus(build_ex310())
    dt = time.perf_counter() - t0
    aut = nuc.automaton
    expected = [aut.unit("v"), aut.unit("w"), aut.generator("a"), aut.generator("b"),
                aut.inverse(aut.generator("a")), aut.inverse(aut.generator("b"))]
    ids = class_index(aut, nuc.machine)
    ok = isinstance(nuc, Nucleus) and len(nuc) == 6 \
        and all(aut.canonical_id(e) in ids for e in expected) and dt < 1.0
    record_criterion("2a (nucleus of the four-edge example = 6 classes, < 1 s)", ok,
                     f"size={len(nuc)}, {dt * 1e3:.0f}ms")


@pytest.mark.xfail(strict=True, reason=(
    "stated value 12 is not attainable: the minimal contracting core of the "
    "basilica-type action has 14 classes (b c^-1 and c b^-1 lie on a "
    "restriction cycle); see the decisions notes"))
def test_criterion_2b_nucleus_basilica_as_stated():
    t0 = time.perf_counter()
    nuc = compute_nucleus(build_basilica())
    dt = time.perf_counter() - t0
    aut = nuc.automaton
    ba = aut.compose(aut.generator("b"), aut.generator("a"))
    ca = aut.compose(aut.generator("c"), aut.generator("a"))
    ids = class_index(aut, nuc.machine)
    ok = isinstance(nuc, Nucleus) and aut.canonical_id(ba) in ids \
        and aut.canonical_id(ca) in ids and dt < 1.0 and len(nuc) == 12
    record_criterion("2b (basilica-type nucleus = exactly 12 classes incl. ba, ca)", ok,
                     f"size={len(nuc)} (true minimal core; displayed value 12 omits "
                     f"b c^-1 and c b^-1), {dt * 1e3:.0f}ms")


def test_criterion_3_restriction_table():
    aut = EX310
    a, b = aut.generator("a"), aut.generator("b")
    ab, ba = aut.compose(a, b), aut.compose(b, a)
    path = lambda e: Path.of(aut.graph, [e])
    checks = [
        aut.equal(aut.restrict(ab, path("3")), aut.unit("v")),
        aut.equal(aut.restrict(ab, path("4")), ba),
        aut.equal(aut.restrict(ba, path("1")), a),
        aut.equal(aut.restrict(ba, path("2")), b),
    ]
    record_criterion("3 ((ab)|_3 = v, (ab)|_4 = ba, (ba)|_1 = a, (ba)|_2 = b)",
                     all(checks), f"checks={checks}")


def test_criterion_4_schreier_tower():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n in range(1, 11):
        gamma = build_schreier(EX310, GENS310, n)
        # |E^n| = 2^(n+1) for this graph (adjacency count), so the cycle
        # doubles from 4 vertices at level 1.
        good = len(gamma.vertices) == 2 ** (n + 1) and is_cycle_with_unit_loops(EX310, gamma)
        ok = ok and good
        detail.append(f"n={n}:{'cycle' if good else 'NOT-CYCLE'}({len(gamma.vertices)})")
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    record_criterion("4 (Gamma_n = single 2^(n+1)-cycle with unit loops, n <= 10, < 5 s)",
                     ok, f"{dt:.2f}s " + " ".join(detail[:4]) + " ...")


def test_criterion_5_psi_projection():
    gamma2 = build_schreier(EX310, GENS310, 2)
    proj, morphism = project_psi(gamma2)
    hits = [dst for (u, v, lab), dst in morphism.arc_map
            if lab == "a" and {vname(gamma2, u), vname(gamma2, v)} == {"24", "32"}]
    ok = bool(hits) and all(
        plab == "b" and {vname(proj, pu), vname(proj, pv)} == {"4", "2"}
        for (pu, pv, plab) in hits)
    record_criterion("5 (psi maps the a-edge 24-32 to the b-edge 4-2)", ok, f"hits={hits}")


def test_criterion_6_katsura():
    t0 = time.perf_counter()
    A = IntMatrix.of([[2, 1], [2, 2]])
    B = IntMatrix.of([[1, 0], [1, 1]])
    aut = katsura_automaton(A, B)
    k0, k1 = katsura_ktheory(A, B)
    dt = time.perf_counter() - t0
    relabel = {"e1_1_0": "0", "e1_1_1": "1", "e1_2_0": "2",
               "e2_1_0": "3", "e2_1_1": "4", "e2_2_0": "5", "e2_2_1": "6"}
    got = {}
    for name, rule in aut.generators.items():
        for e, (img, restr) in rule.rules.items():
            got[(name, relabel[e])] = (relabel[img], restr.word)
    a1, a2 = (("a1", 1),), (("a2", 1),)
    want = {
        ("a1", "0"): ("1", ()), ("a1", "1"): ("0", a1), ("a1", "2"): ("2", ()),
        ("a2", "3"): ("4", ()), ("a2", "4"): ("3", a1),
        ("a2", "5"): ("6", ()), ("a2", "6"): ("5", a2),
    }
    ok = got == want and k0 == AbelianGroup(1) and k1 == AbelianGroup(1) and dt < 0.1
    record_criterion("6 (Katsura rules + K0 = K1 = Z, < 100 ms)", ok,
                     f"rules={'ok' if got == want else 'MISMATCH'}, K0={k0}, K1={k1}, "
                     f"{dt * 1e3:.1f}ms")


def _random_automaton(rng):
    """A small random valid automaton (restrictions of word length <= 1)."""
    nv = rng.randint(1, 2)
    vertices = ["u", "v"][:nv]
    edges = []
    for i, v in enumerate(vertices):
        for k in range(rng.randint(1, 3) if nv == 1 else rng.randint(1, 2)):
            src = rng.choice(vertices)
            edges.append((f"e{len(edges)}", src, v))
    graph = Graph(vertices, edges)
    if any(not graph.range_edges(v) for v in vertices):
        return None
    names = ["p", "q"][: rng.randint(1, 2)]
    sig = []
    for name in names:
        pairs = [(d, c) for d in vertices for c in vertices
                 if len(graph.range_edges(d)) == len(graph.range_edges(c))]
        if not pairs:
            return None
        sig.append((name,) + rng.choice(pairs))
    gens = {}
    for (name, d, c) in sig:
        dom_edges = [e.id for e in graph.range_edges(d)]
        images = [e.id for e in graph.range_edges(c)]
        rng.shuffle(images)
        rules = {}
        for e, img in zip(dom_edges, images):
            want_d, want_c = graph.s(e), graph.s(img)
            opts = []
            if want_d == want_c:
                opts.append(Element(want_d, ()))
            for (n2, d2, c2) in sig:
                if (d2, c2) == (want_d, want_c):
                    opts.append(Element(want_d, ((n2, 1),)))
                if (c2, d2) == (want_d, want_c):
                    opts.append(Element(want_d, ((n2, -1),)))
            if not opts:
                return None
            rules[e] = (img, rng.choice(opts))
        gens[name] = GeneratorRule(d, c, rules)
    aut = Automaton(graph, gens, Bounds(max_states=40, max_rounds=5))
    return aut if not aut.violations else None


def test_criterion_7_regularity_and_hausdorffness():
    shipped = [EX310, BASILICA, build_odometer(), build_nonhausdorff(),
               katsura_automaton(IntMatrix.of([[2, 1], [2, 2]]),
                                 IntMatrix.of([[1, 0], [1, 1]]))]
    ok = True
    details = []
    reg310 = is_regular(NUC310)[0]
    nucbas = compute_nucleus(BASILICA)
    regbas = is_regular(nucbas)[0]
    ok = ok and reg310 and regbas
    details.append(f"ex310 regular={reg310}, basilica regular={regbas}")

    from test_nucleus import nucleus_unless_certified

    rng = random.Random(20260810)
    fuzzed = []
    while len(fuzzed) < 50:
        aut = _random_automaton(rng)
        if aut is None:
            continue
        nuc = nucleus_unless_certified(aut)
        if not isinstance(nuc, Nucleus) or sum(not s.is_unit for s in nuc.states) > 10:
            continue
        fuzzed.append((aut, nuc))
    agree = 0
    for aut, nuc in [(a, compute_nucleus(a)) for a in shipped] + fuzzed:
        reg = is_regular(nuc)[0]
        if reg and not is_hausdorff(nuc)[0]:
            ok = False
            details.append("regular-but-not-hausdorff found")
        if reg == (not brute_force_irregularity(aut, nuc, 10)):
            agree += 1
        else:
            ok = False
    details.append(f"decider/brute-force agreement on {agree}/{len(fuzzed) + len(shipped)}")
    record_criterion("7 (regular examples; regular => hausdorff; depth-10 brute force)",
                     ok, "; ".join(details))


def _suite_action_identities(count):
    rng = random.Random(1)
    autos = [EX310, BASILICA]
    for i in range(count):
        aut = autos[i % 2]
        g = random_element(aut, rng, max_len=4)
        mu = random_path_at(aut, rng, g.dom, rng.randint(0, 4))
        img = aut.act(g, mu)
        if img.r(aut.graph) != aut.cod(g):
            return False
        rest = aut.restrict(g, mu)
        if aut.cod(rest) != img.s(aut.graph):
            return False
        nu = random_path_at(aut, rng, mu.s(aut.graph), rng.randint(0, 3))
        if aut.restrict(g, concat(aut.graph, mu, nu)) != aut.restrict(rest, nu):
            return False
        ident = aut.unit(mu.r(aut.graph))
        if aut.restrict(ident, mu) != aut.unit(mu.s(aut.graph)):
            return False
        h = random_element(aut, rng, max_len=3)
        if h.dom == aut.cod(g):
            if not aut.equal(aut.restrict(aut.compose(h, g), mu),
                             aut.compose(aut.restrict(h, img), rest)):
                return False
        eta = random_path_at(aut, rng, aut.cod(g), rng.randint(0, 3))
        ginv = aut.inverse(g)
        if not aut.equal(aut.restrict(ginv, eta),
                         aut.inverse(aut.restrict(g, aut.act(ginv, eta)))):
            return False
    return True


def _oracle_tables_equal(aut, g, h, depth):
    if g.dom != h.dom or aut.cod(g) != aut.cod(h):
        return False
    for n in range(1, depth + 1):
        for p in paths_at(aut.graph, n, g.dom):
            if aut.act(g, p) != aut.act(h, p):
                return False
    return True


def _suite_equal_vs_oracle(count):
    rng = random.Random(2)
    hits = 0
    while hits < count:
        g = random_element(EX310, rng, max_len=5)
        h = random_element(EX310, rng, max_len=5)
        if g.dom != h.dom or EX310.cod(g) != EX310.cod(h):
            continue
        hits += 1
        if EX310.equal(g, h) != _oracle_tables_equal(EX310, g, h, 8):
            return False
    return True


def _suite_ae_laws(count):
    rng = random.Random(3)
    for _ in range(count):
        x = random_left_path(EX310, rng)
        y = random_left_path(EX310, rng)
        if not ae_equivalent(x, x, NUC310)[0]:
            return False
        if ae_equivalent(x, y, NUC310)[0] != ae_equivalent(y, x, NUC310)[0]:
            return False
        cls = ae_class(x, NUC310)
        if x not in cls or len(cls) > len(NUC310):
            return False
        z = rng.choice(cls)
        if not ae_equivalent(x, z, NUC310)[0]:
            return False
        w = random_left_path(EX310, rng)
        if ae_equivalent(x, z, NUC310)[0] and ae_equivalent(z, w, NUC310)[0]:
            if not ae_equivalent(x, w, NUC310)[0]:
                return False
    return True


def _suite_shift_welldefined(count):
    rng = random.Random(4)
    g = EX310.graph
    for _ in range(count):
        x = random_left_path(EX310, rng)
        y = rng.choice(ae_class(x, NUC310))
        if not ae_equivalent(x.shift(g), y.shift(g), NUC310)[0]:
            return False
    return True


def _suite_snf(count):
    rng = random.Random(5)
    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        res = smith_normal_form(m)  # self-verifying: raises on violation
        if (res.U @ m) @ res.V != res.D:
            return False
    return True


def _suite_germs(count):
    rng = random.Random(6)
    done = 0
    while done < count:
        pair = random_germ_pair(EX310, rng)
        if pair is None:
            continue
        g1, g2 = pair
        if germ_equal(g1, g2, NUC310) != l_scan_oracle(EX310, g1, g2, 32):
            return False
        done += 1
    return True


def _suite_distance_profile(pairs):
    rng = random.Random(7)
    bound = 1  # every ex310 nucleus element is a single symbol or unit
    done = 0
    while done < pairs:
        x = random_left_path(EX310, rng)
        y = random_left_path(EX310, rng)
        prof = distance_profile(EX310, x, y, 12, gen_set=GENS310)
        if ae_equivalent(x, y, NUC310)[0]:
            if not all(d is not None and d <= bound for d in prof):
                return False
        else:
            if not any(d is None or d > bound for d in prof):
                return False
        done += 1
    return True


def test_criterion_8_property_suites():
    results = {
        "action_identities[1000]": _suite_action_identities(1000),
        "equal_vs_depth8_oracle[1000]": _suite_equal_vs_oracle(1000),
        "ae_equivalence_laws[1000]": _suite_ae_laws(1000),
        "shift_welldefined[1000]": _suite_shift_welldefined(1000),
        "snf_postconditions[1000]": _suite_snf(1000),
        "germ_equal_vs_lscan[1000]": _suite_germs(1000),
        "distance_profile_vs_ae[100 pairs]": _suite_distance_profile(100),
    }
    ok = all(results.values())
    record_criterion("8 (property suites, >= 1000 random cases each)", ok,
                     ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in results.items()))


def test_criterion_9_semidecision_honesty():
    aut = with_bounds(build_noncontracting(), Bounds(max_states=500, max_rounds=10))
    runs = [compute_nucleus(aut) for _ in range(3)]
    ok = all(isinstance(r, NotContractingWithinBound) for r in runs) and \
        len({(r.bound_hit, r.max_states, r.max_rounds) for r in runs}) == 1
    record_criterion("9 (non-contracting automaton reports NotContractingWithinBound, "
                     "deterministically)", ok,
                     f"bound_hit={runs[0].bound_hit if runs else '?'}")
