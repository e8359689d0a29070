"""Words as runs of powers, against the symbol-by-symbol action they replaced.

``unit_word_act_edge`` is ``Automaton.word_act_edge`` as it was when a power
g^k was spelled as k symbols: it walks the expanded word one symbol at a
time over the rule table.  On seeded random words over the six specs and
over the Katsura systems that the katsura-ladder benchmark runs, both give
the same image, the same expanded restriction, or the same exception with
the same message.  The other tests check that every word the calculus
returns is canonical, that a Katsura power costs O(orbit) work whatever its
exponent, and that ``equal`` counts the pairs it counted before.
``expanded_word_key`` is the shortlex key as it was when it spelled words
out; ``word_key`` reads the runs and orders every random pair as it did.
"""

import json
import os
import random
import subprocess
import sys
from itertools import chain, repeat
from pathlib import Path as FsPath

import pytest

import selfsim.automaton as automaton
from selfsim.automaton import Bounds, Element, join
from selfsim.errors import ClosureLimitError, DomainMismatchError, SelfSimError
from selfsim.ktheory import IntMatrix, katsura_automaton
from selfsim.specfile import parse_spec

from conftest import with_bounds

ROOT = FsPath(__file__).resolve().parent.parent
SPEC_NAMES = ("basilica", "ex310", "katsura", "noncontracting", "nonhausdorff", "odometer")
MAX_WORD_LEN = 4_096


def spec_automaton(name):
    return parse_spec((ROOT / "specs" / f"{name}.ss").read_text()).automaton()


def ladder_systems():
    """(A, B) of the 213 Katsura systems of a katsura-ladder round: the
    Katsura 3x3, the recorded systems whose nucleus took under 2.5 s and
    the first recorded hung system of each size 2 and 3."""
    pool = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())["pool"]
    systems = [([[3, 1, 1], [1, 3, 1], [1, 1, 3]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]])]
    systems += [(e["A"], e["B"]) for e in pool
                if e["nucleus_ms"] is not None and e["nucleus_ms"] < 2_500]
    hung = [e for e in pool if e["nucleus_ms"] is None]
    systems += [next((e["A"], e["B"]) for e in hung if len(e["A"]) == n) for n in (2, 3)]
    return systems


def katsura(a, b):
    return katsura_automaton(IntMatrix.of(a), IntMatrix.of(b))


def mixed_orbit_automaton():
    """One vertex, three loops: s cycles 0 -> 1 -> 2 -> 0 restricting to t,
    then u u, then t^-1, so the products along s's orbit mix names and
    signs and their order shows."""
    rules = {
        "s": {"0": ("1", "t"), "1": ("2", "u u"), "2": ("0", "t^-1")},
        "t": {"0": ("0", "v"), "1": ("2", "s"), "2": ("1", "v")},
        "u": {"0": ("1", "v"), "1": ("0", "v"), "2": ("2", "u")},
    }
    text = "[graph]\nvertex v\n" + "".join(f"edge {e} : v -> v\n" for e in "012")
    for name, row in rules.items():
        text += f"[generator {name} : v -> v]\n"
        text += "".join(f"{e} -> {img} | {w}\n" for e, (img, w) in row.items())
    return parse_spec(text).automaton()


# -- the replaced action ------------------------------------------------------------


def expanded(word):
    """A word of runs written out one signed symbol (name, +-1) at a time."""
    return tuple((name, 1 if k > 0 else -1) for name, k in word for _ in range(abs(k)))


def unit_moves(aut):
    """signed symbol -> edge -> (image, expanded restriction), from the rules."""
    moves = {}
    for name, rule in aut.generators.items():
        moves[(name, 1)] = {e: (img, expanded(r.word)) for e, (img, r) in rule.rules.items()}
        moves[(name, -1)] = {img: (e, tuple((n, -k) for n, k in reversed(expanded(r.word))))
                             for e, (img, r) in rule.rules.items()}
    return moves


def unit_word_act_edge(moves, word, edge):
    """word_act_edge before runs: one rule lookup per symbol of the
    expanded word, rightmost first."""
    img = edge
    pieces = []
    total = 0
    for sym in reversed(expanded(word)):
        hit = moves[sym].get(img)
        if hit is None:
            name, exp = sym
            raise DomainMismatchError(
                f"{name if exp == 1 else name + '^-1'} does not act on edge {img!r}")
        img, rw = hit
        if rw:
            pieces.append(rw)
            total += len(rw)
            if total > MAX_WORD_LEN:
                raise ClosureLimitError(MAX_WORD_LEN, "restriction word growth")
    pieces.reverse()
    return img, tuple(sym for piece in pieces for sym in piece)


def outcome(f, *args):
    try:
        return f(*args)
    except SelfSimError as e:
        return type(e), str(e)


def assert_agree(aut, moves, word, edge):
    """The run action and the unit action agree on word at edge; returns
    the kind of outcome, for coverage."""
    want = outcome(unit_word_act_edge, moves, word, edge)
    got = outcome(aut.word_act_edge, word, edge)
    if isinstance(want[0], type):
        assert got == want, (word, edge)
        return want[0].__name__
    assert got[0] == want[0] and expanded(got[1]) == want[1], (word, edge)
    assert_canonical(got[1])
    return "image"


def assert_canonical(word):
    assert all(isinstance(k, int) and k != 0 for _, k in word), word
    assert all(x != y or (j > 0) != (k > 0) for (x, j), (y, k) in zip(word, word[1:])), word


# -- random words -------------------------------------------------------------------


def random_runs(aut, rng, max_runs=4, max_exp=6):
    """A canonical word of random runs, composable more often than not:
    grown right to left, a run of length >= 2 only on a loop."""
    runs, cod = [], None
    for _ in range(rng.randint(1, max_runs)):
        opts = []
        for name, rule in aut.generators.items():
            for sign, d, c in ((1, rule.dom, rule.cod), (-1, rule.cod, rule.dom)):
                if cod is None or d == cod or rng.random() < 0.05:
                    opts.append((name, sign, c, rule.dom == rule.cod))
        name, sign, cod, loop = rng.choice(opts)
        n = rng.randint(1, max_exp) if loop or rng.random() < 0.1 else 1
        runs.insert(0, (name, sign * n))
    return join(runs)


def test_runs_match_the_unit_action_on_the_specs():
    rng = random.Random(20)
    kinds = set()
    for aut in [*map(spec_automaton, SPEC_NAMES), mixed_orbit_automaton()]:
        moves = unit_moves(aut)
        edges = [e.id for e in aut.graph.edges]
        for _ in range(1000):
            word = random_runs(aut, rng, max_exp=rng.choice((3, 12, 300)))
            kinds.add(assert_agree(aut, moves, word, rng.choice(edges)))
        # past the limit on the one growing spec, the loops of the others
        for gen in aut.generators:
            for k in (MAX_WORD_LEN // 2, MAX_WORD_LEN // 2 + 1, MAX_WORD_LEN, MAX_WORD_LEN + 1):
                for e in edges:
                    kinds.add(assert_agree(aut, moves, ((gen, k),), e))
                    kinds.add(assert_agree(aut, moves, ((gen, -k),), e))
    assert kinds == {"image", "DomainMismatchError", "ClosureLimitError"}


def test_runs_match_the_unit_action_on_the_ladder():
    rng = random.Random(21)
    systems = ladder_systems()
    assert len(systems) == 213
    kinds = set()
    for a, b in systems:
        aut = katsura(a, b)
        moves = unit_moves(aut)
        for v in aut.graph.vertices:
            gen = f"a{v}"
            edges = [e.id for e in aut.graph.range_edges(v)]
            for e in edges:
                for k in (1, 2, 3, rng.randint(4, 40), -1, -2, -rng.randint(3, 40)):
                    kinds.add(assert_agree(aut, moves, ((gen, k),), e))
                mixed = join([(gen, rng.choice((1, -1)) * rng.randint(1, 9)) for _ in range(4)])
                kinds.add(assert_agree(aut, moves, mixed, e))
            # a long power on one edge, up to past the word limit
            k = rng.choice((1, -1)) * rng.randint(1_000, MAX_WORD_LEN + 200)
            kinds.add(assert_agree(aut, moves, ((gen, k),), rng.choice(edges)))
        # another vertex's edge: the run does not act there
        at_1 = {e.id for e in aut.graph.range_edges("1")}
        if len(aut.graph.vertices) > 1:
            kinds.add(assert_agree(aut, moves, (("a1", 3),), next(
                e.id for e in aut.graph.edges if e.id not in at_1)))
    assert kinds == {"image", "DomainMismatchError", "ClosureLimitError"}


def test_word_limit_is_4096_expanded_symbols():
    # A = B = [[1]]: a.e = e and a|_e = a, so a^k|_e = a^k
    aut = katsura([[1]], [[1]])
    moves = unit_moves(aut)
    assert aut.word_act_edge((("a1", MAX_WORD_LEN),), "e1_1_0") == (
        "e1_1_0", (("a1", MAX_WORD_LEN),))
    assert aut.word_act_edge((("a1", -MAX_WORD_LEN),), "e1_1_0") == (
        "e1_1_0", (("a1", -MAX_WORD_LEN),))
    for k in (MAX_WORD_LEN + 1, -MAX_WORD_LEN - 1):
        with pytest.raises(ClosureLimitError, match="restriction word growth"):
            aut.word_act_edge((("a1", k),), "e1_1_0")
    # the limit counts the restriction over all runs of the word
    fits = (("a1", 2_000), ("a1", -1), ("a1", MAX_WORD_LEN - 2_001))
    assert aut.word_act_edge(fits, "e1_1_0")[1] == fits
    over = (("a1", 2_000), ("a1", -1), ("a1", MAX_WORD_LEN - 2_000))
    with pytest.raises(ClosureLimitError, match="restriction word growth"):
        aut.word_act_edge(over, "e1_1_0")
    for word in (fits, over, (("a1", MAX_WORD_LEN),), (("a1", MAX_WORD_LEN + 1),)):
        assert_agree(aut, moves, word, "e1_1_0")


def test_a_run_of_a_non_loop_acts_once():
    # basilica's a : v -> w is no loop: a acts on edge 0, a a does not
    aut = spec_automaton("basilica")
    moves = unit_moves(aut)
    assert aut.word_act_edge((("a", 1),), "0") == ("2", ())
    for word, edge, where in (((("a", 2),), "0", "'2'"), ((("a", 1),), "2", "'2'"),
                              ((("a", -2),), "3", "'1'")):
        with pytest.raises(DomainMismatchError, match=f"does not act on edge {where}"):
            aut.word_act_edge(word, edge)
        assert assert_agree(aut, moves, word, edge) == "DomainMismatchError"


# -- work -----------------------------------------------------------------------------


class CountingMoves(dict):
    """A rule row that counts its lookups."""

    def __init__(self, row, counts):
        super().__init__(row)
        self.counts = counts

    def get(self, *args):
        self.counts["moves"] += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.counts["moves"] += 1
        return super().__getitem__(key)


def power_work(monkeypatch, k):
    """(orbit-table walks, move lookups, result) of a_1^k on a fresh Katsura
    automaton with B > A, whose powers lengthen their restrictions."""
    counts = {"walks": 0, "moves": 0}
    rho = automaton.rho

    def counted(*args):
        counts["walks"] += 1
        return rho(*args)
    monkeypatch.setattr(automaton, "rho", counted)
    aut = katsura([[50]], [[51]])
    aut._moves = {sym: CountingMoves(row, counts) for sym, row in aut._moves.items()}
    result = aut.word_act_edge((("a1", k),), "e1_1_7")
    return counts["walks"], counts["moves"], result


def test_a_katsura_power_costs_its_orbit(monkeypatch):
    # a1.e_m = e_{m+1 mod 50}: the orbit has 50 edges, whatever the power
    small = power_work(monkeypatch, 10)
    large = power_work(monkeypatch, 4_000)
    assert small[:2] == large[:2] == (1, 50)
    # k B + m = q A + r: a1^k . e_7 = e_r and a1^k|_e_7 = a1^q
    assert small[2] == ("e1_1_17", (("a1", 10),))
    q, r = divmod(4_000 * 51 + 7, 50)
    assert large[2] == (f"e1_1_{r}", (("a1", q),)) and q < MAX_WORD_LEN


# -- canonical words ------------------------------------------------------------------


def test_the_calculus_returns_canonical_words():
    rng = random.Random(22)
    checked = 0
    auts = [*map(spec_automaton, SPEC_NAMES), mixed_orbit_automaton()]
    auts += [katsura(a, b) for a, b in ladder_systems()[::10]]
    for aut in auts:
        edges = [e.id for e in aut.graph.edges]
        for _ in range(200):
            word = random_runs(aut, rng, max_exp=rng.choice((1, 4, 60)))
            assert_canonical(word)
            try:
                g = aut.element(Element("", word).name())
            except SelfSimError:
                continue
            assert g.word == word
            assert_canonical(aut.inverse(g).word)
            assert aut.inverse(aut.inverse(g)) == g
            assert_canonical(aut.compose(g, aut.inverse(g)).word)
            assert_canonical(aut.compose(aut.inverse(g), g).word)
            assert_canonical(aut.compose(g, aut.unit(g.dom)).word)
            try:
                _, rw = aut.word_act_edge(word, rng.choice(edges))
            except SelfSimError:
                continue
            assert_canonical(rw)
            checked += 1
    assert checked > 1_000
    # read_word merges equal-sign neighbours and cancels nothing
    aut = spec_automaton("noncontracting")
    assert aut.element("h h h^-1 h^-1 h^-1 g").word == (("h", 2), ("h", -3), ("g", 1))
    assert aut.compose(aut.element("h"), aut.element("h h")).word == (("h", 3),)
    assert aut.compose(aut.element("h^-1"), aut.element("h")).word == (("h", -1), ("h", 1))


def unit_equal(moves, edges, g, h, budget):
    """Automaton.equal before runs, on expanded words, with edges[v] the
    (id, source) of each edge arriving at v: (answer or the raised error,
    the number of pairs it saw)."""
    seen = set()
    stack = [(expanded(g.word), expanded(h.word), g.dom)]
    try:
        while stack:
            gw, hw, dom = stack.pop()
            if (gw, hw) in seen:
                continue
            seen.add((gw, hw))
            if len(seen) > budget:
                raise ClosureLimitError(budget, "bisimulation")
            for e, src in edges[dom]:
                gi, gr = unit_word_act_edge(moves, gw, e)
                hi, hr = unit_word_act_edge(moves, hw, e)
                if gi != hi:
                    return False, len(seen)
                if gr != hr:
                    stack.append((gr, hr, src))
        return True, len(seen)
    except SelfSimError as err:
        return (type(err), str(err)), len(seen)


def test_equal_counts_the_pairs_it_counted_before():
    rng = random.Random(23)
    kinds = set()
    for name in SPEC_NAMES:
        aut = spec_automaton(name)
        moves = unit_moves(aut)
        edges = {v: [(e.id, e.src) for e in aut.graph.range_edges(v)] for v in aut.graph.vertices}
        pairs = 0
        while pairs < 40:
            g = Element("", random_runs(aut, rng, max_runs=3, max_exp=5))
            h = Element("", random_runs(aut, rng, max_runs=3, max_exp=5))
            try:
                g, h = aut.element(g.name()), aut.element(h.name())
            except SelfSimError:
                continue
            if (g.dom, aut.cod(g)) != (h.dom, aut.cod(h)):
                continue
            pairs += 1
            want, count = unit_equal(moves, edges, g, h, aut.bounds.max_states)
            assert outcome(with_bounds(aut, Bounds(max_states=count)).equal, g, h) == want
            if want is True or want is False:
                # one pair fewer and the budget runs out
                tight = with_bounds(aut, Bounds(max_states=count - 1))
                assert outcome(tight.equal, g, h) == (
                    ClosureLimitError, str(ClosureLimitError(count - 1, "bisimulation")))
            kinds.add(want if isinstance(want, bool) else want[0].__name__)
    assert {True, False} <= kinds


# -- the shortlex key -------------------------------------------------------------------


def expanded_word_key(word):
    """automaton.word_key as it was before it read runs: the length, then the
    expanded word as a tuple of symbol strings."""
    return (sum(abs(k) for _, k in word), tuple(chain.from_iterable(
        repeat(name if k > 0 else f"{name}^-1", abs(k)) for name, k in word)))


def random_word(rng, max_exp, max_runs=4):
    """A canonical word of random runs over three names, one a prefix of
    another, so that the tokens a, a1, a^-1 and b sort in a mixed order."""
    return join([(rng.choice(("a", "a1", "b")), rng.choice((1, -1)) * rng.randint(1, max_exp))
                 for _ in range(rng.randint(0, max_runs))])


def same_length_partner(rng, word, max_exp):
    """A random canonical word of the same expanded length that shares a
    random number of leading runs with ``word``, the last of them maybe
    shortened."""
    head = list(word[:rng.randint(0, len(word))])
    if head and rng.random() < 0.5:
        name, k = head[-1]
        head[-1] = (name, (1 if k > 0 else -1) * rng.randint(1, abs(k)))
    rest = sum(abs(k) for _, k in word) - sum(abs(k) for _, k in head)
    while rest:
        n = rng.randint(1, min(rest, max_exp))
        head.append((rng.choice(("a", "a1", "b")), rng.choice((1, -1)) * n))
        rest -= n
    return join(head)


def test_word_key_orders_as_the_expanded_word():
    rng = random.Random(24)
    seen = {"<": 0, "==": 0, ">": 0, "same length": 0, "10^5 or longer": 0}
    for i in range(20_000):
        max_exp = 10**6 if i % 200 == 0 else rng.choice((1, 3, 8))
        x = random_word(rng, max_exp, max_runs=3 if max_exp > 8 else 5)
        y = same_length_partner(rng, x, max_exp) if i % 2 else random_word(rng, max_exp)
        (ox, nx), (oy, ny) = [(expanded_word_key(w), automaton.word_key(w)) for w in (x, y)]
        assert (nx < ny, nx == ny, ny < nx) == (ox < oy, ox == oy, oy < ox), (x, y)
        seen["<" if ox < oy else "==" if ox == oy else ">"] += 1
        seen["same length"] += ox[0] == oy[0]
        seen["10^5 or longer"] += ox[0] >= 10**5
    assert min(seen.values()) > 50, seen
    assert automaton.word_key(()) < automaton.word_key((("a", -1),))


# runs argv[1] in a grandchild with its address space capped at 1 GiB, then
# prints the grandchild's peak RSS in KiB: a child's own peak starts at its
# parent's, which would count the test process
LAUNCHER = """import resource, subprocess, sys
cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
code = subprocess.run([sys.executable, "-c", sys.argv[1]], preexec_fn=cap).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def child(code):
    """Run ``code`` in a fresh Python on this source tree, so that a
    regression fails or times out instead of filling the machine: (its
    stdout, its peak RSS in KiB)."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *out, peak = proc.stdout.splitlines()
    return "\n".join(out), int(peak)


def test_word_key_does_not_expand_a_run():
    # spelled out, a1^(10^12) would take 8 TB of token pointers
    out, _ = child("from selfsim.automaton import word_key\n"
                   "print(word_key(((\"a1\", 10**12),)))\n")
    assert out == str((10**12, (("a1", 1, 0),)))


def test_the_certificate_search_at_2048_states_stays_small():
    # the order chain a1 -> a2^2 -> a1^2 -> a2^4 -> ... doubles its exponents
    # and never closes; with names spelled out to compare them, 2,048 states
    # took 777 MB and about a minute
    out, peak_kib = child(
        "from selfsim import nucleus\n"
        "from selfsim.automaton import reachable_closure\n"
        "from selfsim.ktheory import IntMatrix, katsura_automaton\n"
        "aut = katsura_automaton(IntMatrix.of([[2, 3], [2, 3]]), IntMatrix.of([[2, 2], [2, 0]]))\n"
        "sm = reachable_closure(aut, aut.basic_elements())\n"
        "print(nucleus._non_contraction(sm, 2048))\n")
    assert out == "None"
    assert peak_kib < 100 * 1024
