"""Class identification through the discrimination tree, against the bucket
scan it replaced.

``ScanRegistry`` is ``_Registry`` as it was: the depth-2 fingerprint's
bucket of class ids, scanned with ``equal`` in id order.  ``old_equal`` is
``Automaton.equal`` as it was, the bisimulation loop inline.  On two fresh
automata of one rule table, one identifying by the tree and one by the
scan, the same computation makes the same lookups with the same answers in
the same order, and leaves the same representatives and rows: the six
specs' nuclei with their ``power(3)``, and the katsura-ladder systems whose
restriction closure outgrows its words, up to that bound.  ``equal``
answers as ``old_equal`` on seeded random pairs.  A counter test pins one
bisimulation per fresh lookup on one such system, and a sift that outgrows
a lowered word bound raises.
"""

import random

import pytest

import selfsim.automaton as automaton
from selfsim.automaton import (
    _CACHE_SYMBOLS, Automaton, Element, GeneratorRule, _Registry, _SymbolMemo, word_key)
from selfsim.errors import ClosureLimitError, NotContractingError, SelfSimError
from selfsim.graphs import Graph
from selfsim.nucleus import Nucleus, compute_nucleus

from test_runs import SPEC_NAMES, katsura, ladder_systems, random_runs, spec_automaton


def old_equal(aut, g, h):
    """Automaton.equal as it was: the bisimulation that answers only yes or no."""
    aut._require_valid()
    if g.dom != h.dom or aut.cod(g) != aut.cod(h):
        return False
    budget = aut.bounds.max_states
    seen = set()
    stack = [(g.word, h.word, g.dom)]
    while stack:
        gw, hw, dom = stack.pop()
        if (gw, hw) in seen:
            continue
        seen.add((gw, hw))
        if len(seen) > budget:
            raise ClosureLimitError(budget, "bisimulation")
        for e in aut.graph.range_edges(dom):
            gi, gr = aut.word_act_edge(gw, e.id)
            hi, hr = aut.word_act_edge(hw, e.id)
            if gi != hi:
                return False
            if gr != hr:
                stack.append((gr, hr, e.src))
    return True


class ScanRegistry(_Registry):
    """_Registry with the lookup it had before the discrimination tree."""

    def __init__(self, aut):
        super().__init__(aut)
        self.buckets = {}  # fingerprint -> class ids, in id order

    def lookup(self, g):
        return old_lookup(self, g)


def old_lookup(reg, g):
    """_Registry.lookup as it was: the fingerprint's bucket, scanned with
    equal in class id order; no match makes a new class."""
    aut = reg.aut
    aut._require_valid()
    key = (g.dom, g.word)
    cached = aut._memo.get(key)
    if cached is not None:
        return cached, reg.reps[cached]
    fp = reg._fingerprint(g)
    for cid in reg.buckets.get(fp, ()):
        rep = reg.reps[cid]
        if old_equal(aut, g, rep):
            if word_key(g.word) < word_key(rep.word):
                reg.reps[cid] = g
            break
    else:
        cid = len(reg.reps)
        reg.reps.append(g)
        reg.rows.append(None)
        reg.buckets.setdefault(fp, []).append(cid)
    aut._memo.put(key, cid, len(g.word))
    return cid, reg.reps[cid]


def logged(aut, registry=None):
    """aut with ``registry`` (by default its own) logging every lookup as
    (domain, word, class id or the error's kind and message), in order."""
    reg = aut._registry = registry or aut._registry
    reg.log = []
    lookup = reg.lookup

    def logging_lookup(g):
        try:
            out = lookup(g)
        except SelfSimError as err:
            reg.log.append((g.dom, g.word, type(err).__name__, str(err)))
            raise
        reg.log.append((g.dom, g.word, out[0]))
        return out
    reg.lookup = logging_lookup
    return aut


def both(make, run):
    """run on a tree automaton and on a scan automaton, both fresh from
    make(); their lookup logs, representatives and rows agree."""
    tree = logged(make())
    scan = make()
    logged(scan, ScanRegistry(scan))
    answers = []
    for aut in (tree, scan):
        try:
            answers.append(run(aut))
        except SelfSimError as err:
            answers.append((type(err).__name__, str(err)))
    assert tree._registry.log == scan._registry.log
    assert tree._registry.reps == scan._registry.reps
    assert tree._registry.rows == scan._registry.rows
    return tree, answers


def nucleus_and_cube(aut):
    nuc = compute_nucleus(aut)
    if isinstance(nuc, Nucleus):
        return nuc.machine.to_json(), nuc.power(3).to_json()
    return nuc


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_spec_nuclei_and_cubes_vs_bucket_scan(name):
    tree, (new, old) = both(lambda: spec_automaton(name), nucleus_and_cube)
    assert new == old
    assert tree._registry.log


def bound_hit(a, b):
    try:
        return getattr(compute_nucleus(katsura(a, b)), "bound_hit", None)
    except NotContractingError:
        return None


def word_growth_systems():
    """The katsura-ladder systems whose nucleus ends in restriction word growth."""
    return [(a, b) for a, b in ladder_systems() if bound_hit(a, b) == "restriction word growth"]


def test_word_growth_ladder_vs_bucket_scan():
    systems = word_growth_systems()
    assert len(systems) == 60
    for a, b in systems:
        _, (new, old) = both(lambda: katsura(a, b), compute_nucleus)
        assert new == old and new.bound_hit == "restriction word growth"


def test_equal_vs_old_equal():
    rng = random.Random(25)
    auts = [spec_automaton(name) for name in SPEC_NAMES]
    kinds, pairs = set(), 0
    while pairs < 1_000:
        aut = rng.choice(auts)
        g = Element("", random_runs(aut, rng, max_runs=3, max_exp=4))
        h = Element("", random_runs(aut, rng, max_runs=3, max_exp=4))
        try:
            g, h = aut.element(g.name()), aut.element(h.name())
        except SelfSimError:
            continue
        pairs += 1
        answers = []
        for equal in (aut.equal, lambda g, h: old_equal(aut, g, h)):
            try:
                answers.append(equal(g, h))
            except SelfSimError as err:
                answers.append((type(err).__name__, str(err)))
        assert answers[0] == answers[1], (g, h)
        kinds.add(str(answers[0]))
        if answers[0] is False and (g.dom, aut.cod(g)) == (h.dom, aut.cod(h)):
            # the path the bisimulation returns tells the two apart on its last edge only
            path = aut._discerning_path(g, h)
            images = [[], []]
            for k, word in enumerate((g.word, h.word)):
                for e in path:
                    img, word = aut.word_act_edge(word, e)
                    images[k].append(img)
            assert images[0][:-1] == images[1][:-1] and images[0][-1] != images[1][-1]
    assert {"True", "False"} <= kinds


def test_one_bisimulation_per_fresh_lookup(monkeypatch):
    aut = katsura([[0, 3, 3], [1, 1, 3], [3, 0, 3]], [[0, 1, 1], [1, 2, 2], [2, 0, 2]])
    counts = {"lookups": 0, "fresh": 0, "bisimulations": 0}
    lookup, discern = _Registry.lookup, automaton.Automaton._discerning_path

    def counting_lookup(reg, g):
        counts["lookups"] += 1
        counts["fresh"] += aut._memo.get((g.dom, g.word)) is None
        return lookup(reg, g)

    def counting_discern(self, g, h):
        counts["bisimulations"] += 1
        return discern(self, g, h)
    monkeypatch.setattr(_Registry, "lookup", counting_lookup)
    monkeypatch.setattr(automaton.Automaton, "_discerning_path", counting_discern)
    assert compute_nucleus(aut).bound_hit == "restriction word growth"
    # the bucket scan made 1,231 bisimulations for the same 269 fresh lookups
    assert (counts["lookups"], counts["fresh"], len(aut._registry.reps)) == (1_115, 269, 268)
    assert counts["bisimulations"] <= counts["fresh"]


def growing_automaton():
    """One vertex, loops 0 and 1.  h and k act trivially with h|_0 = k|_0 = h h,
    so restrictions of h and k double along 0; d, d1 and d2 act trivially to
    depth 3 and swap the loops at depth 4 along 0 (through f), so d and the
    unit share a fingerprint and part only on the path 0.0.0.0."""
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])

    def rule(zero, one=("1", ())):
        return GeneratorRule("v", "v", {"0": (zero[0], Element("v", zero[1])),
                                        "1": (one[0], Element("v", one[1]))})
    return Automaton(g, {
        "h": rule(("0", (("h", 2),))), "k": rule(("0", (("h", 2),))),
        "d": rule(("0", (("d1", 1),))), "d1": rule(("0", (("d2", 1),))),
        "d2": rule(("0", (("f", 1),))), "f": rule(("1", ()), ("0", ())),
    })


def test_a_sift_that_outgrows_its_words_raises(monkeypatch):
    # h d is class 0 and the unit class 1, split on 0.0.0.0.  Under a bound
    # of 6 symbols, and with the memo of the longer walks emptied, k d
    # outgrows that path at its third edge (h^8 f), and the sift raises
    # without a bisimulation or a new class.  No program lowers the bound
    # during an automaton's life; at a fixed bound, a scan of the classes
    # below the split could match none, as each of their walks fit when it
    # was keyed.
    calls = []
    discern = automaton.Automaton._discerning_path
    monkeypatch.setattr(automaton.Automaton, "_discerning_path",
                        lambda aut, g, h: calls.append(g) or discern(aut, g, h))
    aut = logged(growing_automaton())
    assert [aut.canonical_id(aut.element(w)) for w in ("h d", "v")] == [0, 1]
    aut._memo = _SymbolMemo(_CACHE_SYMBOLS)
    monkeypatch.setattr(automaton, "_MAX_WORD_LEN", 6)
    kd = aut.element("k d")
    calls.clear()
    with pytest.raises(ClosureLimitError, match="restriction word growth"):
        aut.canonical_id(kd)
    assert calls == []
    assert aut._registry.log[-1][:3] == (kd.dom, kd.word, "ClosureLimitError")
    assert len(aut._registry.reps) == 2
