import json
import os
import random
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from selfsim.automaton import _CACHE_SYMBOLS, Automaton, Bounds, Element, GeneratorRule
from selfsim.errors import ClosureLimitError, NotContractingError
from selfsim.graphs import Graph, Path
from selfsim.ktheory import IntMatrix, katsura_automaton
from selfsim.nucleus import (
    NotContractingWithinBound,
    Nucleus,
    compute_Rk,
    compute_nucleus,
    limit_restrictions,
    moore_diagram,
)
from selfsim.specfile import parse_spec

from conftest import build_noncontracting, class_index, paths_at, shortlex_power, unit, with_bounds

ROOT = FsPath(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
SRC = ROOT / "src"


def names_of(aut, elems):
    return sorted(aut.canonical(e).name() for e in elems)


def test_limit_restrictions_a(ex310):
    # cycle a -2-> b -4-> a, units absorbed via a|_1 = v, v|_2 = w
    lims = limit_restrictions(ex310, ex310.generator("a"))
    assert names_of(ex310, lims) == ["a", "b", "v", "w"]


def test_limit_restrictions_unit(ex310):
    lims = limit_restrictions(ex310, ex310.unit("v"))
    assert names_of(ex310, lims) == ["v", "w"]


def test_limit_restrictions_ab(ex310):
    # (ab)|_4 = ba is a depth-1 restriction, but ba itself is transient: its
    # successors are a and b (on the cycle a -2-> b -4-> a), and nothing maps
    # back to ba.  So the limit set is {a, b, v, w}: ba and ab drop out.
    ab = ex310.compose(ex310.generator("a"), ex310.generator("b"))
    ba = ex310.compose(ex310.generator("b"), ex310.generator("a"))
    lims = limit_restrictions(ex310, ab)
    assert names_of(ex310, lims) == ["a", "b", "v", "w"]
    ids = {ex310.canonical_id(x) for x in lims}
    assert ex310.canonical_id(ba) not in ids
    assert ex310.canonical_id(ab) not in ids
    # brute-force oracle: ba occurs only at depth 1, never at depth >= 2
    for n in (2, 3, 4, 5):
        reached = {ex310.canonical_id(ex310.restrict(ab, p))
                   for p in paths_at(ex310.graph, n, ab.dom)}
        assert ex310.canonical_id(ba) not in reached
        assert reached <= ids


def test_nucleus_ex310(ex310):
    nuc = compute_nucleus(ex310)
    assert isinstance(nuc, Nucleus)
    expected = [
        ex310.unit("v"), ex310.unit("w"),
        ex310.generator("a"), ex310.generator("b"),
        ex310.inverse(ex310.generator("a")), ex310.inverse(ex310.generator("b")),
    ]
    assert len(nuc) == 6
    ids = class_index(ex310, nuc.machine)
    for e in expected:
        assert ex310.canonical_id(e) in ids


def test_nucleus_basilica(basilica):
    # The classical 12-element list misses the mixed-sign pair b c^-1 and
    # c b^-1, which restrict to each other along the edges 0, 1 and therefore
    # sit on a cycle of their own restriction digraph: (bc^-1)|_0 = cb^-1 and
    # (cb^-1)|_1 = bc^-1, so (bc^-1)|_{(01)^k} = bc^-1 at every even depth.
    # The minimal contracting core therefore has 14 classes.
    nuc = compute_nucleus(basilica)
    assert isinstance(nuc, Nucleus)
    a, b, c = (basilica.generator(x) for x in "abc")
    ba, ca = basilica.compose(b, a), basilica.compose(c, a)
    bcinv = basilica.compose(b, basilica.inverse(c))
    cbinv = basilica.compose(c, basilica.inverse(b))
    expected = [basilica.unit("v"), basilica.unit("w"), a, b, c, ba, ca,
                basilica.inverse(a), basilica.inverse(b), basilica.inverse(c),
                basilica.inverse(ba), basilica.inverse(ca), bcinv, cbinv]
    assert len(nuc) == 14
    ids = class_index(basilica, nuc.machine)
    for e in expected:
        assert basilica.canonical_id(e) in ids
    # oracle for the extra pair: literal word recurrence, no equal() involved
    g = bcinv
    for _ in range(4):
        g = basilica.restrict(g, Path.of(basilica.graph, ["0", "1"]))
        assert g.word == bcinv.word


def test_nucleus_binary_swap():
    from selfsim.graphs import enumerate_paths
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    aut = Automaton(g, {
        "s": GeneratorRule("v", "v", {"0": ("1", unit("v")), "1": ("0", unit("v"))}),
    })
    nuc = compute_nucleus(aut)
    assert isinstance(nuc, Nucleus)
    # Every restriction of the swap (and of any product, since s^2 = unit) is
    # a unit from depth 1 on, so the limit formula leaves only the unit: the
    # restriction closure {unit, swap} is a core, but not the minimal one.
    assert nuc.state_names() == ["v"]
    s = aut.generator("s")
    for n in (1, 2):
        for p in enumerate_paths(g, n):
            assert aut.restrict(s, p).is_unit


def test_noncontracting_reports_bound():
    aut = with_bounds(build_noncontracting(), Bounds(max_states=300, max_rounds=8))
    res = compute_nucleus(aut)
    # S itself grows words (h|_0 = h h), so no certificate search runs
    assert res == NotContractingWithinBound("restriction word growth", 300, 8)
    res2 = compute_nucleus(aut)
    assert (res.bound_hit, res.max_states) == (res2.bound_hit, res2.max_states)


def test_nucleus_symmetric_and_closed(ex310, basilica):
    for aut in (ex310, basilica):
        nuc = compute_nucleus(aut)
        ids = {aut.canonical_id(s) for s in nuc.states}
        for s in nuc.states:
            assert aut.canonical_id(aut.inverse(s)) in ids
            for e in aut.graph.range_edges(s.dom):
                assert aut.canonical_id(aut.restrict(s, Path.of(aut.graph, [e.id]))) in ids
        # units present (the graphs have no sinks)
        for v in aut.graph.vertices:
            assert aut.canonical_id(aut.unit(v)) in ids


def nucleus_enumeration_oracle(aut, max_word_len):
    """Union of limit restriction sets over all canonical products of
    generators and inverses up to the given word length: a lower bound for
    the nucleus that is exact once max_word_len is large enough."""
    from selfsim.automaton import word_key

    symbols = [aut.unit(v) for v in aut.graph.vertices]
    for name in sorted(aut.generators):
        symbols.append(aut.generator(name))
        symbols.append(aut.inverse(aut.generator(name)))
    layer = {aut.canonical_id(s): s for s in symbols}
    everything = dict(layer)
    for _ in range(max_word_len - 1):
        nxt = {}
        for g in layer.values():
            for s in symbols:
                if s.dom == aut.cod(g):
                    prod = aut.compose(s, g)
                    cid = aut.canonical_id(prod)
                    if cid not in everything:
                        nxt[cid] = aut.canonical(prod)
        everything.update(nxt)
        layer = nxt
    out = {}
    for g in sorted(everything.values(), key=lambda e: word_key(e.word)):
        for lim in limit_restrictions(aut, g):
            out[aut.canonical_id(lim)] = aut.canonical(lim)
    return set(out)


def test_nucleus_vs_enumeration_oracle(ex310, basilica):
    # products up to length 4 already exhibit every nucleus class here, and
    # the oracle never exceeds the computed nucleus (it is a subset of the
    # union over all of G, which the pruning step realizes exactly)
    for aut in (ex310, basilica):
        nuc = compute_nucleus(aut)
        ids = {aut.canonical_id(s) for s in nuc.states}
        assert nucleus_enumeration_oracle(aut, 4) == ids


def rk_bruteforce(nuc, k, jmax=10):
    """Directly scan depths: the least j with every depth-j restriction of
    every k-fold nucleus product inside the nucleus."""

    aut = nuc.automaton
    ids = class_index(aut, nuc.machine)
    layer = {aut.canonical_id(s): s for s in nuc.states}
    for _ in range(k - 1):
        nxt = {}
        for g in layer.values():
            for s in nuc.states:
                if s.dom == aut.cod(g):
                    prod = aut.compose(s, g)
                    nxt.setdefault(aut.canonical_id(prod), prod)
        layer = nxt
    for j in range(jmax + 1):
        if all(aut.canonical_id(aut.restrict(h, mu)) in ids
               for h in layer.values()
               for mu in paths_at(aut.graph, j, h.dom)):
            return j
    raise AssertionError(f"R_{k} exceeds {jmax}")


def test_rk_values(ex310):
    nuc = compute_nucleus(ex310)
    assert compute_Rk(nuc, 1) == 0
    assert compute_Rk(nuc, 2) == 2
    rks = [compute_Rk(nuc, k) for k in (1, 2, 3)]
    assert rks == sorted(rks)
    for k in (1, 2, 3):
        assert rk_bruteforce(nuc, k) == rks[k - 1]


def test_rk_r1_zero_everywhere(basilica):
    nuc = compute_nucleus(basilica)
    assert compute_Rk(nuc, 1) == 0


def test_contraction_witnessed_on_random_words(ex310):
    rng = random.Random(42)
    nuc = compute_nucleus(ex310)
    ids = class_index(ex310, nuc.machine)
    r2 = compute_Rk(nuc, 2)
    from test_automaton import random_element
    for _ in range(200):
        w = random_element(ex310, rng, max_len=4)
        depth_cap = 2 * r2 + 8
        frontier = {ex310.canonical_id(w): w}
        for depth in range(depth_cap + 1):
            if all(cid in ids for cid in frontier):
                break
            nxt = {}
            for g in frontier.values():
                for e in ex310.graph.range_edges(g.dom):
                    _, rw = ex310.word_act_edge(g.word, e.id)
                    r = Element(e.src, rw)
                    nxt.setdefault(ex310.canonical_id(r), r)
            frontier = nxt
        else:
            pytest.fail(f"word {w.name()} did not contract within {depth_cap}")


def test_moore_diagram_exports(ex310, basilica):
    nuc = compute_nucleus(ex310)
    data = moore_diagram(nuc, "json")
    assert data["schema"] == 1 and len(data["states"]) == 6
    a_state = next(s for s in data["states"] if s["name"] == "a")
    arcs = {(t["edge"], t["image"], data["states"][t["successor"]]["name"])
            for t in data["transitions"] if t["state"] == a_state["id"]}
    assert arcs == {("1", "4", "v"), ("2", "3", "b")}
    dot = moore_diagram(nuc, "dot")
    assert dot.startswith("digraph") and '"a"' in dot

    nucb = compute_nucleus(basilica)
    datab = moore_diagram(nucb, "json")
    assert len(datab["states"]) == 14
    ba_state = next(s for s in datab["states"] if s["name"] == "b a")
    arcs = {(t["edge"], t["image"], datab["states"][t["successor"]]["name"])
            for t in datab["transitions"] if t["state"] == ba_state["id"]}
    assert ("1", "1", "c a") in arcs


def test_unit_only_nucleus():
    g = Graph(["v"], [("0", "v", "v")])
    aut = Automaton(g, {})
    nuc = compute_nucleus(aut)
    assert isinstance(nuc, Nucleus)
    assert nuc.state_names() == ["v"]


# -- the replaced reach scan, kept as a differential oracle --------------------


def reach_scan_limit_restrictions(aut, g):
    """Class ids of g's limit restrictions, the way they were found before
    the SCC pass: a closure walk that acts words and identifies every
    successor, then a DFS reach set per node; the cyclic nodes and what
    they reach are the limit set."""
    budget = aut.bounds.max_states
    index = {aut.canonical_id(g): 0}
    order = [aut.canonical(g)]
    succ = [set()]
    for i, h in enumerate(order):
        for e in aut.graph.range_edges(h.dom):
            _, rw = aut.word_act_edge(h.word, e.id)
            cid = aut.canonical_id(Element(e.src, rw))
            if cid not in index:
                if len(order) >= budget:
                    raise ClosureLimitError(budget, "restriction closure")
                index[cid] = len(order)
                order.append(Element(e.src, rw))
                succ.append(set())
            succ[i].add(index[cid])
    reach = []
    for i in range(len(order)):
        seen, stack = set(), list(succ[i])
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                stack.extend(succ[j])
        reach.append(seen)
    keep = {i for i in range(len(order)) if i in reach[i]}
    for i in list(keep):
        keep |= reach[i]
    ids = list(index)
    return {ids[i] for i in keep}


def _pair_products(aut):
    elems = [aut.unit(v) for v in aut.graph.vertices]
    for name in sorted(aut.generators):
        elems += [aut.generator(name), aut.inverse(aut.generator(name))]
    return [aut.compose(h, g) for g in elems for h in elems if h.dom == aut.cod(g)]


def _agree_with_reach_scan(aut):
    for prod in _pair_products(aut):
        try:
            want = reach_scan_limit_restrictions(aut, prod)
        except ClosureLimitError as e:
            with pytest.raises(ClosureLimitError) as got:
                limit_restrictions(aut, prod)
            assert got.value.what == e.what
            continue
        got = limit_restrictions(aut, prod)
        assert {aut.canonical_id(x) for x in got} == want, prod.name()
        assert {x.name() for x in got} == {aut.canonical(x).name() for x in got}


@pytest.mark.parametrize("spec", sorted(p.stem for p in SPECS.glob("*.ss")))
def test_limit_restrictions_vs_reach_scan_specs(spec):
    aut = parse_spec((SPECS / f"{spec}.ss").read_text()).automaton(Bounds(max_states=200))
    _agree_with_reach_scan(aut)


def test_limit_restrictions_vs_reach_scan_random():
    from test_acceptance import _random_automaton

    rng = random.Random(7)
    checked = 0
    while checked < 40:
        aut = _random_automaton(rng)
        if aut is not None:
            _agree_with_reach_scan(aut)
            checked += 1


# -- word growth, memo bound and listing order ------------------------------------


@pytest.mark.parametrize("a, b", [
    ([[1, 2], [2, 1]], [[2, 2], [1, 1]]),
    ([[3, 2, 2], [2, 1, 3], [3, 2, 3]], [[0, 0, 2], [2, 2, 2], [1, 0, 2]]),
])
def test_katsura_word_growth_within_memo_bound(a, b):
    aut = katsura_automaton(IntMatrix.of(a), IntMatrix.of(b))
    res = compute_nucleus(aut)
    assert res == NotContractingWithinBound("restriction word growth", 10_000, 64)
    assert 0 < aut._memo.symbols <= _CACHE_SYMBOLS
    assert aut._memo.symbols == sum(n for _, n in aut._memo._order)


@pytest.mark.parametrize("spec", ["basilica", "ex310", "katsura"])
def test_nucleus_listing_independent_of_hash_seed(spec):
    # units tie in shortlex order; the listing must not depend on set order
    outs = set()
    for seed in ("0", "1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "selfsim.cli", "nucleus", "--spec", str(SPECS / f"{spec}.ss"),
             "--json"], env=env, capture_output=True, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_state_index(ex310, basilica):
    # state_index reads the class ids that reachable_closure sets; the
    # nucleus's machine, and power's, hold none
    from selfsim.automaton import reachable_closure

    for aut in (ex310, basilica):
        nuc = compute_nucleus(aut)
        assert nuc.machine.index is None is nuc.power(2).index
        for sm in (nuc.machine, nuc.power(2)):
            with pytest.raises(ValueError, match="no class ids"):
                sm.state_index(aut, nuc.states[0])
        sm = reachable_closure(aut, nuc.states)
        for i, s in enumerate(sm.states):
            assert sm.state_index(aut, s) == i
            longer = aut.compose(aut.compose(s, aut.inverse(s)), s)  # s s^-1 s = s
            assert sm.state_index(aut, longer) == i
    aa = ex310.compose(ex310.generator("b"), ex310.generator("a"))
    assert reachable_closure(ex310, compute_nucleus(ex310).states).state_index(ex310, aa) is None


def test_inverses_and_the_old_tail_agree_with_the_registry():
    # StateMachine.inverses against canonical_id(inverse(s)) on the machine
    # of S and on the nucleus of the six specs, the seeded random automata,
    # the root-order system and the first 20 Katsura nuclei; and the tail
    # compute_nucleus once ran, the registry's closure of the nucleus's
    # states, has the nucleus's states and rows and confirms its symmetry
    from selfsim.automaton import reachable_closure
    from test_dynamics import _differential_systems

    seen = {"S": 0, "nucleus": 0}
    for label, aut, nuc in _differential_systems():
        try:
            machines = [("S", reachable_closure(aut, aut.basic_elements()))]
        except ClosureLimitError:  # S grows words
            machines = []
        if nuc is not None:
            tail = reachable_closure(aut, nuc.states)
            assert (tail.states, tail.rows) == (nuc.machine.states, nuc.machine.rows), label
            machines.append(("nucleus", tail))
        for kind, sm in machines:
            want = [sm.state_index(aut, aut.inverse(s)) for s in sm.states]
            assert None not in want, label
            assert sm.inverses() == want, (label, kind)
            seen[kind] += 1
        if nuc is not None:
            assert nuc.machine.inverses() == machines[-1][1].inverses(), label
    assert seen["S"] > 60 and seen["nucleus"] > 60


def test_inverses_missing_from_a_machine(ex310):
    from selfsim.automaton import reachable_closure

    a = ex310.generator("a")
    sm = reachable_closure(ex310, [a])  # a and its restrictions, no inverse of a or b
    assert [s.name() for s in sm.states] == ["a", "v", "b", "w"]
    assert sm.inverses() == [None, 1, None, 3]
    both = reachable_closure(ex310, [a, ex310.inverse(a)])
    assert [(s.name(), both.states[j].name()) for s, j in zip(both.states, both.inverses())] == [
        ("a", "a^-1"), ("a^-1", "a"), ("v", "v"), ("b", "b^-1"), ("b^-1", "b"), ("w", "w")]


def test_nucleus_checks_closure_and_symmetry_on_its_rows(monkeypatch, odometer):
    # the rounds' limit sets replaced by hand-made ones on the odometer's S
    # (v, a, a^-1): {a} lacks a|_0 = v, and {v, a} is closed but lacks a^-1
    import selfsim.nucleus as nucleus
    from selfsim.errors import DivergedError

    def limits(names):
        return lambda sm, touch: {i for i, s in enumerate(sm.states) if s.name() in names}
    monkeypatch.setattr(nucleus, "_pair_limits", limits({"a"}))
    with pytest.raises(DivergedError, match="nucleus not closed under restriction"):
        compute_nucleus(odometer)
    monkeypatch.setattr(nucleus, "_pair_limits", limits({"v", "a"}))
    with pytest.raises(DivergedError, match="nucleus not symmetric at a$"):
        compute_nucleus(odometer)
    monkeypatch.setattr(nucleus, "_pair_limits", limits({"v", "a", "a^-1"}))
    assert compute_nucleus(odometer).state_names() == ["v", "a", "a^-1"]


# -- the replaced per-pair nucleus, kept as a differential oracle --------------


def old_compute_nucleus(aut):
    """The nucleus as it was computed before the pair machine: one
    limit_restrictions closure per composable pair, in the round loop, the
    prune and the certificate."""
    from selfsim.automaton import reachable_closure, word_key
    from selfsim.errors import DivergedError

    aut._require_valid()
    bounds = aut.bounds
    budget = bounds.max_states

    def pairs(elems):
        return [(h, g) for g in elems for h in elems if h.dom == aut.cod(g)]

    def canon_sorted(elems):
        out = {}
        for e in elems:
            cid, rep = aut._registry.lookup(e)
            out[cid] = rep
        return [aut.canonical(e) for e in sorted(out.values(),
                                                 key=lambda e: (word_key(e.word), e.dom))]

    try:
        seeds = [aut.unit(v) for v in aut.graph.vertices]
        for name in sorted(aut.generators):
            seeds.append(aut.generator(name))
            seeds.append(aut.inverse(aut.generator(name)))
        current = canon_sorted(reachable_closure(aut, seeds).states)
        fresh = list(current)
        for _round in range(bounds.max_rounds):
            added = []
            fresh_ids = {aut.canonical_id(e) for e in fresh}
            for h, g in pairs(current):
                if aut.canonical_id(h) not in fresh_ids and aut.canonical_id(g) not in fresh_ids:
                    continue
                added += limit_restrictions(aut, aut.compose(h, g))
            merged = canon_sorted(current + added)
            if len(merged) > budget:
                return NotContractingWithinBound("max_states", budget, bounds.max_rounds)
            if len(merged) == len(current):
                current = merged
                break
            old_ids = {aut.canonical_id(e) for e in current}
            fresh = [e for e in merged if aut.canonical_id(e) not in old_ids]
            current = merged
        else:
            return NotContractingWithinBound("max_rounds", budget, bounds.max_rounds)
        pruned = {}
        for h, g in pairs(current):
            for lim in limit_restrictions(aut, aut.compose(h, g)):
                cid = aut.canonical_id(lim)
                if cid not in pruned:
                    pruned[cid] = aut.canonical(lim)
        states = canon_sorted(pruned.values())
        ids = {aut.canonical_id(s) for s in states}
        for s in states:
            if aut.canonical_id(aut.inverse(s)) not in ids:
                raise DivergedError(f"nucleus not symmetric at {s.name()}")
        machine = reachable_closure(aut, states)
        if {aut.canonical_id(s) for s in machine.states} != ids:
            raise DivergedError("nucleus not closed under restriction")
        assert machine.states == states  # the nucleus's states are its machine's
        for h, g in pairs(states):
            for lim in limit_restrictions(aut, aut.compose(h, g)):
                if aut.canonical_id(lim) not in ids:
                    raise DivergedError("contracting certificate failed")
    except ClosureLimitError as e:
        return NotContractingWithinBound(e.what, budget, bounds.max_rounds)
    return Nucleus(aut, machine)


def _agree_with_old_nucleus(build, bounds=None):
    """Both nuclei, each on a fresh automaton (class representatives depend
    on the words a run has met) under ``bounds`` (by default the built
    automaton's own): the same states, machine and bound, with one
    exception.  The per-pair loop identified every transient product too,
    so it can give up on an identification budget ("bisimulation",
    "restriction closure") that the pair machine never meets; the pair
    machine may then decide, and the oracle must find the same nucleus with
    a tenfold state budget.  Returns the new result, or None where a
    certificate proves that no nucleus exists and the oracle hit a bound."""
    def fresh(bounds=bounds):
        aut = build()
        return aut if bounds is None else with_bounds(aut, bounds)
    want = old_compute_nucleus(fresh())
    aut = fresh()
    try:
        got = compute_nucleus(aut)
    except NotContractingError:  # a certificate: the oracle found no nucleus either
        assert isinstance(want, NotContractingWithinBound)
        return None
    if isinstance(want, NotContractingWithinBound):
        if want.bound_hit not in ("bisimulation", "restriction closure"):
            assert got == want
        elif isinstance(got, Nucleus):
            b = aut.bounds
            wider = old_compute_nucleus(fresh(Bounds(10 * b.max_states, b.max_rounds)))
            assert isinstance(wider, Nucleus) and wider.states == got.states
        return got
    assert isinstance(got, Nucleus)
    assert got.states == want.states
    assert got.machine.to_json() == want.machine.to_json()
    return got


@pytest.mark.parametrize("spec", sorted(p.stem for p in SPECS.glob("*.ss")))
def test_nucleus_vs_per_pair_oracle_specs(spec):
    text = (SPECS / f"{spec}.ss").read_text()
    _agree_with_old_nucleus(lambda: parse_spec(text).automaton())


def test_nucleus_vs_per_pair_oracle_random():
    # Every system runs at its own bounds (40 states, 5 rounds); the default
    # bounds and 300 states run on the systems decided there.  Undecided ones
    # that were timed doubled their classes every round, and at 300 states
    # one comparison took minutes in either implementation.
    from test_acceptance import _random_automaton

    rng = random.Random(1)
    states = []
    while len(states) < 40:
        state = rng.getstate()
        if _random_automaton(rng) is not None:
            states.append(state)
    decided = 0
    for state in states:
        def build(state=state):
            r = random.Random()
            r.setstate(state)
            return _random_automaton(r)
        if isinstance(_agree_with_old_nucleus(build), Nucleus):
            decided += 1
            _agree_with_old_nucleus(build, Bounds())
            _agree_with_old_nucleus(build, Bounds(max_states=300, max_rounds=8))
    assert 30 <= decided < 40


def test_nucleus_vs_per_pair_oracle_katsura():
    # recorded answers of 160 characters or less are stored in full; longer
    # ones, only by digest, are nucleus listings
    import hashlib
    import json

    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    recorded = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())
    systems = []
    for e in recorded["pool"]:
        want = recorded["answers"][canonical({"A": e["A"], "B": e["B"]}) + "/nucleus"]
        if want is not None and "inconclusive" not in want.get("answer", ""):
            systems.append((e["A"], e["B"], want["sha256"]))
    for a, b, digest in systems[:40]:
        nuc = _agree_with_old_nucleus(lambda: katsura_automaton(IntMatrix.of(a), IntMatrix.of(b)))
        answer = canonical({"size": len(nuc), "states": sorted(nuc.state_names())})
        assert hashlib.sha256(answer.encode()).hexdigest() == digest


def test_nucleus_makes_no_per_pair_closure(monkeypatch, ex310, basilica):
    import selfsim.nucleus as nucleus

    calls = []

    def counted(aut, g):
        calls.append(g)
        return limit_restrictions(aut, g)
    monkeypatch.setattr(nucleus, "limit_restrictions", counted)
    for aut in (ex310, basilica):
        assert isinstance(compute_nucleus(aut), Nucleus)
    assert calls == []


@pytest.mark.parametrize("spec, passes", [("basilica", 2), ("ex310", 1), ("katsura", 1),
                                          ("nonhausdorff", 1), ("odometer", 1)])
def test_nucleus_pair_passes_are_its_rounds(monkeypatch, spec, passes):
    # the nucleus is the union of the rounds' limit sets: no pass over the
    # fixpoint after the last round, and none over the finished machine
    import selfsim.nucleus as nucleus

    touched, machines = [], []
    pair_limits = nucleus._pair_limits

    def counted(sm, touch):
        touched.append(touch)
        machines.append(sm)
        return pair_limits(sm, touch)
    monkeypatch.setattr(nucleus, "_pair_limits", counted)
    nuc = compute_nucleus(parse_spec((SPECS / f"{spec}.ss").read_text()).automaton())
    assert isinstance(nuc, Nucleus)
    assert len(touched) == passes
    # round 1 scans every pair, the later rounds only those touching new states
    assert touched[0] is None
    assert all(t for t in touched[1:])
    assert all(sm is not nuc.machine for sm in machines)


def test_rescan_of_the_nucleus_finds_nothing_new():
    # the limit classes of N's pairs are exactly N's states: the all-pairs
    # pass that compute_nucleus no longer runs over its finished machine, as
    # an oracle over the 155 contracting builders and the seeded random
    # systems that have a nucleus
    import selfsim.nucleus as nucleus
    from test_acceptance import _random_automaton

    nuclei = [compute_nucleus(build()) for build in contracting_builders()]
    rng = random.Random(1)
    for _ in range(150):
        aut = _random_automaton(rng)
        if aut is None:
            continue
        bounds = Bounds(max_states=40, max_rounds=5)
        if isinstance(word_compute_nucleus(with_bounds(aut, bounds)), Nucleus):
            nuclei.append(compute_nucleus(with_bounds(aut, bounds)))
    assert len(nuclei) > 155
    for nuc in nuclei:
        assert isinstance(nuc, Nucleus)
        sm = nuc.machine.renumbered(range(len(nuc)))  # a copy, for the pass to append to
        assert nucleus._pair_limits(sm, None) == set(range(len(nuc)))
        assert len(sm) == len(nuc)


# -- the word products, kept as a differential oracle for the product step ------


def word_pair_limits(aut, sm, touch):
    """_pair_limits as it was: the class ids of the limit products, each
    identified by its word through the class registry."""
    from selfsim.graphs import limit_nodes

    n, rows, elems = len(sm), sm.rows, sm.states

    def succ(node):
        h, g = divmod(node, n)
        left = rows[h]  # h acts on the edge g.e
        return [n * left[img][1] + g2 for img, g2 in rows[g].values()]

    starts = (h * n + g for g, cod in enumerate(sm.cods) for h, dom in enumerate(sm.doms)
              if dom == cod and (touch is None or h in touch or g in touch))
    return {aut.canonical_id(aut.compose(elems[v // n], elems[v % n]))
            for v in limit_nodes(starts, succ)}


def word_compute_nucleus(aut):
    """compute_nucleus as it was before the product step: each round's limit
    products identified by their words, and S re-closed from its sorted
    class representatives every round."""
    from selfsim.automaton import reachable_closure, word_key
    from selfsim.errors import DivergedError

    aut._require_valid()
    budget, rounds = aut.bounds.max_states, aut.bounds.max_rounds

    def reps_sorted(class_ids):
        return sorted((aut._registry.reps[c] for c in class_ids),
                      key=lambda e: (word_key(e.word), e.dom))

    try:
        closure = reachable_closure(aut, aut.basic_elements())
        sm = reachable_closure(aut, reps_sorted(closure.index))
        limits, fresh = set(), None
        for _round in range(rounds):
            limits |= word_pair_limits(aut, sm, fresh)
            new = limits - sm.index.keys()
            if new:
                sm = reachable_closure(aut, reps_sorted([*sm.index, *new]))
            if len(sm) > budget:
                return NotContractingWithinBound("max_states", budget, rounds)
            if not new:
                break
            fresh = {sm.index[c] for c in new}
        else:
            return NotContractingWithinBound("max_rounds", budget, rounds)
        states = reps_sorted(limits)
        for s in states:
            if aut.canonical_id(aut.inverse(s)) not in limits:
                raise DivergedError(f"nucleus not symmetric at {s.name()}")
        machine = reachable_closure(aut, states)
        if machine.index.keys() != limits:
            raise DivergedError("nucleus not closed under restriction")
        assert machine.states == states  # the nucleus's states are its machine's
        if not word_pair_limits(aut, machine, None) <= limits:
            raise DivergedError("contracting certificate failed")
    except ClosureLimitError as e:
        return NotContractingWithinBound(e.what, budget, rounds)
    return Nucleus(aut, machine)


def nucleus_unless_certified(aut):
    """compute_nucleus(aut), or where a certificate proves that no nucleus
    exists, the word oracle's result on a fresh automaton, which must be a
    bound: loops that pass over bounded results pass over these, checked."""
    try:
        return compute_nucleus(aut)
    except NotContractingError:
        want = word_compute_nucleus(with_bounds(aut, aut.bounds))
        assert isinstance(want, NotContractingWithinBound)
        return want


def recorded_katsura_nuclei():
    """(A, B) of every Katsura system with a recorded nucleus."""
    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    recorded = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())
    out = []
    for e in recorded["pool"]:
        want = recorded["answers"][canonical({"A": e["A"], "B": e["B"]}) + "/nucleus"]
        if want is not None and "inconclusive" not in want.get("answer", ""):
            out.append((IntMatrix.of(e["A"]), IntMatrix.of(e["B"])))
    return out


def contracting_builders():
    """Builders of fresh automata: the five contracting specs, then the 150
    recorded Katsura nuclei."""
    specs = [(SPECS / f"{s}.ss").read_text()
             for s in ("basilica", "ex310", "katsura", "nonhausdorff", "odometer")]
    return ([lambda text=text: parse_spec(text).automaton() for text in specs]
            + [lambda a=a, b=b: katsura_automaton(a, b) for a, b in recorded_katsura_nuclei()])


@pytest.mark.parametrize("pass_starts", [None, 1])
def test_moore_json_vs_word_products(monkeypatch, pass_starts):
    # pass_starts 1 scans the pairs of one state per pass, so later passes
    # meet the classes that earlier passes of the round appended
    import selfsim.nucleus as nucleus

    if pass_starts is not None:
        monkeypatch.setattr(nucleus, "_PASS_STARTS", pass_starts)
    builders = contracting_builders()
    assert len(builders) == 155
    for build in builders:
        want = word_compute_nucleus(build())
        got = compute_nucleus(build())
        assert isinstance(want, Nucleus) and isinstance(got, Nucleus)
        assert json.dumps(moore_diagram(got, "json")) == json.dumps(moore_diagram(want, "json"))
        assert got.states == want.states


@pytest.mark.parametrize("pass_starts", [None, 1])
def test_word_oracle_agrees_on_random_systems(monkeypatch, pass_starts):
    # seeded random systems at 40 states and 5 rounds.  Where the word
    # products gave up comparing two words ("bisimulation"), a budget that
    # identification on the rows never meets, the rounds run on to their
    # own state bound, or find the nucleus the words find at 400 states.
    import selfsim.nucleus as nucleus
    from test_acceptance import _random_automaton

    if pass_starts is not None:
        monkeypatch.setattr(nucleus, "_PASS_STARTS", pass_starts)
    rng = random.Random(1)
    seen = []
    for _ in range(150):  # a certificate answers the first systems that hit a bound
        aut = _random_automaton(rng)
        if aut is None:
            continue
        bounds = Bounds(max_states=40, max_rounds=5)
        want = word_compute_nucleus(with_bounds(aut, bounds))
        try:
            got = compute_nucleus(with_bounds(aut, bounds))
        except NotContractingError:
            assert isinstance(want, NotContractingWithinBound)
            seen.append("certificate")
            continue
        if isinstance(want, Nucleus):
            assert moore_diagram(got, "json") == moore_diagram(want, "json")
        elif want.bound_hit == "bisimulation" and isinstance(got, Nucleus):
            wider = word_compute_nucleus(with_bounds(aut, Bounds(max_states=400, max_rounds=5)))
            assert moore_diagram(got, "json") == moore_diagram(wider, "json")
        elif want.bound_hit == "bisimulation":
            assert got == NotContractingWithinBound("max_states", 40, 5)
        else:
            assert got == want
        seen.append(want.bound_hit if isinstance(want, NotContractingWithinBound) else "nucleus")
    assert {"nucleus", "max_states", "bisimulation", "certificate"} <= set(seen)


def test_products_read_no_registry(monkeypatch):
    # compute_nucleus runs one restriction closure, S, and makes no class
    # lookup after it: the nucleus is checked closed and symmetric on its
    # machine's rows; power and compute_Rk make none either
    import selfsim.nucleus as nucleus
    from selfsim.automaton import _Registry, reachable_closure

    lookup = _Registry.lookup
    calls = {"closures": 0, "lookups": 0}

    def counted(self, g):
        calls["lookups"] += 1
        return lookup(self, g)

    def closure(aut, seeds):  # the lookups counted are those after a closure
        sm = reachable_closure(aut, seeds)
        calls.update(closures=calls["closures"] + 1, lookups=0)
        return sm
    monkeypatch.setattr(_Registry, "lookup", counted)
    monkeypatch.setattr(nucleus, "reachable_closure", closure)
    for i, build in enumerate(contracting_builders()):
        aut = build()
        calls.update(closures=0, lookups=0)
        nuc = compute_nucleus(aut)
        assert calls == {"closures": 1, "lookups": 0}
        k = 4 if i < 5 else 3
        nuc.power(k)
        compute_Rk(nuc, k)
        assert calls == {"closures": 1, "lookups": 0}
    # the counter sees lookups: S's own
    calls.update(lookups=0)
    reachable_closure(aut, aut.basic_elements())
    assert calls["lookups"] > 0


def test_power_independent_of_lookup_history():
    # a class's representative can shrink after it is first read; power reads
    # the nucleus's machine only, so earlier lookups on the automaton do not
    # reorder or rename its states
    a, b = IntMatrix.of([[3, 2, 2], [1, 0, 1], [3, 3, 3]]), IntMatrix.of([[1, 0, 1], [2, 0, 2], [2, 1, 1]])
    fresh = compute_nucleus(katsura_automaton(a, b))
    used = compute_nucleus(katsura_automaton(a, b))
    old_unstable_element_pool(used)  # registers every product of two nucleus states
    assert fresh.power(2) == used.power(2)


# -- the dict-table export, kept as a differential oracle ----------------------


def old_moore_exports(nuc):
    """moore_diagram's JSON and DOT as they were when a StateMachine held
    dicts keyed by (state, edge): the closure of the nucleus states walked
    on the class rows, with the transitions sorted over those keys."""
    aut = nuc.automaton
    registry = aut._registry
    order = list(dict.fromkeys(aut.canonical_id(s) for s in nuc.states))
    index = {c: i for i, c in enumerate(order)}
    action, successor = {}, {}
    for i, cid in enumerate(order):
        for eid, img, succ in registry.row(cid):
            if succ not in index:
                index[succ] = len(order)
                order.append(succ)
            action[(i, eid)] = img
            successor[(i, eid)] = index[succ]
    states = [registry.reps[c] for c in order]
    doc = {"schema": 1,
           "states": [{"id": i, "name": s.name(), "dom": s.dom, "cod": aut.cod(s),
                       "unit": s.is_unit} for i, s in enumerate(states)],
           "transitions": [{"state": i, "edge": e, "image": action[(i, e)],
                            "successor": successor[(i, e)]} for (i, e) in sorted(action)],
           "kind": "nucleus-moore-diagram"}
    lines = ["digraph nucleus {"]
    for i, s in enumerate(states):
        shape = "doublecircle" if s.is_unit else "circle"
        lines.append(f'  n{i} [label="{s.name()}", shape={shape}];')
    for (i, e) in sorted(action):
        lines.append(f'  n{i} -> n{successor[(i, e)]} [label="{e}/{action[(i, e)]}"];')
    lines.append("}")
    return json.dumps(doc), "\n".join(lines)


def _assert_export_matches_dict_tables(nuc):
    new = json.dumps(moore_diagram(nuc, "json")), moore_diagram(nuc, "dot")
    assert new == old_moore_exports(nuc)


def test_moore_export_vs_dict_tables_specs():
    decided = []
    for path in sorted(SPECS.glob("*.ss")):
        nuc = compute_nucleus(parse_spec(path.read_text()).automaton())
        if isinstance(nuc, Nucleus):
            _assert_export_matches_dict_tables(nuc)
            decided.append(path.stem)
    assert decided == ["basilica", "ex310", "katsura", "nonhausdorff", "odometer"]


def test_moore_export_vs_dict_tables_katsura():
    # every recorded Katsura nucleus, checked against its recorded digest
    import hashlib

    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    recorded = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())
    checked = 0
    for e in recorded["pool"]:
        want = recorded["answers"][canonical({"A": e["A"], "B": e["B"]}) + "/nucleus"]
        if want is None or "inconclusive" in want.get("answer", ""):
            continue
        nuc = compute_nucleus(katsura_automaton(IntMatrix.of(e["A"]), IntMatrix.of(e["B"])))
        answer = canonical({"size": len(nuc), "states": sorted(nuc.state_names())})
        assert hashlib.sha256(answer.encode()).hexdigest() == want["sha256"]
        _assert_export_matches_dict_tables(nuc)
        checked += 1
    assert checked == 150


# -- the frontier walk and the N u N^2 pool, kept as oracles for Nucleus.power --


def old_compute_Rk(nuc, k, max_depth=256):
    """compute_Rk as it was: the products of k nucleus states as class ids,
    each walked on the class rows depth by depth until its whole frontier
    lies in the nucleus."""
    from selfsim.errors import DivergedError

    aut = nuc.automaton
    ids = class_index(aut, nuc.machine)
    level = {aut.canonical_id(s): s for s in nuc.states}
    for _ in range(k - 1):
        nxt = {}
        for g in level.values():
            for s in nuc.states:
                if s.dom == aut.cod(g):
                    prod = aut.compose(s, g)
                    nxt.setdefault(aut.canonical_id(prod), aut.canonical(prod))
        level = nxt
    best = 0
    for cid in level:
        frontier = {cid}
        depth = 0
        while not frontier <= ids.keys():
            if depth > max_depth:
                raise DivergedError(f"R_{k} scan exceeded depth {max_depth}")
            frontier = {succ for c in frontier for _, _, succ in aut._registry.row(c)}
            depth += 1
        best = max(best, depth)
    return best


def scc_compute_Rk(nuc, k):
    """compute_Rk as it was before the level walk: one Tarjan pass over the
    machine of N^k, a nucleus state at depth 0, any other at 1 + the largest
    depth of its successors, and R_k the largest depth."""
    from selfsim.errors import DivergedError
    from selfsim.graphs import strongly_connected_components

    sm = nuc.power(k)
    succ = [[j for _, j in row.values()] for row in sm.rows]
    nucleus = set(nuc.states)
    inside = {i for i, s in enumerate(sm.states) if s in nucleus}
    depth = [0] * len(sm)
    for comp in strongly_connected_components(range(len(sm)), succ.__getitem__):
        for i in comp:
            if i in inside:
                continue
            if len(comp) > 1 or i in succ[i]:
                raise DivergedError(f"R_{k}: {sm.states[i].name()} lies on a cycle "
                                    "of restrictions outside the nucleus")
            depth[i] = 1 + max((depth[j] for j in succ[i]), default=0)
    return max(depth)


def old_unstable_element_pool(nuc):
    """The machine of the smallest restriction-closed set containing N and
    N^2, as dynamics built it for unstable_equivalent."""
    from selfsim.automaton import reachable_closure, word_key

    aut = nuc.automaton
    seeds = {aut.canonical_id(s): s for s in nuc.states}
    for g in nuc.states:
        for h in nuc.states:
            if h.dom == aut.cod(g):
                prod = aut.compose(h, g)
                seeds.setdefault(aut.canonical_id(prod), aut.canonical(prod))
    return reachable_closure(aut, sorted(seeds.values(), key=lambda e: word_key(e.word)))


def _agree_with_power_oracles(build, ks):
    """compute_Rk for k in ks and nuc.power(2) against the oracles, each on
    its own fresh automaton from ``build``.  The pool is renumbered by its
    final representatives in (word_key, dom) order, as its seed order sorted
    representatives as first found, which later lookups can shrink."""
    from selfsim.automaton import word_key

    nuc, was = compute_nucleus(build()), compute_nucleus(build())
    new, old = shortlex_power(nuc, 2), old_unstable_element_pool(was)
    old = old.renumbered(sorted(range(len(old)), key=lambda i: (word_key(old.states[i].word),
                                                                old.doms[i])))
    assert (new.states, new.rows) == (old.states, old.rows)
    rks = [compute_Rk(nuc, k) for k in ks]
    assert rks == [old_compute_Rk(was, k) for k in ks] == [scc_compute_Rk(nuc, k) for k in ks]
    return rks


@pytest.mark.parametrize("spec", ["basilica", "ex310", "katsura", "nonhausdorff", "odometer"])
def test_rk_and_pool_vs_oracles_specs(spec):
    text = (SPECS / f"{spec}.ss").read_text()
    _agree_with_power_oracles(lambda: parse_spec(text).automaton(), (1, 2, 3, 4))


def test_rk_vs_component_pass_specs():
    # basilica's R_5 is 6 over the 3,540 states of N^5, the deepest walk
    got = {}
    for spec in ("basilica", "ex310", "katsura", "nonhausdorff", "odometer"):
        nuc = compute_nucleus(parse_spec((SPECS / f"{spec}.ss").read_text()).automaton())
        got[spec] = [compute_Rk(nuc, k) for k in range(1, 6)]
        assert got[spec] == [scc_compute_Rk(nuc, k) for k in range(1, 6)]
    assert got["basilica"][4] == 6


def test_rk_on_hand_made_powers(monkeypatch, basilica):
    # the machine of N^k replaced by hand-made ones over a one-state
    # nucleus: state 0 is the nucleus, and every state maps the edge "e" to
    # itself
    from selfsim.automaton import StateMachine
    from selfsim.errors import DivergedError

    names = compute_nucleus(basilica).states[:3]
    nuc = Nucleus(basilica, StateMachine([names[0]], [names[0].dom], [names[0].dom], [{}]))

    def power(successors):
        n = len(successors)
        return StateMachine(states=list(names[:n]), doms=[names[0].dom] * n,
                            cods=[names[0].dom] * n, rows=[{"e": ("e", j)} for j in successors])
    # states 1 and 2 restrict to each other: a cycle of restrictions outside N
    monkeypatch.setattr(Nucleus, "power", lambda self, k: power([0, 2, 1]))
    with pytest.raises(DivergedError) as new:
        compute_Rk(nuc, 2)
    with pytest.raises(DivergedError) as old:
        scc_compute_Rk(nuc, 2)
    assert f"R_2: {names[1].name()} " in str(new.value)  # the least state outside N
    assert any(f"R_2: {s.name()} " in str(old.value) for s in names[1:])
    # the chain 2 -> 1 -> 0 enters N after two edges
    monkeypatch.setattr(Nucleus, "power", lambda self, k: power([0, 0, 1]))
    assert compute_Rk(nuc, 2) == scc_compute_Rk(nuc, 2) == 2


def test_rk_and_pool_vs_oracles_katsura():
    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    recorded = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())
    checked = deep = 0
    for e in recorded["pool"]:
        want = recorded["answers"][canonical({"A": e["A"], "B": e["B"]}) + "/nucleus"]
        if want is None or "inconclusive" in want.get("answer", ""):
            continue
        a, b = IntMatrix.of(e["A"]), IntMatrix.of(e["B"])
        deep += _agree_with_power_oracles(lambda: katsura_automaton(a, b), (1, 2))[1] > 0
        checked += 1
    assert checked == 150 and deep > 0


def test_rk_random_vs_frontier_walk():
    # seeded small automata; about a sixth of such nuclei miss the unit at some vertex
    from test_acceptance import _random_automaton

    rng = random.Random(8)
    checked = 0
    while checked < 60:
        aut = _random_automaton(rng)
        nuc = nucleus_unless_certified(aut) if aut is not None else None
        if not isinstance(nuc, Nucleus):
            continue
        try:
            want = [old_compute_Rk(nuc, k) for k in (1, 2, 3)]
        except ClosureLimitError:
            continue
        assert [compute_Rk(nuc, k) for k in (1, 2, 3)] == want
        assert [scc_compute_Rk(nuc, k) for k in (1, 2, 3)] == want
        checked += 1


# -- the non-contraction certificate ------------------------------------------------


def verify_certificate(aut, cert):
    """Re-verify a NotContracting certificate by words alone: c fixes mu with
    c|_mu = c, each link's x^k moves e around an orbit of length k and
    restricts there to the next link's state, and the chain closes a cycle
    whose orbit lengths multiply past 1.  The words are compared on a fresh
    automaton under the default bounds."""
    from math import prod

    aut = with_bounds(aut, Bounds())
    c, graph = cert.state, aut.graph
    mu = Path.of(graph, cert.cycle)
    assert not c.is_unit and aut.act(c, mu) == mu and aut.equal(aut.restrict(c, mu), c)
    assert aut.equal(cert.chain[0][0], c)
    for i, (x, k, e, y) in enumerate(cert.chain):
        edge, power = Path.of(graph, [e]), x
        for j in range(1, k):
            assert aut.act(power, edge) != edge
            power = aut.compose(x, power)
        assert aut.act(power, edge) == edge and aut.equal(aut.restrict(power, edge), y)
        assert i + 1 == len(cert.chain) or aut.equal(y, cert.chain[i + 1][0])
    start = next(i for i, (x, *_) in enumerate(cert.chain) if aut.equal(x, cert.chain[-1][3]))
    assert prod(k for _, k, _, _ in cert.chain[start:]) > 1


def ladder_hangs():
    """The Katsura systems katsura-ladder runs that hit the nucleus deadline
    when they were recorded: the Katsura 3x3 and the first recorded hung
    system of each size 2 and 3."""
    def canonical(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    recorded = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())
    hung = [e for e in recorded["pool"] if e["nucleus_ms"] is None]
    systems = [([[3, 1, 1], [1, 3, 1], [1, 1, 3]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]])]
    systems += [next((e["A"], e["B"]) for e in hung if len(e["A"]) == n) for n in (2, 3)]
    assert all(recorded["answers"][canonical({"A": a, "B": b}) + "/nucleus"] is None
               for a, b in systems)
    return systems


def test_certificate_decides_the_ladder_hangs():
    import time

    from selfsim.errors import NotContractingError

    for a, b in ladder_hangs():
        aut = katsura_automaton(IntMatrix.of(a), IntMatrix.of(b))
        start = time.perf_counter()
        with pytest.raises(NotContractingError) as caught:
            compute_nucleus(aut)
        assert time.perf_counter() - start < 0.01
        verify_certificate(aut, caught.value.certificate)


def test_certificate_adds_no_arc_past_max_states():
    # below |S| states the search on S adds no arc, finds nothing, and the
    # first round ends at the state bound, as the rounds did without it
    from selfsim.automaton import reachable_closure

    for a, b in ladder_hangs():
        aut = katsura_automaton(IntMatrix.of(a), IntMatrix.of(b))
        size = len(reachable_closure(aut, aut.basic_elements()))
        tight = with_bounds(aut, Bounds(max_states=size - 1))
        assert compute_nucleus(tight) == NotContractingWithinBound("max_states", size - 1, 64)


def test_certificate_never_fires_on_a_nucleus():
    # the 155 contracting systems and 1,000 seeded random automata at 40
    # states and 5 rounds: where the word oracle finds a nucleus, so does
    # compute_nucleus; every certificate holds by words, and there the
    # oracle hit a bound
    from selfsim.errors import NotContractingError
    from test_acceptance import _random_automaton

    for build in contracting_builders():
        assert isinstance(compute_nucleus(build()), Nucleus)
    rng = random.Random(19)
    seen = {"nucleus": 0, "certificate": 0, "bound": 0}
    while sum(seen.values()) < 1000:
        aut = _random_automaton(rng)
        if aut is None:
            continue
        want = word_compute_nucleus(with_bounds(aut, aut.bounds))
        try:
            got = compute_nucleus(aut)
        except NotContractingError as e:
            assert isinstance(want, NotContractingWithinBound)
            verify_certificate(aut, e.certificate)
            seen["certificate"] += 1
            continue
        assert isinstance(got, Nucleus) or not isinstance(want, Nucleus)
        seen["nucleus" if isinstance(got, Nucleus) else "bound"] += 1
    assert all(seen.values()), seen


# -- the DFS cycle search, kept as an oracle for the certificate's cycle --


def find_cycle_non_contraction(sm, limit):
    """_non_contraction as it was: each component's cycle found by the
    depth-first find_cycle from the state Tarjan lists first."""
    from selfsim.graphs import strongly_connected_components
    from selfsim.nucleus import NotContracting, _order_chain
    from test_graphs import find_cycle

    states, work = sm.states, None
    fixed = [[(e, j) for e, (img, j) in row.items() if img == e and not states[j].is_unit]
             for row in sm.rows]
    starts = [i for i, arcs in enumerate(fixed) if arcs]
    for comp in strongly_connected_components(starts, lambda i: [j for _, j in fixed[i]]):
        inside = set(comp)
        found = find_cycle(comp[:1], lambda i: [(e, j) for e, j in fixed[i] if j in inside])
        if found is None:
            continue
        if work is None:
            work = sm.renumbered(range(len(sm)))
        chain = _order_chain(work, found[0][0], limit)
        if chain:
            return NotContracting(states[found[0][0]], tuple(found[1]), chain)
    return None


def test_certificate_cycles_vs_find_cycle():
    # every Katsura system of the ladder's pool whose S closes within 1,000
    # states: the same certificate, or None, as the depth-first cycle gave
    import selfsim.nucleus as nucleus
    from selfsim.automaton import reachable_closure

    recorded = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())
    certificates = 0
    for entry in recorded["pool"]:
        aut = with_bounds(katsura_automaton(IntMatrix.of(entry["A"]), IntMatrix.of(entry["B"])),
                          Bounds(max_states=1000))
        try:
            sm = reachable_closure(aut, aut.basic_elements())
        except ClosureLimitError:
            continue
        got, want = nucleus._non_contraction(sm, 256), find_cycle_non_contraction(sm, 256)
        assert (got and got.as_dict()) == (want and want.as_dict()), entry
        certificates += want is not None
    assert certificates == 43


# -- the per-factor product fold, kept as an oracle for the order chain's powers --


def fold_order_chain(sm, c, limit):
    """_order_chain as it was: x^k|_e folded factor by factor from x's
    restrictions along e's orbit, its unit factors left out, each product
    the pair nodes one start reaches, identified by _product."""
    from selfsim.graphs import bfs, bfs_labels, rho, strongly_connected_components
    from selfsim.nucleus import _PairSucc, _product

    def multiply(start):
        pairs = _PairSucc(sm)
        nodes = bfs([start], lambda v: ((None, w) for w in pairs[v]))
        return _product(sm, [v for v, _ in nodes], pairs)[start]

    links = {}

    def arcs(x):
        out = links[x] = []
        row = sm.rows[x]
        for e in row if len(sm) <= limit else ():
            orbit = rho(e, lambda f: row[f][0])[0]
            # x^k|_e = x|_{x^(k-1).e} ... x|_{x.e} x|_e, its unit factors left out
            factors = [row[f][1] for f in orbit if not sm.states[row[f][1]].is_unit]
            y = factors[0] if factors else None
            for r in factors[1:]:
                y = multiply(r * len(sm) + y)
            if y is not None and not sm.states[y].is_unit:
                out.append(((x, len(orbit), e), y))
        return out

    def succ(x):
        return links.get(x, ())

    def closed(parent):
        comps = strongly_connected_components([c], lambda x: [y for _, y in succ(x)])
        comp = {x: i for i, xs in enumerate(comps) for x in xs}
        hit = next(((link, y) for x in links for link, y in links[x]
                    if link[1] > 1 and comp[x] == comp[y]), None)
        if hit is None:
            return None
        (u, _, _), w = hit
        back = next(p for x, p in bfs([w], succ) if x == u)
        path = [*bfs_labels(parent, u), hit[0], *bfs_labels(back, u)]
        ends = [x for x, _, _ in path[1:]] + [u]
        return tuple((sm.states[x], k, e, sm.states[y]) for (x, k, e), y in zip(path, ends))
    for n, (_, parent) in enumerate(bfs([c], arcs)):
        if n & (n - 1) == 0 and (chain := closed(parent)):
            return chain
    return closed(parent)


PINNED = ([[2, 3], [2, 3]], [[2, 2], [2, 0]])  # an order chain that never closes


def test_order_chain_powers_vs_product_fold(monkeypatch):
    # the same certificate, or None, at 256 states: on the Katsura 3x3 and
    # every recorded hung Katsura system where the fold finds one at 32
    # states, on the five contracting specs, and on the pinned system,
    # which the fold walks in about 0.2 s
    import selfsim.nucleus as nucleus
    from selfsim.automaton import reachable_closure

    def certificates(machines):
        return [None if p is None else p.as_dict()
                for p in (nucleus._non_contraction(sm, 256) for sm in machines)]

    recorded = json.loads((ROOT / "bench" / "expected" / "katsura-ladder.json").read_text())
    hung = [(e["A"], e["B"]) for e in recorded["pool"] if e["nucleus_ms"] is None]
    monkeypatch.setattr(nucleus, "_order_chain", fold_order_chain)
    machines = []
    for a, b in [ladder_hangs()[0], *hung]:
        aut = with_bounds(katsura_automaton(IntMatrix.of(a), IntMatrix.of(b)), Bounds(max_states=16))
        try:
            sm = reachable_closure(aut, aut.basic_elements())
        except ClosureLimitError:
            continue
        if nucleus._non_contraction(sm, 32) is not None:
            machines.append(sm)
    assert len(machines) == 44
    specs = [parse_spec((SPECS / f"{s}.ss").read_text()).automaton()
             for s in ("basilica", "ex310", "katsura", "nonhausdorff", "odometer")]
    for aut in [*specs, katsura_automaton(*map(IntMatrix.of, PINNED))]:
        machines.append(reachable_closure(aut, aut.basic_elements()))
    want = certificates(machines)
    assert None not in want[:44] and want[44:] == [None] * 6
    monkeypatch.undo()
    assert certificates(machines) == want


def test_order_chain_refinements_on_the_pinned_system(monkeypatch):
    # work, not time: the powers of each explored state take at most 24
    # Moore refinements at 256 states, where the per-factor fold took 69
    import selfsim.nucleus as nucleus
    from selfsim.automaton import reachable_closure

    calls = []
    product = nucleus._product

    def counted(sm, nodes, pairs):
        calls.append(len(nodes))
        return product(sm, nodes, pairs)
    aut = katsura_automaton(*map(IntMatrix.of, PINNED))
    sm = reachable_closure(aut, aut.basic_elements())
    monkeypatch.setattr(nucleus, "_product", counted)
    assert nucleus._non_contraction(sm, 256) is None
    assert 0 < len(calls) <= 24
