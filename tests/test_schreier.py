import random
import warnings
from dataclasses import dataclass
from pathlib import Path as FsPath

import pytest

from selfsim.automaton import Automaton, reachable_closure, word_key
from selfsim.errors import VertexNotInLevelError
from selfsim.graphs import Path, enumerate_paths
from selfsim.infinite_paths import LeftInfinitePath
from selfsim.nucleus import compute_nucleus
from selfsim.schreier import (
    build_schreier,
    default_generating_set,
    distance_profile,
    geodesic_distance,
    project_psi,
)
from selfsim.specfile import parse_spec

from conftest import build_basilica, class_index, paths_at
from test_dynamics import random_left_path

SPECS = FsPath(__file__).resolve().parent.parent / "specs"


@pytest.fixture(scope="module")
def gens310(ex310):
    return default_generating_set(ex310)


@pytest.fixture(scope="module")
def nuc310(ex310):
    return compute_nucleus(ex310)


def vname(gamma, i):
    p = gamma.vertices[i]
    return "".join(p.edges) if p.edges else p.base


def undirected_by_name(gamma):
    out = {}
    for (u, v), labels in gamma.undirected_edges().items():
        out[tuple(sorted((vname(gamma, u), vname(gamma, v))))] = labels
    return out


def is_cycle_with_unit_loops(aut, gamma):
    """Single cycle over all vertices plus a unit loop at each vertex."""
    g = aut.graph
    unit_names = set(g.vertices)
    loops = {}
    plain = {}
    for (u, v), labels in gamma.undirected_edges().items():
        if u == v:
            loops[u] = labels
        else:
            plain[(u, v)] = labels
    if set(loops) != set(range(len(gamma.vertices))):
        return False
    if not all(set(labels) <= unit_names for labels in loops.values()):
        return False
    deg = {i: 0 for i in range(len(gamma.vertices))}
    for (u, v) in plain:
        deg[u] += 1
        deg[v] += 1
    if not all(d == 2 for d in deg.values()):
        return False
    return gamma.is_connected() and len(plain) == len(gamma.vertices)


def test_gamma1_matches_figure(ex310, gens310):
    gamma = build_schreier(ex310, gens310, 1)
    named = undirected_by_name(gamma)
    assert named[("1", "4")] == ("a",)
    assert named[("2", "3")] == ("a",)
    assert named[("1", "3")] == ("b",)
    assert named[("2", "4")] == ("b",)
    assert named[("1", "1")] == ("v",)
    assert named[("2", "2")] == ("v",)
    assert named[("3", "3")] == ("w",)
    assert named[("4", "4")] == ("w",)
    assert len(named) == 8


def test_gamma0(ex310, gens310):
    gamma = build_schreier(ex310, gens310, 0)
    assert [p.base for p in gamma.vertices] == ["v", "w"]
    named = undirected_by_name(gamma)
    # a joins the empty paths at v and w; units give loops
    assert named[("v", "w")] == ("a", "b")
    assert named[("v", "v")] == ("v",)
    assert named[("w", "w")] == ("w",)


def test_gamma_n_is_doubling_cycle(ex310, gens310):
    for n in range(1, 8):
        gamma = build_schreier(ex310, gens310, n)
        assert len(gamma.vertices) == 2 ** (n + 1)
        assert is_cycle_with_unit_loops(ex310, gamma)


def test_psi_vertexmap_and_labels(ex310, gens310):
    gamma2 = build_schreier(ex310, gens310, 2)
    proj, morphism = project_psi(gamma2)
    # the a-edge 24 -- 32 maps to the b-edge 4 -- 2
    entries = {src: dst for (src, dst) in morphism.arc_map}
    idx2 = {vname(gamma2, i): i for i in range(len(gamma2.vertices))}
    idx1 = {vname(proj, i): i for i in range(len(proj.vertices))}
    hits = [dst for (u, v, lab), dst in entries.items()
            if lab == "a" and {vname(gamma2, u), vname(gamma2, v)} == {"24", "32"}]
    assert hits
    for (pu, pv, plab) in hits:
        assert plab == "b"
        assert {vname(proj, pu), vname(proj, pv)} == {"4", "2"}


def test_psi_is_morphism_onto_lower_level(ex310, gens310):
    gamma2 = build_schreier(ex310, gens310, 2)
    gamma1 = build_schreier(ex310, gens310, 1)
    proj, _ = project_psi(gamma2)
    lower = undirected_by_name(gamma1)
    for pair, labels in undirected_by_name(proj).items():
        assert pair in lower
        assert set(labels) <= set(lower[pair])


def test_psi_unit_loops_map_to_unit_loops(ex310, gens310):
    gamma = build_schreier(ex310, gens310, 3)
    proj, morphism = project_psi(gamma)
    unit_names = set(ex310.graph.vertices)
    for (u, v, lab), (pu, pv, plab) in morphism.arc_map:
        if u == v and lab in unit_names:
            assert pu == pv and plab in unit_names


def test_psi_composition_two_steps(ex310, gens310):
    gamma3 = build_schreier(ex310, gens310, 3)
    proj2, m3 = project_psi(gamma3)
    proj1, m2 = project_psi(proj2)
    # composing the vertex maps equals dropping the first two edges
    for i, p in enumerate(gamma3.vertices):
        j = m2.vertex_map[m3.vertex_map[i]]
        assert proj1.vertices[j].edges == p.edges[2:]


def test_geodesic_distances(ex310, gens310):
    gamma2 = build_schreier(ex310, gens310, 2)
    v0 = gamma2.vertices[0]
    assert geodesic_distance(gamma2, v0, v0) == 0
    # antipodal vertices on the 8-cycle sit at distance 4
    dists = []
    for p in gamma2.vertices:
        d = geodesic_distance(gamma2, v0, p)
        assert d is not None
        dists.append(d)
    assert max(dists) == 4
    with pytest.raises(VertexNotInLevelError):
        geodesic_distance(gamma2, Path.of(ex310.graph, ["1"]), v0)


def test_geodesic_unreachable():
    from selfsim.automaton import Automaton
    from selfsim.graphs import Graph

    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    aut = Automaton(g, {})  # units only: no orbit edges between distinct paths
    gamma = build_schreier(aut, default_generating_set(aut), 1)
    p0, p1 = gamma.vertices
    assert geodesic_distance(gamma, p0, p1) is None


def test_vertex_count_is_path_count(ex310, gens310):
    for n in range(0, 6):
        gamma = build_schreier(ex310, gens310, n)
        assert len(gamma.vertices) == len(enumerate_paths(ex310.graph, n))


def test_distance_profile_zero_on_equal(ex310, gens310):
    x = LeftInfinitePath.make(ex310.graph, ["2", "3"], [])
    prof = distance_profile(ex310, x, x, 8, gen_set=gens310)
    assert prof == [0] * 8


def test_distance_profile_vs_ae(ex310, gens310, nuc310):
    from selfsim.dynamics import ae_equivalent

    rng = random.Random(83)
    bound = 1  # every nucleus element is a single generator symbol or unit
    checked_eq = checked_ne = 0
    while checked_eq < 12 or checked_ne < 12:
        x = random_left_path(ex310, rng)
        y = random_left_path(ex310, rng)
        prof = distance_profile(ex310, x, y, 12, gen_set=gens310)
        if ae_equivalent(x, y, nuc310)[0]:
            checked_eq += 1
            assert all(d is not None and d <= bound for d in prof)
        else:
            checked_ne += 1
            assert any(d is None or d > bound for d in prof)


def test_exports(ex310, gens310):
    gamma = build_schreier(ex310, gens310, 1)
    dot = gamma.to_dot()
    assert dot.startswith("graph schreier_level_1") and '"a"' in dot
    data = gamma.to_json()
    assert data["schema"] == 1
    assert len(data["vertices"]) == 4


# -- the per-vertex Schreier code, kept as a differential oracle -----------------
#
# build_schreier, project_psi and undirected_edges as they were before the
# level tables: every vertex is acted on with Automaton.act, psi restricts
# every label along the dropped edge.  The graphs are plain lists.


@dataclass
class OracleGraph:
    level: int
    automaton: Automaton
    gen_set: list
    vertices: list
    arcs: list  # (mu index, (a.mu) index, label element)


def oracle_build_schreier(aut, gen_set, n):
    closed = {aut.canonical_id(a): aut.canonical(a) for a in gen_set}
    closure = reachable_closure(aut, list(closed.values()))
    labels = [aut.canonical(s) for s in closure.states]
    for a in list(labels):
        inv = aut.inverse(a)
        if aut.canonical_id(inv) not in {aut.canonical_id(x) for x in labels}:
            labels.append(aut.canonical(inv))
    labels.sort(key=lambda e: word_key(e.word))
    vertices = enumerate_paths(aut.graph, n)
    index = {(p.base, p.edges): i for i, p in enumerate(vertices)}
    arcs = []
    seen = set()
    for a in labels:
        for i, mu in enumerate(vertices):
            if mu.r(aut.graph) != a.dom:
                continue
            nu = aut.act(a, mu)
            j = index[(nu.base, nu.edges)]
            key = (i, j, aut.canonical_id(a))
            if key not in seen:
                seen.add(key)
                arcs.append((i, j, a))
    return OracleGraph(n, aut, labels, vertices, arcs)


def oracle_project_psi(gamma):
    aut = gamma.automaton
    graph = aut.graph
    lower = enumerate_paths(graph, gamma.level - 1)
    lower_index = {(p.base, p.edges): i for i, p in enumerate(lower)}

    def drop_first(p):
        rest = p.edges[1:]
        if not rest:
            return Path.empty(graph.s(p.edges[0]))
        return Path(graph.r(rest[0]), rest)

    vmap = {}
    for i, p in enumerate(gamma.vertices):
        q = drop_first(p)
        vmap[i] = lower_index[(q.base, q.edges)]
    arcs = []
    arc_map = []
    seen = set()
    for (u, v, label) in gamma.arcs:
        e = gamma.vertices[u].edges[0]
        restricted = aut.canonical(aut.restrict(label, Path.of(graph, [e])))
        pu, pv = vmap[u], vmap[v]
        key = (pu, pv, aut.canonical_id(restricted))
        if key not in seen:
            seen.add(key)
            arcs.append((pu, pv, restricted))
        arc_map.append(((u, v, aut.canonical(label).name()), (pu, pv, restricted.name())))
    return OracleGraph(gamma.level - 1, aut, gamma.gen_set, lower, arcs), vmap, arc_map


def oracle_undirected_edges(gamma):
    aut = gamma.automaton
    out = {}
    for (u, v, label) in gamma.arcs:
        a, b = (u, v) if u <= v else (v, u)
        inv = aut.canonical(aut.inverse(label))
        name = min(aut.canonical(label).name(), inv.name())
        out.setdefault((a, b), set()).add(name)
    return {k: tuple(sorted(v)) for k, v in sorted(out.items())}


def oracle_exports(gamma):
    """(to_json, to_dot) as they were, over oracle_undirected_edges."""
    def name(p):
        return str(p) if p.edges else p.base
    edges = oracle_undirected_edges(gamma)
    doc = {"schema": 1, "level": gamma.level,
           "vertices": [name(p) for p in gamma.vertices],
           "edges": [{"u": name(gamma.vertices[u]), "v": name(gamma.vertices[v]),
                      "labels": list(labels)} for (u, v), labels in edges.items()]}
    lines = [f"graph schreier_level_{gamma.level} {{"]
    lines += [f'  v{i} [label="{name(p)}"];' for i, p in enumerate(gamma.vertices)]
    lines += [f'  v{u} -- v{v} [label="{",".join(labels)}"];' for (u, v), labels in edges.items()]
    lines.append("}")
    return doc, "\n".join(lines)


def graph_signature(gamma, labels):
    return ([(p.base, p.edges) for p in gamma.vertices],
            [(u, v, a.name()) for u, v, a in gamma.arcs],
            [a.name() for a in labels])


def assert_matches_oracle(aut, gens, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = build_schreier(aut, gens, n)
        old = oracle_build_schreier(aut, gens, n)
    assert graph_signature(new, new.machine.states) == graph_signature(old, old.gen_set), n
    assert new.undirected_edges() == oracle_undirected_edges(old)
    assert (new.to_json(), new.to_dot()) == oracle_exports(old)
    # psi twice: the second time from a graph that project_psi built
    for _ in range(min(n, 2)):
        (new, psi), (old, vmap, arc_map) = project_psi(new), oracle_project_psi(old)
        assert graph_signature(new, new.machine.states) == graph_signature(old, old.gen_set), n
        assert psi.vertex_map == vmap and list(psi.arc_map) == arc_map, n
        assert (new.to_json(), new.to_dot()) == oracle_exports(old)


# the five specs whose generating set closes (noncontracting's does not), up
# to level 9 or the last level with at most 4,096 vertices
@pytest.mark.parametrize("spec, top", [("basilica", 9), ("ex310", 9), ("odometer", 9),
                                       ("katsura", 6), ("nonhausdorff", 6)])
def test_tower_vs_oracle_specs(spec, top):
    aut = parse_spec((SPECS / f"{spec}.ss").read_text()).automaton()
    gens = default_generating_set(aut)
    for n in range(top + 1):
        assert_matches_oracle(aut, gens, n)


def test_tower_vs_oracle_random():
    from test_acceptance import _random_automaton

    rng = random.Random(29)
    checked = 0
    while checked < 40:
        aut = _random_automaton(rng)
        if aut is None:
            continue
        for n in range(6):
            assert_matches_oracle(aut, default_generating_set(aut), n)
        # a generating set that build_schreier has to extend
        first = aut.generator(next(iter(aut.generators)))
        for n in range(4):
            assert_matches_oracle(aut, [first], n)
        checked += 1


# t is an involution, so its column holds both mu -> t.mu and t.mu -> mu;
# s and t agree on every path 0 mu, so those edges carry two label pairs; at
# level 0 every label is the one loop
MERGES = """[graph]
vertex v
edge 0 : v -> v
edge 1 : v -> v
[generator s : v -> v]
0 -> 1 | v
1 -> 0 | s
[generator t : v -> v]
0 -> 1 | v
1 -> 0 | v
"""


def test_exports_merge_involutions_shared_edges_and_loops():
    aut = parse_spec(MERGES).automaton()
    gens = default_generating_set(aut)
    for n in range(7):
        assert_matches_oracle(aut, gens, n)
    assert build_schreier(aut, gens, 0).undirected_edges() == {(0, 0): ("s", "t", "v")}
    gamma = build_schreier(aut, gens, 6)
    col = gamma.cols[class_index(aut, gamma.machine)[aut.canonical_id(aut.generator("t"))]]
    assert all(col[col[p]] == p != col[p] for p in range(len(col)))
    edges = gamma.undirected_edges()
    assert sum(labels == ("s", "t") for labels in edges.values()) == 2 ** 5
    assert all(edges[u, u] == ("v",) for u in range(2 ** 6))


def test_exports_agree_above_the_oracle_limit():
    # basilica level 12 (8,192 vertices), the size the benchmark exports
    aut = build_basilica()
    gamma = build_schreier(aut, default_generating_set(aut), 12)
    edges = gamma.undirected_edges()
    assert edges == oracle_undirected_edges(gamma)
    doc, dot = gamma.to_json(), gamma.to_dot()
    names = doc["vertices"]
    assert doc["edges"] == [{"u": names[u], "v": names[v], "labels": list(labels)}
                            for (u, v), labels in edges.items()]
    assert [line for line in dot.splitlines() if " -- " in line] == [
        f'  v{u} -- v{v} [label="{",".join(labels)}"];' for (u, v), labels in edges.items()]


def test_exports_keep_no_state():
    # a JSON export must leave nothing behind for a DOT export to reuse
    aut = build_basilica()
    gamma = build_schreier(aut, default_generating_set(aut), 8)
    before = dict(vars(gamma))
    tables = ({a: col.tolist() for a, col in gamma.cols.items()},
              {v: g.tolist() for v, g in gamma.groups.items()})
    dot = gamma.to_dot()
    gamma.to_json()
    gamma.undirected_edges()
    assert vars(gamma).keys() == before.keys()
    assert all(vars(gamma)[k] is v for k, v in before.items())
    assert tables == ({a: col.tolist() for a, col in gamma.cols.items()},
                      {v: g.tolist() for v, g in gamma.groups.items()})
    assert gamma.to_dot() == dot


def test_tower_acts_no_word_per_vertex(monkeypatch):
    calls = {"act": 0, "word_act_edge": 0}

    def counted(name):
        fn = getattr(Automaton, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return fn(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Automaton, "act", counted("act"))
    monkeypatch.setattr(Automaton, "word_act_edge", counted("word_act_edge"))

    def build_calls(n):
        # on a fresh automaton, so that the class rows are filled inside the count
        calls.update(act=0, word_act_edge=0)
        aut = build_basilica()
        gamma = build_schreier(aut, default_generating_set(aut), n)
        return gamma, dict(calls)

    gamma, at12 = build_calls(12)
    assert len(gamma.vertices) == 2 ** 13
    project_psi(gamma)
    assert calls["act"] == 0
    _, at4 = build_calls(4)
    assert at12["word_act_edge"] == at4["word_act_edge"] > 0


# -- the tower's own path lists, kept as an oracle for enumerate_paths ----------


def old_tower_paths(graph, n):
    """Yield (groups, paths) for the levels 0..n as the Schreier tower
    listed them before it took its vertices from enumerate_paths: the edge
    tuple of every path, built level by level in the tower's block order."""
    groups = {v: [i] for i, v in enumerate(graph.vertices)}
    seqs = [()] * len(graph.vertices)
    yield groups, [Path.empty(v) for v in graph.vertices]
    for _ in range(n):
        start, total = {}, 0
        for e in graph.edges:
            start[e.id] = total
            total += len(groups[e.src])
        nxt = {}
        for v in graph.vertices:
            nxt[v] = [i for e in graph.range_edges(v)
                      for i in range(start[e.id], start[e.id] + len(groups[e.src]))]
        seqs = [(e.id,) + seqs[j] for e in graph.edges for j in groups[e.src]]
        groups = nxt
        yield groups, [Path(graph.r(t[0]), t) for t in seqs]


# levels 0..10 of the six specs, stopping where a level passes 2^15 paths
# (nonhausdorff's level 10 has 4^10)
@pytest.mark.parametrize("spec", ["basilica", "ex310", "katsura", "noncontracting",
                                  "nonhausdorff", "odometer"])
def test_enumerate_paths_vs_old_tower(spec):
    graph = parse_spec((SPECS / f"{spec}.ss").read_text()).automaton().graph
    top = 0
    for n, (groups, paths) in enumerate(old_tower_paths(graph, 10)):
        if len(paths) > 2 ** 15:
            break
        assert enumerate_paths(graph, n) == paths, n
        for v in graph.vertices:
            assert paths_at(graph, n, v) == [paths[j] for j in groups[v]], (n, v)
        top = n
    assert top >= 7


def test_psi_walks_no_tower(monkeypatch):
    import selfsim.schreier as schreier

    walks = []
    tower = schreier._tower

    def counted(*args):
        walks.append(args[2])
        return tower(*args)

    monkeypatch.setattr(schreier, "_tower", counted)
    aut = build_basilica()
    gamma = build_schreier(aut, default_generating_set(aut), 6)
    assert walks == [6]
    lower, _ = project_psi(gamma)
    project_psi(lower)
    assert walks == [6]


# -- the class-id-keyed tower, kept as an oracle for the machine's tower --------


def old_tower(aut, class_ids, n):
    """Yield (groups, cols) for the levels 0..n as _tower did when it read
    the class rows: cols keyed by class id."""
    graph = aut.graph
    rows = {c: aut._registry.row(c) for c in class_ids}
    groups = {v: [i] for i, v in enumerate(graph.vertices)}
    cols = dict.fromkeys(rows, [0])
    yield groups, cols
    for _ in range(n):
        start, total = {}, 0
        for e in graph.edges:
            start[e.id] = total
            total += len(groups[e.src])
        nxt, at = {}, {}
        for v in graph.vertices:
            grp = nxt[v] = []
            for e in graph.range_edges(v):
                at[e.id] = len(grp)
                grp.extend(range(start[e.id], start[e.id] + len(groups[e.src])))
        cols = {c: [at[img] + p for _, img, succ in row for p in cols[succ]]
                for c, row in rows.items()}
        groups = nxt
        yield groups, cols


# levels 0..10 of the six specs, stopping where a level passes 2^15 paths;
# noncontracting's generators close under no finite set, so it runs on units
@pytest.mark.parametrize("spec", ["basilica", "ex310", "katsura", "noncontracting",
                                  "nonhausdorff", "odometer"])
def test_tower_vs_class_id_tower(spec):
    from selfsim.schreier import _label_set, _tower

    aut = parse_spec((SPECS / f"{spec}.ss").read_text()).automaton()
    gens = ([aut.unit(v) for v in aut.graph.vertices] if spec == "noncontracting"
            else default_generating_set(aut))
    sm = _label_set(aut, gens)
    ids = list(class_index(aut, sm))
    assert [aut.canonical_id(a) for a in sm.states] == ids
    top = 0
    for n, ((groups, cols), (old_groups, old_cols)) in enumerate(
            zip(_tower(aut.graph, sm, 10), old_tower(aut, ids, 10))):
        if sum(map(len, groups.values())) > 2 ** 15:
            break
        assert groups == old_groups, n
        assert cols == [old_cols[c] for c in ids], n
        top = n
    assert top >= 7


def test_label_set_warnings(ex310):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma = build_schreier(ex310, [ex310.generator("a")], 3)
    messages = [str(w.message) for w in caught]
    assert any("restriction" in m for m in messages) and any("inverses" in m for m in messages)
    assert [a.name() for a in gamma.machine.states] == ["v", "w", "a", "a^-1", "b", "b^-1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_schreier(ex310, default_generating_set(ex310), 3)


@pytest.mark.parametrize("spec", ["basilica", "ex310", "katsura", "noncontracting",
                                  "nonhausdorff", "odometer"])
def test_label_set_runs_one_closure_and_exports_look_up_no_class(monkeypatch, spec):
    # build_schreier closes the labels once, the set and its inverses
    # together; the exports pair each label with its inverse on the label
    # machine's rows, with no class lookup
    import selfsim.schreier as schreier
    from selfsim.automaton import _Registry

    aut = parse_spec((SPECS / f"{spec}.ss").read_text()).automaton()
    units = [aut.unit(v) for v in aut.graph.vertices]
    gen_sets = [units] if spec == "noncontracting" else [
        units, default_generating_set(aut), [aut.generator(sorted(aut.generators)[0])]]
    calls = {"closures": 0, "lookups": 0}
    lookup = _Registry.lookup

    def counted(self, g):
        calls["lookups"] += 1
        return lookup(self, g)

    def closure(aut, seeds):
        calls["closures"] += 1
        return reachable_closure(aut, seeds)
    monkeypatch.setattr(_Registry, "lookup", counted)
    monkeypatch.setattr(schreier, "reachable_closure", closure)
    for gens in gen_sets:
        calls.update(closures=0, lookups=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gamma = build_schreier(aut, gens, 3)
        assert calls["closures"] == 1 and calls["lookups"] > 0  # the counter sees the closure's
        calls.update(lookups=0)
        gamma.to_json(), gamma.to_dot(), gamma.undirected_edges(), project_psi(gamma)[0].to_json()
        assert calls == {"closures": 1, "lookups": 0}


def old_label_set(aut, gen_set):
    """``_label_set`` before StateMachine.renumbered: a third closure, seeded
    with the states in word_key order, renumbered them."""
    closure = reachable_closure(aut, gen_set)
    both = reachable_closure(aut, closure.states + [aut.inverse(a) for a in closure.states])
    return reachable_closure(aut, sorted(both.states, key=lambda e: word_key(e.word)))


@pytest.mark.parametrize("spec", ["basilica", "ex310", "katsura", "noncontracting",
                                  "nonhausdorff", "odometer"])
def test_label_set_vs_third_closure(spec):
    from selfsim.schreier import _label_set

    build = parse_spec((SPECS / f"{spec}.ss").read_text()).automaton

    def gen_sets(aut):  # units, the default set, and one generator alone
        units = [aut.unit(v) for v in aut.graph.vertices]
        return [units] if spec == "noncontracting" else [
            units, default_generating_set(aut), [aut.generator(sorted(aut.generators)[0])]]

    for k in range(len(gen_sets(build()))):
        aut, was = build(), build()  # each side registers its classes in the same order
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            new, old = _label_set(aut, gen_sets(aut)[k]), old_label_set(was, gen_sets(was)[k])
        assert (new.states, new.doms, new.cods, new.rows) == (old.states, old.doms, old.cods, old.rows)
        assert list(class_index(aut, new).items()) == list(old.index.items())  # in state order


# -- the views over the columns --------------------------------------------------


def test_views_index_like_lists(ex310, gens310):
    gamma = build_schreier(ex310, gens310, 4)
    lower, psi = project_psi(gamma)
    for view in (gamma.vertices, gamma.arcs, lower.vertices, lower.arcs, psi.arc_map):
        items = list(view)
        assert len(view) == len(items) > 0
        assert [view[i] for i in range(len(items))] == items
        assert view[-1] == items[-1] and view[-len(items)] == items[0]
        assert view[1:5] == items[1:5] and view[::-3] == items[::-3]
        with pytest.raises(IndexError):
            view[len(items)]
        with pytest.raises(IndexError):
            view[-len(items) - 1]
    assert all(type(u) is int and type(v) is int for u, v, _ in gamma.arcs)
    assert list(gamma.vertices) == enumerate_paths(ex310.graph, 4)


def test_geodesic_distance_rejects_non_vertices(ex310, gens310):
    gamma = build_schreier(ex310, gens310, 2)
    v0 = gamma.vertices[0]
    for p in (Path("w", ("2", "3")),  # r(2) = v
              Path("v", ("2",)), Path("v", ("2", "3", "1")),  # wrong length
              Path("v", ("2", "2")),  # s(2) != r(2)
              Path("u", ("2", "3")), Path("v", ("9", "3"))):
        with pytest.raises(VertexNotInLevelError):
            geodesic_distance(gamma, p, v0)
        with pytest.raises(VertexNotInLevelError):
            geodesic_distance(gamma, v0, p)
    assert geodesic_distance(build_schreier(ex310, gens310, 0), Path.empty("w"), Path.empty("w")) == 0


class _CountedSeq:
    """A sequence that logs every iteration and index into it."""

    def __init__(self, seq, log, name):
        self._seq, self._log, self._name = seq, log, name

    def __len__(self):
        return len(self._seq)

    def __getitem__(self, i):
        self._log.append(self._name)
        return self._seq[i]

    def __iter__(self):
        self._log.append(self._name)
        return iter(self._seq)


def test_exports_psi_and_profiles_read_only_columns(monkeypatch):
    import selfsim.schreier as schreier

    reads = []

    class Counted(schreier.SchreierGraph):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            return _CountedSeq(value, reads, name) if name in ("arcs", "vertices") else value

    monkeypatch.setattr(schreier, "SchreierGraph", Counted)
    aut = build_basilica()
    gens = default_generating_set(aut)
    gamma = build_schreier(aut, gens, 6)
    assert isinstance(gamma, Counted) and len(gamma.vertices) == 2 ** 7
    lower, _ = project_psi(gamma)
    assert reads == []
    for name, op in [("to_json", gamma.to_json), ("to_dot", gamma.to_dot),
                     ("lower to_json", lower.to_json), ("lower to_dot", lower.to_dot),
                     ("psi of psi", lambda: project_psi(lower))]:
        op()
        assert reads == [], name
    x = LeftInfinitePath.make(aut.graph, ["3"], ["2"])
    y = LeftInfinitePath.make(aut.graph, ["0", "1"])
    assert distance_profile(aut, x, y, 6, gen_set=gens) and reads == []
    list(gamma.arcs)
    assert gamma.vertices[0].edges and reads == ["arcs", "vertices"]


# -- distance_profile as it was, kept as an oracle --------------------------------


def oracle_distance_profile(aut, x, y, max_level, gens, cache):
    """distance_profile before it searched the columns: per level a whole
    graph (a Path per vertex, a dict of vertex indices, undirected adjacency
    sets), then a BFS from one window to the other."""
    from selfsim.schreier import _label_set, _tower

    graph = aut.graph
    if not all(n in cache for n in range(1, max_level + 1)):
        sm = _label_set(aut, gens)
        for level, (groups, cols) in enumerate(_tower(graph, sm, max_level)):
            if not level:
                continue
            paths = enumerate_paths(graph, level)
            index = {(p.base, p.edges): i for i, p in enumerate(paths)}
            adj = [set() for _ in paths]
            for dom, cod, col in zip(sm.doms, sm.cods, cols):
                for u, p in zip(groups[dom], col):
                    v = groups[cod][p]
                    adj[u].add(v)
                    adj[v].add(u)
            cache[level] = index, adj
    out = []
    for n in range(1, max_level + 1):
        index, adj = cache[n]
        mu, nu = (Path.of(graph, [z.edge_at(i) for i in range(-n, 0)]) for z in (x, y))
        src, dst = index[(mu.base, mu.edges)], index[(nu.base, nu.edges)]
        dist, queue = {src: 0}, [src]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(dist.get(dst))
    return out


def test_distance_profile_vs_oracle_pool():
    import json

    from selfsim.specfile import parse_path

    pool = json.loads((SPECS.parent / "bench" / "expected" / "schreier-tower.json")
                      .read_text())["pool"]
    auts, caches = {}, {}
    for name, x, y in pool:
        if name not in auts:
            auts[name] = parse_spec((SPECS / f"{name}.ss").read_text()).automaton()
            caches[name] = ({}, default_generating_set(auts[name]))
        aut = auts[name]
        old_cache, gens = caches[name]
        px, py = parse_path(aut.graph, x, "left"), parse_path(aut.graph, y, "left")
        want = oracle_distance_profile(aut, px, py, 8, gens, old_cache)
        assert distance_profile(aut, px, py, 8, gen_set=gens) == want, (name, x, y)
    assert len(pool) >= 20


@pytest.mark.parametrize("spec, top", [("basilica", 10), ("ex310", 10), ("odometer", 10),
                                       ("katsura", 5), ("nonhausdorff", 6)])
def test_distance_profile_vs_oracle_random(spec, top):
    aut = parse_spec((SPECS / f"{spec}.ss").read_text()).automaton()
    gens = default_generating_set(aut)
    rng = random.Random(47)
    old_cache = {}
    for _ in range(25):
        x, y = random_left_path(aut, rng), random_left_path(aut, rng)
        want = oracle_distance_profile(aut, x, y, top, gens, old_cache)
        assert distance_profile(aut, x, y, top, gen_set=gens) == want, (x, y)
        assert distance_profile(aut, x, x, top, gen_set=gens) == [0] * top
