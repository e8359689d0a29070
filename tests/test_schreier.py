import random
import warnings
from pathlib import Path as FsPath

import pytest

from selfsim.automaton import Automaton, reachable_closure, word_key
from selfsim.errors import VertexNotInLevelError
from selfsim.graphs import Path, enumerate_paths
from selfsim.infinite_paths import LeftInfinitePath
from selfsim.nucleus import compute_nucleus
from selfsim.schreier import (
    SchreierGraph,
    build_schreier,
    default_generating_set,
    distance_profile,
    geodesic_distance,
    project_psi,
)
from selfsim.specfile import parse_spec

from conftest import build_basilica
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
    cache = {}
    bound = 1  # every nucleus element is a single generator symbol or unit
    checked_eq = checked_ne = 0
    while checked_eq < 12 or checked_ne < 12:
        x = random_left_path(ex310, rng)
        y = random_left_path(ex310, rng)
        prof = distance_profile(ex310, x, y, 12, gen_set=gens310, _cache=cache)
        if ae_equivalent(x, y, nuc310):
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
# every label along the dropped edge.


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
    return SchreierGraph(n, aut, labels, vertices, arcs)


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
    return SchreierGraph(gamma.level - 1, aut, gamma.gen_set, lower, arcs), vmap, arc_map


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


def graph_signature(gamma):
    return ([(p.base, p.edges) for p in gamma.vertices],
            [(u, v, a.name()) for u, v, a in gamma.arcs],
            [a.name() for a in gamma.gen_set])


def assert_matches_oracle(aut, gens, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        new = build_schreier(aut, gens, n)
        old = oracle_build_schreier(aut, gens, n)
    assert graph_signature(new) == graph_signature(old), n
    assert new.undirected_edges() == oracle_undirected_edges(old)
    assert (new.to_json(), new.to_dot()) == oracle_exports(old)
    # psi twice: the second time from a graph that project_psi built
    for _ in range(min(n, 2)):
        (new, psi), (old, vmap, arc_map) = project_psi(new), oracle_project_psi(old)
        assert graph_signature(new) == graph_signature(old), n
        assert psi.vertex_map == vmap and psi.arc_map == arc_map, n
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
            assert enumerate_paths(graph, n, at=v) == [paths[j] for j in groups[v]], (n, v)
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


def test_vertex_index_is_built_on_first_lookup(ex310, gens310):
    gamma = build_schreier(ex310, gens310, 3)
    assert not hasattr(gamma, "_index")
    for i, p in enumerate(gamma.vertices):
        assert gamma.vertex_index(p) == i
