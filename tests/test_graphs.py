import random

import pytest

from selfsim.errors import (
    DanglingEndpointError,
    DuplicateIdError,
    NonComposableError,
    UnknownSymbolError,
)
from selfsim.graphs import (
    Graph,
    Path,
    bfs,
    concat,
    cyclic_nodes,
    enumerate_paths,
    find_cycle,
    limit_nodes,
    strongly_connected_components,
    validate_graph,
)

from conftest import build_basilica, build_ex310


def brute_force_pairs(g):
    """Independent oracle for E^2: all composable edge pairs."""
    return sorted(
        (e.id, f.id) for e in g.edges for f in g.edges if g.s(e.id) == g.r(f.id)
    )


def test_ex310_structure():
    g = build_ex310().graph
    rep = validate_graph(g)
    assert rep.no_sources and rep.no_sinks
    assert rep.strongly_connected
    assert rep.primitive


def test_single_vertex_no_edges():
    g = Graph(["v"], [])
    rep = validate_graph(g)
    assert not rep.no_sources
    assert not rep.strongly_connected


def test_basilica_structure():
    # No directed walk with source w and range v exists (arrows out of w only
    # loop), so the graph is not strongly connected; it still has no sources.
    g = build_basilica().graph
    rep = validate_graph(g)
    assert rep.no_sources and rep.no_sinks
    assert not rep.strongly_connected
    assert not rep.primitive


def test_duplicate_and_dangling():
    with pytest.raises(DuplicateIdError):
        Graph(["v", "v"], [])
    with pytest.raises(DuplicateIdError):
        Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])
    with pytest.raises(DanglingEndpointError):
        Graph(["v"], [("e", "v", "x")])


def test_concat_convention():
    g = build_ex310().graph
    # s(3) = v = r(1), so "3" * "1" composes to "31"
    p = concat(g, Path.of(g, ["3"]), Path.of(g, ["1"]))
    assert p.edges == ("3", "1")
    assert p.r(g) == "w" and p.s(g) == "v"
    # identity law with the empty path
    q = Path.of(g, ["2"])
    assert concat(g, Path.empty("v"), q) == q
    # s(1) = v but r(3) = w
    with pytest.raises(NonComposableError):
        concat(g, Path.of(g, ["1"]), Path.of(g, ["3"]))


def test_enumerate_paths_levels():
    aut = build_ex310()
    g = aut.graph
    level1 = enumerate_paths(g, 1)
    assert sorted(p.edges[0] for p in level1) == ["1", "2", "3", "4"]
    level0 = enumerate_paths(g, 0)
    assert sorted(p.base for p in level0) == ["v", "w"]
    # level 2 against the brute-force composability oracle
    level2 = {p.edges for p in enumerate_paths(g, 2)}
    assert level2 == set(brute_force_pairs(g))
    assert len(level2) == 8
    assert level2 == {("1", "1"), ("1", "2"), ("2", "3"), ("2", "4"),
                      ("3", "1"), ("3", "2"), ("4", "1"), ("4", "2")}


def test_enumerate_paths_counts_match_adjacency_powers():
    for aut in (build_ex310(), build_basilica()):
        g = aut.graph
        idx = {v: i for i, v in enumerate(g.vertices)}
        n = len(g.vertices)
        m = [[0] * n for _ in range(n)]
        for e in g.edges:
            m[idx[e.dst]][idx[e.src]] += 1  # (r, s) counting matrix
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, 9):
            power = [[sum(power[i][t] * m[t][j] for t in range(n)) for j in range(n)]
                     for i in range(n)]
            total = sum(sum(row) for row in power)
            assert len(enumerate_paths(g, k)) == total


def test_path_range_source_at_filter():
    g = build_ex310().graph
    for p in enumerate_paths(g, 3, at="v"):
        assert p.r(g) == "v"
        for a, b in zip(p.edges, p.edges[1:]):
            assert g.s(a) == g.r(b)


def old_enumerate_paths(graph, n, at=None):
    """enumerate_paths as it was: paths extended on the right from every
    root, one Path per intermediate path, then sorted."""
    roots = [at] if at is not None else list(graph.vertices)
    out = []
    for v in roots:
        level = [Path.empty(v)]
        for _ in range(n):
            level = [Path(v, p.edges + (e.id,)) for p in level for e in graph.range_edges(p.s(graph))]
        out.extend(level)
    out.sort(key=lambda p: (p.edges, p.base))
    return out


def _random_graph(rng, max_vertices=5):
    n = rng.randint(0, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{k}", rng.choice(vs), rng.choice(vs))
             for k in range(rng.randint(0, 2 * n) if n else 0)]
    return Graph(vs, edges)


def test_enumerate_paths_vs_sorted_extension():
    rng = random.Random(12)
    for _ in range(300):
        g = _random_graph(rng)
        for n in range(5):
            assert enumerate_paths(g, n) == old_enumerate_paths(g, n), (g.edges, n)
            for v in g.vertices:
                assert enumerate_paths(g, n, at=v) == old_enumerate_paths(g, n, at=v)


@pytest.mark.parametrize("n", range(4))
def test_enumerate_paths_unknown_vertex(n):
    g = build_ex310().graph
    with pytest.raises(UnknownSymbolError):
        enumerate_paths(g, n, at="nope")


def _reach(succ, v):
    seen, stack = set(), list(succ[v])
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack.extend(succ[w])
    return seen


def test_scc_helpers_vs_reach_sets():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        succ = {v: sorted({rng.randrange(n) for _ in range(rng.randint(0, 3))}) for v in range(n)}
        starts = rng.sample(range(n), rng.randint(1, n))
        reach = {v: _reach(succ, v) for v in range(n)}
        seen = set(starts).union(*(reach[v] for v in starts))
        comps = strongly_connected_components(starts, succ.__getitem__)
        assert sorted(v for c in comps for v in c) == sorted(seen)
        pos = {v: k for k, c in enumerate(comps) for v in c}
        for v in seen:
            for w in reach[v]:
                # same component iff mutually reachable; otherwise w listed first
                assert (pos[v] == pos[w]) == (v in reach[w])
                assert pos[w] <= pos[v]
        cyclic = {v for v in seen if v in reach[v]}
        assert cyclic_nodes(starts, succ.__getitem__) == cyclic
        limit = limit_nodes(starts, succ.__getitem__)
        assert limit.keys() == cyclic.union(*(reach[v] for v in cyclic))
        # each limit node's origin lies on a cycle and reaches it
        for v, o in limit.items():
            assert o in cyclic and v in reach[o]


def test_scc_helpers_long_chain():
    n = 20_000  # far past the recursion limit
    succ = lambda v: (v + 1,) if v + 1 < n else (n // 2,)
    assert cyclic_nodes([0], succ) == set(range(n // 2, n))
    assert limit_nodes([0], succ).keys() == set(range(n // 2, n))


def _random_labelled_digraph(rng, n):
    """succ[v] = [(label, w), ...] with distinct labels "v>w#k"."""
    return {v: [(f"{v}>{w}#{k}", w) for k, w in
                enumerate(rng.choice(range(n)) for _ in range(rng.randint(0, 3)))]
            for v in range(n)}


def test_bfs_and_find_cycle_vs_brute_force():
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randint(1, 9)
        succ = _random_labelled_digraph(rng, n)
        plain = {v: [w for _l, w in succ[v]] for v in succ}
        starts = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        reach = {v: _reach(plain, v) for v in range(n)}
        seen = set(starts).union(*(reach[v] for v in starts))
        order = [v for v, _parent in bfs(starts, succ.__getitem__)]
        assert len(order) == len(set(order)) and set(order) == seen
        # brute-force distances from the start set, by layers
        dist, layer, d = {}, set(starts), 0
        while layer:
            for v in layer:
                dist[v] = d
            layer = {w for v in layer for w in plain[v]} - set(dist)
            d += 1
        assert [dist[v] for v in order] == sorted(dist[v] for v in order)
        hit = find_cycle(starts, succ.__getitem__)
        if hit is None:
            assert not any(v in reach[v] for v in seen)
            continue
        nodes, labels = hit
        assert len(nodes) == len(labels) == len(set(nodes)) and set(nodes) <= seen
        for k, v in enumerate(nodes):  # each label is an arc to the next node
            assert (labels[k], nodes[(k + 1) % len(nodes)]) in succ[v]


def test_bfs_parent_chains_are_shortest_label_paths():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 8)
        succ = _random_labelled_digraph(rng, n)
        start = rng.randrange(n)
        for v, parent in bfs([start], succ.__getitem__):
            labels, w = [], v
            while parent[w] is not None:
                w, label = parent[w]
                labels.append(label)
            labels.reverse()
            assert w == start
            # the labels spell a walk from start to v ...
            cur = start
            for label in labels:
                cur = next(x for lab, x in succ[cur] if lab == label)
            assert cur == v
            # ... and no shorter walk exists
            frontier, k = {start}, 0
            while v not in frontier:
                frontier = {x for u in frontier for _l, x in succ[u]}
                k += 1
            assert k == len(labels)


def test_find_cycle_long_chain():
    n = 20_000  # far past the recursion limit
    succ = lambda v: ((f"a{v}", (v + 1) % n),)
    nodes, labels = find_cycle([0], succ)
    assert nodes == list(range(n)) and labels == [f"a{v}" for v in range(n)]
    tail = lambda v: ((None, v + 1),) if v + 1 < n else ()
    assert find_cycle([0], tail) is None


def _matrix_strongly_connected(graph):
    """validate_graph's strong connectivity as it was: boolean matrix
    closure of the adjacency, then every off-diagonal entry set."""
    idx = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    adj = [[False] * n for _ in range(n)]
    for e in graph.edges:
        adj[idx[e.src]][idx[e.dst]] = True
    reach = [row[:] for row in adj]
    changed = True
    while changed:
        changed = False
        step = [[any(reach[i][k] and adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        for i in range(n):
            for j in range(n):
                if step[i][j] and not reach[i][j]:
                    reach[i][j] = True
                    changed = True
    strongly = all(reach[i][j] for i in range(n) for j in range(n) if i != j)
    if n == 1:
        strongly = bool(graph.edges)
    return strongly


def test_strong_connectivity_vs_matrix_closure():
    rng = random.Random(10)
    verdicts = set()
    for _ in range(600):
        g = _random_graph(rng)
        got = validate_graph(g).strongly_connected
        assert got == _matrix_strongly_connected(g), g.edges
        verdicts.add((len(g.vertices), got))
    assert {(0, True), (1, True), (1, False), (5, True), (5, False)} <= verdicts


def _matrix_primitive(graph):
    """validate_graph's primitivity as it was: some boolean power of the
    adjacency matrix, up to the |V|^2 + 1st, is all true."""
    idx = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    adj = [[False] * n for _ in range(n)]
    for e in graph.edges:
        adj[idx[e.src]][idx[e.dst]] = True
    power = [row[:] for row in adj]
    for _ in range(n * n + 1):
        if all(all(row) for row in power):
            return True
        power = [[any(power[i][k] and adj[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return False


def test_primitivity_vs_matrix_powers():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(600):
        g = _random_graph(rng)
        rep = validate_graph(g)
        assert rep.primitive == _matrix_primitive(g), g.edges
        verdicts.add((len(g.vertices), rep.strongly_connected, rep.primitive))
    # one vertex with and without a loop, periodic and aperiodic strongly
    # connected graphs, and graphs that are not strongly connected
    assert {(1, True, True), (1, False, False), (3, True, True), (3, True, False),
            (5, False, False)} <= verdicts
    for g in (Graph(["v"], [("e", "v", "v")]), Graph(["v"], [])):
        assert validate_graph(g).primitive == _matrix_primitive(g)


def test_primitivity_of_a_long_cycle():
    """A directed 40-cycle has period 40; a chord that closes a 39-cycle
    makes it aperiodic.  The matrix powers took seconds here."""
    vs = [f"v{i}" for i in range(40)]
    cycle = [(f"e{i}", vs[i], vs[(i + 1) % 40]) for i in range(40)]
    rep = validate_graph(Graph(vs, cycle))
    assert rep.strongly_connected and not rep.primitive
    rep = validate_graph(Graph(vs, cycle + [("chord", vs[0], vs[2])]))
    assert rep.strongly_connected and rep.primitive
