import random

import pytest

from selfsim.errors import DanglingEndpointError, DuplicateIdError, NonComposableError
from selfsim.graphs import (
    Graph,
    Path,
    concat,
    cyclic_nodes,
    enumerate_paths,
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
        assert limit_nodes(starts, succ.__getitem__) == cyclic.union(*(reach[v] for v in cyclic))


def test_scc_helpers_long_chain():
    n = 20_000  # far past the recursion limit
    succ = lambda v: (v + 1,) if v + 1 < n else (n // 2,)
    assert cyclic_nodes([0], succ) == set(range(n // 2, n))
    assert limit_nodes([0], succ) == set(range(n // 2, n))
