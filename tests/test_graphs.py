import random

import pytest

from selfsim.errors import (
    DanglingEndpointError,
    DuplicateIdError,
    NonComposableError,
)
from selfsim.graphs import (
    Graph,
    Path,
    bfs,
    bfs_labels,
    concat,
    enumerate_paths,
    limit_nodes,
    refine,
    rho,
    rho_at,
    shortest_path,
    strongly_connected_components,
    validate_graph,
)

from conftest import build_basilica, build_ex310, paths_at


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
    for p in paths_at(g, 3, "v"):
        assert p.r(g) == "v"
        for a, b in zip(p.edges, p.edges[1:]):
            assert g.s(a) == g.r(b)


def old_enumerate_paths(graph, n):
    """enumerate_paths as it was: paths extended on the right from every
    root, one Path per intermediate path, then sorted."""
    out = []
    for v in graph.vertices:
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


def cyclic_nodes(nodes, succ) -> set:
    """The nodes reachable from ``nodes`` that lie on a directed cycle, as
    graphs.cyclic_nodes gave them: kept as an oracle for limit_nodes."""
    return {v for comp in strongly_connected_components(nodes, succ)
            if len(comp) > 1 or comp[0] in succ(comp[0]) for v in comp}


def origin_limit_nodes(nodes, succ) -> dict:
    """limit_nodes as it was: each limit node mapped to a cycle node that
    reaches it, in the order first marked."""
    origin: dict = {}
    for comp in reversed(strongly_connected_components(nodes, succ)):
        if len(comp) > 1 or comp[0] in succ(comp[0]):
            origin.update(dict.fromkeys(comp, comp[0]))
        for v in comp:
            if v in origin:
                for w in succ(v):
                    origin.setdefault(w, origin[v])
    return origin


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
        assert set(limit) == cyclic.union(*(reach[v] for v in cyclic))
        # the order _product numbers new states by is the origin map's
        assert limit == list(origin_limit_nodes(starts, succ.__getitem__))


def test_scc_helpers_long_chain():
    n = 20_000  # far past the recursion limit
    succ = lambda v: (v + 1,) if v + 1 < n else (n // 2,)
    assert cyclic_nodes([0], succ) == set(range(n // 2, n))
    assert set(limit_nodes([0], succ)) == set(range(n // 2, n))


def test_limit_nodes_of_a_partial_map_are_its_cycle_nodes():
    # one successor per node at most, as ae_class's phase map has: a node
    # reached from a cycle lies on it, so the limit nodes are the cyclic ones
    rng = random.Random(30)
    for _ in range(500):
        n = rng.randint(1, 12)
        step = {v: rng.randrange(n) for v in range(n) if rng.random() < 0.8}
        succ = lambda v: (step[v],) if v in step else ()
        starts = rng.sample(range(n), rng.randint(1, n))
        limit = limit_nodes(starts, succ)
        assert set(limit) == cyclic_nodes(starts, succ)
        assert len(set(limit)) == len(limit)


def _random_labelled_digraph(rng, n):
    """succ[v] = [(label, w), ...] with distinct labels "v>w#k"."""
    return {v: [(f"{v}>{w}#{k}", w) for k, w in
                enumerate(rng.choice(range(n)) for _ in range(rng.randint(0, 3)))]
            for v in range(n)}


def find_cycle(nodes, succ):
    """The first directed cycle that a depth-first search from ``nodes``, in
    order, closes over the arcs v -label-> w for (label, w) in succ(v): its
    nodes from the first one entered, and the labels of the arcs leaving
    each; None when nothing reached from ``nodes`` lies on a cycle.  As
    graphs.find_cycle gave it: kept as an oracle for the cycles that a
    component and shortest_path close."""
    done: set = set()
    for root in nodes:
        if root in done:
            continue
        trail, labels, pos = [root], [None], {root: 0}  # labels[k] enters trail[k]
        work = [iter(succ(root))]
        while work:
            for label, w in work[-1]:
                if w in pos:
                    return trail[pos[w]:], labels[pos[w] + 1:] + [label]
                if w not in done:
                    pos[w] = len(trail)
                    trail.append(w)
                    labels.append(label)
                    work.append(iter(succ(w)))
                    break
            else:
                work.pop()
                labels.pop()
                v = trail.pop()
                del pos[v]
                done.add(v)
    return None


def component_cycle(nodes, succ):
    """The cycle through the least node reached from ``nodes`` that lies on
    one, as dynamics._fixed_cycle closes it: that node's first arc inside its
    component, then shortest_path back.  (nodes, labels) or None."""
    comps = strongly_connected_components(nodes, lambda v: [w for _l, w in succ(v)])
    comp = {v: k for k, vs in enumerate(comps) for v in vs}
    for c in sorted(comp):
        for label, w in succ(c):
            if comp[w] == comp[c]:
                labels = [label, *shortest_path(w, lambda v: v == c, succ)]
                trail = [c]
                for lab in labels[:-1]:
                    trail.append(dict(succ(trail[-1]))[lab])
                return trail, labels
    return None


def _check_cycle(hit, succ, seen):
    nodes, labels = hit
    assert len(nodes) == len(labels) == len(set(nodes)) and set(nodes) <= seen
    for k, v in enumerate(nodes):  # each label is an arc to the next node
        assert (labels[k], nodes[(k + 1) % len(nodes)]) in succ[v]


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
        # the oracle and the component cycle find a cycle in the same graphs
        hit, cycle = find_cycle(starts, succ.__getitem__), component_cycle(starts, succ.__getitem__)
        if hit is None:
            assert cycle is None and not any(v in reach[v] for v in seen)
            continue
        _check_cycle(hit, succ, seen)
        _check_cycle(cycle, succ, seen)
        # through the least node c on a cycle: c's first arc to a node that
        # reaches c, then no walk back from there is shorter
        nodes, labels = cycle
        c = nodes[0]
        assert c == min(v for v in seen if v in reach[v])
        first = next((lab, w) for lab, w in succ[c] if c in reach[w] | {w})
        assert (labels[0], nodes[1 % len(nodes)]) == first
        frontier, k = {first[1]}, 1
        while c not in frontier:
            frontier = set().union(*(plain[v] for v in frontier))
            k += 1
        assert k == len(labels)


def test_bfs_parent_chains_are_shortest_label_paths():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 8)
        succ = _random_labelled_digraph(rng, n)
        start = rng.randrange(n)
        for v, parent in bfs([start], succ.__getitem__):
            labels = bfs_labels(parent, v)
            assert labels or v == start
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


def test_rho_vs_brute_force_walk():
    rng = random.Random(17)
    outcomes = {"cycle": 0, "none": 0, "fixed point": 0}
    for _ in range(500):
        n = rng.randint(1, 12)
        # a random partial map on 0..n-1: a missing node steps to None
        step = {v: rng.randrange(n) for v in range(n) if rng.random() < 0.85}
        start = rng.randrange(n)
        asked = []

        def walk(v):
            asked.append(v)
            return step.get(v)
        got = rho(start, walk)
        trail, v = [start], step.get(start)  # brute force: walk, scanning the trail
        while v is not None and v not in trail:
            trail.append(v)
            v = step.get(v)
        if v is None:  # a walk that stops returns its nodes, and None for the cycle
            assert got == (trail, None)
            outcomes["none"] += 1
        else:
            assert got == (trail, trail.index(v))
            outcomes["fixed point" if len(trail) - trail.index(v) == 1 else "cycle"] += 1
        # step was asked once per node, in walk order
        assert asked == trail
    assert min(outcomes.values()) > 20, outcomes


def test_rho_long_cycle():
    # a cycle of 10^5 nodes behind a tail of 10^5, with tuple nodes
    n = 100_000

    def step(u):
        i, part = u
        if part == "tail":
            return (i + 1, "tail") if i < n - 1 else (0, "cycle")
        return (i + 1) % n, "cycle"
    nodes, k = rho((0, "tail"), step)
    assert (len(nodes), k) == (2 * n, n) and nodes[k] == (0, "cycle")


def test_rho_at_vs_brute_force_walk():
    rng = random.Random(17)  # the partial maps of test_rho_vs_brute_force_walk
    outcomes = {"inside": 0, "past a stop": 0, "around a cycle": 0}
    for _ in range(500):
        n = rng.randint(1, 12)
        step = {v: rng.randrange(n) for v in range(n) if rng.random() < 0.85}
        start = rng.randrange(n)
        walk = rho(start, step.get)
        v = start  # brute force: take the steps one at a time
        for steps in range(3 * n):
            assert rho_at(walk, steps) == v, (step, start, steps)
            if steps < len(walk[0]):
                outcomes["inside"] += 1
            else:
                outcomes["past a stop" if walk[1] is None else "around a cycle"] += 1
            v = step.get(v)  # None stays None
    assert min(outcomes.values()) > 100, outcomes


def test_rho_at_far_along_a_cycle():
    # 10^12 steps around a cycle of 7 behind a tail of 3 are read off, not taken
    walk = rho(0, lambda v: v + 1 if v < 9 else 3)
    assert walk == (list(range(10)), 3)
    far = 10 ** 12
    assert rho_at(walk, far) == 3 + (far - 3) % 7
    assert rho_at(rho(0, lambda v: v + 1 if v < 9 else None), far) is None


def test_find_cycle_long_chain():
    n = 20_000  # far past the recursion limit
    succ = lambda v: ((f"a{v}", (v + 1) % n),)
    nodes, labels = find_cycle([0], succ)
    assert nodes == list(range(n)) and labels == [f"a{v}" for v in range(n)]
    assert component_cycle([0], succ) == (nodes, labels)
    tail = lambda v: ((None, v + 1),) if v + 1 < n else ()
    assert find_cycle([0], tail) is None and component_cycle([0], tail) is None


def test_shortest_path_vs_brute_force():
    rng = random.Random(33)
    outcomes = {"at the start": 0, "unreachable": 0, "found": 0}
    for _ in range(400):
        n = rng.randint(1, 9)
        succ = _random_labelled_digraph(rng, n)
        start, goals = rng.randrange(n), set(rng.sample(range(n), rng.randint(0, min(n, 2))))
        asked = []

        def goal(v):
            asked.append(v)
            return v in goals
        got = shortest_path(start, goal, succ.__getitem__)
        frontier, k = {start}, 0  # brute force: grow the layers until one meets a goal
        seen = set(frontier)
        while frontier and not frontier & goals:
            frontier = {x for u in frontier for _l, x in succ[u]} - seen
            seen |= frontier
            k += 1
        if not frontier:
            assert got is None
            outcomes["unreachable"] += 1
            continue
        assert len(got) == k
        outcomes["at the start" if k == 0 else "found"] += 1
        cur = start  # the labels spell a walk from start ...
        for label in got:
            cur = next(x for lab, x in succ[cur] if lab == label)
        # ... that ends at the first goal node bfs dequeues
        assert cur in goals and cur == asked[-1]
        assert cur == next(v for v, _ in bfs([start], succ.__getitem__) if v in goals)
    assert min(outcomes.values()) > 40, outcomes


def test_shortest_path_long_chain():
    n = 100_000
    succ = lambda v: ((f"a{v}", v + 1),) if v + 1 < n else ()
    assert shortest_path(0, lambda v: v == n - 1, succ) == [f"a{v}" for v in range(n - 1)]
    assert shortest_path(0, lambda v: v == n, succ) is None
    assert shortest_path(0, lambda v: v == 0, succ) == []


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


def bisimilar_pairs(labels, succ):
    """The pairs of nodes that no input word tells apart: the greatest
    fixpoint from the label-equal pairs, dropping a pair once one of its
    successor pairs, position by position, has been dropped."""
    n = len(labels)
    rel = {(u, v) for u in range(n) for v in range(n) if labels[u] == labels[v]}
    while True:
        keep = {(u, v) for u, v in rel if all(pair in rel for pair in zip(succ[u], succ[v]))}
        if keep == rel:
            return rel
        rel = keep


def test_refine_vs_pairwise_bisimulation():
    # seeded random integer transducers; a label fixes the number of inputs,
    # as a domain vertex fixes the edges a state reads
    rng = random.Random(5)
    merged = split = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        labels = [rng.randint(0, 3) for _ in range(n)]
        succ = [[rng.randrange(n) for _ in range(label % 3)] for label in labels]
        block = refine(labels, succ)
        assert {(u, v) for u in range(n) for v in range(n) if block[u] == block[v]} == \
            bisimilar_pairs(labels, succ)
        # blocks are numbered by their first node
        assert sorted(set(block)) == list(range(max(block) + 1))
        assert all(block[v] <= max(block[:v], default=-1) + 1 for v in range(n))
        merged += len(set(block)) < n
        split += len(set(block)) > len(set(labels))
    assert merged > 50 and split > 50
