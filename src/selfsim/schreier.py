"""Level-n Schreier graphs, the level-lowering projections, and distances.

Gamma_n has vertex set E^n and an (undirected) edge labelled a between mu
and a . mu whenever d(a) = r(mu).  The projection psi_n deletes the first
edge of each vertex path and restricts each label: (a : e mu -> f nu)
maps to (a|_e : mu -> nu).  For that to stay inside the labelling set the
generating set must be closed under inverses and restriction; build_schreier
extends it (with a warning) when it is not.

A Schreier graph is its integer level table, built with no word acted on
a path.  Level k lists E^k in enumerate_paths's order, one block per edge e
(in edge order) holding the level-(k-1) paths with range s(e).  It keeps
groups[v], the increasing indices of the paths with range v (a path's place
there is its position), and cols[a] for each label a, a state of the label
machine: the position of a . mu for each position mu of d(a).  With at[e]
the position where e's block starts in groups[r(e)], and a.e and a|_e from
the machine's row of a, a.(e mu) = (a.e)(a|_e . mu) reads

    cols_k[a][at[e] + p] = at[a.e] + cols_{k-1}[a|_e][p].

A walk up the tower keeps one level live; Gamma_n keeps the top level as
array('l') columns, and its vertices and arcs (and psi's arc_map) are
read-only views over them, in the order and with the types the lists had.
Read backwards, the identity says block e of a's column is all of a|_e's
column one level down, shifted by at[a.e]: psi_n slices Gamma_n's columns
and walks no tower.  The exports take each label with its inverse, whose arcs
are its own reversed, and merge the labels' edge keys u * size + v (u <= v)
into one key -> label bit mask map by set operations, then sort the keys.

Geodesic distance between the depth-n windows of two left-infinite paths
stays bounded over n exactly when the paths are asymptotically equivalent,
which the distance_profile helper exposes for cross-checks.  It searches
the columns: a window's position is at[e] of its first edge plus its
tail's position one level down.
"""

from __future__ import annotations

import warnings
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from .automaton import Automaton, Element, StateMachine, reachable_closure, word_key
from .errors import VertexNotInLevelError
from .graphs import Graph, Path, bfs, bfs_labels, dot_escape, enumerate_paths
from .infinite_paths import LeftInfinitePath


def default_generating_set(aut: Automaton) -> list[Element]:
    """Generators, inverses and units, closed under restriction."""
    return reachable_closure(aut, aut.basic_elements()).states


class _View(Sequence):
    """A read-only sequence of n items made on demand: item(i) for an
    index, each() (by default item over 0..n-1) for iteration."""

    def __init__(self, n, item, each=None):
        self._n, self._item = n, item
        self._each = each or (lambda: map(item, range(n)))

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("index out of range")
        return self._item(i)

    def __iter__(self):
        return self._each()


def _sizes(graph: Graph, n: int) -> list[dict[str, int]]:
    """sizes[k][v] = |vE^k| for k = 0..n."""
    sizes = [dict.fromkeys(graph.vertices, 1)]
    for _ in range(n):
        below = sizes[-1]
        sizes.append({v: sum(below[e.src] for e in graph.range_edges(v)) for v in graph.vertices})
    return sizes


def _at(graph: Graph, below: dict[str, int]) -> dict[str, int]:
    """at[e], where e's block starts in groups[r(e)], at the level above the
    one whose paths number ``below`` by range."""
    at, fill = {}, dict.fromkeys(graph.vertices, 0)
    for e in graph.edges:
        at[e.id] = fill[e.dst]
        fill[e.dst] += below[e.src]
    return at


def _groups(graph: Graph, sizes, k: int) -> dict[str, list[int]]:
    """groups at level k, from the path counts sizes[k - 1]."""
    if k == 0:
        return {v: [i] for i, v in enumerate(graph.vertices)}
    below, start = sizes[k - 1], 0
    groups = {v: [] for v in graph.vertices}
    for e in graph.edges:  # e's block, in edge order, is the next run of indices
        groups[e.dst].extend(range(start, start + below[e.src]))
        start += below[e.src]
    return groups


def _path_at(graph: Graph, sizes, i: int) -> Path:
    """The i-th path of E^n, n = len(sizes) - 1, in enumerate_paths order."""
    if len(sizes) == 1:
        return Path.empty(graph.vertices[i])
    edges, choices = [], graph.edges
    for below in reversed(sizes[:-1]):
        for e in choices:
            if i < below[e.src]:
                break
            i -= below[e.src]
        edges.append(e.id)
        choices = graph.range_edges(e.src)
    return Path(graph.r(edges[0]), tuple(edges))


def _position(graph: Graph, sizes, p: Path) -> int | None:
    """p's position among the paths of length n = len(sizes) - 1 with range
    p.base; None when p is not such a path."""
    if len(p.edges) != len(sizes) - 1 or p.base not in sizes[0]:
        return None
    pos, choices = 0, graph.range_edges(p.base)
    for below, eid in zip(reversed(sizes[:-1]), p.edges):
        for e in choices:
            if e.id == eid:
                break
            pos += below[e.src]
        else:
            return None
        choices = graph.range_edges(e.src)
    return pos


def _moves(sm: StateMachine, cols) -> dict[str, list]:
    """vertex -> (column, codomain) of each label (state, column) defined there."""
    moves: dict[str, list] = {}
    for a, col in cols:
        moves.setdefault(sm.doms[a], []).append((col, sm.cods[a]))
    return moves


def _distance(moves, src, dst):
    """Arcs on a shortest path from src to dst, None when unreachable, over
    the nodes (vertex, position) and the arcs (v, p) -> (cod, col[p]): each
    label's inverse is a label, so these reach what the graph's edges do."""
    for node, parent in bfs([src], lambda node: [(None, (cod, col[node[1]]))
                                                 for col, cod in moves.get(node[0], ())]):
        if node == dst:  # the parent chain is a shortest path: count its arcs
            return len(bfs_labels(parent, node))
    return None


@dataclass
class SchreierGraph:
    """Gamma_n as its level-n table (see the module docstring): groups[v]
    and, for each label in arc order, cols[label], as array('l') columns.
    The labels are states of ``machine``, and each one's inverse is one."""

    level: int
    automaton: Automaton
    machine: StateMachine
    groups: dict[str, array]
    cols: dict[int, array]  # label state -> column, in arc order

    @property
    def vertices(self) -> Sequence[Path]:
        """E^n in enumerate_paths order, as a view."""
        graph, level = self.automaton.graph, self.level
        sizes = _sizes(graph, level)
        return _View(sum(sizes[-1].values()), lambda i: _path_at(graph, sizes, i),
                     lambda: iter(enumerate_paths(graph, level)))

    @property
    def arcs(self) -> Sequence[tuple[int, int, Element]]:
        """(mu index, (a.mu) index, label a), label by label in arc order, as a view."""
        sm, groups, cols = self.machine, self.groups, self.cols

        def item(k):
            a, p = self._arc_place(k)
            return groups[sm.doms[a]][p], groups[sm.cods[a]][cols[a][p]], sm.states[a]

        def each():
            return chain.from_iterable(
                zip(groups[sm.doms[a]], map(groups[sm.cods[a]].__getitem__, col),
                    repeat(sm.states[a])) for a, col in cols.items())
        return _View(sum(map(len, cols.values())), item, each)

    def _arc_place(self, k: int) -> tuple[int, int]:
        """(label, position in its column) of the k-th arc."""
        starts = list(accumulate(map(len, self.cols.values()), initial=0))
        j = bisect_right(starts, k) - 1
        return list(self.cols)[j], k - starts[j]

    def _vertex_position(self, p: Path) -> int:
        pos = _position(self.automaton.graph, _sizes(self.automaton.graph, self.level), p)
        if pos is None:
            raise VertexNotInLevelError(f"{p} is not a vertex of level {self.level}")
        return pos

    def undirected_edges(self):
        """Edges deduplicated across orientation and inverse labels, keyed
        (min index, max index) with a sorted label tuple."""
        keys, masks, size, labels = self._edges()
        return {(k // size, k % size): labels[m] for k, m in zip(keys, masks)}

    def _edges(self):
        """(keys, masks, size, labels): each undirected edge u <= v as the
        key u * size + v, keys in increasing order, and its label mask; bit r
        of a mask marks the r-th label name and labels[mask] is the tuple of
        those names.  A label is named by the lesser name of it and its inverse."""
        sm, groups = self.machine, self.groups
        size = sum(map(len, groups.values()))
        named, paired, inverse = [], set(), sm.inverses()
        for a in self.cols:  # one label per inverse pair: the other's arcs are these reversed
            if a not in paired:
                paired.add(inverse[a])
                named.append((a, min(sm.states[a].name(), sm.states[inverse[a]].name())))
        names = sorted({name for _, name in named})
        masks = {}  # key -> the bits of its label names
        for a, name in named:
            bit, images = 1 << names.index(name), groups[sm.cods[a]]
            edges = {u * size + v if u <= v else v * size + u
                     for u, p in zip(groups[sm.doms[a]], self.cols[a]) for v in [images[p]]}
            shared = edges.intersection(masks)
            masks.update(zip(shared, map(bit.__or__, map(masks.__getitem__, shared))))
            edges -= shared
            masks.update(zip(edges, repeat(bit)))
        labels = {m: tuple(n for r, n in enumerate(names) if m >> r & 1) for m in {*masks.values()}}
        # no mask bits in the keys: to 2^15 vertices they fit CPython's fast one-digit ints
        keys = sorted(masks)
        return keys, [*map(masks.__getitem__, keys)], size, labels

    def is_connected(self) -> bool:
        """Union-find over the columns: each arc joins mu and a.mu."""
        sm, groups = self.machine, self.groups
        root = list(range(sum(map(len, groups.values()))))

        def find(i):
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i
        for a, col in self.cols.items():
            images = groups[sm.cods[a]]
            for u, p in zip(groups[sm.doms[a]], col):
                root[find(u)] = find(images[p])
        return len({find(i) for i in range(len(root))}) <= 1

    def _vertex_names(self, quote=str) -> list[str]:
        """str of each vertex path (its vertex when empty), built by prefixing,
        with quote applied to each vertex and edge name."""
        graph = self.automaton.graph
        if not self.level:
            return list(map(quote, graph.vertices))
        dotted = dict.fromkeys(graph.vertices, [""])  # "." + name, by range
        for _ in range(self.level - 1):
            dotted = {v: [s + t for e in graph.range_edges(v) for s in [f".{quote(e.id)}"]
                          for t in dotted[e.src]] for v in graph.vertices}
        return [s + t for e in graph.edges for s in [quote(e.id)] for t in dotted[e.src]]

    def to_json(self) -> dict:
        names = self._vertex_names()
        keys, masks, size, labels = self._edges()
        return {
            "schema": 1,
            "level": self.level,
            "vertices": names,
            "edges": [{"u": names[k // size], "v": names[k % size], "labels": [*labels[m]]}
                      for k, m in zip(keys, masks)],
        }

    def to_dot(self) -> str:
        keys, masks, size, labels = self._edges()
        joined = {m: dot_escape(",".join(t)) for m, t in labels.items()}
        lines = [f"graph schreier_level_{self.level} {{"]
        lines += [f'  v{i} [label="{name}"];'
                  for i, name in enumerate(self._vertex_names(dot_escape))]
        lines += [f'  v{k // size} -- v{k % size} [label="{joined[m]}"];'
                  for k, m in zip(keys, masks)]
        del keys, masks  # before the text doubles the lines
        lines.append("}")
        return "\n".join(lines)


def _label_set(aut: Automaton, gen_set) -> StateMachine:
    """The machine of the generating set closed under restriction and
    inverses, in word_key order: one closure of the set and its inverses, as
    (a^-1)|_e = (a|_{a^-1.e})^-1.  A search from the set tells what it lacked."""
    sm = reachable_closure(aut, [*gen_set, *(aut.inverse(a) for a in gen_set)])
    given = {sm.state_index(aut, a) for a in gen_set}
    reached = sum(1 for _ in bfs(given, lambda i: ((None, j) for _, j in sm.rows[i].values())))
    if reached != len(given):
        warnings.warn("generating set was not closed under restriction; extended")
    if reached != len(sm):
        warnings.warn("generating set was not closed under inverses; extended")
    return sm.renumbered(sorted(range(len(sm)), key=lambda i: word_key(sm.states[i].word)))


def _tower(graph: Graph, sm: StateMachine, n: int):
    """Yield (groups, cols) for the levels 0..n: the module docstring's
    tables as lists, cols indexed by the states of the restriction-closed ``sm``."""
    sizes = _sizes(graph, n)
    cols = [[0]] * len(sm)
    yield _groups(graph, sizes, 0), cols
    for k in range(1, n + 1):
        at = _at(graph, sizes[k - 1])
        cols = [[s + p for img, succ in row.values() for s in [at[img]] for p in cols[succ]]
                for row in sm.rows]  # s: one lookup of at[a.e] per block
        yield _groups(graph, sizes, k), cols


def build_schreier(aut: Automaton, gen_set, n: int) -> SchreierGraph:
    """The exact level-n Schreier graph with deterministic vertex order."""
    if n < 0:
        raise ValueError("level must be >= 0")
    sm = _label_set(aut, gen_set)
    for groups, cols in _tower(aut.graph, sm, n):
        pass
    return SchreierGraph(n, aut, sm, {v: array("l", g) for v, g in groups.items()},
                         {a: array("l", col) for a, col in enumerate(cols)})


@dataclass
class PsiMorphism:
    vertex_map: dict[int, int]                     # index in Gamma_n -> index in Gamma_{n-1}
    arc_map: Sequence[tuple[tuple[int, int, str], tuple[int, int, str]]]  # a view


def project_psi(gamma: SchreierGraph) -> tuple[SchreierGraph, PsiMorphism]:
    """psi_n : Gamma_n -> Gamma_{n-1}, dropping the first edge of every
    vertex path and restricting every label along it, by slicing Gamma_n's
    columns."""
    if gamma.level < 1:
        raise ValueError("psi needs level >= 1")
    aut, sm, n = gamma.automaton, gamma.machine, gamma.level
    graph = aut.graph
    sizes = _sizes(graph, n - 1)
    below = sizes[n - 1]
    at = _at(graph, below)
    cols = {}
    for a, col in gamma.cols.items():
        for e, (img, succ) in sm.rows[a].items():
            if succ not in cols:  # block e of a's column is all of a|_e's, shifted by at[a.e]
                block, shift = col[at[e]:at[e] + below[graph.s(e)]], at[img]
                cols[succ] = array("l", [p - shift for p in block]) if shift else block
    lower = _groups(graph, sizes, n - 1)
    tails = [j for e in graph.edges for j in lower[e.src]]
    projected = SchreierGraph(n - 1, aut, sm, {v: array("l", g) for v, g in lower.items()}, cols)
    names = [s.name() for s in sm.states]

    def arc_map(k):
        a, p = gamma._arc_place(k)
        succ = next(j for e, (_, j) in sm.rows[a].items() if p < at[e] + below[graph.s(e)])
        u, v = gamma.groups[sm.doms[a]][p], gamma.groups[sm.cods[a]][gamma.cols[a][p]]
        return (u, v, names[a]), (tails[u], tails[v], names[succ])
    return projected, PsiMorphism(dict(enumerate(tails)),
                                  _View(sum(map(len, gamma.cols.values())), arc_map))


def geodesic_distance(gamma: SchreierGraph, mu: Path, nu: Path):
    """BFS distance ignoring labels; None when unreachable."""
    src, dst = (mu.base, gamma._vertex_position(mu)), (nu.base, gamma._vertex_position(nu))
    return _distance(_moves(gamma.machine, gamma.cols.items()), src, dst)


def distance_profile(aut: Automaton, x: LeftInfinitePath, y: LeftInfinitePath,
                     max_level: int, gen_set=None) -> list:
    """Geodesic distances between the depth-n windows for n = 1..max_level;
    bounded over all n exactly for asymptotically equivalent paths.  One
    walk up the tower, with one level live."""
    gens = gen_set if gen_set is not None else default_generating_set(aut)
    graph = aut.graph
    sm = _label_set(aut, gens)
    sizes = _sizes(graph, max_level)
    out, px, py = [], 0, 0
    for n, (_, cols) in enumerate(_tower(graph, sm, max_level)):
        if n:
            at = _at(graph, sizes[n - 1])
            ex, ey = x.edge_at(-n), y.edge_at(-n)
            px, py = at[ex] + px, at[ey] + py  # first edge's block, then the tail's position
            out.append(_distance(_moves(sm, enumerate(cols)), (graph.r(ex), px), (graph.r(ey), py)))
    return out
