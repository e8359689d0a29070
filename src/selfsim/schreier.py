"""Level-n Schreier graphs, the level-lowering projections, and distances.

Gamma_n has vertex set E^n and an (undirected) edge labelled a between mu
and a . mu whenever d(a) = r(mu).  The projection psi_n deletes the first
edge of each vertex path and restricts each label: (a : e mu -> f nu)
maps to (a|_e : mu -> nu).  For that to stay inside the labelling set the
generating set must be closed under inverses and restriction; build_schreier
extends it (with a warning) when it is not.

Arcs come from integer level tables, not from acting words on paths, and
the tables hold no paths: the vertices are enumerate_paths's list.  Level k
lists E^k in that order, one block per edge e (in edge order) holding the
level-(k-1) paths with range s(e).  It keeps groups[v], the increasing
indices of the paths with range v (a path's place there is its position),
and cols[a] for each state a of the label machine: the position of
a . mu for each position mu of d(a).  With at[e] the position where e's
block starts in groups[r(e)], and a.e and a|_e from the machine's row of
a, a.(e mu) = (a.e)(a|_e . mu) reads

    cols_k[a][at[e] + p] = at[a.e] + cols_{k-1}[a|_e][p].

A walk up the tower keeps one level live.  Gamma_n's arcs are the top
level's columns.  psi_n maps the p-th path of e's block to the p-th
level-(n-1) path with range s(e), found by the ranges of the level-(n-1)
paths with no walk up the tower; the label machine's rows restrict labels.

Geodesic distance between the depth-n windows of two left-infinite paths
stays bounded over n exactly when the paths are asymptotically equivalent,
which the distance_profile helper exposes for cross-checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import groupby, islice, repeat
from operator import itemgetter

from .automaton import Automaton, Element, StateMachine, reachable_closure, word_key
from .errors import VertexNotInLevelError
from .graphs import Graph, Path, bfs, enumerate_paths
from .infinite_paths import LeftInfinitePath


def default_generating_set(aut: Automaton, nucleus=None) -> list[Element]:
    """Generators, inverses and units (plus the nucleus when given), closed
    under restriction."""
    seeds = aut.basic_elements()
    if nucleus is not None:
        seeds.extend(nucleus.states)
    return reachable_closure(aut, seeds).states


@dataclass
class SchreierGraph:
    level: int
    automaton: Automaton
    gen_set: list[Element]
    vertices: list[Path]
    arcs: list[tuple[int, int, Element]]  # (mu index, (a.mu) index, label element)

    def vertex_index(self, p: Path) -> int:
        if not hasattr(self, "_index"):
            self._index = {(q.base, q.edges): i for i, q in enumerate(self.vertices)}
        try:
            return self._index[(p.base, p.edges)]
        except KeyError:
            raise VertexNotInLevelError(f"{p} is not a vertex of level {self.level}") from None

    def undirected_edges(self):
        """Edges deduplicated across orientation and inverse labels, keyed
        (min index, max index) with a sorted label tuple."""
        aut = self.automaton
        out: dict[tuple[int, int], set[str]] = {}
        for label, block in groupby(self.arcs, itemgetter(2)):
            name = min(aut.canonical(label).name(), aut.canonical(aut.inverse(label)).name())
            for u, v, _ in block:
                out.setdefault((u, v) if u <= v else (v, u), set()).add(name)
        return {k: tuple(sorted(out[k])) for k in sorted(out)}

    def neighbours(self, i: int):
        adj = getattr(self, "_adj", None)
        if adj is None:
            adj = [set() for _ in self.vertices]
            for (u, v, _label) in self.arcs:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return adj[i]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        reached = bfs([0], lambda u: zip(repeat(None), self.neighbours(u)))
        return sum(1 for _ in reached) == len(self.vertices)

    def _vertex_names(self) -> list[str]:
        return [str(p) if p.edges else p.base for p in self.vertices]

    def to_json(self) -> dict:
        names = self._vertex_names()
        return {
            "schema": 1,
            "level": self.level,
            "vertices": names,
            "edges": [{"u": names[u], "v": names[v], "labels": list(labels)}
                      for (u, v), labels in self.undirected_edges().items()],
        }

    def to_dot(self) -> str:
        lines = [f"graph schreier_level_{self.level} {{"]
        lines += [f'  v{i} [label="{name}"];' for i, name in enumerate(self._vertex_names())]
        for (u, v), labels in self.undirected_edges().items():
            lines.append(f'  v{u} -- v{v} [label="{",".join(labels)}"];')
        lines.append("}")
        return "\n".join(lines)


def _label_set(aut: Automaton, gen_set) -> StateMachine:
    """The machine of the generating set closed under restriction and
    inverses, its states in word_key order.  The inverses of a
    restriction-closed set are restriction closed, as (a^-1)|_e =
    (a|_{a^-1.e})^-1, so closing under inverses adds only inverses."""
    closure = reachable_closure(aut, gen_set)
    if len(closure) != len({aut.canonical_id(a) for a in gen_set}):
        warnings.warn("generating set was not closed under restriction; extended")
    both = reachable_closure(aut, closure.states + [aut.inverse(a) for a in closure.states])
    if len(both) != len(closure):
        warnings.warn("generating set was not closed under inverses; extended")
    return reachable_closure(aut, sorted(both.states, key=lambda e: word_key(e.word)))


def _tower(graph: Graph, sm: StateMachine, n: int):
    """Yield (groups, cols) for the levels 0..n: the module docstring's
    tables, cols indexed by the states of the restriction-closed ``sm``."""
    groups = {v: [i] for i, v in enumerate(graph.vertices)}
    cols = [[0]] * len(sm)
    yield groups, cols
    for _ in range(n):
        start, total = {}, 0  # edge -> level-k index of its block's first path
        for e in graph.edges:
            start[e.id] = total
            total += len(groups[e.src])
        nxt, at = {}, {}
        for v in graph.vertices:
            grp = nxt[v] = []
            for e in graph.range_edges(v):
                at[e.id] = len(grp)
                grp.extend(range(start[e.id], start[e.id] + len(groups[e.src])))
        cols = [[at[img] + p for img, succ in row.values() for p in cols[succ]]
                for row in sm.rows]
        groups = nxt
        yield groups, cols


def _schreier_graphs(aut: Automaton, gen_set, bottom: int, top: int):
    """Gamma_bottom, ..., Gamma_top from one walk up the level tables."""
    sm = _label_set(aut, gen_set)
    tower = islice(_tower(aut.graph, sm, top), bottom, None)
    for level, (groups, cols) in enumerate(tower, bottom):
        arcs = []
        for a, cod, col in zip(sm.states, sm.cods, cols):
            arcs += zip(groups[a.dom], map(groups[cod].__getitem__, col), repeat(a))
        yield SchreierGraph(level, aut, sm.states, enumerate_paths(aut.graph, level), arcs)


def build_schreier(aut: Automaton, gen_set, n: int) -> SchreierGraph:
    """The exact level-n Schreier graph with deterministic vertex order."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return next(_schreier_graphs(aut, gen_set, n, n))


@dataclass
class PsiMorphism:
    vertex_map: dict[int, int]                     # index in Gamma_n -> index in Gamma_{n-1}
    arc_map: list[tuple[tuple[int, int, str], tuple[int, int, str]]]


def project_psi(gamma: SchreierGraph) -> tuple[SchreierGraph, PsiMorphism]:
    """psi_n : Gamma_n -> Gamma_{n-1}, dropping the first edge of every
    vertex path and restricting every label along it.  Gamma_n's vertices
    are in build_schreier's order."""
    if gamma.level < 1:
        raise ValueError("psi needs level >= 1")
    aut = gamma.automaton
    graph = aut.graph
    lower = enumerate_paths(graph, gamma.level - 1)
    groups: dict[str, list[int]] = {v: [] for v in graph.vertices}
    for j, p in enumerate(lower):
        groups[p.base].append(j)
    tails = [j for e in graph.edges for j in groups[e.src]]
    heads = [p.edges[0] for p in gamma.vertices]
    sm = reachable_closure(aut, gamma.gen_set)
    names = [s.name() for s in sm.states]
    arcs = []
    arc_map = []
    seen = set()
    for label, block in groupby(gamma.arcs, itemgetter(2)):
        i = sm.state_index(aut, label)
        row = sm.rows[i]
        for u, v, _ in block:
            j = row[heads[u]][1]  # the label's restriction along the first edge
            pu, pv = tails[u], tails[v]
            if (pu, pv, j) not in seen:
                seen.add((pu, pv, j))
                arcs.append((pu, pv, sm.states[j]))
            arc_map.append(((u, v, names[i]), (pu, pv, names[j])))
    projected = SchreierGraph(gamma.level - 1, aut, gamma.gen_set, lower, arcs)
    return projected, PsiMorphism(dict(enumerate(tails)), arc_map)


def geodesic_distance(gamma: SchreierGraph, mu: Path, nu: Path):
    """BFS distance ignoring labels; None when unreachable."""
    src, dst = gamma.vertex_index(mu), gamma.vertex_index(nu)
    for u, parent in bfs([src], lambda u: zip(repeat(None), gamma.neighbours(u))):
        if u == dst:  # the parent chain is a shortest path: count its arcs
            d = 0
            while parent[u] is not None:
                u, d = parent[u][0], d + 1
            return d
    return None


def distance_profile(aut: Automaton, x: LeftInfinitePath, y: LeftInfinitePath,
                     max_level: int, gen_set=None, nucleus=None,
                     _cache: dict | None = None) -> list:
    """Geodesic distances between the depth-n windows for n = 1..max_level;
    bounded over all n exactly for asymptotically equivalent paths."""
    gens = gen_set if gen_set is not None else default_generating_set(aut, nucleus)
    levels = range(1, max_level + 1)
    gammas = _cache if _cache is not None else {}
    if not all(n in gammas for n in levels):
        gammas.update((g.level, g) for g in _schreier_graphs(aut, gens, 1, max_level))
    return [geodesic_distance(gammas[n], x.window_path(aut.graph, n), y.window_path(aut.graph, n))
            for n in levels]
