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
and cols[a] for each label class a: the position of a . mu for each
position mu of d(a).  With at[e] the position where e's block starts in
groups[r(e)], and a.e and a|_e from the class row of a, a.(e mu) =
(a.e)(a|_e . mu) reads

    cols_k[a][at[e] + p] = at[a.e] + cols_{k-1}[a|_e][p].

A walk up the tower keeps one level live.  Gamma_n's arcs are the top
level's columns.  psi_n maps the p-th path of e's block to the p-th
level-(n-1) path with range s(e), which it finds by the ranges of the
enumerated level-(n-1) paths, with no walk up the tower.

Geodesic distance between the depth-n windows of two left-infinite paths
stays bounded over n exactly when the paths are asymptotically equivalent,
which the distance_profile helper exposes for cross-checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import groupby, islice, repeat
from operator import itemgetter

from .automaton import Automaton, Element, reachable_closure, word_key
from .errors import VertexNotInLevelError
from .graphs import Path, bfs, enumerate_paths
from .infinite_paths import LeftInfinitePath


def default_generating_set(aut: Automaton, nucleus=None) -> list[Element]:
    """Generators, inverses and units (plus the nucleus when given), closed
    under restriction."""
    seeds = [aut.unit(v) for v in aut.graph.vertices]
    for name in sorted(aut.generators):
        seeds.append(aut.generator(name))
        seeds.append(aut.inverse(aut.generator(name)))
    if nucleus is not None:
        seeds.extend(nucleus.states)
    return [aut.canonical(s) for s in reachable_closure(aut, seeds).states]


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


def _label_set(aut: Automaton, gen_set) -> list[Element]:
    """The generating set closed under restriction and inverses, sorted."""
    closed = {aut.canonical_id(a): aut.canonical(a) for a in gen_set}
    closure = reachable_closure(aut, list(closed.values()))
    if len(closure.states) != len(closed):
        warnings.warn("generating set was not closed under restriction; extended")
    labels = [aut.canonical(s) for s in closure.states]
    # inverses must be present too
    for a in list(labels):
        inv = aut.inverse(a)
        if aut.canonical_id(inv) not in {aut.canonical_id(x) for x in labels}:
            warnings.warn("generating set was not closed under inverses; extended")
            labels.append(aut.canonical(inv))
    labels.sort(key=lambda e: word_key(e.word))
    return labels


def _tower(aut: Automaton, class_ids, n: int):
    """Yield (groups, cols) for the levels 0..n: the module docstring's
    tables.  The classes must be closed under restriction, as _label_set's
    are."""
    graph = aut.graph
    rows = {c: aut._registry.row(c) for c in class_ids}
    groups = {v: [i] for i, v in enumerate(graph.vertices)}
    cols = dict.fromkeys(rows, [0])
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
        cols = {c: [at[img] + p for _, img, succ in row for p in cols[succ]]
                for c, row in rows.items()}
        groups = nxt
        yield groups, cols


def _schreier_graphs(aut: Automaton, gen_set, bottom: int, top: int):
    """Gamma_bottom, ..., Gamma_top from one walk up the level tables."""
    labels = _label_set(aut, gen_set)
    ids = [aut.canonical_id(a) for a in labels]
    tower = islice(_tower(aut, ids, top), bottom, None)
    for level, (groups, cols) in enumerate(tower, bottom):
        arcs = []
        for a, c in zip(labels, ids):
            arcs += zip(groups[a.dom], map(groups[aut.cod(a)].__getitem__, cols[c]), repeat(a))
        yield SchreierGraph(level, aut, labels, enumerate_paths(aut.graph, level), arcs)


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
    reps = aut._registry.reps
    arcs = []
    arc_map = []
    seen = set()
    for label, block in groupby(gamma.arcs, itemgetter(2)):
        cid = aut.canonical_id(label)
        name = reps[cid].name()
        # first edge -> its restriction's class, element and name
        restrict = {e: (succ, reps[succ], reps[succ].name())
                    for e, _, succ in aut._registry.row(cid)}
        for u, v, _ in block:
            succ, restricted, rname = restrict[heads[u]]
            pu, pv = tails[u], tails[v]
            key = (pu, pv, succ)
            if key not in seen:
                seen.add(key)
                arcs.append((pu, pv, restricted))
            arc_map.append(((u, v, name), (pu, pv, rname)))
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
