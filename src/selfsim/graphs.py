"""Finite directed graphs and their path category.

Composition convention (pinned; the opposite of most graph libraries):

  * an edge e points from s(e) to r(e):      s(e) --e--> r(e)
  * a path is a string mu = e1 ... en with   s(e_i) = r(e_{i+1})
  * r(mu) = r(e1) and s(mu) = s(en)

so a path reads like function composition: the rightmost edge acts first,
and a path "extends to the right toward its source".  Diagram for mu = e1 e2:

      s(e2) --e2--> r(e2) = s(e1) --e1--> r(e1)
      = s(mu)                             = r(mu)

For a vertex v, the set vE^1 = {e : r(e) = v} (edges arriving at v) and
E^1 v = {e : s(e) = v} (edges leaving v).  "No sources" means every vE^1 is
nonempty; "no sinks" means every E^1 v is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    DanglingEndpointError,
    DuplicateIdError,
    NonComposableError,
    UnknownSymbolError,
)


@dataclass(frozen=True)
class Edge:
    id: str
    src: str  # s(e)
    dst: str  # r(e)


class Graph:
    """A finite directed graph with opaque string vertex and edge ids.

    Immutable after construction; all derived maps are precomputed.
    """

    def __init__(self, vertices, edges):
        vs = [str(v) for v in vertices]
        if len(set(vs)) != len(vs):
            raise DuplicateIdError("duplicate vertex id")
        self.vertices = tuple(sorted(vs))
        vset = set(self.vertices)
        es = []
        seen = set()
        for eid, src, dst in edges:
            eid, src, dst = str(eid), str(src), str(dst)
            if eid in seen:
                raise DuplicateIdError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if src not in vset or dst not in vset:
                raise DanglingEndpointError(f"edge {eid!r} references missing vertex")
            es.append(Edge(eid, src, dst))
        if seen & vset:
            raise DuplicateIdError(f"ids used for both a vertex and an edge: {sorted(seen & vset)}")
        es.sort(key=lambda e: e.id)
        self.edges = tuple(es)
        self._by_id = {e.id: e for e in self.edges}
        self._into = {v: tuple(e for e in self.edges if e.dst == v) for v in self.vertices}
        self._out = {v: tuple(e for e in self.edges if e.src == v) for v in self.vertices}

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._by_id

    def s(self, eid: str) -> str:
        try:
            return self._by_id[eid].src
        except KeyError:
            raise UnknownSymbolError(f"unknown edge {eid!r}") from None

    def r(self, eid: str) -> str:
        try:
            return self._by_id[eid].dst
        except KeyError:
            raise UnknownSymbolError(f"unknown edge {eid!r}") from None

    def range_edges(self, v: str):
        """vE^1: edges e with r(e) = v."""
        return self._into[v]

    def source_edges(self, v: str):
        """E^1 v: edges e with s(e) = v."""
        return self._out[v]

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Path:
    """A finite path; ``base`` is the range vertex when ``edges`` is empty."""

    base: str
    edges: tuple[str, ...] = ()

    @staticmethod
    def empty(v: str) -> "Path":
        return Path(v, ())

    @staticmethod
    def of(graph: Graph, edge_ids) -> "Path":
        """Build and check a path from a left-to-right edge id sequence."""
        ids = tuple(str(e) for e in edge_ids)
        if not ids:
            raise ValueError("Path.of needs at least one edge; use Path.empty(v)")
        for a, b in zip(ids, ids[1:]):
            if graph.s(a) != graph.r(b):
                raise NonComposableError(f"s({a}) = {graph.s(a)} != r({b}) = {graph.r(b)}")
        return Path(graph.r(ids[0]), ids)

    def __len__(self):
        return len(self.edges)

    def r(self, graph: Graph) -> str:
        return graph.r(self.edges[0]) if self.edges else self.base

    def s(self, graph: Graph) -> str:
        return graph.s(self.edges[-1]) if self.edges else self.base

    def __str__(self):
        return ".".join(self.edges) if self.edges else f"(empty@{self.base})"


def concat(graph: Graph, p: Path, q: Path) -> Path:
    """Concatenation p*q, defined when s(p) = r(q); p's edges come first."""
    if p.s(graph) != q.r(graph):
        raise NonComposableError(f"s(p) = {p.s(graph)} != r(q) = {q.r(graph)}")
    if not p.edges and not q.edges:
        return Path.empty(p.base)
    return Path(p.r(graph), p.edges + q.edges)


def enumerate_paths(graph: Graph, n: int, at: str | None = None) -> list[Path]:
    """All of E^n (or vE^n when ``at`` is given), lexicographic by edge ids.

    Built by prefixing: the length-k paths with range v are e mu for e in
    vE^1 and mu a length-(k-1) path with range s(e), so walking the edges in
    id order keeps every level lexicographic with no sort."""
    if n < 0:
        raise ValueError("path length must be >= 0")
    if at is not None and at not in graph.vertices:
        raise UnknownSymbolError(f"unknown vertex {at!r}")
    if n == 0:
        return [Path.empty(v) for v in ([at] if at is not None else graph.vertices)]
    seqs = dict.fromkeys(graph.vertices, [()])  # range vertex -> edge tuples
    for _ in range(n - 1):
        seqs = {v: [(e.id,) + t for e in graph.range_edges(v) for t in seqs[e.src]]
                for v in graph.vertices}
    return [Path(e.dst, (e.id,) + t)
            for e in (graph.edges if at is None else graph.range_edges(at)) for t in seqs[e.src]]


def strongly_connected_components(nodes, succ) -> list[list]:
    """Tarjan's strongly connected components of the digraph with arcs
    v -> w for w in succ(v), restricted to what ``nodes`` reach.  Iterative,
    so long chains do not hit the recursion limit.  Components come out in
    reverse topological order: an arc leaving a component enters one listed
    earlier."""
    low: dict = {}  # visit numbers live in the search frames; finished nodes get inf
    stack: list = []
    out: list[list] = []
    for root in nodes:
        if root in low:
            continue
        low[root] = len(low)
        stack.append(root)
        work = [(root, low[root], iter(succ(root)))]
        while work:
            v, index, arcs = work[-1]
            for w in arcs:
                if w not in low:
                    low[w] = len(low)
                    stack.append(w)
                    work.append((w, low[w], iter(succ(w))))
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        low[comp[-1]] = float("inf")
                    out.append(comp)
    return out


def cyclic_nodes(nodes, succ) -> set:
    """The nodes reachable from ``nodes`` that lie on a directed cycle."""
    return {v for comp in strongly_connected_components(nodes, succ)
            if len(comp) > 1 or comp[0] in succ(comp[0]) for v in comp}


def limit_nodes(nodes, succ) -> dict:
    """The nodes reachable from ``nodes`` and from a directed cycle, each
    mapped to a cycle node that reaches it: one Tarjan pass, then marks
    pushed forward along the components in topological order."""
    origin: dict = {}
    for comp in reversed(strongly_connected_components(nodes, succ)):
        if len(comp) > 1 or comp[0] in succ(comp[0]):
            origin.update(dict.fromkeys(comp, comp[0]))
        for v in comp:
            if v in origin:
                for w in succ(v):
                    origin.setdefault(w, origin[v])
    return origin


def bfs(starts, succ):
    """Breadth-first search from ``starts`` over the arcs v -label-> w for
    (label, w) in succ(v).  Yields each reached node in dequeue order with
    the parent map (node -> (parent, label), None for a start); a node's
    parent chain spells a shortest arc-label path to it, and succ(v) is only
    asked for after v has been yielded."""
    parent = dict.fromkeys(starts)
    queue = list(parent)
    for v in queue:  # the queue grows while it is walked
        yield v, parent
        for label, w in succ(v):
            if w not in parent:
                parent[w] = (v, label)
                queue.append(w)


def find_cycle(nodes, succ):
    """The first directed cycle that a depth-first search from ``nodes``, in
    order, closes over the arcs v -label-> w for (label, w) in succ(v): its
    nodes from the first one entered, and the labels of the arcs leaving
    each; None when nothing reached from ``nodes`` lies on a cycle.
    Iterative, so long chains do not hit the recursion limit."""
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


@dataclass(frozen=True)
class StructureReport:
    finite: bool
    no_sources: bool
    no_sinks: bool
    strongly_connected: bool
    primitive: bool

    def as_dict(self):
        return {
            "finite": self.finite,
            "no_sources": self.no_sources,
            "no_sinks": self.no_sinks,
            "strongly_connected": self.strongly_connected,
            "primitive": self.primitive,
        }


def validate_graph(graph: Graph) -> StructureReport:
    """Compute the structural flags exactly.

    Strong connectivity asks that vE*w is nonempty for all v, w, i.e. a
    directed walk from every vertex to every other (the one-vertex
    edgeless graph is excluded by convention): one search along the arcs
    s(e) -> r(e) and one against them, from the same vertex.  Primitivity
    (some power of the adjacency matrix strictly positive) is strong
    connectivity plus period 1, and the period is the gcd over the arcs of
    level(s(e)) + 1 - level(r(e)) for the forward search's levels.
    """
    n = len(graph.vertices)
    level: dict[str, int] = {}
    for v, parent in bfs(graph.vertices[:1], lambda u: ((None, e.dst) for e in graph.source_edges(u))):
        level[v] = 0 if parent[v] is None else level[parent[v][0]] + 1
    back = bfs(graph.vertices[:1], lambda u: ((None, e.src) for e in graph.range_edges(u)))
    strongly = bool(graph.edges) if n == 1 else len(level) == n and sum(1 for _ in back) == n
    # the gcd over no arcs is 0, so the empty graph stays vacuously primitive
    primitive = strongly and gcd(*(level[e.src] + 1 - level[e.dst] for e in graph.edges)) <= 1

    return StructureReport(
        finite=True,
        no_sources=all(graph.range_edges(v) for v in graph.vertices),
        no_sinks=all(graph.source_edges(v) for v in graph.vertices),
        strongly_connected=strongly,
        primitive=primitive,
    )
