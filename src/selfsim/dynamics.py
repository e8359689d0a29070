"""Deciders for the dynamics on the limit space and limit solenoid.

Asymptotic equivalence of eventually periodic paths is decided on a finite
product transducer.  A nucleus run for x ~ y is a sequence (h_n)_{n<0} of
nucleus states with h_n . x_n = y_n and h_n|_{x_n} = h_{n+1}.  Align both
paths to the common period L = lcm of their cycle lengths; left of the
tails the allowed transitions depend only on n mod L, so runs correspond
to paths in a finite digraph on (phase, state) nodes whose forward map is
(partial) deterministic.  A left-infinite run exists exactly when a state
is reachable from a directed cycle of that digraph and then survives the
explicit tail; enumeration of classes walks every cycle and reads the
output edges off the run.

Regularity and Hausdorffness reduce to the fixed-edge digraph on nucleus
states (arcs h -e-> h|_e whenever h . e = e): an element of G fixing a
right-infinite path with never-unit restrictions pushes, deep enough, into
the nucleus, and conversely any cycle of non-unit states realizes such a
pair.  Regular = no cycle at all; non-Hausdorff = some cycle all of whose
states can reach a unit state inside the digraph (the unit-reaching arcs
are exactly the strongly fixed extensions).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .automaton import Automaton, Element, word_key
from .errors import DomainMismatchError, NotStronglyConnectedError
from .graphs import Graph, Path, cyclic_nodes, limit_nodes, validate_graph
from .infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath
from .nucleus import Nucleus


def shift_class(graph: Graph, x: LeftInfinitePath) -> LeftInfinitePath:
    """Delete the rightmost edge; descends to asymptotic-equivalence classes."""
    return x.shift(graph)


# -- the product transducer ----------------------------------------------------


def _zone_tables(L: int, boundary: int, edge_fn):
    """Edges of the periodic zone by phase: positions boundary-L .. boundary-1."""
    table = {}
    for n in range(boundary - L, boundary):
        table[n % L] = edge_fn(n)
    return table


def _left_arrival_states(aut: Automaton, nuc: Nucleus, edge_x, edge_y,
                         boundary: int, L: int) -> list[Element]:
    """States h_boundary admitting a left-infinite nucleus run on positions
    n < boundary; edge_y = None drops the output constraint (class mode)."""
    graph = aut.graph
    ex = _zone_tables(L, boundary, edge_x)
    ey = _zone_tables(L, boundary, edge_y) if edge_y is not None else None

    state_of = {}
    nodes = []
    for h in nuc.states:
        cid = aut.canonical_id(h)
        state_of[cid] = h
        for p in range(L):
            if h.dom == graph.r(ex[p]):
                nodes.append((p, cid))

    F = {}
    for (p, cid) in nodes:
        h = state_of[cid]
        img, rw = aut.word_act_edge(h.word, ex[p])
        if ey is not None and img != ey[p]:
            continue
        succ = Element(graph.s(ex[p]), rw)
        F[(p, cid)] = ((p + 1) % L, aut.canonical_id(succ))

    bp = boundary % L
    arrivals = {cid: state_of[cid] for (p, cid) in limit_nodes(nodes, _arcs(F)) if p == bp}
    return sorted(arrivals.values(), key=lambda h: (word_key(h.word), h.dom))


def _arcs(F):
    """The successor function of the partial map F, for the graphs helpers."""
    return lambda u: (F[u],) if u in F else ()


@dataclass(frozen=True)
class AeWitness:
    entry_state: str          # nucleus state entering the tail from the periodic zone
    tail_run: tuple[tuple[int, str, str], ...]  # (position, state name, output edge)


def ae_equivalent(x: LeftInfinitePath, y: LeftInfinitePath, nuc: Nucleus,
                  want_witness: bool = False):
    """Nucleus-run decision of x ~_ae y for left-infinite paths."""
    aut = nuc.automaton
    graph = aut.graph
    T = max(len(x.tail), len(y.tail))
    L = lcm(len(x.cycle), len(y.cycle))
    arrivals = _left_arrival_states(aut, nuc, x.edge_at, y.edge_at, -T, L)
    for h in arrivals:
        state = h
        run = []
        ok = True
        for n in range(-T, 0):
            e = x.edge_at(n)
            if state.dom != graph.r(e):
                ok = False
                break
            img, rw = aut.word_act_edge(state.word, e)
            if img != y.edge_at(n):
                ok = False
                break
            run.append((n, aut.canonical(state).name(), img))
            state = Element(graph.s(e), rw)
        if ok:
            if want_witness:
                return True, AeWitness(aut.canonical(h).name(), tuple(run))
            return True
    return (False, None) if want_witness else False


def ae_class(x: LeftInfinitePath, nuc: Nucleus) -> list[LeftInfinitePath]:
    """All left-infinite paths asymptotically equivalent to x, read off the
    maximal consistent runs; at most |nucleus| of them."""
    aut = nuc.automaton
    graph = aut.graph
    T = len(x.tail)
    L = len(x.cycle)
    boundary = -T
    ex = _zone_tables(L, boundary, x.edge_at)

    state_of = {}
    nodes = []
    for h in nuc.states:
        cid = aut.canonical_id(h)
        state_of[cid] = h
        for p in range(L):
            if h.dom == graph.r(ex[p]):
                nodes.append((p, cid))
    F = {}
    out_edge = {}
    for (p, cid) in nodes:
        h = state_of[cid]
        img, rw = aut.word_act_edge(h.word, ex[p])
        succ = Element(graph.s(ex[p]), rw)
        F[(p, cid)] = ((p + 1) % L, aut.canonical_id(succ))
        out_edge[(p, cid)] = img

    members = {}
    for u in sorted(cyclic_nodes(nodes, _arcs(F))):
        # outputs around u's cycle; the run is k-periodic left of u's position
        cycle_out = []
        cur = u
        while True:
            cycle_out.append(out_edge[cur])
            cur = F[cur]
            if cur == u:
                break
        p0 = u[0]
        n1 = (boundary - 1) - ((boundary - 1 - p0) % L)  # largest zone position = p0 mod L
        tail_out = []
        state = state_of[u[1]]
        for n in range(n1, 0):
            e = x.edge_at(n)
            img, rw = aut.word_act_edge(state.word, e)
            tail_out.append(img)
            state = Element(graph.s(e), rw)
        member = LeftInfinitePath.make(graph, cycle_out, tail_out)
        members[member] = True
    return sorted(members, key=lambda m: (m.cycle, m.tail))


def ae_equivalent_bi(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus) -> bool:
    """Bi-infinite asymptotic equivalence: a left-infinite run that survives
    the centers and acts correctly on the right-infinite tails."""
    aut = nuc.automaton
    graph = aut.graph
    a0 = min(x.anchor, y.anchor)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    L = lcm(len(x.left_cycle), len(y.left_cycle))
    arrivals = _left_arrival_states(aut, nuc, x.edge_at, y.edge_at, a0, L)
    ty = y.right_tail(graph, b0)
    tx = x.right_tail(graph, b0)
    for h in arrivals:
        state = h
        ok = True
        for n in range(a0, b0):
            e = x.edge_at(n)
            if state.dom != graph.r(e):
                ok = False
                break
            img, rw = aut.word_act_edge(state.word, e)
            if img != y.edge_at(n):
                ok = False
                break
            state = Element(graph.s(e), rw)
        if ok and aut.act_infinite(state, tx) == ty:
            return True
    return False


# -- regularity and Hausdorffness ------------------------------------------------


def _fixed_edge_digraph(nuc: Nucleus):
    """Arcs h -e-> h|_e for nucleus states with h . e = e (units included)."""
    aut = nuc.automaton
    graph = aut.graph
    arcs = {}
    for h in nuc.states:
        cid = aut.canonical_id(h)
        arcs.setdefault(cid, [])
        for e in graph.range_edges(h.dom):
            img, rw = aut.word_act_edge(h.word, e.id)
            if img == e.id:
                succ = Element(e.src, rw)
                arcs[cid].append((e.id, aut.canonical_id(succ)))
    return arcs


@dataclass(frozen=True)
class IrregularityWitness:
    element: str
    fixed_path: RightInfinitePath


@dataclass(frozen=True)
class NonHausdorffWitness:
    element: str
    fixed_path: RightInfinitePath
    strongly_fixed_extension: tuple[str, ...]


def _find_cycle(candidates: set, arcs, restrict_to: set):
    """A directed cycle within restrict_to, as (states, edge labels), or None."""
    color = {}
    for start in sorted(candidates):
        if start in color:
            continue
        stack = [(start, iter(arcs.get(start, ())))]
        color[start] = "gray"
        trail = [start]
        labels = []
        while stack:
            node, it = stack[-1]
            advanced = False
            for (e, succ) in it:
                if succ not in restrict_to:
                    continue
                if color.get(succ) == "gray":
                    i = trail.index(succ)
                    return trail[i:], labels[i:] + [e]
                if succ not in color:
                    color[succ] = "gray"
                    trail.append(succ)
                    labels.append(e)
                    stack.append((succ, iter(arcs.get(succ, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = "black"
                stack.pop()
                if len(trail) > 1:
                    trail.pop()
                    labels.pop()
                else:
                    trail.pop()
    return None


def is_regular(nuc: Nucleus, want_witness: bool = False):
    """Regular iff the fixed-edge digraph on non-unit nucleus states is
    acyclic; a cycle yields g and y = (cycle edges)^inf with g . y = y and
    never-unit restrictions along y."""
    aut = nuc.automaton
    arcs = _fixed_edge_digraph(nuc)
    unit_ids = {aut.canonical_id(s) for s in nuc.states if s.is_unit}
    non_units = {aut.canonical_id(s) for s in nuc.states} - unit_ids
    hit = _find_cycle(non_units, arcs, non_units)
    if hit is None:
        return (True, None) if want_witness else True
    if not want_witness:
        return False
    states, labels = hit
    rep = next(s for s in nuc.states if aut.canonical_id(s) == states[0])
    y = RightInfinitePath.make(aut.graph, (), labels)
    return False, IrregularityWitness(rep.name(), y)


def is_hausdorff(nuc: Nucleus, want_witness: bool = False):
    """Hausdorff iff no cycle of non-unit states in the fixed-edge digraph
    consists entirely of states that can reach a unit state in it."""
    aut = nuc.automaton
    arcs = _fixed_edge_digraph(nuc)
    unit_ids = {aut.canonical_id(s) for s in nuc.states if s.is_unit}
    all_ids = {aut.canonical_id(s) for s in nuc.states}
    # states that reach a unit along fixed arcs (backwards closure from units)
    reaching = set(unit_ids)
    changed = True
    while changed:
        changed = False
        for cid in all_ids:
            if cid in reaching:
                continue
            if any(succ in reaching for (_e, succ) in arcs.get(cid, ())):
                reaching.add(cid)
                changed = True
    pool = (all_ids - unit_ids) & reaching
    hit = _find_cycle(pool, arcs, pool)
    if hit is None:
        return (True, None) if want_witness else True
    if not want_witness:
        return False
    states, labels = hit
    cid0 = states[0]
    rep = next(s for s in nuc.states if aut.canonical_id(s) == cid0)
    y = RightInfinitePath.make(aut.graph, (), labels)
    # strongly fixed extension: shortest fixed path from rep into a unit state
    ext = _path_to_unit(cid0, arcs, unit_ids)
    return False, NonHausdorffWitness(rep.name(), y, tuple(ext))


def _path_to_unit(start, arcs, unit_ids):
    prev = {start: None}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        if cur in unit_ids:
            labels = []
            while prev[cur] is not None:
                p, e = prev[cur]
                labels.append(e)
                cur = p
            return list(reversed(labels))
        for (e, succ) in arcs.get(cur, ()):
            if succ not in prev:
                prev[succ] = (cur, e)
                queue.append(succ)
    return []


# -- recurrence and level transitivity -------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    recurrent: bool          # False means inconclusive, never "not recurrent"
    depth: int
    missing: tuple[str, ...] = ()

    @property
    def inconclusive(self) -> bool:
        return not self.recurrent


def check_recurrent(aut: Automaton, depth: int = 6) -> RecurrenceReport:
    """Search words of length <= depth realizing every (e, f, h) with h a
    generator, inverse or unit; composing such realizations covers all of G,
    so full coverage certifies recurrence.  Requires strong connectivity
    (the composition argument threads through intermediate edges)."""
    graph = aut.graph
    if not validate_graph(graph).strongly_connected:
        raise NotStronglyConnectedError("check_recurrent needs a strongly connected graph")

    basic: list[Element] = [aut.unit(v) for v in graph.vertices]
    for name in sorted(aut.generators):
        basic.append(aut.generator(name))
        basic.append(aut.inverse(aut.generator(name)))

    targets = {}
    for e in graph.edges:
        for f in graph.edges:
            for h in basic:
                if h.dom == graph.s(e.id) and aut.cod(h) == graph.s(f.id):
                    targets[(e.id, f.id, aut.canonical_id(h))] = (e, f, h)
    unmet = set(targets)

    def scan(g: Element):
        for (eid, fid, hcid) in list(unmet):
            e, f, h = targets[(eid, fid, hcid)]
            if g.dom != graph.r(eid):
                continue
            img, rw = aut.word_act_edge(g.word, eid)
            if img == fid and aut.canonical_id(Element(e.src, rw)) == hcid:
                unmet.discard((eid, fid, hcid))

    seen_ids = set()
    frontier = []
    for g in basic:
        cid = aut.canonical_id(g)
        if cid not in seen_ids:
            seen_ids.add(cid)
            frontier.append(aut.canonical(g))
            scan(g)
    length = 1
    while unmet and length < depth:
        nxt = []
        for g in frontier:
            for name in sorted(aut.generators):
                for sym in (aut.generator(name), aut.inverse(aut.generator(name))):
                    if sym.dom != aut.cod(g):
                        continue
                    prod = aut.compose(sym, g)
                    cid = aut.canonical_id(prod)
                    if cid in seen_ids:
                        continue
                    seen_ids.add(cid)
                    rep = aut.canonical(prod)
                    nxt.append(rep)
                    scan(rep)
        frontier = nxt
        length += 1
        if not frontier:
            break
    if unmet:
        missing = tuple(sorted(f"({e},{f},{targets[(e, f, c)][2].name()})" for (e, f, c) in unmet))
        return RecurrenceReport(False, depth, missing)
    return RecurrenceReport(True, depth)


def level_transitive(aut: Automaton, n: int, gen_set=None) -> bool:
    """True iff the level-n Schreier graph is connected."""
    from .schreier import build_schreier, default_generating_set

    if n < 1:
        raise ValueError("level must be >= 1")
    gens = gen_set if gen_set is not None else default_generating_set(aut)
    gamma = build_schreier(aut, gens, n)
    return gamma.is_connected()


# -- germs -----------------------------------------------------------------------


@dataclass(frozen=True)
class Germ:
    """[x, m, g, n, y] with shift^m(x) = g . shift^n(y)."""

    x: RightInfinitePath
    m: int
    g: Element
    n: int
    y: RightInfinitePath


def make_germ(aut: Automaton, x: RightInfinitePath, m: int, g: Element, n: int,
              y: RightInfinitePath) -> Germ:
    graph = aut.graph
    if m < 0 or n < 0:
        raise ValueError("germ offsets must be natural numbers")
    if g.dom != graph.r(y.edge_at(n + 1)):
        raise DomainMismatchError("d(g) must be the range of the shifted path")
    if aut.act_infinite(g, y.shift(graph, n)) != x.shift(graph, m):
        raise DomainMismatchError("germ data does not satisfy shift^m(x) = g . shift^n(y)")
    return Germ(x, m, g, n, y)


def germ_equal(g1: Germ, g2: Germ, nuc: Nucleus, max_steps: int = 10_000) -> bool:
    """Equality in the germ groupoid: same endpoints, same lag, and the two
    restriction sequences along y agree from some depth on.  Both sequences
    are eventually periodic over (state, state, phase), so the scan stops at
    the first repeated triple."""
    aut = nuc.automaton
    graph = aut.graph
    if g1.x != g2.x or g1.y != g2.y or (g1.m - g1.n) != (g2.m - g2.n):
        return False
    y = g1.y
    l0 = max(g1.n, g2.n)
    a = aut.restrict(g1.g, y.segment(graph, g1.n, l0))
    b = aut.restrict(g2.g, y.segment(graph, g2.n, l0))
    seen = set()
    l = l0
    while len(seen) <= max_steps:
        ca, cb = aut.canonical_id(a), aut.canonical_id(b)
        if ca == cb:
            return True
        phase = (l - len(y.head)) % len(y.cycle) if l >= len(y.head) else l - len(y.head)
        key = (ca, cb, phase)
        if l >= len(y.head) and key in seen:
            return False
        seen.add(key)
        e = y.edge_at(l + 1)
        a = aut.restrict(a, Path.of(graph, [e]))
        b = aut.restrict(b, Path.of(graph, [e]))
        l += 1
    return False


# -- stable and unstable equivalence ----------------------------------------------


def stable_equivalent(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus,
                      want_witness: bool = False):
    """True iff some left-truncation pair x(-inf,-m), y(-inf,-m) is
    asymptotically equivalent.  Truncating further preserves equivalence and
    the truncation pairs are eventually periodic in m, so the scan bound
    transient + lcm is complete."""
    graph = nuc.automaton.graph
    m0 = max(0, 1 - x.anchor, 1 - y.anchor)
    period = lcm(len(x.left_cycle), len(y.left_cycle))
    for m in range(0, m0 + period):
        if ae_equivalent(x.left_truncation(graph, -m), y.left_truncation(graph, -m), nuc):
            return (True, m) if want_witness else True
    return (False, None) if want_witness else False


def _unstable_element_pool(nuc: Nucleus) -> list[Element]:
    """The smallest restriction-closed set containing N and N^2."""
    from .automaton import reachable_closure

    aut = nuc.automaton
    seeds = {aut.canonical_id(s): s for s in nuc.states}
    for g in nuc.states:
        for h in nuc.states:
            if h.dom == aut.cod(g):
                prod = aut.compose(h, g)
                seeds.setdefault(aut.canonical_id(prod), aut.canonical(prod))
    pool = sorted(seeds.values(), key=lambda e: word_key(e.word))
    sm = reachable_closure(aut, pool)
    return [aut.canonical(s) for s in sm.states]


def unstable_equivalent(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus,
                        want_witness: bool = False):
    """True iff some g in the closure of N u N^2 maps x(M+1, inf) onto
    y(M+1, inf); monotone in M by restriction, periodic past the centers."""
    aut = nuc.automaton
    graph = aut.graph
    pool = _unstable_element_pool(nuc)
    m0 = max(0, x.anchor + len(x.center), y.anchor + len(y.center))
    period = lcm(len(x.right_cycle), len(y.right_cycle))
    for m in range(0, m0 + period):
        tx = x.right_tail(graph, m + 1)
        ty = y.right_tail(graph, m + 1)
        for g in pool:
            if g.dom != tx.r(graph):
                continue
            if aut.cod(g) != ty.r(graph):
                continue
            if aut.act_infinite(g, tx) == ty:
                return (True, (m, g)) if want_witness else True
    return (False, None) if want_witness else False


# -- the discerning-path utility ---------------------------------------------------


def find_discerning_path(nuc: Nucleus, max_len: int = 64) -> Path:
    """A path mu such that every nucleus state fixing mu strongly fixes all
    of its extensions (its restriction there is a unit).  BFS over the
    surviving (state, restriction) pairs, so the result is shortest."""
    aut = nuc.automaton
    graph = aut.graph
    start_states = {}
    for v in graph.vertices:
        pairs = frozenset(
            (aut.canonical_id(h), aut.canonical_id(h))
            for h in nuc.states if not h.is_unit and h.dom == v
        )
        start_states[v] = pairs

    unit_ids = {aut.canonical_id(s) for s in nuc.states if s.is_unit}
    state_of = {aut.canonical_id(s): s for s in nuc.states}

    def satisfied(pairs):
        return all(rc in unit_ids for (_g, rc) in pairs)

    queue = []
    seen = set()
    for v in sorted(graph.vertices):
        key = (v, start_states[v])
        queue.append((Path.empty(v), start_states[v]))
        seen.add(key)
    while queue:
        mu, pairs = queue.pop(0)
        if satisfied(pairs):
            return mu
        if len(mu) >= max_len:
            continue
        u = mu.s(graph)
        for e in graph.range_edges(u):
            nxt = []
            alive = True
            for (gc, rc) in pairs:
                h = state_of[rc]
                img, rw = aut.word_act_edge(h.word, e.id)
                if img != e.id:
                    continue  # g no longer fixes mu e
                nxt.append((gc, aut.canonical_id(Element(e.src, rw))))
            nxt = frozenset(nxt)
            key = (e.src, nxt)
            if key in seen:
                continue
            seen.add(key)
            queue.append((Path(mu.r(graph) if mu.edges else mu.base, mu.edges + (e.id,)), nxt))
    raise DomainMismatchError(f"no discerning path of length <= {max_len} found")
