"""Deciders for the dynamics on the limit space and limit solenoid.

The nucleus deciders read the nucleus's Moore machine ``nuc.machine``: a
state is an integer i, and its run steps to successor[(i, e)] on the edge e
with output action[(i, e)], so no word is acted on once the nucleus is known.

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

Unstable equivalence runs on the machine of the restriction closure of
N u N^2 in the same way: a state either maps x's right tail onto y's, as
a run checked until its (state, phase) pairs repeat, or it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .automaton import Automaton, Element, StateMachine, word_key
from .errors import DomainMismatchError, NotStronglyConnectedError
from .graphs import Graph, Path, bfs, cyclic_nodes, find_cycle, limit_nodes, validate_graph
from .infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath
from .nucleus import Nucleus


def shift_class(graph: Graph, x: LeftInfinitePath) -> LeftInfinitePath:
    """Delete the rightmost edge; descends to asymptotic-equivalence classes."""
    return x.shift(graph)


def _name(nuc: Nucleus, i: int) -> str:
    return nuc.automaton.canonical(nuc.states[i]).name()


def _labels(parent: dict, v) -> list:
    """The arc labels along a search's parent chain, from its start to v."""
    out = []
    while parent[v] is not None:
        v, label = parent[v]
        out.append(label)
    return out[::-1]


# -- the product transducer ----------------------------------------------------


def _phase_steps(nuc: Nucleus, x_at, y_at, boundary: int, L: int) -> dict:
    """The (phase, state) digraph of the periodic zone, positions
    boundary-L .. boundary-1: node (p, i) steps to (p + 1 mod L, i|_e) with
    output i.e, for e the zone edge of x at phase p.  With ``y_at`` given,
    only steps whose output is y's edge there are kept (y_at = None is class
    mode).  Maps each node to (next node, output edge)."""
    sm = nuc.machine
    steps = {}
    for n in range(boundary - L, boundary):
        e = x_at(n)
        f = y_at(n) if y_at is not None else None
        for i in range(len(sm)):
            img = sm.action.get((i, e))
            if img is not None and (f is None or img == f):
                steps[(n % L, i)] = (((n + 1) % L, sm.successor[(i, e)]), img)
    return steps


def _succ(steps: dict):
    """The successor function of the partial map steps, for the graphs helpers."""
    return lambda u: (steps[u][0],) if u in steps else ()


def _run(sm: StateMachine, i: int, x_at, lo: int, hi: int, y_at=None):
    """Run state i along x's edges at positions lo .. hi-1: the list of
    (state, output edge) and the state reached, or None when an edge falls
    outside the current state's domain or, with ``y_at``, an output is not
    y's edge."""
    out = []
    for n in range(lo, hi):
        e = x_at(n)
        img = sm.action.get((i, e))
        if img is None or (y_at is not None and img != y_at(n)):
            return None
        out.append((i, img))
        i = sm.successor[(i, e)]
    return out, i


def _left_arrival_states(nuc: Nucleus, x_at, y_at, boundary: int, L: int) -> list[int]:
    """States h_boundary admitting a left-infinite nucleus run on positions
    n < boundary that outputs y."""
    steps = _phase_steps(nuc, x_at, y_at, boundary, L)
    # state numbers follow nuc.states, which is in (word_key, dom) order
    return sorted({i for (p, i) in limit_nodes(steps, _succ(steps)) if p == boundary % L})


@dataclass(frozen=True)
class AeWitness:
    entry_state: str          # nucleus state entering the tail from the periodic zone
    tail_run: tuple[tuple[int, str, str], ...]  # (position, state name, output edge)


def ae_equivalent(x: LeftInfinitePath, y: LeftInfinitePath, nuc: Nucleus,
                  want_witness: bool = False):
    """Nucleus-run decision of x ~_ae y for left-infinite paths."""
    T = max(len(x.tail), len(y.tail))
    L = lcm(len(x.cycle), len(y.cycle))
    for h in _left_arrival_states(nuc, x.edge_at, y.edge_at, -T, L):
        run = _run(nuc.machine, h, x.edge_at, -T, 0, y.edge_at)
        if run is not None:
            if want_witness:
                return True, AeWitness(_name(nuc, h), tuple(
                    (n, _name(nuc, i), img) for n, (i, img) in zip(range(-T, 0), run[0])))
            return True
    return (False, None) if want_witness else False


def ae_class(x: LeftInfinitePath, nuc: Nucleus) -> list[LeftInfinitePath]:
    """All left-infinite paths asymptotically equivalent to x, read off the
    maximal consistent runs; at most |nucleus| of them."""
    T = len(x.tail)
    L = len(x.cycle)
    steps = _phase_steps(nuc, x.edge_at, None, -T, L)
    members = set()
    for u in cyclic_nodes(steps, _succ(steps)):
        # outputs around u's cycle; the run is k-periodic left of u's position
        cycle_out = []
        v = u
        while True:
            v, img = steps[v]
            cycle_out.append(img)
            if v == u:
                break
        p0 = u[0]
        n1 = (-T - 1) - ((-T - 1 - p0) % L)  # largest zone position = p0 mod L
        tail_out = [img for _i, img in _run(nuc.machine, u[1], x.edge_at, n1, 0)[0]]
        members.add(LeftInfinitePath.make(nuc.automaton.graph, cycle_out, tail_out))
    return sorted(members, key=lambda m: (m.cycle, m.tail))


def ae_equivalent_bi(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus) -> bool:
    """Bi-infinite asymptotic equivalence: a left-infinite run that survives
    the centers and acts correctly on the right-infinite tails.  Right of
    the centers the run's next step depends only on (state, position mod R)
    with R the lcm of the right cycles, so a run that holds for |nucleus| R
    + 1 positions there has repeated a pair and holds forever."""
    a0 = min(x.anchor, y.anchor)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    L = lcm(len(x.left_cycle), len(y.left_cycle))
    end = b0 + len(nuc.machine) * lcm(len(x.right_cycle), len(y.right_cycle)) + 1
    return any(_run(nuc.machine, h, x.edge_at, a0, end, y.edge_at) is not None
               for h in _left_arrival_states(nuc, x.edge_at, y.edge_at, a0, L))


# -- regularity and Hausdorffness ------------------------------------------------


def _fixed_edge_digraph(nuc: Nucleus) -> list[list[tuple[str, int]]]:
    """Arcs i -e-> i|_e for nucleus states i with i . e = e (units
    included), listed per state in edge id order."""
    sm = nuc.machine
    graph = nuc.automaton.graph
    return [[(e.id, sm.successor[(i, e.id)]) for e in graph.range_edges(d)
             if sm.action[(i, e.id)] == e.id] for i, d in enumerate(sm.doms)]


def _fixed_cycle(nuc: Nucleus, arcs, pool: set):
    """A cycle of the fixed-edge digraph inside pool, as (states, edge
    labels); the search starts from the pool's states in class id order."""
    cid = {i: c for c, i in nuc.machine.index.items()}
    return find_cycle(sorted(pool, key=cid.__getitem__),
                      lambda i: [(e, j) for e, j in arcs[i] if j in pool])


@dataclass(frozen=True)
class IrregularityWitness:
    element: str
    fixed_path: RightInfinitePath


@dataclass(frozen=True)
class NonHausdorffWitness:
    element: str
    fixed_path: RightInfinitePath
    strongly_fixed_extension: tuple[str, ...]


def is_regular(nuc: Nucleus, want_witness: bool = False):
    """Regular iff the fixed-edge digraph on non-unit nucleus states is
    acyclic; a cycle yields g and y = (cycle edges)^inf with g . y = y and
    never-unit restrictions along y."""
    arcs = _fixed_edge_digraph(nuc)
    hit = _fixed_cycle(nuc, arcs, {i for i, s in enumerate(nuc.states) if not s.is_unit})
    if hit is None:
        return (True, None) if want_witness else True
    if not want_witness:
        return False
    states, labels = hit
    y = RightInfinitePath.make(nuc.automaton.graph, (), labels)
    return False, IrregularityWitness(nuc.states[states[0]].name(), y)


def is_hausdorff(nuc: Nucleus, want_witness: bool = False):
    """Hausdorff iff no cycle of non-unit states in the fixed-edge digraph
    consists entirely of states that can reach a unit state in it."""
    arcs = _fixed_edge_digraph(nuc)
    units = [i for i, s in enumerate(nuc.states) if s.is_unit]
    into: list[list] = [[] for _ in arcs]
    for i, out in enumerate(arcs):
        for e, j in out:
            into[j].append((e, i))
    # states that reach a unit along fixed arcs: a search back from the units
    pool = {i for i, _parent in bfs(units, into.__getitem__)}.difference(units)
    hit = _fixed_cycle(nuc, arcs, pool)
    if hit is None:
        return (True, None) if want_witness else True
    if not want_witness:
        return False
    states, labels = hit
    y = RightInfinitePath.make(nuc.automaton.graph, (), labels)
    # strongly fixed extension: shortest fixed path from the state into a unit
    ext = next(_labels(parent, i) for i, parent in bfs([states[0]], arcs.__getitem__)
               if nuc.states[i].is_unit)
    return False, NonHausdorffWitness(nuc.states[states[0]].name(), y, tuple(ext))


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
                    targets[(e.id, f.id, aut.canonical_id(h))] = h
    unmet = set(targets)

    seen_ids = set()
    frontier = []
    for g in basic:
        cid = aut.canonical_id(g)
        if cid not in seen_ids:
            seen_ids.add(cid)
            frontier.append(aut.canonical(g))
            # a class row holds (e, g . e, class of g|_e): exactly the target keys
            unmet.difference_update(aut._registry.row(cid))
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
                    unmet.difference_update(aut._registry.row(cid))
        frontier = nxt
        length += 1
        if not frontier:
            break
    if unmet:
        missing = tuple(sorted(f"({e},{f},{targets[(e, f, c)].name()})" for (e, f, c) in unmet))
        return RecurrenceReport(False, depth, missing)
    return RecurrenceReport(True, depth)


def level_transitive(aut: Automaton, n: int, gen_set=None) -> bool:
    """True iff the level-n Schreier graph is connected: union-find over the
    columns of the level-n table, with no graph built."""
    from .schreier import _label_set, _tower, default_generating_set

    if n < 1:
        raise ValueError("level must be >= 1")
    labels = _label_set(aut, gen_set if gen_set is not None else default_generating_set(aut))
    ids = [aut.canonical_id(a) for a in labels]
    for groups, cols in _tower(aut, ids, n):
        pass
    root = list(range(sum(map(len, groups.values()))))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i
    for a, c in zip(labels, ids):
        images = groups[aut.cod(a)]
        for u, p in zip(groups[a.dom], cols[c]):
            root[find(u)] = find(images[p])
    return len({find(i) for i in range(len(root))}) <= 1


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


def _unstable_element_pool(nuc: Nucleus) -> StateMachine:
    """The machine of the smallest restriction-closed set containing N and
    N^2."""
    from .automaton import reachable_closure

    aut = nuc.automaton
    seeds = {aut.canonical_id(s): s for s in nuc.states}
    for g in nuc.states:
        for h in nuc.states:
            if h.dom == aut.cod(g):
                prod = aut.compose(h, g)
                seeds.setdefault(aut.canonical_id(prod), aut.canonical(prod))
    return reachable_closure(aut, sorted(seeds.values(), key=lambda e: word_key(e.word)))


def unstable_equivalent(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus,
                        want_witness: bool = False):
    """True iff some g in the closure of N u N^2 maps x(M+1, inf) onto
    y(M+1, inf); monotone in M by restriction, periodic past the centers.
    Each g runs on the pool's machine: right of the centers a step depends
    only on (state, position mod R) with R the lcm of the right cycles, so
    a run that holds for |pool| R + 1 positions there holds forever."""
    aut = nuc.automaton
    sm = _unstable_element_pool(nuc)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    R = lcm(len(x.right_cycle), len(y.right_cycle))
    for m in range(0, max(0, b0) + R):
        end = max(m + 1, b0) + len(sm) * R + 1
        for i in range(len(sm)):
            if _run(sm, i, x.edge_at, m + 1, end, y.edge_at) is not None:
                return (True, (m, aut.canonical(sm.states[i]))) if want_witness else True
    return (False, None) if want_witness else False


# -- the discerning-path utility ---------------------------------------------------


def find_discerning_path(nuc: Nucleus, max_len: int = 64) -> Path:
    """A path mu such that every nucleus state fixing mu strongly fixes all
    of its extensions (its restriction there is a unit).  BFS over the
    surviving (state, restriction) pairs, so the result is shortest."""
    sm = nuc.machine
    graph = nuc.automaton.graph
    non_units = [i for i, s in enumerate(nuc.states) if not s.is_unit]
    starts = [(v, frozenset((i, i) for i in non_units if sm.doms[i] == v))
              for v in graph.vertices]
    depth: dict = {}

    def extend(node):
        u, pairs = node
        if depth[node] >= max_len:
            return
        for e in graph.range_edges(u):
            # the states still fixing mu e, with their restrictions there
            yield e.id, (e.src, frozenset((g, sm.successor[(r, e.id)]) for g, r in pairs
                                          if sm.action[(r, e.id)] == e.id))

    for node, parent in bfs(starts, extend):
        depth[node] = 0 if parent[node] is None else depth[parent[node][0]] + 1
        if all(nuc.states[r].is_unit for _g, r in node[1]):
            labels = _labels(parent, node)
            return Path(graph.r(labels[0]) if labels else node[0], tuple(labels))
    raise DomainMismatchError(f"no discerning path of length <= {max_len} found")
