"""Deciders for the dynamics on the limit space and limit solenoid.

The nucleus deciders read the nucleus's Moore machine ``nuc.machine``: a
state is an integer i, and on the edge e its run outputs img and steps to
j for (img, j) = rows[i][e]: no word is acted on once the nucleus is known.

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

Bi-infinite, stable and unstable equivalence walk the sets of states that
runs reach with graphs.rho, periodic zones folded onto one period, and read
each answer and least witness off where the walk repeats or empties.  Germ
equality walks its elements' restriction closure along y the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .automaton import Automaton, Element, StateMachine, reachable_closure
from .errors import DomainMismatchError, NotStronglyConnectedError
from .graphs import bfs, bfs_labels, find_cycle, limit_nodes, rho, rho_at, validate_graph
from .infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath
from .nucleus import Nucleus, product_layers
from .schreier import build_schreier, default_generating_set


# -- the product transducer ----------------------------------------------------


def _phase_steps(nuc: Nucleus, x_at, y_at, boundary: int, L: int) -> dict:
    """The (phase, state) digraph of the periodic zone, positions
    boundary-L .. boundary-1: node (p, i) steps to (p + 1 mod L, i|_e) with
    output i.e, for e the zone edge of x at phase p.  With ``y_at`` given,
    only steps whose output is y's edge there are kept (y_at = None is class
    mode).  Maps each node to (next node, output edge)."""
    steps = {}
    for n in range(boundary - L, boundary):
        e = x_at(n)
        f = y_at(n) if y_at is not None else None
        for i, row in enumerate(nuc.machine.rows):
            hit = row.get(e)
            if hit is not None and (f is None or hit[0] == f):
                steps[(n % L, i)] = (((n + 1) % L, hit[1]), hit[0])
    return steps


def _succ(steps: dict):
    """The successor function of the partial map steps, for the graphs helpers."""
    return lambda u: (steps[u][0],) if u in steps else ()


def _run(sm: StateMachine, i: int, x_at, lo: int, hi: int, y_at=None):
    """Run state i along x's edges at positions lo .. hi-1: the list of
    (state, output edge), or None when an edge falls outside the current
    state's domain or, with ``y_at``, an output is not y's edge."""
    out = []
    for n in range(lo, hi):
        hit = sm.rows[i].get(x_at(n))
        if hit is None or (y_at is not None and hit[0] != y_at(n)):
            return None
        out.append((i, hit[0]))
        i = hit[1]
    return out


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


def ae_equivalent(x: LeftInfinitePath, y: LeftInfinitePath, nuc: Nucleus):
    """Nucleus-run decision of x ~_ae y for left-infinite paths:
    (True, AeWitness) or (False, None)."""
    T = max(len(x.tail), len(y.tail))
    L = lcm(len(x.cycle), len(y.cycle))
    for h in _left_arrival_states(nuc, x.edge_at, y.edge_at, -T, L):
        run = _run(nuc.machine, h, x.edge_at, -T, 0, y.edge_at)
        if run is not None:
            return True, AeWitness(nuc.states[h].name(), tuple(
                (n, nuc.states[i].name(), img) for n, (i, img) in zip(range(-T, 0), run)))
    return False, None


def ae_class(x: LeftInfinitePath, nuc: Nucleus) -> list[LeftInfinitePath]:
    """All left-infinite paths asymptotically equivalent to x, read off the
    maximal consistent runs, which enter the zone at the phase map's limit
    nodes (its cycle nodes, as each node has one step); at most |nucleus|.
    A cycle's nodes give one member and cover every phase, so one phase is read."""
    T, L = len(x.tail), len(x.cycle)
    steps = _phase_steps(nuc, x.edge_at, None, -T, L)
    members = set()
    for u in limit_nodes(steps, _succ(steps)):
        if u[0] != (-T - 1) % L:
            continue
        # outputs around u's cycle; the run is periodic left of position -T - 1
        cycle_out = [steps[v][1] for v in rho(u, lambda v: steps[v][0])[0]]
        tail_out = [img for _i, img in _run(nuc.machine, u[1], x.edge_at, -T - 1, 0)]
        members.add(LeftInfinitePath.make(nuc.automaton.graph, cycle_out, tail_out))
    return sorted(members, key=lambda m: (m.cycle, m.tail))


def _arrival_walk(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus):
    """graphs.rho's walk of the nodes (A, p) from a0, the least anchor: A is
    the set of nucleus states that left-infinite runs mapping x onto y reach
    at p, A(p + 1) its image; positions from b0, the end of the centers, fold
    onto [b0, b0 + R).  It stops where A empties; ([], None) if A(a0) is."""
    a0 = min(x.anchor, y.anchor)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    L = lcm(len(x.left_cycle), len(y.left_cycle))
    R = lcm(len(x.right_cycle), len(y.right_cycle))
    rows = nuc.machine.rows

    def step(node):
        A, p = node
        e, f = x.edge_at(p), y.edge_at(p)
        A = frozenset(hit[1] for hit in (rows[i].get(e) for i in A) if hit and hit[0] == f)
        return (A, p + 1 if p + 1 < b0 + R else b0) if A else None
    start = frozenset(_left_arrival_states(nuc, x.edge_at, y.edge_at, a0, L))
    return rho((start, a0), step) if start else ([], None)


def ae_equivalent_bi(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus) -> bool:
    """A run of nucleus states on all of Z mapping x onto y: by Koenig's
    lemma, iff every set of _arrival_walk is nonempty, i.e. the walk repeats."""
    return _arrival_walk(x, y, nuc)[1] is not None


# -- regularity and Hausdorffness ------------------------------------------------


def _fixed_edge_digraph(nuc: Nucleus) -> list[list[tuple[str, int]]]:
    """Arcs i -e-> i|_e for nucleus states i with i . e = e (units
    included), listed per state in edge id order."""
    return [[(e, j) for e, (img, j) in row.items() if img == e] for row in nuc.machine.rows]


def _fixed_cycle(nuc: Nucleus, arcs, pool: set):
    """(first state, (edge labels)^inf) of a cycle of the fixed-edge digraph
    inside pool, searched from the pool's states in state order; or None."""
    hit = find_cycle(sorted(pool), lambda i: [(e, j) for e, j in arcs[i] if j in pool])
    return hit and (hit[0][0], RightInfinitePath.make(nuc.automaton.graph, (), hit[1]))


@dataclass(frozen=True)
class IrregularityWitness:
    element: str
    fixed_path: RightInfinitePath


@dataclass(frozen=True)
class NonHausdorffWitness:
    element: str
    fixed_path: RightInfinitePath
    strongly_fixed_extension: tuple[str, ...]


def is_regular(nuc: Nucleus):
    """Regular iff the fixed-edge digraph on non-unit nucleus states is
    acyclic: (True, None); a cycle yields g and y = (cycle edges)^inf with
    g . y = y and never-unit restrictions along y: (False, IrregularityWitness)."""
    arcs = _fixed_edge_digraph(nuc)
    hit = _fixed_cycle(nuc, arcs, {i for i, s in enumerate(nuc.states) if not s.is_unit})
    if hit is None:
        return True, None
    return False, IrregularityWitness(nuc.states[hit[0]].name(), hit[1])


def is_hausdorff(nuc: Nucleus):
    """Hausdorff iff no cycle of non-unit states in the fixed-edge digraph
    consists entirely of states that can reach a unit state in it:
    (True, None) or (False, NonHausdorffWitness)."""
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
        return True, None
    # strongly fixed extension: shortest fixed path from the state into a unit
    ext = next(bfs_labels(parent, i) for i, parent in bfs([hit[0]], arcs.__getitem__)
               if nuc.states[i].is_unit)
    return False, NonHausdorffWitness(nuc.states[hit[0]].name(), hit[1], tuple(ext))


# -- recurrence and level transitivity -------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    recurrent: bool          # False means inconclusive, never "not recurrent"
    depth: int
    missing: tuple[str, ...] = ()


def check_recurrent(aut: Automaton, depth: int = 6) -> RecurrenceReport:
    """Search the products of at most max(depth, 1) generators, inverses or
    units for ones realizing every (e, f, h), h basic: g . e = f, g|_e = h.
    Composing them covers all of G, so full coverage certifies recurrence.
    The products are product_layers on the machine of S, so an infinite S
    ends the search in ClosureLimitError.  Requires strong connectivity (the
    composition argument threads through intermediate edges)."""
    graph = aut.graph
    if not validate_graph(graph).strongly_connected:
        raise NotStronglyConnectedError("check_recurrent needs a strongly connected graph")
    basic = aut.basic_elements()
    sm = reachable_closure(aut, basic)
    at = [sm.state_index(aut, h) for h in basic]  # basic element -> state
    targets = {(e.id, f.id, s): h for e in graph.edges for f in graph.edges for h, s in zip(basic, at)
               if h.dom == graph.s(e.id) and aut.cod(h) == graph.s(f.id)}
    unmet = set(targets)
    left = dict.fromkeys(s for h, s in zip(basic, at) if not h.is_unit)
    for layer in product_layers(sm, left, at, max(depth, 1)):
        # a row holds (e, g . e, g|_e): exactly the target keys
        unmet.difference_update((e, img, j) for g in layer for e, (img, j) in sm.rows[g].items())
        if not unmet:
            return RecurrenceReport(True, depth)
    missing = tuple(sorted(f"({e},{f},{targets[(e, f, s)].name()})" for (e, f, s) in unmet))
    return RecurrenceReport(False, depth, missing)


def level_transitive(aut: Automaton, n: int, gen_set=None) -> bool:
    """True iff the level-n Schreier graph is connected."""
    if n < 1:
        raise ValueError("level must be >= 1")
    gens = gen_set if gen_set is not None else default_generating_set(aut)
    return build_schreier(aut, gens, n).is_connected()


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


def germ_equal(g1: Germ, g2: Germ, nuc: Nucleus) -> bool:
    """Equality in the germ groupoid: same endpoints, same lag, and the two
    restriction sequences along y agree from some depth on.  graphs.rho
    walks the machine of the elements' restriction closure along y, positions
    past y's head folded onto one period, to the first repeated node: each
    element's state at l0 = max(n1, n2) is read off its walk, and the germs
    are equal iff the pair walk from there meets equal states.  Past the
    state budget: ClosureLimitError."""
    aut = nuc.automaton
    if g1.x != g2.x or g1.y != g2.y or (g1.m - g1.n) != (g2.m - g2.n):
        return False
    y, l0 = g1.y, max(g1.n, g2.n)
    h, c = len(y.head), len(y.cycle)
    sm = reachable_closure(aut, [g1.g, g2.g])

    def fold(l):  # positions past y's head, onto one period
        return min(l, h + (l - h) % c)

    def walk(states, l):  # (state tuple, position) nodes from l to the first repeat, and its start
        return rho((states, fold(l)), lambda u: (
            tuple(sm.rows[i][y.edge_at(u[1] + 1)][1] for i in u[0]), fold(u[1] + 1)))

    def at_l0(g, n):  # the walk's state tuple at l0
        return rho_at(walk((sm.state_index(aut, g),), n), l0 - n)[0]

    pairs, _ = walk(at_l0(g1.g, g1.n) + at_l0(g2.g, g2.n), l0)
    return any(i == j for (i, j), _ in pairs)


# -- stable and unstable equivalence ----------------------------------------------


def stable_equivalent(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus):
    """(True, least m) iff some left-truncation pair x(-inf,-m), y(-inf,-m)
    is asymptotically equivalent: _arrival_walk's set at -m + 1 is nonempty;
    else (False, None).  The sets are nonempty left of a0 iff at a0, and stay
    empty once empty, so m is 0 if the walk repeats, else
    max(0, 2 - a0 - its length)."""
    nodes, k = _arrival_walk(x, y, nuc)
    if not nodes:
        return False, None
    return True, 0 if k is not None else max(0, 2 - min(x.anchor, y.anchor) - len(nodes))


def unstable_equivalent(x: BiInfinitePath, y: BiInfinitePath, nuc: Nucleus):
    """(True, (M, g)) iff some g in the closure of N u N^2 maps x(M+1, inf) onto
    y(M+1, inf).  S(p), the states of nuc.power(2) whose run from p does so,
    is read at p0 = max(b0, 1) off each state's rho run over (state, phase
    mod R) nodes; then graphs.rho walks (S, p) leftward, S(p - 1) being the
    states mapping x_{p-1} onto y_{p-1} into S(p), positions <= a0 folded
    onto (a0 - L, a0], to p = 1 or an empty S.  M is 0 if S(1) is nonempty,
    else p0 - (walk length); g is S(M + 1)'s least state in shortlex order.
    Else (False, None)."""
    sm = nuc.power(2)
    a0 = min(x.anchor, y.anchor)
    b0 = max(x.anchor + len(x.center), y.anchor + len(y.center))
    L = lcm(len(x.left_cycle), len(y.left_cycle))
    R = lcm(len(x.right_cycle), len(y.right_cycle))
    p0 = max(b0, 1)

    def right(node):  # a state's run at the positions b0 + q mod R
        i, q = node
        hit = sm.rows[i].get(x.edge_at(b0 + q))
        return (hit[1], (q + 1) % R) if hit and hit[0] == y.edge_at(b0 + q) else None

    def left(node):  # S(p) to S(p - 1); a self-loop at p = 1 ends the walk
        S, p = node
        if p == 1:
            return node
        e, wanted = x.edge_at(p - 1), {(y.edge_at(p - 1), j) for j in S}
        S = frozenset(i for i, row in enumerate(sm.rows) if row.get(e) in wanted)
        return (S, p - 1 if p - 1 > a0 - L else a0) if S else None
    start = frozenset(i for i in range(len(sm)) if rho((i, (p0 - b0) % R), right)[1] is not None)
    if not start:
        return False, None
    walk = rho((start, p0), left)
    m = 0 if walk[1] is not None else max(0, p0 - len(walk[0]))
    return True, (m, sm.states[min(rho_at(walk, p0 - m - 1)[0], key=sm.shortlex)])

