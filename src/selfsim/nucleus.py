"""Contracting detection and nucleus computation.

The nucleus is the union over all groupoid elements g of the limit set of
g's restrictions, the elements that occur as g|_mu at unboundedly many
depths: the nodes of g's restriction digraph reachable from a cycle.

The computation iterates products of two: start from the restriction
closure S of generators, inverses and units; repeatedly add the limit
restrictions of all composable pairs until S is a fixpoint.  Restrictions
of a k-fold product land, deep enough, in products of two, so the fixpoint
is a contracting core, and the nucleus is the limit sets of its pairs.

As (hg)|_mu = h|_{g.mu} g|_mu, the restrictions of hg are the products
along the walks (h, g) -e-> (h|_{g.e}, g|_e) on S x S, read off the rows
of S's StateMachine.  One Tarjan pass gives every pair's limit set, and one
Moore refinement of those pair nodes with S's states identifies their
products: neither the rounds nor the nucleus's checks compare words.
product_layers grows N^k, and the order proof's powers of x, the same way.

Before the rounds, one search on S's machine looks for a finite proof of
non-contraction: a non-unit state c on a cycle mu of fixed arcs (c.mu = mu,
c|_mu = c) whose order is infinite, so that every power c^n lies in its own
limit set.  The order proof follows Muntyan-Savchuk and Klimann-Picantin-
Savchuk: if e's orbit under x has length k, order(x) is a multiple of
k * order(x^k|_e), so a cycle of such arcs with orbit lengths multiplying to
more than 1 forbids a finite order.  A proof raises NotContractingError;
exceeding the state or round budget yields NotContractingWithinBound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Automaton, Element, StateMachine, join, reachable_closure, word_key
from .errors import ClosureLimitError, DivergedError, NotContractingError
from .graphs import (bfs, dot_escape, limit_nodes, refine, rho, shortest_path,
                     strongly_connected_components)

_PASS_STARTS = 1 << 13  # start pairs of one _pair_limits pass, whose pair nodes take memory
# States of the certificate search's machine, at most.  Its product names
# double their exponents, but word_key compares them by their runs, so memory
# stays flat (19 MB at 2,048 states on one Katsura system).  Time still grows:
# each product refines the whole machine, 0.05 s at 256 states, 0.23 s at 1,024
# and 0.56 s at 2,048 on a 2-vCPU Xeon VM.  The 44 recorded certificates need 21.
_SEARCH_STATES = 1 << 8


@dataclass
class NotContractingWithinBound:
    """Semi-decision outcome: the iteration exceeded its budget."""

    bound_hit: str
    max_states: int
    max_rounds: int


@dataclass
class NotContracting:
    """A proof that no finite nucleus exists: ``state`` c fixes the closed
    path ``cycle`` mu with c|_mu = c and has infinite order.  ``chain`` lists
    the links (x, k, e, x^k|_e), k the length of e's orbit under x: it starts
    at c, each link's restriction is the next link's x, and the last link's
    is an earlier x, closing a cycle whose orbit lengths multiply past 1."""

    state: Element
    cycle: tuple[str, ...]
    chain: tuple[tuple[Element, int, str, Element], ...]

    def as_dict(self):
        return {"result": "not-contracting", "state": self.state.name(),
                "cycle": ".".join(self.cycle),
                "order_chain": [{"state": x.name(), "orbit": k, "edge": e, "restriction": y.name()}
                                for x, k, e, y in self.chain]}


@dataclass
class Nucleus:
    automaton: Automaton
    machine: StateMachine  # (word_key, dom) order, with no class ids

    @property
    def states(self) -> tuple[Element, ...]:
        return tuple(self.machine.states)

    def __len__(self):
        return len(self.machine)

    def state_names(self) -> list[str]:
        return [s.name() for s in self.states]

    def power(self, k: int) -> StateMachine:
        """The machine of N^k, the products of k nucleus states, N's states
        first: k product_layers of N by N, which append only products of k
        states, as N is restriction-closed and N^(k-1) lies in N^k (units are in N)."""
        sm, nuc = self.machine.renumbered(range(len(self))), range(len(self))  # a copy
        for _ in product_layers(sm, nuc, nuc, k):
            pass
        return sm


def limit_restrictions(aut: Automaton, g: Element) -> set[Element]:
    """Canonical restrictions of g occurring at unboundedly many depths:
    the nodes of g's restriction digraph reachable from a directed cycle."""
    sm = reachable_closure(aut, [g])
    succ = [[j for _, j in row.values()] for row in sm.rows]
    return {sm.states[i] for i in limit_nodes(range(len(sm)), succ.__getitem__)}


class _PairSucc(dict):
    """The successors of the pair nodes h * |sm| + g, made on first use:
    (h|_{g.e}, g|_e) for each edge e of range_edges(d(g)), in order."""

    def __init__(self, sm: StateMachine):
        self.n, self.rows = len(sm), sm.rows

    def __missing__(self, node):
        left, right = self.rows[node // self.n], self.rows[node % self.n]  # h acts on g.e
        out = self[node] = [self.n * left[img][1] + g for img, g in right.values()]
        return out


def _product(sm: StateMachine, nodes, pairs: _PairSucc) -> dict[int, int]:
    """Identify the pair nodes ``nodes``, closed under their successors
    ``pairs``, by one Moore refinement with the states of ``sm``; return
    node -> state.  A block that holds a state is that state, as the states
    are pairwise inequivalent; any other block is appended to ``sm`` as a
    new state, named by the shortlex-least product word h g among its nodes."""
    n, m, states, rows = pairs.n, len(sm), sm.states, sm.rows  # nodes are h * n + g
    pos = {v: m + i for i, v in enumerate(nodes)}  # the refined items: states, then nodes
    ends = [*zip(sm.doms, sm.cods), *((sm.doms[v % n], sm.cods[v // n]) for v in nodes)]
    images = [[img for img, _ in r.values()] for r in rows]
    images += [[rows[v // n][img][0] for img in images[v % n]] for v in nodes]  # h.(g.e)
    succ = [[j for _, j in r.values()] for r in rows] + [[pos[w] for w in pairs[v]] for v in nodes]
    block = refine([(*end, *imgs) for end, imgs in zip(ends, images)], succ)
    if block[:m] != list(range(m)):  # blocks are numbered by first item
        raise DivergedError("two states of one machine act alike but are different classes")
    for i, v in enumerate(nodes, m):
        s = block[i]  # a new block is the state numbered by it
        if s < m:
            continue
        w = Element(ends[i][0], join(states[v // n].word, states[v % n].word))
        if s == len(states):  # the first node of a new class gives its row
            states.append(w)
            sm.doms.append(ends[i][0])
            sm.cods.append(ends[i][1])
            rows.append(dict(zip(rows[v % n], zip(images[i], map(block.__getitem__, succ[i])))))
        elif word_key(w.word) < word_key(states[s].word):
            states[s] = w
    return dict(zip(nodes, block[m:]))


def product_layers(sm: StateMachine, left, first, k: int):
    """Yield up to k layers of states of ``sm``, appending products to it by
    _product: layer 1 is ``first``, each later one the states h g, h in
    ``left`` and g in the layer before, that no earlier layer holds, in the
    order first reached.  An empty layer ends the walk."""
    layer, seen = list(dict.fromkeys(first)), set(first)
    for _ in range(k - 1):
        yield layer
        starts = [h * len(sm) + g for g in layer for h in left if sm.doms[h] == sm.cods[g]]
        if not starts:
            return
        pairs = _PairSucc(sm)
        nodes = [v for v, _ in bfs(starts, lambda v: ((None, w) for w in pairs[v]))]
        found = _product(sm, nodes, pairs)
        layer = [s for s in dict.fromkeys(map(found.__getitem__, starts)) if s not in seen]
        if not layer:
            return
        seen.update(layer)
    yield layer


def _pair_limits(sm: StateMachine, touch) -> set[int]:
    """The states of the limit restrictions of the products hg of composable
    pairs of states of ``sm`` with h or g in the states ``touch`` (all pairs
    when None); the classes not yet in ``sm`` are appended to it."""
    n, doms, cods = len(sm), sm.doms, sm.cods
    left = range(n) if touch is None else sorted(touch)  # h in touch, or any h
    step = max(1, _PASS_STARTS // n)  # touch states per pass
    pairs, limits = _PairSucc(sm), set()
    for part in (left[k:k + step] for k in range(0, len(left), step)):
        right = () if touch is None else part  # g in touch
        starts = dict.fromkeys([h * n + g for h in part for g in range(n) if doms[h] == cods[g]]
                               + [h * n + g for g in right for h in range(n) if doms[h] == cods[g]])
        pairs.clear()  # the last pass's nodes are classes of sm now
        limits.update(_product(sm, limit_nodes(starts, pairs.__getitem__), pairs).values())
    return limits


def compute_nucleus(aut: Automaton):
    """Nucleus, checked closed and symmetric, or NotContractingWithinBound.

    Each pair of the fixpoint is scanned in one round, and its limit set
    reads only the sub-machine it reaches, so the rounds' limit sets make up
    the nucleus, and a pass over N's pairs would find no class: that
    re-scan runs in the tests only.  The state budget of ``aut.bounds`` caps
    S and the rounds' machine, and its round count the iteration."""
    aut._require_valid()
    budget, rounds = aut.bounds.max_states, aut.bounds.max_rounds
    try:
        sm = reachable_closure(aut, aut.basic_elements())
        proof = _non_contraction(sm, min(budget, _SEARCH_STATES))
        if proof is not None:
            raise NotContractingError(proof)
        limits, fresh = set(), None  # round 1: every pair; later: pairs touching a new state
        for _round in range(rounds):
            n = len(sm)
            limits |= _pair_limits(sm, fresh)
            if len(sm) > budget:  # S is not capped by the rounds, so it may exceed it
                return NotContractingWithinBound("max_states", budget, rounds)
            if len(sm) == n:
                break
            fresh = range(n, len(sm))
        else:
            return NotContractingWithinBound("max_rounds", budget, rounds)

        machine = sm.renumbered(sorted(limits, key=sm.shortlex))
        if any(j is None for row in machine.rows for _, j in row.values()):
            raise DivergedError("nucleus not closed under restriction")
        lacking = [s for s, j in zip(machine.states, machine.inverses()) if j is None]
        if lacking:
            raise DivergedError(f"nucleus not symmetric at {lacking[0].name()}")
    except ClosureLimitError as e:
        return NotContractingWithinBound(e.what, budget, rounds)

    return Nucleus(aut, machine)


def _non_contraction(sm: StateMachine, limit: int) -> NotContracting | None:
    """A certificate on the machine of S, or None.  Among non-units, each
    strongly connected component of fixed arcs i -e-> j (row entry
    e -> (e, j)) with a cycle offers the state c it lists first, since an arc
    x -> x|_e with x.e = e makes order(x|_e) divide order(x).  Once c has an
    order chain, its cycle is c's first arc inside the component followed by
    a shortest way back."""
    states, work = sm.states, None
    fixed = [[(e, j) for e, (img, j) in row.items() if img == e and not states[j].is_unit]
             for row in sm.rows]  # a unit fixes every edge, and restricts to units
    starts = [i for i, arcs in enumerate(fixed) if arcs]
    for comp in strongly_connected_components(starts, lambda i: [j for _, j in fixed[i]]):
        c, inside = comp[0], set(comp)
        arc = next(((e, j) for e, j in fixed[c] if j in inside), None)
        if arc is None:  # a single state without a loop
            continue
        if work is None:  # a copy, to append the products to
            work = sm.renumbered(range(len(sm)))
        chain = _order_chain(work, c, limit)
        if chain:  # every path back to c stays in its component
            back = shortest_path(arc[1], lambda i: i == c, fixed.__getitem__)
            return NotContracting(states[c], (arc[0], *back), chain)
    return None


def _order_chain(sm: StateMachine, c: int, limit: int):
    """Links proving that state c of ``sm`` has infinite order, or None.
    The arcs x -(x, k, e)-> x^k|_e, k the length of e's orbit under x, are
    explored from c; x^k|_e is read off the row of x^k, the powers x, ...,
    x^K (K the longest orbit) appended to ``sm`` by product_layers, and past
    ``limit`` states no arc is added.  An arc with k > 1 inside a strongly
    connected component closes a cycle of orbit product > 1; the explored
    arcs are searched for one at 1, 2, 4, ... nodes, so a near cycle ends
    the walk early and the searches cost O(nodes) in all.  Units, of order
    1, are left out."""
    links = {}

    def arcs(x):
        out = links[x] = []
        row = sm.rows[x]
        if len(sm) > limit:  # past the limit, no arcs
            return out
        orbits = {e: len(rho(e, lambda f: row[f][0])[0]) for e in row}
        # each orbit length divides the order of x, so x, ..., x^K are distinct layers
        powers = [p for p, in product_layers(sm, [x], [x], max(orbits.values()))]
        for e, k in orbits.items():
            y = sm.rows[powers[k - 1]][e][1]  # x^k fixes e
            if not sm.states[y].is_unit:
                out.append(((x, k, e), y))
        return out

    def succ(x):  # a node not yet expanded has no arcs
        return links.get(x, ())

    def closed():  # the chain through an arc k > 1 inside a component, if any
        comps = strongly_connected_components([c], lambda x: [y for _, y in succ(x)])
        comp = {x: i for i, xs in enumerate(comps) for x in xs}
        hit = next(((link, y) for x in links for link, y in links[x]
                    if link[1] > 1 and comp[x] == comp[y]), None)
        if hit is None:
            return None
        (u, _, _), w = hit
        path = [*shortest_path(c, lambda x: x == u, succ), hit[0],
                *shortest_path(w, lambda x: x == u, succ)]
        ends = [x for x, _, _ in path[1:]] + [u]
        return tuple((sm.states[x], k, e, sm.states[y]) for (x, k, e), y in zip(path, ends))
    for n, _ in enumerate(bfs([c], arcs)):
        if n & (n - 1) == 0 and (chain := closed()):
            return chain
    return closed()


def compute_Rk(nuc: Nucleus, k: int) -> int:
    """Minimal j with h|_mu in the nucleus for every h in N^k, mu in E^j.

    Read off the machine of N^k (``Nucleus.power``), N's states first, by
    that definition: D_0 is its states and D_{j+1} their successors, so D_j
    holds the h|_mu with |mu| = j, and rho walks the D_j until one lies in
    the nucleus.  A repeat before that would make a state outside the
    nucleus a restriction at unboundedly many depths, a limit restriction,
    which the nucleus, holding every limit set, rules out.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sm, inside = nuc.power(k), frozenset(range(len(nuc)))

    def deeper(level):  # D_{j+1} from D_j, or None once D_j lies in the nucleus
        if level <= inside:
            return None
        return frozenset(j for i in level for _, j in sm.rows[i].values())
    levels, repeat = rho(frozenset(range(len(sm))), deeper)
    if repeat is not None:
        stray = min(levels[repeat] - inside, key=sm.shortlex)
        raise DivergedError(f"R_{k}: {sm.states[stray].name()} is a restriction at unboundedly "
                            "many depths outside the nucleus")
    return len(levels) - 1


def moore_diagram(nuc: Nucleus, fmt: str = "json"):
    """Deterministic export of the nucleus automaton (JSON dict or DOT text)."""
    sm = nuc.machine
    if fmt == "json":
        data = sm.to_json()
        data["kind"] = "nucleus-moore-diagram"
        return data
    if fmt == "dot":
        lines = ["digraph nucleus {"]
        for i, s in enumerate(sm.states):
            shape = "doublecircle" if s.is_unit else "circle"
            lines.append(f'  n{i} [label="{dot_escape(s.name())}", shape={shape}];')
        for i, row in enumerate(sm.rows):
            lines += [f'  n{i} -> n{j} [label="{dot_escape(f"{e}/{img}")}"];'
                      for e, (img, j) in row.items()]
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")
