"""Contracting detection and nucleus computation.

The nucleus is the union over all groupoid elements g of the limit set of
g's restrictions: the elements that occur as g|_mu at unboundedly many
depths.  In the finite digraph whose nodes are g's canonical restrictions
and whose arcs are single-edge restrictions, those are exactly the nodes
reachable from a directed cycle.

The computation iterates products of two: start from the restriction
closure S of generators, inverses and units; repeatedly add the limit
restrictions of all composable pairs; on fixpoint S, prune to the union of
limit restrictions of pairs from S.  Restrictions of a k-fold product of S
elements land, deep enough, in products of two (the restriction of a
product is the product of restrictions), so the fixpoint property makes S
a contracting core and the pruned set is the nucleus itself.

As (hg)|_mu = h|_{g.mu} g|_mu, the restrictions of hg are the products
along the walks from (h, g) in the pair digraph on S x S with arcs
(h, g) -e-> (h|_{g.e}, g|_e), read off the class rows; hg's limit set is
the products at the pairs on or after a cycle that (h, g) reaches.  So one
Tarjan pass gives every pair's limit set, and only those products are
identified.  Exceeding the state or round budget yields
NotContractingWithinBound, never a claim of non-contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import Automaton, Bounds, Element, StateMachine, reachable_closure, word_key
from .errors import ClosureLimitError, DivergedError
from .graphs import limit_nodes


@dataclass
class NotContractingWithinBound:
    """Semi-decision outcome: the iteration exceeded its budget."""

    bound_hit: str
    max_states: int
    max_rounds: int

    def __bool__(self):
        return False


@dataclass
class Nucleus:
    automaton: Automaton
    states: tuple[Element, ...]
    # the closure of ``states`` seeded in order: state i is the class of
    # states[i], and machine.index holds exactly the nucleus's class ids
    machine: StateMachine
    # canonical class id -> a product word witnessing membership (minimality)
    witnesses: dict[int, Element] = field(default_factory=dict)
    r_k: dict[int, int] = field(default_factory=dict)

    def __len__(self):
        return len(self.states)

    def __contains__(self, g: Element) -> bool:
        return self.automaton.canonical_id(g) in self.machine.index

    def non_units(self) -> list[Element]:
        return [s for s in self.states if not s.is_unit]

    def state_names(self) -> list[str]:
        return [s.name() for s in self.states]


def limit_restrictions(aut: Automaton, g: Element, budget: int | None = None) -> set[Element]:
    """Canonical restrictions of g occurring at unboundedly many depths:
    the nodes of g's restriction digraph reachable from a directed cycle."""
    budget = budget if budget is not None else aut.bounds.max_states
    sm = reachable_closure(aut, [g], budget)
    succ = [[sm.successor[i, e.id] for e in aut.graph.range_edges(v)]
            for i, v in enumerate(sm.doms)]
    return {sm.states[i] for i in limit_nodes(range(len(sm)), succ.__getitem__)}


def _pair_limits(aut: Automaton, elems: list[Element], touch, budget: int) -> dict[int, Element]:
    """Class id -> witness for the limit restrictions of the products hg of
    composable pairs from the restriction-closed canonical ``elems`` with h
    or g in the class ids ``touch`` (all pairs when None); a witness is a
    product whose own limit set holds the class.  Pair nodes are integers,
    and their arcs are made on demand, not stored."""
    n = len(elems)
    ids = [aut.canonical_id(e, budget) for e in elems]
    pos = {c: i for i, c in enumerate(ids)}
    rows = [aut._registry.row(c, budget) for c in ids]
    # h acts on the edge g.e: edge -> n * position of h's restriction there
    left = [{e: n * pos[c] for e, _, c in row} for row in rows]
    right = [[(img, pos[c]) for _, img, c in row] for row in rows]

    def succ(node):
        h, g = divmod(node, n)
        return [left[h][img] + g2 for img, g2 in right[g]]

    starts = (h * n + g for g, cod in enumerate(map(aut.cod, elems)) for h, he in enumerate(elems)
              if he.dom == cod and (touch is None or ids[h] in touch or ids[g] in touch))
    out: dict[int, Element] = {}
    for node, cyc in limit_nodes(starts, succ).items():
        h, g = divmod(node, n)
        out.setdefault(aut.canonical_id(aut.compose(elems[h], elems[g]), budget),
                       aut.compose(elems[cyc // n], elems[cyc % n]))
    return out


def compute_nucleus(aut: Automaton, bounds: Bounds | None = None):
    """Nucleus with closure certificate, or NotContractingWithinBound."""
    aut._require_valid()
    bounds = bounds or aut.bounds
    budget = bounds.max_states

    def canon_sorted(elems):
        classes = dict(aut._registry.lookup(e, budget) for e in elems)
        # units tie on word_key; dom breaks the tie independently of hashing
        return [aut.canonical(e) for e in sorted(classes.values(),
                                                 key=lambda e: (word_key(e.word), e.dom))]

    try:
        seeds = [aut.unit(v) for v in aut.graph.vertices]
        for name in sorted(aut.generators):
            seeds.append(aut.generator(name))
            seeds.append(aut.inverse(aut.generator(name)))
        current = canon_sorted(reachable_closure(aut, seeds, budget).states)

        fresh = None  # round 1 scans every pair, later rounds those touching a new class
        for _round in range(bounds.max_rounds):
            found = _pair_limits(aut, current, fresh, budget)
            fresh = found.keys() - {aut.canonical_id(e) for e in current}
            current = canon_sorted(current + [aut._registry.reps[c] for c in fresh])
            if len(current) > budget:
                return NotContractingWithinBound("max_states", budget, bounds.max_rounds)
            if not fresh:
                break
        else:
            return NotContractingWithinBound("max_rounds", budget, bounds.max_rounds)

        # prune: the nucleus is the union of limit restrictions of pair
        # products of the fixpoint (unit factors make single elements pairs)
        witnesses = _pair_limits(aut, current, None, budget)
        states = canon_sorted([aut._registry.reps[c] for c in witnesses])

        # certificate: symmetric, restriction-closed, absorbs pair products
        ids = {aut.canonical_id(s) for s in states}
        for s in states:
            if aut.canonical_id(aut.inverse(s)) not in ids:
                raise DivergedError(f"nucleus not symmetric at {s.name()}")
        machine = reachable_closure(aut, states, budget)
        if {aut.canonical_id(s) for s in machine.states} != ids:
            raise DivergedError("nucleus not closed under restriction")
        if not _pair_limits(aut, states, None, budget).keys() <= ids:
            raise DivergedError("contracting certificate failed")
    except ClosureLimitError as e:
        return NotContractingWithinBound(e.what, budget, bounds.max_rounds)

    nuc = Nucleus(aut, tuple(states), machine)
    nuc.witnesses = {cid: aut.canonical(w) for cid, w in witnesses.items()}
    return nuc


def compute_Rk(nuc: Nucleus, k: int, max_depth: int = 256) -> int:
    """Minimal j with h|_mu in the nucleus for every h in N^k, mu in E^j.

    Once a product's depth-j restrictions all sit in the nucleus they stay
    there (the nucleus is restriction closed), so the per-product scan stops
    at the first all-inside depth and R_k is the maximum over products.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k in nuc.r_k:
        return nuc.r_k[k]
    aut = nuc.automaton
    level = {aut.canonical_id(s): s for s in nuc.states}
    for _ in range(k - 1):
        nxt: dict[int, Element] = {}
        for g in level.values():
            for s in nuc.states:
                if s.dom == aut.cod(g):
                    prod = aut.compose(s, g)
                    nxt.setdefault(aut.canonical_id(prod), aut.canonical(prod))
        level = nxt

    best = 0
    for cid in level:
        frontier = {cid}
        depth = 0
        while not frontier <= nuc.machine.index.keys():
            if depth > max_depth:
                raise DivergedError(f"R_{k} scan exceeded depth {max_depth}")
            frontier = {succ for c in frontier for _, _, succ in aut._registry.row(c)}
            depth += 1
        best = max(best, depth)
    nuc.r_k[k] = best
    return best


def moore_diagram(nuc: Nucleus, fmt: str = "json"):
    """Deterministic export of the nucleus automaton (JSON dict or DOT text)."""
    aut = nuc.automaton
    sm = nuc.machine
    if fmt == "json":
        data = sm.to_json()
        data["kind"] = "nucleus-moore-diagram"
        return data
    if fmt == "dot":
        lines = ["digraph nucleus {"]
        for i, s in enumerate(sm.states):
            shape = "doublecircle" if s.is_unit else "circle"
            lines.append(f'  n{i} [label="{s.name()}", shape={shape}];')
        for (i, e) in sorted(sm.action):
            img = sm.action[(i, e)]
            j = sm.successor[(i, e)]
            lines.append(f'  n{i} -> n{j} [label="{e}/{img}"];')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")
