"""Contracting detection and nucleus computation.

The nucleus is the union over all groupoid elements g of the limit set of
g's restrictions: the elements that occur as g|_mu at unboundedly many
depths.  In the finite digraph whose nodes are g's canonical restrictions
and whose arcs are single-edge restrictions, those are exactly the nodes
reachable from a directed cycle.

The computation iterates products of two: start from the restriction
closure of generators, inverses and units; repeatedly add the limit
restrictions of all composable pairs; on fixpoint S, prune to the union of
limit restrictions of pairs from S.  Restrictions of a k-fold product of S
elements land, deep enough, in products of two (the restriction of a
product is the product of restrictions), so the fixpoint property makes S
a contracting core and the pruned set is the nucleus itself.  Everything
runs on canonical classes; exceeding the state or round budget yields
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
    succ: list[list[int]] = [[] for _ in sm.states]
    for (i, _e), j in sm.successor.items():
        succ[i].append(j)
    return {sm.states[i] for i in limit_nodes(range(len(succ)), succ.__getitem__)}


def _composable_pairs(aut: Automaton, elems: list[Element]):
    for g in elems:
        for h in elems:
            if h.dom == aut.cod(g):
                yield h, g


def compute_nucleus(aut: Automaton, bounds: Bounds | None = None):
    """Nucleus with closure certificate, or NotContractingWithinBound."""
    aut._require_valid()
    bounds = bounds or aut.bounds
    budget = bounds.max_states

    def canon_sorted(elems):
        out = {}
        for e in elems:
            cid, rep = aut._registry.lookup(e, budget)
            out[cid] = rep
        # units tie on word_key; dom breaks the tie independently of hashing
        return [aut.canonical(e) for e in sorted(out.values(),
                                                 key=lambda e: (word_key(e.word), e.dom))]

    try:
        seeds = [aut.unit(v) for v in aut.graph.vertices]
        for name in sorted(aut.generators):
            seeds.append(aut.generator(name))
            seeds.append(aut.inverse(aut.generator(name)))
        current = canon_sorted(reachable_closure(aut, seeds, budget).states)

        fresh = list(current)  # pairs not involving a fresh state were already scanned
        for _round in range(bounds.max_rounds):
            added = []
            fresh_ids = {aut.canonical_id(e) for e in fresh}
            for h, g in _composable_pairs(aut, current):
                if aut.canonical_id(h) not in fresh_ids and aut.canonical_id(g) not in fresh_ids:
                    continue
                for lim in limit_restrictions(aut, aut.compose(h, g), budget):
                    added.append(lim)
            merged = canon_sorted(current + added)
            if len(merged) > budget:
                return NotContractingWithinBound("max_states", budget, bounds.max_rounds)
            if len(merged) == len(current):
                current = merged
                break
            old_ids = {aut.canonical_id(e) for e in current}
            fresh = [e for e in merged if aut.canonical_id(e) not in old_ids]
            current = merged
        else:
            return NotContractingWithinBound("max_rounds", budget, bounds.max_rounds)

        # prune: the nucleus is the union of limit restrictions of pair
        # products of the fixpoint (unit factors make single elements pairs)
        witnesses: dict[int, Element] = {}
        pruned: dict[int, Element] = {}
        for h, g in _composable_pairs(aut, current):
            prod = aut.compose(h, g)
            for lim in limit_restrictions(aut, prod, budget):
                cid = aut.canonical_id(lim)
                if cid not in pruned:
                    pruned[cid] = aut.canonical(lim)
                    witnesses[cid] = prod
        states = canon_sorted(pruned.values())

        # certificate: symmetric, restriction-closed, absorbs pair products
        ids = {aut.canonical_id(s) for s in states}
        for s in states:
            if aut.canonical_id(aut.inverse(s)) not in ids:
                raise DivergedError(f"nucleus not symmetric at {s.name()}")
        machine = reachable_closure(aut, states, budget)
        if {aut.canonical_id(s) for s in machine.states} != ids:
            raise DivergedError("nucleus not closed under restriction")
        for h, g in _composable_pairs(aut, states):
            for lim in limit_restrictions(aut, aut.compose(h, g), budget):
                if aut.canonical_id(lim) not in ids:
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
