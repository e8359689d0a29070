"""Contracting detection and nucleus computation.

The nucleus is the union over all groupoid elements g of the limit set of
g's restrictions: the elements that occur as g|_mu at unboundedly many
depths.  In the finite digraph whose nodes are g's canonical restrictions
and whose arcs are single-edge restrictions, those are exactly the nodes
reachable from a directed cycle.

The computation iterates products of two: start from the restriction
closure S of generators, inverses and units; repeatedly add the limit
restrictions of all composable pairs until S is a fixpoint.  Restrictions
of a k-fold product of S elements land, deep enough, in products of two
(the restriction of a product is the product of restrictions), so the
fixpoint S is a contracting core, and the nucleus is what the rounds found:
the limit sets of its pairs (a unit factor makes one element a pair).

Each round holds S as the StateMachine of its class representatives in
(word_key, dom) order.  As (hg)|_mu = h|_{g.mu} g|_mu, the restrictions of
hg are the products along the walks from (h, g) in the pair digraph on
S x S with arcs (h, g) -e-> (h|_{g.e}, g|_e), read off the machine's rows;
hg's limit set is the products at the pairs on or after a cycle that
(h, g) reaches.  So one Tarjan pass gives every pair's limit set, and only
those products are identified.  Exceeding the state or round budget yields
NotContractingWithinBound, never a claim of non-contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import Automaton, Element, StateMachine, reachable_closure, word_key
from .errors import ClosureLimitError, DivergedError
from .graphs import limit_nodes, strongly_connected_components


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

    def power(self, k: int) -> StateMachine:
        """The machine of the restriction closure of N^k, the products of k
        nucleus states, seeded in word_key order.  Each round multiplies the
        products so far by the states: N^(k-1) lies in N^k, as the unit at
        c(n) of a nucleus state n is a nucleus state."""
        aut = self.automaton
        seeds = {aut.canonical_id(s): s for s in self.states}
        for _ in range(k - 1):
            for g in list(seeds.values()):
                for h in self.states:
                    if h.dom == aut.cod(g):
                        prod = aut.compose(h, g)
                        seeds.setdefault(aut.canonical_id(prod), aut.canonical(prod))
        return reachable_closure(aut, sorted(seeds.values(), key=lambda e: word_key(e.word)))


def limit_restrictions(aut: Automaton, g: Element) -> set[Element]:
    """Canonical restrictions of g occurring at unboundedly many depths:
    the nodes of g's restriction digraph reachable from a directed cycle."""
    sm = reachable_closure(aut, [g])
    succ = [[j for _, j in row.values()] for row in sm.rows]
    return {sm.states[i] for i in limit_nodes(range(len(sm)), succ.__getitem__)}


def _pair_limits(aut: Automaton, sm: StateMachine, touch) -> dict[int, Element]:
    """Class id -> witness for the limit restrictions of the products hg of
    composable pairs of states of ``sm`` with h or g in the states ``touch``
    (all pairs when None); a witness is a product whose own limit set holds
    the class.  Pair nodes are integers h * |sm| + g, and their arcs are
    made on demand from the rows, not stored."""
    n, rows, elems = len(sm), sm.rows, sm.states

    def succ(node):
        h, g = divmod(node, n)
        left = rows[h]  # h acts on the edge g.e
        return [n * left[img][1] + g2 for img, g2 in rows[g].values()]

    starts = (h * n + g for g, cod in enumerate(sm.cods) for h, dom in enumerate(sm.doms)
              if dom == cod and (touch is None or h in touch or g in touch))
    out: dict[int, Element] = {}
    for node, cyc in limit_nodes(starts, succ).items():
        h, g = divmod(node, n)
        out.setdefault(aut.canonical_id(aut.compose(elems[h], elems[g])),
                       aut.compose(elems[cyc // n], elems[cyc % n]))
    return out


def compute_nucleus(aut: Automaton):
    """Nucleus with closure certificate, or NotContractingWithinBound.

    Each pair of the fixpoint is scanned in one round, and its limit set
    reads only the sub-machine it reaches, so the rounds' limit sets make up
    the nucleus.  Every search reads ``aut.bounds``: its state budget caps
    each closure and identification, and its round count the iteration."""
    aut._require_valid()
    budget, rounds = aut.bounds.max_states, aut.bounds.max_rounds

    def reps_sorted(class_ids):
        # units tie on word_key; dom breaks the tie independently of hashing
        return sorted((aut._registry.reps[c] for c in class_ids),
                      key=lambda e: (word_key(e.word), e.dom))

    try:
        closure = reachable_closure(aut, aut.basic_elements())
        sm = reachable_closure(aut, reps_sorted(closure.index))

        witnesses, fresh = {}, None  # round 1: every pair; later: pairs touching a new state
        for _round in range(rounds):
            for cid, w in _pair_limits(aut, sm, fresh).items():
                witnesses.setdefault(cid, w)
            new = witnesses.keys() - sm.index.keys()
            if new:  # limit sets are restriction closed, so this closure adds nothing
                sm = reachable_closure(aut, reps_sorted([*sm.index, *new]))
            if len(sm) > budget:  # seeds are not capped, so the first S may exceed it
                return NotContractingWithinBound("max_states", budget, rounds)
            if not new:
                break
            fresh = {sm.index[c] for c in new}
        else:
            return NotContractingWithinBound("max_rounds", budget, rounds)
        states = reps_sorted(witnesses)

        # certificate: symmetric, restriction-closed, absorbs pair products
        for s in states:
            if aut.canonical_id(aut.inverse(s)) not in witnesses:
                raise DivergedError(f"nucleus not symmetric at {s.name()}")
        machine = reachable_closure(aut, states)
        if machine.index.keys() != witnesses.keys():
            raise DivergedError("nucleus not closed under restriction")
        if not _pair_limits(aut, machine, None).keys() <= witnesses.keys():
            raise DivergedError("contracting certificate failed")
    except ClosureLimitError as e:
        return NotContractingWithinBound(e.what, budget, rounds)

    nuc = Nucleus(aut, tuple(states), machine)
    nuc.witnesses = {cid: aut.canonical(w) for cid, w in witnesses.items()}
    return nuc


def compute_Rk(nuc: Nucleus, k: int) -> int:
    """Minimal j with h|_mu in the nucleus for every h in N^k, mu in E^j.

    Read off the machine of N^k (``Nucleus.power``) in one Tarjan pass: a
    nucleus state has depth 0, any other state 1 + the largest depth of its
    successors, and R_k is the largest depth.  A state outside the nucleus
    on a cycle would never reach it, which the certificate rules out.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k in nuc.r_k:
        return nuc.r_k[k]
    sm = nuc.power(k)
    succ = [[j for _, j in row.values()] for row in sm.rows]
    inside = {i for c, i in sm.index.items() if c in nuc.machine.index}
    depth = [0] * len(sm)
    # components come successors first, so each depth reads finished ones
    for comp in strongly_connected_components(range(len(sm)), succ.__getitem__):
        for i in comp:
            if i in inside:
                continue
            if len(comp) > 1 or i in succ[i]:
                raise DivergedError(f"R_{k}: {sm.states[i].name()} lies on a cycle "
                                    "of restrictions outside the nucleus")
            depth[i] = 1 + max((depth[j] for j in succ[i]), default=0)
    nuc.r_k[k] = max(depth)
    return nuc.r_k[k]


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
            lines.append(f'  n{i} [label="{s.name()}", shape={shape}];')
        for i, row in enumerate(sm.rows):
            lines += [f'  n{i} -> n{j} [label="{e}/{img}"];' for e, (img, j) in row.items()]
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")
