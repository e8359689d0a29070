"""The edge automaton and the action/restriction calculus it generates.

A rule table assigns to each generator g a domain vertex d(g), a codomain
vertex c(g), and for every edge e with r(e) = d(g) an image edge g.e with
r(g.e) = c(g) together with a restriction element g|_e satisfying

    d(g|_e) = s(e)   and   c(g|_e) = s(g.e).

The action extends to paths by g.(e mu) = (g.e)(g|_e . mu), to words by

    (hg).mu = h.(g.mu)        (hg)|_mu = (h|_{g.mu}) (g|_mu)

and to inverses by g^-1|_eta = (g|_{g^-1.eta})^-1.  Groupoid elements are
domain-tagged words of runs: a run (g, k), k a nonzero integer, is the power
g^k, and adjacent runs never share name and sign, so every word written out
symbol by symbol (its expanded word) has exactly one canonical form.  No
word is freely reduced and no exponent is reduced modulo an order: g g^-1
stays two runs.  ``join`` builds every word; ``read_word`` is the one
reader of their literals, for element arguments, spec-file rules and
validation alike.  Names and listings read the expanded word; the
shortlex order reads the runs.

A run (s, k) acts on an edge e through an orbit table, made on first use by
one graphs.rho walk of s from e: the orbit e = e_0, ..., e_{L-1}, the prefix
restrictions s^r|_e for r <= L and the orbit product P = s^L|_e.  With
k = qL + r the image is e_r and s^k|_e = (s^r|_e) P^q, so a Katsura power
a^k costs O(L), not O(k).  A walk that stops (s is not a loop) serves
|k| = 1 only.
Two words are identified exactly when they act identically on every finite
path.  That identity is decided by a greatest-fixpoint bisimulation on
restriction pairs: a pair refutes if it disagrees on some edge image, and a
revisited pair is assumed equal (sound because the visited relation is then
a bisimulation, and by induction bisimilar words agree on all finite paths).
When every rule restriction is a single signed symbol or a unit, restriction
never lengthens words, so the search space is finite; longer rule words may
grow, so searches stop at the automaton's ``bounds`` and words at
_MAX_WORD_LEN expanded symbols, raising ClosureLimitError past either.

Class identification is memoised per automaton, through a discrimination
tree that runs one bisimulation per lookup (_Registry).  Every class id owns
a row: the image edge and the successor class id for each edge of
range_edges(d), filled once from the representative current at first use
(the row is a class invariant).  A restriction closure renumbers its
classes' rows by state into a StateMachine, the one table that the nucleus,
dynamics, Schreier and export code read, comparing states by rows.  The act
cache and the word->class memo share one memo bounded by _CACHE_SYMBOLS runs
in total and evict oldest first, so the call sequence alone fixes them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

from .errors import (
    AutomatonError,
    ClosureLimitError,
    DomainMismatchError,
    NonComposableError,
    NotBijectiveOnEdgesError,
    RestrictionVertexMismatchError,
    UnknownSymbolError,
)
from .graphs import Graph, Path, bfs, bfs_labels, refine, rho

# A run of one generator: (name, k) with k != 0 is g^k; (name, -1) is g^-1.
Symbol = tuple[str, int]

# Upper bound on the runs (key words plus restriction words) that one
# automaton's memo holds.  The heaviest recorded Katsura systems fill about
# 51 k in a 5 s nucleus search, so the bound leaves room and memory stays flat.
_CACHE_SYMBOLS = 1 << 18
# Restriction words may grow when rule restrictions have length >= 2;
# word_act_edge gives up past this expanded length instead of diverging.
_MAX_WORD_LEN = 4_096


def _tokens(word):
    """The expanded word: one symbol string per generator letter."""
    for name, k in word:
        yield from repeat(name if k > 0 else f"{name}^-1", abs(k))


def symbol_str(sym: Symbol) -> str:
    """A run written out: ``g g`` for (g, 2), ``g^-1`` for (g, -1)."""
    return " ".join(_tokens((sym,)))


def join(*words) -> tuple[Symbol, ...]:
    """The canonical word of the runs of ``words`` in order: adjacent runs of
    one name and sign merge, and nothing cancels."""
    out: list[Symbol] = []
    for word in words:
        for name, k in word:
            if out and out[-1][0] == name and (out[-1][1] > 0) == (k > 0):
                out[-1] = (name, out[-1][1] + k)
            else:
                out.append((name, k))
    return tuple(out)


@dataclass(frozen=True)
class Element:
    """A groupoid element: a canonical word of runs over the generators,
    tagged with its domain vertex.  The empty word is the unit at ``dom``."""

    dom: str
    word: tuple[Symbol, ...] = ()

    @property
    def is_unit(self) -> bool:
        return not self.word

    def name(self) -> str:
        return " ".join(_tokens(self.word)) if self.word else self.dom


def word_key(word: tuple[Symbol, ...]):
    """Shortlex order on expanded words, read off the runs; used for
    canonical representatives.  After the length, a run of token t and length
    n is (t, 0, n) when the next token sorts below t, (t, 1, 0) at the end and
    (t, 2, -n) when it sorts above: adjacent runs never share a token."""
    tokens = [name if k > 0 else f"{name}^-1" for name, k in word]
    return (sum(abs(k) for _, k in word),
            tuple((t, 1, 0) if u is None else (t, 0, abs(k)) if u < t else (t, 2, -abs(k))
                  for t, u, (_, k) in zip(tokens, tokens[1:] + [None], word)))


@dataclass(frozen=True)
class GeneratorRule:
    dom: str
    cod: str
    # edge id -> (image edge id, restriction element with d = s(e), c = s(g.e))
    rules: dict[str, tuple[str, Element]] = field(default_factory=dict)


@dataclass(frozen=True)
class Bounds:  # an automaton's budgets, read by every search it runs
    max_states: int = 10_000
    max_rounds: int = 64


class Automaton:
    """A validated-on-demand rule table over a fixed graph.

    Construction never raises for rule-level problems; ``violations`` lists
    them in deterministic order, and the action operations refuse to run
    while it is nonempty.  Vertex names double as unit symbols, so generator
    names must not collide with vertex names, and a trailing ``^-1`` marks
    an inverse, so no generator name ends in it; Schreier DOT labels join
    names with commas, so no generator or vertex name holds one.
    """

    def __init__(self, graph: Graph, generators: dict[str, GeneratorRule],
                 bounds: Bounds = Bounds()):
        self.graph = graph
        self.generators = dict(sorted(generators.items()))
        self.bounds = bounds
        for name in self.generators:
            if graph.has_edge(name) or name in set(graph.vertices):
                raise AutomatonError(f"generator name {name!r} collides with a graph id")
            if name.endswith("^-1"):  # read_word would take it for an inverse
                raise AutomatonError(f"generator name {name!r} ends in the inverse marker ^-1")
        for name in (*self.generators, *graph.vertices):
            if "," in name:  # a Schreier DOT label joins its names with ","
                raise AutomatonError(f"name {name!r} holds the DOT label separator ','")
        # generator name -> (d, c), the one endpoint map words are read by
        self._ends = {name: (rule.dom, rule.cod) for name, rule in self.generators.items()}
        self.violations = _validate(graph, self.generators, self._ends)
        # signed symbol -> edge -> (image edge, restriction word)
        self._moves: dict[Symbol, dict[str, tuple[str, tuple[Symbol, ...]]]] = {}
        if not self.violations:
            for name, rule in self.generators.items():
                rows = {e: (img, join(r.word)) for e, (img, r) in rule.rules.items()}
                self._moves[(name, 1)] = rows
                self._moves[(name, -1)] = {img: (e, _inverse_word(w))
                                           for e, (img, w) in rows.items()}
        # (name, k > 0, edge) -> orbit table of the signed symbol; see _orbit
        self._orbits: dict[tuple[str, bool, str], tuple] = {}
        self._registry = _Registry(self)
        # (word, edge) -> (image, restriction word) and (dom, word) -> class
        # id share one memo, bounded by the runs it holds
        self._memo = _SymbolMemo(_CACHE_SYMBOLS)

    # -- element constructors -------------------------------------------------

    def unit(self, v: str) -> Element:
        if v not in set(self.graph.vertices):
            raise UnknownSymbolError(f"unknown vertex {v!r}")
        return Element(v, ())

    def generator(self, name: str) -> Element:
        rule = self.generators.get(name)
        if rule is None:
            raise UnknownSymbolError(f"unknown generator {name!r}")
        return Element(rule.dom, ((name, 1),))

    def basic_elements(self) -> list[Element]:
        """The units, then each generator followed by its inverse, by name."""
        out = [self.unit(v) for v in self.graph.vertices]
        for name in self.generators:  # sorted at construction
            out += [self.generator(name), self.inverse(self.generator(name))]
        return out

    def element(self, tokens) -> Element:
        """Build an element from symbol tokens; see :func:`read_word`."""
        return read_word(self._ends, self.graph.vertices, tokens)

    # -- endpoint maps ---------------------------------------------------------

    def sym_endpoints(self, sym: Symbol) -> tuple[str, str]:
        """(d, c) of a run."""
        d, c = self._ends[sym[0]]
        return (d, c) if sym[1] > 0 else (c, d)

    def cod(self, g: Element) -> str:
        return self.sym_endpoints(g.word[0])[1] if g.word else g.dom

    # -- the calculus ----------------------------------------------------------

    def _require_valid(self):
        if self.violations:
            raise self.violations[0]

    def word_act_edge(self, word: tuple[Symbol, ...], edge: str) -> tuple[str, tuple[Symbol, ...]]:
        """Image and restriction word of a word on a single edge, one orbit
        table read per run; see the module docstring."""
        if self.violations:  # _require_valid, inlined on the hottest path
            raise self.violations[0]
        key = (word, edge)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        orbits = self._orbits
        img = edge
        pieces = []
        total = 0  # expanded length of the restriction so far
        for name, k in reversed(word):
            table = orbits.get((name, k > 0, img)) or self._orbit(name, k > 0, img)
            nodes, prefix, sizes, loop = table
            n = abs(k)
            q, r = divmod(n, len(nodes)) if loop else (0, min(n, len(nodes) - 1))
            total += sizes[r] + q * sizes[-1]
            if total > _MAX_WORD_LEN:
                raise ClosureLimitError(_MAX_WORD_LEN, "restriction word growth")
            if r < n and not loop:  # the walk stopped at nodes[r]
                raise DomainMismatchError(
                    f"{symbol_str((name, k // n))} does not act on edge {nodes[r]!r}")
            img, orbit = nodes[r], prefix[-1]
            if q and orbit:  # s^k|_e = (s^r|_e) P^q, P the orbit product
                if len(orbit) == 1:
                    pieces.append(((orbit[0][0], orbit[0][1] * q),))
                else:
                    pieces += [orbit] * q
            if prefix[r]:
                pieces.append(prefix[r])
        out = pieces[0] if len(pieces) == 1 else join(*reversed(pieces))  # pieces are canonical
        self._memo.put(key, (img, out), len(word) + len(out))
        return img, out

    def _orbit(self, name: str, positive: bool, edge: str) -> tuple:
        """The orbit table of name^{+-1} at edge: (nodes, prefix, sizes, loop)
        with nodes the graphs.rho walk from edge, prefix[r] = s^r|_edge for
        r up to the walk's steps, sizes their expanded lengths, and loop
        whether the walk closed (then prefix[-1] is the orbit product)."""
        move = self._moves[name, 1 if positive else -1]
        prefix, sizes = [()], [0]

        def step(e):
            hit = move.get(e)
            if hit is None:
                return None
            prefix.append(join(hit[1], prefix[-1]))
            sizes.append(sizes[-1] + sum(abs(k) for _, k in hit[1]))
            return hit[0]
        nodes, start = rho(edge, step)
        table = self._orbits[name, positive, edge] = (nodes, prefix, sizes, start is not None)
        return table

    def act(self, g: Element, p: Path) -> Path:
        """g . p, defined when r(p) = d(g); length preserving."""
        if p.r(self.graph) != g.dom:
            raise DomainMismatchError(f"r(path) = {p.r(self.graph)} != d(g) = {g.dom}")
        return Path(self.cod(g), self._images(g.word, p.edges))

    def _images(self, word, path: tuple[str, ...]) -> tuple[str, ...]:
        """The image edges of a word along a path of edge ids: act without its check."""
        out = []
        for e in path:
            img, word = self.word_act_edge(word, e)
            out.append(img)
        return tuple(out)

    def restrict(self, g: Element, p: Path) -> Element:
        """g|_p, defined when r(p) = d(g)."""
        if p.r(self.graph) != g.dom:
            raise DomainMismatchError(f"r(path) = {p.r(self.graph)} != d(g) = {g.dom}")
        word = g.word
        for e in p.edges:
            _, word = self.word_act_edge(word, e)
        return Element(p.s(self.graph), word)

    def inverse(self, g: Element) -> Element:
        return Element(self.cod(g), _inverse_word(g.word))

    def compose(self, h: Element, g: Element) -> Element:
        """h after g; defined when d(h) = c(g)."""
        if h.dom != self.cod(g):
            raise NonComposableError(f"d(h) = {h.dom} != c(g) = {self.cod(g)}")
        return Element(g.dom, join(h.word, g.word))

    def equal(self, g: Element, h: Element) -> bool:
        """True iff g and h define the same partial isomorphism of E*."""
        self._require_valid()
        return g.dom == h.dom and self.cod(g) == self.cod(h) and self._discerning_path(g, h) is None

    def _discerning_path(self, g: Element, h: Element) -> tuple[str, ...] | None:
        """None when g and h, of one domain, act alike on every finite path, else
        the edge ids of a path from d(g) on whose last edge their images differ:
        the module docstring's bisimulation, depth first, under its budget."""
        budget = self.bounds.max_states
        seen: dict[tuple, tuple | None] = {}  # pair -> (parent pair, edge id), as graphs.bfs
        stack: list[tuple] = [(g.word, h.word, g.dom, None)]
        while stack:
            gw, hw, dom, via = stack.pop()
            key = (gw, hw)
            if key in seen:
                continue
            seen[key] = via
            if len(seen) > budget:
                raise ClosureLimitError(budget, "bisimulation")
            for e in self.graph.range_edges(dom):
                gi, gr = self.word_act_edge(gw, e.id)
                hi, hr = self.word_act_edge(hw, e.id)
                if gi != hi:
                    return (*bfs_labels(seen, key), e.id)
                if gr != hr:
                    stack.append((gr, hr, e.src, (key, e.id)))
        return None

    def act_infinite(self, g: Element, x):
        """g . x for an eventually periodic right-infinite path x.

        Runs restrictions along x's head, then walks the (class id, cycle
        phase) nodes past it with graphs.rho to the first repeat, which
        closes the output cycle; the image is eventually periodic with
        transient at most max_states states."""
        from .infinite_paths import RightInfinitePath

        if x.r(self.graph) != g.dom:
            raise DomainMismatchError(f"r(x) = {x.r(self.graph)} != d(g) = {g.dom}")
        budget, head, cycle = self.bounds.max_states, len(x.head), x.cycle
        word, out = g.word, []
        for e in x.head:
            img, word = self.word_act_edge(word, e)
            out.append(img)

        def step(node):  # word is a word of node's class: rho steps along one walk
            nonlocal word
            if len(out) - head > budget:
                raise ClosureLimitError(budget, "act_infinite cycle search")
            e = cycle[node[1]]
            img, word = self.word_act_edge(word, e)
            out.append(img)
            return self.canonical_id(Element(self.graph.s(e), word)), (node[1] + 1) % len(cycle)

        _, cut = rho((self.canonical_id(Element(self.graph.r(cycle[0]), word)), 0), step)
        return RightInfinitePath.make(self.graph, out[:head + cut], out[head + cut:])

    # -- canonical classes -----------------------------------------------------

    def canonical_id(self, g: Element) -> int:
        return self._registry.lookup(g)[0]

    def canonical(self, g: Element) -> Element:
        """The canonical representative of g's class: the shortlex-least
        word discovered so far (cosmetic; the class id is the identity)."""
        return self._registry.lookup(g)[1]


def _inverse_word(word: tuple[Symbol, ...]) -> tuple[Symbol, ...]:
    return tuple((n, -e) for n, e in reversed(word))


def read_word(ends, vertices, tokens) -> Element:
    """The one reader of symbol words, for element literals and spec rules.

    Tokens (a string is split on whitespace) are read left to right, the
    rightmost acting first: ``g`` and ``g^-1`` for a generator g of ``ends``
    (name -> (d, c)), or a vertex name for the unit there, which is dropped
    once its endpoints are checked.  Adjacent symbols must chain, d of each
    equal to c of the next.
    """
    if isinstance(tokens, str):
        tokens = tokens.split()
    syms = []  # (symbol, or None for a unit, d, c)
    for tok in tokens:
        base = tok[:-3] if tok.endswith("^-1") else tok
        if base in ends:
            d, c = ends[base]
            syms.append(((base, 1), d, c) if base == tok else ((base, -1), c, d))
        elif tok in vertices:
            syms.append((None, tok, tok))
        else:
            raise UnknownSymbolError(f"unknown symbol {tok!r}")
    if not syms:
        raise UnknownSymbolError("an element literal needs at least one token")
    for (_, d, _), (_, _, c) in zip(syms, syms[1:]):
        if d != c:
            raise NonComposableError("adjacent symbols do not chain")
    return Element(syms[-1][1], join(sym for sym, _, _ in syms if sym))


def _validate(graph: Graph, generators: dict[str, GeneratorRule], ends):
    """Both automaton invariants, reported as a list of exceptions."""
    violations: list[AutomatonError] = []
    for name, rule in sorted(generators.items()):
        if rule.dom not in set(graph.vertices) or rule.cod not in set(graph.vertices):
            violations.append(NotBijectiveOnEdgesError(name, "unknown dom/cod vertex"))
            continue
        dom_edges = {e.id for e in graph.range_edges(rule.dom)}
        cod_edges = {e.id for e in graph.range_edges(rule.cod)}
        if set(rule.rules) != dom_edges:
            violations.append(NotBijectiveOnEdgesError(
                name, f"rules cover {sorted(rule.rules)}, need exactly {sorted(dom_edges)}"))
            continue
        images = [img for img, _ in rule.rules.values()]
        if set(images) - cod_edges or len(set(images)) != len(images) or set(images) != cod_edges:
            violations.append(NotBijectiveOnEdgesError(
                name, f"edge images {sorted(images)} are not a bijection onto {sorted(cod_edges)}"))
            continue
        for e, (img, restr) in sorted(rule.rules.items()):
            want_d, want_c = graph.s(e), graph.s(img)
            d = c = restr.dom
            if restr.word:
                # (d, c) of each run's letters, read off the run, never spelled
                # out: a run of two or more letters chains only on a loop
                ends_of = [ends[g] if k > 0 else ends[g][::-1] for g, k in restr.word if g in ends]
                if (len(ends_of) < len(restr.word)
                        or any(abs(k) > 1 and x != y for (_, k), (x, y) in zip(restr.word, ends_of))
                        or any(x != y for (x, _), (_, y) in zip(ends_of, ends_of[1:]))):
                    violations.append(
                        RestrictionVertexMismatchError(name, e, "word does not chain"))
                    continue
                d, c = ends_of[-1][0], ends_of[0][1]  # d of its last run, c of its first
            if d != want_d or c != want_c:
                violations.append(RestrictionVertexMismatchError(
                    name, e, f"restriction has (d, c) = ({d}, {c}), rule needs ({want_d}, {want_c})"))
    return violations


class _SymbolMemo(dict):
    """A memo bounded by the total number of runs its entries' words hold;
    past the bound it drops the oldest entries first."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self.symbols = 0
        self._order: deque[tuple[object, int]] = deque()  # (key, symbols), oldest first

    def put(self, key, value, symbols: int):
        if symbols > self.limit or key in self:
            return
        self[key] = value
        self._order.append((key, symbols))
        self.symbols += symbols
        while self.symbols > self.limit:
            old, n = self._order.popleft()
            del self[old]
            self.symbols -= n


@dataclass(eq=False)
class _Split:
    """A discrimination tree node: subtrees keyed by images along ``path``."""

    path: tuple[str, ...]  # edge ids
    children: dict


class _Registry:
    """Canonical-class registry: maps elements to stable class ids.

    Below a depth-2 action fingerprint, classes sit in a Kearns-Vazirani
    discrimination tree: g sifts down each _Split to the child keyed by its
    images along the split's path, a class invariant, so only the class at
    its leaf can be g's, and one bisimulation decides; a refutation's path
    turns the leaf into a split.  A sift whose words outgrow a path raises
    ClosureLimitError.  The first element of a class fixes its id; the stored
    representative word is replaced whenever a shortlex-smaller member shows
    up.  ``rows[cid]`` holds, once asked for, (edge id, image edge, successor
    class id) for each edge of the class's range_edges(d).
    """

    def __init__(self, aut: Automaton):
        self.aut = aut
        self.by_fp: dict[tuple, int | _Split] = {}  # fingerprint -> tree
        self.reps: list[Element] = []
        self.rows: list[tuple[tuple[str, str, int], ...] | None] = []

    def _fingerprint(self, g: Element) -> tuple:
        aut = self.aut
        acts = []
        for e in aut.graph.range_edges(g.dom):
            img, rw = aut.word_act_edge(g.word, e.id)
            deeper = []
            for f in aut.graph.range_edges(e.src):
                img2, _ = aut.word_act_edge(rw, f.id)
                deeper.append(img2)
            acts.append((img, tuple(deeper)))
        return (g.dom, aut.cod(g), tuple(acts))

    def lookup(self, g: Element) -> tuple[int, Element]:
        aut = self.aut
        aut._require_valid()
        key = (g.dom, g.word)
        cached = aut._memo.get(key)
        if cached is not None:
            return cached, self.reps[cached]
        fp = self._fingerprint(g)
        walk = [self.by_fp.get(fp)]  # the sift: from a split, the child for g's images on its path
        at = [(self.by_fp, fp)]  # the dict and key each node of the walk hangs at
        for node in walk:  # the walk grows while it is read
            if isinstance(node, _Split):
                at.append((node.children, aut._images(g.word, node.path)))
                walk.append(node.children.get(at[-1][1]))
        leaf = walk[-1]
        path = aut._discerning_path(g, self.reps[leaf]) if isinstance(leaf, int) else ()
        if path is None:  # g is of leaf's class
            cid = leaf
            if word_key(g.word) < word_key(self.reps[cid].word):
                self.reps[cid] = g
        else:  # a new class, which differs from leaf's, if any, on path
            up, k = at[-1]
            cid = up[k] = len(self.reps)
            self.reps.append(g)
            self.rows.append(None)
            if path:
                up[k] = _Split(path, {aut._images(self.reps[leaf].word, path): leaf,
                                      aut._images(g.word, path): cid})
        aut._memo.put(key, cid, len(g.word))
        return cid, self.reps[cid]

    def row(self, cid: int) -> tuple[tuple[str, str, int], ...]:
        row = self.rows[cid]
        if row is None:
            aut = self.aut
            g = self.reps[cid]
            out = []
            for e in aut.graph.range_edges(g.dom):
                img, rw = aut.word_act_edge(g.word, e.id)
                out.append((e.id, img, self.lookup(Element(e.src, rw))[0]))
            row = self.rows[cid] = tuple(out)
        return row


@dataclass
class StateMachine:
    """A finite restriction-closed set of classes as an integer transducer.
    ``rows[i]`` maps each edge of range_edges(doms[i]), in edge id order, to
    (image edge, successor state): state i, a word of its class, acts on e by
    the image and restricts to the successor.  reachable_closure numbers
    states in BFS order from the seeds, so exports are deterministic."""

    states: list[Element]
    doms: list[str]
    cods: list[str]
    rows: list[dict[str, tuple[str, int]]]
    # canonical class id -> state number; None unless reachable_closure made it
    index: dict[int, int] | None = None

    def __len__(self):
        return len(self.states)

    def renumbered(self, order) -> StateMachine:
        """The states ``order`` as a machine, in that order and with no
        class ids; a successor outside them becomes None."""
        at = {s: i for i, s in enumerate(order)}
        return StateMachine(
            states=[self.states[s] for s in order],
            doms=[self.doms[s] for s in order],
            cods=[self.cods[s] for s in order],
            rows=[{e: (img, at.get(j)) for e, (img, j) in self.rows[s].items()} for s in order],
        )

    def inverses(self) -> list[int | None]:
        """Each state's inverse, None where this restriction-closed machine lacks
        it, by one refine with the flipped rows (s^-1).(s.e) = e, (s^-1)|_{s.e} = (s|_e)^-1."""
        n = len(self)
        flipped = [dict(sorted((img, (e, n + j)) for e, (img, j) in r.items())) for r in self.rows]
        items = [*zip(self.doms, self.cods, self.rows), *zip(self.cods, self.doms, flipped)]
        block = refine([(d, c, *(img for img, _ in r.values())) for d, c, r in items],
                       [[j for _, j in r.values()] for _, _, r in items])
        return [b if b < n else None for b in block[n:]]

    def shortlex(self, i: int):
        """State i's place in the (word_key, dom) order, as a sort key."""
        return word_key(self.states[i].word), self.doms[i]

    def state_index(self, aut: Automaton, g: Element) -> int | None:
        if self.index is None:
            raise ValueError("no class ids: only a reachable_closure machine has them")
        return self.index.get(aut.canonical_id(g))

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "states": [
                {"id": i, "name": s.name(), "dom": self.doms[i], "cod": self.cods[i],
                 "unit": s.is_unit}
                for i, s in enumerate(self.states)
            ],
            "transitions": [
                {"state": i, "edge": e, "image": img, "successor": j}
                for i, row in enumerate(self.rows) for e, (img, j) in row.items()
            ],
        }


def reachable_closure(aut: Automaton, seeds) -> StateMachine:
    """Smallest restriction-closed set of canonical elements containing the
    seeds (units included); ClosureLimitError past aut.bounds.max_states.
    The seeds themselves are not charged against the budget."""
    aut._require_valid()
    budget = aut.bounds.max_states
    registry = aut._registry
    starts = dict.fromkeys(registry.lookup(s)[0] for s in seeds)
    limit = max(budget, len(starts))
    order: list[int] = []  # class ids in BFS order
    for cid, parent in bfs(starts, lambda c: ((None, j) for _, _, j in registry.row(c))):
        if len(parent) > limit:
            raise ClosureLimitError(budget, "restriction closure")
        order.append(cid)
    index = {cid: i for i, cid in enumerate(order)}
    rows = [{eid: (img, index[j]) for eid, img, j in registry.row(cid)} for cid in order]
    # read representatives last: later lookups may have found smaller words
    states = [registry.reps[cid] for cid in order]
    return StateMachine(
        states=states,
        doms=[g.dom for g in states],
        cods=[aut.cod(g) for g in states],
        rows=rows,
        index=index,
    )
