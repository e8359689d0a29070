"""Answer checks that do not use selfsim's own code.

The benchmark parses spec files with its own reader and runs the action
calculus with its own interpreter, so a wrong `act` or `restrict` in the
program cannot also corrupt the check.  Smith normal forms are checked by
their defining product U*A*V = D, diagonality and divisibility.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Nucleus sizes known by hand for the example specs; None = inconclusive.
NUCLEUS_SIZES = {
    "ex310": 6, "basilica": 14, "odometer": 3, "nonhausdorff": 2, "katsura": 6,
    "noncontracting": None,
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Spec:
    """Graph and rule table of a spec file, read without selfsim.

    A rule `e -> f | w` means g.e = f with restriction word w; words list
    symbols left to right and the rightmost symbol acts first.
    """

    def __init__(self, text: str):
        self.vertices: list[str] = []
        self.src: dict[str, str] = {}
        self.dst: dict[str, str] = {}
        self.gens: dict[str, tuple[str, str, dict[str, tuple[str, list[str]]]]] = {}
        current = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[generator"):
                name, _, ends = line[len("[generator"):-1].partition(":")
                dom, _, cod = ends.partition("->")
                current = self.gens.setdefault(name.strip(), (dom.strip(), cod.strip(), {}))
            elif line.startswith("["):
                current = None
            elif line.startswith("vertex "):
                self.vertices.append(line.split()[1])
            elif line.startswith("edge "):
                eid, _, ends = line[len("edge "):].partition(":")
                s, _, r = ends.partition("->")
                self.src[eid.strip()] = s.strip()
                self.dst[eid.strip()] = r.strip()
            elif current is not None:
                lhs, _, word = line.partition("|")
                e, _, f = lhs.partition("->")
                toks = [t for t in word.split() if t not in self.vertices]
                current[2][e.strip()] = (f.strip(), toks)
        self.vertices.sort()
        self.edges = sorted(self.src)
        # inverse tables: g^-1.f = e and g^-1|_f = (g|_e)^-1
        self.inv = {
            g: {f: (e, inverse_word(w)) for e, (f, w) in rules.items()}
            for g, (_, _, rules) in self.gens.items()
        }

    @classmethod
    def load(cls, path: Path) -> "Spec":
        return cls(path.read_text())

    def symbols(self) -> list[str]:
        return [s for g in sorted(self.gens) for s in (g, g + "^-1")]

    def ends(self, sym: str) -> tuple[str, str]:
        """(d, c) of a signed generator symbol."""
        base = sym[:-3] if sym.endswith("^-1") else sym
        dom, cod, _ = self.gens[base]
        return (cod, dom) if sym.endswith("^-1") else (dom, cod)

    def range_edges(self, v: str) -> list[str]:
        return [e for e in self.edges if self.dst[e] == v]

    def act_edge(self, word: list[str], edge: str) -> tuple[str, list[str]]:
        """Image and restriction word of `word` on one edge."""
        restriction: list[str] = []
        for sym in reversed(word):
            if sym.endswith("^-1"):
                edge, piece = self.inv[sym[:-3]][edge]
            else:
                edge, piece = self.gens[sym][2][edge]
            restriction = piece + restriction
        return edge, restriction

    def act(self, word: list[str], path: list[str]) -> tuple[list[str], list[str]]:
        """(word . path, word|_path) for a path given first edge first."""
        out = []
        for e in path:
            img, word = self.act_edge(word, e)
            out.append(img)
        return out, word

    def same_action(self, w1: list[str], w2: list[str], dom: str, depth: int) -> bool:
        """True iff the two words map every path of length <= depth ending at
        `dom` to the same image (a bounded, necessary test of equality)."""
        frontier = [(w1, w2, dom)]
        for _ in range(depth):
            nxt = []
            for a, b, v in frontier:
                for e in self.range_edges(v):
                    ia, ra = self.act_edge(a, e)
                    ib, rb = self.act_edge(b, e)
                    if ia != ib:
                        return False
                    nxt.append((ra, rb, self.src[e]))
            frontier = nxt
        return True


def inverse_word(word: list[str]) -> list[str]:
    return [s[:-3] if s.endswith("^-1") else s + "^-1" for s in reversed(word)]


def random_word(spec: Spec, rng, length: int) -> tuple[list[str], str]:
    """A composable signed word (rightmost acts first) and its domain."""
    first = rng.choice(spec.symbols())
    dom, cur = spec.ends(first)
    word = [first]
    for _ in range(length - 1):
        options = [s for s in spec.symbols() if spec.ends(s)[0] == cur]
        if not options:
            break
        sym = rng.choice(options)
        word.insert(0, sym)
        cur = spec.ends(sym)[1]
    return word, dom


def random_path(spec: Spec, rng, end: str, length: int) -> list[str]:
    """A path of the given length whose range r(path) is `end`."""
    path, cur = [], end
    for _ in range(length):
        e = rng.choice(spec.range_edges(cur))
        path.append(e)
        cur = spec.src[e]
    return path


def check_snf(a: list[list[int]], u: list[list[int]], d: list[list[int]],
              v: list[list[int]]) -> bool:
    """U*A*V == D, D diagonal and nonnegative with d1 | d2 | ..., zeros last,
    and U, V square of the right sizes."""
    rows, cols = len(a), len(a[0])
    if len(u) != rows or len(v) != cols or any(len(r) != rows for r in u):
        return False

    def mul(x, y):
        return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]

    if mul(mul(u, a), v) != d:
        return False
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        return False
    if any(x < 0 for x in diag):
        return False
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x != 0):
            return False
    return True


def max_digits(matrices) -> int:
    """Decimal digits of the largest entry, from int.bit_length() because
    str() on an int past 4,300 digits raises on Python 3.11+.  Exact up to
    one: it is the digit count of the largest power of two <= the entry."""
    bits = max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)
    return math.floor((bits - 1) * math.log10(2)) + 1 if bits else 1
