"""Exact integer linear algebra and the Katsura pipeline.

Smith normal form is exact, over Python integers, in two stages.  Stage 1
is a row Hermite form in Kannan-Bachem order: row k joins the Hermite form
of the rows before it by 2x2 extended-gcd steps, and then every entry above
a pivot is reduced modulo that pivot, which keeps entries near the size of
the minors (at most 76 digits in U, V and D for 32 x 32 matrices with
entries in [-3, 3], seeds 1-3).  Stage 2 clears the unit-pivot rows by
column operations with those reduced entries as multipliers, then finishes
the few non-unit pivots with xgcd row and column steps and a gcd/lcm pass.
U and V come from the same unimodular steps, and every call self-verifies
U*A*V = D, the divisibility chain and |det| = 1.

A Katsura system (A, B) defines a graph with edges e_{i,j,m} for
0 <= m < A_ij pointing from j to i, and one generator a_i per vertex
acting by  a_i . e_{i,j,m} = e_{i,j,n}  with restriction a_j^l,  where
B_ij + m = l*A_ij + n and 0 <= n < A_ij.  The K-groups are
K0 = coker(I-A) + ker(I-B) and K1 = coker(I-B) + ker(I-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .automaton import Automaton, Element, GeneratorRule
from .errors import ShapeMismatchError, ZeroBlockDivisionError
from .graphs import Graph


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(rows) -> "IntMatrix":
        rows = tuple(tuple(row) for row in rows)
        if not all(isinstance(x, int) and not isinstance(x, bool) for row in rows for x in row):
            raise ShapeMismatchError("matrix entries must be integers")
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatchError("ragged rows")
        return IntMatrix(rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.of([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = list(zip(*other.entries))
        return IntMatrix(tuple(tuple(sum(map(mul, row, col)) for col in cols)
                               for row in self.entries))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("shape mismatch")
        return IntMatrix.of([
            [self[i, j] - other[i, j] for j in range(self.cols)]
            for i in range(self.rows)
        ])

    def det(self) -> int:
        """Fraction-free Bareiss determinant (square matrices)."""
        if self.rows != self.cols:
            raise ShapeMismatchError("det needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def to_lists(self):
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class SNFResult:
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.D[i, i] for i in range(min(self.D.rows, self.D.cols))]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _combine(x, y, p, q, r, s):
    """The pair (p*x + q*y, r*x + s*y) of integer vectors."""
    return [p * a + q * b for a, b in zip(x, y)], [r * a + s * b for a, b in zip(x, y)]


def _sub(x, y, q):
    return [a - q * b for a, b in zip(x, y)]


def _eliminate(a, b, x, y, k):
    """Unimodular 2x2 step on vectors a, b (with companions x, y) that leaves
    gcd(a[k], b[k]) in a[k] and 0 in b[k]; a plain subtraction when a[k]
    divides b[k], so that multipliers only grow when the pivot shrinks."""
    p, v = a[k], b[k]
    if v % p == 0:
        return a, _sub(b, a, v // p), x, _sub(y, x, v // p)
    g, s, t = _xgcd(p, v)
    return (*_combine(a, b, s, t, -v // g, p // g), *_combine(x, y, s, t, -v // g, p // g))


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """U*m*V = D with U, V unimodular and D diagonal, nonnegative, with the
    divisibility chain d1 | d2 | ...; self-verified before returning."""
    rows, cols = m.rows, m.cols
    # Stage 1: row Hermite form, one row at a time (Kannan-Bachem order).
    # piv holds [column, row of H, row of U] in echelon order.
    piv, null = [], []
    for k, row in enumerate(m.entries):
        h, w = list(row), [0] * rows
        w[k] = 1
        at, lead = len(piv), 0
        for i, (c, hp, wp) in enumerate(piv):
            while lead < c and not h[lead]:
                lead += 1
            if lead < c:
                at = i
                break
            if h[c]:
                piv[i][1], h, piv[i][2], w = _eliminate(hp, h, wp, w, c)
        while lead < cols and not h[lead]:
            lead += 1
        if lead == cols:
            null.append(w)
        else:
            if h[lead] < 0:
                h, w = [-e for e in h], [-e for e in w]
            piv.insert(at, [lead, h, w])
        # keep every entry above a pivot in [0, pivot)
        for r, (c, hp, wp) in enumerate(piv):
            for i in range(r):
                q = piv[i][1][c] // hp[c]
                if q:
                    piv[i][1:] = _sub(piv[i][1], hp, q), _sub(piv[i][2], wp, q)

    # Stage 2: a unit pivot's column is a unit vector, so column operations
    # clear its row with that row's own (reduced) entries as multipliers.
    ones = [p for p in piv if p[1][p[0]] == 1]
    others = [p for p in piv if p[1][p[0]] != 1]
    vcols = [[int(i == j) for i in range(cols)] for j in range(cols)]
    for c, hp, _ in ones:
        for j, e in enumerate(hp):
            if e and j != c:
                vcols[j][c] = -e
    taken = {c for c, _, _ in ones}
    rest = [j for j in range(cols) if j not in taken]
    us = [wp for _, _, wp in others]
    vs = [vcols[j] for j in rest]
    diag = _smith_block([[hp[j] for j in rest] for _, hp, _ in others], us, vs)

    u = [wp for _, _, wp in ones] + us + null
    v = [vcols[c] for c, _, _ in ones] + vs
    d = [1] * len(ones) + diag
    res = SNFResult(IntMatrix(tuple(map(tuple, u))),
                    IntMatrix(tuple(tuple(d[i] if i == j < len(d) else 0 for j in range(cols))
                                    for i in range(rows))),
                    IntMatrix(tuple(zip(*v))))
    _verify_snf(m, res)
    return res


def _smith_block(a, us, vs) -> list[int]:
    """Smith form of the small residual block a, in place, by xgcd row and
    column steps applied alike to the rows us of U and the columns vs of V;
    returns the nonzero diagonal as a divisibility chain."""
    n, width = len(a), len(vs)
    diag = []
    for k in range(min(n, width)):
        nonzero = [(abs(a[i][j]), i, j) for i in range(k, n) for j in range(k, width) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[k], a[i], us[k], us[i] = a[i], a[k], us[i], us[k]
        for r in a:
            r[k], r[j] = r[j], r[k]
        vs[k], vs[j] = vs[j], vs[k]
        while any(a[k][k + 1:]) or any(r[k] for r in a[k + 1:]):
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i], us[k], us[i] = _eliminate(a[k], a[i], us[k], us[i], k)
            cols = [list(c) for c in zip(*a)]
            for j in range(k + 1, width):
                if cols[j][k]:
                    cols[k], cols[j], vs[k], vs[j] = _eliminate(cols[k], cols[j], vs[k], vs[j], k)
            a[:] = [list(r) for r in zip(*cols)]
        diag.append(a[k][k])
    # (x, y) <- (gcd, lcm) for each pair i < j, by U = [[s, t], [-y/g, x/g]]
    # and V = [[1, -t*y/g], [1, s*x/g]] on the pair
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if y % x:
                g, s, t = _xgcd(x, y)
                us[i], us[j] = _combine(us[i], us[j], s, t, -y // g, x // g)
                vs[i], vs[j] = _combine(vs[i], vs[j], 1, 1, -t * y // g, s * x // g)
                diag[i], diag[j] = g, x // g * y
        if diag[i] < 0:
            diag[i], us[i] = -diag[i], [-e for e in us[i]]
    return diag


def _verify_snf(m: IntMatrix, res: SNFResult):
    if (res.U @ m) @ res.V != res.D:
        raise AssertionError("SNF postcondition U*A*V = D failed")
    if abs(res.U.det()) != 1 or abs(res.V.det()) != 1:
        raise AssertionError("SNF transforms are not unimodular")
    d = res.diagonal()
    for i in range(res.D.rows):
        for j in range(res.D.cols):
            if i != j and res.D[i, j] != 0:
                raise AssertionError("SNF result is not diagonal")
    for x in d:
        if x < 0:
            raise AssertionError("SNF diagonal must be nonnegative")
    for x, y in zip(d, d[1:]):
        if x == 0 and y != 0:
            raise AssertionError("SNF zero entries must come last")
        if x != 0 and y % x != 0:
            raise AssertionError("SNF divisibility chain broken")


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion factors must exceed 1")

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        # (d_i, d_j) <- (gcd, lcm) for i < j turns the factors into a chain
        d = [*self.torsion, *other.torsion]
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
        return AbelianGroup(self.rank + other.rank, tuple(x for x in d if x > 1))

    def as_dict(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


def _coker_ker(m: IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """(coker, ker) of m off one Smith diagonal; ker is free on the zero columns."""
    nonzero = [x for x in smith_normal_form(m).diagonal() if x != 0]
    return (AbelianGroup(m.rows - len(nonzero), tuple(x for x in nonzero if x > 1)),
            AbelianGroup(m.cols - len(nonzero)))


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Z^rows / im(m)."""
    return _coker_ker(m)[0]


def kernel(m: IntMatrix) -> AbelianGroup:
    """ker(m) <= Z^cols."""
    return _coker_ker(m)[1]


def katsura_automaton(a: IntMatrix, b: IntMatrix) -> Automaton:
    """The self-similar groupoid action of the Katsura system (A, B).

    Edge e_{i,j,m} (named ``e<i>_<j>_<m>``) points from vertex j to vertex i;
    generator a_i fixes vertex i on both sides.  a_i.e_{i,j,m} = e_{i,j,n} with
    restriction a_j^l, l of either sign, for B_ij + m = l*A_ij + n, 0 <= n < A_ij.
    """
    if a.rows != a.cols or (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError("A and B must be square of equal size")
    n = a.rows
    if any(a[i, j] < 0 for i in range(n) for j in range(n)):
        raise ShapeMismatchError("A must be nonnegative")
    for i in range(n):
        for j in range(n):
            if a[i, j] == 0 and b[i, j] != 0:
                raise ZeroBlockDivisionError(
                    f"A[{i + 1},{j + 1}] = 0 but B[{i + 1},{j + 1}] != 0")
    if any(all(a[i, j] == 0 for j in range(n)) for i in range(n)):
        raise ShapeMismatchError("A has a zero row: the graph would have a source")

    vertices = [str(i + 1) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            for m in range(a[i, j]):
                edges.append((f"e{i + 1}_{j + 1}_{m}", str(j + 1), str(i + 1)))
    graph = Graph(vertices, edges)

    gens = {}
    for i in range(n):
        rules = {}
        for j in range(n):
            for m in range(a[i, j]):
                l, r = divmod(b[i, j] + m, a[i, j])
                word = ((f"a{j + 1}", l),) if l else ()
                rules[f"e{i + 1}_{j + 1}_{m}"] = (
                    f"e{i + 1}_{j + 1}_{r}", Element(str(j + 1), word))
        gens[f"a{i + 1}"] = GeneratorRule(str(i + 1), str(i + 1), rules)
    return Automaton(graph, gens)


def katsura_ktheory(a: IntMatrix, b: IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """K0 = coker(I-A) + ker(I-B);  K1 = coker(I-B) + ker(I-A)."""
    if a.rows != a.cols or (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError("A and B must be square of equal size")
    ident = IntMatrix.identity(a.rows)
    coker_a, ker_a = _coker_ker(ident - a)
    coker_b, ker_b = _coker_ker(ident - b)
    return coker_a.direct_sum(ker_b), coker_b.direct_sum(ker_a)
