import itertools
import math
import random

import pytest

from selfsim.errors import ShapeMismatchError, ZeroBlockDivisionError
from selfsim.ktheory import (
    AbelianGroup,
    IntMatrix,
    _verify_snf,
    cokernel,
    katsura_automaton,
    katsura_ktheory,
    kernel,
    smith_normal_form,
)
from selfsim.nucleus import Nucleus, compute_nucleus
from selfsim.automaton import Element
from selfsim.graphs import validate_graph

A = IntMatrix.of([[2, 1], [2, 2]])
B = IntMatrix.of([[1, 0], [1, 1]])


def test_snf_identity():
    res = smith_normal_form(IntMatrix.identity(2))
    assert res.D == IntMatrix.identity(2)


def test_snf_rank_one_nilpotent():
    m = IntMatrix.of([[0, 0], [-1, 0]])
    res = smith_normal_form(m)
    assert res.diagonal() == [1, 0]


def test_snf_random_selfverifying():
    rng = random.Random(17)
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        res = smith_normal_form(m)  # raises if any postcondition fails
        assert (res.U @ m) @ res.V == res.D
        assert abs(res.U.det()) == 1 and abs(res.V.det()) == 1


def _euclid_swap_diagonal(entries):
    """The Euclid-by-swap Smith normal form that the Hermite-based one
    replaced, kept as a differential oracle: pivot on the smallest nonzero
    |a| (ties row-major), reduce its row and column by division with
    remainder, swapping in any nonzero remainder, pull in an entry the pivot
    does not divide, and repeat.  Only the diagonal is computed.  Its
    entries can grow doubly exponentially (a 6 x 6 matrix with entries in
    [-9, 9] passed 9 million bits), so it gives up with None once an entry
    passes 4,096 bits."""
    a = [list(r) for r in entries]
    rows, cols = len(a), len(a[0]) if a else 0
    t = 0
    while t < min(rows, cols):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        moved = True
        while moved:
            if max(abs(x) for r in a for x in r).bit_length() > 4096:
                return None
            moved = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        moved = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        moved = True
        offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                         if a[i][j] % a[t][t]), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [a[i][i] for i in range(min(rows, cols))]


def _determinantal_diagonal(entries):
    """The invariant factors d_k / d_(k-1), where d_k is the gcd of the
    k x k minors."""
    rows, cols = len(entries), len(entries[0]) if entries else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                dk = math.gcd(dk, IntMatrix.of([[entries[i][j] for j in cs] for i in rs]).det())
        out.append(dk // prev if dk else 0)
        prev = dk or 1
    return out


def _rank_deficient(rng, rows, cols):
    """A random matrix with repeated, zero and combined rows and columns."""
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(1, 3)):
        i, j, k = rng.randrange(rows), rng.randrange(rows), rng.randrange(cols)
        kind = rng.randrange(4)
        if kind == 0:
            m[i] = list(m[j])
        elif kind == 1:
            m[i] = [0] * cols
        elif kind == 2:
            for r in m:
                r[k] = 0
        else:
            c = rng.randint(-3, 3)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def test_snf_matches_euclid_swap_oracle():
    rng = random.Random(23)
    cases = [[], [[]], [[0] * 4 for _ in range(3)], [[0]]]
    for _ in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        cases.append(_rank_deficient(rng, rows, cols))
    gave_up = 0
    for entries in cases:
        want = _euclid_swap_diagonal(entries)
        if want is None:
            gave_up += 1
            want = _determinantal_diagonal(entries)
        assert smith_normal_form(IntMatrix.of(entries)).diagonal() == want, entries
    assert gave_up <= len(cases) // 100


@pytest.mark.parametrize("n", [9, 16, 32])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_snf_entry_growth_is_bounded(n, seed):
    rng = random.Random(seed)
    m = IntMatrix.of([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    res = smith_normal_form(m)
    _verify_snf(m, res)
    bits = max(abs(x).bit_length() for t in (res.U, res.D, res.V) for row in t.entries for x in row)
    assert bits * math.log10(2) <= 200


def test_snf_wide_tall_and_non_unit_pivots():
    for entries in ([[2 * int(i == j) for j in range(12)] for i in range(12)],
                    [[6, 10, 15] + [0] * 20],
                    [[x] for x in (4, -6, 10, 0, 14)],
                    [[0] * 9 for _ in range(7)]):
        res = smith_normal_form(IntMatrix.of(entries))
        assert res.diagonal() == _euclid_swap_diagonal(entries)


def test_direct_sum_matches_snf_of_the_diagonal():
    rng = random.Random(29)

    def chain(factors):
        return tuple(x for x in _euclid_swap_diagonal(
            [[f * int(i == j) for j in range(len(factors))] for i, f in enumerate(factors)]) if x > 1)

    for _ in range(3000):
        left = [rng.randint(2, 60) for _ in range(rng.randint(0, 4))]
        right = [rng.randint(2, 60) for _ in range(rng.randint(0, 4))]
        got = AbelianGroup(1, chain(left)).direct_sum(AbelianGroup(2, chain(right)))
        assert got == AbelianGroup(3, chain(left + right))


def test_cokernel_kernel_examples():
    ident = IntMatrix.identity(2)
    ia = ident - A
    assert ia.det() == -1
    assert cokernel(ia) == AbelianGroup(0)
    assert kernel(ia) == AbelianGroup(0)
    ib = ident - B
    assert cokernel(ib) == AbelianGroup(1)
    assert kernel(ib) == AbelianGroup(1)
    zero = IntMatrix.of([[0]])
    assert cokernel(zero) == AbelianGroup(1)
    assert kernel(zero) == AbelianGroup(1)


def test_cokernel_torsion():
    m = IntMatrix.of([[2, 0], [0, 6]])
    assert cokernel(m) == AbelianGroup(0, (2, 6))
    m2 = IntMatrix.of([[4, 0], [0, 6]])
    got = cokernel(m2)
    assert got.rank == 0 and got.torsion == (2, 12)


def test_abelian_direct_sum():
    g = AbelianGroup(1, (2,)).direct_sum(AbelianGroup(0, (3,)))
    assert g == AbelianGroup(1, (6,))
    h = AbelianGroup(0, (2,)).direct_sum(AbelianGroup(0, (2,)))
    assert h == AbelianGroup(0, (2, 2))


def _relabel():
    """Compact relabelling e_{i,j,m} -> 0..6 (loops at 1 first, then the
    cross edge, then the edges into 2)."""
    return {
        "e1_1_0": "0", "e1_1_1": "1", "e1_2_0": "2",
        "e2_1_0": "3", "e2_1_1": "4", "e2_2_0": "5", "e2_2_1": "6",
    }


def test_katsura_automaton_rules():
    aut = katsura_automaton(A, B)
    assert aut.violations == []
    lab = _relabel()
    got = {}
    for name, rule in aut.generators.items():
        for e, (img, restr) in rule.rules.items():
            got[(name, lab[e])] = (lab[img], restr.word)
    a1 = (("a1", 1),)
    a2 = (("a2", 1),)
    assert got == {
        ("a1", "0"): ("1", ()),
        ("a1", "1"): ("0", a1),
        ("a1", "2"): ("2", ()),
        ("a2", "3"): ("4", ()),
        ("a2", "4"): ("3", a1),
        ("a2", "5"): ("6", ()),
        ("a2", "6"): ("5", a2),
    }


def test_katsura_graph_shape():
    aut = katsura_automaton(A, B)
    g = aut.graph
    rep = validate_graph(g)
    assert rep.no_sources
    # r(e_{i,j,m}) = i and s(e_{i,j,m}) = j
    assert g.r("e1_2_0") == "1" and g.s("e1_2_0") == "2"
    assert g.r("e2_1_1") == "2" and g.s("e2_1_1") == "1"
    assert len(g.edges) == 2 + 1 + 2 + 2


def test_katsura_nucleus_regression():
    aut = katsura_automaton(A, B)
    nuc = compute_nucleus(aut)
    assert isinstance(nuc, Nucleus)
    # regression value computed by this tool (not asserted from elsewhere)
    assert len(nuc) == 6


def test_katsura_ktheory_running_example():
    k0, k1 = katsura_ktheory(A, B)
    assert k0 == AbelianGroup(1)
    assert k1 == AbelianGroup(1)


def test_katsura_ktheory_trivial_and_small():
    one = IntMatrix.identity(1)
    k0, k1 = katsura_ktheory(one, one)
    assert k0 == AbelianGroup(2) and k1 == AbelianGroup(2)
    k0, k1 = katsura_ktheory(IntMatrix.of([[2]]), IntMatrix.of([[1]]))
    assert k0 == AbelianGroup(1) and k1 == AbelianGroup(1)


def test_katsura_errors():
    with pytest.raises(ShapeMismatchError):
        katsura_ktheory(A, IntMatrix.identity(3))
    with pytest.raises(ZeroBlockDivisionError):
        katsura_automaton(IntMatrix.of([[1, 0], [1, 1]]), IntMatrix.of([[0, 1], [0, 0]]))
    with pytest.raises(ShapeMismatchError):
        katsura_automaton(IntMatrix.of([[0, 0], [1, 1]]), IntMatrix.of([[0, 0], [0, 0]]))


@pytest.mark.parametrize("rows", [[[1.5]], [[1.0]], [[True]], [["1"]], [[1, 2], [3, None]]])
def test_intmatrix_rejects_non_int_entries(rows):
    with pytest.raises(ShapeMismatchError, match="integers"):
        IntMatrix.of(rows)


def test_katsura_bigger_restrictions():
    # B entries larger than A entries force restriction words a_j^l with l >= 2
    a = IntMatrix.of([[2]])
    b = IntMatrix.of([[5]])
    aut = katsura_automaton(a, b)
    rule = aut.generators["a1"].rules
    # 5 + 0 = 2*2 + 1 and 5 + 1 = 3*2 + 0
    assert rule["e1_1_0"] == (rule["e1_1_0"][0], rule["e1_1_0"][1])
    img0, restr0 = rule["e1_1_0"]
    img1, restr1 = rule["e1_1_1"]
    assert img0 == "e1_1_1" and restr0.word == (("a1", 2),) and restr0.name() == "a1 a1"
    assert img1 == "e1_1_0" and restr1.word == (("a1", 3),) and restr1.name() == "a1 a1 a1"
    assert aut.violations == []


def test_katsura_negative_exponent_rules():
    # -1 + 0 = (-1)*2 + 1 and -1 + 1 = 0*2 + 0: the first restriction is a1^-1
    aut = katsura_automaton(IntMatrix.of([[2]]), IntMatrix.of([[-1]]))
    assert aut.violations == []
    assert aut.generators["a1"].rules == {
        "e1_1_0": ("e1_1_1", Element("1", (("a1", -1),))),
        "e1_1_1": ("e1_1_0", Element("1", ())),
    }


def _random_katsura(rng):
    """(A, B) with A in [0, 3] without zero rows and B in [-3, 3], zero where A is."""
    n = rng.randint(1, 3)
    while True:
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    b = [[rng.randint(-3, 3) if a[i][j] else 0 for j in range(n)] for i in range(n)]
    return a, b


def test_katsura_powers_follow_the_division_rule():
    # (a_i^k).e_{ij,m} = e_{ij,r} and a_i^k|_e = a_j^q where k B_ij + m = q A_ij + r
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        a, b = _random_katsura(rng)
        aut = katsura_automaton(IntMatrix.of(a), IntMatrix.of(b))
        n = len(a)
        for i, j, k in itertools.product(range(n), range(n), range(-3, 4)):
            word = ((f"a{i + 1}", 1 if k > 0 else -1),) * abs(k)
            for m in range(a[i][j]):
                q, r = divmod(k * b[i][j] + m, a[i][j])
                img, rw = aut.word_act_edge(word, f"e{i + 1}_{j + 1}_{m}")
                assert img == f"e{i + 1}_{j + 1}_{r}"
                assert {name for name, _ in rw} <= {f"a{j + 1}"}
                assert sum(exp for _, exp in rw) == q
                checked += 1
    assert checked > 5000


def old_katsura_ktheory(a, b):
    """katsura_ktheory as it was: one Smith normal form for each of the
    cokernel and the kernel of I - A and of I - B."""
    def old_cokernel(m):
        nonzero = [x for x in smith_normal_form(m).diagonal() if x != 0]
        return AbelianGroup(m.rows - len(nonzero), tuple(x for x in nonzero if x > 1))

    def old_kernel(m):
        return AbelianGroup(m.cols - len([x for x in smith_normal_form(m).diagonal() if x != 0]))
    ident = IntMatrix.identity(a.rows)
    return (old_cokernel(ident - a).direct_sum(old_kernel(ident - b)),
            old_cokernel(ident - b).direct_sum(old_kernel(ident - a)))


def test_katsura_ktheory_one_snf_per_matrix(monkeypatch):
    import selfsim.ktheory as ktheory

    calls = []

    def counted(m):
        calls.append(m)
        return smith_normal_form(m)
    monkeypatch.setattr(ktheory, "smith_normal_form", counted)
    assert katsura_ktheory(A, B) == (AbelianGroup(1), AbelianGroup(1))
    ident = IntMatrix.identity(2)
    assert calls == [ident - A, ident - B]


def test_katsura_ktheory_matches_four_snf_oracle():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[rng.randint(0, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # rank-deficient I - B: a free kernel part
            b = [[int(i == j) for j in range(n)] for i in range(n)]
        a, b = IntMatrix.of(a), IntMatrix.of(b)
        assert katsura_ktheory(a, b) == old_katsura_ktheory(a, b)
