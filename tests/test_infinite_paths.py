import random
import time
from math import lcm

import pytest

from selfsim.errors import JunctionMismatchError, SelfSimError
from selfsim.graphs import Graph
from selfsim.infinite_paths import (
    BiInfinitePath,
    LeftInfinitePath,
    RightInfinitePath,
    _check_chain,
    _check_cycle,
    _primitive,
)
from selfsim.specfile import parse_spec
from test_fuzz import TEXTS


def test_left_infinite_normalization(ex310):
    g = ex310.graph
    x = LeftInfinitePath.make(g, ["1"], [])
    assert x.cycle == ("1",) and x.tail == ()
    # (1.1)^inf collapses to the primitive cycle
    assert LeftInfinitePath.make(g, ["1", "1"], []) == x
    # an absorbable tail edge rotates into the cycle
    y = LeftInfinitePath.make(g, ["2", "3"], ["2"])
    assert y == LeftInfinitePath.make(g, ["3", "2"], [])
    assert y.tail == ()


def test_left_infinite_junctions(ex310):
    g = ex310.graph
    with pytest.raises(JunctionMismatchError):
        LeftInfinitePath.make(g, ["1", "2"], [])  # s(1)=v but r(2)=v, seam s(2)=w != r(1)=v
    with pytest.raises(JunctionMismatchError):
        LeftInfinitePath.make(g, ["1"], ["3"])  # r(3)=w != s(1)=v
    LeftInfinitePath.make(g, ["2", "3"], [])  # valid cycle at v


def test_left_infinite_window(ex310):
    g = ex310.graph
    x = LeftInfinitePath.make(g, ["2", "3"], ["1", "1"])
    # positions -6..-1 of (2.3)^inf . 1.1  are  2 3 2 3 1 1
    assert [x.edge_at(i) for i in range(-6, 0)] == ["2", "3", "2", "3", "1", "1"]
    assert x.edge_at(-1) == "1" and x.edge_at(-3) == "3" and x.edge_at(-4) == "2"


def test_left_shift(ex310):
    g = ex310.graph
    x = LeftInfinitePath.make(g, ["2", "3"], [])
    assert x.shift(g) == LeftInfinitePath.make(g, ["3", "2"], [])
    loop = LeftInfinitePath.make(g, ["1"], [])
    assert loop.shift(g) == loop
    y = LeftInfinitePath.make(g, ["1"], ["2"])  # (1)^inf . 2, r(2) = v = s(1)
    assert y.shift(g) == LeftInfinitePath.make(g, ["1"], [])


def test_right_infinite_basics(ex310):
    g = ex310.graph
    x = RightInfinitePath.make(g, ["4"], ["1"])
    assert x.r(g) == "w"
    assert [x.edge_at(i) for i in range(1, 5)] == ["4", "1", "1", "1"]
    y = RightInfinitePath.make(g, ["2", "3"], ["2", "3"])  # head absorbed
    assert y.head == () and len(y.cycle) == 2
    assert [y.shift(g).edge_at(i) for i in range(1, 4)] == [y.edge_at(i) for i in range(2, 5)]


def test_right_shift_by_n_is_n_single_shifts(ex310, basilica):
    rng = random.Random(31)
    for aut in (ex310, basilica):
        g = aut.graph
        checked = 0
        while checked < 30:
            start = rng.choice(g.vertices)
            head = _random_walk(g, rng, start, rng.randint(0, 5))
            cyc = _random_cycle(g, rng, g.s(head[-1]) if head else start)
            if cyc is None:
                continue
            x = RightInfinitePath.make(g, head, cyc)
            stepped = x
            for n in range(12):
                assert x.shift(g, n) == stepped, (str(x), n)
                stepped = stepped.shift(g)
            # past the head, whole turns of the cycle change nothing
            for n in range(len(x.head), len(x.head) + 4):
                assert x.shift(g, n + 10 ** 12 * len(x.cycle)) == x.shift(g, n)
            checked += 1


def test_bi_infinite_globally_periodic_seam(ex310):
    g = ex310.graph
    a = BiInfinitePath.make(g, ["1"], [], ["1"], anchor=0)
    b = BiInfinitePath.make(g, ["1"], [], ["1"], anchor=7)
    assert a == b
    c = BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], anchor=0)
    d = BiInfinitePath.make(g, ["3", "2"], [], ["3", "2"], anchor=1)
    assert c == d
    e = BiInfinitePath.make(g, ["3", "2"], [], ["3", "2"], anchor=0)
    assert e != c
    assert [e.edge_at(i) for i in (-2, -1, 0, 1)] == ["3", "2", "3", "2"]
    assert [c.edge_at(i) for i in (-2, -1, 0, 1)] == ["2", "3", "2", "3"]


def test_bi_infinite_absorption(ex310):
    g = ex310.graph
    # center edges matching the adjacent cycles get absorbed on both sides
    x = BiInfinitePath.make(g, ["2", "3"], ["2", "3", "1", "1"], ["1"], anchor=0)
    y = BiInfinitePath.make(g, ["2", "3"], [], ["1"], anchor=2)
    assert x == y
    assert x.edge_at(1) == "3" and x.edge_at(2) == "1"


def test_edge_consistency_random(ex310, basilica):
    # every consecutive pair in any window satisfies s(x_i) = r(x_{i+1})
    rng = random.Random(5)
    for aut in (ex310, basilica):
        g = aut.graph
        for _ in range(40):
            v = rng.choice(g.vertices)
            cyc = _random_cycle(g, rng, v)
            if cyc is None:
                continue
            tail = _random_walk(g, rng, g.s(cyc[-1]), rng.randint(0, 4))
            x = LeftInfinitePath.make(g, cyc, tail)
            win = [x.edge_at(i) for i in range(-12, 0)]
            for a, b in zip(win, win[1:]):
                assert g.s(a) == g.r(b)


def test_left_presentation_invariance(ex310, basilica):
    # unrolling the cycle into the tail or repeating it must not change the
    # normal form (the presentation of a fixed sequence is unique)
    rng = random.Random(13)
    for aut in (ex310, basilica):
        g = aut.graph
        for _ in range(60):
            start = rng.choice(g.vertices)
            cyc = _random_cycle(g, rng, start)
            if cyc is None:
                continue
            tail = _random_walk(g, rng, g.s(cyc[-1]), rng.randint(0, 3))
            x = LeftInfinitePath.make(g, cyc, tail)
            k = rng.randint(1, 3)
            unrolled = LeftInfinitePath.make(g, cyc * k, list(cyc) + list(tail))
            assert unrolled == x
            assert [unrolled.edge_at(-i) for i in range(1, 10)] == \
                   [x.edge_at(-i) for i in range(1, 10)]


def test_bi_presentation_invariance(ex310, basilica):
    # padding the center with cycle copies on either side (adjusting the
    # anchor for left padding) presents the same function Z -> edges
    rng = random.Random(29)
    for aut in (ex310, basilica):
        g = aut.graph
        built = 0
        while built < 40:
            start = rng.choice(g.vertices)
            rho = _random_cycle(g, rng, start)
            if rho is None:
                continue
            mid = _random_walk(g, rng, g.s(rho[-1]), rng.randint(0, 3))
            cur = g.s(mid[-1]) if mid else g.s(rho[-1])
            pi = _random_cycle(g, rng, cur)
            if pi is None:
                continue
            anchor = rng.randint(-4, 4)
            x = BiInfinitePath.make(g, rho, mid, pi, anchor)
            padded = BiInfinitePath.make(
                g, rho, list(rho) + list(mid) + list(pi), pi, anchor - len(rho))
            assert padded == x, (str(padded), str(x))
            for i in range(-8, 9):
                assert padded.edge_at(i) == x.edge_at(i)
            built += 1


def _random_walk(g, rng, start, length):
    out, cur = [], start
    for _ in range(length):
        opts = g.range_edges(cur)
        if not opts:
            break
        e = rng.choice(opts)
        out.append(e.id)
        cur = e.src
    return out


def _random_cycle(g, rng, start, max_len=8):
    """A random directed cycle through start (walking source-ward)."""
    for _ in range(30):
        cur = start
        walk = []
        for _ in range(max_len):
            opts = g.range_edges(cur)
            if not opts:
                break
            e = rng.choice(opts)
            walk.append(e.id)
            cur = e.src
            if cur == start:
                return walk
    return None


# -- the loop-based normal forms, kept as oracles ------------------------------


def old_left_make(graph, cycle, tail=()):
    """LeftInfinitePath.make rotating one absorbed tail edge at a time."""
    cycle = tuple(str(e) for e in cycle)
    tail = tuple(str(e) for e in tail)
    _check_cycle(graph, cycle, "left-infinite path")
    _check_chain(graph, tail, "left-infinite path tail")
    if tail and graph.s(cycle[-1]) != graph.r(tail[0]):
        raise JunctionMismatchError("left-infinite path: cycle does not meet tail")
    cycle = _primitive(cycle)
    cycle, tail = list(cycle), list(tail)
    while tail and tail[0] == cycle[0]:
        cycle.append(cycle.pop(0))
        tail.pop(0)
    return LeftInfinitePath(tuple(cycle), tuple(tail))


def old_right_make(graph, head, cycle):
    """RightInfinitePath.make rotating one absorbed head edge at a time."""
    head = tuple(str(e) for e in head)
    cycle = tuple(str(e) for e in cycle)
    _check_cycle(graph, cycle, "right-infinite path")
    _check_chain(graph, head, "right-infinite path head")
    if head and graph.s(head[-1]) != graph.r(cycle[0]):
        raise JunctionMismatchError("right-infinite path: head does not meet cycle")
    cycle = _primitive(cycle)
    head, cycle = list(head), list(cycle)
    while head and head[-1] == cycle[-1]:
        cycle.insert(0, cycle.pop())
        head.pop()
    return RightInfinitePath(tuple(head), tuple(cycle))


def old_bi_make(graph, left_cycle, center, right_cycle, anchor=0):
    """BiInfinitePath.make rotating one absorbed edge at a time, its seam
    tested over lcm(p, q) positions."""
    rho = tuple(str(e) for e in left_cycle)
    mid = tuple(str(e) for e in center)
    pi = tuple(str(e) for e in right_cycle)
    _check_cycle(graph, rho, "bi-infinite path (left)")
    _check_cycle(graph, pi, "bi-infinite path (right)")
    _check_chain(graph, mid, "bi-infinite path center")
    left_end = graph.s(rho[-1])
    right_start = graph.r(pi[0])
    if mid:
        if left_end != graph.r(mid[0]) or graph.s(mid[-1]) != right_start:
            raise JunctionMismatchError("bi-infinite path: center does not meet the cycles")
    else:
        if left_end != right_start:
            raise JunctionMismatchError("bi-infinite path: cycles do not meet")
    rho, pi = list(_primitive(rho)), list(_primitive(pi))
    mid = list(mid)
    while mid and mid[0] == rho[0]:
        rho.append(rho.pop(0))
        mid.pop(0)
        anchor += 1
    while mid and mid[-1] == pi[-1]:
        pi.insert(0, pi.pop())
        mid.pop()
    if not mid:
        p, q = len(rho), len(pi)
        if all(pi[i % q] == rho[i % p] for i in range(lcm(p, q))):
            word = tuple(rho[(i - anchor) % p] for i in range(p))
            return BiInfinitePath(word, (), word, 0)
        while pi[0] == rho[0]:
            rho.append(rho.pop(0))
            pi.append(pi.pop(0))
            anchor += 1
    return BiInfinitePath(tuple(rho), tuple(mid), tuple(pi), anchor)


def _outcome(make, *args):
    """make(*args), or the type and message of the error it raises."""
    try:
        return make(*args)
    except SelfSimError as e:
        return type(e), str(e)


def _walk_back(g, rng, end, length):
    """A random path of at most ``length`` edges whose source is ``end``."""
    out, cur = [], end
    for _ in range(length):
        opts = g.source_edges(cur)
        if not opts:
            break
        e = rng.choice(opts)
        out.insert(0, e.id)
        cur = e.dst
    return out


def _periodic(word, start, length):
    """``length`` edges of word^inf read from index ``start``."""
    return [word[(start + i) % len(word)] for i in range(length)]


def _spoil(g, rng, edges):
    """Now and then one edge replaced by a random or unknown id, or dropped."""
    edges = list(edges)
    if edges and rng.random() < 0.15:
        at = rng.randrange(len(edges))
        pick = rng.choice([e.id for e in g.edges] + ["9", "x"])
        edges[at:at + 1] = [] if rng.random() < 0.3 else [pick]
    return edges


def _oracle_graphs():
    return [parse_spec(text).graph() for text in TEXTS]


def test_normal_forms_match_the_loop_oracles():
    # cycles taken 1-3 times, tails, heads and centers that repeat the
    # adjacent cycle for a random number of edges, right cycles equal to a
    # rotation of the left one (seam rotations and globally periodic paths),
    # random anchors, and now and then a spoiled edge
    rng = random.Random(32)
    seen = {"absorbed": 0, "periodic": 0, "errors": 0}
    for g in _oracle_graphs():
        for _ in range(400):
            start = rng.choice(g.vertices)
            rho = _random_cycle(g, rng, start)
            if rho is None:
                continue
            rho = rho * rng.randint(1, 3)
            tail = _periodic(rho, 0, rng.randint(0, 3 * len(rho))) if rng.random() < 0.6 else []
            tail += _random_walk(g, rng, g.s(tail[-1]) if tail else g.s(rho[-1]), rng.randint(0, 3))
            left = (g, _spoil(g, rng, rho), _spoil(g, rng, tail))
            want = _outcome(old_left_make, *left)
            assert _outcome(LeftInfinitePath.make, *left) == want, left[1:]
            # a head ending in the cycle: its last edges read the cycle backward
            cut = rng.randint(0, 3 * len(rho)) if rng.random() < 0.6 else 0
            suffix = _periodic(rho, -cut, cut)
            head = _walk_back(g, rng, g.r(suffix[0] if suffix else rho[0]), rng.randint(0, 3))
            right = (g, _spoil(g, rng, head + suffix), _spoil(g, rng, rho))
            assert _outcome(RightInfinitePath.make, *right) == _outcome(old_right_make, *right)
            # a center between rho and a cycle through its end, or a rotation
            # of rho itself; its ends repeat the cycles next to them
            mid = tail
            end = g.s(mid[-1]) if mid else g.s(rho[-1])
            if rng.random() < 0.4 and end == g.r(rho[0]):
                pi = rho[len(rho) // 2:] + rho[:len(rho) // 2] if rng.random() < 0.5 else rho
                pi = pi * rng.randint(1, 2)
            else:
                pi = _random_cycle(g, rng, end)
                if pi is None:
                    continue
            mid = mid + _periodic(pi, 0, rng.randint(0, 2 * len(pi))) if rng.random() < 0.5 else mid
            bi = (g, _spoil(g, rng, rho), _spoil(g, rng, mid), _spoil(g, rng, pi),
                  rng.randint(-6, 6))
            want = _outcome(old_bi_make, *bi)
            assert _outcome(BiInfinitePath.make, *bi) == want, bi[1:]
            if isinstance(want, tuple):
                seen["errors"] += 1
            elif not want.center and want.left_cycle == want.right_cycle:
                seen["periodic"] += 1
            elif len(want.center) < len(bi[2]):
                seen["absorbed"] += 1
    assert min(seen.values()) > 50, seen


def test_normal_forms_at_64000_absorbable_edges():
    # a 64,000-edge cycle whose whole tail, head or center repeats it: the
    # loop oracles popped one edge at a time and took 1.4, 1.8 and 3.8 s
    # (the bi-infinite seam then rotates 63,998 edges)
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    rho = ("0",) * 63_999 + ("1",)
    pi, seam = rho[1:] + rho[:1], rho[63_998:] + rho[:63_998]
    for make, args, want in (
            (LeftInfinitePath.make, (g, rho, rho), LeftInfinitePath(rho, ())),
            (RightInfinitePath.make, (g, rho, rho), RightInfinitePath((), rho)),
            (BiInfinitePath.make, (g, rho, rho + rho, pi, 0),
             BiInfinitePath(seam, (), seam[1:] + seam[:1], 128_000 + 63_998))):
        t0 = time.perf_counter()
        path = make(*args)
        assert time.perf_counter() - t0 < 0.5, make.__qualname__
        assert path == want
