import random

import pytest

from selfsim.errors import JunctionMismatchError
from selfsim.infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath



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
