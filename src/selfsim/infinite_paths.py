"""Finite presentations of the infinite paths the dynamics acts on.

Edge sequences always satisfy s(x_i) = r(x_{i+1}): moving right in the
index moves toward the source end.

  * LeftInfinitePath   rho^inf lam   = ... rho rho lam,  positions ..., -2, -1
  * RightInfinitePath  mu pi^inf     = mu pi pi ...,     positions 1, 2, 3, ...
  * BiInfinitePath     rho^inf mu pi^inf over all of Z, with ``anchor`` the
    index of the first center edge (or of the first right-cycle edge when
    the center is empty).

Normal forms make equality structural: cycles are primitive (not a proper
power), and the tail/center is shortest (every absorbable edge is rotated
into the adjacent periodic zone).  For a fixed underlying sequence that
presentation is unique, except that a globally periodic bi-infinite path
has a free seam, which is pinned by reducing the anchor modulo the period.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import JunctionMismatchError
from .graphs import Graph


def _periodic_prefix(cycle: tuple[str, ...], edges: tuple[str, ...]) -> int:
    """How many leading edges continue the cycle periodically: the least i
    with edges[i] != cycle[i % len(cycle)], or len(edges)."""
    pairs = zip(edges, itertools.cycle(cycle))
    return next((i for i, (a, b) in enumerate(pairs) if a != b), len(edges))


def _rotate(word: tuple[str, ...], k: int) -> tuple[str, ...]:
    """The word rotated k edges to the left (k < 0: to the right)."""
    k %= len(word)
    return word[k:] + word[:k]


def _primitive(word: tuple[str, ...]) -> tuple[str, ...]:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[: p] * (n // p):
            return word[: p]
    return word


def _check_cycle(graph: Graph, cycle: tuple[str, ...], what: str):
    if not cycle:
        raise JunctionMismatchError(f"{what}: cycle must be nonempty")
    for a, b in zip(cycle, cycle[1:]):
        if graph.s(a) != graph.r(b):
            raise JunctionMismatchError(f"{what}: s({a}) != r({b}) inside the cycle")
    if graph.s(cycle[-1]) != graph.r(cycle[0]):
        raise JunctionMismatchError(f"{what}: cycle does not close up (s(last) != r(first))")


def _check_chain(graph: Graph, edges: tuple[str, ...], what: str):
    for a, b in zip(edges, edges[1:]):
        if graph.s(a) != graph.r(b):
            raise JunctionMismatchError(f"{what}: s({a}) != r({b})")


@dataclass(frozen=True)
class LeftInfinitePath:
    """rho^inf lam: the cycle rho repeats to the left of the tail lam."""

    cycle: tuple[str, ...]
    tail: tuple[str, ...] = ()

    @staticmethod
    def make(graph: Graph, cycle, tail=()) -> "LeftInfinitePath":
        cycle = tuple(str(e) for e in cycle)
        tail = tuple(str(e) for e in tail)
        _check_cycle(graph, cycle, "left-infinite path")
        _check_chain(graph, tail, "left-infinite path tail")
        if tail and graph.s(cycle[-1]) != graph.r(tail[0]):
            raise JunctionMismatchError("left-infinite path: cycle does not meet tail")
        cycle = _primitive(cycle)
        # absorb the tail edges that extend the periodic zone rightward
        k = _periodic_prefix(cycle, tail)
        return LeftInfinitePath(_rotate(cycle, k), tail[k:])

    def edge_at(self, n: int) -> str:
        """The edge at position n < 0 (position -1 is the rightmost)."""
        if n >= 0:
            raise IndexError("left-infinite positions are negative")
        k = -n
        if k <= len(self.tail):
            return self.tail[len(self.tail) - k]
        # the periodic zone ends at position -len(tail)-1 with cycle[-1]
        return self.cycle[(len(self.tail) + n) % len(self.cycle)]

    def shift(self, graph: Graph) -> "LeftInfinitePath":
        """Delete the rightmost edge (the one-sided shift); it descends to
        asymptotic-equivalence classes."""
        if self.tail:
            return LeftInfinitePath.make(graph, self.cycle, self.tail[:-1])
        return LeftInfinitePath.make(graph, _rotate(self.cycle, -1))

    def __str__(self):
        head = f"({'.'.join(self.cycle)})^inf"
        return head + (" . " + ".".join(self.tail) if self.tail else "")


@dataclass(frozen=True)
class RightInfinitePath:
    """head pi^inf: positions 1, 2, ... with the cycle repeating rightward."""

    head: tuple[str, ...]
    cycle: tuple[str, ...]

    @staticmethod
    def make(graph: Graph, head, cycle) -> "RightInfinitePath":
        head = tuple(str(e) for e in head)
        cycle = tuple(str(e) for e in cycle)
        _check_cycle(graph, cycle, "right-infinite path")
        _check_chain(graph, head, "right-infinite path head")
        if head and graph.s(head[-1]) != graph.r(cycle[0]):
            raise JunctionMismatchError("right-infinite path: head does not meet cycle")
        cycle = _primitive(cycle)
        # absorb the head edges that extend the periodic zone leftward
        k = _periodic_prefix(cycle[::-1], head[::-1])
        return RightInfinitePath(head[:len(head) - k], _rotate(cycle, -k))

    def edge_at(self, n: int) -> str:
        """The edge at position n >= 1."""
        if n < 1:
            raise IndexError("right-infinite positions start at 1")
        if n <= len(self.head):
            return self.head[n - 1]
        return self.cycle[(n - len(self.head) - 1) % len(self.cycle)]

    def r(self, graph: Graph) -> str:
        return graph.r(self.head[0]) if self.head else graph.r(self.cycle[0])

    def shift(self, graph: Graph, n: int = 1) -> "RightInfinitePath":
        """Drop the first n >= 0 edges (sigma^n): the head's first ones,
        then the rest as a rotation of the cycle."""
        k = min(n, len(self.head))
        return RightInfinitePath.make(graph, self.head[k:], _rotate(self.cycle, n - k))

    def __str__(self):
        tail = f"({'.'.join(self.cycle)})^inf"
        return (".".join(self.head) + " . " + tail) if self.head else tail


@dataclass(frozen=True)
class BiInfinitePath:
    """rho^inf center pi^inf with ``anchor`` = index of the first center edge
    (or of the first right-cycle edge when the center is empty)."""

    left_cycle: tuple[str, ...]
    center: tuple[str, ...]
    right_cycle: tuple[str, ...]
    anchor: int = 0

    @staticmethod
    def make(graph: Graph, left_cycle, center, right_cycle, anchor: int = 0) -> "BiInfinitePath":
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
        rho, pi = _primitive(rho), _primitive(pi)
        k = _periodic_prefix(rho, mid)
        rho, mid, anchor = _rotate(rho, k), mid[k:], anchor + k
        k = _periodic_prefix(pi[::-1], mid[::-1])
        pi, mid = _rotate(pi, -k), mid[:len(mid) - k]
        if not mid:
            if rho == pi:
                # both cycles are primitive, so rho^inf goes on as pi^inf
                # only when they are equal: a globally periodic path,
                # restated from position 0 so the seam is pinned
                word = _rotate(rho, -anchor)
                return BiInfinitePath(word, (), word, 0)
            # else the left pattern extends across the seam for fewer than
            # p + q edges (Fine-Wilf), which pi repeated p // q + 2 times covers
            k = _periodic_prefix(rho, pi * (len(rho) // len(pi) + 2))
            rho, pi, anchor = _rotate(rho, k), _rotate(pi, k), anchor + k
        return BiInfinitePath(rho, mid, pi, anchor)

    def edge_at(self, n: int) -> str:
        a, t = self.anchor, len(self.center)
        if n < a:
            p = len(self.left_cycle)
            return self.left_cycle[(n - a) % p]
        if n < a + t:
            return self.center[n - a]
        return self.right_cycle[(n - a - t) % len(self.right_cycle)]

    def __str__(self):
        mid = ".".join(self.center)
        parts = [f"({'.'.join(self.left_cycle)})^inf"]
        if mid:
            parts.append(mid)
        parts.append(f"({'.'.join(self.right_cycle)})^inf")
        return " . ".join(parts) + f" @ {self.anchor}"
