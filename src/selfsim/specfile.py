"""The spec file format and the path literal grammar.

    [graph]
    vertex v
    vertex w
    edge 1 : v -> v      # src = s(e), dst = r(e)
    edge 2 : w -> v
    [generator a : v -> w]   # d(a) = v, c(a) = w
    1 -> 4 | v               # a.1 = 4, a|_1 = unit at v
    2 -> 3 | b
    [options]
    max_states 10000
    max_rounds 64

Restriction words are element literals, read by ``automaton.read_word``:
whitespace-separated symbols ``g`` or ``g^-1``, units written as vertex
names, so no generator name ends in ``^-1``.  The only options are the
two above, integers >= 1 as for the CLI flags.  ``#`` starts a comment.  Path literals: finite ``1.2.3``,
left-infinite ``(1)^inf . 2.3``, right-infinite ``2.3 . (1)^inf``,
bi-infinite ``(rho)^inf . mid . (pi)^inf @ n0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .automaton import Automaton, Bounds, GeneratorRule, read_word
from .errors import NonComposableError, SpecSyntaxError, UnknownSymbolError
from .graphs import Graph, Path
from .infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    dom: str
    cod: str
    # (edge, image edge, restriction tokens)
    rules: tuple[tuple[str, str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class SpecFile:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    generators: tuple[GeneratorSpec, ...]
    options: tuple[tuple[str, str], ...] = ()

    def graph(self) -> Graph:
        return Graph(self.vertices, self.edges)

    def bounds(self) -> Bounds:
        return Bounds(**{key: int(value) for key, value in self.options})

    def automaton(self, bounds: Bounds | None = None) -> Automaton:
        graph = self.graph()
        ends = {g.name: (g.dom, g.cod) for g in self.generators}
        gens = {}
        for g in self.generators:
            rules = {}
            for (edge, image, toks) in g.rules:
                if not graph.has_edge(edge) or not graph.has_edge(image):
                    raise UnknownSymbolError(f"rule of {g.name!r} uses unknown edge")
                try:  # a unit keeps its vertex, for validation to check
                    rules[edge] = (image, read_word(ends, graph.vertices, toks))
                except (UnknownSymbolError, NonComposableError) as e:
                    raise UnknownSymbolError(f"{e} in rule of {g.name!r}") from None
            gens[g.name] = GeneratorRule(g.dom, g.cod, rules)
        return Automaton(graph, gens, bounds or self.bounds())


_SECTION = re.compile(r"^\[(graph|options|generator\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+))\]$")
_EDGE = re.compile(r"^edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_RULE = re.compile(r"^(\S+)\s*->\s*(\S+)\s*\|\s*(.+)$")


def parse_spec(text: str) -> SpecFile:
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    generators: list[GeneratorSpec] = []
    options: list[tuple[str, str]] = []
    section = None
    current: dict | None = None

    def close_generator():
        nonlocal current
        if current is not None:
            generators.append(GeneratorSpec(
                current["name"], current["dom"], current["cod"], tuple(current["rules"])))
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            close_generator()
            if m.group(1) == "graph":
                section = "graph"
            elif m.group(1) == "options":
                section = "options"
            else:
                section = "generator"
                current = {"name": m.group(2), "dom": m.group(3), "cod": m.group(4), "rules": []}
            continue
        if line.startswith("["):
            raise SpecSyntaxError(f"malformed section header {line!r}", lineno, 1)
        if section == "graph":
            if line.startswith("vertex"):
                parts = line.split()
                if len(parts) != 2:
                    raise SpecSyntaxError("vertex line needs exactly one id", lineno, 1)
                vertices.append(parts[1])
                continue
            m = _EDGE.match(line)
            if m:
                edges.append((m.group(1), m.group(2), m.group(3)))
                continue
            raise SpecSyntaxError(f"unrecognized graph line {line!r}", lineno, 1)
        if section == "generator":
            m = _RULE.match(line)
            if not m:
                raise SpecSyntaxError(f"unrecognized rule line {line!r}", lineno, 1)
            toks = tuple(m.group(3).split())
            current["rules"].append((m.group(1), m.group(2), toks))
            continue
        if section == "options":
            parts = line.split()
            if len(parts) != 2:
                raise SpecSyntaxError("option lines are 'key value'", lineno, 1)
            if parts[0] not in ("max_states", "max_rounds"):
                raise SpecSyntaxError(f"unknown option {parts[0]!r}; the options are "
                                      "max_states and max_rounds", lineno, 1)
            try:
                value = int(parts[1])
            except ValueError:
                raise SpecSyntaxError("the options max_states and max_rounds take integers",
                                      lineno, 1) from None
            if value < 1:
                raise SpecSyntaxError(f"option {parts[0]} must be at least 1, got {value}",
                                      lineno, 1)
            options.append((parts[0], parts[1]))
            continue
        raise SpecSyntaxError(f"content before any section: {line!r}", lineno, 1)
    close_generator()
    return SpecFile(
        vertices=tuple(sorted(vertices)),
        edges=tuple(sorted(edges)),
        generators=tuple(sorted(generators, key=lambda g: g.name)),
        options=tuple(sorted(options)),
    )


def format_spec(spec: SpecFile) -> str:
    out = ["[graph]"]
    for v in spec.vertices:
        out.append(f"vertex {v}")
    for (eid, src, dst) in spec.edges:
        out.append(f"edge {eid} : {src} -> {dst}")
    for g in spec.generators:
        out.append(f"[generator {g.name} : {g.dom} -> {g.cod}]")
        for (edge, image, toks) in sorted(g.rules):
            out.append(f"{edge} -> {image} | {' '.join(toks)}")
    if spec.options:
        out.append("[options]")
        for k, v in spec.options:
            out.append(f"{k} {v}")
    return "\n".join(out) + "\n"


def spec_of_automaton(aut: Automaton) -> SpecFile:
    """A SpecFile presenting an existing automaton (used by katsura export)."""
    gens = []
    for name, rule in sorted(aut.generators.items()):
        rows = []
        for edge, (image, restr) in sorted(rule.rules.items()):
            rows.append((edge, image, tuple(restr.name().split())))
        gens.append(GeneratorSpec(name, rule.dom, rule.cod, tuple(rows)))
    return SpecFile(
        vertices=tuple(sorted(aut.graph.vertices)),
        edges=tuple(sorted((e.id, e.src, e.dst) for e in aut.graph.edges)),
        generators=tuple(gens),
    )


# -- path literals ---------------------------------------------------------------


_CYCLE = re.compile(r"^\((?P<edges>[^()]*)\)\^inf$")


def _split_dots(chunk: str) -> list[str]:
    items = [x.strip() for x in chunk.split(".")]
    if any(not x for x in items):
        raise SpecSyntaxError(f"empty edge id in {chunk!r}")
    return items


def parse_path(graph: Graph, text: str, kind: str = "auto"):
    """Parse a path literal; ``kind`` narrows to finite/left/right/bi."""
    text = text.strip()
    anchor, anchored = 0, "@" in text
    if anchored:
        body, _, off = text.rpartition("@")
        text = body.strip()
        try:
            anchor = int(off.strip())
        except ValueError:
            raise SpecSyntaxError(f"bad anchor offset {off.strip()!r}") from None

    # split on '.' at top level, keeping (...)^inf groups intact
    parts = []
    buf = ""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "." and depth == 0:
            parts.append(buf.strip())
            buf = ""
        else:
            buf += ch
    if buf.strip():
        parts.append(buf.strip())
    if not parts:
        raise SpecSyntaxError("empty path literal")

    groups = []
    for part in parts:
        m = _CYCLE.match(part)
        if m:
            groups.append(("cycle", _split_dots(m.group("edges"))))
        else:
            groups.append(("edge", part))

    cyc_positions = [i for i, (k, _) in enumerate(groups) if k == "cycle"]
    if kind == "auto":
        if len(cyc_positions) >= 2:
            kind = "bi"
        elif len(cyc_positions) == 1:
            kind = "left" if cyc_positions[0] == 0 else "right"
        else:
            kind = "finite"

    def edges_of(slice_):
        return [g[1] for g in slice_ if g[0] == "edge"]

    if anchored and kind != "bi":
        raise SpecSyntaxError("an '@ n0' anchor belongs only to a bi-infinite literal")
    if kind == "finite":
        if cyc_positions:
            raise SpecSyntaxError("finite path literal cannot contain ^inf")
        return Path.of(graph, edges_of(groups))
    if kind == "left":
        if len(cyc_positions) != 1 or cyc_positions[0] != 0:
            raise SpecSyntaxError("left-infinite literal is (cycle)^inf . tail")
        return LeftInfinitePath.make(graph, groups[0][1], edges_of(groups[1:]))
    if kind == "right":
        if len(cyc_positions) != 1 or cyc_positions[0] != len(groups) - 1:
            raise SpecSyntaxError("right-infinite literal is head . (cycle)^inf")
        return RightInfinitePath.make(graph, edges_of(groups[:-1]), groups[-1][1])
    if kind == "bi":
        if len(cyc_positions) != 2 or cyc_positions[0] != 0 or cyc_positions[1] != len(groups) - 1:
            raise SpecSyntaxError("bi-infinite literal is (rho)^inf . mid . (pi)^inf @ n0")
        mid = edges_of(groups[1:-1])
        return BiInfinitePath.make(graph, groups[0][1], mid, groups[-1][1], anchor)
    raise SpecSyntaxError(f"unknown path kind {kind!r}")
