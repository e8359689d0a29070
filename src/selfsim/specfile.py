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
two above, integers >= 1 as for the CLI flags, each given once; a
generator has one section and at most one rule per edge.  ``#`` starts a
comment.  No edge id holds ``.``, ``(``, ``)`` or ``@``, the punctuation of
path literals: finite ``1.2.3``, left-infinite ``(1)^inf . 2.3``,
right-infinite ``2.3 . (1)^inf``, bi-infinite ``(rho)^inf . mid . (pi)^inf
@ n0``; no edge id is empty, so a trailing dot is an error.
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
                current["name"], current["dom"], current["cod"], tuple(current["rules"].values())))
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
            elif any(g.name == m.group(2) for g in generators):
                raise SpecSyntaxError(f"second section for generator {m.group(2)!r}", lineno, 1)
            else:
                section = "generator"
                current = {"name": m.group(2), "dom": m.group(3), "cod": m.group(4), "rules": {}}
            continue
        if line.startswith("["):
            raise SpecSyntaxError(f"malformed section header {line!r}", lineno, 1)
        parts = line.split()
        if section == "graph":
            if parts[0] == "vertex":
                if len(parts) != 2:
                    raise SpecSyntaxError("vertex line needs exactly one id", lineno, 1)
                vertices.append(parts[1])
                continue
            m = _EDGE.match(line)
            if not m:
                raise SpecSyntaxError(f"unrecognized graph line {line!r}", lineno, 1)
            if set(".()@") & set(m.group(1)):  # path literal punctuation
                raise SpecSyntaxError(f"edge id {m.group(1)!r} holds '.', '(', ')' or '@', so no "
                                      "path literal can name it", lineno, 1)
            edges.append(m.groups())
            continue
        if section == "generator":
            m = _RULE.match(line)
            if not m:
                raise SpecSyntaxError(f"unrecognized rule line {line!r}", lineno, 1)
            if m.group(1) in current["rules"]:
                raise SpecSyntaxError(f"second rule for edge {m.group(1)!r} in generator "
                                      f"{current['name']!r}", lineno, 1)
            current["rules"][m.group(1)] = (m.group(1), m.group(2), tuple(m.group(3).split()))
            continue
        if section == "options":
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
            if any(key == parts[0] for key, _ in options):
                raise SpecSyntaxError(f"option {parts[0]} given twice", lineno, 1)
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
_PUNCT = re.compile(r"[().]")
# kind -> whether a (...)^inf group stands first and whether one stands last
# (no other part is one), the error for any other layout, and the builder of
# (graph, first group, the edge ids between, last group, anchor)
_LAYOUTS = {
    "finite": (False, False, "finite path literal cannot contain ^inf",
               lambda graph, rho, mid, pi, anchor: Path.of(graph, mid)),
    "left": (True, False, "left-infinite literal is (cycle)^inf . tail",
             lambda graph, rho, mid, pi, anchor: LeftInfinitePath.make(graph, rho, mid)),
    "right": (False, True, "right-infinite literal is head . (cycle)^inf",
              lambda graph, rho, mid, pi, anchor: RightInfinitePath.make(graph, mid, pi)),
    "bi": (True, True, "bi-infinite literal is (rho)^inf . mid . (pi)^inf @ n0",
           BiInfinitePath.make),
}


def _top_parts(text: str) -> list[str]:
    """The literal cut at its dots outside parentheses, each part stripped:
    one pass that counts the depth at each parenthesis and dot."""
    parts, depth, start = [], 0, 0
    for m in _PUNCT.finditer(text):
        if m.group() != ".":
            depth += 1 if m.group() == "(" else -1
        elif depth == 0:
            parts.append(text[start:m.start()].strip())
            start = m.end()
    parts.append(text[start:].strip())
    return parts


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
    if not text:
        raise SpecSyntaxError("empty path literal")
    parts, at = [], []  # edge ids and cycles' edge id lists; where the cycles stand
    for part in _top_parts(text):
        m = _CYCLE.match(part)
        if m:
            at.append(len(parts))
            parts.append(_split_dots(m.group("edges")))
        elif part:
            parts.append(part)
        else:
            raise SpecSyntaxError(f"empty edge id in {text!r}")
    if kind == "auto":
        kind = "bi" if len(at) > 1 else "left" if at == [0] else "right" if at else "finite"
    if anchored and kind != "bi":
        raise SpecSyntaxError("an '@ n0' anchor belongs only to a bi-infinite literal")
    if kind not in _LAYOUTS:
        raise SpecSyntaxError(f"unknown path kind {kind!r}")
    first, last, layout, build = _LAYOUTS[kind]
    if at != [0] * first + [len(parts) - 1] * last:
        raise SpecSyntaxError(layout)
    return build(graph, parts[0], parts[first:len(parts) - last], parts[-1], anchor)
