import time
from pathlib import Path as FsPath

import pytest

from selfsim.errors import (
    JunctionMismatchError,
    RestrictionVertexMismatchError,
    SpecSyntaxError,
    UnknownSymbolError,
)
from selfsim.graphs import Graph, Path
from selfsim.infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath
from selfsim.nucleus import compute_nucleus
from selfsim.specfile import format_spec, parse_path, parse_spec, spec_of_automaton

SPECS = FsPath(__file__).resolve().parent.parent / "specs"


def read(name):
    return (SPECS / name).read_text()


def test_parse_ex310_roundtrip():
    spec = parse_spec(read("ex310.ss"))
    aut = spec.automaton()
    assert aut.violations == []
    nuc = compute_nucleus(aut)
    assert len(nuc) == 6
    # parse . format is the identity on SpecFile; format . parse idempotent
    text = format_spec(spec)
    assert parse_spec(text) == spec
    assert format_spec(parse_spec(text)) == text


def test_parse_basilica():
    spec = parse_spec(read("basilica.ss"))
    aut = spec.automaton()
    assert aut.violations == []
    nuc = compute_nucleus(aut)
    # see the decisions notes: the minimal core has 14 classes, not 12
    assert len(nuc) == 14


def test_empty_generators_section():
    spec = parse_spec("[graph]\nvertex v\nedge 0 : v -> v\n")
    aut = spec.automaton()
    assert aut.violations == []
    nuc = compute_nucleus(aut)
    assert nuc.state_names() == ["v"]


def test_spec_syntax_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec("[graph]\nvertex v\nedge oops\n")
    assert info.value.line == 3
    with pytest.raises(SpecSyntaxError):
        parse_spec("vertex v\n")
    with pytest.raises(UnknownSymbolError):
        parse_spec("[graph]\nvertex v\nedge 0 : v -> v\n"
                   "[generator a : v -> v]\n0 -> 0 | zz\n").automaton()


def test_misdeclared_unit_restriction_is_caught():
    # b|_3 must be the unit at s(3) = v; declaring it at w is a violation
    text = read("ex310.ss").replace("3 -> 1 | v", "3 -> 1 | w")
    aut = parse_spec(text).automaton()
    assert any(isinstance(v, RestrictionVertexMismatchError) for v in aut.violations)


def test_options_section_bounds():
    spec = parse_spec("[graph]\nvertex v\nedge 0 : v -> v\n[options]\nmax_states 123\n")
    assert spec.bounds().max_states == 123


@pytest.mark.parametrize("line, message", [
    ("max_sates 5", "unknown option 'max_sates'; the options are max_states and max_rounds"),
    ("max_word_len 3", "unknown option 'max_word_len'; the options are max_states and max_rounds"),
    ("max_states many", "the options max_states and max_rounds take integers"),
    ("max_states 0", "option max_states must be at least 1, got 0"),
    ("max_states -5", "option max_states must be at least 1, got -5"),
    ("max_rounds 0", "option max_rounds must be at least 1, got 0"),
])
def test_options_take_only_the_two_bounds_at_least_one(line, message):
    text = f"[graph]\nvertex v\nedge 0 : v -> v\n[options]\nmax_rounds 9\n{line}\n"
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text)
    assert str(err.value) == f"line 6, col 1: {message}" and err.value.line == 6


HEAD = "[graph]\nvertex v\nedge 0 : v -> v\n"


@pytest.mark.parametrize("text, line, message", [
    ("[graph]\nvertexes v\n", 2, "unrecognized graph line 'vertexes v'"),
    (HEAD + "[generator a : v -> v]\n0 -> 0 | a\n[generator b : v -> v]\n0 -> 0 | v\n"
     "[generator a : v -> v]\n0 -> 0 | v\n", 8, "second section for generator 'a'"),
    (HEAD + "[generator a : v -> v]\n0 -> 0 | a\n0 -> 0 | v\n", 6,
     "second rule for edge '0' in generator 'a'"),
    (HEAD + "[options]\nmax_states 10\nmax_rounds 3\nmax_states 9\n", 7,
     "option max_states given twice"),
])
def test_spec_rejects_repeated_or_misspelt_declarations(text, line, message):
    # each was once accepted: the prefix 'vertex' declared v, and the later
    # generator section, rule or option replaced the earlier one
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text)
    assert str(err.value) == f"line {line}, col 1: {message}" and err.value.line == line


@pytest.mark.parametrize("eid", ["1.2", "(1", "1)", "a@0"])
def test_spec_rejects_edge_ids_no_path_literal_can_name(eid):
    # such an id was once accepted, and parse_path(g, "1.2") then failed
    # with "unknown edge '1'"
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(f"[graph]\nvertex v\nedge 0 : v -> v\nedge {eid} : v -> v\n")
    assert str(err.value).startswith(f"line 4, col 1: edge id {eid!r} holds")


def test_other_punctuated_edge_ids_name_themselves_in_literals():
    g = parse_spec("[graph]\nvertex v\nedge 1^2 : v -> v\nedge a-b_c : v -> v\n").graph()
    assert parse_path(g, "1^2.a-b_c") == Path.of(g, ["1^2", "a-b_c"])
    assert parse_path(g, "(1^2)^inf . a-b_c") == LeftInfinitePath.make(g, ["1^2"], ["a-b_c"])


def test_spec_of_automaton_roundtrip(ex310):
    spec = spec_of_automaton(ex310)
    text = format_spec(spec)
    again = parse_spec(text)
    aut = again.automaton()
    assert aut.violations == []
    assert len(compute_nucleus(aut)) == 6


def test_parse_path_kinds(ex310):
    g = ex310.graph
    p = parse_path(g, "2.4.2.3.1.2")
    assert isinstance(p, Path) and p.edges == tuple("242312")
    left = parse_path(g, "(1)^inf")
    assert left == LeftInfinitePath.make(g, ["1"], [])
    left2 = parse_path(g, "(1)^inf . 2.4")
    assert left2 == LeftInfinitePath.make(g, ["1"], ["2", "4"])
    right = parse_path(g, "4 . (1)^inf", kind="right")
    assert right == RightInfinitePath.make(g, ["4"], ["1"])
    bi = parse_path(g, "(2.3)^inf . 1 . (1)^inf @ 0")
    assert bi == BiInfinitePath.make(g, ["2", "3"], ["1"], ["1"], 0)
    bi2 = parse_path(g, "(2.3)^inf . (2.3)^inf @ 2")
    assert bi2 == BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], 2)


def test_parse_path_anchor_only_on_bi_infinite_literals(ex310):
    g = ex310.graph
    for literal, kind in (("2.4 @ 3", "auto"), ("2.4 @ 0", "finite"), ("(1)^inf . 2 @ 3", "auto"),
                          ("(1)^inf @ -1", "left"), ("4 . (1)^inf @ 2", "right"),
                          ("(1)^inf . 2 @ 3", "bi")):
        with pytest.raises(SpecSyntaxError):
            parse_path(g, literal, kind)
    assert parse_path(g, "(1)^inf . 2") == LeftInfinitePath.make(g, ["1"], ["2"])
    assert parse_path(g, "(1)^inf . (1)^inf @ 3", "bi").anchor == 0  # one period: the seam is free
    assert parse_path(g, "(2.3)^inf . 1 . (1)^inf @ -4").anchor == -4


def test_parse_path_junction_errors(ex310):
    g = ex310.graph
    with pytest.raises(JunctionMismatchError):
        parse_path(g, "(1.2)^inf")  # s(2) = w != r(1) = v at the seam
    parse_path(g, "(2.3)^inf")  # valid cycle at v
    with pytest.raises(SpecSyntaxError):
        parse_path(g, "")
    with pytest.raises(SpecSyntaxError):
        parse_path(g, "(1)^inf . (1)^inf . (1)^inf")


def test_format_path(ex310):
    g = ex310.graph
    assert str(Path.of(g, ["3", "2", "3"])) == "3.2.3"
    assert str(parse_path(g, "(1)^inf . 2.4")) == "(1)^inf . 2.4"


@pytest.mark.parametrize("literal, kind, chunk", [
    ("0.", "finite", "0."),               # a trailing dot once read as "0"
    ("4 .", "auto", "4 ."),
    ("(1)^inf .", "left", "(1)^inf ."),   # ... and this as "(1)^inf"
    ("(1)^inf . 2.4 . ", "auto", "(1)^inf . 2.4 ."),
    ("4..1", "finite", "4..1"),           # once UnknownSymbolError: unknown edge ''
    (".4", "auto", ".4"),
    ("(2.3)^inf . . (1)^inf @ 1", "bi", "(2.3)^inf . . (1)^inf"),
    ("4 . (1.)^inf", "right", "1."),      # inside a cycle, as before
])
def test_parse_path_rejects_every_empty_edge_id(ex310, literal, kind, chunk):
    with pytest.raises(SpecSyntaxError) as err:
        parse_path(ex310.graph, literal, kind)
    assert str(err.value) == f"empty edge id in {chunk!r}"


def test_parse_path_checks_every_kind_by_its_layout(ex310):
    g = ex310.graph
    for literal, kind, message in (
            ("(1)^inf . 2", "finite", "finite path literal cannot contain ^inf"),
            ("2 . (1)^inf", "left", "left-infinite literal is (cycle)^inf . tail"),
            ("(1)^inf . 2", "right", "right-infinite literal is head . (cycle)^inf"),
            ("(1)^inf", "bi", "bi-infinite literal is (rho)^inf . mid . (pi)^inf @ n0"),
            ("(1)^inf . (1)^inf . (1)^inf", "auto",
             "bi-infinite literal is (rho)^inf . mid . (pi)^inf @ n0"),
            ("2 . (1)^inf . (1)^inf", "auto",
             "bi-infinite literal is (rho)^inf . mid . (pi)^inf @ n0"),
            ("4", "loop", "unknown path kind 'loop'")):
        with pytest.raises(SpecSyntaxError) as err:
            parse_path(g, literal, kind)
        assert str(err.value) == message, literal
    assert parse_path(g, "(1)^inf", "right") == RightInfinitePath.make(g, [], ["1"])
    assert parse_path(g, "(2.3)^inf . 2.3.2 . (3.2)^inf @ 0") == \
        BiInfinitePath.make(g, ["2", "3"], [], ["2", "3"], 2)


def test_parse_path_at_64000_edges():
    # a 64,000-edge cycle group with as long a tail, head or center: the
    # literal is cut in one pass (a splitter that looked ahead from every
    # dot to the next parenthesis took about a minute on each)
    g = Graph(["v"], [("0", "v", "v"), ("1", "v", "v")])
    rho = ("0",) * 63_999 + ("1",)
    word, cycle = ".".join(rho), f"({'.'.join(rho)})^inf"
    seam = rho[-5:] + rho[:-5]
    for literal, want in ((f"{cycle} . {word}", LeftInfinitePath(rho, ())),
                          (f"{word} . {cycle}", RightInfinitePath((), rho)),
                          (f"{cycle} . {word} . {cycle} @ 5", BiInfinitePath(seam, (), seam, 0))):
        t0 = time.perf_counter()
        path = parse_path(g, literal)
        assert time.perf_counter() - t0 < 0.5, type(want).__name__
        assert path == want
