from pathlib import Path as FsPath

import pytest

from selfsim.errors import (
    JunctionMismatchError,
    RestrictionVertexMismatchError,
    SpecSyntaxError,
    UnknownSymbolError,
)
from selfsim.graphs import Path
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
