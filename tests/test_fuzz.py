"""Seeded fuzzing of the spec and path-literal parsers and of the CLI.

Valid inputs round-trip through the formatters; invalid ones raise only a
``SelfSimError``; mutated command lines never end in a traceback.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path as FsPath

from selfsim.cli import dispatch
from selfsim.errors import SelfSimError
from selfsim.graphs import Path
from selfsim.infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath
from selfsim.specfile import (
    GeneratorSpec,
    SpecFile,
    format_spec,
    parse_path,
    parse_spec,
)

ROOT = FsPath(__file__).resolve().parent.parent
TEXTS = [p.read_text() for p in sorted((ROOT / "specs").glob("*.ss"))]
SPEC_CHARS = "[]#|->:^@.() \n\tabvw0123456789_e"


def _mutate(seq, rng, alphabet, times):
    seq = list(seq)
    for _ in range(rng.randint(1, times)):
        at = rng.randrange(len(seq) + 1)
        roll = rng.random()
        if roll < 0.3 and seq:
            del seq[min(at, len(seq) - 1)]
        elif roll < 0.6 and seq:
            seq[min(at, len(seq) - 1)] = rng.choice(alphabet)
        else:
            seq.insert(at, rng.choice(alphabet))
    return seq


def _names(rng, k, taken):
    out = []
    while len(out) < k:
        name = "".join(rng.choice("abvwxyz0123456789_") for _ in range(rng.randint(1, 4)))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return sorted(out)


def _random_spec(rng):
    """A syntactically valid SpecFile, its fields sorted as ``parse_spec`` sorts them."""
    taken = set()
    vertices = _names(rng, rng.randint(1, 4), taken)
    ids = _names(rng, rng.randint(1, 6), taken)
    edges = tuple(sorted((e, rng.choice(vertices), rng.choice(vertices)) for e in ids))
    names = _names(rng, rng.randint(0, 3), taken)
    symbols = [n + inv for n in names for inv in ("", "^-1")] + vertices
    gens = []
    for name in names:
        rules = tuple(sorted(
            (e, rng.choice(ids), tuple(rng.choices(symbols, k=rng.randint(1, 3))))
            for e in rng.sample(ids, rng.randint(0, len(ids)))))
        gens.append(GeneratorSpec(name, rng.choice(vertices), rng.choice(vertices), rules))
    options = tuple(sorted((k, str(rng.randint(1, 999)))
                           for k in rng.sample(["max_states", "max_rounds"], rng.randint(0, 2))))
    return SpecFile(tuple(vertices), edges, tuple(gens), options)


def test_random_specs_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        spec = _random_spec(rng)
        text = format_spec(spec)
        assert parse_spec(text) == spec, text
        assert format_spec(parse_spec(text)) == text


def test_mutated_specs_raise_only_selfsim_errors():
    rng = random.Random(12)
    parsed = 0
    for _ in range(3000):
        text = "".join(_mutate(rng.choice(TEXTS), rng, SPEC_CHARS, 4))
        try:
            spec = parse_spec(text)
            parsed += 1
            assert format_spec(parse_spec(format_spec(spec))) == format_spec(spec)
            spec.bounds()
            spec.automaton()
        except SelfSimError:
            pass
    assert parsed > 500


def _literal(rng, ids, cycles):
    """A literal with 0 (finite), 1 (left), 2 (right) or 3 (bi-infinite) cycle
    shapes, and whether its tail, head or center repeats the cycles next to
    it, edges the normal forms absorb."""
    def dots():
        return ".".join(rng.choice(ids) for _ in range(rng.randint(1, 3)))

    rho, pi = dots(), dots()
    mid = [dots()] if rng.random() < 0.5 else []
    repeats = cycles > 0 and rng.random() < 0.3
    if repeats:
        before = [rho] * rng.randint(1, 2) if cycles != 2 else []
        after = [pi] * rng.randint(1, 2) if cycles != 1 else []
        mid = [".".join(before + mid + after)]
    head, tail = f"({rho})^inf", f"({pi})^inf"
    parts = {0: [dots()], 1: [head, *mid], 2: [*mid, tail], 3: [head, *mid, tail]}[cycles]
    anchor = f" @ {rng.randint(-2, 2)}" if cycles == 3 and rng.random() < 0.5 else ""
    return " . ".join(parts) + anchor, repeats


def test_path_literals_round_trip_or_raise_selfsim_errors():
    rng = random.Random(13)
    kinds = {0: "finite", 1: "left", 2: "right", 3: "bi"}
    kind_of = {Path: "finite", LeftInfinitePath: "left", RightInfinitePath: "right",
               BiInfinitePath: "bi"}
    parsed = dict.fromkeys(kinds.values(), 0)
    absorbed = dict.fromkeys(["left", "right", "bi"], 0)
    for text in TEXTS:
        graph = parse_spec(text).graph()
        ids = [e.id for e in graph.edges] + ["9", "x"]
        for _ in range(600):
            cycles = rng.randrange(4)
            literal, repeats = _literal(rng, ids, cycles)
            if rng.random() < 0.3:
                literal = "".join(_mutate(literal, rng, "().^inf@ -019", 3))
                repeats = False
            kind = rng.choice([kinds[cycles], "auto"])
            try:
                path = parse_path(graph, literal, kind)
            except SelfSimError:
                continue
            kind = kind_of[type(path)]
            assert parse_path(graph, str(path), kind) == path, literal
            parsed[kind] += 1
            if repeats:
                absorbed[kind] += 1
    assert min(parsed.values()) > 20, parsed
    assert min(absorbed.values()) > 5, absorbed


def _mutated_argv(rng, pool):
    """A pool command with its tokens, or the characters of one flag value, mutated."""
    tokens = ["-1", "0", "x", "", " ", "--spec", "--k", "--level", "--depth", "--max-states",
              "--json", "(1)^inf", "1.2", "@", "^inf", "x9", "[[1]]", "[]", "a^-1",
              str(ROOT / "README.md"), "/nonexistent.ss"]
    argv = [str(ROOT / a) if a.startswith("specs/") else a for a in rng.choice(pool)]
    if rng.random() < 0.5:
        return _mutate(argv, rng, tokens, 3)
    at = rng.choice([i for i, a in enumerate(argv) if i and argv[i - 1].startswith("--")])
    argv[at] = "".join(_mutate(argv[at], rng, "().^inf@ -x[]", 2))
    return argv


def _pool():
    return json.loads((ROOT / "bench" / "expected" / "query-mix.json").read_text())["pool"]


def test_mutated_argv_never_escapes_dispatch():
    rng = random.Random(14)
    pool = _pool()
    for _ in range(300):
        argv = _mutated_argv(rng, pool)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv)
        assert code in (0, 1, 2, 3), argv


def test_mutated_argv_never_prints_a_traceback():
    rng = random.Random(15)
    pool = _pool()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(12):
        argv = _mutated_argv(rng, pool)
        proc = subprocess.run([sys.executable, "-m", "selfsim.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode in (0, 1, 2, 3), argv
        assert "Traceback" not in proc.stderr, argv
