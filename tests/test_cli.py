import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from selfsim import cli
from selfsim.cli import dispatch
from selfsim.ktheory import IntMatrix, SNFResult, _verify_snf

ROOT = FsPath(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
EX310 = str(SPECS / "ex310.ss")
BASILICA = str(SPECS / "basilica.ss")
ODOMETER = str(SPECS / "odometer.ss")
NONCONTRACTING = str(SPECS / "noncontracting.ss")
NONHAUSDORFF = str(SPECS / "nonhausdorff.ss")


def run(*argv):
    buf = io.StringIO()
    code = dispatch(list(argv), stdout=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv, "--json")
    return code, json.loads(out)


def test_act_long_word():
    code, out = run("act", "--spec", EX310, "--elem", "a", "--path", "2.4.2.3.1.2")
    assert code == 0
    assert "3.2.3.1.1.2" in out


def test_restrict_and_eq():
    code, data = run_json("restrict", "--spec", EX310, "--elem", "a b", "--path", "4")
    assert code == 0 and data["result"] == "b a"
    code, data = run_json("eq", "--spec", EX310, "--left", "a^-1", "--right", "b")
    assert code == 1 and data["equal"] is False
    code, data = run_json("eq", "--spec", EX310, "--left", "a a^-1", "--right", "w")
    assert code == 0 and data["equal"] is True


def test_nucleus_listing():
    code, data = run_json("nucleus", "--spec", EX310)
    assert code == 0
    assert data["size"] == 6
    names = {s["name"] for s in data["states"]}
    assert names == {"v", "w", "a", "b", "a^-1", "b^-1"}


def test_rk():
    code, data = run_json("rk", "--spec", EX310, "--k", "2")
    assert code == 0 and data["R_k"] == 2


def test_rk_basilica_k6():
    # N^6 has 11,810 classes, built on the nucleus's rows in about a second
    code, data = run_json("rk", "--spec", BASILICA, "--k", "6")
    assert code == 0 and (data["k"], data["R_k"]) == (6, 6)


def test_check_subcommands():
    assert run("check", "regular", "--spec", EX310)[0] == 0
    assert run("check", "hausdorff", "--spec", EX310)[0] == 0
    assert run("check", "regular", "--spec", NONHAUSDORFF)[0] == 1
    assert run("check", "hausdorff", "--spec", NONHAUSDORFF)[0] == 1
    assert run("check", "contracting", "--spec", EX310)[0] == 0
    assert run("check", "contracting", "--spec", NONCONTRACTING)[0] == 2
    assert run("check", "recurrent", "--spec", ODOMETER, "--depth", "4")[0] == 0
    assert run("check", "level-transitive", "--spec", EX310, "--level", "5")[0] == 0


def test_check_missing_spec_is_input_error():
    code, _ = run("check", "regular", "--spec", "missing.ss")
    assert code == 3


def test_invalid_automaton_is_input_error(tmp_path):
    bad = tmp_path / "bad.ss"
    bad.write_text("[graph]\nvertex v\nedge 0 : v -> v\nedge 1 : v -> v\n"
                   "[generator a : v -> v]\n0 -> 0 | v\n1 -> 0 | v\n")
    code, data = run_json("check", "regular", "--spec", str(bad))
    assert code == 3 and "violations" in data


def test_ae_class_shift():
    code, data = run_json("ae", "--spec", EX310, "--x", "(2.3)^inf", "--y", "(4.2)^inf")
    assert code == 0 and data["equivalent"] is True
    code, data = run_json("ae", "--spec", EX310, "--x", "(1)^inf", "--y", "(2.3)^inf")
    assert code == 1 and data["equivalent"] is False
    code, data = run_json("class", "--spec", EX310, "--x", "(1)^inf")
    assert code == 0 and data["members"] == ["(1)^inf"]
    code, data = run_json("shift", "--spec", EX310, "--x", "(2.3)^inf")
    assert code == 0 and data["result"] == "(3.2)^inf"


def test_anchor_on_a_one_sided_literal_is_an_input_error():
    # an anchor positions a bi-infinite path only; elsewhere it was dropped
    for flag, literal, cmd in (("--x", "(1)^inf . 2 @ 3", "shift"), ("--x", "(1)^inf @ 0", "class"),
                               ("--path", "3.2.4 @ 1", "act")):
        extra = ["--elem", "a b"] if cmd == "act" else []
        code, data = run_json(cmd, "--spec", EX310, flag, literal, *extra)
        assert code == 3 and "anchor" in data["error"], literal
    code, data = run_json("shift", "--spec", EX310, "--x", "(1)^inf . 2")
    assert code == 0 and data["result"] == "(1)^inf"


def _restrict_cases():
    """Seeded (spec, element, path) triples over the six specs: random
    words of up to 4 symbols and paths of 1 to 5 edges at their domain."""
    from selfsim.specfile import parse_spec
    from conftest import paths_at
    from test_automaton import random_element

    rng = random.Random(41)
    for spec in sorted(SPECS.glob("*.ss")):
        aut = parse_spec(spec.read_text()).automaton()
        for _ in range(25):
            g = random_element(aut, rng, max_len=4)
            p = rng.choice(paths_at(aut.graph, rng.randint(1, 5), g.dom))
            yield spec, g.name(), ".".join(p.edges)


def test_restrict_prints_the_restriction_as_before():
    """restrict prints r.name(); it printed aut.canonical(r).name(), which on
    a fresh automaton is the first lookup, so it returns r itself."""
    from selfsim.specfile import parse_path, parse_spec

    count = 0
    for spec, elem, literal in _restrict_cases():
        aut = parse_spec(spec.read_text()).automaton()  # a fresh one, as each dispatch builds
        r = aut.restrict(aut.element(elem), parse_path(aut.graph, literal, "finite"))
        name = aut.canonical(r).name()
        want_json = json.dumps({"schema": 1, "result": name}, indent=2) + "\n"
        assert run("restrict", "--spec", str(spec), "--elem", elem, "--path", literal,
                   "--json") == (0, want_json), (spec, elem, literal)
        assert run("restrict", "--spec", str(spec), "--elem", elem, "--path", literal) == (
            0, f"result: {name}\n")
        count += 1
    assert count == 150


def test_germ_eq_cli():
    code, data = run_json(
        "germ-eq", "--spec", EX310, "--x", "4 . (1)^inf", "--y", "(1)^inf",
        "--m1", "0", "--elem1", "a", "--n1", "0",
        "--m2", "1", "--elem2", "v", "--n2", "1")
    assert code == 0 and data["equal"] is True


def test_germ_eq_cli_far_offsets():
    # shift drops the head and rotates the cycle once, not one edge per step
    far = str(10 ** 12)
    code, data = run_json(
        "germ-eq", "--spec", EX310, "--x", "(1)^inf", "--y", "4 . (1)^inf",
        "--m1", far, "--elem1", "v", "--n1", far, "--m2", far, "--elem2", "v", "--n2", far)
    assert code == 0 and data["equal"] is True


def test_germ_eq_cli_offsets_far_apart():
    # the state at n1 = 10^12 of the germ with n2 = 0 is read off its walk's
    # repeat, not reached by 10^12 restrictions; a child process, so a
    # regression times out instead of hanging the suite
    far = str(10 ** 12)
    proc = subprocess.run(
        [sys.executable, "-m", "selfsim.cli", "--json", "germ-eq", "--spec", EX310,
         "--x", "(1)^inf", "--y", "(1)^inf", "--m1", far, "--elem1", "v", "--n1", far,
         "--m2", "0", "--elem2", "v", "--n2", "0"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["equal"] is True


def test_stable_far_anchor_cli():
    # the least truncation is read off where the walk of state sets from the
    # anchors stops, not found by a scan of 10^4 steps
    code, data = run_json("stable", "--spec", EX310,
                          "--x", "(2.3)^inf . 1 . (1)^inf @ -10000",
                          "--y", "(3.2)^inf . 4 . (1)^inf @ -10000")
    assert code == 1 and data["stable_equivalent"] is False


def test_unstable_far_anchor_cli():
    # the least M is read off one leftward walk of state sets that folds the
    # left-periodic zone, so 10^6 positions cost no more than ten; a child
    # process, so a regression times out instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "selfsim.cli", "--json", "unstable", "--spec", EX310,
         "--x", "(2.3)^inf . 1 . (1)^inf @ 1000000", "--y", "(3.2)^inf . 4 . (1)^inf @ 1000001"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr[-2000:]
    data = json.loads(proc.stdout)
    assert data["unstable_equivalent"] is True
    assert data["witness"] == {"M": 999_999, "element": "b a"}


def test_stable_unstable_cli():
    x = "(2.3)^inf . 1 . (1)^inf @ 0"
    y = "(3.2)^inf . 4 . (1)^inf @ 1"
    code, data = run_json("stable", "--spec", EX310, "--x", x, "--y", y)
    assert code == 0 and data["stable_equivalent"] is True
    code, data = run_json("unstable", "--spec", EX310, "--x", x, "--y", y)
    assert code == 0
    assert data["witness"] == {"M": 0, "element": "a"}
    code, data = run_json("unstable", "--spec", EX310,
                          "--x", "(1)^inf . (1)^inf @ 0",
                          "--y", "(2.3)^inf . (2.3)^inf @ 0")
    assert code == 1


def test_schreier_exports(tmp_path):
    code, data = run_json("schreier", "--spec", EX310, "--level", "2")
    assert code == 0 and len(data["vertices"]) == 8
    out = tmp_path / "gamma.dot"
    code, data = run_json("schreier", "--spec", EX310, "--level", "1",
                          "--format", "dot", "--out", str(out))
    assert code == 0 and out.read_text().startswith("graph schreier_level_1")


def test_schreier_out_writes_json(tmp_path):
    from selfsim.schreier import build_schreier, default_generating_set
    from selfsim.specfile import parse_spec

    out = tmp_path / "gamma.json"
    code, data = run_json("schreier", "--spec", EX310, "--level", "2", "--out", str(out))
    assert code == 0 and data == {"schema": 1, "written": str(out)}
    aut = parse_spec(FsPath(EX310).read_text()).automaton()
    doc = build_schreier(aut, default_generating_set(aut), 2).to_json()
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"
    code, text = run("schreier", "--spec", EX310, "--level", "2", "--out", str(out))
    assert code == 0 and text == f"written: {out}\n"


def test_schreier_out_writes_dot(tmp_path):
    from selfsim.schreier import build_schreier, default_generating_set
    from selfsim.specfile import parse_spec

    out = tmp_path / "gamma.dot"
    code, data = run_json("schreier", "--spec", EX310, "--level", "3", "--format", "dot",
                          "--out", str(out))
    assert code == 0 and data == {"schema": 1, "written": str(out)}
    aut = parse_spec(FsPath(EX310).read_text()).automaton()
    assert out.read_text() == build_schreier(aut, default_generating_set(aut), 3).to_dot() + "\n"


DOT_LABEL = re.compile(r'\[label="((?:[^"\\]|\\.)*)"[,\]]')


def dot_labels(dot):
    """The unescaped label of each node and edge line; a label that is not
    one well-formed DOT string fails."""
    out = []
    for line in dot.splitlines()[1:-1]:
        m = DOT_LABEL.search(line)
        assert m, line
        out.append(re.sub(r"\\(.)", r"\1", m.group(1)))
    return out


def test_dot_labels_are_escaped(tmp_path):
    # odometer with a generator named q"x, a vertex named v\ and an edge named 0\
    spec = tmp_path / "quotes.ss"
    spec.write_text('[graph]\nvertex v\\\nedge 0\\ : v\\ -> v\\\nedge 1 : v\\ -> v\\\n'
                    '[generator q"x : v\\ -> v\\]\n0\\ -> 1 | v\\\n1 -> 0\\ | q"x\n')
    code, gamma = run_json("schreier", "--spec", str(spec), "--level", "2")
    assert code == 0 and gamma["vertices"] == ["0\\.0\\", "0\\.1", "1.0\\", "1.1"]
    code, data = run_json("schreier", "--spec", str(spec), "--level", "2", "--format", "dot")
    assert code == 0 and dot_labels(data["dot"]) == gamma["vertices"] + [
        ",".join(e["labels"]) for e in gamma["edges"]]
    code, nuc = run_json("nucleus", "--spec", str(spec))
    assert code == 0 and {s["name"] for s in nuc["states"]} == {"v\\", 'q"x', 'q"x^-1'}
    code, data = run_json("nucleus", "--spec", str(spec), "--format", "dot")
    assert code == 0 and dot_labels(data["dot"]) == [s["name"] for s in nuc["states"]] + [
        f'{t["edge"]}/{t["image"]}' for t in nuc["transitions"]]


def _cli(*argv, **kwargs):
    """A child ``python -m selfsim.cli`` process on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, "-m", "selfsim.cli", *argv], cwd=ROOT, env=env,
                            **kwargs)


def test_closed_stdout_exits_141_without_traceback():
    # the report (about 200 kB) outgrows a pipe's buffer, so the write fails
    # whether or not it started before the read end was closed
    proc = _cli("--json", "schreier", "--spec", EX310, "--level", "11", "--format", "dot",
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


def test_schreier_level_17_fits_400_mb(tmp_path):
    resource = pytest.importorskip("resource")
    limit = 400 << 20
    out = tmp_path / "gamma17.dot"
    proc = _cli("schreier", "--spec", EX310, "--level", "17", "--format", "dot", "--out", str(out),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr[-2000:]
    with out.open() as f:
        assert f.readline() == "graph schreier_level_17 {\n"
        assert sum(1 for line in f if "[label=" in line and "--" not in line) == 2 ** 18


def test_schreier_report_past_memory_is_a_typed_error():
    # JSON to standard output is rendered whole, which the limit does not
    # allow at level 17; --out would stream it
    resource = pytest.importorskip("resource")
    limit = 400 << 20
    proc = _cli("--json", "schreier", "--spec", EX310, "--level", "17",
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 3, stderr[-2000:]
    assert b"Traceback" not in stderr, stderr[-2000:]
    report = json.loads(stdout)
    assert report["schema"] == 1 and "--out" in report["error"]


def test_compute_past_memory_is_inconclusive(monkeypatch):
    # a MemoryError while computing, not rendering, is typed like a bound
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(cli, "build_schreier", out_of_memory)
    code, data = run_json("schreier", "--spec", EX310, "--level", "20")
    assert code == 2
    assert data == {"result": "inconclusive", "error": "out of memory", "schema": 1}


def test_katsura_pipeline(tmp_path):
    out = tmp_path / "katsura.ss"
    code, data = run_json("katsura", "--A", "[[2,1],[2,2]]", "--B", "[[1,0],[1,1]]",
                          "--spec-out", str(out))
    assert code == 0
    assert data["K0"] == {"rank": 1, "torsion": []}
    assert data["K1"] == {"rank": 1, "torsion": []}
    # the emitted spec file parses back to a valid contracting automaton
    code, data = run_json("check", "contracting", "--spec", str(out))
    assert code == 0 and data["nucleus_size"] == 6


def test_not_contracting_certificate_cli(tmp_path):
    # the Katsura 3x3: the certificate answers "property fails" for check
    # contracting and for every command that needs a nucleus
    out = tmp_path / "k33.ss"
    code, _ = run_json("katsura", "--A", "[[3,1,1],[1,3,1],[1,1,3]]",
                       "--B", "[[1,1,0],[0,1,1],[1,0,1]]", "--spec-out", str(out))
    assert code == 0
    reports = [run_json(*argv, "--spec", str(out))
               for argv in (["check", "contracting"], ["nucleus"], ["rk", "--k", "2"])]
    assert all(code == 1 for code, _ in reports)
    data = reports[0][1]
    assert all(report == data for _, report in reports)
    assert data["result"] == "not-contracting" and data["state"] == "a3"
    assert data["cycle"] and data["order_chain"]
    assert {"state", "orbit", "edge", "restriction"} == data["order_chain"][0].keys()
    code, text = run("nucleus", "--spec", str(out))
    assert code == 1 and text.startswith("result: not-contracting\nstate: a3\n")


def test_snf_and_ktheory_cli():
    code, data = run_json("snf", "--matrix", "[[0,0],[-1,0]]")
    assert code == 0 and data["diagonal"] == [1, 0]
    code, data = run_json("ktheory", "--A", "[[2]]", "--B", "[[1]]")
    assert code == 0
    assert data["K0_pretty"] == "Z" and data["K1_pretty"] == "Z"


@pytest.mark.parametrize("argv", [
    ["snf", "--matrix", "5"],
    ["snf", "--matrix", "[1,2]"],
    ["snf", "--matrix", '[[1,"a"]]'],
    ["snf", "--matrix", "null"],
    ["snf", "--matrix", "[[1.5]]"],
    ["snf", "--matrix", "[[true]]"],
    ["snf", "--matrix", "[[1,2],[3]]"],
    ["snf", "--matrix", "[" * 100000],
    ["ktheory", "--A", "5", "--B", "[[1]]"],
    ["ktheory", "--A", "[[1]]", "--B", "[[false]]"],
    ["katsura", "--A", '"[[2]]"', "--B", "[[1]]"],
])
def test_malformed_matrix_is_input_error(argv):
    code, data = run_json(*argv)
    assert code == 3 and "error" in data


def test_matrix_digit_limit_is_input_error():
    limit = sys.get_int_max_str_digits()
    code, data = run_json("snf", "--matrix", "[[" + "7" * (limit + 700) + "]]")
    assert code == 3 and str(limit) in data["error"]
    a = 10 ** (limit - 301) + 1   # coprime to a + 1, so D = diag(1, a * (a + 1))
    for extra in ((), ("--json",)):
        code, out = run("snf", "--matrix", json.dumps([[a, 0], [0, a + 1]]), *extra)
        assert code == 3 and str(limit) in out
    assert sys.get_int_max_str_digits() == limit


def test_snf_matrix_fuzz():
    rng = random.Random(41)
    alphabet = '[]{},-0123456789 ."atrufenl'
    for _ in range(400):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        chars = list(json.dumps([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]))
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(chars))
            if rng.random() < 0.4:
                del chars[at]
            else:
                chars.insert(at, rng.choice(alphabet))
        text = "".join(chars)
        buf = io.StringIO()
        code = dispatch(["--json", "snf", "--matrix", text], stdout=buf)
        assert code in (0, 3), text
        if code == 3:
            assert not buf.getvalue() or "error" in json.loads(buf.getvalue())
            continue
        doc = json.loads(buf.getvalue())
        res = SNFResult(*(IntMatrix.of(doc[k]) for k in "UDV"))
        _verify_snf(IntMatrix.of(json.loads(text)), res)


def test_env_var_override(monkeypatch):
    monkeypatch.setenv("SELFSIM_MAX_STATES", "50")
    code, _ = run("check", "contracting", "--spec", NONCONTRACTING)
    assert code == 2


def test_json_schema_version():
    code, data = run_json("validate", "--spec", EX310)
    assert code == 0 and data["schema"] == 1
    assert data["graph"]["strongly_connected"] is True


def test_determinism():
    a = run_json("nucleus", "--spec", BASILICA)
    b = run_json("nucleus", "--spec", BASILICA)
    assert a == b
    c = run("class", "--spec", EX310, "--x", "(2.3)^inf")
    d = run("class", "--spec", EX310, "--x", "(2.3)^inf")
    assert c == d


# -- typed errors instead of tracebacks --------------------------------------------


def test_bad_env_var_is_input_error(monkeypatch):
    for value in ("abc", "0", "-5"):
        monkeypatch.setenv("SELFSIM_MAX_STATES", value)
        code, data = run_json("check", "contracting", "--spec", EX310)
        assert code == 3 and "SELFSIM_MAX_STATES" in data["error"]
    code, _ = run_json("check", "contracting", "--spec", EX310, "--max-states", "50")
    assert code == 0  # a flag wins over the variable, which is then not read


def test_unreadable_inputs_are_input_errors(tmp_path):
    latin = tmp_path / "latin.ss"
    latin.write_bytes(FsPath(EX310).read_bytes().replace(b"vertex w", b"vertex \xe9"))
    code, data = run_json("validate", "--spec", str(latin))
    assert code == 3 and "cannot read spec file" in data["error"]
    opts = tmp_path / "opts.ss"
    opts.write_text(FsPath(EX310).read_text() + "[options]\nmax_states many\n")
    code, data = run_json("validate", "--spec", str(opts))
    assert code == 3 and "max_states" in data["error"]
    code, data = run_json("act", "--spec", EX310, "--elem", "a", "--path", "9")
    assert code == 3 and data["error"] == "unknown edge '9'"
    code, data = run_json("class", "--spec", EX310, "--x", "(9)^inf")
    assert code == 3 and data["error"] == "unknown edge '9'"



def test_spec_options_outside_the_bounds_are_input_errors(tmp_path):
    # a one-vertex spec whose nucleus is one class; a bad option used to be
    # dropped, or to turn it into a not-contracting-within-bound answer
    base = "[graph]\nvertex v\nedge 0 : v -> v\n[generator a : v -> v]\n0 -> 0 | a\n"
    spec = tmp_path / "one.ss"
    spec.write_text(base)
    assert run_json("check", "contracting", "--spec", str(spec)) == (
        0, {"schema": 1, "result": "contracting", "nucleus_size": 1})
    for line in ("max_states 0", "max_states -5", "max_rounds 0", "max_sates 5",
                 "max_word_len 3"):
        spec.write_text(base + f"[options]\n{line}\n")
        code, data = run_json("check", "contracting", "--spec", str(spec))
        assert code == 3 and data["error"].startswith("line 7, col 1: "), line


def test_generator_name_ending_in_inverse_marker_is_an_input_error(tmp_path):
    spec = tmp_path / "inv.ss"
    spec.write_text("[graph]\nvertex v\nedge 0 : v -> v\nedge 1 : v -> v\n"
                    "[generator x^-1 : v -> v]\n0 -> 1 | v\n1 -> 0 | v\n")
    code, data = run_json("validate", "--spec", str(spec))
    assert code == 3 and "'x^-1' ends in the inverse marker ^-1" in data["error"]


def test_names_holding_a_comma_are_input_errors(tmp_path):
    # a Schreier DOT label joins its names with ",", so a generator a,b on
    # odometer's graph would print the loop's labels as "a,b,v"
    spec = tmp_path / "comma.ss"
    for gen, v, bad in (("a,b", "v", "a,b"), ("a", "v,w", "v,w")):
        spec.write_text(f"[graph]\nvertex {v}\nedge 0 : {v} -> {v}\nedge 1 : {v} -> {v}\n"
                        f"[generator {gen} : {v} -> {v}]\n0 -> 1 | {v}\n1 -> 0 | {gen}\n")
        code, data = run_json("schreier", "--spec", str(spec), "--level", "0", "--format", "dot")
        assert code == 3 and f"name {bad!r} holds the DOT label separator" in data["error"], data


def test_unwritable_outputs_are_input_errors(tmp_path):
    missing = str(tmp_path / "no" / "such" / "dir" / "out")
    for fmt in ("dot", "json"):
        code, data = run_json("schreier", "--spec", EX310, "--level", "1", "--format", fmt,
                              "--out", missing)
        assert code == 3 and "cannot write" in data["error"]
    code, data = run_json("katsura", "--A", "[[2]]", "--B", "[[1]]", "--spec-out", missing)
    assert code == 3 and "cannot write" in data["error"]


@pytest.mark.parametrize("argv", [
    ["rk", "--spec", EX310, "--k", "-1"],
    ["rk", "--spec", EX310, "--k", "0"],
    ["check", "level-transitive", "--spec", EX310, "--level", "-1"],
    ["check", "level-transitive", "--spec", EX310, "--level", "0"],
    ["check", "recurrent", "--spec", ODOMETER, "--depth", "-1"],
    ["schreier", "--spec", EX310, "--level", "-1"],
    ["nucleus", "--spec", EX310, "--max-states", "-5"],
    ["nucleus", "--spec", EX310, "--max-states", "0"],
    ["nucleus", "--spec", EX310, "--max-rounds", "0"],
    ["germ-eq", "--spec", EX310, "--x", "(1)^inf", "--y", "(1)^inf", "--m1", "-1",
     "--elem1", "v", "--n1", "0", "--m2", "0", "--elem2", "v", "--n2", "0"],
])
def test_out_of_range_integer_flags_are_rejected(argv, capsys):
    code, out = run(*argv)
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert "error: argument --" in err and "must be at least" in err


def test_integer_flag_lower_bounds_are_accepted():
    assert run("rk", "--spec", EX310, "--k", "1")[0] == 0
    assert run("schreier", "--spec", EX310, "--level", "0")[0] == 0
    assert run("check", "recurrent", "--spec", ODOMETER, "--depth", "0")[0] == 2
    assert run("check", "contracting", "--spec", EX310, "--max-states", "1",
               "--max-rounds", "1")[0] == 2


# -- the command table against the parser it replaced -----------------------------


def _build_parser():
    """The argparse tree the command table replaced, every subcommand built.

    Kept as the oracle for ``cli._parser``: its namespaces carry ``command``
    like the table's, so ``cli.dispatch`` runs either.
    """
    top = argparse.ArgumentParser(prog="selfsim",
                                  description="Self-similar groupoid actions on graphs")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    def spec_command(name, **extra):
        p = sub.add_parser(name)
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable output")
        p.add_argument("--spec", required=True)
        p.add_argument("--max-states", type=int, default=None)
        p.add_argument("--max-rounds", type=int, default=None)
        for key, kw in extra.items():
            p.add_argument(f"--{key.replace('_', '-')}", **kw)
        return p

    spec_command("validate")
    spec_command("act", elem={"required": True}, path={"required": True})
    spec_command("restrict", elem={"required": True}, path={"required": True})
    spec_command("eq", left={"required": True}, right={"required": True})
    spec_command("nucleus", format={"choices": ["json", "dot"], "default": "json"})
    spec_command("rk", k={"type": int, "required": True})
    check = spec_command("check", depth={"type": int, "default": 6},
                         level={"type": int, "default": 1})
    check.add_argument("property", choices=[
        "regular", "hausdorff", "recurrent", "level-transitive", "contracting"])
    spec_command("ae", x={"required": True}, y={"required": True})
    spec_command("class", x={"required": True})
    spec_command("shift", x={"required": True})
    spec_command("germ-eq",
                 x={"required": True}, y={"required": True},
                 m1={"type": int, "required": True}, elem1={"required": True},
                 n1={"type": int, "required": True},
                 m2={"type": int, "required": True}, elem2={"required": True},
                 n2={"type": int, "required": True})
    spec_command("stable", x={"required": True}, y={"required": True})
    spec_command("unstable", x={"required": True}, y={"required": True})
    spec_command("schreier", level={"type": int, "required": True},
                 format={"choices": ["json", "dot"], "default": "json"},
                 out={"default": None})

    kat = sub.add_parser("katsura")
    kat.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    kat.add_argument("--A", required=True)
    kat.add_argument("--B", required=True)
    kat.add_argument("--spec-out", default=None)

    snf = sub.add_parser("snf")
    snf.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    snf.add_argument("--matrix", required=True)

    kth = sub.add_parser("ktheory")
    kth.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    kth.add_argument("--A", required=True)
    kth.add_argument("--B", required=True)
    return top


# Runs every argv read from stdin through cli.dispatch, with the table's parser
# or (argument "oracle") with _build_parser, and prints stdout, stderr and exit
# code of each as JSON.
_RUNNER = """
import contextlib, io, json, sys
from selfsim import cli
if sys.argv[1] == "oracle":
    from test_cli import _build_parser
    cli._parser = _build_parser
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(results))
"""


def _run_all(mode, cases):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
               COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", _RUNNER, mode], input=json.dumps(cases),
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _oracle_cases():
    cases = [["-h"], [], ["--json"], ["bogus"], ["-1", "eq"], ["--foo", "eq"], ["-h", "eq"],
             ["--json", "-h", "snf"], ["--", "eq"], ["-", "eq"], ["eq", "extra"],
             ["check", "nope", "--spec", EX310],
             ["nucleus", "--spec", EX310, "--format", "xml"],
             ["rk", "--spec", EX310, "--k", "x"],
             ["check", "regular", "--spec", EX310, "--depth", "1.5"]]
    for name in cli.COMMANDS:
        cases += [[name, "-h"], [name], [name, "--spec"], [name, "--bogus"],
                  ["--json", name, "--spec", EX310, "--bogus", "1"]]
    for spec in sorted(SPECS.glob("*.ss")):
        for argv in (["validate"], ["nucleus"], ["nucleus", "--format", "dot"],
                     ["rk", "--k", "2"], ["check", "regular"], ["check", "hausdorff"],
                     ["check", "contracting"], ["check", "recurrent", "--depth", "3"],
                     ["check", "level-transitive", "--level", "2"],
                     ["schreier", "--level", "2"], ["schreier", "--level", "1", "--format", "dot"],
                     ["nucleus", "--max-states", "5", "--max-rounds", "3"]):
            cases += [[argv[0], "--spec", str(spec), *argv[1:]],
                      ["--json", argv[0], "--spec", str(spec), *argv[1:]]]
    ex310 = [["act", "--elem", "a b", "--path", "3.2.4"], ["restrict", "--elem", "a", "--path", "2"],
             ["eq", "--left", "a a^-1", "--right", "w"], ["ae", "--x", "(2.3)^inf", "--y", "(4.2)^inf"],
             ["class", "--x", "(2.3)^inf"], ["shift", "--x", "(2.3)^inf"],
             ["germ-eq", "--x", "4 . (1)^inf", "--y", "(1)^inf", "--m1", "0", "--elem1", "a",
              "--n1", "0", "--m2", "1", "--elem2", "v", "--n2", "1"],
             ["stable", "--x", "(2.3)^inf . 1 . (1)^inf @ 0", "--y", "(3.2)^inf . 4 . (1)^inf @ 1"],
             ["unstable", "--x", "(2.3)^inf . 1 . (1)^inf @ 0",
              "--y", "(3.2)^inf . 4 . (1)^inf @ 1"]]
    cases += [[argv[0], "--spec", EX310, *argv[1:], "--json"] for argv in ex310]
    cases += [["snf", "--matrix", "[[2,4],[6,8]]"], ["ktheory", "--A", "[[2]]", "--B", "[[1]]"],
              ["--json", "katsura", "--A", "[[2,1],[2,2]]", "--B", "[[1,0],[1,1]]"]]
    return cases


def test_table_parser_matches_oracle():
    cases = _oracle_cases()
    got, want = _run_all("table", cases), _run_all("oracle", cases)
    for argv, g, w in zip(cases, got, want):
        assert g == w, argv
    assert sum(code == 3 and "error:" in err for _, err, code in want) >= 60
    assert sum(code == 0 and out.startswith("usage:") for out, _, code in want) == 20


def test_dispatch_builds_the_parser_tree_once(monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert run("check", "regular", "--spec", EX310)[0] == 0
    # the top parser and one parser per command, each built once
    assert len(made) == 1 + len(cli.COMMANDS) == 18
    assert made[0] == "selfsim" and len(set(made)) == 18
    made.clear()
    assert run("-h")[0] == 0
    assert run("rk", "--spec", EX310, "--k", "x")[0] == 3
    assert run("snf", "--matrix", "[[2,4],[6,8]]")[0] == 0
    assert run("check", "regular", "--spec", EX310)[0] == 0
    assert made == []
