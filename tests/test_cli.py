import io
import json
import random
import sys
from pathlib import Path as FsPath

import pytest

from selfsim.cli import dispatch
from selfsim.ktheory import IntMatrix, SNFResult, _verify_snf

SPECS = FsPath(__file__).resolve().parent.parent / "specs"
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


def test_germ_eq_cli():
    code, data = run_json(
        "germ-eq", "--spec", EX310, "--x", "4 . (1)^inf", "--y", "(1)^inf",
        "--m1", "0", "--elem1", "a", "--n1", "0",
        "--m2", "1", "--elem2", "v", "--n2", "1")
    assert code == 0 and data["equal"] is True


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
