"""Command-line surface: spec files in, reports out.

Exit codes: 0 = property holds / computation done, 1 = property fails,
2 = inconclusive (a semi-decision hit its bounds), 3 = input error.
``--json`` switches every report to a machine-readable document with
``"schema": 1``; ``SELFSIM_MAX_STATES`` overrides the nucleus state budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path as FsPath

from . import dynamics
from .automaton import Bounds
from .errors import ClosureLimitError, SelfSimError
from .graphs import validate_graph
from .ktheory import IntMatrix, katsura_automaton, katsura_ktheory, smith_normal_form
from .nucleus import NotContractingWithinBound, compute_Rk, compute_nucleus, moore_diagram
from .schreier import build_schreier, default_generating_set
from .specfile import format_path, format_spec, parse_path, parse_spec, spec_of_automaton

OK, FAIL, INCONCLUSIVE, INPUT_ERROR = 0, 1, 2, 3


class _Exit(Exception):
    def __init__(self, code, report):
        self.code = code
        self.report = report


def _load_spec(args):
    try:
        text = FsPath(args.spec).read_text()
    except OSError as e:
        raise _Exit(INPUT_ERROR, {"error": f"cannot read spec file: {e}"}) from None
    spec = parse_spec(text)
    bounds = spec.bounds()
    env = os.environ.get("SELFSIM_MAX_STATES")
    max_states = args.max_states or (int(env) if env else None) or bounds.max_states
    max_rounds = args.max_rounds or bounds.max_rounds
    aut = spec.automaton(Bounds(max_states=max_states, max_rounds=max_rounds))
    return spec, aut


def _require_valid(aut):
    if aut.violations:
        raise _Exit(INPUT_ERROR, {
            "error": "invalid automaton",
            "violations": [str(v) for v in aut.violations],
        })


def _nucleus(aut):
    nuc = compute_nucleus(aut)
    if isinstance(nuc, NotContractingWithinBound):
        raise _Exit(INCONCLUSIVE, {
            "result": "not-contracting-within-bound",
            "bound_hit": nuc.bound_hit,
            "max_states": nuc.max_states,
            "max_rounds": nuc.max_rounds,
        })
    return nuc


def _digit_limit_error(what):
    return {"error": f"{what} has an integer of more than {sys.get_int_max_str_digits()} "
                     "digits, the limit for decimal conversion"}


def _matrix(text):
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = json.loads(FsPath(text).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise _Exit(INPUT_ERROR, {"error": f"cannot parse matrix {text[:80]!r}: {e}"}) from None
    except ValueError:  # an integer literal past the int/str conversion limit
        raise _Exit(INPUT_ERROR, _digit_limit_error("matrix")) from None
    if not (isinstance(data, list) and all(isinstance(r, list) for r in data)
            and all(type(x) is int for r in data for x in r)):
        raise _Exit(INPUT_ERROR, {"error": "a matrix must be a list of rows of integers"})
    return IntMatrix.of(data)


def _path(aut, literal, kind):
    return parse_path(aut.graph, literal, kind)


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate(args):
    spec, aut = _load_spec(args)
    rep = validate_graph(aut.graph)
    report = {"graph": rep.as_dict(),
              "automaton_violations": [str(v) for v in aut.violations]}
    return (OK if not aut.violations else FAIL), report


def _cmd_act(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    g = aut.element(args.elem)
    p = _path(aut, args.path, "finite")
    img = aut.act(g, p)
    return OK, {"result": format_path(img)}


def _cmd_restrict(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    g = aut.element(args.elem)
    p = _path(aut, args.path, "finite")
    r = aut.restrict(g, p)
    return OK, {"result": aut.canonical(r).name()}


def _cmd_eq(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    g = aut.element(args.left)
    h = aut.element(args.right)
    same = aut.equal(g, h)
    return (OK if same else FAIL), {"equal": same}


def _cmd_nucleus(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    nuc = _nucleus(aut)
    if args.format == "dot":
        return OK, {"dot": moore_diagram(nuc, "dot")}
    report = moore_diagram(nuc, "json")
    report["size"] = len(nuc)
    return OK, report


def _cmd_rk(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    nuc = _nucleus(aut)
    value = compute_Rk(nuc, args.k)
    return OK, {"k": args.k, "R_k": value}


def _cmd_check(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    prop = args.property
    if prop == "contracting":
        nuc = compute_nucleus(aut)
        if isinstance(nuc, NotContractingWithinBound):
            return INCONCLUSIVE, {"result": "not-contracting-within-bound",
                                  "bound_hit": nuc.bound_hit}
        return OK, {"result": "contracting", "nucleus_size": len(nuc)}
    if prop == "level-transitive":
        ok = dynamics.level_transitive(aut, args.level)
        return (OK if ok else FAIL), {"level": args.level, "level_transitive": ok}
    if prop == "recurrent":
        rep = dynamics.check_recurrent(aut, args.depth)
        if rep.recurrent:
            return OK, {"result": "recurrent", "depth": rep.depth}
        return INCONCLUSIVE, {"result": "inconclusive", "depth": rep.depth,
                              "missing": list(rep.missing)[:10]}
    nuc = _nucleus(aut)
    if prop == "regular":
        ok, wit = dynamics.is_regular(nuc, want_witness=True)
        report = {"regular": ok}
        if wit:
            report["witness"] = {"element": wit.element, "fixed_path": str(wit.fixed_path)}
        return (OK if ok else FAIL), report
    if prop == "hausdorff":
        ok, wit = dynamics.is_hausdorff(nuc, want_witness=True)
        report = {"hausdorff": ok}
        if wit:
            report["witness"] = {
                "element": wit.element,
                "fixed_path": str(wit.fixed_path),
                "strongly_fixed_extension": list(wit.strongly_fixed_extension),
            }
        return (OK if ok else FAIL), report
    raise _Exit(INPUT_ERROR, {"error": f"unknown property {prop!r}"})


def _cmd_ae(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    nuc = _nucleus(aut)
    x = _path(aut, args.x, "left")
    y = _path(aut, args.y, "left")
    ok, wit = dynamics.ae_equivalent(x, y, nuc, want_witness=True)
    report = {"equivalent": ok}
    if wit:
        report["witness"] = {"entry_state": wit.entry_state,
                             "tail_run": [list(step) for step in wit.tail_run]}
    return (OK if ok else FAIL), report


def _cmd_class(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    nuc = _nucleus(aut)
    x = _path(aut, args.x, "left")
    members = dynamics.ae_class(x, nuc)
    return OK, {"size": len(members), "members": [str(m) for m in members]}


def _cmd_shift(args):
    _, aut = _load_spec(args)
    x = _path(aut, args.x, "left")
    return OK, {"result": str(dynamics.shift_class(aut.graph, x))}


def _cmd_germ_eq(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    nuc = _nucleus(aut)
    x = _path(aut, args.x, "right")
    y = _path(aut, args.y, "right")
    g1 = dynamics.make_germ(aut, x, args.m1, aut.element(args.elem1), args.n1, y)
    g2 = dynamics.make_germ(aut, x, args.m2, aut.element(args.elem2), args.n2, y)
    ok = dynamics.germ_equal(g1, g2, nuc)
    return (OK if ok else FAIL), {"equal": ok}


def _cmd_stable(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    nuc = _nucleus(aut)
    x = _path(aut, args.x, "bi")
    y = _path(aut, args.y, "bi")
    ok, m = dynamics.stable_equivalent(x, y, nuc, want_witness=True)
    report = {"stable_equivalent": ok}
    if ok:
        report["witness_m"] = m
    return (OK if ok else FAIL), report


def _cmd_unstable(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    nuc = _nucleus(aut)
    x = _path(aut, args.x, "bi")
    y = _path(aut, args.y, "bi")
    ok, wit = dynamics.unstable_equivalent(x, y, nuc, want_witness=True)
    report = {"unstable_equivalent": ok}
    if ok:
        report["witness"] = {"M": wit[0], "element": wit[1].name()}
    return (OK if ok else FAIL), report


def _cmd_schreier(args):
    _, aut = _load_spec(args)
    _require_valid(aut)
    gens = default_generating_set(aut)
    gamma = build_schreier(aut, gens, args.level)
    if args.format == "dot":
        text = gamma.to_dot()
        if args.out:
            FsPath(args.out).write_text(text + "\n")
            return OK, {"written": args.out}
        return OK, {"dot": text}
    return OK, gamma.to_json()


def _cmd_katsura(args):
    a = _matrix(args.A)
    b = _matrix(args.B)
    aut = katsura_automaton(a, b)
    k0, k1 = katsura_ktheory(a, b)
    spec_text = format_spec(spec_of_automaton(aut))
    if args.spec_out:
        FsPath(args.spec_out).write_text(spec_text)
    report = {
        "K0": k0.as_dict(), "K1": k1.as_dict(),
        "K0_pretty": str(k0), "K1_pretty": str(k1),
        "vertices": len(aut.graph.vertices), "edges": len(aut.graph.edges),
    }
    if args.spec_out:
        report["spec_written"] = args.spec_out
    else:
        report["spec"] = spec_text
    return OK, report


def _cmd_snf(args):
    m = _matrix(args.matrix)
    res = smith_normal_form(m)
    return OK, {
        "U": res.U.to_lists(),
        "D": res.D.to_lists(),
        "V": res.V.to_lists(),
        "diagonal": res.diagonal(),
    }


def _cmd_ktheory(args):
    a = _matrix(args.A)
    b = _matrix(args.B)
    k0, k1 = katsura_ktheory(a, b)
    return OK, {"K0": k0.as_dict(), "K1": k1.as_dict(),
                "K0_pretty": str(k0), "K1_pretty": str(k1)}


# -- wiring ---------------------------------------------------------------------


def _build_parser():
    top = argparse.ArgumentParser(prog="selfsim",
                                  description="Self-similar groupoid actions on graphs")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    def spec_command(name, handler, **extra):
        p = sub.add_parser(name)
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable output")
        p.add_argument("--spec", required=True)
        p.add_argument("--max-states", type=int, default=None)
        p.add_argument("--max-rounds", type=int, default=None)
        for key, kw in extra.items():
            p.add_argument(f"--{key.replace('_', '-')}", **kw)
        p.set_defaults(handler=handler)
        return p

    spec_command("validate", _cmd_validate)
    spec_command("act", _cmd_act, elem={"required": True}, path={"required": True})
    spec_command("restrict", _cmd_restrict, elem={"required": True}, path={"required": True})
    spec_command("eq", _cmd_eq, left={"required": True}, right={"required": True})
    spec_command("nucleus", _cmd_nucleus,
                 format={"choices": ["json", "dot"], "default": "json"})
    spec_command("rk", _cmd_rk, k={"type": int, "required": True})
    check = spec_command("check", _cmd_check,
                         depth={"type": int, "default": 6},
                         level={"type": int, "default": 1})
    check.add_argument("property", choices=[
        "regular", "hausdorff", "recurrent", "level-transitive", "contracting"])
    spec_command("ae", _cmd_ae, x={"required": True}, y={"required": True})
    spec_command("class", _cmd_class, x={"required": True})
    spec_command("shift", _cmd_shift, x={"required": True})
    spec_command("germ-eq", _cmd_germ_eq,
                 x={"required": True}, y={"required": True},
                 m1={"type": int, "required": True}, elem1={"required": True},
                 n1={"type": int, "required": True},
                 m2={"type": int, "required": True}, elem2={"required": True},
                 n2={"type": int, "required": True})
    spec_command("stable", _cmd_stable, x={"required": True}, y={"required": True})
    spec_command("unstable", _cmd_unstable, x={"required": True}, y={"required": True})
    spec_command("schreier", _cmd_schreier,
                 level={"type": int, "required": True},
                 format={"choices": ["json", "dot"], "default": "json"},
                 out={"default": None})

    kat = sub.add_parser("katsura")
    kat.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    kat.add_argument("--A", required=True)
    kat.add_argument("--B", required=True)
    kat.add_argument("--spec-out", default=None)
    kat.set_defaults(handler=_cmd_katsura)

    snf = sub.add_parser("snf")
    snf.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    snf.add_argument("--matrix", required=True)
    snf.set_defaults(handler=_cmd_snf)

    kth = sub.add_parser("ktheory")
    kth.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    kth.add_argument("--A", required=True)
    kth.add_argument("--B", required=True)
    kth.set_defaults(handler=_cmd_ktheory)
    return top


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps({"schema": 1, **report}, indent=2)
    return "\n".join(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}"
                     for key, value in report.items())


def dispatch(argv, stdout=None) -> int:
    stream = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return INPUT_ERROR if e.code else OK
    try:
        code, report = args.handler(args)
    except _Exit as e:
        code, report = e.code, e.report
    except ClosureLimitError as e:
        code, report = INCONCLUSIVE, {"result": "inconclusive", "error": str(e)}
    except SelfSimError as e:
        code, report = INPUT_ERROR, {"error": str(e)}
    try:
        text = _render(report, args.json)
    except ValueError:  # str() of an integer past the int/str conversion limit
        code, text = INPUT_ERROR, _render(_digit_limit_error("the result"), args.json)
    print(text, file=stream)
    return code


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
