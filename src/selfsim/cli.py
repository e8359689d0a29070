"""Command-line surface: spec files in, reports out.

Every subcommand is one row of ``COMMANDS``: what its handler needs (nothing
but matrices, a spec, a valid automaton, or a nucleus), the handler, and its
flags.  The parser tree of all commands is built once, on the first call of
``dispatch``, and reused.  The preamble the "needs" column asks for runs in a
fixed order: read the spec, check validity, compute the nucleus, then call
the handler.

Exit codes: 0 = property holds / computation done, 1 = property fails
(also when a command needs a nucleus and a certificate proves none exists),
2 = inconclusive (a semi-decision hit its bounds, or a computation ran out
of memory), 3 = input error, or a report too large to render in memory
(``--out`` streams it instead); ``main`` exits 141 when standard output is
closed before the report is written.
``--json`` switches every report to a machine-readable document with
``"schema": 1``; ``SELFSIM_MAX_STATES`` overrides the spec's state budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from pathlib import Path as FsPath

from . import dynamics
from .automaton import Bounds
from .errors import ClosureLimitError, NotContractingError, SelfSimError
from .graphs import validate_graph
from .ktheory import IntMatrix, katsura_automaton, katsura_ktheory, smith_normal_form
from .nucleus import NotContractingWithinBound, compute_Rk, compute_nucleus, moore_diagram
from .schreier import build_schreier, default_generating_set
from .specfile import format_spec, parse_path, parse_spec, spec_of_automaton

OK, FAIL, INCONCLUSIVE, INPUT_ERROR = 0, 1, 2, 3
# What a handler needs; each level includes the ones before it.
MATRICES, SPEC, VALID, NUCLEUS = range(4)


class _Exit(Exception):
    def __init__(self, code, report):
        self.code = code
        self.report = report


def _at_least(low):
    """An argparse ``type`` for integers >= low; non-integers fail as under ``type=int``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _load_spec(args):
    try:
        text = FsPath(args.spec).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise _Exit(INPUT_ERROR, {"error": f"cannot read spec file: {e}"}) from None
    spec = parse_spec(text)
    bounds = spec.bounds()
    max_states = args.max_states
    env = os.environ.get("SELFSIM_MAX_STATES")
    if max_states is None and env:
        try:
            max_states = _at_least(1)(env)
        except argparse.ArgumentTypeError as e:
            raise _Exit(INPUT_ERROR, {"error": f"SELFSIM_MAX_STATES: {e}"}) from None
    return spec.automaton(Bounds(max_states=max_states or bounds.max_states,
                                 max_rounds=args.max_rounds or bounds.max_rounds))


def _nucleus(aut):
    nuc = compute_nucleus(aut)
    if isinstance(nuc, NotContractingWithinBound):
        raise _Exit(INCONCLUSIVE, {"result": "not-contracting-within-bound",
                                   "bound_hit": nuc.bound_hit, "max_states": nuc.max_states,
                                   "max_rounds": nuc.max_rounds})
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


def _write(path, chunks):
    """Write the strings ``chunks`` to the file ``path``, one after another."""
    try:
        with open(path, "w") as f:
            f.writelines(chunks)
    except OSError as e:
        raise _Exit(INPUT_ERROR, {"error": f"cannot write {path!r}: {e}"}) from None


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate(args, aut):
    return (FAIL if aut.violations else OK), {
        "graph": validate_graph(aut.graph).as_dict(),
        "automaton_violations": [str(v) for v in aut.violations]}


def _cmd_act(args, aut):
    img = aut.act(aut.element(args.elem), parse_path(aut.graph, args.path, "finite"))
    return OK, {"result": str(img)}


def _cmd_restrict(args, aut):
    r = aut.restrict(aut.element(args.elem), parse_path(aut.graph, args.path, "finite"))
    return OK, {"result": r.name()}


def _cmd_eq(args, aut):
    same = aut.equal(aut.element(args.left), aut.element(args.right))
    return (OK if same else FAIL), {"equal": same}


def _cmd_nucleus(args, aut, nuc):
    if args.format == "dot":
        return OK, {"dot": moore_diagram(nuc, "dot")}
    report = moore_diagram(nuc, "json")
    report["size"] = len(nuc)
    return OK, report


def _cmd_rk(args, aut, nuc):
    return OK, {"k": args.k, "R_k": compute_Rk(nuc, args.k)}


def _cmd_check(args, aut):
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
        ok, wit = dynamics.is_regular(nuc)
        report = {"regular": ok}
        if wit:
            report["witness"] = {"element": wit.element, "fixed_path": str(wit.fixed_path)}
        return (OK if ok else FAIL), report
    ok, wit = dynamics.is_hausdorff(nuc)
    report = {"hausdorff": ok}
    if wit:
        report["witness"] = {"element": wit.element, "fixed_path": str(wit.fixed_path),
                             "strongly_fixed_extension": list(wit.strongly_fixed_extension)}
    return (OK if ok else FAIL), report


def _cmd_ae(args, aut, nuc):
    x = parse_path(aut.graph, args.x, "left")
    ok, wit = dynamics.ae_equivalent(x, parse_path(aut.graph, args.y, "left"), nuc)
    report = {"equivalent": ok}
    if wit:
        report["witness"] = {"entry_state": wit.entry_state,
                             "tail_run": [list(step) for step in wit.tail_run]}
    return (OK if ok else FAIL), report


def _cmd_class(args, aut, nuc):
    members = dynamics.ae_class(parse_path(aut.graph, args.x, "left"), nuc)
    return OK, {"size": len(members), "members": [str(m) for m in members]}


def _cmd_shift(args, aut):
    x = parse_path(aut.graph, args.x, "left")
    return OK, {"result": str(x.shift(aut.graph))}


def _cmd_germ_eq(args, aut, nuc):
    x = parse_path(aut.graph, args.x, "right")
    y = parse_path(aut.graph, args.y, "right")
    g1 = dynamics.make_germ(aut, x, args.m1, aut.element(args.elem1), args.n1, y)
    g2 = dynamics.make_germ(aut, x, args.m2, aut.element(args.elem2), args.n2, y)
    ok = dynamics.germ_equal(g1, g2, nuc)
    return (OK if ok else FAIL), {"equal": ok}


def _cmd_stable(args, aut, nuc):
    x = parse_path(aut.graph, args.x, "bi")
    ok, m = dynamics.stable_equivalent(x, parse_path(aut.graph, args.y, "bi"), nuc)
    report = {"stable_equivalent": ok}
    if ok:
        report["witness_m"] = m
    return (OK if ok else FAIL), report


def _cmd_unstable(args, aut, nuc):
    x = parse_path(aut.graph, args.x, "bi")
    ok, wit = dynamics.unstable_equivalent(x, parse_path(aut.graph, args.y, "bi"), nuc)
    report = {"unstable_equivalent": ok}
    if ok:
        report["witness"] = {"M": wit[0], "element": wit[1].name()}
    return (OK if ok else FAIL), report


def _cmd_schreier(args, aut):
    gamma = build_schreier(aut, default_generating_set(aut), args.level)
    if args.format == "json":
        report = gamma.to_json()
        chunks = json.JSONEncoder(indent=2).iterencode(report)  # json.dumps(report, indent=2)
    else:
        report = {"dot": gamma.to_dot()}
        chunks = [report["dot"]]
    if args.out:
        _write(args.out, chain(chunks, ["\n"]))
        return OK, {"written": args.out}
    return OK, report


def _cmd_katsura(args):
    a = _matrix(args.A)
    b = _matrix(args.B)
    aut = katsura_automaton(a, b)
    k0, k1 = katsura_ktheory(a, b)
    spec_text = format_spec(spec_of_automaton(aut))
    report = {"K0": k0.as_dict(), "K1": k1.as_dict(), "K0_pretty": str(k0), "K1_pretty": str(k1),
              "vertices": len(aut.graph.vertices), "edges": len(aut.graph.edges)}
    if args.spec_out:
        _write(args.spec_out, [spec_text])
        report["spec_written"] = args.spec_out
    else:
        report["spec"] = spec_text
    return OK, report


def _cmd_snf(args):
    res = smith_normal_form(_matrix(args.matrix))
    return OK, {"U": res.U.to_lists(), "D": res.D.to_lists(), "V": res.V.to_lists(),
                "diagonal": res.diagonal()}


def _cmd_ktheory(args):
    k0, k1 = katsura_ktheory(_matrix(args.A), _matrix(args.B))
    return OK, {"K0": k0.as_dict(), "K1": k1.as_dict(),
                "K0_pretty": str(k0), "K1_pretty": str(k1)}


# -- the command table ------------------------------------------------------------

_REQUIRED = {"required": True}
_JSON = {"action": "store_true", "default": argparse.SUPPRESS}
_FORMAT = {"choices": ["json", "dot"], "default": "json"}
_XY = {"--x": _REQUIRED, "--y": _REQUIRED}
_OFFSET = {"type": _at_least(0), "required": True}
# The flags every command with a spec takes, ahead of its own.
_SPEC_FLAGS = {"--json": {**_JSON, "help": "machine-readable output"}, "--spec": _REQUIRED,
               "--max-states": {"type": _at_least(1)}, "--max-rounds": {"type": _at_least(1)}}

# name: (needs, handler, flags); flags map an option string or a positional
# name to its ``add_argument`` keywords, in the order of the usage line.
COMMANDS = {
    "validate": (SPEC, _cmd_validate, {}),
    "act": (VALID, _cmd_act, {"--elem": _REQUIRED, "--path": _REQUIRED}),
    "restrict": (VALID, _cmd_restrict, {"--elem": _REQUIRED, "--path": _REQUIRED}),
    "eq": (VALID, _cmd_eq, {"--left": _REQUIRED, "--right": _REQUIRED}),
    "nucleus": (NUCLEUS, _cmd_nucleus, {"--format": _FORMAT}),
    "rk": (NUCLEUS, _cmd_rk, {"--k": {"type": _at_least(1), "required": True}}),
    "check": (VALID, _cmd_check, {
        "--depth": {"type": _at_least(0), "default": 6},
        "--level": {"type": _at_least(1), "default": 1},
        "property": {"choices": ["regular", "hausdorff", "recurrent", "level-transitive",
                                 "contracting"]}}),
    "ae": (NUCLEUS, _cmd_ae, _XY),
    "class": (NUCLEUS, _cmd_class, {"--x": _REQUIRED}),
    "shift": (SPEC, _cmd_shift, {"--x": _REQUIRED}),
    "germ-eq": (NUCLEUS, _cmd_germ_eq, {
        **_XY, "--m1": _OFFSET, "--elem1": _REQUIRED, "--n1": _OFFSET,
        "--m2": _OFFSET, "--elem2": _REQUIRED, "--n2": _OFFSET}),
    "stable": (NUCLEUS, _cmd_stable, _XY),
    "unstable": (NUCLEUS, _cmd_unstable, _XY),
    "schreier": (VALID, _cmd_schreier, {
        "--level": {"type": _at_least(0), "required": True}, "--format": _FORMAT, "--out": {}}),
    "katsura": (MATRICES, _cmd_katsura, {"--json": _JSON, "--A": _REQUIRED, "--B": _REQUIRED,
                                         "--spec-out": {}}),
    "snf": (MATRICES, _cmd_snf, {"--json": _JSON, "--matrix": _REQUIRED}),
    "ktheory": (MATRICES, _cmd_ktheory, {"--json": _JSON, "--A": _REQUIRED, "--B": _REQUIRED}),
}


@functools.cache
def _parser():
    """The top parser with every command's parser, built on first use."""
    top = argparse.ArgumentParser(prog="selfsim",
                                  description="Self-similar groupoid actions on graphs")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (needs, _, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kw in ({**_SPEC_FLAGS, **flags} if needs else flags).items():
            p.add_argument(flag, **kw)
    return top


def _run(args):
    needs, handler, _ = COMMANDS[args.command]
    if needs == MATRICES:
        return handler(args)
    aut = _load_spec(args)
    if needs >= VALID and aut.violations:
        raise _Exit(INPUT_ERROR, {"error": "invalid automaton",
                                  "violations": [str(v) for v in aut.violations]})
    return handler(args, aut, _nucleus(aut)) if needs == NUCLEUS else handler(args, aut)


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps({"schema": 1, **report}, indent=2)
    return "\n".join(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}"
                     for key, value in report.items())


def dispatch(argv, stdout=None) -> int:
    stream = stdout if stdout is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return INPUT_ERROR if e.code else OK
    try:
        code, report = _run(args)
    except _Exit as e:
        code, report = e.code, e.report
    except ClosureLimitError as e:
        code, report = INCONCLUSIVE, {"result": "inconclusive", "error": str(e)}
    except MemoryError:  # a resource bound, as the budgets are
        code, report = INCONCLUSIVE, {"result": "inconclusive", "error": "out of memory"}
    except NotContractingError as e:  # every command that computes a nucleus
        code, report = FAIL, e.certificate.as_dict()
    except SelfSimError as e:
        code, report = INPUT_ERROR, {"error": str(e)}
    try:
        text = _render(report, args.json)
    except ValueError:  # str() of an integer past the int/str conversion limit
        code, text = INPUT_ERROR, _render(_digit_limit_error("the result"), args.json)
    except MemoryError:
        report = None  # free the report before rendering the error
        code, text = INPUT_ERROR, _render(
            {"error": "the report does not fit in memory; write it to a file with --out"},
            args.json)
    print(text, file=stream)
    return code


def main() -> int:
    try:
        return dispatch(sys.argv[1:])
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed


if __name__ == "__main__":
    sys.exit(main())
