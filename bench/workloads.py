"""The three benchmark workloads.

Each workload is closed loop with one client: the next operation starts
when the previous one returns.  A workload is a sequence of rounds; every
round has the same make-up (which operations, how many, which deadlines),
and the run seed picks the order and the generated inputs.  A workload
object hands out its rounds in sequence through `next_round()`; it gets the
automata of its `setup_specs`, which the program's timed set-up built.  The pools of
inputs whose answers cannot be checked independently live in
`bench/expected/<workload>.json`, written once by `bench/record.py`.

An operation (`Op`) is a call into selfsim plus how to judge its result:
`answer` turns the result into canonical JSON compared against the recorded
answer under `key`, and `verify` is an independent check.
"""

from __future__ import annotations

import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle

SPECS = ["basilica", "ex310", "katsura", "noncontracting", "nonhausdorff", "odometer"]

# Per-operation wall-clock deadlines, in seconds.  The nucleus and SNF values
# are the ROADMAP targets (5 s and 1 s).
NUCLEUS_DEADLINE = 5.0
SNF_DEADLINE = 1.0
CLI_DEADLINE = 5.0
SCHREIER_DEADLINE = 30.0

# The two ROADMAP failures; they run in every katsura-ladder round.
KATSURA_3X3 = ([[3, 1, 1], [1, 3, 1], [1, 1, 3]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
SNF_LADDER = [8, 9, 16, 32]          # fixed rungs, matrix seed 1 (9 x 9 seed 1 hangs)
SNF_FRESH = [4, 5, 6, 7]             # drawn from the run seed each round
# Katsura systems are chosen by the time their nucleus took when the answers
# were recorded (see README.md): every round runs those that took under half
# the nucleus deadline, and the first recorded system of each size in
# HUNG_SIZES that hit the deadline.
KEPT_NUCLEUS_MS = NUCLEUS_DEADLINE * 1e3 / 2
HUNG_SIZES = (2, 3)

# query-mix: the CLI subcommands, weighted uniformly (there is no usage log,
# so the weighting is a guess).  act, restrict and snf get fresh inputs from
# the run seed; the others draw from the recorded pool.
SUBCOMMANDS = ["validate", "act", "restrict", "eq", "nucleus", "rk", "check", "ae",
               "class", "shift", "germ-eq", "stable", "unstable", "schreier",
               "katsura", "snf", "ktheory"]

# schreier-tower: spec -> top level of the tower.
TOWER = {"basilica": 13, "ex310": 12, "odometer": 12}
TOWER_EXPORT_LEVELS = 2              # JSON and DOT export of the top levels
# level_transitive levels and distance profiles add operations of 5-40 ms,
# so that the latency median falls where operation costs lie close together
TOWER_TRANSITIVE_LEVELS = (7, 8, 9)
TOWER_PROFILE_LEVEL = 8
TOWER_PROFILES = 8                   # distance profiles per spec and round


@dataclass
class Op:
    kind: str
    fn: Callable[[], Any]
    deadline: float
    key: str | None = None                        # recorded-answer key
    answer: Callable[[Any], str] | None = None    # result -> canonical JSON
    verify: Callable[[Any], bool] | None = None   # independent check
    decided: Callable[[Any], bool] = lambda _: True


def snf_matrix(n: int, seed: int) -> list[list[int]]:
    """Entries in [-3, 3], row by row from random.Random(seed)."""
    rng = random.Random(seed)
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


def load_expected(root: Path, workload: str) -> dict:
    return json.loads((root / "bench" / "expected" / f"{workload}.json").read_text())


# -- query-mix ---------------------------------------------------------------------


def _cli_answer(result) -> str:
    code, text = result
    doc = json.loads(text)
    if doc.get("kind") == "nucleus-moore-diagram":
        doc = _nucleus_listing(doc)
    elif "dot" in doc and doc["dot"].startswith("digraph nucleus"):
        doc["dot"] = _nucleus_dot(doc["dot"])
    return oracle.canonical({"code": code, "doc": doc})


# The order in which `nucleus` lists states of equal word length (the units of
# ex310 and katsura) depends on PYTHONHASHSEED, so nucleus listings are
# compared up to that order: states by name, transitions by state names.

def _nucleus_listing(doc: dict) -> dict:
    names = {s["id"]: s["name"] for s in doc["states"]}
    doc["states"] = sorted(({k: v for k, v in s.items() if k != "id"} for s in doc["states"]),
                           key=lambda s: s["name"])
    doc["transitions"] = sorted([names[t["state"]], t["edge"], t["image"], names[t["successor"]]]
                                for t in doc["transitions"])
    return doc


def _nucleus_dot(text: str) -> list[str]:
    labels = dict(re.findall(r'^  (n\d+) \[label="([^"]*)"', text, re.M))
    return sorted(re.sub(r"\bn\d+\b", lambda m: labels[m.group(0)], line)
                  for line in text.splitlines())


def _cli_decided(result) -> bool:
    return result[0] in (0, 1)


class QueryMix:
    """Many short, cold CLI calls: every call re-reads its spec and rebuilds
    the automaton, so set-up, parsing and the dynamics deciders dominate."""

    name = "query-mix"
    setup_specs = SPECS
    trace_rounds = 20

    def __init__(self, sim, auts: dict, root: Path, seed: int, expected: dict):
        self.sim = sim
        self.root = root
        self.specs = {s: oracle.Spec.load(root / "specs" / f"{s}.ss") for s in SPECS}
        self.pool: dict[str, list[list[str]]] = {}
        for argv in expected["pool"]:
            self.pool.setdefault(argv[0], []).append(argv)
        self.rng = random.Random(seed)
        self.rounds = [self._round() for _ in range(400)]
        self.done = 0

    def _round(self) -> list[Op]:
        order = list(SUBCOMMANDS)
        self.rng.shuffle(order)
        return [self._op(cmd) for cmd in order]

    def _dispatch(self, argv):
        def call():
            buf = io.StringIO()
            code = self.sim.cli.dispatch(["--json", *argv], stdout=buf)
            return code, buf.getvalue()
        return call

    def _argv(self, argv: list[str]) -> list[str]:
        """Spec paths in the pool are relative to the repository root."""
        return [str(self.root / a) if a.startswith("specs/") else a for a in argv]

    def _op(self, cmd: str) -> Op:
        rng = self.rng
        if cmd in ("act", "restrict"):
            name = rng.choice(SPECS)
            spec = self.specs[name]
            word, dom = oracle.random_word(spec, rng, rng.randint(1, 3))
            path = oracle.random_path(spec, rng, dom, rng.randint(1, 6))
            argv = [cmd, "--spec", str(self.root / "specs" / f"{name}.ss"),
                    "--elem", " ".join(word), "--path", ".".join(path)]
            image, restriction = spec.act(word, path)
            if cmd == "act":
                def verify(result, image=image):
                    return result[0] == 0 and json.loads(result[1])["result"] == ".".join(image)
            else:
                def verify(result, spec=spec, restriction=restriction, dom=spec.src[path[-1]]):
                    if result[0] != 0:
                        return False
                    got = [t for t in json.loads(result[1])["result"].split()
                           if t not in spec.vertices]
                    return spec.same_action(got, restriction, dom, 3)
            return Op(f"cli.{cmd}", self._dispatch(argv), CLI_DEADLINE, verify=verify,
                      decided=_cli_decided)
        if cmd == "snf":
            n = rng.choice([2, 3])
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]

            def verify(result, m=m):
                doc = json.loads(result[1])
                return result[0] == 0 and oracle.check_snf(m, doc["U"], doc["D"], doc["V"])
            return Op("cli.snf", self._dispatch(["snf", "--matrix", json.dumps(m)]),
                      CLI_DEADLINE, verify=verify, decided=_cli_decided)
        return self.pool_op(rng.choice(self.pool[cmd]))

    def pool_op(self, argv: list[str]) -> Op:
        return Op(f"cli.{argv[0]}", self._dispatch(self._argv(argv)), CLI_DEADLINE,
                  key=" ".join(argv), answer=_cli_answer, verify=_nucleus_size_check(argv),
                  decided=_cli_decided)

    def next_round(self) -> list[Op]:
        self.done += 1
        return self.rounds[(self.done - 1) % len(self.rounds)]


def _nucleus_size_check(argv):
    """Hand-written nucleus sizes for `nucleus` and `check contracting`."""
    spec = next((a[len("specs/"):-len(".ss")] for a in argv if a.startswith("specs/")), None)
    if argv[0] == "nucleus" and "json" in argv:
        field = "size"
    elif argv[:2] == ["check", "contracting"]:
        field = "nucleus_size"
    else:
        return None
    want = oracle.NUCLEUS_SIZES[spec]

    def verify(result):
        code, text = result
        if want is None:
            return code == 2
        return code == 0 and json.loads(text)[field] == want
    return verify


# -- schreier-tower ------------------------------------------------------------------


def gamma_answer(gamma) -> str:
    arcs = ";".join(f"{u},{v},{a.name()}" for u, v, a in gamma.arcs)
    return oracle.canonical({"level": gamma.level, "vertices": len(gamma.vertices),
                             "arcs": oracle.digest(arcs)})


def psi_answer(result) -> str:
    lower, morphism = result
    vmap = ",".join(str(morphism.vertex_map[i]) for i in sorted(morphism.vertex_map))
    return oracle.canonical({"lower": gamma_answer(lower), "vertex_map": oracle.digest(vmap)})


class SchreierTower:
    """One long-lived automaton per spec and a tower of Schreier graphs on
    it: warm caches and a large working set, with per-vertex cost and memory
    dominating and neither nucleus iteration nor SNF running."""

    name = "schreier-tower"
    setup_specs = list(TOWER)
    trace_rounds = 1

    def __init__(self, sim, auts: dict, root: Path, seed: int, expected: dict):
        self.sim = sim
        self.specs = {s: oracle.Spec.load(root / "specs" / f"{s}.ss") for s in TOWER}
        self.auts = auts
        self.gens = {s: sim.schreier.default_generating_set(auts[s]) for s in TOWER}
        self.rng = random.Random(seed)
        self.profile_pairs = expected["pool"]

    def _arc_check(self, name: str):
        """Spot-check arcs with the independent interpreter."""
        spec = self.specs[name]
        rng = random.Random(self.rng.random())

        def verify(gamma):
            for _ in range(min(16, len(gamma.arcs))):
                u, v, label = rng.choice(gamma.arcs)
                mu = list(gamma.vertices[u].edges)
                nu = list(gamma.vertices[v].edges)
                word = [t for t in label.name().split() if t not in spec.vertices]
                if spec.act(word, mu)[0] != nu:
                    return False
            want = sum(len(spec.range_edges(x)) for x in spec.vertices)
            return gamma.level != 1 or len(gamma.vertices) == want
        return verify

    def next_round(self) -> list[Op]:
        sim = self.sim
        order = list(TOWER)
        self.rng.shuffle(order)
        ops = []
        for name in order:
            aut, gens, top = self.auts[name], self.gens[name], TOWER[name]
            for n in range(1, top + 1):
                # the level's last operation drops its graph, as the
                # program keeps no level once it has been used
                held = {}
                exported = n > top - TOWER_EXPORT_LEVELS

                def build(aut=aut, gens=gens, n=n, held=held):
                    held["gamma"] = sim.schreier.build_schreier(aut, gens, n)
                    return held["gamma"]

                def psi(held=held, last=not exported):
                    return sim.schreier.project_psi(held.pop("gamma") if last else held["gamma"])
                ops.append(Op("schreier.build", build, SCHREIER_DEADLINE,
                              key=f"{name}/build/{n}", answer=gamma_answer,
                              verify=self._arc_check(name)))
                ops.append(Op("schreier.psi", psi, SCHREIER_DEADLINE,
                              key=f"{name}/psi/{n}", answer=psi_answer))
                if exported:
                    ops.append(Op("schreier.json", lambda held=held: held["gamma"].to_json(),
                                  SCHREIER_DEADLINE, key=f"{name}/json/{n}",
                                  answer=lambda doc: oracle.digest(oracle.canonical(doc))))
                    ops.append(Op("schreier.dot", lambda held=held: held.pop("gamma").to_dot(),
                                  SCHREIER_DEADLINE, key=f"{name}/dot/{n}",
                                  answer=oracle.digest))
            ops += [Op("schreier.level_transitive",
                       lambda aut=aut, gens=gens, n=n: sim.dynamics.level_transitive(aut, n, gens),
                       SCHREIER_DEADLINE, key=f"{name}/level_transitive/{n}",
                       answer=oracle.canonical) for n in TOWER_TRANSITIVE_LEVELS]
            pairs = [p for p in self.profile_pairs if p[0] == name]
            ops += [self.profile_op(*p) for p in self.rng.sample(pairs, TOWER_PROFILES)]
        return ops

    def profile_op(self, name: str, x: str, y: str) -> Op:
        sim, aut, gens = self.sim, self.auts[name], self.gens[name]

        def profile():
            px = sim.specfile.parse_path(aut.graph, x, "left")
            py = sim.specfile.parse_path(aut.graph, y, "left")
            return sim.schreier.distance_profile(aut, px, py, TOWER_PROFILE_LEVEL, gen_set=gens)
        return Op("schreier.distance_profile", profile, SCHREIER_DEADLINE,
                  key=f"{name}/profile/{x}/{y}", answer=oracle.canonical)


# -- katsura-ladder --------------------------------------------------------------------


def automaton_answer(aut) -> str:
    return oracle.canonical({
        g: {e: [img, r.name()] for e, (img, r) in sorted(rule.rules.items())}
        for g, rule in aut.generators.items()})


def ktheory_answer(result) -> str:
    k0, k1 = result
    return oracle.canonical({"K0": k0.as_dict(), "K1": k1.as_dict()})


def nucleus_answer(nuc) -> str:
    if hasattr(nuc, "bound_hit"):
        return oracle.canonical({"inconclusive": nuc.bound_hit})
    return oracle.canonical({"size": len(nuc), "states": sorted(nuc.state_names())})


def system_key(a, b) -> str:
    return oracle.canonical({"A": a, "B": b})


class KatsuraLadder:
    """The heavy-tailed end: Katsura systems (automaton, K-theory, nucleus)
    and Smith normal forms up to 32 x 32, each under a deadline, with the
    two ROADMAP failures in every round."""

    name = "katsura-ladder"
    setup_specs: list[str] = []
    trace_rounds = 1

    def __init__(self, sim, auts: dict, root: Path, seed: int, expected: dict):
        self.sim = sim
        pool = expected["pool"]
        self.systems = [(e["A"], e["B"]) for e in pool
                        if e["nucleus_ms"] is not None and e["nucleus_ms"] < KEPT_NUCLEUS_MS]
        hung = [e for e in pool if e["nucleus_ms"] is None]
        for n in HUNG_SIZES:
            self.systems += [(e["A"], e["B"]) for e in hung if len(e["A"]) == n][:1]
        self.ladder = {n: snf_matrix(n, 1) for n in SNF_LADDER}
        self.rng = random.Random(seed)

    def system_ops(self, a, b) -> list[Op]:
        sim = self.sim
        key = system_key(a, b)
        held = {}

        def build():
            held["aut"] = sim.ktheory.katsura_automaton(
                sim.ktheory.IntMatrix.of(a), sim.ktheory.IntMatrix.of(b))
            return held["aut"]
        return [
            Op("katsura.automaton", build, SNF_DEADLINE, key=key + "/automaton",
               answer=automaton_answer),
            Op("katsura.ktheory", lambda: sim.ktheory.katsura_ktheory(
                sim.ktheory.IntMatrix.of(a), sim.ktheory.IntMatrix.of(b)),
               SNF_DEADLINE, key=key + "/ktheory", answer=ktheory_answer),
            Op("katsura.nucleus", lambda: sim.nucleus.compute_nucleus(held["aut"]),
               NUCLEUS_DEADLINE, key=key + "/nucleus", answer=nucleus_answer,
               decided=lambda nuc: not hasattr(nuc, "bound_hit")),
        ]

    def _snf(self, m) -> Op:
        sim = self.sim

        def verify(res, m=m):
            return oracle.check_snf(m, res.U.to_lists(), res.D.to_lists(), res.V.to_lists())
        return Op(f"snf.n{len(m)}", lambda: sim.ktheory.smith_normal_form(
            sim.ktheory.IntMatrix.of(m)), SNF_DEADLINE, verify=verify)

    def next_round(self) -> list[Op]:
        rng = self.rng
        groups = [self.system_ops(*KATSURA_3X3)]
        groups += [self.system_ops(a, b) for a, b in self.systems]
        groups += [[self._snf(m)] for m in self.ladder.values()]
        for n in SNF_FRESH:
            for _ in range(2):
                groups.append([self._snf([[rng.randint(-3, 3) for _ in range(n)]
                                          for _ in range(n)])])
        rng.shuffle(groups)
        return [op for g in groups for op in g]


WORKLOADS = {w.name: w for w in (QueryMix, SchreierTower, KatsuraLadder)}
