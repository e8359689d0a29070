"""Record the input pools and expected answers of the benchmark.

    python3 bench/record.py [--workload NAME]

Run once, at the commit whose answers are taken as correct; it rewrites
bench/expected/<workload>.json.  The pools are drawn from POOL_SEED, so a
second recording at the same commit gives the same file apart from the
recorded timings.  Each answer is stored as the SHA-256 of its canonical
JSON (and the JSON itself when short).  An operation that hits its deadline
while recording gets no answer; at run time any typed result for it counts
as correct.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from time import perf_counter

import oracle
import run
import workloads

POOL_SEED = 2302


# -- pool generators ----------------------------------------------------------------------


def _cycle(spec: oracle.Spec, rng, start: str, max_len: int):
    """A closed path through `start`: r(first) = start = s(last)."""
    for _ in range(40):
        walk, cur = [], start
        for _ in range(max_len):
            e = rng.choice(spec.range_edges(cur))
            walk.append(e)
            cur = spec.src[e]
            if cur == start:
                return walk
    return None


def left_literal(spec: oracle.Spec, rng) -> str:
    """A random eventually periodic left-infinite path: (cycle)^inf . tail."""
    while True:
        start = rng.choice(spec.vertices)
        cyc = _cycle(spec, rng, start, rng.randint(1, 4))
        if cyc is not None:
            break
    tail = oracle.random_path(spec, rng, spec.src[cyc[-1]], rng.randint(0, 3))
    lit = f"({'.'.join(cyc)})^inf"
    return lit + (" . " + ".".join(tail) if tail else "")


def bi_literal(spec: oracle.Spec, rng) -> str:
    """A random bi-infinite path: (rho)^inf . mid . (pi)^inf @ anchor."""
    while True:
        rho = _cycle(spec, rng, rng.choice(spec.vertices), rng.randint(1, 3))
        if rho is None:
            continue
        mid = oracle.random_path(spec, rng, spec.src[rho[-1]], rng.randint(0, 2))
        pi = _cycle(spec, rng, spec.src[mid[-1]] if mid else spec.src[rho[-1]], rng.randint(1, 3))
        if pi is None:
            continue
        parts = [f"({'.'.join(rho)})^inf"] + ([".".join(mid)] if mid else []) + \
            [f"({'.'.join(pi)})^inf"]
        return " . ".join(parts) + f" @ {rng.randint(-2, 2)}"


def katsura_system(rng, n: int):
    """A in [0, 3] with no zero row; B in [0, 2] where A > 0, else 0."""
    while True:
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in a):
            break
    b = [[rng.randint(0, 2) if a[i][j] else 0 for j in range(n)] for i in range(n)]
    return a, b


# Cases from demos/ and tests/ whose answers are known by hand.
EX310 = "specs/ex310.ss"
HAND_CASES = [
    ["ae", "--spec", EX310, "--x", "(2.3)^inf", "--y", "(4.2)^inf"],
    ["ae", "--spec", EX310, "--x", "(1)^inf", "--y", "(2.3)^inf"],
    ["class", "--spec", EX310, "--x", "(1)^inf"],
    ["class", "--spec", EX310, "--x", "(2.3)^inf"],
    ["shift", "--spec", EX310, "--x", "(2.3)^inf"],
    ["eq", "--spec", EX310, "--left", "a^-1", "--right", "b"],
    ["eq", "--spec", EX310, "--left", "a a^-1", "--right", "w"],
    ["germ-eq", "--spec", EX310, "--x", "4 . (1)^inf", "--y", "(1)^inf",
     "--m1", "0", "--elem1", "a", "--n1", "0", "--m2", "1", "--elem2", "v", "--n2", "1"],
    ["germ-eq", "--spec", EX310, "--x", "(1)^inf", "--y", "(1)^inf",
     "--m1", "2", "--elem1", "v", "--n1", "2", "--m2", "5", "--elem2", "v", "--n2", "5"],
    ["germ-eq", "--spec", EX310, "--x", "(1)^inf", "--y", "(1)^inf",
     "--m1", "2", "--elem1", "v", "--n1", "2", "--m2", "3", "--elem2", "v", "--n2", "2"],
    ["germ-eq", "--spec", EX310, "--x", "2 . 4 . (1)^inf", "--y", "4 . (1)^inf",
     "--m1", "0", "--elem1", "b", "--n1", "0", "--m2", "2", "--elem2", "v", "--n2", "2"],
    ["germ-eq", "--spec", EX310, "--x", "2 . 4 . (1)^inf", "--y", "4 . (1)^inf",
     "--m1", "0", "--elem1", "b", "--n1", "0", "--m2", "1", "--elem2", "a", "--n2", "1"],
] + [[cmd, "--spec", EX310, "--x", x, "--y", y] for cmd in ("stable", "unstable") for x, y in [
    ("(2.3)^inf . 1 . (1)^inf @ 0", "(3.2)^inf . 4 . (1)^inf @ 1"),
    ("(2.3)^inf . 1 . (1)^inf @ 0", "(1)^inf . (1)^inf @ 0"),
    ("(1)^inf . (1)^inf @ 0", "(2.3)^inf . (2.3)^inf @ 0"),
]]


def query_pool(rng) -> list[list[str]]:
    pool = [list(c) for c in HAND_CASES]
    for name in workloads.SPECS:
        spec = oracle.Spec.load(run.ROOT / "specs" / f"{name}.ss")
        f = f"specs/{name}.ss"
        pool.append(["validate", "--spec", f])
        pool += [["nucleus", "--spec", f, "--format", fmt] for fmt in ("json", "dot")]
        pool += [["rk", "--spec", f, "--k", str(k)] for k in (1, 2, 3)]
        pool += [["check", p, "--spec", f] for p in ("regular", "hausdorff", "contracting")]
        pool.append(["check", "recurrent", "--spec", f, "--depth", "4"])
        pool += [["check", "level-transitive", "--spec", f, "--level", str(n)] for n in (2, 4)]
        pool += [["schreier", "--spec", f, "--level", str(n), "--format", fmt]
                 for n in range(1, 6) for fmt in ("json", "dot")]
        for _ in range(4):
            left, dom = oracle.random_word(spec, rng, rng.randint(1, 3))
            cod = spec.ends(left[0])[1]
            if rng.random() < 0.5:
                s = rng.choice([s for s in spec.symbols() if spec.ends(s)[0] == dom])
                right = left + [oracle.inverse_word([s])[0], s]      # equal by construction
            else:
                while True:
                    right, d2 = oracle.random_word(spec, rng, rng.randint(1, 3))
                    if (d2, spec.ends(right[0])[1]) == (dom, cod):
                        break
            pool.append(["eq", "--spec", f, "--left", " ".join(left), "--right", " ".join(right)])
        for _ in range(3):
            pool.append(["ae", "--spec", f, "--x", left_literal(spec, rng),
                         "--y", left_literal(spec, rng)])
            pool.append(["class", "--spec", f, "--x", left_literal(spec, rng)])
            pool.append(["shift", "--spec", f, "--x", left_literal(spec, rng)])
        for cmd in ("stable", "unstable"):
            for _ in range(2):
                pool.append([cmd, "--spec", f, "--x", bi_literal(spec, rng),
                             "--y", bi_literal(spec, rng)])
    systems = [([[2, 1], [2, 2]], [[1, 0], [1, 1]]), ([[2]], [[1]])]
    systems += [katsura_system(rng, n) for n in (2, 3) for _ in range(6)]
    for a, b in systems:
        for cmd in ("katsura", "ktheory"):
            pool.append([cmd, "--A", json.dumps(a), "--B", json.dumps(b)])
    return pool


def katsura_pool(rng) -> list[dict]:
    seen, pool = set(), []
    for n, count in ((1, 9), (2, 80), (3, 200)):
        while sum(1 for e in pool if len(e["A"]) == n) < count:
            a, b = katsura_system(rng, n)
            if workloads.system_key(a, b) not in seen:
                seen.add(workloads.system_key(a, b))
                pool.append({"A": a, "B": b, "nucleus_ms": None})
    return pool


def tower_pool(rng) -> list[list[str]]:
    pool = [["ex310", "(2.3)^inf", "(4.2)^inf"], ["ex310", "(2.3)^inf", "(1)^inf"]]
    for name in workloads.TOWER:
        spec = oracle.Spec.load(run.ROOT / "specs" / f"{name}.ss")
        for _ in range(8):
            pool.append([name, left_literal(spec, rng), left_literal(spec, rng)])
    return pool


# -- recording -----------------------------------------------------------------------------


def record_ops(ops, sim, answers: dict, deadline) -> dict:
    """Run each op and store its answer under its key; returns key -> (ms,
    result), with (None, None) for a deadline hit."""
    timings = {}
    for op in ops:
        t0 = perf_counter()
        result, error, hit = deadline.run(op.fn, op.deadline)
        ms = (perf_counter() - t0) * 1e3
        if hit:
            answers[op.key] = None
            timings[op.key] = (None, None)
            continue
        if error is not None:
            if not isinstance(error, sim.errors.SelfSimError):
                raise error
            answer = oracle.canonical({"raised": type(error).__name__})
        else:
            if op.verify is not None and not op.verify(result):
                raise AssertionError(f"independent check failed while recording {op.key}")
            answer = op.answer(result)
        entry = {"sha256": oracle.digest(answer)}
        if len(answer) <= 160:
            entry["answer"] = answer
        answers[op.key] = entry
        timings[op.key] = (ms, result)
    return timings


def record(name: str):
    cls = workloads.WORKLOADS[name]
    sim, auts = run.setup_program(cls)
    deadline = run.Deadline()
    rng = random.Random(POOL_SEED)
    answers: dict = {}
    if name == "query-mix":
        pool = query_pool(rng)
        wl = cls(sim, auts, run.ROOT, 0, {"pool": pool, "answers": answers})
        timings = record_ops([wl.pool_op(argv) for argv in pool], sim, answers, deadline)
        # input errors (exit code 3) are not part of the mix
        kept = [argv for argv in pool if timings[" ".join(argv)][1][0] != 3]
        dropped = [" ".join(a) for a in pool if a not in kept]
        answers = {k: v for k, v in answers.items() if k not in dropped}
        print(f"query-mix: {len(kept)} pool entries, {len(dropped)} input errors left out",
              file=sys.stderr)
        pool = kept
    elif name == "katsura-ladder":
        pool = katsura_pool(rng)
        wl = cls(sim, auts, run.ROOT, 0, {"pool": [], "answers": answers})
        for entry in pool:
            timings = record_ops(wl.system_ops(entry["A"], entry["B"]), sim, answers, deadline)
            key = workloads.system_key(entry["A"], entry["B"]) + "/nucleus"
            entry["nucleus_ms"] = timings[key][0]
        record_ops(wl.system_ops(*workloads.KATSURA_3X3), sim, answers, deadline)
        hung = sum(1 for e in pool if e["nucleus_ms"] is None)
        slow = sum(1 for e in pool if e["nucleus_ms"] is not None
                   and e["nucleus_ms"] >= workloads.KEPT_NUCLEUS_MS)
        print(f"katsura-ladder: {len(pool)} systems, {hung} hit the nucleus deadline, "
              f"{slow} more took {workloads.KEPT_NUCLEUS_MS:.0f} ms or longer", file=sys.stderr)
    else:
        pool = tower_pool(rng)
        wl = cls(sim, auts, run.ROOT, 0, {"pool": pool, "answers": answers})
        record_ops(wl.next_round(), sim, answers, deadline)
        record_ops([wl.profile_op(*p) for p in pool], sim, answers, deadline)
    out = run.ROOT / "bench" / "expected" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"pool": pool, "answers": answers}, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    for name in [args.workload] if args.workload else sorted(workloads.WORKLOADS):
        record(name)


if __name__ == "__main__":
    main()
