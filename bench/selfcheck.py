"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. Runs the traced benchmark twice per workload, in two fresh processes
   with one seed, and asserts that the per-layer counts over completed
   operations repeat exactly.
2. Corrupts one recorded answer in memory and asserts that the run reports
   it as a wrong answer, while the intact answers give none.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

SEED = 7


def traced_counts(workload: str) -> dict:
    cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=600)
    dump = json.loads((run.ROOT / ".bench_out" / f"trace-{workload}-seed{SEED}.json").read_text())
    # calls and the per-call extra (states, vertices, ...); times are left out
    return {name: (rec[0], rec[3]) for name, rec in dump["completed"].items()}


def wrong_answers(workload: str, corrupt: bool) -> int:
    _, sim, expected, wl = run.setup(workloads.WORKLOADS[workload], SEED)
    ops = wl.next_round()
    answers = dict(expected["answers"])
    if corrupt:
        key = next(op.key for op in ops if op.key is not None and answers.get(op.key))
        answers[key] = {"sha256": "0" * 64}
    records = []
    run.run_round(ops, run.Deadline(), sim, answers, records)
    return sum(1 for r in records if r[2] == "wrong")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ok = True
    for name in sorted(workloads.WORKLOADS):
        first, second = traced_counts(name), traced_counts(name)
        same = first == second
        ok &= same and bool(first)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        print(f"{name}: traced counts repeat: {same}" + ("" if same else f" (differ: {diff})"))
    for name in ("query-mix", "katsura-ladder"):
        clean, corrupted = wrong_answers(name, False), wrong_answers(name, True)
        ok &= clean == 0 and corrupted >= 1
        print(f"{name}: wrong answers intact {clean}, with one corrupted answer {corrupted}")
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
