"""The benchmark command: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

With --trace 0 it sets selfsim up, generates the seeded inputs, runs whole
rounds of the workload for at most --seconds while timing selfsim's set-up
again between operations every second (the median is setup_s) and a fixed
reference loop every quarter second, and prints the end-to-end metrics,
with times scaled to the reference speed.  With --trace 1 it runs a fixed
number of rounds twice, untraced and then with the layer wrappers of
tracer.py installed, prints the per-layer metrics and writes the spans to
.bench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ["automaton", "cli", "dynamics", "errors", "graphs", "infinite_paths",
           "ktheory", "nucleus", "schreier", "specfile"]
LAYERS = ["specfile", "graphs", "automaton", "nucleus", "infinite_paths", "dynamics",
          "schreier", "ktheory", "cli"]
SETUP_EVERY_S = 1.0  # a timed run sets the program up again this often
PROBE_EVERY_S = 0.25  # and times the reference loop this often
PROBE_REF_MS = 3.0   # the reference loop's time at reference speed
WINDOW_OPS = 100     # operations per window, so that 10 lie beyond the p90
QUANTILE_BAND = 0.05


class DeadlineHit(BaseException):
    """Raised inside selfsim by the deadline timer; a BaseException so that
    no `except Exception` in the program can swallow it."""


class Deadline:
    """Per-operation wall-clock deadline from signal.setitimer."""

    def __init__(self):
        self.armed = False
        self.tracer = None
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            if self.tracer is not None:
                self.tracer.on_deadline()
            raise DeadlineHit()

    def run(self, fn, seconds: float):
        """(result, error, hit) of fn() under the deadline."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            result = fn()
            self.armed = False
            return result, None, False
        except DeadlineHit:
            return None, None, True
        except Exception as e:  # judged below: typed result or untyped failure
            self.armed = False
            return None, e, False
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


# -- set-up ---------------------------------------------------------------------------


def selfsim_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "selfsim" or n.startswith("selfsim.")}


def import_selfsim():
    """Import selfsim from this checkout's src/, never from elsewhere."""
    for name in selfsim_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("selfsim")
    if Path(pkg.__file__).resolve().parent != SRC / "selfsim":
        raise SystemExit(f"selfsim imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"selfsim.{m}")
                                       for m in MODULES})


def load_automata(sim, specs) -> dict:
    return {s: sim.specfile.parse_spec((ROOT / "specs" / f"{s}.ss").read_text()).automaton()
            for s in specs}


def setup_program(workload_cls):
    """The program's own set-up, which setup_s times: importing selfsim and
    building the automaton of every spec the workload loads."""
    sim = import_selfsim()
    return sim, load_automata(sim, workload_cls.setup_specs)


def setup(workload_cls, seed: int):
    """(seconds of the program's set-up, sim, expected, workload).  Loading
    the recorded answers and generating the seeded inputs are not timed."""
    t0 = perf_counter()
    sim, auts = setup_program(workload_cls)
    seconds = perf_counter() - t0
    expected = workloads.load_expected(ROOT, workload_cls.name)
    return seconds, sim, expected, workload_cls(sim, auts, ROOT, seed, expected)


PROBE_X, PROBE_Y = 3 ** 400, 7 ** 350


def probe_loop():
    """A fixed loop in none of selfsim's code, of two halves that the host's
    neighbours slow in different phases: tuple keys put into a dict, which
    leans on memory, and big-integer arithmetic, which stays in the
    first-level cache.  Either half alone followed the program's speed less
    well than the two together."""
    table = {}
    for i in range(10000):
        table[(i, i & 7)] = i % 11
    s = 0
    for i in range(700):
        s = (s + PROBE_X * (PROBE_Y + i)) % (PROBE_X + PROBE_Y + i)
    return table, s


def probe() -> float:
    """Seconds of probe_loop, the best of three, with the collector off so
    that the size of selfsim's heap does not reach into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            probe_loop()
            times.append(perf_counter() - t0)
        return min(times)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs between operations.  Every PROBE_EVERY_S seconds it times the
    reference loop, so that each window's times can be scaled to the
    reference speed.  Every SETUP_EVERY_S seconds it times the program's
    set-up again, right after a probe, so that setup_s samples the whole run
    as the other metrics do.  The fresh modules are dropped and the running
    ones put back, so the workload goes on with the program it started
    with."""

    def __init__(self, workload_cls, first_setup: float, first_probe: float):
        self.cls = workload_cls
        self.probes = [(0, first_probe)]          # (operations done, seconds)
        self.setups = [(first_setup, first_probe)]  # (seconds, probe seconds)
        self.probe_due = perf_counter() + PROBE_EVERY_S
        self.setup_due = perf_counter() + SETUP_EVERY_S

    def __call__(self, done: int):
        now = perf_counter()
        if now < self.probe_due and now < self.setup_due:
            return
        self.probes.append((done, probe()))
        self.probe_due = perf_counter() + PROBE_EVERY_S
        if now < self.setup_due:
            return
        running = selfsim_modules()
        gc.collect()     # the previous set-up's garbage, outside the timing
        t0 = perf_counter()
        setup_program(self.cls)
        self.setups.append((perf_counter() - t0, self.probes[-1][1]))
        for name in selfsim_modules():
            del sys.modules[name]
        sys.modules.update(running)
        self.setup_due = perf_counter() + SETUP_EVERY_S

    def scale(self, start: int, end: int) -> float:
        """Factor that takes times measured while operations start..end ran
        to the reference speed: the median probe among them, or the nearest
        probe if none ran among them."""
        inside = [t for i, t in self.probes if start <= i <= end]
        if not inside:
            inside = [min(self.probes, key=lambda p: abs(p[0] - (start + end) / 2))[1]]
        return PROBE_REF_MS / 1e3 / statistics.median(inside)

    def setup_s(self) -> float:
        return statistics.median(s * PROBE_REF_MS / 1e3 / p for s, p in self.setups)


def settle():
    """Move everything set-up made into the collector's permanent generation,
    so that full collections during the run traverse only what selfsim
    allocates, not the benchmark's own inputs."""
    gc.collect()
    gc.freeze()


# -- running and judging operations --------------------------------------------------


def judge(op, result, error, sim, answers) -> tuple[str, bool]:
    """(status, decided); status is ok, wrong or error."""
    if error is not None:
        if not isinstance(error, sim.errors.SelfSimError):
            return "error", False
        answer = oracle.canonical({"raised": type(error).__name__})
        decided = False
    else:
        if op.verify is not None and not op.verify(result):
            return "wrong", False
        answer = op.answer(result) if op.answer is not None else None
        decided = op.decided(result)
    if op.key is not None:
        if op.key not in answers:
            raise KeyError(f"no recorded answer for {op.key!r}; run bench/record.py")
        want = answers[op.key]
        # no recorded answer: the op hit its deadline when answers were recorded,
        # so any typed result is accepted
        if want is not None and oracle.digest(answer) != want["sha256"]:
            return "wrong", False
    return "ok", decided


def run_round(ops, deadline, sim, answers, records, tracer=None, between=None):
    for op in ops:
        index = len(records)
        if tracer is not None:
            tracer.begin_op(index, op.kind)
        t0 = perf_counter()
        result, error, hit = deadline.run(op.fn, op.deadline)
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.end_op(not hit)
        if hit:
            records.append((op.kind, op.deadline, "deadline", False))
            # collect what the aborted call built now, outside any timing,
            # rather than in whichever operation comes next
            gc.collect()
        else:
            records.append((op.kind, latency, *judge(op, result, error, sim, answers)))
        # free the result now rather than after the next operation
        result = error = None
        if between is not None:
            between(len(records))


def measure(workload, seconds, deadline, sim, answers, between):
    """Whole rounds for at most `seconds`: a round starts only if the mean
    round time so far says it will end in time (the first always runs).
    Returns the records and the index where each round ends."""
    records, ends = [], []
    start = perf_counter()
    while True:
        run_round(workload.next_round(), deadline, sim, answers, records, between=between)
        ends.append(len(records))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(ends) > seconds:
            return records, ends


def windows(records, ends):
    """Consecutive whole rounds grouped into windows of at least WINDOW_OPS
    operations, as (start, end) indices; a short remainder joins the last
    window."""
    out, start = [], 0
    for end in ends:
        if end - start >= WINDOW_OPS:
            out.append((start, end))
            start = end
    if start < len(records):
        if out:
            out[-1] = (out[-1][0], len(records))
        else:
            out.append((start, len(records)))
    return out


def quantile(values, q):
    """Kernel estimate of the q-quantile: the mean of the order statistics
    between the (q - QUANTILE_BAND) and (q + QUANTILE_BAND) quantiles.  The
    latencies of a round cluster by operation and level with gaps between
    clusters; a single order statistic jumps across a gap when one operation
    changes rank, the mean over the band moves by a fraction of it."""
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.floor((q - QUANTILE_BAND) * n))
    hi = min(n, max(lo + 1, math.ceil((q + QUANTILE_BAND) * n)))
    return statistics.fmean(ordered[lo:hi])


def counts(records):
    return {s: sum(1 for r in records if r[2] == s) for s in ("ok", "wrong", "error", "deadline")}


def window_metrics(records, scale=1.0):
    """Metrics of one window, its latencies multiplied by `scale`; a
    deadline hit stays at its deadline, which is wall-clock time, not work."""
    n = len(records)
    c = counts(records)
    latencies = [r[1] if r[2] == "deadline" else r[1] * scale for r in records]
    return {
        "ops_per_s": ((n - c["deadline"]) / sum(latencies), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "answered_share": (c["ok"] / n, "ratio"),
        "decided_share": (sum(1 for r in records if r[3]) / n, "ratio"),
    }


def end_to_end(records, ends, scale=lambda start, end: 1.0):
    """Each metric is the median over the run's windows, which keeps a slow
    spell of the machine within one window from moving the result; each
    window's times are scaled by scale(start, end)."""
    per_window = [window_metrics(records[a:b], scale(a, b)) for a, b in windows(records, ends)]
    return {k: (statistics.median(m[k][0] for m in per_window), unit)
            for k, (_, unit) in per_window[0].items()}


# -- per-layer metrics -----------------------------------------------------------------


def loc_metrics():
    out = {}
    total = 0
    for path in sorted((SRC / "selfsim").glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        out["package.loc" if path.stem == "__init__" else f"{path.stem}.loc"] = lines
    metrics = {f"{m}.loc": (out.get(f"{m}.loc", 0), "lines") for m in MODULES}
    metrics["package.loc"] = (out.get("package.loc", 0), "lines")
    metrics["src.loc"] = (total, "lines")
    return metrics


def layer_metrics(tr: tracing.Tracer, overhead: float):
    metrics = {}

    def rec(name):
        return tr.done.get(name, [0, 0.0, 0.0, 0])

    for name in sorted({t[2] for t in tracing.TARGETS}):
        calls, self_s, _, _ = rec(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
    equal = rec("automaton.equal")
    metrics["automaton.equal.true_ratio"] = (equal[3] / equal[0] if equal[0] else 0.0, "ratio")
    for name, extra, unit in [
        ("automaton.reachable_closure", "states", "count"),
        ("nucleus.limit_restrictions", "states", "count"),
        ("nucleus.compute_nucleus", "inconclusive", "count"),
        ("schreier.build_schreier", "vertices", "count"),
        ("ktheory.smith_normal_form", "max_digits", "digits"),
    ]:
        metrics[f"{name}.{extra}"] = (rec(name)[3], unit)
    build = rec("schreier.build_schreier")
    metrics["schreier.vertices_per_s"] = (build[3] / build[2] if build[2] else 0.0, "1/s")
    hits = tr.deadline_hits()
    for layer in LAYERS:
        metrics[f"{layer}.deadline_hits"] = (hits.get(layer, 0), "count")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.deadline_calls"] = (sum(r[0] for r in tr.deadline.values()), "count")
    metrics.update(loc_metrics())
    return metrics


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


# -- main ------------------------------------------------------------------------------------


def emit(records, metrics, summary):
    c = counts(records)
    failed = c["wrong"] + c["error"]
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def deadline_kinds(records):
    out = {}
    for kind, _, status, _ in records:
        if status == "deadline":
            out[kind] = out.get(kind, 0) + 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "selfsim" / "__init__.py").is_file():
        print(f"bench: no selfsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS[args.workload]
    deadline = Deadline()
    summary = {"workload": args.workload, "seed": args.seed, "env": environment()}

    if not args.trace:
        first_probe = probe()
        first, sim, expected, wl = setup(cls, args.seed)
        settle()
        sampler = Sampler(cls, first, first_probe)
        records, ends = measure(wl, args.seconds, deadline, sim, expected["answers"], sampler)
        metrics = end_to_end(records, ends, sampler.scale)
        metrics["setup_s"] = (sampler.setup_s(), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        unscaled = end_to_end(records, ends)
        unscaled["setup_s"] = (statistics.median(s for s, _ in sampler.setups), "s")
        c = counts(records)
        summary.update(rounds=len(ends), windows=len(windows(records, ends)), counts=c,
                       setups=len(sampler.setups), probes=len(sampler.probes),
                       probe_ms=statistics.median(p for _, p in sampler.probes) * 1e3,
                       unscaled={k: v for k, (v, _) in unscaled.items()},
                       wrong_answers=c["wrong"],
                       failed_share=(len(records) - c["ok"]) / len(records),
                       deadline_hits=deadline_kinds(records))
        emit(records, metrics, summary)
        return 0

    _, sim, expected, wl = setup(cls, args.seed)
    settle()
    untraced = []
    for _ in range(cls.trace_rounds):
        run_round(wl.next_round(), deadline, sim, expected["answers"], untraced)
    # fresh automata, so that the traced pass starts as cold as the untraced one
    wl = cls(sim, load_automata(sim, cls.setup_specs), ROOT, args.seed, expected)
    tr = tracing.Tracer()
    tr.install(sim)
    deadline.tracer = tr
    traced = []
    for _ in range(cls.trace_rounds):
        run_round(wl.next_round(), deadline, sim, expected["answers"], traced, tr)
    both = [(u[1], t[1]) for u, t in zip(untraced, traced)
            if u[2] != "deadline" and t[2] != "deadline"]
    overhead = sum(t for _, t in both) / sum(u for u, _ in both)
    metrics = layer_metrics(tr, overhead)
    c = counts(untraced + traced)
    summary.update(rounds=cls.trace_rounds, counts=c, wrong_answers=c["wrong"],
                   deadline_hits=deadline_kinds(traced), deadline_spans=tr.deadline_spans)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    dump = {"summary": summary, **tr.dump()}
    (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))
    emit(untraced + traced, metrics, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
