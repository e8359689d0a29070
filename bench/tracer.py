"""Outside-in tracing of selfsim's layers.

The tracer replaces selected functions and methods with timing wrappers.
A module-level function is replaced in every selfsim module that holds it,
because `from .automaton import reachable_closure` copies the name into
each importing module.  Every wrapped call gets a span (name, start, end,
parent); the hot leaves listed in HOT are too frequent for one span each
and are aggregated per parent span instead.  Spans stay in memory and are
written out when the run ends.

Counts from operations that completed are kept apart from counts from
operations that hit their deadline: the latter depend on machine speed.
"""

from __future__ import annotations

import sys
from time import perf_counter

import oracle

# (module, attribute path, metric name, extra)
# extra names a per-call quantity summed (or maxed) over calls.
TARGETS = [
    ("cli", "dispatch", "cli.dispatch", None),
    ("specfile", "parse_spec", "specfile.parse_spec", None),
    ("specfile", "parse_path", "specfile.parse_path", None),
    ("automaton", "Automaton.__init__", "automaton.construct", None),
    ("automaton", "Automaton.word_act_edge", "automaton.word_act_edge", None),
    ("automaton", "Automaton.act", "automaton.act", None),
    ("automaton", "Automaton.act_infinite", "automaton.act_infinite", None),
    # every class lookup goes through the registry; canonical_id wraps it
    ("automaton", "_Registry.lookup", "automaton.canonical_id", None),
    ("automaton", "Automaton.equal", "automaton.equal", "true"),
    ("automaton", "reachable_closure", "automaton.reachable_closure", "states"),
    ("nucleus", "compute_nucleus", "nucleus.compute_nucleus", "inconclusive"),
    ("nucleus", "limit_restrictions", "nucleus.limit_restrictions", "states"),
    ("nucleus", "compute_Rk", "nucleus.compute_Rk", None),
    ("infinite_paths", "LeftInfinitePath.make", "infinite_paths.make", None),
    ("infinite_paths", "RightInfinitePath.make", "infinite_paths.make", None),
    ("infinite_paths", "BiInfinitePath.make", "infinite_paths.make", None),
    ("schreier", "build_schreier", "schreier.build_schreier", "vertices"),
    ("schreier", "project_psi", "schreier.project_psi", None),
    ("schreier", "SchreierGraph.to_json", "schreier.export", None),
    ("schreier", "SchreierGraph.to_dot", "schreier.export", None),
    ("schreier", "distance_profile", "schreier.distance_profile", None),
    ("graphs", "enumerate_paths", "graphs.enumerate_paths", None),
    ("ktheory", "smith_normal_form", "ktheory.smith_normal_form", "max_digits"),
    ("ktheory", "katsura_ktheory", "ktheory.katsura_ktheory", None),
] + [("dynamics", f, f"dynamics.{f}", None) for f in (
    "ae_equivalent", "ae_class", "ae_equivalent_bi", "is_regular", "is_hausdorff",
    "check_recurrent", "germ_equal", "stable_equivalent", "unstable_equivalent",
    "level_transitive")]

HOT = {"automaton.word_act_edge", "automaton.canonical_id", "automaton.act", "automaton.equal"}
MAXED = {"ktheory.smith_normal_form"}   # extras reported as a maximum, not a sum


def _extra(kind, result):
    if kind == "true":
        return 1 if result else 0
    if kind == "states":
        return len(result.states) if hasattr(result, "states") else len(result)
    if kind == "inconclusive":
        return 1 if hasattr(result, "bound_hit") else 0
    if kind == "vertices":
        return len(result.vertices)
    if kind == "max_digits":
        return oracle.max_digits([result.U.to_lists(), result.D.to_lists(), result.V.to_lists()])
    raise ValueError(kind)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [name, child seconds, span id, ...]
        self.spans: list[tuple] = []         # (id, parent id, op index, name, start, end)
        self.hot: dict[tuple, list] = {}     # (parent span id, name) -> [calls, total s, self s]
        self.done: dict[str, list] = {}      # name -> [calls, self s, total s, extra]
        self.deadline: dict[str, list] = {}
        self.deadline_spans: dict[str, int] = {}   # innermost span name -> hits
        self._op: dict[str, list] = {}
        self._op_index = -1
        self._root: list | None = None
        self._next_id = 0

    # -- installing wrappers -------------------------------------------------------

    def install(self, sim):
        modules = [m for n, m in sys.modules.items() if n == "selfsim" or n.startswith("selfsim.")]
        missing = [f"selfsim.{mod_name}.{path}" for mod_name, path, _, _ in TARGETS
                   if not self._lookup(getattr(sim, mod_name), path)[0]]
        if missing:
            # a metric of a function that moved would read 0, which looks
            # like a gain: the benchmark must be updated with the program
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        for mod_name, path, name, extra in TARGETS:
            _, owner, attr = self._lookup(getattr(sim, mod_name), path)
            owner_name = path.rpartition(".")[0]
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, extra)))
            elif owner_name:
                setattr(owner, attr, self._wrap(raw, name, extra))
            else:
                wrapped = self._wrap(raw, name, extra)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)

    @staticmethod
    def _lookup(mod, path):
        """(found, owner, attribute) of `Class.attr` or `function` in mod."""
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        return owner is not None and attr in vars(owner), owner, attr

    def _wrap(self, fn, name, extra):
        stack = self.stack
        hot = name in HOT

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                sid = parent[2] if parent is not None else -1
            else:
                sid = self._next_id
                self._next_id += 1
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                rec = self._op.get(name)
                if rec is None:
                    rec = self._op[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += dur
                if hot:
                    agg = self.hot.get((sid, name))
                    if agg is None:
                        agg = self.hot[(sid, name)] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
                else:
                    self.spans.append((sid, parent[2] if parent is not None else None,
                                       self._op_index, name, t0, t1))
            if extra is not None:
                value = _extra(extra, result)
                rec[3] = max(rec[3], value) if name in MAXED else rec[3] + value
            return result
        return traced

    # -- per-operation bookkeeping -----------------------------------------------------

    def begin_op(self, index: int, kind: str):
        """Open the root span of one operation."""
        self._op = {}
        self._op_index = index
        self._root = [f"op.{kind}", 0.0, self._next_id, perf_counter()]
        self._next_id += 1
        self.stack.append(self._root)

    def end_op(self, completed: bool):
        # a deadline that fires inside a wrapper's own bookkeeping can leave
        # its frame behind; drop everything above this op's root
        while self.stack[-1] is not self._root:
            self.stack.pop()
        name, _, sid, t0 = self.stack.pop()
        self.spans.append((sid, None, self._op_index, name, t0, perf_counter()))
        target = self.done if completed else self.deadline
        for name, (calls, self_s, total_s, extra) in self._op.items():
            rec = target.setdefault(name, [0, 0.0, 0.0, 0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += total_s
            rec[3] = max(rec[3], extra) if name in MAXED else rec[3] + extra
        self._op = {}

    def on_deadline(self):
        """Called from the deadline signal: charge the innermost open span."""
        name = self.stack[-1][0] if self.stack else "op"
        self.deadline_spans[name] = self.deadline_spans.get(name, 0) + 1

    def deadline_hits(self) -> dict[str, int]:
        """Deadline hits per module of the innermost span."""
        out: dict[str, int] = {}
        for name, count in self.deadline_spans.items():
            module = name.split(".")[0]
            out[module] = out.get(module, 0) + count
        return out

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "hot": [[sid, name, *agg] for (sid, name), agg in self.hot.items()],
            "completed": self.done,
            "deadline": self.deadline,
            "deadline_hits": self.deadline_spans,
        }
