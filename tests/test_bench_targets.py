"""The benchmark's own files, read from the test suite without writing to
bench/.  The tracer wraps selfsim functions by name and refuses to run when
one is missing; check here that every name still resolves, so a rename
fails in the test suite and not only in a traced benchmark run.  And the
recorded query-mix pool replays through ``cli.dispatch`` to its recorded
answers, so a changed public result fails here too."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from selfsim import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:  # dataclasses look their module up while it runs
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _load_with_oracle(name):
    """(oracle, module): bench/<name>.py, which imports oracle by name."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    saved = sys.modules.get("oracle")
    try:
        oracle = sys.modules["oracle"] = _load("oracle")
        return oracle, _load(name)
    finally:
        sys.dont_write_bytecode = dont_write
        if saved is None:
            sys.modules.pop("oracle", None)
        else:
            sys.modules["oracle"] = saved


def test_tracer_targets_resolve():
    tracer = _load_with_oracle("tracer")[1]
    assert tracer.TARGETS
    missing = [f"selfsim.{mod}.{path}" for mod, path, _, _ in tracer.TARGETS
               if not tracer.Tracer._lookup(importlib.import_module(f"selfsim.{mod}"), path)[0]]
    assert missing == []


def test_query_mix_pool_replays_to_its_recorded_answers():
    # each argv as the benchmark runs it: dispatch(["--json", ...]), the
    # answer digested as recorded, and the hand-written check where one is set
    oracle, workloads = _load_with_oracle("workloads")
    expected = workloads.load_expected(BENCH.parent, "query-mix")
    mix = workloads.QueryMix(SimpleNamespace(cli=cli), {}, BENCH.parent, 0, expected)
    wrong = []
    for argv in expected["pool"]:
        op = mix.pool_op(argv)
        result = op.fn()
        want = expected["answers"][op.key]
        if want is not None and oracle.digest(op.answer(result)) != want["sha256"]:
            wrong.append((op.key, result))
        elif op.verify is not None and not op.verify(result):
            wrong.append((op.key, result))
    assert len(expected["pool"]) == 279
    assert wrong == []
