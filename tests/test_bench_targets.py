"""The benchmark's tracer wraps selfsim functions by name and refuses to run
when one is missing; check here that every name still resolves, so a rename
fails in the test suite and not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    saved = sys.modules.get("oracle")
    try:
        sys.modules["oracle"] = _load("oracle")  # tracer.py imports it by name
        tracer = _load("tracer")
    finally:
        sys.dont_write_bytecode = dont_write
        if saved is None:
            sys.modules.pop("oracle", None)
        else:
            sys.modules["oracle"] = saved
    assert tracer.TARGETS
    missing = [f"selfsim.{mod}.{path}" for mod, path, _, _ in tracer.TARGETS
               if not tracer.Tracer._lookup(importlib.import_module(f"selfsim.{mod}"), path)[0]]
    assert missing == []
