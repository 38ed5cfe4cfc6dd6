"""The benchmark's traced run patches workbench names where callers look
them up (bench/tracing.py).  A refactor that moves or renames one of them
must fail here, not later inside a benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in _tracing()._targets()
               if attr not in owner.__dict__]
    assert missing == []

