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


def test_traced_pass_runs_through_the_wrappers(tmp_path):
    # as in a benchmark run: one untraced warm-up call of each command, then
    # the same calls traced; each command and the layers it looks up at call
    # time must still record a span after the first call built the parser
    from rlwe_workbench import cli

    tracing = _tracing()
    samples = tmp_path / "samples.jsonl"
    argvs = [
        ["gen-samples", "--p", "43", "--d", "4871", "--q", "173", "--r", "200",
         "--count", "1730", "--seed", "11", "--out", str(samples)],
        ["attack", "--attack", "coset", "--samples", str(samples),
         "--out", str(tmp_path / "report.json")],
        ["estimate", "--m", "64", "--q", "193", "--out", str(tmp_path / "row.csv")],
    ]
    for argv in argvs:
        assert cli.main(argv) == 0
    with tracing.installed(tracing.Tracer()) as tracer:
        for argv in argvs:
            assert cli.main(argv) == 0
    recorded = {span[0] for span in tracer.spans}
    assert {"cli.cmd_gen_samples", "cli.cmd_attack", "cli.cmd_estimate",
            "attack.coset_attack", "estimator.epsilon"} <= recorded
