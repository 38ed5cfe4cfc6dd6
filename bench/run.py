"""Benchmark for the workbench's user-facing commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is gen-family, attack-file, estimate-table, or all (each workload in
its own process, one after the other).  Every command goes through
`rlwe_workbench.cli.main(argv)` in this one long-lived process, with
`--workers 1` and one BLAS thread.  After set-up (import, input files, one
warm-up call of each command kind), whole passes over the workload's
commands repeat until S seconds have gone by.  Each command's output is
checked apart from the program (see checks.py).  The last line of stdout is
a JSON object: correct, attempted, failed and the metrics, the end-to-end
ones with --trace 0 and the per-layer ones with --trace 1.  A run record,
and with --trace 1 the spans, go to bench/out/.  Run from the root of a
checkout that has src/rlwe_workbench.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads: a run uses one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("gen_samples_s", "s"),
              ("attack_coset_s", "s"), ("attack_two_bin_s", "s"), ("estimate_s", "s")]
# set-ups per run: this process, then set-up-only child processes, at least
# two and more while they have taken under CHILD_SETUP_BUDGET_S in all
MAX_SETUPS = 5
CHILD_SETUP_BUDGET_S = 6.0
CHILD_TIMEOUT_S = 150


def _import_program():
    if not (SRC / "rlwe_workbench" / "cli.py").is_file():
        raise SystemExit("bench: no workbench sources under %s; run from the root "
                         "of a checkout" % SRC)
    sys.path.insert(0, str(SRC))
    from rlwe_workbench import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit("bench: imported %s, not the checkout's sources" % cli.__file__)
    return cli


def _normalised(cmd, data: bytes) -> bytes:
    """Output bytes with the timing field blanked, for comparing passes."""
    if cmd.argv[0] == "attack":
        head, tail = data[:-200], data[-200:]
        return head + re.sub(rb'"elapsed_ms": [^,}]+', b'"elapsed_ms": null', tail)
    if cmd.argv[0] == "estimate":
        lines = data.split(b"\n")
        row = lines[1].split(b",")
        row[7] = b""
        lines[1] = b",".join(row)
        return b"\n".join(lines)
    return data


def _run_command(cli, cmd, tracer=None):
    """(wall seconds, return code) of one cli.main call; notes to stderr
    are captured so they do not flood the run's output."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(cmd.argv)
        else:
            idx = tracer.begin("command", {"label": cmd.label})
            try:
                rc = cli.main(cmd.argv)
            finally:
                tracer.end(idx)
        wall = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write("bench: %s exited %d: %s" % (cmd.label, rc, err.getvalue()))
    return wall, rc


def _set_up(cli, workload: str, seed: int, work: Path):
    """Input files and one warm-up call of each command kind; returns the
    pass commands and the set-up time measured from process start."""
    work.mkdir(parents=True, exist_ok=True)
    setup, commands = WORKLOADS[workload](work, seed)
    for cmd in setup:
        if _run_command(cli, cmd)[1] != 0:
            raise SystemExit("bench: set-up command %s failed" % cmd.label)
    warmed = set()
    for cmd in commands:
        if cmd.metric not in warmed:
            warmed.add(cmd.metric)
            _run_command(cli, cmd)
    return commands, time.perf_counter() - _START


def _child_setups(args) -> list:
    times = []
    t0 = time.perf_counter()
    while len(times) < 2 or (len(times) < MAX_SETUPS - 1
                             and time.perf_counter() - t0 < CHILD_SETUP_BUDGET_S):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit("bench: set-up-only run failed: %s" % proc.stderr)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(unit, values):
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def run_workload(args) -> int:
    cli = _import_program()
    work = OUT / ("work-%d" % os.getpid())
    try:
        commands, setup_s = _set_up(cli, args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = tracing.Tracer()
        passes = []            # per pass: command walls, traced flag, span range
        outputs = {}           # (label, digest) -> first output bytes
        seen = []              # (label, digest) of every command run
        rcs = []
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            lo = len(tracer.spans)
            walls = []
            with (tracing.installed(tracer) if traced else contextlib.nullcontext()):
                for cmd in commands:
                    wall, rc = _run_command(cli, cmd, tracer if traced else None)
                    walls.append(wall)
                    data = cmd.out.read_bytes() if rc == 0 else b""
                    key = (cmd.label,
                           hashlib.sha256(_normalised(cmd, data) if data else b"").hexdigest())
                    outputs.setdefault(key, data)
                    seen.append(key)
                    rcs.append(rc)
            passes.append({"walls": walls, "traced": traced, "spans": (lo, len(tracer.spans))})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdicts = {}
        for (label, digest), data in outputs.items():
            cmd = next(c for c in commands if c.label == label)
            verdicts[(label, digest)] = cmd.check(data.decode()) if data else None
        failed = unexpected = 0
        for key, rc in zip(seen, rcs):
            v = verdicts[key]
            if rc != 0 or v is None or v.failed:
                failed += 1
            if rc != 0 or v is None or v.failures:
                unexpected += 1
        setups = [setup_s] + _child_setups(args)

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "passes": len(passes), "setup_runs_s": setups,
                  "commands": [c.label for c in commands],
                  "pass_walls": [p["walls"] for p in passes],
                  "checks": {"%s [%s]" % (label, digest[:12]): None if v is None else {
                      "failures": v.failures, "known": v.known, "notes": v.notes}
                      for (label, digest), v in verdicts.items()}}
        lines = ["workload %s, seed %d: %d passes of %d commands, %d attempted, %d failed"
                 % (args.workload, args.seed, len(passes), len(commands), len(seen), failed)]
        for name, v in record["checks"].items():
            if v and (v["failures"] or v["known"]):
                lines.append("  FAILED %s: %s" % (name, "; ".join(
                    v["failures"] + ([v["known"] + " (known fault, see README)"]
                                     if v["known"] else []))))
            for note in (v or {}).get("notes", []):
                if note.startswith("not counted"):
                    lines.append("  %s: %s" % (name, note))

        plain = [p for p in passes if not p["traced"]]
        if args.trace:
            metrics = _trace_metrics(tracer, passes, plain, record, lines)
            path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
            path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "spans": tracer.spans}))
        else:
            metrics = {"setup_s": _summary("s", setups),
                       "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
            for name, unit in END_TO_END[2:]:
                per_pass = [sum(w for c, w in zip(commands, p["walls"]) if c.metric == name)
                            for p in plain]
                metrics[name] = _summary(unit, per_pass)
            for name, m in metrics.items():
                lines.append("  %-18s %.6g %s" % (name, m["value"], m["unit"])
                             + ("  (q1 %.6g, q3 %.6g, n %d)" % (m["q1"], m["q3"], m["n"])
                                if "n" in m else ""))
        record["metrics"] = metrics
        OUT.mkdir(exist_ok=True)
        (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
            json.dumps(record, indent=1))
        print("\n".join(lines))
        print(json.dumps({"correct": unexpected == 0, "attempted": len(seen), "failed": failed,
                          "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                      for k, m in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _trace_metrics(tracer, passes, plain, record, lines):
    """Per-layer metrics from the traced passes; adds the per-row breakdown
    to `record` and the printed lines to `lines`."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [tracing.pass_metrics(tracer.spans, *p["spans"]) for p in traced]
    units = {m: u for m, u, _, _ in tracing.METRICS}
    metrics = {m: {"value": statistics.median(v[m] for v in per_pass), "unit": units[m]}
               for m in units}
    overhead = (statistics.median(sum(p["walls"]) for p in traced)
                - statistics.median(sum(p["walls"]) for p in plain))
    metrics[tracing.OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    rows = tracing.median_breakdown([tracing.row_breakdown(tracer.spans, *p["spans"])
                                     for p in traced])
    record["row_breakdown"] = rows
    lines.append("  per-layer medians over %d traced passes (%d untraced), per pass:"
                 % (len(traced), len(plain)))
    for name, m in metrics.items():
        lines.append("    %-55s %.6g %s" % (name, m["value"], m["unit"]))
    lines.append("  per row: command wall | span busy (self), seconds")
    for label, spans in rows.items():
        parts = ["%s %.4f (%.4f)" % (n, b, s) for n, (b, s) in spans.items() if n != "command"]
        lines.append("    %-28s %.4f | %s" % (label, spans["command"][0], " | ".join(parts)))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["gen-family", "attack-file", "estimate-table", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in ("gen-family", "attack-file", "estimate-table"):
        status |= subprocess.call([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  cwd=str(ROOT))
    return status


if __name__ == "__main__":
    sys.exit(main())
