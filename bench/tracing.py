"""Spans and counts for the benchmark's traced passes.

The workbench is not edited.  For a traced pass, `installed` replaces each
public function at the name its caller looks it up under (a module global
or a class attribute) with a wrapper that records a span, and puts the
originals back afterwards.  A span is [name, start, end, parent, counts];
spans are kept in memory and written out when the run ends.

A layer's busy time is the sum of its span durations; its self time
subtracts the time its child spans cover.  Counts (records, draws, calls,
bytes, guesses) are read at the same boundaries, from the call's
arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time

# (metric, unit, span names, field): field is "busy", "self" or a count key
METRICS = [
    ("cli.cmd_gen_samples.self_s", "s", ("cli.cmd_gen_samples",), "self"),
    ("cli.cmd_attack.self_s", "s", ("cli.cmd_attack",), "self"),
    ("cli.cmd_attack.out_bytes", "bytes", ("cli.cmd_attack",), "out_bytes"),
    ("cli.cmd_estimate.self_s", "s", ("cli.cmd_estimate",), "self"),
    ("family.validate.busy_s", "s", ("family.validate",), "busy"),
    ("ffield.FieldCtx.for_family.busy_s", "s", ("ffield.FieldCtx.for_family",), "busy"),
    ("oracle.draw_rlwe.self_s", "s", ("oracle.draw_rlwe",), "self"),
    ("oracle.dump.busy_s", "s", ("oracle.dump",), "busy"),
    ("oracle.dump.bytes", "bytes", ("oracle.dump",), "bytes"),
    ("oracle.load.busy_s", "s", ("oracle.load",), "busy"),
    ("oracle.load.records", "count", ("oracle.load",), "records"),
    ("rings.ring_mul.busy_s", "s", ("rings.ring_mul",), "busy"),
    ("rings.ring_mul.calls", "count", ("rings.ring_mul",), "calls"),
    ("rings.reduce_mod_prime_batch.busy_s", "s", ("rings.reduce_mod_prime_batch",), "busy"),
    ("sampling.sample_lattice_gauss_batch.busy_s", "s",
     ("sampling.sample_lattice_gauss_batch",), "busy"),
    ("sampling.sample_lattice_gauss_batch.draws", "count",
     ("sampling.sample_lattice_gauss_batch",), "draws"),
    ("sampling.sample_lattice_gauss_batch.below_floor_calls", "count",
     ("sampling.sample_lattice_gauss_batch",), "below_floor"),
    ("sampling.sample_dgauss_z.busy_s", "s", ("sampling.sample_dgauss_z",), "busy"),
    ("sampling.sample_dgauss_z.draws", "count", ("sampling.sample_dgauss_z",), "draws"),
    ("attack.coset_attack.busy_s", "s", ("attack.coset_attack",), "busy"),
    ("attack.two_bin_attack.busy_s", "s", ("attack.two_bin_attack",), "busy"),
    ("attack.AttackOutcome.report.busy_s", "s", ("attack.AttackOutcome.report",), "busy"),
    ("attack.guesses_evaluated", "count",
     ("attack.coset_attack", "attack.two_bin_attack"), "guesses"),
    ("estimator.epsilon.busy_s", "s", ("estimator.epsilon",), "busy"),
    ("estimator.epsilon_deg2.busy_s", "s", ("estimator.epsilon_deg2",), "busy"),
    ("estimator.empirical_uniformity.self_s", "s", ("estimator.empirical_uniformity",), "self"),
]
OVERHEAD_METRIC = "trace.overhead_s"


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str, counts=None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, counts or {}])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _targets():
    """(owner, attribute, span name, count before call, count after call)."""
    from rlwe_workbench import attack, cli, estimator, family, ffield, oracle, sampling

    def out_bytes(args, kwargs, out, before):
        return {"out_bytes": os.path.getsize(args[0].out)}

    def dump_start(args, kwargs):
        return _arg(args, kwargs, 1, "fh").tell()

    def dump_bytes(args, kwargs, out, before):
        return {"bytes": _arg(args, kwargs, 1, "fh").tell() - before}

    def lattice_draws(args, kwargs, out, before):
        return {"draws": _arg(args, kwargs, 3, "count"), "below_floor": int(bool(out[1]))}

    def z_draws(args, kwargs, out, before):
        size = _arg(args, kwargs, 2, "size")
        return {"draws": 1 if size is None else int(size)}

    lattice = "sampling.sample_lattice_gauss_batch"
    reduce_batch = "rings.reduce_mod_prime_batch"
    guesses = (lambda a, k, out, before: {"guesses": out.guesses_evaluated})
    return [
        (cli, "cmd_gen_samples", "cli.cmd_gen_samples", None, None),
        (cli, "cmd_attack", "cli.cmd_attack", None, out_bytes),
        (cli, "cmd_estimate", "cli.cmd_estimate", None, None),
        (family, "validate", "family.validate", None, None),
        (ffield.FieldCtx, "for_family", "ffield.FieldCtx.for_family", None, None),
        (oracle, "draw_rlwe", "oracle.draw_rlwe", None, None),
        (oracle, "draw_uniform", "oracle.draw_uniform", None, None),
        (oracle, "dump", "oracle.dump", dump_start, dump_bytes),
        (oracle, "load", "oracle.load", None, lambda a, k, out, before: {"records": len(out)}),
        (oracle, "ring_mul", "rings.ring_mul", None, lambda a, k, out, before: {"calls": 1}),
        (oracle, "sample_lattice_gauss_batch", lattice, None, lattice_draws),
        (estimator, "sample_lattice_gauss_batch", lattice, None, lattice_draws),
        (sampling, "sample_dgauss_z", "sampling.sample_dgauss_z", None, z_draws),
        (attack, "reduce_mod_prime_batch", reduce_batch, None, None),
        (estimator, "reduce_mod_prime_batch", reduce_batch, None, None),
        (cli, "coset_attack", "attack.coset_attack", None, guesses),
        (cli, "two_bin_attack", "attack.two_bin_attack", None, guesses),
        (attack.AttackOutcome, "report", "attack.AttackOutcome.report", None, None),
        (cli, "epsilon", "estimator.epsilon", None, None),
        (cli, "epsilon_deg2", "estimator.epsilon_deg2", None, None),
        (cli, "empirical_uniformity", "estimator.empirical_uniformity", None, None),
    ]


def _wrap(tracer: Tracer, name: str, fn, before_fn, after_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = before_fn(args, kwargs) if before_fn else None
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after_fn:
            tracer.spans[idx][4] = after_fn(args, kwargs, out, before)
        return out
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced name through `tracer` for the duration."""
    saved = []
    try:
        for owner, attr, name, before_fn, after_fn in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, name, original.__func__, before_fn, after_fn))
            else:
                wrapped = _wrap(tracer, name, original, before_fn, after_fn)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _self_times(spans, lo: int, hi: int):
    """Durations and self times of spans[lo:hi] (parents precede children)."""
    dur = [s[2] - s[1] for s in spans[lo:hi]]
    own = list(dur)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent is not None and parent >= lo:
            own[parent - lo] -= dur[i - lo]
    return dur, own


def pass_metrics(spans, lo: int, hi: int) -> dict:
    """Every METRICS value summed over the spans of one pass, spans[lo:hi]."""
    dur, own = _self_times(spans, lo, hi)
    totals = {}
    for i, (name, _, _, _, counts) in enumerate(spans[lo:hi]):
        t = totals.setdefault(name, {"busy": 0.0, "self": 0.0})
        t["busy"] += dur[i]
        t["self"] += own[i]
        for key, value in counts.items():
            if isinstance(value, (int, float)):
                t[key] = t.get(key, 0) + value
    return {metric: sum(totals.get(n, {}).get(field, 0) for n in names)
            for metric, _, names, field in METRICS}


def row_breakdown(spans, lo: int, hi: int) -> dict:
    """{command label: {span name: [busy, self]}} for one pass; command
    spans are the roots and carry their label in counts["label"]."""
    dur, own = _self_times(spans, lo, hi)
    root = {}
    out = {}
    for i in range(lo, hi):
        name, _, _, parent, counts = spans[i]
        root[i] = i if parent is None or parent < lo else root[parent]
        label = spans[root[i]][4]["label"]
        entry = out.setdefault(label, {}).setdefault(name, [0.0, 0.0])
        entry[0] += dur[i - lo]
        entry[1] += own[i - lo]
    return out


def median_breakdown(per_pass) -> dict:
    """Median over passes of each [busy, self] in `row_breakdown` output."""
    out = {}
    for label in per_pass[0]:
        out[label] = {}
        for name in per_pass[0][label]:
            pairs = [b[label][name] for b in per_pass if name in b.get(label, {})]
            out[label][name] = [statistics.median(p[0] for p in pairs),
                                statistics.median(p[1] for p in pairs)]
    return out
