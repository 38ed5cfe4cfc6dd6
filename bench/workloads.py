"""The benchmark's workloads: the commands of one pass, their input files,
and the check each command's output must pass.

Every workload runs the same companion commands besides its own: a
uniform decoy `gen-samples`, both attacks on that decoy and one degree-2
`estimate`.  They give every end-to-end metric a value on every
workload; the commands a workload is about are listed first in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import checks

# family rows: (p, d, q, r, records)
P43_R200 = (43, 4871, 173, 200.0, 1730)
P83_R200 = (83, 4903, 167, 200.0, 1670)
P43_R694 = (43, 4871, 173, 694.94, 1730)
P7_Q1051 = (7, 4871, 1051, 100.0, 10510)
DECOY = (43, 4871, 173, 1730)

# Seeds that do not follow --seed.  The (43, 4871, 173, r = 200) row of
# gen-family fails its e2-collapse check on every seed (the Klein walk is
# biased there), and a failing command must fail the same way on every
# run.  The decoy and the --empirical rows are checked against tests
# that by design reject 1 in 100 seeds of correct output (family-wise
# 0.01 false flags; chi-square at 0.99), so they use one seed throughout.
KNOWN_FAILURE_SEED = 11
DECOY_SEED = 100
EMPIRICAL_SEED = 0

DEG1_ROWS = [(64, 193), (128, 1153), (256, 3329), (512, 10753)]
DEG2_ROWS = [(64, 383), (128, 1151)]
DEG2_LONG_RUN_ROWS = [(256, 1279), (512, 5119)]
EMPIRICAL_ROWS = [(64, 193), (256, 3329)]
COMPANION_ESTIMATE = (128, 1151)


@dataclass
class Verdict:
    failures: List[str] = field(default_factory=list)  # unexpected: correct = false
    known: Optional[str] = None                          # the named fault: counted, expected
    notes: List[str] = field(default_factory=list)       # reported, not counted

    @property
    def failed(self) -> bool:
        return bool(self.failures) or self.known is not None


@dataclass
class Command:
    label: str
    metric: str
    argv: List[str]
    out: Path
    check: Callable[[str], Verdict]


def row_seed(seed: int, row: int) -> int:
    return 1000 * seed + row


def _family_args(p, d, q):
    return ["--p", str(p), "--d", str(d), "--q", str(q)]


def _gen_rlwe(label, row, seed, out: Path, collapse: str) -> Command:
    """collapse: "counted", "known" (the named failing check) or "reported"."""
    p, d, q, r, count = row
    argv = (["gen-samples"] + _family_args(p, d, q)
            + ["--r", repr(r), "--count", str(count), "--seed", str(seed),
               "--workers", "1", "--out", str(out)])

    def check(text):
        failures, collapse_msg, fig = checks.check_rlwe_file(text, p, d, q, r, seed, count)
        v = Verdict(failures)
        v.notes.append("nonzero e2 blocks %d (exact expectation %.3g)"
                       % (fig.get("nonzero_e2", -1), fig.get("expected_nonzero_e2", math.nan)))
        if collapse_msg and collapse == "known":
            v.known = collapse_msg
        elif collapse_msg and collapse == "reported":
            v.notes.append("not counted: " + collapse_msg)
        elif collapse_msg:
            v.failures.append(collapse_msg)
        return v
    return Command(label, "gen_samples_s", argv, out, check)


def _gen_decoy(out: Path) -> Command:
    p, d, q, count = DECOY
    argv = (["gen-samples"] + _family_args(p, d, q)
            + ["--r", "200.0", "--count", str(count), "--seed", str(DECOY_SEED),
               "--uniform", "--workers", "1", "--out", str(out)])
    return Command("gen decoy p=43", "gen_samples_s", argv, out,
                   lambda text: Verdict(checks.check_uniform_file(text, p, d, q, DECOY_SEED, count)))


def _attacks(tag, row, seed, samples: Path, work: Path, line_share: str = "counted"):
    """Coset and two-bin commands on `samples`; seed None marks a decoy.
    line_share: "counted" or "reported" for the share-on-the-guessed-line check."""
    p, d, q = row[:3]
    cache = {}

    def context():
        if not cache:
            from rlwe_workbench.ffield import FieldCtx  # the program's alpha_p, checked below
            alpha = FieldCtx.for_family(p, d, q).alpha_p
            checks.check_order_p(alpha, p, q)
            truth = None
            if seed is not None:
                u, v = checks.rho(checks.secret_coeffs(seed, q, 2 * (p - 1))[None, :],
                                  p, q, alpha)
                truth = (int(u[0]), int(v[0]))
            cache["ctx"] = (checks.reduced_records(samples.read_text(), p, q, alpha), truth)
        return cache["ctx"]

    def make(attack):
        def check(text):
            records, truth = context()
            failures, share = checks.check_attack(text, attack, q, records, truth)
            v = Verdict(failures)
            if share is not None:
                msg = ("%.4f of records on the guessed line (at least %.2f required)"
                       % (share, checks.MIN_LINE_SHARE))
                if share >= checks.MIN_LINE_SHARE:
                    v.notes.append(msg)
                elif line_share == "reported":
                    v.notes.append("not counted: " + msg)
                else:
                    v.failures.append(msg)
            return v
        out = work / ("report-%s-%s.json" % (tag, attack))
        argv = ["attack", "--attack", attack, "--samples", str(samples),
                "--workers", "1", "--out", str(out)]
        metric = "attack_coset_s" if attack == "coset" else "attack_two_bin_s"
        return Command("%s %s" % (attack, tag), metric, argv, out, check)
    return [make("coset"), make("two-bin")]


def _estimate(m, q, degree, work: Path, long_run=False, empirical=False) -> Command:
    k = 2
    tag = "m%d_q%d_deg%d%s" % (m, q, degree, "_emp" if empirical else "")
    out = work / ("estimate-%s.csv" % tag)
    argv = ["estimate", "--m", str(m), "--q", str(q), "--degree", str(degree),
            "--workers", "1", "--out", str(out)]
    if long_run:
        argv.append("--long-run")
    if empirical:
        argv += ["--empirical", "--seed", str(EMPIRICAL_SEED)]
    own = {}

    def check(text):
        if "eps" not in own:
            own["eps"] = checks.log2_eps(m, q, k, degree)
        return Verdict(checks.check_estimate(text, m, q, k, degree, empirical, own["eps"]))
    return Command("estimate " + tag, "estimate_s", argv, out, check)


def _companions(work: Path):
    decoy = work / "decoy.jsonl"
    return ([_gen_decoy(decoy)] + _attacks("decoy", DECOY, None, decoy, work)
            + [_estimate(*COMPANION_ESTIMATE, 2, work)])


def _interleave(companions, groups):
    """The companions before each group, so that their runs spread over
    the pass; the machine's speed drifts over seconds."""
    return [cmd for group in groups for cmd in companions + group]


def gen_family(work: Path, seed: int):
    """(set-up commands, pass commands)."""
    rows = [_gen_rlwe("gen p=43 r=200", P43_R200, KNOWN_FAILURE_SEED,
                      work / "gen-p43-r200.jsonl", "known"),
            _gen_rlwe("gen p=83 r=200", P83_R200, row_seed(seed, 2),
                      work / "gen-p83-r200.jsonl", "reported"),
            _gen_rlwe("gen p=43 r=694.94", P43_R694, row_seed(seed, 3),
                      work / "gen-p43-r694.jsonl", "counted")]
    return [], _interleave(_companions(work), [[row] for row in rows])


def attack_file(work: Path, seed: int):
    setup, groups = [], []
    for i, (tag, row, line_share) in enumerate([("p=43", P43_R200, "counted"),
                                                ("p=83", P83_R200, "counted"),
                                                ("p=7 q=1051", P7_Q1051, "reported")], 1):
        s = row_seed(seed, i)
        path = work / ("input-%d.jsonl" % i)
        setup.append(_gen_rlwe("input " + tag, row, s, path, "counted"))
        groups.append(_attacks(tag, row, s, path, work, line_share))
    return setup, _interleave(_companions(work), groups)


def estimate_table(work: Path, seed: int):
    rows = ([_estimate(m, q, 1, work) for m, q in DEG1_ROWS]
            + [_estimate(m, q, 2, work) for m, q in DEG2_ROWS]
            + [_estimate(m, q, 2, work, long_run=True) for m, q in DEG2_LONG_RUN_ROWS]
            + [_estimate(m, q, 1, work, empirical=True) for m, q in EMPIRICAL_ROWS])
    return [], _interleave(_companions(work)[:3], [rows])


WORKLOADS = {"gen-family": gen_family, "attack-file": attack_file,
             "estimate-table": estimate_table}
