"""Command-line entry point for the workbench.

Sub-commands and frozen machine-output formats (stdout or --out):

  find-params   CSV: p,d,q,deg,log2_disc,suggested_r_for_r0
  gen-samples   JSONL sample file (wire format in the oracle module)
  attack        JSON: verdict, candidate, chi2_by_index, samples_used,
                elapsed_ms, guesses_evaluated
  estimate      CSV: m,q,k,degree,neg_floor_log2_eps,log2_bound,beta,
                runtime_ms  (--empirical appends chi2_empirical,uniform)

Human-readable notes go to stderr so machine output pipes cleanly.  Every
run is deterministic under fixed --seed (timing fields excluded).  Exit
codes: 0 success, 1 runtime/file failure (out of memory included), 2
usage or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import family as family_mod
from . import oracle as oracle_mod
from .attack import AttackConfig, coset_attack, two_bin_attack
from .estimator import (_LONG_RUN_FIELD, EMPIRICAL_CONFIDENCE, empirical_uniformity,
                        epsilon, epsilon_deg2)
from .oracle import RlweInstance, SampleFileError
from .sampling import MAX_TAIL_CUT, BinomialSpec, GaussianSpec, WidthError


@contextlib.contextmanager
def _out_stream(path):
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextlib.contextmanager
def _width_flag(flag: str, value):
    """Word the sampler's too-wide refusal by the flag and the value given,
    not by the per-coordinate width the sampler derived from it."""
    try:
        yield
    except WidthError:
        raise ValueError("%s %g is too wide to sample: a coordinate's tail cut "
                         "would exceed %d" % (flag, value, MAX_TAIL_CUT)) from None


def _check_r0(r0: float) -> None:
    if not (math.isfinite(r0) and r0 > 0):
        raise ValueError("--r0 must be finite and positive, got %r" % r0)


# ------------------------------------------------------------- find-params

def cmd_find_params(args) -> int:
    _check_r0(args.r0)
    range_mode = args.q_min is not None or args.q_max is not None
    extend_mode = args.q is not None or args.k_max is not None
    if range_mode == extend_mode:
        raise ValueError("pass either --q-min/--q-max (search) or --q/--k-max (extend)")
    if range_mode:
        if args.q_min is None or args.q_max is None:
            raise ValueError("search mode needs both --q-min and --q-max")
        rows = family_mod.search_q(args.p, args.d, args.q_min, args.q_max)
    else:
        if args.q is None or args.k_max is None:
            raise ValueError("extend mode needs both --q and --k-max")
        rows = family_mod.extend_d(args.p, args.q, args.d, args.k_max)
    with _out_stream(args.out) as fh:
        fh.write("p,d,q,deg,log2_disc,suggested_r_for_r0\n")
        for fp in rows:
            fh.write("%d,%d,%d,%d,%.4f,%.4f\n"
                     % (fp.p, fp.d, fp.q, fp.deg, fp.log2_disc, fp.suggested_r(args.r0)))
    _note("%d admissible parameter set(s)" % len(rows))
    return 0


# ------------------------------------------------------------- gen-samples

def _ring_and_error(args):
    if (args.p is None) == (args.m is None):
        raise ValueError("pass exactly one of --p (family ring) or --m (cyclotomic ring)")
    if args.p is not None:
        if args.d is None:
            raise ValueError("family ring needs --d")
        if args.r is None:
            raise ValueError("family ring sampling needs --r")
        if args.k is not None:
            raise ValueError("--k applies only to cyclotomic rings")
    elif (args.r is None) == (args.k is None):
        raise ValueError("cyclotomic sampling needs exactly one of --r or --k")
    ring = family_mod.validate_ring(args.p, args.d, args.m, args.q)
    return ring, (GaussianSpec(args.r) if args.r is not None else BinomialSpec(args.k))


def cmd_gen_samples(args) -> int:
    ring, error = _ring_and_error(args)
    count = args.count if args.count is not None else 10 * args.q
    instance = RlweInstance.generate(ring, error, args.seed)
    if args.uniform:
        sample_set = oracle_mod.draw_uniform(instance, count)
    else:
        with _width_flag("--r", args.r):
            sample_set = oracle_mod.draw_rlwe(instance, count)
    with _out_stream(args.out) as fh:
        oracle_mod.dump(sample_set, fh)
    _note("wrote %d %s record(s) (seed %d)"
          % (count, sample_set.header["error_kind"], args.seed))
    return 0


# ------------------------------------------------------------------ attack

def cmd_attack(args) -> int:
    sample_set = oracle_mod.load(args.samples)
    config = AttackConfig(beta_chi=args.beta_chi, min_samples=args.min_samples)
    run = coset_attack if args.attack == "coset" else two_bin_attack
    outcome = run(sample_set, config)
    with _out_stream(args.out) as fh:
        outcome.report(fh)
    _note("verdict: %s%s  (%d samples used, %d guesses, %.1f ms)"
          % (outcome.verdict,
             "" if outcome.candidate is None else " candidate=%s" % (outcome.candidate,),
             outcome.samples_used, outcome.guesses_evaluated, outcome.elapsed_ms))
    return 0


# ---------------------------------------------------------------- estimate

def cmd_estimate(args) -> int:
    if args.empirical:
        if args.degree != 1:
            raise ValueError("--empirical reduces into F_q and needs --degree 1")
        _check_r0(args.r0)
    if args.degree == 1:
        report = epsilon(args.m, args.q, args.k, long_run=args.long_run)
    else:
        report = epsilon_deg2(args.m, args.q, args.k, long_run=args.long_run)
    header = "m,q,k,degree,neg_floor_log2_eps,log2_bound,beta,runtime_ms"
    row = "%d,%d,%d,%d,%d,%s,%.6f,%.3f" % (
        report.m, report.q, report.k, report.degree, report.neg_floor_log2_eps,
        "" if report.log2_bound is None else "%.4f" % report.log2_bound,
        report.beta, report.runtime_ms)
    if args.empirical:
        count = args.count if args.count is not None else 10 * args.q
        with _width_flag("--r0", args.r0):
            emp = empirical_uniformity(args.m, args.q, args.r0, count, args.seed)
        header += ",chi2_empirical,uniform"
        row += ",%.4f,%s" % (emp.chi2, "yes" if emp.uniform else "no")
        _note("uniform: %s (chi2 %.2f vs critical %.2f at %g)"
              % ("yes" if emp.uniform else "no", emp.chi2, emp.critical,
                 EMPIRICAL_CONFIDENCE))
    with _out_stream(args.out) as fh:
        fh.write(header + "\n")
        fh.write(row + "\n")
    return 0


# ----------------------------------------------------------------- parsing

_WORKERS_HELP = "accepted for compatibility and ignored: every subcommand runs in one process"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlwe-workbench",
        description="Cryptanalysis workbench for non-dual discrete RLWE: "
                    "vulnerable-field search, sample generation, chi-square "
                    "attacks, and cyclotomic security estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("find-params", help="search or extend attackable (p, d, q)")
    fp.add_argument("--p", type=int, required=True, help="odd prime p")
    fp.add_argument("--d", type=int, required=True, help="squarefree d = 2, 3 (mod 4)")
    fp.add_argument("--q-min", type=int, help="lower end of the q search range")
    fp.add_argument("--q-max", type=int, help="upper end of the q search range")
    fp.add_argument("--q", type=int, help="fixed q for --k-max extension mode")
    fp.add_argument("--k-max", type=int, help="extend d by 4kq for k = 1..k-max")
    fp.add_argument("--r0", type=float, default=1.0,
                    help="normalized width the suggested r column targets")
    fp.add_argument("--out", help="CSV path (default stdout)")
    fp.set_defaults(func=cmd_find_params)

    gs = sub.add_parser("gen-samples", help="generate an RLWE or decoy sample file")
    gs.add_argument("--p", type=int, help="family ring: odd prime p")
    gs.add_argument("--d", type=int, help="family ring: squarefree d")
    gs.add_argument("--m", type=int, help="cyclotomic ring: 2-power conductor")
    gs.add_argument("--q", type=int, required=True, help="modulus q")
    gs.add_argument("--r", type=float, help="Gaussian width r")
    gs.add_argument("--k", type=int, help="shifted-binomial parameter (cyclotomic only)")
    gs.add_argument("--count", type=int, help="records to draw (default 10q)")
    gs.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    gs.add_argument("--uniform", action="store_true", help="uniform decoy set")
    gs.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    gs.add_argument("--out", help="sample file path (default stdout)")
    gs.set_defaults(func=cmd_gen_samples)

    at = sub.add_parser("attack", help="run a chi-square attack on a sample file")
    at.add_argument("--attack", choices=("two-bin", "coset"), required=True)
    at.add_argument("--samples", required=True, help="JSONL sample file")
    at.add_argument("--beta-chi", type=float, help="chi-square flag threshold "
                    "(default: family-wise per attack)")
    at.add_argument("--min-samples", type=int, help="usable-sample floor (default 5q)")
    at.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    at.add_argument("--out", help="JSON report path (default stdout)")
    at.set_defaults(func=cmd_attack)

    es = sub.add_parser("estimate", help="cyclotomic security estimate")
    es.add_argument("--m", type=int, required=True, help="2-power conductor")
    es.add_argument("--q", type=int, required=True, help="prime modulus")
    es.add_argument("--k", type=int, default=2, help="even binomial parameter")
    es.add_argument("--degree", type=int, choices=(1, 2), default=1,
                    help="residue degree of the reduction (default 1)")
    es.add_argument("--long-run", action="store_true",
                    help="allow fields of more than {:,} elements "
                         "(q at degree 1, q^2 at degree 2)".format(_LONG_RUN_FIELD))
    es.add_argument("--empirical", action="store_true",
                    help="also draw reduced Gaussian errors and chi-square them")
    es.add_argument("--r0", type=float, default=math.sqrt(2 * math.pi),
                    help="empirical per-coefficient width (default sqrt(2*pi))")
    es.add_argument("--count", type=int, help="empirical sample count (default 10q)")
    es.add_argument("--seed", type=int, default=0, help="empirical seed (default 0)")
    es.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    es.add_argument("--out", help="CSV path (default stdout)")
    es.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SampleFileError as exc:
        _note("error: %s" % exc)
        return 1
    except ValueError as exc:
        _note("error: %s" % exc)
        return 2
    except OSError as exc:
        _note("error: %s" % exc)
        return 1
    except MemoryError as exc:  # e.g. arrays sized from a huge --count
        _note("error: out of memory%s" % (": %s" % exc if str(exc) else ""))
        return 1


if __name__ == "__main__":
    sys.exit(main())
