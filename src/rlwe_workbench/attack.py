"""Chi-square attacks on RLWE modulo a residue-degree-2 prime.

Both attacks reduce every sample through rho: R/qR -> F_{q^2}, writing
rho(a) = (a1, a2) and rho(b) = (b1, b2) on the F_q-basis {1, sqrt(d)}.
For a guess rho(s) = (u, v), the residual rho(b) - (u + v sqrt(d)) rho(a)
lands in the subfield F_q iff

    b2 = u*a2 + v*a1 (mod q).

Under the null (uniform b) that event has probability 1/q; with the
correct guess and an error whose sqrt(d)-block reduces to 0 it is
near-certain.  Both attacks count through `_guess_rows`, which yields the
q x q incidence matrix a block of rows at a time:

    row t, column u   records with a2 != 0 and b2 = u*a2 + t*a1, plus
                      the records with a2 = 0 and b2 = t*a1, which
                      support every u in row t.

With x = b2/a2 and g = a1/a2, row t's first part is the histogram of
x - t*g mod q.  The rows are stepped rather than reduced: row t + 1's
residues are row t's minus g, wrapped once back into [0, q), so the matrix
costs q bincounts plus one subtract and one wrap per record and row, and no
integer division.

two_bin_attack
    Scores all q^2 cells with two-bin chi-square statistics (F_q versus
    its complement).  It counts with the roles of a1 and a2 swapped, so
    row u, column v is the number of records in the F_q bin for the guess
    (u, v), and the rows in order are the report order u*q + v.

coset_attack
    Scores the q rows: row t is the coset (0, t) + F_q of F_{q^2}, and
    its records are (b2 - t*a1)/a2, the F_q value of
    m_t = (conj(b) - b - conj(a*t) + a*t) / (conj(a) - a).  For the coset
    holding rho(s)'s second coordinate, m_t = s0 + (conj(e)-e)/(conj(a)-a)
    sticks at the constant s0 whenever the error reduces into F_q, so
    that row spikes, and the candidates are its modal values; wrong rows
    stay uniform.  Records with a2 = 0 carry no coset information and are
    dropped.  q guesses instead of q^2.

Default thresholds are family-wise: a run makes q (coset) or q^2 (two-bin)
independent-ish tests, so per-test significance is scaled to keep the
whole-run false-flag probability near 0.01.  Pass the keyword beta_chi to
override (e.g. the single-test 0.99 quantile critical_value(q-1, 0.99)).

Both attacks run in the calling process: a process pool measured slower
than one worker at every size tried, up to q = 1051.

Memory: coset_attack holds nothing q^2-sized; it scores each block of at
most _BLOCK cells as it arrives.  two_bin_attack holds the int32 count
matrix, which is its per-guess index; a gather on an int32 index casts it
to intp in small buffers, so the index is never widened whole (np.bincount
and np.take would widen it).  AttackOutcome.report writes its line in
pieces of at most _BLOCK scores.  The tracemalloc peak of an attack and its
report is about 5.5 bytes per guess for two-bin (6.1 MB at q = 1051, 57 MB
at q = 3329), and for coset 1.2 MB and 3.2 MB, none of it q^2-sized.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import List, Optional, Tuple

import numpy as np

from .ffield import power_table, root_of_unity
from .oracle import SampleSet
from .rings import FamilyRing, reduce_mod_prime_batch

VERDICT_GUESS = "GUESS"
VERDICT_NOT_RLWE = "NOT-RLWE"
VERDICT_INSUFFICIENT = "INSUFFICIENT-SAMPLES"

# cells per block of guess-count rows, and scores per report piece
_BLOCK = 1 << 14


def critical_value(dof: int, confidence: float) -> float:
    """Chi-square quantile by Wilson-Hilferty, for dof >= 2: every test
    here has q - 1 >= 4 degrees of freedom."""
    if dof < 2:
        raise ValueError("dof must be >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(confidence)
    t = 2.0 / (9.0 * dof)
    return dof * (1.0 - t + z * math.sqrt(t)) ** 3


@dataclass
class AttackOutcome:
    """scores is (values, index): the score of guess i is values[index[i]].
    index is the int32 count matrix in report order (two-bin) or
    np.unique's inverse (coset), one entry per guess."""
    verdict: str
    candidate: Optional[Tuple[int, int]]
    scores: Tuple[np.ndarray, np.ndarray]
    samples_used: int
    guesses_evaluated: int
    elapsed_ms: float
    candidates: List[Tuple[int, int]] = field(default_factory=list)
    beta_chi: float = float("nan")

    @property
    def chi2_by_index(self) -> np.ndarray:
        values, index = self.scores
        return values[index]

    def report(self, fh) -> None:
        """Write the six-key JSON report line and its newline to fh: the
        bytes of json.dumps on the report dict, with each score rounded to
        6 places.

        Each value the index uses is rounded and encoded once.  The two-bin
        values are one per bin-1 count, so no float is sorted or compared:
        26 of them are used among the 1.1M guesses at q = 1051.  The array
        is written in pieces of at most _BLOCK tokens gathered by index, so
        the 10 MB line is never held whole."""
        values, index = self.scores
        used = np.zeros(len(values), dtype=bool)
        used[index] = True
        tokens = np.empty(len(values), dtype=object)
        tokens[used] = [json.dumps(round(v, 6)) for v in values[used].tolist()]
        fh.write('{"verdict": %s, "candidate": %s, "chi2_by_index": ['
                 % (json.dumps(self.verdict),
                    json.dumps(None if self.candidate is None else list(self.candidate))))
        for lo in range(0, len(index), _BLOCK):
            fh.write((", " if lo else "") + ", ".join(tokens[index[lo:lo + _BLOCK]].tolist()))
        fh.write('], "samples_used": %s, "elapsed_ms": %s, "guesses_evaluated": %s}\n'
                 % (json.dumps(self.samples_used),
                    json.dumps(round(self.elapsed_ms, 3)),
                    json.dumps(self.guesses_evaluated)))


def _verdict(candidates: List[Tuple[int, int]]):
    if not candidates:
        return VERDICT_NOT_RLWE, None
    if len(candidates) == 1:
        return VERDICT_GUESS, candidates[0]
    return VERDICT_INSUFFICIENT, None


def _check_beta_chi(beta_chi: Optional[float]) -> None:
    if beta_chi is not None and not beta_chi > 0:
        raise ValueError("beta_chi must be positive")


def _rho_batch(samples: SampleSet):
    """(a1, a2, b2) in [0, q): rho(a) and the sqrt(d) coordinate of rho(b)."""
    ring = samples.ring
    if not isinstance(ring, FamilyRing):
        raise ValueError("attacks need a prime of residue degree 2: family-ring "
                         "samples only (this ring reduces into F_q itself)")
    a1, a2 = reduce_mod_prime_batch(samples.a, ring)
    _, b2 = reduce_mod_prime_batch(samples.b, ring)
    return a1, a2, b2


def _inverse_table(q: int) -> np.ndarray:
    """inv[w] = w^(-1) mod q for w in 1..q-1 (inv[0] unused, set to 0),
    from one table of generator powers: inv[g^k] = g^(q-1-k)."""
    gpow = power_table(root_of_unity(q - 1, q), q - 1, q)
    inv = np.zeros(q, dtype=np.int64)
    inv[gpow] = gpow[-np.arange(q - 1) % (q - 1)]
    return inv


def _guess_rows(a1, a2, b2, q: int):
    """Yields (t0, rows) over t0 = 0 .. q-1 for reduced records: rows[i][u]
    is the number of records with b2 = u*a2 + t*a1, t = t0 + i, those with
    a2 = 0 counting in every u of the rows t with b2 = t*a1.  The blocks
    hold at most _BLOCK cells of one reused int32 buffer, which holds any
    count below 2^31 records: read each block before taking the next."""
    if len(a1) >= 2 ** 31:
        raise ValueError("guess counts are int32: at most 2^31 - 1 records, got %d"
                         % len(a1))
    inv = _inverse_table(q)
    keep = a2 != 0
    ainv = inv[a2[keep]]
    y = b2[keep] * ainv % q  # row t's residues x - t*g, starting at t = 0
    g = a1[keep] * ainv % q
    a1z, b2z = a1[~keep], b2[~keep]
    fixed = np.bincount(b2z[a1z != 0] * inv[a1z[a1z != 0]] % q, minlength=q)
    fixed += int(np.count_nonzero((a1z == 0) & (b2z == 0)))
    buf = np.empty((max(1, _BLOCK // q), q), dtype=np.int32)
    for t0 in range(0, q, len(buf)):
        rows = buf[:q - t0]
        for t, row in enumerate(rows, t0):
            row[:] = np.bincount(y, minlength=q) + fixed[t]
            # step to the next row: y - g lies in (-q, q), and q & (y >> 63)
            # adds q exactly where it went negative
            y -= g
            y += q & (y >> 63)
        yield t0, rows


# ------------------------------------------------------------------ coset

def default_beta_coset(q: int) -> float:
    """Family-wise threshold: per-coset significance 0.01/q over q cosets."""
    return critical_value(q - 1, 1.0 - 0.01 / q)


def coset_attack(samples: SampleSet, *, beta_chi: Optional[float] = None,
                 min_samples: Optional[int] = None) -> AttackOutcome:
    """Algorithm: q coset guesses, modal m_t recovery, chi-square flagging.
    beta_chi and min_samples default to default_beta_coset(q) and 5q."""
    t0 = time.perf_counter()
    _check_beta_chi(beta_chi)
    q = samples.ring.q
    a1, a2, b2 = _rho_batch(samples)
    usable = int(np.count_nonzero(a2))
    beta = beta_chi if beta_chi is not None else default_beta_coset(q)
    min_samples = min_samples if min_samples is not None else 5 * q
    if usable == 0 or usable < min_samples:
        return AttackOutcome(VERDICT_INSUFFICIENT, None,
                             np.unique(np.zeros(q), return_inverse=True), usable, 0,
                             (time.perf_counter() - t0) * 1e3, [], beta)
    keep = a2 != 0
    exp = usable / q
    chi2 = np.empty(q)
    candidates = []
    for lo, rows in _guess_rows(a1[keep], a2[keep], b2[keep], q):
        # each row is summed as a whole, so the sums do not depend on the block
        block = chi2[lo:lo + len(rows)]
        block[:] = ((rows - exp) ** 2).sum(axis=1) / exp
        for i in np.flatnonzero(block > beta).tolist():
            candidates.extend((int(s0), lo + i)
                              for s0 in np.flatnonzero(rows[i] == rows[i].max()))
    verdict, cand = _verdict(candidates)
    return AttackOutcome(verdict, cand, np.unique(chi2, return_inverse=True), usable, q,
                         (time.perf_counter() - t0) * 1e3, candidates, beta)


# ---------------------------------------------------------------- two-bin

def _log_binom_pmf(m: int, p: float, k: int) -> float:
    return (math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * math.log(p) + (m - k) * math.log1p(-p))


def _binom_upper_quantile(m: int, p: float, alpha: float) -> int:
    """Smallest c with P(Binomial(m, p) >= c) <= alpha."""
    mean = m * p
    sd = math.sqrt(m * p * (1.0 - p))
    hi = min(m, int(mean + 40.0 * sd) + 2)
    tail = 0.0
    for k in range(hi, -1, -1):
        tail += math.exp(_log_binom_pmf(m, p, k))
        if tail > alpha:
            return k + 1
    return 0


def _two_bin_stat(count, m: int, q: int):
    """Chi-square over bins (F_q, complement) for bin-1 count(s)."""
    exp1 = m / q
    return (np.asarray(count, dtype=np.float64) - exp1) ** 2 * q * q / (m * (q - 1.0))


def default_beta_two_bin(q: int, sample_count: int) -> float:
    """Family-wise threshold over q^2 guesses via the exact binomial tail.

    The bin-1 count under the null is Binomial(M, 1/q), whose right tail is
    far heavier than the chi-square(1) approximation at the tiny per-guess
    significance 0.01/q^2 a q^2-guess sweep needs.  The threshold is placed
    half a count below the exact binomial upper quantile at 0.005/q^2
    (half the budget, since the statistic is two-sided); the lower tail
    cannot reach that statistic value at any usable M.
    """
    alpha = 0.005 / (q * q)
    c_hi = _binom_upper_quantile(sample_count, 1.0 / q, alpha)
    return float(_two_bin_stat(c_hi - 0.5, sample_count, q))


def two_bin_attack(samples: SampleSet, *, beta_chi: Optional[float] = None,
                   min_samples: Optional[int] = None) -> AttackOutcome:
    """All q^2 guesses g, two bins per guess: residual in F_q or not.
    beta_chi and min_samples default to default_beta_two_bin and 5q."""
    t0 = time.perf_counter()
    _check_beta_chi(beta_chi)
    q = samples.ring.q
    m = len(samples)
    a1, a2, b2 = _rho_batch(samples)
    # at least one record, whatever the override: the statistic divides by m
    min_samples = max(min_samples if min_samples is not None else 5 * q, 1)
    if m < min_samples:
        raise ValueError("two-bin attack needs at least %d samples, got %d"
                         % (min_samples, m))
    beta = beta_chi if beta_chi is not None else default_beta_two_bin(q, m)
    # with a1 and a2 swapped, row u of the counts holds the guesses (u, v),
    # so the filled matrix is the report index u*q + v; the score is a
    # function of that bin-1 count, so it is computed once per count
    index = np.empty(q * q, dtype=np.int32)
    for u0, rows in _guess_rows(a2, a1, b2, q):
        index.reshape(q, q)[u0:u0 + len(rows)] = rows
    values = _two_bin_stat(np.arange(index.max() + 1), m, q)
    candidates = [(i // q, i % q) for i in np.flatnonzero((values > beta)[index]).tolist()]
    verdict, cand = _verdict(candidates)
    return AttackOutcome(verdict, cand, (values, index), m, q * q,
                         (time.perf_counter() - t0) * 1e3, candidates, beta)
