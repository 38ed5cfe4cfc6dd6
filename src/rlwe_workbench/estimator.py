"""Fourier-analytic distance-from-uniform estimates for 2-power cyclotomic
RLWE error distributions, and the seeded empirical uniformity experiment.

The central quantity, for m a power of 2, n = m/2, q prime with a root
alpha of order m, and even k >= 2:

    eps(m, q, k, alpha) = (1/2) * sum_{y in F_q, y != 0}
                              prod_{i=0}^{n-1} cos(pi * alpha^i * y / q)^k

It upper-bounds the statistical distance between (sum_i alpha^i e_i mod q)
with e_i i.i.d. shifted-binomial V_k and the uniform distribution on F_q.

Orbit collapsing.  Let H = <alpha>, the unique order-m subgroup of F_q*.
The per-y term is invariant along H-orbits: alpha^n = -1 for a root of
exact 2-power order m, so {alpha^i y : i < n} is a transversal of the
+/- pairs inside yH, and cos^k is even.  Hence the term equals
prod over those pairs of cos(pi z / q)^k, which depends only on the coset
yH — not on y's position in it and not on which primitive root generated
H.  Two consequences used throughout:

  * eps(m, q, k, alpha) is the same for every root alpha of exact order m
    (they all generate H), so one computation gives the maximum over all
    phi(m) of them;
  * the y-sum needs one term per coset, (q-1)/m of them, n cosines each:
    (q-1)/2 cosine evaluations in total instead of n*(q-1).

At degree 1, write alpha = gamma^t for gamma = root_of_unity(q-1, q) and
t = (q-1)/m.  The first n t = (q-1)/2 powers of gamma, laid out as an
n x t grid, hold alpha^i gamma^s at row i, column s: the columns run over
one y = gamma^s per coset of H, the rows over i < n.  Each term is k times
the sum down its column, in order of i, of log2|cos(pi x / q)| evaluated
at its n cells; the grid is one reshape of power_table, its cells are
distinct, and no product or reduction mod q is formed.  Degree 2 sums the
same way down an e x N grid of the powers of gamma (see below); both go
through _class_logs.  Values reach 2^-1600 at larger k; the terms are
summed by max-shifted exponent accumulation, with none dropped.

The degree-2 variant replaces F_q by F_{q^2} (alpha of order m | q^2-1,
m not dividing q-1) and puts a trace inside the cosine:
term(y) = prod_{i=1}^{n} cos(pi * Tr(alpha^i y) / q)^k over y != 0 in
F_{q^2}, with Tr(u + v*sqrt(w)) = 2u.  It is summed over the orbits of H
on the projective line P^1(F_q) = F_{q^2}^* / F_q^*, not over the cosets
of H in F_{q^2}^*.  Let K = H ∩ F_q^*, of order e = gcd(m, q-1): 2 when
q = 3 (mod 4), m/2 when q = 1 (mod 4).  As alpha^n = -1 and cos^k is even,
log2 term(y) = (1/2) sum_{h in H} k log2|cos(pi Tr(h y) / q)|, and the
trace is F_q-linear, Tr(kappa h y) = kappa Tr(h y) for kappa in K, so

    log2 term(y) = sum_{h in H/K} Lambda(Tr(h y)),
    Lambda(x) = (1/2) sum_{kappa in K} k log2|cos(pi kappa x / q)|,

with Lambda(0) = 0.  H F_q^* has index d = (q+1) e / m in F_{q^2}^*, so
every y is c h z with c in F_q^*, h in H and z = g^j, j < d, for g a
generator of F_{q^2}^*, each y e times over; and term(c z) depends on c
only through its class c K.  Hence

    sum_{y != 0} term(y) = m * sum_{j < d} sum_{c in F_q^*/K} term(c g^j),

d N values with N = (q-1)/e, summed as at degree 1.

Write c = gamma^s, gamma the generator of F_q^* used at degree 1.
Lambda(gamma^t) depends only on t mod N, since gamma^N generates K, so the
N values of one z form a cyclic correlation: log2 term(gamma^s z) =
sum_r hist[r] L[(r + s) mod N], with L[t] = Lambda(gamma^t) and hist[r]
the number of h in H/K with Tr(h z) in gamma^r K (a zero trace adds
nothing).  Column t of the e x N grid of the first q-1 powers of gamma is
the class gamma^t K, so L is k/2 times its column sums.  One rfft/irfft
pair gives the correlation as the linear correlation of hist with L laid
twice end to end, read at lags s < N, which no length >= 2N wraps.  The
length is the smallest 2^a 3^b 5^c >= 2N: numpy's pocketfft splits that
into its fast radices, while a length with a large prime factor goes
through Bluestein's algorithm at several times the cost.  The
representatives go _FFT_BLOCK histogram cells at a time, each block summed
to one log-sum-exp, so the sum holds O(q) tables (L, the class of each
element of F_q, the q+1 traces Tr(h z)) and one block, and its time
grows as (q^2/m) log q.  Its rounding is not that of a per-element sum;
the two agree to about 1e-12 in log2 eps.

A field of more than 1.5e6 elements (q at degree 1, q^2 at degree 2) sits
behind long_run=True: the degree-1 sum holds (q-1)/2 powers of gamma, and
the degree-2 time grows with q^2/m.

The field kit comes from the ffield module: root_of_unity and power_table
in F_q, and in F_{q^2} = F_q[sqrt(w)], w = smallest_nonresidue(q),
fq2_generator, fq2_pow and fq2_power_table, whose (u, v) arrays give the
powers alpha^i, i < m/e, and the representatives g^j, j < d.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attack import critical_value
from .ffield import (fq2_generator, fq2_pow, fq2_power_table, is_prime, power_table,
                     root_of_unity, smallest_nonresidue)
from .rings import CycloRing, reduce_mod_prime_batch
from .sampling import GaussianSpec, RngHandle, sample_lattice_gauss_batch

_LONG_RUN_FIELD = 1_500_000  # field elements: q at degree 1, q^2 at degree 2
_CLASS_BLOCK = 1 << 16  # grid cells evaluated per block of _class_logs
_FFT_BLOCK = 1 << 16  # histogram cells per block of _line_orbit_logs


def _check_field_size(name: str, size: int, long_run: bool) -> None:
    if size > _LONG_RUN_FIELD and not long_run:
        raise ValueError("%s = %d exceeds the desk-scale budget; pass long_run=True "
                         "(--long-run on the command line)" % (name, size))


def _is_pow2(m: int) -> bool:
    return m >= 2 and m & (m - 1) == 0


def _check_mk(m: int, k: int) -> None:
    if not _is_pow2(m):
        raise ValueError("m=%d is not a power of 2 >= 2" % m)
    if k < 2 or k % 2:
        raise ValueError("k=%d is not an even integer >= 2" % k)


def _logsumexp2(logs: np.ndarray) -> float:
    if logs.size == 0:
        return -math.inf
    top = float(logs.max())
    return top + math.log2(np.exp2(logs - top).sum())


def _class_logs(q: int, rows: int, cols: int) -> np.ndarray:
    """sum_{i < rows} log2|cos(pi gamma^(i cols + s) / q)| for each s < cols,
    gamma = root_of_unity(q-1, q): the column sums of the first rows * cols
    powers of gamma laid out as a rows x cols grid.

    The grid's cells are distinct powers of gamma, so each cosine is
    evaluated once, at its own cell.  The grid goes _CLASS_BLOCK // rows
    columns at a time, and each block is summed down its columns in order
    of i.  numpy sums a one-column block pairwise instead, so a block holds
    at least two columns when cols >= 2, and the last one ends at cols,
    overlapping the block before it."""
    grid = power_table(root_of_unity(q - 1, q), rows * cols, q).reshape(rows, cols)
    step = min(cols, max(2, _CLASS_BLOCK // rows))
    logs = np.empty(cols)
    for lo in range(0, cols, step):
        lo = min(lo, cols - step)
        # q odd => no power of gamma is q/2, so no cosine is exactly 0; one
        # expression, so each temporary is freed once the next is made
        logs[lo:lo + step] = np.log2(
            np.abs(np.cos(np.pi * grid[:, lo:lo + step] / q))).sum(axis=0)
    return logs


# ---------------------------------------------------------------- degree 1

def _assemble_log2_eps(m: int, orbit_logs: np.ndarray) -> float:
    # sum over y != 0 = m * (sum over coset representatives); then * 1/2
    return math.log2(m) - 1.0 + _logsumexp2(orbit_logs)


@dataclass
class EstimateReport:
    m: int
    q: int
    k: int
    degree: int
    log2_eps: float
    log2_bound: Optional[float]
    beta: float
    runtime_ms: float

    @property
    def neg_floor_log2_eps(self) -> int:
        return int(math.floor(-self.log2_eps))


def _beta_gauss(m: int, q: int) -> float:
    return (1.0 + math.sqrt(q) / m) / 2.0


def theoretical_bound(m: int, q: int, k: int) -> float:
    """log2 of (q-1)/2 * beta^(km/4), beta = (1 + sqrt(q)/m)/2.

    Requires q < m^2 so that beta < 1 and the bound decays.  The formula
    itself is congruence-agnostic and is also reported for degree-2
    instances (where m | q^2-1 rather than q-1) as a reference value.
    """
    _check_mk(m, k)
    if q >= m * m:
        raise ValueError("bound needs q < m^2 (beta < 1); got q=%d, m=%d" % (q, m))
    return math.log2((q - 1) / 2.0) + (k * m / 4.0) * math.log2(_beta_gauss(m, q))


def _bound_or_none(m: int, q: int, k: int) -> Optional[float]:
    return theoretical_bound(m, q, k) if q < m * m else None


def epsilon(m: int, q: int, k: int, long_run: bool = False) -> EstimateReport:
    """eps(m, q, k) maximized over all phi(m) primitive m-th roots mod q."""
    t0 = time.perf_counter()
    _check_mk(m, k)
    if not is_prime(q):
        raise ValueError("q=%d is not prime" % q)
    if (q - 1) % m != 0:
        raise ValueError("no m-th roots of unity: q=%d is not 1 mod m=%d" % (q, m))
    _check_field_size("q", q, long_run)
    t = (q - 1) // m
    if t == 1:
        # q = m + 1 (a Fermat prime): H is all of F_q*, and the one term is
        # prod_{z=1}^{(q-1)/2} cos(pi z / q)^k = 2^(-k(q-1)/2) exactly, which
        # an in-order float sum of logarithms misses by a few ulps
        log2_eps = math.log2(m) - 1.0 - k * m // 2
    else:
        # row i, column s of the grid is alpha^i gamma^s for alpha = gamma^t:
        # the columns are one y per coset of H in F_q*
        log2_eps = _assemble_log2_eps(m, k * _class_logs(q, m // 2, t))
    return EstimateReport(m, q, k, 1, log2_eps,
                          _bound_or_none(m, q, k), _beta_gauss(m, q),
                          (time.perf_counter() - t0) * 1e3)


# ---------------------------------------------------------------- degree 2

def deg2_admissible(m: int, q: int) -> bool:
    """q prime with an order-m root in F_{q^2} but none in F_q."""
    return (_is_pow2(m) and is_prime(q)
            and (q * q - 1) % m == 0 and (q - 1) % m != 0)


def nearest_admissible_q_deg2(m: int, q0: int) -> Optional[int]:
    """The admissible prime in (2, 2 q0) closest to q0 (smaller wins a tie),
    or None.  For a 2-power m >= 4, m | q^2-1 only if q = +-1 (mod m/2), so
    only those q are tried; m = 2 divides q-1 whenever it divides q^2-1."""
    if not _is_pow2(m) or m < 4:
        return None
    h = m // 2
    below = (x for b in range(q0 - q0 % h + h, 0, -h) for x in (b + 1, b - 1)
             if 2 < x <= q0)
    above = (x for b in range(q0 - q0 % h, 2 * q0 + h, h) for x in (b - 1, b + 1)
             if q0 < x < 2 * q0)
    nearest_first = heapq.merge(below, above, key=lambda x: (abs(x - q0), x))
    return next((x for x in nearest_first if deg2_admissible(m, x)), None)


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n >= 1, a length pocketfft splits into
    its fast radices with no Bluestein step."""
    best = 1 << (n - 1).bit_length()
    p35 = 1
    while p35 < best:
        p3 = p35
        while p3 < best:
            best = min(best, p3 << (-(-n // p3) - 1).bit_length())
            p3 *= 3
        p35 *= 5
    return best


def _line_orbit_logs(m: int, q: int, k: int):
    """Yields blocks of rows, one row per orbit of H on the projective
    line, in order of j < d: row j holds log2 term(gamma^s g^j), s < N, for
    g = fq2_generator(q, w) and gamma = root_of_unity(q-1, q), where
    e = |K| = gcd(m, q-1), N = (q-1)/e and d = (q+1)e/m.  A block holds at
    most _FFT_BLOCK cells of its zero-padded histogram rows (at least one
    row).

    With L[t] = Lambda(gamma^t) and hist[r] the number of h in H/K with
    Tr(h z) = gamma^r K, a row is the cyclic correlation
    sum_r hist[r] L[(r + s) mod N]: the linear correlation of hist with L
    twice over, read at lags s < N, which no length >= 2N wraps."""
    w = smallest_nonresidue(q)
    e = math.gcd(m, q - 1)
    big_n = (q - 1) // e
    d = (q + 1) * e // m
    g = fq2_generator(q, w)
    alpha = fq2_pow(g, (q * q - 1) // m, q, w)  # order m
    # K = <gamma^N>: column t of the e x N grid is the coset gamma^t K
    lam = (0.5 * k) * _class_logs(q, e, big_n)
    gpow = power_table(root_of_unity(q - 1, q), q - 1, q)
    size = _fft_size(2 * big_n)
    lam_hat = np.fft.rfft(np.tile(lam, 2), size)
    # the class of x in F_q^*/K, and bin N for x = 0 (Lambda(0) = 0)
    cls = np.empty(q, dtype=np.int64)
    cls[gpow] = np.arange(q - 1) % big_n
    cls[0] = big_n
    # alpha^i, i < m/e, is a transversal of H/K; g^j, j < d, of the orbits.
    # Tr(alpha^i g^j) = 2(c u + w d v) for alpha^i = c + d sqrt(w) and
    # g^j = u + v sqrt(w); the q+1 products alpha^i g^j are one per point
    # of the line
    cs, ds = fq2_power_table(alpha, m // e, q, w)
    zu, zv = fq2_power_table(g, d, q, w)
    tr_cls = cls[(2 * cs[:, None] * zu + 2 * w * ds[:, None] % q * zv) % q]
    step = max(1, _FFT_BLOCK // size)
    for j0 in range(0, d, step):
        block = tr_cls[:, j0:j0 + step]
        rows = block.shape[1]
        hist = np.bincount((block + (big_n + 1) * np.arange(rows)).ravel(),
                           minlength=rows * (big_n + 1)).reshape(rows, big_n + 1)
        hist_hat = np.fft.rfft(hist[:, :big_n], size, axis=1)
        yield np.fft.irfft(hist_hat.conj() * lam_hat, size, axis=1)[:, :big_n]


def epsilon_deg2(m: int, q: int, k: int, long_run: bool = False) -> EstimateReport:
    """Degree-2 estimate: y runs over F_{q^2} \\ {0}, trace inside the cosine."""
    t0 = time.perf_counter()
    _check_mk(m, k)
    if not is_prime(q):
        raise ValueError("q=%d is not prime" % q)
    if not deg2_admissible(m, q):
        near = nearest_admissible_q_deg2(m, q)
        raise ValueError(
            "degree-2 needs m | q^2-1 and m not dividing q-1; (m=%d, q=%d) fails%s"
            % (m, q, "" if near is None else " (nearest admissible q is %d)" % near))
    _check_field_size("q^2", q * q, long_run)
    block_sums = [_logsumexp2(logs) for logs in _line_orbit_logs(m, q, k)]
    log2_eps = _assemble_log2_eps(m, np.array(block_sums))
    return EstimateReport(m, q, k, 2, log2_eps,
                          _bound_or_none(m, q, k), _beta_gauss(m, q),
                          (time.perf_counter() - t0) * 1e3)


# ------------------------------------------------- empirical uniformity runs

_EMPIRICAL_DRAWS = 1 << 16  # coefficients drawn and reduced at a time
EMPIRICAL_CONFIDENCE = 0.99  # of the chi-square test against uniform


@dataclass
class EmpiricalResult:
    chi2: float
    critical: float
    uniform: bool


def empirical_uniformity(m: int, q: int, r0: float, count: int,
                         seed: int) -> EmpiricalResult:
    """Seeded experiment: draw `count` ring errors of per-coefficient width
    r0 (i.e. r = r0 * sqrt(n) before discriminant normalization), reduce
    through rho into F_q, and chi-square the histogram against uniform.

    The errors are drawn and reduced _EMPIRICAL_DRAWS // n records at a
    time, all from one RngHandle(seed): the 1-D sampler spends one 64-bit
    output per coefficient, so the draws are those of one full-size call,
    without its (count, n) array."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ring = CycloRing(m, q)
    spec = GaussianSpec(r0 * math.sqrt(ring.n))
    rng = RngHandle(seed)
    per = max(1, _EMPIRICAL_DRAWS // ring.n)
    counts = np.zeros(q, dtype=np.int64)
    for start in range(0, count, per):
        coeffs, _ = sample_lattice_gauss_batch(ring, spec, rng, min(per, count - start))
        counts += np.bincount(reduce_mod_prime_batch(coeffs, ring), minlength=q)
    exp = count / q
    chi2 = float(((counts - exp) ** 2).sum() / exp)
    crit = critical_value(q - 1, EMPIRICAL_CONFIDENCE)
    return EmpiricalResult(chi2, crit, chi2 <= crit)
