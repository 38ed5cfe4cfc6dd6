"""Fourier-analytic distance-from-uniform estimates for 2-power cyclotomic
RLWE error distributions, plus small-instance brute-force oracles and the
seeded empirical uniformity experiment.

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
  * the y-sum needs one term per coset, (q-1)/m of them, n table gathers
    each: (q-1)/2 gathers total instead of n*(q-1) cosine evaluations.

The i-th cosine argument is a linear form x_i = coef[i] . y mod q of the
coset representative y, built by integer arithmetic only, so each term is
k times the sum, in order of i, of n gathers from one q-entry table of
log2|cos(pi x / q)|.  With d = coef.shape[1] (1 or 2) and every entry in
[0, q), the dot product is at most d (q-1)^2: it is formed in int32 when
that is below 2^31 (every row of the benchmark and the README) and in
int64 otherwise (Dilithium's q = 8380417 at degree 1, degree 2 above
q = 32768).  The residue is x - q (x // q): numpy divides by one scalar
with a multiply and shift (libdivide), several times faster than its
integer %.  It lies in [0, q), so the table is read through a clipped take
that never clips.  Values reach 2^-1600 at larger k; the terms are summed
by max-shifted exponent accumulation, with none dropped.

The degree-2 variant replaces F_q by F_{q^2} (alpha of order m | q^2-1,
m not dividing q-1) and puts a trace inside the cosine:
term(y) = prod_{i=1}^{n} cos(pi * Tr(alpha^i y) / q)^k over y != 0 in
F_{q^2}, with Tr(u + v*sqrt(w)) = 2u: the form (2c, 2dw) . (u, v) for
alpha^i = c + d*sqrt(w).  Same H-orbit structure: one term per coset
g^j H, j < t = (q^2-1)/m, for g a generator of F_{q^2}*.
The orbit sums hold a q-entry table and (q^d - 1)/m coset representatives
at degree d, so a field of more than 1.5e6 elements (q at degree 1, q^2 at
degree 2) sits behind long_run=True.

The Frobenius y -> y^q fixes the degree-2 term as well.  With q' the
inverse of q mod m, alpha^i y^q = (alpha^(i q') y)^q and the trace is
Frobenius-invariant, so Tr(alpha^i y^q) = Tr(alpha^(i q') y).  The factor
for i depends only on i mod n (alpha^n = -1 flips the trace's sign and
cos^k is even), and i -> i q' permutes the residues mod n since q' is odd:
term(y^q) = term(y).  Frobenius sends the coset g^j H to g^(jq mod t) H,
and q^2 = 1 (mod t), so its orbits on the cosets have size 1 (t | j(q-1))
or 2.  The sum takes one term per orbit, weighted by the orbit size: a
little over half of the (q^2-1)/2 table gathers.

The field kit comes from the ffield module: root_of_unity and power_table
in F_q, and in F_{q^2} = F_q[sqrt(w)], w = smallest_nonresidue(q),
fq2_generator, fq2_pow and fq2_power_table, whose (u, v) arrays keep the
orbit walk vectorised.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .attack import critical_value
from .ffield import (fq2_generator, fq2_pow, fq2_power_table, is_prime, power_table,
                     root_of_unity, smallest_nonresidue)
from .rings import CycloRing, reduce_mod_prime_batch
from .sampling import GaussianSpec, RngHandle, sample_lattice_gauss_batch

_LONG_RUN_FIELD = 1_500_000  # field elements: q at degree 1, q^2 at degree 2
_ORBIT_BLOCK = 1 << 14  # dot products formed per pass of _orbit_logs


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


def _has_order_m(alpha: int, m: int, q: int) -> bool:
    # for 2-power m: order | m and order does not divide m/2
    return pow(alpha, m, q) == 1 and pow(alpha, m // 2, q) == q - 1


def _logsumexp2(logs: np.ndarray) -> float:
    if logs.size == 0:
        return -math.inf
    top = float(logs.max())
    return top + math.log2(np.exp2(logs - top).sum())


def _orbit_logs(coef: np.ndarray, reps: np.ndarray, q: int, k: int) -> np.ndarray:
    """log2 of the term at each coset representative y, a column of reps:
    k * sum_i log2|cos(pi x_i / q)| with x_i = coef[i] . y mod q.

    Every entry of coef and reps lies in [0, q), so the dot product is at
    most d (q-1)^2 for d = coef.shape[1]: it is formed in int32 when that
    bound is below 2^31, else in int64.  x mod q is x - q (x // q), exact
    for x >= 0, and the residue indexes the table through a clipped take
    that never clips.  The rows of coef go _ORBIT_BLOCK // reps.shape[1]
    at a time (at least one) through buffers made once, so when there are
    few cosets the ufunc calls are paid per block, not per row; the
    gathered rows are added in order of i."""
    # q odd => no x hits q/2, so no cosine is exactly 0
    table = np.log2(np.abs(np.cos(np.pi * np.arange(q) / q)))
    lane = np.int32 if coef.shape[1] * (q - 1) ** 2 < 2 ** 31 else np.int64
    coef = coef.astype(lane)
    reps = reps.astype(lane)
    step = max(1, _ORBIT_BLOCK // reps.shape[1])
    x = np.empty((min(step, len(coef)), reps.shape[1]), lane)
    tmp = np.empty_like(x)
    gathered = np.empty(x.shape)
    logs = np.zeros(reps.shape[1])
    for lo in range(0, len(coef), step):
        block = coef[lo:lo + step]
        xb, tb, gb = x[:len(block)], tmp[:len(block)], gathered[:len(block)]
        np.multiply(block[:, :1], reps[0], out=xb)
        for c in range(1, coef.shape[1]):
            np.multiply(block[:, c:c + 1], reps[c], out=tb)
            xb += tb
        np.floor_divide(xb, q, out=tb)
        tb *= q
        xb -= tb
        table.take(xb, out=gb, mode="clip")
        for row in gb:
            logs += row
    return k * logs


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
        g = root_of_unity(q - 1, q)
        apow = power_table(pow(g, t, q), m // 2, q)  # alpha^i, i < n
        reps = power_table(g, t, q)  # one y per coset of H in F_q*
        log2_eps = _assemble_log2_eps(m, _orbit_logs(apow[:, None], reps[None, :], q, k))
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
    w = smallest_nonresidue(q)
    t = (q * q - 1) // m
    g = fq2_generator(q, w)
    # coset g^j H goes to g^(jq) H under Frobenius: one term per orbit
    # {j, jq mod t}, from its smaller index, counted twice when j != jq
    j = np.arange(t)
    jq = j * q % t
    rep = j <= jq
    u, v = fq2_power_table(g, t, q, w)
    alpha = fq2_pow(g, t, q, w)  # g^t has order m
    cs, ds = fq2_power_table(alpha, m // 2 + 1, q, w)
    # alpha^i = c + d sqrt(w), i = 1..n: Tr(alpha^i (u + v sqrt(w))) = 2cu + 2dwv
    coef = np.stack([2 * cs[1:] % q, 2 * ds[1:] * w % q], axis=1)
    orbit_logs = (_orbit_logs(coef, np.stack([u[rep], v[rep]]), q, k)
                  + (jq[rep] != j[rep]))  # log2 of the orbit size
    log2_eps = _assemble_log2_eps(m, orbit_logs)
    return EstimateReport(m, q, k, 2, log2_eps,
                          _bound_or_none(m, q, k), _beta_gauss(m, q),
                          (time.perf_counter() - t0) * 1e3)


# ------------------------------------------------------- brute-force oracles

def _brute_force_numerators(m: int, q: int, k: int, alpha: int) -> List[int]:
    """Exact counts (over 2^(kn)) of sum_i alpha^i e_i mod q, e_i i.i.d. V_k.

    The convolution takes n*q*(k+1) steps, n = m/2; refused above 2^22.
    """
    _check_mk(m, k)
    n = m // 2
    steps = n * q * (k + 1)
    if steps > 1 << 22:
        raise ValueError("n*q*(k+1) = %d too large for exact convolution" % steps)
    if not _has_order_m(alpha % q, m, q):
        raise ValueError("alpha=%d does not have exact order %d mod %d" % (alpha, m, q))
    shifts = [t - k // 2 for t in range(k + 1)]
    weights = [math.comb(k, t) for t in range(k + 1)]
    dist = [0] * q
    dist[0] = 1
    a = 1
    for _ in range(n):
        nxt = [0] * q
        for val, cnt in enumerate(dist):
            if cnt:
                for sh, wt in zip(shifts, weights):
                    nxt[(val + a * sh) % q] += cnt * wt
        dist = nxt
        a = a * alpha % q
    return dist


def brute_force_pmf(m: int, q: int, k: int, alpha: int) -> np.ndarray:
    """Exact pmf of sum_i alpha^i e_i mod q as floats (numerators exact)."""
    numer = _brute_force_numerators(m, q, k, alpha)
    total = 2 ** (k * (m // 2))
    return np.array([c / total for c in numer], dtype=np.float64)


def brute_force_distance(m: int, q: int, k: int) -> float:
    """Exact statistical distance, the same for every primitive root alpha.

    Delta(e_alpha, uniform) = (1/2) sum_a |pmf(a) - 1/q|, evaluated in
    integer arithmetic before the one final division.  One root suffices:
    for any alpha of exact order m, {alpha^i : i < n} is a transversal of
    the +/- pairs of H, and V_k is symmetric, so alpha^i e_i and -alpha^i e_i
    have one distribution and every root gives the same pmf.
    """
    if not (is_prime(q) and (q - 1) % m == 0):
        raise ValueError("need q prime with q = 1 (mod m); got q=%d, m=%d" % (q, m))
    numer = _brute_force_numerators(m, q, k, root_of_unity(m, q))
    total = 2 ** (k * (m // 2))
    return sum(abs(c * q - total) for c in numer) / (2 * q * total)


# ------------------------------------------------- empirical uniformity runs

_EMPIRICAL_DRAWS = 1 << 16  # coefficients drawn and reduced at a time


@dataclass
class EmpiricalResult:
    m: int
    q: int
    r0: float
    count: int
    chi2: float
    critical: float
    uniform: bool


def empirical_uniformity(m: int, q: int, r0: float, count: int, seed: int,
                         confidence: float = 0.99) -> EmpiricalResult:
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
    crit = critical_value(q - 1, confidence)
    return EmpiricalResult(m, q, r0, count, chi2, crit, chi2 <= crit)
