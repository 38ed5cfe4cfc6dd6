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
  * the y-sum needs one term per coset, (q-1)/m of them, n cosines each:
    (q-1)/2 cosine evaluations total instead of n*(q-1).

Values reach 2^-431 and beyond, so every term is accumulated as
k * sum_i log2|cos|, terms below 2^-1100 are flushed to zero, and the sum
uses a max-shifted exponent accumulation.  Cosine arguments are built by
integer modular arithmetic only.

The degree-2 variant replaces F_q by F_{q^2} (alpha of order m | q^2-1,
m not dividing q-1) and puts a trace inside the cosine:
term(y) = prod_{i=1}^{n} cos(pi * Tr(alpha^i y) / q)^k over y != 0 in
F_{q^2}, with Tr(u + v*sqrt(w)) = 2u.  Same H-orbit structure: one term
per coset g^j H, j < t = (q^2-1)/m, for g a generator of F_{q^2}*.
Instances with q^2 > 1.5e6 sit behind long_run=True.

The Frobenius y -> y^q fixes the degree-2 term as well.  With q' the
inverse of q mod m, alpha^i y^q = (alpha^(i q') y)^q and the trace is
Frobenius-invariant, so Tr(alpha^i y^q) = Tr(alpha^(i q') y).  The factor
for i depends only on i mod n (alpha^n = -1 flips the trace's sign and
cos^k is even), and i -> i q' permutes the residues mod n since q' is odd:
term(y^q) = term(y).  Frobenius sends the coset g^j H to g^(jq mod t) H,
and q^2 = 1 (mod t), so its orbits on the cosets have size 1 (t | j(q-1))
or 2.  The sum takes one term per orbit, weighted by the orbit size: a
little over half of the (q^2-1)/2 cosine evaluations.

The field kit comes from the ffield module: root_of_unity and power_table
in F_q, and in F_{q^2} = FieldCtx(q) (w is its d_red, the smallest
nonresidue) fq2_generator and fq2_power_table, whose (u, v) arrays keep the
orbit walk vectorised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .attack import critical_value
from .ffield import (FieldCtx, fq2_generator, fq2_power_table, is_prime, power_table,
                     root_of_unity)
from .rings import CycloRing, reduce_mod_prime_batch
from .sampling import GaussianSpec, RngHandle, sample_lattice_gauss_batch

_FLUSH_LOG2 = -1100.0
_LONG_RUN_Q2 = 1_500_000


def _is_pow2(m: int) -> bool:
    return m >= 2 and m & (m - 1) == 0


def _check_mk(m: int, k: int) -> None:
    if not _is_pow2(m):
        raise ValueError("m=%d is not a power of 2 >= 2" % m)
    if k < 2 or k % 2:
        raise ValueError("k=%d is not an even integer >= 2" % k)


def nu_hat(y: int, q: int, k: int) -> float:
    """Transform of the reduced V_k distribution at frequency y: cos(pi y/q)^k."""
    if k < 2 or k % 2:
        raise ValueError("k=%d is not an even integer >= 2" % k)
    return math.cos(math.pi * (y % q) / q) ** k


def _has_order_m(alpha: int, m: int, q: int) -> bool:
    # for 2-power m: order | m and order does not divide m/2
    return pow(alpha, m, q) == 1 and pow(alpha, m // 2, q) == q - 1


def _logsumexp2(logs: np.ndarray) -> float:
    kept = logs[logs > _FLUSH_LOG2]
    if kept.size == 0:
        return -math.inf
    top = float(kept.max())
    return top + math.log2(np.exp2(kept - top).sum())


# ---------------------------------------------------------------- degree 1

def _deg1_orbit_logs(m: int, q: int, k: int) -> np.ndarray:
    """log2 of the per-coset y-term, one entry per coset of H in F_q*."""
    g = root_of_unity(q - 1, q)
    t = (q - 1) // m
    reps = power_table(g, t, q)
    apow = power_table(pow(g, t, q), m // 2, q)
    args = apow[:, None] * reps[None, :] % q
    # q odd => no argument hits q/2, so no cosine is exactly 0
    logs = np.log2(np.abs(np.cos(np.pi * args / q))).sum(axis=0)
    return k * logs


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


def epsilon(m: int, q: int, k: int) -> EstimateReport:
    """eps(m, q, k) maximized over all phi(m) primitive m-th roots mod q."""
    t0 = time.perf_counter()
    _check_mk(m, k)
    if not is_prime(q):
        raise ValueError("q=%d is not prime" % q)
    if (q - 1) % m != 0:
        raise ValueError("no m-th roots of unity: q=%d is not 1 mod m=%d" % (q, m))
    log2_eps = _assemble_log2_eps(m, _deg1_orbit_logs(m, q, k))
    return EstimateReport(m, q, k, 1, log2_eps,
                          _bound_or_none(m, q, k), _beta_gauss(m, q),
                          (time.perf_counter() - t0) * 1e3)


# ---------------------------------------------------------------- degree 2

def deg2_admissible(m: int, q: int) -> bool:
    """q prime with an order-m root in F_{q^2} but none in F_q."""
    return (_is_pow2(m) and is_prime(q)
            and (q * q - 1) % m == 0 and (q - 1) % m != 0)


def nearest_admissible_q_deg2(m: int, q0: int) -> int:
    """The admissible prime closest to q0 (smaller wins a tie)."""
    if deg2_admissible(m, q0):
        return q0
    for delta in range(1, q0):
        for cand in (q0 - delta, q0 + delta):
            if cand > 2 and deg2_admissible(m, cand):
                return cand
    raise ValueError("no admissible q near %d for m=%d" % (q0, m))


def _deg2_coset_logs(u, v, cs, ds, q: int, w: int, k: int) -> np.ndarray:
    """log2 of the term at each coset representative y = u + v sqrt(w),
    with alpha^i = cs[i] + ds[i] sqrt(w) running over i = 1..n."""
    logs = np.zeros(len(u), dtype=np.float64)
    for c, d in zip(cs, ds):
        # Tr((c + d sqrt(w)) (u + v sqrt(w))) = 2 (c u + d v w)
        tr = 2 * ((c * u + (d * w % q) * v) % q) % q
        logs += np.log2(np.abs(np.cos(np.pi * tr / q)))
    return k * logs


def epsilon_deg2(m: int, q: int, k: int, long_run: bool = False) -> EstimateReport:
    """Degree-2 estimate: y runs over F_{q^2} \\ {0}, trace inside the cosine."""
    t0 = time.perf_counter()
    _check_mk(m, k)
    if not is_prime(q):
        raise ValueError("q=%d is not prime" % q)
    if not deg2_admissible(m, q):
        raise ValueError(
            "degree-2 needs m | q^2-1 and m not dividing q-1; (m=%d, q=%d) fails"
            " (nearest admissible q is %d)" % (m, q, nearest_admissible_q_deg2(m, q)))
    if q * q > _LONG_RUN_Q2 and not long_run:
        raise ValueError("q^2 = %d exceeds the desk-scale budget; pass long_run=True "
                         "(--long-run on the command line)" % (q * q))
    ctx = FieldCtx(q)  # d_red = smallest nonresidue w
    t = (q * q - 1) // m
    g = fq2_generator(ctx)
    # coset g^j H goes to g^(jq) H under Frobenius: one term per orbit
    # {j, jq mod t}, from its smaller index, counted twice when j != jq
    j = np.arange(t)
    jq = j * q % t
    rep = j <= jq
    u, v = fq2_power_table(g, t)
    # alpha = g^t has order m; apow[j] = alpha^j for j < m
    apow = fq2_power_table(g ** t, m)
    cs, ds = apow[0][1:m // 2 + 1], apow[1][1:m // 2 + 1]  # alpha^1 .. alpha^n
    orbit_logs = (_deg2_coset_logs(u[rep], v[rep], cs, ds, q, ctx.d_red, k)
                  + (jq[rep] != j[rep]))  # log2 of the orbit size
    log2_eps = _assemble_log2_eps(m, orbit_logs)
    return EstimateReport(m, q, k, 2, log2_eps,
                          _bound_or_none(m, q, k), _beta_gauss(m, q),
                          (time.perf_counter() - t0) * 1e3)


# ------------------------------------------------------- brute-force oracles

def _brute_force_numerators(m: int, q: int, k: int, alpha: int) -> List[int]:
    """Exact counts (over 2^(kn)) of sum_i alpha^i e_i mod q, e_i i.i.d. V_k.

    Feasible only while (k+1)^n <= 2^24, n = m/2.
    """
    _check_mk(m, k)
    n = m // 2
    if n * math.log2(k + 1) > 24:
        raise ValueError("support (k+1)^%d too large for exact convolution" % n)
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
    """Exact statistical distance, maximized over all primitive roots alpha.

    Delta(e_alpha, uniform) = (1/2) sum_a |pmf(a) - 1/q|, evaluated in
    integer arithmetic before the one final division.
    """
    if not (is_prime(q) and (q - 1) % m == 0):
        raise ValueError("need q prime with q = 1 (mod m); got q=%d, m=%d" % (q, m))
    alpha0 = pow(root_of_unity(q - 1, q), (q - 1) // m, q)
    n = m // 2
    total = 2 ** (k * n)
    best = 0.0
    for j in range(1, m, 2):
        numer = _brute_force_numerators(m, q, k, pow(alpha0, j, q))
        dist_num = sum(abs(c * q - total) for c in numer)
        best = max(best, dist_num / (2.0 * q * total))
    return best


def gauss_sum_check(m: int, q: int, alpha: int) -> float:
    """max over y != 0 of |sum_{j<m} exp(2 pi i alpha^j y / q)|; <= sqrt(q)."""
    if not _is_pow2(m):
        raise ValueError("m=%d is not a power of 2 >= 2" % m)
    if not _has_order_m(alpha % q, m, q):
        raise ValueError("alpha=%d does not have exact order %d mod %d" % (alpha, m, q))
    apow = power_table(alpha % q, m, q)
    best = 0.0
    ys = np.arange(1, q, dtype=np.int64)
    for lo in range(0, len(ys), 4096):
        chunk = ys[lo:lo + 4096]
        args = apow[:, None] * chunk[None, :] % q
        sums = np.abs(np.exp(2j * np.pi * args / q).sum(axis=0))
        best = max(best, float(sums.max()))
    return best


# ------------------------------------------------- empirical uniformity runs

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
    through rho into F_q, and chi-square the histogram against uniform."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ring = CycloRing(m, q)
    spec = GaussianSpec(r0 * math.sqrt(ring.n))
    coeffs, _ = sample_lattice_gauss_batch(ring, spec, RngHandle(seed), count)
    vals = reduce_mod_prime_batch(coeffs, ring)
    counts = np.bincount(vals, minlength=q)
    exp = count / q
    chi2 = float(((counts - exp) ** 2).sum() / exp)
    crit = critical_value(q - 1, confidence)
    return EmpiricalResult(m, q, r0, count, chi2, crit, chi2 <= crit)
