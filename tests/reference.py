"""Reference computations the tests check the library against.

Nothing here imports rlwe_workbench (test_reference.py checks that), and
every function takes plain integers, tuples or arrays, never a ring or a
field object.  The library's pipelines run none of this code; it is the
second route a test compares a pipeline's numbers with.

Width convention of the tail bound
----------------------------------
The samplers weigh x by rho_r(x) = exp(-||x||^2 / r^2).  `tail_bound`
implements the printed constant C_s = s*sqrt(2*pi*e)*exp(-pi*s^2), which
carries the pi-normalized convention of its source: a sampler width r is
the width r*sqrt(pi) there.  The mismatch is deliberate and kept inside
`tail_bound`; its callers say which convention they pass.
"""

import math

import numpy as np

# ------------------------------------------------- F_{q^2} as tuples of ints
#
# An element of F_q[sqrt(c)], c a nonresidue mod q, is the pair (u, v) of
# Python ints in [0, q) standing for u + v*sqrt(c).


def fq2_add(x, y, q):
    return (x[0] + y[0]) % q, (x[1] + y[1]) % q


def fq2_sub(x, y, q):
    return (x[0] - y[0]) % q, (x[1] - y[1]) % q


def fq2_mul(x, y, q, c):
    return (x[0] * y[0] + x[1] * y[1] * c) % q, (x[0] * y[1] + x[1] * y[0]) % q


def fq2_conj(x, q):
    """The Frobenius x -> x^q: sqrt(c)^q = -sqrt(c)."""
    return x[0], -x[1] % q


def fq2_pow(x, e, q, c):
    """x^e for e >= 0, left to right over the bits of e."""
    out = (1, 0)
    for bit in bin(e)[2:]:
        out = fq2_mul(out, out, q, c)
        if bit == "1":
            out = fq2_mul(out, x, q, c)
    return out


# ---------------------------------------------- embeddings and discriminants
#
# The adjusted canonical embedding iota maps each conjugate pair of complex
# embeddings sigma to (sqrt(2)*Re sigma, sqrt(2)*Im sigma).  Coordinates:
# for the family ring Z[zeta_p, sqrt(d)], conjugate-pair blocks sorted by
# cyclotomic exponent a = 1..(p-1)/2 outer and by the +/- sqrt(d) branch
# inner (+ first); for Z[zeta_m] by odd exponent j = 1, 3, ..., m/2 - 1.
# Rows of an embedding matrix are iota of the integral basis elements, in
# the library's coefficient order.


def cyclotomic_block_basis(order):
    """Adjusted canonical embedding of Z[zeta_order] for an odd prime or a
    2-power order, basis 1, zeta, ..., zeta^(phi-1): rows are basis
    elements, and each exponent j < order/2 prime to order gives the column
    pair sqrt(2) (cos, sin)(2 pi j i / order).  At an odd prime p the Gram
    is p*I - J, determinant p^(p-2)."""
    j = np.arange(1, (order + 1) // 2)
    j = j[np.gcd(j, order) == 1]
    ang = np.arange(2 * len(j))[:, None] * (2.0 * math.pi * j / order)
    return math.sqrt(2.0) * np.stack([np.cos(ang), np.sin(ang)], axis=2).reshape(len(ang), -1)


def family_embedding(p, d):
    """Embedding matrix of Z[zeta_p, sqrt(d)], basis 1, .., zeta^(p-2),
    sqrt(d), .., zeta^(p-2) sqrt(d): pair a of the block basis splits into
    the +sqrt(d) and -sqrt(d) pairs."""
    n = p - 1
    B = cyclotomic_block_basis(p).reshape(n, n // 2, 1, 2)
    sign = np.array([1.0, -1.0]).reshape(1, 1, 2, 1)
    e1 = np.broadcast_to(B, (n, n // 2, 2, 2)).reshape(n, 2 * n)
    e2 = (math.sqrt(d) * sign * B).reshape(n, 2 * n)
    return np.vstack([e1, e2])


def canonical_embed(x, embedding):
    """iota(x) for a signed-integer coefficient vector x (or a (count, deg)
    array of them, one embedded row each)."""
    x = np.asarray(x)
    if x.shape[-1:] != (embedding.shape[0],):
        raise ValueError("coefficient array has shape %s, ring degree is %d"
                         % (x.shape, embedding.shape[0]))
    return x.astype(float) @ embedding


def gram_matrix(embedding):
    """Gram matrix of the embedded integral basis; det equals |disc|."""
    return embedding @ embedding.T


def family_abs_disc(p, d):
    """|disc Z[zeta_p, sqrt(d)]| = p^(2(p-2)) * (4d)^(p-1)."""
    return p ** (2 * (p - 2)) * (4 * d) ** (p - 1)


def cyclo_abs_disc(m):
    """|disc Z[zeta_m]| = 2^(n (log2(m) - 1)) for m a power of 2, n = m/2."""
    return 2 ** (m // 2 * (m.bit_length() - 2))


# ------------------------------------------------------ distributions, sums


def binomial_vk_pmf(k):
    """Exact pmf of V_k over support -k/2 .. k/2."""
    pmf = np.array([math.comb(k, t) for t in range(k + 1)], dtype=float)
    return pmf / 2.0 ** k


def tail_bound(c, r, n):
    """min(C_{c/r}^n, 1) with C_s = s*sqrt(2*pi*e)*exp(-pi*s^2).

    Bounds P(||v|| > c*sqrt(n)) for v ~ D_{Lambda,r} over any n-dim lattice
    (r in the pi-normalized convention above).  Requires c > r/sqrt(2*pi)
    (otherwise the bound is vacuous).  At c = sqrt(2d) this is criterion
    1's success bound beta = min((sqrt(4*pi*e*d)/r * exp(-2*pi*d/r^2))^n, 1),
    and the precondition reads r < 2*sqrt(pi*d).
    """
    if n < 1:
        raise ValueError("tail_bound: n must be >= 1")
    if c <= r / math.sqrt(2.0 * math.pi):
        raise ValueError("tail_bound: need c > r/sqrt(2*pi), got c=%g r=%g" % (c, r))
    s = c / r
    log_c = math.log(s) + 0.5 * math.log(2.0 * math.pi * math.e) - math.pi * s * s
    if n * log_c < -745.0:
        return 0.0
    return min(math.exp(n * log_c), 1.0)


def gauss_sum_check(m, q, alpha):
    """max over y != 0 of |sum_{j<m} exp(2 pi i alpha^j y / q)|; <= sqrt(q)
    for alpha of exact 2-power order m mod the prime q."""
    if m < 2 or m & (m - 1):
        raise ValueError("m=%d is not a power of 2 >= 2" % m)
    if pow(alpha, m, q) != 1 or pow(alpha, m // 2, q) != q - 1:
        raise ValueError("alpha=%d does not have exact order %d mod %d" % (alpha, m, q))
    apow = np.array([pow(alpha, j, q) for j in range(m)], dtype=np.int64)
    ys = np.arange(1, q, dtype=np.int64)
    sums = np.abs(np.exp(2j * np.pi * (apow[:, None] * ys[None, :] % q) / q).sum(axis=0))
    return float(sums.max())


def chi_square(counts, expected):
    """Pearson statistic sum((obs - exp)^2 / exp) over >= 2 bins; a scalar
    expected value applies to every bin."""
    obs = np.asarray(counts, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if exp.ndim == 0:
        exp = np.full(obs.shape, float(exp))
    if obs.ndim != 1 or obs.shape != exp.shape or obs.size < 2:
        raise ValueError("counts and expected must be vectors of equal length >= 2")
    if np.any(exp <= 0):
        raise ValueError("every expected bin value must be positive")
    return float((((obs - exp) ** 2) / exp).sum())
