"""Ring arithmetic, canonical embeddings, and reduction maps.

Two ring families:

* FamilyRing -- R = Z[zeta_p, sqrt(d)], the ring of integers of
  Q(zeta_p) * Q(sqrt(d)) with p an odd prime and d > 1 squarefree,
  d = 2,3 mod 4, gcd(d, p) = 1.  Degree 2(p-1).  The integral basis is
  frozen as

      1, zeta, ..., zeta^(p-2),  sqrt(d), zeta*sqrt(d), ..., zeta^(p-2)*sqrt(d)

  and coefficient vectors follow that order: coeffs[0:p-1] is the
  "e1 block" over Z[zeta_p], coeffs[p-1:2(p-1)] the "e2 block" (the
  sqrt(d) part).

* CycloRing -- Z[zeta_m] for m a power of 2, degree n = m/2, with the
  negacyclic relation x^n = -1.

The adjusted canonical embedding iota maps each conjugate pair of complex
embeddings sigma to (sqrt(2)*Re sigma, sqrt(2)*Im sigma).  The embedding
coordinate order is frozen (and only matters for byte-stable golden tests):
for FamilyRing, conjugate-pair blocks are sorted by cyclotomic exponent
a = 1..(p-1)/2 outer and by the +/- sqrt(d) branch inner (+ first); for
CycloRing by odd exponent j = 1, 3, ..., n-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .ffield import FieldCtx, power_table, root_of_unity


@dataclass(frozen=True)
class FamilyRing:
    """R/qR for R = Z[zeta_p, sqrt(d)].  family.validate checks the whole
    admissibility list; the constructor only what the arithmetic needs."""
    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError("FamilyRing: p must be an odd prime, got %d" % self.p)
        if self.d <= 1:
            raise ValueError("FamilyRing: d must exceed 1, got %d" % self.d)
        _check_int64(self)

    @property
    def family_n(self) -> int:
        """n = p - 1, the degree of the cyclotomic subfield."""
        return self.p - 1

    @property
    def deg(self) -> int:
        return 2 * (self.p - 1)

    @property
    def abs_disc(self) -> int:
        """|disc| = p^(2(p-2)) * (4d)^(p-1)."""
        return self.p ** (2 * (self.p - 2)) * (4 * self.d) ** (self.p - 1)

    @property
    def log2_disc(self) -> float:
        """log2 |disc|, without forming the integer."""
        return 2 * (self.p - 2) * math.log2(self.p) + (self.p - 1) * math.log2(4 * self.d)

    def suggested_r(self, r0: float = 1.0) -> float:
        """Width r = r0 * |disc|^(1/(2 deg)) whose discriminant-normalized
        value is r0."""
        if not (math.isfinite(r0) and r0 > 0):
            raise ValueError("normalized width r0 must be finite and positive, got %r" % r0)
        return r0 * 2 ** (self.log2_disc / (2 * self.deg))


@dataclass(frozen=True)
class CycloRing:
    m: int
    q: int

    def __post_init__(self):
        if self.m < 4 or self.m & (self.m - 1):
            raise ValueError("CycloRing: m must be a power of 2 >= 4, got %d" % self.m)
        if (self.q - 1) % self.m != 0:
            raise ValueError("CycloRing: q = %d is not 1 mod m = %d" % (self.q, self.m))
        _check_int64(self)

    @property
    def n(self) -> int:
        return self.m // 2

    @property
    def deg(self) -> int:
        return self.n

    @property
    def abs_disc(self) -> int:
        # |disc(Z[zeta_m])| = 2^(n*(log2(m) - 1)) for m a power of 2
        k = self.m.bit_length() - 1
        return 2 ** (self.n * (k - 1))

    def alpha(self) -> int:
        """A primitive m-th root of unity mod q (smallest-base power)."""
        return root_of_unity(self.m, self.q)


Ring = Union[FamilyRing, CycloRing]


def _check_int64(ring: Ring) -> None:
    """Products in R/qR and the reduction maps sum deg products of residues
    in [0, q) in int64; refuse a ring where that sum could wrap."""
    if ring.deg * (ring.q - 1) ** 2 >= 1 << 63:
        raise ValueError("%s: deg * (q - 1)^2 must stay below 2^63 for int64 "
                         "arithmetic; q = %d is too large" % (type(ring).__name__, ring.q))


class RingElem:
    """An element of R (or R/qR) as a coefficient vector over the fixed basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=np.int64)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, RingElem) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return "RingElem(%s)" % self.coeffs.tolist()


def _check_len(x: RingElem, ring: Ring):
    if len(x) != ring.deg:
        raise ValueError("coefficient vector has length %d, ring degree is %d"
                         % (len(x), ring.deg))


def _mul_matrix(s: RingElem, ring: Ring) -> np.ndarray:
    """The matrix M of multiplication by s in R/qR (x*s = x @ M), entries in [0, q).

    CycloRing: the negacyclic matrix M[i, j] = s[j - i], negated where
    j < i (x^n = -1).  FamilyRing: M = [[S1, S2], [d S2, S1]], where the
    Z[zeta_p] block S of s has the x^p - 1 circulant rows s[(j - i) mod p]
    (s padded with 0 at x^(p-1)), its x^(p-1) column folded back by
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).
    """
    q = ring.q
    if isinstance(ring, CycloRing):
        shift = np.arange(ring.n) - np.arange(ring.n)[:, None]
        return np.where(shift >= 0, 1, -1) * s.coeffs[shift % ring.n] % q
    p, n = ring.p, ring.family_n
    shift = (np.arange(p) - np.arange(n)[:, None]) % p

    def block(c):
        cyc = np.append(c % q, 0)[shift]
        return (cyc[:, :n] - cyc[:, n:]) % q
    s1, s2 = block(s.coeffs[:n]), block(s.coeffs[n:])
    return np.block([[s1, s2], [ring.d % q * s2 % q, s1]])


def ring_mul(x, y: RingElem, ring: Ring):
    """Product x*y in R/qR.  x is a RingElem, or a (count, deg) array of
    coefficient rows multiplied by y at once; the result takes x's form."""
    rows = x.coeffs[None, :] if isinstance(x, RingElem) else np.asarray(x, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != ring.deg:
        raise ValueError("coefficient rows have shape %s, ring degree is %d"
                         % (rows.shape, ring.deg))
    _check_len(y, ring)
    out = (rows % ring.q) @ _mul_matrix(y, ring) % ring.q
    return RingElem(out[0]) if isinstance(x, RingElem) else out


@lru_cache(maxsize=32)
def _cyclotomic_block_basis(p: int) -> np.ndarray:
    """Adjusted canonical embedding of Z[zeta_p] (basis 1..zeta^(p-2));
    Gram is p*I - J, determinant p^(p-2)."""
    n = p - 1
    B = np.empty((n, n))
    col = 0
    for a in range(1, (p - 1) // 2 + 1):
        ang = 2.0 * math.pi * a / p
        for i in range(n):
            B[i, col] = math.sqrt(2.0) * math.cos(ang * i)
            B[i, col + 1] = math.sqrt(2.0) * math.sin(ang * i)
        col += 2
    return B


@lru_cache(maxsize=32)
def _embedding_matrix(ring: Ring) -> np.ndarray:
    """Rows are iota(basis element) in the frozen coordinate order."""
    if isinstance(ring, CycloRing):
        n, m = ring.n, ring.m
        E = np.empty((n, n))
        col = 0
        for j in range(1, n, 2):  # representative of the pair (j, m - j)
            ang = 2.0 * math.pi * j / m
            for i in range(n):
                E[i, col] = math.sqrt(2.0) * math.cos(ang * i)
                E[i, col + 1] = math.sqrt(2.0) * math.sin(ang * i)
            col += 2
        return E
    # pair a of the block basis splits into the +sqrt(d) and -sqrt(d) pairs
    n, deg = ring.family_n, ring.deg
    B = _cyclotomic_block_basis(ring.p).reshape(n, n // 2, 1, 2)
    sign = np.array([1.0, -1.0]).reshape(1, 1, 2, 1)
    e1 = np.broadcast_to(B, (n, n // 2, 2, 2)).reshape(n, deg)
    e2 = (math.sqrt(ring.d) * sign * B).reshape(n, deg)
    return np.vstack([e1, e2])


def canonical_embed(x: RingElem, ring: Ring) -> np.ndarray:
    """iota(x) as a real vector of length deg (signed-integer coefficients)."""
    _check_len(x, ring)
    return x.coeffs.astype(float) @ _embedding_matrix(ring)


def gram_matrix(ring: Ring) -> np.ndarray:
    """Gram matrix of the embedded integral basis; det equals |disc|."""
    E = _embedding_matrix(ring)
    return E @ E.T


def reduce_mod_prime_batch(coeffs: np.ndarray, ring: Ring, ctx: FieldCtx):
    """The reduction map rho: R/qR -> R/(prime over q), over a (count, deg)
    coefficient array.

    FamilyRing: evaluates zeta_p at ctx.alpha_p and sqrt(d) at sqrt(d_red),
    landing in F_{q^2}; returns the (u, v) int64 coordinate arrays.
    CycloRing: evaluates zeta_m at the ring's primitive root alpha, landing
    in F_q; returns one int64 array (ctx may be None).
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.ndim != 2 or coeffs.shape[1] != ring.deg:
        raise ValueError("expected a (count, %d) coefficient array" % ring.deg)
    q = ring.q
    if ctx is not None and ctx.q != q:
        raise ValueError("context modulus %d does not match ring modulus %d" % (ctx.q, q))
    if isinstance(ring, CycloRing):
        powers = power_table(ring.alpha(), ring.n, q)
        return (coeffs % q) @ powers % q
    if ctx.alpha_p is None:
        raise ValueError("FamilyRing reduction needs a context with alpha_p set")
    if pow(ctx.alpha_p, ring.p, q) != 1:
        raise ValueError("ctx.alpha_p does not have order %d mod %d" % (ring.p, q))
    if (ring.d - ctx.d_red) % q != 0:
        raise ValueError("ctx.d_red is not d mod q; rho would land in the wrong model of F_{q^2}")
    n = ring.family_n
    powers = power_table(ctx.alpha_p, n, q)
    u = (coeffs[:, :n] % q) @ powers % q
    v = (coeffs[:, n:] % q) @ powers % q
    return u, v
