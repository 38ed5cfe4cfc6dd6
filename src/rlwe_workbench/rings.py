"""Ring arithmetic and reduction maps.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .ffield import power_table, root_of_unity


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
    def log2_disc(self) -> float:
        """log2 |disc|, |disc| = p^(2(p-2)) * (4d)^(p-1), without forming
        the integer."""
        return 2 * (self.p - 2) * math.log2(self.p) + (self.p - 1) * math.log2(4 * self.d)

    def suggested_r(self, r0: float = 1.0) -> float:
        """Width r = r0 * |disc|^(1/(2 deg)) whose discriminant-normalized
        value is r0."""
        if not (math.isfinite(r0) and r0 > 0):
            raise ValueError("normalized width r0 must be finite and positive, got %r" % r0)
        return r0 * 2 ** (self.log2_disc / (2 * self.deg))

    def alpha(self) -> int:
        """A primitive p-th root of unity mod q (smallest-base power): the
        image of zeta_p under rho."""
        return root_of_unity(self.p, self.q)


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


def _residues(x: np.ndarray, q: int) -> np.ndarray:
    """x itself when every entry lies in (-q, q), else x % q.  Either way a
    sum of deg products of its entries with residues in [0, q) has absolute
    value at most deg * (q - 1)^2 < 2^63 (_check_int64), and a final % q
    gives the same nonnegative residues."""
    if x.size and (x.min() <= -q or x.max() >= q):
        return x % q
    return x


def _mul_matrix(s: np.ndarray, ring: Ring) -> np.ndarray:
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
        return np.where(shift >= 0, 1, -1) * s[shift % ring.n] % q
    p, n = ring.p, ring.family_n
    shift = (np.arange(p) - np.arange(n)[:, None]) % p

    def block(c):
        cyc = np.append(c % q, 0)[shift]
        return (cyc[:, :n] - cyc[:, n:]) % q
    s1, s2 = block(s[:n]), block(s[n:])
    return np.block([[s1, s2], [ring.d % q * s2 % q, s1]])


def ring_mul(x, y, ring: Ring) -> np.ndarray:
    """Product x*y in R/qR of coefficient arrays: x is one (deg,) vector or
    a (count, deg) array of rows, each multiplied by the (deg,) vector y;
    the result has x's shape.

    When deg * (q - 1)^2 < 2^53 the product is taken in float64, where
    numpy uses BLAS: every partial sum, in whatever order BLAS adds, is an
    integer of absolute value at most deg * (q - 1)^2, so float64 holds it
    exactly.  Other rings keep the int64 product (_check_int64)."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim not in (1, 2) or x.shape[-1] != ring.deg or y.shape != (ring.deg,):
        raise ValueError("coefficient arrays have shapes %s and %s, ring degree is %d"
                         % (x.shape, y.shape, ring.deg))
    x, M, q = _residues(x, ring.q), _mul_matrix(y, ring), ring.q
    if ring.deg * (q - 1) ** 2 < 1 << 53:
        return (x.astype(float) @ M.astype(float)).astype(np.int64) % q
    return x @ M % q


def reduce_mod_prime_batch(coeffs: np.ndarray, ring: Ring):
    """The reduction map rho: R/qR -> R/(prime over q), over a (count, deg)
    coefficient array: every Z[zeta] block is evaluated at ring.alpha().

    FamilyRing: the e1 and e2 blocks land on the coordinates (u, v) of
    F_{q^2} = F_q[sqrt(d)], returned as two int64 arrays; the prime has
    residue degree 2 because the ring is admissible (family.validate).
    CycloRing: the one block lands in F_q; returns one int64 array.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.ndim != 2 or coeffs.shape[1] != ring.deg:
        raise ValueError("expected a (count, %d) coefficient array" % ring.deg)
    q = ring.q
    n = ring.family_n if isinstance(ring, FamilyRing) else ring.n
    rho = _residues(coeffs, q).reshape(-1, n) @ power_table(ring.alpha(), n, q) % q
    if isinstance(ring, CycloRing):
        return rho
    return rho[0::2], rho[1::2]
