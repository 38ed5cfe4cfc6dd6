"""Arithmetic in F_q and its quadratic extension F_{q^2} = F_q[sqrt(w)].

The extension is realized concretely as F_q[x]/(x^2 - w) for a quadratic
nonresidue w, so an element is a coordinate pair (u, v) = u + v*sqrt(w).
Everything here is exact integer arithmetic: Python ints at any size, and
int64 arrays whose products stay below 2 q^2, so exact for q < 2^31, which
covers every modulus this project runs (Dilithium's q = 8380417 included).

This module is the one home of the field kit the attacks and the estimator
share: roots of unity mod q and their power tables, and in F_{q^2} one
multiply, fq2_mul, with fq2_pow, a generator of F_{q^2}^* and (u, v) power
tables built on it.  fq2_mul and fq2_pow take (u, v) pairs of Python ints
or of int64 arrays alike, so the estimator's orbit walk stays vectorised.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Strong-pseudoprime bases that make Miller-Rabin deterministic for any
# n < 3.3 * 10^24, which covers the full 64-bit range used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for the 64-bit range."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a/q) in {-1, 0, +1} for an odd prime q."""
    if q == 2 or not is_prime(q):
        raise ValueError("legendre: modulus %d is not an odd prime" % q)
    a %= q
    if a == 0:
        return 0
    t = pow(a, (q - 1) // 2, q)
    return -1 if t == q - 1 else 1


def smallest_nonresidue(q: int) -> int:
    """Smallest quadratic nonresidue mod an odd prime q."""
    for a in range(2, q):
        if legendre(a, q) == -1:
            return a
    raise ValueError("no nonresidue found mod %d" % q)  # unreachable for odd prime


class FieldCtx:
    """alpha_p, the (p, d, q) family's element of order p in F_q^* (the
    image of a p-th root of unity under reduction).

    No pipeline builds one: the reduction map takes its root from
    rings.FamilyRing.alpha(), which for_family matches.  It is kept because
    the benchmark (bench/workloads.py) reads for_family(...).alpha_p as the
    program's root, and its traced runs time for_family.
    """

    __slots__ = ("alpha_p",)

    def __init__(self, alpha_p: int):
        self.alpha_p = alpha_p

    @classmethod
    def for_family(cls, p: int, d: int, q: int) -> "FieldCtx":
        """The family's root_of_unity(p, q); d does not change it."""
        return cls(root_of_unity(p, q))


def _prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n >= 1, in increasing order."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=128)
def root_of_unity(order: int, q: int) -> int:
    """An element of exact multiplicative order `order` in F_q^*.

    Returns c^((q-1)/order) for the smallest c >= 2 where that power has
    exact order `order`, tested against the prime factors of `order`.  At
    order q-1 this is the smallest generator of F_q^*.
    """
    if not is_prime(q):
        raise ValueError("no root of unity mod %d: q is not prime" % q)
    if (q - 1) % order != 0:
        raise ValueError("no element of order %d: q = %d is not 1 mod %d" % (order, q, order))
    factors = _prime_factors(order)
    for c in range(2, q):
        x = pow(c, (q - 1) // order, q)
        if all(pow(x, order // f, q) != 1 for f in factors):
            return x
    raise ValueError("no element of order %d mod %d (q not prime?)" % (order, q))


@lru_cache(maxsize=64)
def power_table(base: int, n: int, q: int) -> np.ndarray:
    """Read-only int64 array [base^0, ..., base^(n-1)] mod q, by doubling:
    each step multiplies the filled prefix by base^filled, in place in the
    next stretch of the array (no temporaries)."""
    out = np.empty(n, dtype=np.int64)
    filled, step = 1, base % q
    out[:1] = 1
    while filled < n:
        k = min(filled, n - filled)
        nxt = out[filled:filled + k]
        np.multiply(out[:k], step, out=nxt)
        np.remainder(nxt, q, out=nxt)
        filled += k
        step = step * step % q
    out.flags.writeable = False
    return out


def fq2_mul(x, y, q: int, w: int):
    """x*y in F_q[sqrt(w)] for pairs x = (u, v), y = (u', v') with entries
    in [0, q) and w in [0, q): (u u' + w v v', u v' + v u') mod q.  Entries
    may be Python ints or int64 arrays; no intermediate reaches 2 q^2, so
    the arrays are exact for q < 2^31."""
    (a, b), (c, d) = x, y
    return (a * c + b * d % q * w) % q, (a * d + b * c) % q


def fq2_pow(x, e: int, q: int, w: int):
    """x^e in F_q[sqrt(w)] for e >= 0, by square and multiply, with the
    pair types of fq2_mul; x^0 is (1, 0) in x's shape."""
    u, v = x
    out, base = (u * 0 + 1, v * 0), x
    while e:
        if e & 1:
            out = fq2_mul(out, base, q, w)
        base = fq2_mul(base, base, q, w)
        e >>= 1
    return out


def fq2_power_table(x, n: int, q: int, w: int) -> Tuple[np.ndarray, np.ndarray]:
    """(u, v) int64 arrays with x^i = u[i] + v[i]*sqrt(w), i < n, by
    doubling as in power_table."""
    u = np.empty(n, dtype=np.int64)
    v = np.empty(n, dtype=np.int64)
    u[:1], v[:1] = 1, 0
    filled, step = 1, x
    while filled < n:
        k = min(filled, n - filled)
        u[filled:filled + k], v[filled:filled + k] = fq2_mul((u[:k], v[:k]), step, q, w)
        filled += k
        step = fq2_mul(step, step, q, w)
    return u, v


def fq2_generator(q: int, w: int) -> Tuple[int, int]:
    """The first generator (u, v) of F_q[sqrt(w)]^* in the order
    v = 1..q-1 (outer), u = 0..q-1 (inner)."""
    order = q * q - 1
    exps = [order // f for f in _prime_factors(order)]
    for v in range(1, q):
        for u in range(q):
            if all(fq2_pow((u, v), e, q, w) != (1, 0) for e in exps):
                return u, v
    raise ValueError("no generator found for F_{%d^2}" % q)  # unreachable
