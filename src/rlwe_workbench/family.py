"""Search and validate parameters for the vulnerable composite-field family.

A parameter triple (p, d, q) names the degree-2(p-1) field obtained by
adjoining sqrt(d) to the p-th cyclotomic field.  The attack-enabling
structure requires all of:

    1. p an odd prime,
    2. d > 1 squarefree,
    3. d = 2 or 3 (mod 4),
    4. gcd(d, p) = 1,
    5. q prime with q = 1 (mod p),
    6. d a quadratic non-residue mod q.

Under 1-6 the prime q has residue degree 2, the quotient R/qR contains
F_{q^2}, and the chi-square attacks of the attack module apply.
validate, search_q and extend_d return rings.FamilyRing, which carries
the discriminant and the width scaling find-params prints.  validate_ring
builds the ring of a command's or a sample file's parameters: a family
ring through validate, or a cyclotomic ring whose q is prime and which
comes with no p or d.

Squarefreeness is decided by trial division up to 10^6; d with a square
factor beyond 10^12 is rejected as undecidable rather than silently
accepted.
"""

from __future__ import annotations

import math
from typing import List

from .ffield import euler_criterion, is_prime
from .rings import CycloRing, FamilyRing, Ring

_TRIAL_LIMIT = 10 ** 6


class UndecidedError(ValueError):
    """Trial division exhausted before the squarefree question was settled."""


def is_squarefree(n: int) -> bool:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return True
    m = n
    f = 2
    while f <= _TRIAL_LIMIT and f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return False
        f += 1 if f == 2 else 2
    if m > 1 and f * f <= m:
        # remaining cofactor has no factor <= 10^6; it is squarefree unless it
        # is itself a square or a prime square times a prime, so check squares
        r = math.isqrt(m)
        if r * r == m:
            return False
        if not is_prime(m):
            raise UndecidedError(
                "cannot certify %d squarefree: unfactored cofactor %d" % (n, m))
    return True


def _pd_violations(p: int, d: int) -> List[str]:
    """The failures of conditions 1-4, which involve p and d alone."""
    out = []
    if not (p > 2 and is_prime(p)):
        out.append("p=%d is not an odd prime" % p)
    if d <= 1:
        out.append("d=%d is not > 1" % d)
    else:
        if d % 4 not in (2, 3):
            out.append("d=%d is not 2 or 3 mod 4" % d)
        if not is_squarefree(d):
            out.append("d=%d is not squarefree" % d)
    if p > 2 and d >= 1 and math.gcd(d, p) != 1:
        out.append("gcd(d=%d, p=%d) != 1" % (d, p))
    return out


def violations(p: int, d: int, q: int) -> List[str]:
    """Empty list iff (p, d, q) is admissible; else the named failures."""
    out = _pd_violations(p, d)
    if not is_prime(q):
        out.append("q=%d is not prime" % q)
    else:
        if p > 2 and is_prime(p) and q % p != 1:
            out.append("q=%d is not 1 mod p=%d" % (q, p))
        # q = 2 is never 1 mod an odd prime p, and Euler's criterion refuses it
        if d > 1 and q > 2 and euler_criterion(d, q) != -1:
            out.append("d=%d is a square mod q=%d" % (d, q))
    return out


def validate(p: int, d: int, q: int) -> FamilyRing:
    """The ring of an admissible triple; ValueError naming each failure."""
    bad = violations(p, d, q)
    if bad:
        raise ValueError("inadmissible parameters: " + "; ".join(bad))
    return FamilyRing(p, d, q)


def validate_ring(p, d, m, q) -> Ring:
    """The family ring of (p, d, q) when m is None, else the cyclotomic
    ring of (m, q), which takes no p or d and whose q must be prime:
    reduce_mod_prime_batch reduces into F_q at a root of unity mod q.
    ValueError on each refusal, naming a missing p, d or m."""
    if m is None:
        missing = [k for k, v in (("p", p), ("d", d)) if v is None]
        if missing:
            raise ValueError("missing %s: a family ring needs p and d, a cyclotomic "
                             "ring m" % " and ".join(missing))
        return validate(p, d, q)
    if p is not None or d is not None:
        raise ValueError("mixed ring parameters: a cyclotomic ring (m=%d) takes no "
                         "p or d, got p=%r, d=%r" % (m, p, d))
    ring = CycloRing(m, q)
    if not is_prime(q):
        raise ValueError("q=%d is not prime" % q)
    return ring


def search_q(p: int, d: int, q_min: int, q_max: int) -> List[FamilyRing]:
    """All admissible q in [q_min, q_max] for fixed (p, d), ascending."""
    base = _pd_violations(p, d)
    if base:
        raise ValueError("inadmissible (p, d): " + "; ".join(base))
    out = []
    # q = 1 (mod p) narrows the scan to one residue class
    start = q_min + (-(q_min - 1)) % p
    for q in range(start, q_max + 1, p):
        if q > 2 and is_prime(q) and euler_criterion(d, q) == -1:
            out.append(FamilyRing(p, d, q))
    return out


def extend_d(p: int, q: int, d: int, k_max: int) -> List[FamilyRing]:
    """Admissible triples (p, d + 4kq, q) for k = 1..k_max.

    d' = d + 4kq preserves d' mod 4 and the Legendre symbol (d'/q); each
    candidate is still fully re-validated (squarefreeness and gcd can break).
    """
    validate(p, d, q)
    out = []
    for k in range(1, k_max + 1):
        d2 = d + 4 * k * q
        if not violations(p, d2, q):
            out.append(FamilyRing(p, d2, q))
    return out
