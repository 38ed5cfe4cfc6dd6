"""Finite-field layer: primality, Legendre symbols, F_{q^2} arithmetic,
roots of unity and power tables.

The F_{q^2} checks count against the tuple model in reference.py, not
against the library's own fq2_mul."""

import numpy as np
import pytest

import reference as ref
from rlwe_workbench.ffield import (FieldCtx, fq2_generator, fq2_mul, fq2_pow,
                                   fq2_power_table, is_prime, legendre, power_table,
                                   root_of_unity, smallest_nonresidue)


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return {i for i, f in enumerate(flags) if f}


def test_is_prime_small_range_matches_sieve():
    primes = _sieve(2000)
    for n in range(2000):
        assert is_prime(n) == (n in primes), n


def test_is_prime_known_values():
    for p in (173, 167, 193, 311, 1153, 3329, 4871, 4903, 7937, 10753, 2 ** 31 - 1):
        assert is_prime(p), p
    # 101^2 and the base-2 strong pseudoprimes 42799, 49141 and 88357 have
    # no factor in the small-prime list, so Miller-Rabin alone refuses them
    for c in (0, 1, -7, 341, 561, 5583, 5887, 10201, 42799, 49141, 88357,
              1000003 * 1000033, 2 ** 31 + 1):
        assert not is_prime(c), c


def test_legendre_frozen_values():
    assert legendre(2, 13) == -1
    assert legendre(2, 7) == 1
    assert legendre(4871, 173) == -1
    assert legendre(0, 13) == 0
    assert legendre(13 + 2, 13) == legendre(2, 13)  # reduction mod q


def test_legendre_against_square_sets():
    for q in (7, 13, 97):
        squares = {x * x % q for x in range(1, q)}
        for a in range(1, q):
            assert legendre(a, q) == (1 if a in squares else -1), (a, q)


def test_legendre_multiplicative():
    q = 97
    for a in range(1, q):
        for b in (2, 3, 5, 50, 96):
            assert legendre(a * b, q) == legendre(a, q) * legendre(b, q)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 12)
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_smallest_nonresidue():
    assert smallest_nonresidue(13) == 2
    assert smallest_nonresidue(17) == 3
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(173) == 2


def test_for_family_frozen():
    ctx = FieldCtx.for_family(3, 2, 13)
    assert ctx.alpha_p == 3 and pow(ctx.alpha_p, 3, 13) == 1
    ctx43 = FieldCtx.for_family(43, 4871, 173)
    assert ctx43.alpha_p == 16
    assert pow(ctx43.alpha_p, 43, 173) == 1 and ctx43.alpha_p != 1
    for q in (12, 17):  # not prime; prime, but 3 does not divide q - 1
        with pytest.raises(ValueError):
            FieldCtx.for_family(3, 2, q)


def test_fq2_mul_frozen():
    # (3 + 5 sqrt2)(7 + 11 sqrt2) = (3*7 + 2*5*11, 3*11 + 5*7) = (131, 68) = (1, 3) mod 13
    assert fq2_mul((3, 5), (7, 11), 13, 2) == (1, 3)
    u, v = fq2_mul((np.array([3, 7]), np.array([5, 11])),
                   (np.array([7, 3]), np.array([11, 5])), 13, 2)
    assert u.dtype == v.dtype == np.int64
    assert u.tolist() == [1, 1] and v.tolist() == [3, 3]


def test_fq2_mul_matches_reference():
    # every product in F_{13^2}, and 20000 random ones at the largest q of
    # a benchmark row, as int64 arrays against the tuple model's Python ints;
    # the element u + v sqrt(w) is coded as u q + v
    rng = np.random.default_rng(1)
    every = np.stack(np.meshgrid(np.arange(13 ** 2), np.arange(13 ** 2)), axis=-1)
    for q, codes in [(13, every.reshape(-1, 2)), (5119, rng.integers(0, 5119 ** 2, (20000, 2)))]:
        w = smallest_nonresidue(q)
        x, y = codes[:, 0], codes[:, 1]
        u, v = fq2_mul((x // q, x % q), (y // q, y % q), q, w)
        want = [ref.fq2_mul(divmod(a, q), divmod(b, q), q, w)
                for a, b in zip(x.tolist(), y.tolist())]
        assert list(zip(u.tolist(), v.tolist())) == want


def test_fq2_pow():
    q, w = 13, 2
    x = (4, 9)
    assert fq2_pow(x, 0, q, w) == (1, 0)
    assert fq2_pow(x, 1, q, w) == x
    five = (1, 0)
    for _ in range(5):
        five = ref.fq2_mul(five, x, q, w)
    assert fq2_pow(x, 5, q, w) == five
    assert fq2_pow(x, q * q - 1, q, w) == (1, 0)  # group order
    # int64 arrays, element by element against the tuple model
    us, vs = np.arange(q).repeat(q), np.tile(np.arange(q), q)
    for e in (0, 1, 2, 7, q, q * q - 2):
        u, v = fq2_pow((us, vs), e, q, w)
        assert u.shape == v.shape == us.shape
        want = [ref.fq2_pow(y, e, q, w) for y in zip(us.tolist(), vs.tolist())]
        assert list(zip(u.tolist(), v.tolist())) == want


def test_norm_lands_in_prime_field():
    q, w = 13, 2
    for u in range(q):
        for v in range(q):
            x = (u, v)
            assert ref.fq2_mul(x, ref.fq2_pow(x, q, q, w), q, w)[1] == 0  # the norm x * x^q


def test_frobenius_fixed_points_are_prime_field():
    q, w = 13, 2
    fixed = {(u, v) for u in range(q) for v in range(q)
             if ref.fq2_pow((u, v), q, q, w) == (u, v)}
    assert fixed == {(u, 0) for u in range(q)}


def test_frobenius_is_qth_power():
    # x^q is the conjugate (u, v) -> (u, -v), since sqrt(w)^q = -sqrt(w)
    q, w = 13, 2
    for x in [(3, 5), (0, 1), (7, 0), (12, 12)]:
        assert ref.fq2_pow(x, q, q, w) == ref.fq2_conj(x, q)


def test_find_order_p_element():
    # the family's alpha_p: an element of exact order p in F_q^*
    x = root_of_unity(3, 13)
    assert pow(x, 3, 13) == 1 and x != 1
    with pytest.raises(ValueError):
        root_of_unity(5, 13)  # 5 does not divide 12
    y = root_of_unity(43, 173)
    assert pow(y, 43, 173) == 1 and y != 1
    assert FieldCtx.for_family(43, 4871, 173).alpha_p == y


# ------------------------------------------------ roots and power tables

def _order(x, q):
    """Multiplicative order of x mod q by stepping through its powers."""
    k, y = 1, x % q
    while y != 1:
        y = y * x % q
        k += 1
    return k


def _first_root(order, q):
    """The definition of root_of_unity, with orders found by brute force."""
    for c in range(2, q):
        x = pow(c, (q - 1) // order, q)
        if _order(x, q) == order:
            return x
    raise AssertionError("no root of order %d mod %d" % (order, q))


def test_root_of_unity_matches_brute_force_order():
    checked = 0
    for q in sorted(_sieve(2000) - {2}):
        orders = {q - 1} | {1 << e for e in range(1, 12) if (q - 1) % (1 << e) == 0}
        orders |= {p for p in (3, 5, 7, 11, 13) if (q - 1) % p == 0}
        for order in orders:
            assert root_of_unity(order, q) == _first_root(order, q), (order, q)
            checked += 1
    assert checked > 1000
    assert root_of_unity(172, 173) == 2  # the smallest generator mod 173
    with pytest.raises(ValueError):
        root_of_unity(5, 13)
    # 8 divides 9 - 1, but 9 is not prime: 2 has order 6 mod 9, not 8
    with pytest.raises(ValueError, match="q is not prime"):
        root_of_unity(8, 9)


def test_power_table_matches_recurrence():
    for base, n, q in [(3, 1, 13), (3, 12, 13), (5, 0, 13), (11, 64, 193),
                       (16, 42, 173), (2, 1050, 1051)]:
        want, acc = [], 1
        for _ in range(n):
            want.append(acc)
            acc = acc * base % q
        table = power_table(base, n, q)
        assert table.tolist() == want
        assert not table.flags.writeable  # cached and shared between callers


def test_fq2_power_table_matches_recurrence():
    for q, x, n in [(13, (4, 9), 170), (173, (1, 1), 1000), (5119, (1, 1), 777)]:
        w = smallest_nonresidue(q)
        us, vs = fq2_power_table(x, n, q, w)
        acc = (1, 0)
        for i in range(n):
            assert (us[i], vs[i]) == acc
            acc = ref.fq2_mul(acc, x, q, w)


def test_fq2_generator_is_first_of_full_order():
    for q in (3, 5, 7, 13):
        w = smallest_nonresidue(q)
        first = None
        for v in range(1, q):
            for u in range(q):
                x, k = (u, v), 1
                y = x
                while y != (1, 0):
                    y, k = ref.fq2_mul(y, x, q, w), k + 1
                if k == q * q - 1:
                    first = x
                    break
            if first is not None:
                break
        assert fq2_generator(q, w) == first
