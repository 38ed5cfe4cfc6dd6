"""Finite-field layer: primality, Legendre symbols, F_{q^2} arithmetic,
roots of unity and power tables."""

import pytest

from rlwe_workbench.ffield import (FieldCtx, Fq2Elem, fq2_generator, fq2_power_table,
                                   is_prime, legendre, power_table, root_of_unity,
                                   smallest_nonresidue)


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
    for c in (0, 1, -7, 341, 561, 5583, 5887, 1000003 * 1000033, 2 ** 31 + 1):
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


def test_fieldctx_validation():
    with pytest.raises(ValueError):
        FieldCtx(12)
    with pytest.raises(ValueError):
        FieldCtx(2)
    with pytest.raises(ValueError):
        FieldCtx(13, d_red=3)  # 3 = 4^2 mod 13 is a residue
    with pytest.raises(ValueError):
        FieldCtx(13, d_red=2, alpha_p=1)
    ctx = FieldCtx(13)
    assert ctx.d_red == 2 and ctx.alpha_p is None


def test_for_family_frozen():
    ctx = FieldCtx.for_family(3, 2, 13)
    assert ctx.q == 13 and ctx.d_red == 2
    assert ctx.alpha_p == 3 and pow(ctx.alpha_p, 3, 13) == 1
    ctx43 = FieldCtx.for_family(43, 4871, 173)
    assert ctx43.d_red == 4871 % 173
    assert ctx43.alpha_p == 16
    assert pow(ctx43.alpha_p, 43, 173) == 1 and ctx43.alpha_p != 1


def test_fq2_mul_frozen():
    ctx = FieldCtx(13, d_red=2)
    x, y = ctx.elem(3, 5), ctx.elem(7, 11)
    z = x * y  # (3*7 + 2*5*11, 3*11 + 5*7) = (131, 68) = (1, 3) mod 13
    assert (z.u, z.v) == (1, 3)
    assert ((x + y).u, (x + y).v) == (10, 3)
    assert ((x - y).u, (x - y).v) == (9, 7)
    assert ((-x).u, (-x).v) == (10, 8)


def test_fq2_inverse_exhaustive():
    ctx = FieldCtx(13)
    one = ctx.elem(1)
    for u in range(13):
        for v in range(13):
            if u == 0 and v == 0:
                continue
            x = ctx.elem(u, v)
            assert x * x.inverse() == one
            assert x / x == one
    with pytest.raises(ZeroDivisionError):
        ctx.elem(0, 0).inverse()


def test_fq2_pow():
    ctx = FieldCtx(13)
    x = ctx.elem(4, 9)
    assert x ** 0 == ctx.elem(1)
    assert x ** 1 == x
    assert x ** 5 == x * x * x * x * x
    assert x ** (13 * 13 - 1) == ctx.elem(1)  # group order
    assert x ** -1 == x.inverse()


def test_norm_lands_in_prime_field():
    ctx = FieldCtx(13)
    for u in range(13):
        for v in range(13):
            x = ctx.elem(u, v)
            assert (x * x ** 13).v == 0  # the norm x * x^q


def test_frobenius_fixed_points_are_prime_field():
    ctx = FieldCtx(13)
    fixed = {(x.u, x.v)
             for u in range(13) for v in range(13)
             for x in [ctx.elem(u, v)] if x ** 13 == x}
    assert fixed == {(u, 0) for u in range(13)}


def test_frobenius_is_qth_power():
    # x^q is the conjugate (u, v) -> (u, -v), since sqrt(d)^q = -sqrt(d)
    ctx = FieldCtx(13)
    for (u, v) in [(3, 5), (0, 1), (7, 0), (12, 12)]:
        assert ctx.elem(u, v) ** 13 == ctx.elem(u, -v)


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
    for q, (u, v), n in [(13, (4, 9), 170), (173, (1, 1), 1000), (5119, (1, 1), 777)]:
        ctx = FieldCtx(q)
        x = ctx.elem(u, v)
        us, vs = fq2_power_table(x, n)
        acc = ctx.elem(1)
        for i in range(n):
            assert (us[i], vs[i]) == (acc.u, acc.v)
            acc = acc * x


def test_fq2_generator_is_first_of_full_order():
    for q in (3, 5, 7, 13):
        ctx = FieldCtx(q)
        one = ctx.elem(1)
        first = None
        for v in range(1, q):
            for u in range(q):
                x, k = ctx.elem(u, v), 1
                y = x
                while y != one:
                    y, k = y * x, k + 1
                if k == q * q - 1:
                    first = x
                    break
            if first is not None:
                break
        assert fq2_generator(ctx) == first
