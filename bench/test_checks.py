"""Tests for the benchmark's check helpers; they run no workload.

    python3 -m pytest bench/test_checks.py
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import checks


@pytest.mark.parametrize("p, box, widths", [(3, 40, (0.5, 1.0, 2.0, 5.0)), (5, 8, (1.0, 2.0))])
def test_collapse_probability_against_enumeration(p, box, widths):
    """1 / Theta_L against a direct sum of exp(-x^T G x / w^2) over a box of
    coefficient vectors, G = p*I - J."""
    gram = p * np.eye(p - 1) - 1.0
    axes = np.meshgrid(*[np.arange(-box, box + 1)] * (p - 1), indexing="ij")
    z = np.stack([ax.ravel() for ax in axes], axis=1)
    norms = np.einsum("ij,jk,ik->i", z, gram, z)
    for w in widths:
        brute = 1.0 / np.exp(-norms / (w * w)).sum()
        assert checks.collapse_probability(p, w) == pytest.approx(brute, rel=1e-12)


def _poly_mulmod(x, y, p, q):
    """x * y in Z[t]/(Phi_p(t), q) by schoolbook product and long division."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    phi = [1] * p  # 1 + t + ... + t^(p-1), monic
    for top in range(len(prod) - 1, p - 2, -1):
        c = prod[top]
        for k in range(p):
            prod[top - (p - 1) + k] -= c * phi[k]
    return [c % q for c in prod[:p - 1]]


def _direct_family_mul(x, y, p, d, q):
    n = p - 1
    x1, x2, y1, y2 = list(x[:n]), list(x[n:]), list(y[:n]), list(y[n:])
    u = [(a + d * b) % q for a, b in zip(_poly_mulmod(x1, y1, p, q), _poly_mulmod(x2, y2, p, q))]
    v = [(a + b) % q for a, b in zip(_poly_mulmod(x1, y2, p, q), _poly_mulmod(x2, y1, p, q))]
    return u + v


@pytest.mark.parametrize("p, d, q", [(3, 2, 13), (7, 4871, 1051), (43, 4871, 173)])
def test_ring_product_and_rho_against_polynomial_arithmetic(p, d, q):
    rng = np.random.default_rng(p * q)
    n = p - 1
    xs = rng.integers(0, q, size=(5, 2 * n))
    y = rng.integers(0, q, size=2 * n)
    got = checks.family_mul(xs, y, p, d, q)
    for x, row in zip(xs, got):
        assert row.tolist() == _direct_family_mul(x.tolist(), y.tolist(), p, d, q)
    alpha = next(a for a in range(2, q) if pow(a, p, q) == 1)
    # rho evaluates each block at zeta -> alpha ...
    u, v = checks.rho(xs, p, q, alpha)
    for x, ui, vi in zip(xs, u, v):
        assert ui == sum(int(c) * pow(alpha, i, q) for i, c in enumerate(x[:n])) % q
        assert vi == sum(int(c) * pow(alpha, i, q) for i, c in enumerate(x[n:])) % q
    # ... and is a ring map into F_q[sqrt(d)]: rho(x y) = rho(x) rho(y)
    yu, yv = checks.rho(y[None, :], p, q, alpha)
    pu, pv = checks.rho(got, p, q, alpha)
    for ui, vi, a, b in zip(u, v, pu, pv):
        assert a == (ui * yu[0] + d * vi * yv[0]) % q
        assert b == (ui * yv[0] + vi * yu[0]) % q
    with pytest.raises(ValueError):
        checks.rho(xs, p, q, 1)


@pytest.mark.parametrize("m, q, degree", [(64, 193, 1), (64, 383, 2)])
def test_coset_sum_against_full_grid(m, q, degree):
    grid = checks.grid_log2_eps(m, q, 2, degree)
    assert checks.orbit_log2_eps(m, q, 2, degree) == pytest.approx(grid, abs=1e-9)


def test_full_grid_on_the_smallest_instance():
    """eps(4, 5, 2) = (1/2) sum_{y=1}^{4} prod_{i=1}^{2} cos(pi 2^i y / 5)^2 = 1/8,
    with alpha = 2, the first element of order 4 mod 5."""
    assert checks.grid_log2_eps(4, 5, 2, 1) == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("m, q", [(16, 7), (8, 11)])
def test_degree2_sum_by_enumeration(m, q):
    """The degree-2 sum over F_q[s]/(s^2 - c) for the smallest non-residue c
    (checks.py uses the largest), with Tr(u + v s) = 2u."""
    c = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)

    def mul(x, y):
        return ((x[0] * y[0] + c * x[1] * y[1]) % q, (x[0] * y[1] + x[1] * y[0]) % q)

    def power(x, e):
        out = (1, 0)
        for _ in range(e):
            out = mul(out, x)
        return out

    field = [(u, v) for u in range(q) for v in range(q)]
    alpha = next(x for x in field if power(x, m // 2) == (q - 1, 0))
    total = 0.0
    for y in field[1:]:
        term, x = 1.0, y
        for _ in range(m // 2):
            x = mul(x, alpha)
            term *= math.cos(math.pi * (2 * x[0] % q) / q) ** 2
        total += term
    want = math.log2(total / 2)
    assert checks.grid_log2_eps(m, q, 2, 2) == pytest.approx(want, abs=1e-9)
    assert checks.orbit_log2_eps(m, q, 2, 2) == pytest.approx(want, abs=1e-9)


def test_binomial_tails_against_hand_computed_values():
    assert checks.binomial_tails(4, 0.5, 3) == pytest.approx((15 / 16, 5 / 16))
    assert checks.binomial_tails(4, 0.5, 1) == pytest.approx((5 / 16, 15 / 16))
    lower, upper = checks.binomial_tails(10, 0.1, 0)
    assert lower == pytest.approx(0.9 ** 10) and upper == pytest.approx(1.0)
    assert checks.binomial_tails(10, 0.1, 1)[1] == pytest.approx(1 - 0.9 ** 10)
    # P(X >= 4) for Binomial(5, 1/5) = 5 (1/5)^4 (4/5) + (1/5)^5
    want = float(5 * Fraction(1, 5) ** 4 * Fraction(4, 5) + Fraction(1, 5) ** 5)
    assert checks.binomial_tails(5, 0.2, 4)[1] == pytest.approx(want, rel=1e-12)


def test_binomial_consistency_rejects_only_the_tails():
    # 1730 records at P(e2 = 0) = 0.99690: 5.36 nonzero blocks expected
    prob = 1 - 0.99690
    assert checks.binomial_consistent(1730, prob, 5)
    assert checks.binomial_consistent(1730, prob, 0)
    assert not checks.binomial_consistent(1730, prob, 31)
    assert not checks.binomial_consistent(100, 0.5, 20)
    assert checks.binomial_consistent(100, 0.5, 40)


def test_secret_hash_encoding():
    got = checks.secret_hash([1, 15, 3], 13)
    assert got == hashlib.sha256(b"q=13;coeffs=1,2,3").hexdigest()


def test_wrapped_second_moment_limits():
    assert checks.wrapped_second_moment(2.0, 1051) == pytest.approx(4.0, rel=1e-9)
    assert checks.wrapped_second_moment(500.0, 13) == pytest.approx(14.0, rel=1e-9)
    assert checks.centred(np.array([0, 6, 7, 12]), 13).tolist() == [0, 6, -6, -1]
