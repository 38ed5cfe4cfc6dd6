"""Ring layer: multiplication, embeddings, Gram matrices, reduction maps."""

import math

import numpy as np
import pytest

from rlwe_workbench.ffield import FieldCtx, Fq2Elem
from rlwe_workbench.rings import (CycloRing, FamilyRing, RingElem, canonical_embed,
                                  gram_matrix, reduce_mod_prime_batch, ring_mul)

R3 = FamilyRing(3, 2, 13)
C8 = CycloRing(8, 17)


def test_ring_properties():
    assert R3.family_n == 2 and R3.deg == 4
    assert R3.abs_disc == 3 ** 2 * 8 ** 2 == 576
    assert C8.n == 4 and C8.deg == 4 and C8.abs_disc == 256
    alpha = C8.alpha()
    assert pow(alpha, 8, 17) == 1 and pow(alpha, 4, 17) == 16


def test_ring_validation():
    with pytest.raises(ValueError):
        FamilyRing(4, 2, 13)
    with pytest.raises(ValueError):
        FamilyRing(3, 1, 13)
    with pytest.raises(ValueError):
        CycloRing(6, 13)
    with pytest.raises(ValueError):
        CycloRing(8, 19)  # 19 is not 1 mod 8
    # deg * (q - 1)^2 >= 2^63 would wrap the int64 products
    with pytest.raises(ValueError, match="2\\^63"):
        CycloRing(4, 2 ** 32 + 1)
    with pytest.raises(ValueError, match="2\\^63"):
        FamilyRing(3, 2, 2 ** 31 + 1)


def test_ring_mul_hand_cases_family():
    # basis order: 1, zeta, sqrt(d), zeta*sqrt(d) for p = 3 (zeta^2 = -1 - zeta)
    zeta = RingElem([0, 1, 0, 0])
    sqd = RingElem([0, 0, 1, 0])
    zsq = RingElem([0, 0, 0, 1])
    assert ring_mul(zeta, zeta, R3).coeffs.tolist() == [12, 12, 0, 0]
    assert ring_mul(sqd, sqd, R3).coeffs.tolist() == [2, 0, 0, 0]
    assert ring_mul(zeta, sqd, R3).coeffs.tolist() == [0, 0, 0, 1]
    assert ring_mul(zsq, zsq, R3).coeffs.tolist() == [11, 11, 0, 0]


def test_ring_mul_hand_case_cyclo():
    # negacyclic: x^4 = -1, so x^3 * x^3 = -x^2
    x3 = RingElem([0, 0, 0, 1])
    assert ring_mul(x3, x3, C8).coeffs.tolist() == [0, 0, 16, 0]


def test_ring_mul_algebra_laws():
    rng = np.random.default_rng(0)
    for ring in (R3, FamilyRing(5, 3, 31), C8, CycloRing(16, 97)):
        q, deg = ring.q, ring.deg
        one = RingElem(np.eye(deg, dtype=np.int64)[0])
        for _ in range(20):
            x = RingElem(rng.integers(0, q, deg))
            y = RingElem(rng.integers(0, q, deg))
            z = RingElem(rng.integers(0, q, deg))
            assert ring_mul(x, one, ring) == RingElem(x.coeffs % q)
            assert ring_mul(x, y, ring) == ring_mul(y, x, ring)
            assert ring_mul(ring_mul(x, y, ring), z, ring) == \
                ring_mul(x, ring_mul(y, z, ring), ring)
            lhs = ring_mul(RingElem((x.coeffs + y.coeffs) % q), z, ring)
            rhs = (ring_mul(x, z, ring).coeffs + ring_mul(y, z, ring).coeffs) % q
            assert lhs == RingElem(rhs)


def test_ring_mul_batch_matches_row_by_row():
    rng = np.random.default_rng(2)
    for ring in (R3, FamilyRing(43, 4871, 173), C8, CycloRing(64, 193)):
        s = RingElem(rng.integers(0, ring.q, ring.deg))
        rows = rng.integers(-ring.q, 2 * ring.q, size=(7, ring.deg))
        batch = ring_mul(rows, s, ring)
        assert batch.shape == rows.shape
        for row, got in zip(rows, batch):
            assert ring_mul(RingElem(row), s, ring) == RingElem(got)


def _complex_eval(coeffs, ring):
    """Evaluate at zeta -> exp(2 pi i / p) (and sqrt(d) -> +sqrt(d)) or
    zeta_m -> exp(2 pi i / m); an exact ring homomorphism to C."""
    if isinstance(ring, CycloRing):
        z = np.exp(2j * np.pi / ring.m)
        return sum(c * z ** i for i, c in enumerate(coeffs))
    p, d = ring.p, ring.d
    z = np.exp(2j * np.pi / p)
    n = ring.family_n
    e1 = sum(c * z ** i for i, c in enumerate(coeffs[:n]))
    e2 = sum(c * z ** i for i, c in enumerate(coeffs[n:]))
    return e1 + math.sqrt(d) * e2


def test_ring_mul_matches_complex_evaluation():
    # coefficients small and q large, so products never wrap mod q and the
    # complex embedding gives an independent route to the same product
    rng = np.random.default_rng(1)
    for ring in (FamilyRing(5, 3, 10007), CycloRing(16, 12289)):
        for _ in range(15):
            x = RingElem(rng.integers(0, 5, ring.deg))
            y = RingElem(rng.integers(0, 5, ring.deg))
            prod = ring_mul(x, y, ring).coeffs
            lifted = np.where(prod > ring.q // 2, prod - ring.q, prod)
            direct = _complex_eval(x.coeffs, ring) * _complex_eval(y.coeffs, ring)
            assert abs(_complex_eval(lifted, ring) - direct) < 1e-6


def test_ring_mul_length_check():
    with pytest.raises(ValueError):
        ring_mul(RingElem([1, 2]), RingElem([1, 2, 3, 4]), R3)
    with pytest.raises(ValueError):
        ring_mul(RingElem([1, 2, 3, 4]), RingElem([1, 2]), R3)
    with pytest.raises(ValueError):
        ring_mul(np.zeros((3, 2), dtype=np.int64), RingElem([1, 2, 3, 4]), R3)


def test_gram_frozen_small_family():
    expected = np.array([[4, -2, 0, 0],
                         [-2, 4, 0, 0],
                         [0, 0, 8, -4],
                         [0, 0, -4, 8]], dtype=float)
    assert np.allclose(gram_matrix(R3), expected, atol=1e-9)
    assert abs(np.linalg.det(gram_matrix(R3)) - 576) < 1e-6


def test_gram_cyclo_is_scaled_identity():
    assert np.allclose(gram_matrix(C8), 4 * np.eye(4), atol=1e-9)
    assert abs(np.linalg.det(gram_matrix(C8)) - 256) < 1e-9


def test_gram_det_equals_disc():
    for ring in (R3, FamilyRing(5, 3, 31), FamilyRing(7, 6, 29), C8, CycloRing(16, 97)):
        det = np.linalg.det(gram_matrix(ring))
        assert abs(det / ring.abs_disc - 1) < 1e-9, ring


def test_canonical_embed_linear_and_norm():
    rng = np.random.default_rng(2)
    x = RingElem(rng.integers(-5, 5, 4))
    y = RingElem(rng.integers(-5, 5, 4))
    both = canonical_embed(RingElem(x.coeffs + y.coeffs), R3)
    assert np.allclose(both, canonical_embed(x, R3) + canonical_embed(y, R3))
    # norm agrees with the Gram quadratic form
    g = x.coeffs @ gram_matrix(R3) @ x.coeffs
    assert abs(canonical_embed(x, R3) @ canonical_embed(x, R3) - g) < 1e-9


def _rho(x, ring, ctx):
    """rho(x) of one element through the batch map: an Fq2Elem for a family
    ring, an int for a cyclotomic one."""
    out = reduce_mod_prime_batch(x.coeffs[None, :], ring, ctx)
    if isinstance(ring, CycloRing):
        return int(out[0])
    return Fq2Elem(ctx, int(out[0][0]), int(out[1][0]))


def test_reduce_mod_prime_frozen_generators():
    ctx = FieldCtx.for_family(3, 2, 13)
    r = _rho(RingElem([0, 1, 0, 0]), R3, ctx)  # zeta
    assert (r.u, r.v) == (ctx.alpha_p, 0) == (3, 0)
    r = _rho(RingElem([0, 0, 1, 0]), R3, ctx)  # sqrt(d)
    assert (r.u, r.v) == (0, 1)
    r = _rho(RingElem([1, 0, 0, 0]), R3, ctx)
    assert (r.u, r.v) == (1, 0)


def test_reduce_mod_prime_is_ring_hom():
    ctx = FieldCtx.for_family(3, 2, 13)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = RingElem(rng.integers(0, 13, 4))
        y = RingElem(rng.integers(0, 13, 4))
        rx, ry = _rho(x, R3, ctx), _rho(y, R3, ctx)
        assert _rho(ring_mul(x, y, R3), R3, ctx) == rx * ry
        s = RingElem((x.coeffs + y.coeffs) % 13)
        assert _rho(s, R3, ctx) == rx + ry


def test_reduce_mod_prime_cyclo_hom():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = RingElem(rng.integers(0, 17, 4))
        y = RingElem(rng.integers(0, 17, 4))
        rx = _rho(x, C8, None)
        ry = _rho(y, C8, None)
        assert _rho(ring_mul(x, y, C8), C8, None) == rx * ry % 17


def test_reduce_batch_matches_scalar():
    # each row against rho evaluated term by term in Python integers
    ctx = FieldCtx.for_family(3, 2, 13)
    rng = np.random.default_rng(5)
    coeffs = rng.integers(0, 13, (50, 4))
    u, v = reduce_mod_prime_batch(coeffs, R3, ctx)
    for i in range(50):
        c = [int(x) for x in coeffs[i]]
        assert u[i] == (c[0] + c[1] * ctx.alpha_p) % 13
        assert v[i] == (c[2] + c[3] * ctx.alpha_p) % 13
    cy = rng.integers(0, 17, (50, 4))
    vals = reduce_mod_prime_batch(cy, C8, None)
    alpha = C8.alpha()
    for i in range(50):
        assert vals[i] == sum(int(c) * alpha ** j for j, c in enumerate(cy[i])) % 17


def test_reduce_validation():
    good = FieldCtx.for_family(3, 2, 13)
    x = np.array([[1, 2, 3, 4]])
    with pytest.raises(ValueError):
        reduce_mod_prime_batch(x, R3, FieldCtx(17))  # wrong modulus
    with pytest.raises(ValueError):
        reduce_mod_prime_batch(x, R3, FieldCtx(13))  # alpha_p missing
    with pytest.raises(ValueError):
        reduce_mod_prime_batch(x, R3, FieldCtx(13, d_red=2, alpha_p=4))  # wrong order
    with pytest.raises(ValueError):
        # 5 is a nonresidue mod 13 but is not d mod q, so the model mismatches
        reduce_mod_prime_batch(x, R3, FieldCtx(13, d_red=5, alpha_p=3))
    with pytest.raises(ValueError):
        reduce_mod_prime_batch(np.zeros((3, 5), dtype=np.int64), R3, good)


def test_scaled_width_r0_frozen():
    # r0 = r / |disc|^(1/(2 deg)), and suggested_r(1.0) is that scale
    ring = FamilyRing(43, 4871, 173)
    assert abs(694.94 / ring.suggested_r(1.0) - 9.3808) < 1e-3
    ring = FamilyRing(31, 4967, 311)
    assert abs(592.94 / ring.suggested_r(1.0) - 9.4983) < 1e-3


def test_scaled_width_r0_second_route():
    # against the exact integer discriminant, rather than the log formula
    for ring in (R3, FamilyRing(5, 3, 31)):
        direct = 7.25 * ring.abs_disc ** (1.0 / (2 * ring.deg))
        assert abs(ring.suggested_r(7.25) / direct - 1) < 1e-12


def test_scaled_width_r0_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            R3.suggested_r(bad)


def test_ring_elem_basics():
    x = RingElem([1, 2, 3, 4])
    assert len(x) == 4
    assert x == RingElem(np.array([1, 2, 3, 4]))
    assert x != RingElem([1, 2, 3, 5])
