"""Ring layer: multiplication, embeddings, Gram matrices, reduction maps."""

import math

import numpy as np
import pytest

from rlwe_workbench.ffield import FieldCtx, Fq2Elem
from rlwe_workbench.rings import (CycloRing, FamilyRing, canonical_embed, gram_matrix,
                                  reduce_mod_prime_batch, ring_mul)

R3 = FamilyRing(3, 2, 13)
C8 = CycloRing(8, 17)


def test_ring_properties():
    assert R3.family_n == 2 and R3.deg == 4
    assert R3.abs_disc == 3 ** 2 * 8 ** 2 == 576
    assert C8.n == 4 and C8.deg == 4 and C8.abs_disc == 256
    alpha = C8.alpha()
    assert pow(alpha, 8, 17) == 1 and pow(alpha, 4, 17) == 16
    assert R3.alpha() == 3 and pow(R3.alpha(), 3, 13) == 1


def test_family_alpha_matches_field_context():
    """The benchmark computes its own rho(s) from FieldCtx.for_family's
    alpha_p; the reduction map uses FamilyRing.alpha().  They must agree on
    the benchmark's rows."""
    for p, d, q in [(3, 2, 13), (43, 4871, 173), (83, 4903, 167), (7, 4871, 1051)]:
        assert FieldCtx.for_family(p, d, q).alpha_p == FamilyRing(p, d, q).alpha()


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
    zeta = [0, 1, 0, 0]
    sqd = [0, 0, 1, 0]
    zsq = [0, 0, 0, 1]
    assert ring_mul(zeta, zeta, R3).tolist() == [12, 12, 0, 0]
    assert ring_mul(sqd, sqd, R3).tolist() == [2, 0, 0, 0]
    assert ring_mul(zeta, sqd, R3).tolist() == [0, 0, 0, 1]
    assert ring_mul(zsq, zsq, R3).tolist() == [11, 11, 0, 0]


def test_ring_mul_hand_case_cyclo():
    # negacyclic: x^4 = -1, so x^3 * x^3 = -x^2
    x3 = [0, 0, 0, 1]
    assert ring_mul(x3, x3, C8).tolist() == [0, 0, 16, 0]


def test_ring_mul_algebra_laws():
    rng = np.random.default_rng(0)
    for ring in (R3, FamilyRing(5, 3, 31), C8, CycloRing(16, 97)):
        q, deg = ring.q, ring.deg
        one = np.eye(deg, dtype=np.int64)[0]
        for _ in range(20):
            x = rng.integers(0, q, deg)
            y = rng.integers(0, q, deg)
            z = rng.integers(0, q, deg)
            assert np.array_equal(ring_mul(x, one, ring), x % q)
            assert np.array_equal(ring_mul(x, y, ring), ring_mul(y, x, ring))
            assert np.array_equal(ring_mul(ring_mul(x, y, ring), z, ring),
                                  ring_mul(x, ring_mul(y, z, ring), ring))
            lhs = ring_mul((x + y) % q, z, ring)
            rhs = (ring_mul(x, z, ring) + ring_mul(y, z, ring)) % q
            assert np.array_equal(lhs, rhs)


def test_ring_mul_batch_matches_row_by_row():
    rng = np.random.default_rng(2)
    for ring in (R3, FamilyRing(43, 4871, 173), C8, CycloRing(64, 193)):
        s = rng.integers(0, ring.q, ring.deg)
        rows = rng.integers(-ring.q, 2 * ring.q, size=(7, ring.deg))
        batch = ring_mul(rows, s, ring)
        assert batch.shape == rows.shape and batch.dtype == np.int64
        for row, got in zip(rows, batch):
            one = ring_mul(row, s, ring)
            assert one.shape == (ring.deg,) and one.dtype == np.int64
            assert np.array_equal(one, got)


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
            x = rng.integers(0, 5, ring.deg)
            y = rng.integers(0, 5, ring.deg)
            prod = ring_mul(x, y, ring)
            lifted = np.where(prod > ring.q // 2, prod - ring.q, prod)
            direct = _complex_eval(x, ring) * _complex_eval(y, ring)
            assert abs(_complex_eval(lifted, ring) - direct) < 1e-6


def test_ring_mul_length_check():
    with pytest.raises(ValueError):
        ring_mul([1, 2], [1, 2, 3, 4], R3)
    with pytest.raises(ValueError):
        ring_mul([1, 2, 3, 4], [1, 2], R3)
    with pytest.raises(ValueError):
        ring_mul(np.zeros((3, 2), dtype=np.int64), [1, 2, 3, 4], R3)
    with pytest.raises(ValueError):  # y is one element, not a batch
        ring_mul([1, 2, 3, 4], np.zeros((1, 4), dtype=np.int64), R3)


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
    x = rng.integers(-5, 5, 4)
    y = rng.integers(-5, 5, 4)
    both = canonical_embed(x + y, R3)
    assert np.allclose(both, canonical_embed(x, R3) + canonical_embed(y, R3))
    # norm agrees with the Gram quadratic form
    g = x @ gram_matrix(R3) @ x
    assert abs(canonical_embed(x, R3) @ canonical_embed(x, R3) - g) < 1e-9
    # a (count, deg) array embeds row by row
    assert np.allclose(canonical_embed(np.stack([x, y]), R3),
                       [canonical_embed(x, R3), canonical_embed(y, R3)])
    with pytest.raises(ValueError):
        canonical_embed([1, 2, 3], R3)


CTX3 = FieldCtx.for_family(3, 2, 13)  # F_{13^2} = F_13[sqrt(2)], the oracle's arithmetic


def _rho(x, ring):
    """rho(x) of one element through the batch map: an Fq2Elem for R3, an
    int for a cyclotomic ring."""
    out = reduce_mod_prime_batch(np.asarray(x)[None, :], ring)
    if isinstance(ring, CycloRing):
        return int(out[0])
    return Fq2Elem(CTX3, int(out[0][0]), int(out[1][0]))


def test_reduce_mod_prime_frozen_generators():
    r = _rho([0, 1, 0, 0], R3)  # zeta
    assert (r.u, r.v) == (R3.alpha(), 0) == (3, 0)
    r = _rho([0, 0, 1, 0], R3)  # sqrt(d)
    assert (r.u, r.v) == (0, 1)
    r = _rho([1, 0, 0, 0], R3)
    assert (r.u, r.v) == (1, 0)


def test_reduce_mod_prime_is_ring_hom():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.integers(0, 13, 4)
        y = rng.integers(0, 13, 4)
        rx, ry = _rho(x, R3), _rho(y, R3)
        assert _rho(ring_mul(x, y, R3), R3) == rx * ry
        assert _rho((x + y) % 13, R3) == rx + ry


def test_reduce_mod_prime_cyclo_hom():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.integers(0, 17, 4)
        y = rng.integers(0, 17, 4)
        rx = _rho(x, C8)
        ry = _rho(y, C8)
        assert _rho(ring_mul(x, y, C8), C8) == rx * ry % 17


def test_reduce_batch_matches_scalar():
    # each row against rho evaluated term by term in Python integers, with
    # coefficients outside [0, q) that the map must reduce itself
    rng = np.random.default_rng(5)
    coeffs = rng.integers(-13, 26, (50, 4))
    u, v = reduce_mod_prime_batch(coeffs, R3)
    for i in range(50):
        c = [int(x) for x in coeffs[i]]
        assert u[i] == (c[0] + c[1] * CTX3.alpha_p) % 13
        assert v[i] == (c[2] + c[3] * CTX3.alpha_p) % 13
    cy = rng.integers(-17, 34, (50, 4))
    vals = reduce_mod_prime_batch(cy, C8)
    alpha = C8.alpha()
    for i in range(50):
        assert vals[i] == sum(int(c) * alpha ** j for j, c in enumerate(cy[i])) % 17


def test_reduce_validation():
    with pytest.raises(ValueError):
        reduce_mod_prime_batch(np.zeros((3, 5), dtype=np.int64), R3)
    with pytest.raises(ValueError):
        reduce_mod_prime_batch(np.zeros(4, dtype=np.int64), R3)


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
