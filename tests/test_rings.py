"""Ring layer: multiplication and reduction maps, and the reference
embeddings and Gram matrices the sampler tests enumerate with."""

import math

import numpy as np
import pytest

import reference as ref
from rlwe_workbench.ffield import FieldCtx
from rlwe_workbench.rings import CycloRing, FamilyRing, reduce_mod_prime_batch, ring_mul

R3 = FamilyRing(3, 2, 13)
C8 = CycloRing(8, 17)


def _embedding(ring):
    if isinstance(ring, CycloRing):
        return ref.cyclotomic_block_basis(ring.m)
    return ref.family_embedding(ring.p, ring.d)


def _abs_disc(ring):
    if isinstance(ring, CycloRing):
        return ref.cyclo_abs_disc(ring.m)
    return ref.family_abs_disc(ring.p, ring.d)


def test_ring_properties():
    assert R3.family_n == 2 and R3.deg == 4
    assert _abs_disc(R3) == 3 ** 2 * 8 ** 2 == 576
    assert C8.n == 4 and C8.deg == 4 and _abs_disc(C8) == 256
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
    assert np.allclose(ref.gram_matrix(_embedding(R3)), expected, atol=1e-9)
    assert abs(np.linalg.det(ref.gram_matrix(_embedding(R3))) - 576) < 1e-6


def test_gram_cyclo_is_scaled_identity():
    assert np.allclose(ref.gram_matrix(_embedding(C8)), 4 * np.eye(4), atol=1e-9)
    assert abs(np.linalg.det(ref.gram_matrix(_embedding(C8))) - 256) < 1e-9


def test_gram_det_equals_disc():
    for ring in (R3, FamilyRing(5, 3, 31), FamilyRing(7, 6, 29), C8, CycloRing(16, 97)):
        det = np.linalg.det(ref.gram_matrix(_embedding(ring)))
        assert abs(det / _abs_disc(ring) - 1) < 1e-9, ring


def test_canonical_embed_linear_and_norm():
    rng = np.random.default_rng(2)
    x = rng.integers(-5, 5, 4)
    y = rng.integers(-5, 5, 4)
    E = _embedding(R3)
    both = ref.canonical_embed(x + y, E)
    assert np.allclose(both, ref.canonical_embed(x, E) + ref.canonical_embed(y, E))
    # norm agrees with the Gram quadratic form
    g = x @ ref.gram_matrix(E) @ x
    assert abs(ref.canonical_embed(x, E) @ ref.canonical_embed(x, E) - g) < 1e-9
    # a (count, deg) array embeds row by row
    assert np.allclose(ref.canonical_embed(np.stack([x, y]), E),
                       [ref.canonical_embed(x, E), ref.canonical_embed(y, E)])
    with pytest.raises(ValueError):
        ref.canonical_embed([1, 2, 3], E)


def _rho(x, ring):
    """rho(x) of one element through the batch map: a (u, v) pair of ints
    in F_13[sqrt(2)] for R3, an int for a cyclotomic ring."""
    out = reduce_mod_prime_batch(np.asarray(x)[None, :], ring)
    if isinstance(ring, CycloRing):
        return int(out[0])
    return int(out[0][0]), int(out[1][0])


def test_reduce_mod_prime_frozen_generators():
    assert _rho([0, 1, 0, 0], R3) == (R3.alpha(), 0) == (3, 0)  # zeta
    assert _rho([0, 0, 1, 0], R3) == (0, 1)  # sqrt(d)
    assert _rho([1, 0, 0, 0], R3) == (1, 0)


def test_reduce_mod_prime_is_ring_hom():
    # products and sums in F_13[sqrt(2)] from the tuple model, R3's d = 2
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.integers(0, 13, 4)
        y = rng.integers(0, 13, 4)
        rx, ry = _rho(x, R3), _rho(y, R3)
        assert _rho(ring_mul(x, y, R3), R3) == ref.fq2_mul(rx, ry, 13, 2)
        assert _rho((x + y) % 13, R3) == ref.fq2_add(rx, ry, 13)


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
    alpha = R3.alpha()
    for i in range(50):
        c = [int(x) for x in coeffs[i]]
        assert u[i] == (c[0] + c[1] * alpha) % 13
        assert v[i] == (c[2] + c[3] * alpha) % 13
    cy = rng.integers(-17, 34, (50, 4))
    vals = reduce_mod_prime_batch(cy, C8)
    alpha = C8.alpha()
    for i in range(50):
        assert vals[i] == sum(int(c) * alpha ** j for j, c in enumerate(cy[i])) % 17


# the largest q = 1 (mod m, resp. p) with deg * (q - 1)^2 < 2^63
C4_MAX = CycloRing(4, 2147483629)
R3_MAX = FamilyRing(3, 2, 1518500173)


@pytest.mark.parametrize("ring", [R3, C8, R3_MAX, C4_MAX], ids=str)
def test_signed_inputs_match_the_reduced_first_reference(ring):
    # entries inside (-q, q) skip the first % q; on the edges, beyond them and
    # at +-2^40 the results must be the residues of the reduce-first route
    q, deg = ring.q, ring.deg
    n = deg // 2 if isinstance(ring, FamilyRing) else deg
    rng = np.random.default_rng(6)
    inside = rng.integers(-(q - 1), q, (40, deg))
    inside[0], inside[1] = q - 1, -(q - 1)
    edges = rng.choice([0, 1, -1, q - 1, -(q - 1), q, -q, 2 ** 40, -2 ** 40], (40, deg))
    powers = np.array([pow(ring.alpha(), j, q) for j in range(n)], dtype=object)
    y = rng.integers(0, q, deg)
    for x in (inside, edges, np.vstack([inside, edges])):
        want = (x % q).astype(object).reshape(-1, n) @ powers % q
        got = reduce_mod_prime_batch(x, ring)
        got = got if isinstance(ring, CycloRing) else np.stack(got, axis=1).ravel()
        assert got.tolist() == want.tolist()
        prod = ring_mul(x, y, ring)
        assert np.array_equal(prod, ring_mul(x % q, y, ring))
        assert np.array_equal(ring_mul(x[3], y, ring), prod[3])


def _exact_mul(x, y, ring):
    """x*y in R/qR in Python integers, straight from the ring's relations:
    x^n = -1 (CycloRing); zeta^(p-1) = -(1 + .. + zeta^(p-2)) and
    sqrt(d)^2 = d (FamilyRing, blocks (x1, x2) = x1 + x2 sqrt(d))."""
    x, y, q = [int(c) for c in x], [int(c) for c in y], ring.q
    if isinstance(ring, CycloRing):
        out = [0] * ring.n
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                k = i + j
                out[k % ring.n] += xi * yj if k < ring.n else -xi * yj
        return [c % q for c in out]
    p, n = ring.p, ring.family_n

    def cyc(u, v):  # in Z[zeta_p]
        out = [0] * p
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[(i + j) % p] += ui * vj
        return [c - out[p - 1] for c in out[:n]]
    x1, x2, y1, y2 = x[:n], x[n:], y[:n], y[n:]
    e1 = [a + ring.d * b for a, b in zip(cyc(x1, y1), cyc(x2, y2))]
    e2 = [a + b for a, b in zip(cyc(x1, y2), cyc(x2, y1))]
    return [c % q for c in e1 + e2]


# the largest q = 1 (mod m, resp. p) with deg * (q - 1)^2 < 2^53, where
# ring_mul takes the float64 product, and the next, where it takes int64
C4_BELOW, C4_ABOVE = CycloRing(4, 67108861), CycloRing(4, 67108865)
R3_BELOW, R3_ABOVE = FamilyRing(3, 2, 47453131), FamilyRing(3, 2, 47453134)


@pytest.mark.parametrize("ring", [C4_BELOW, C4_ABOVE, R3_BELOW, R3_ABOVE, C4_MAX, R3_MAX],
                         ids=str)
def test_ring_mul_matches_python_integers(ring):
    q, deg = ring.q, ring.deg
    below = deg * (q - 1) ** 2 < 2 ** 53
    assert below == (ring in (C4_BELOW, R3_BELOW))
    rng = np.random.default_rng(9)
    x = rng.integers(-(q - 1), q, (60, deg))  # signed, inside (-q, q)
    x[:20] = rng.choice([q - 1, q - 2, -(q - 1), -(q - 2)], (20, deg))
    for y in (rng.integers(0, q, deg), np.full(deg, q - 1), np.full(deg, q - 2)):
        got = ring_mul(x, y, ring)
        assert got.tolist() == [_exact_mul(row, y, ring) for row in x]
        assert ring_mul(x[5], y, ring).tolist() == got[5].tolist()


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
        direct = 7.25 * _abs_disc(ring) ** (1.0 / (2 * ring.deg))
        assert abs(ring.suggested_r(7.25) / direct - 1) < 1e-12


def test_scaled_width_r0_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            R3.suggested_r(bad)
