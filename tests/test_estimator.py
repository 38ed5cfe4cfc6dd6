"""Fourier-analytic distinguishing-advantage estimates, degree 1 and 2."""

import math

import numpy as np
import pytest

from reference import binomial_vk_pmf, gauss_sum_check
from rlwe_workbench import estimator
from rlwe_workbench.estimator import (EstimateReport, _brute_force_numerators,
                                      _logsumexp2, _orbit_logs,
                                      brute_force_distance, brute_force_pmf,
                                      deg2_admissible, empirical_uniformity,
                                      epsilon, epsilon_deg2,
                                      nearest_admissible_q_deg2,
                                      theoretical_bound)
from rlwe_workbench.attack import critical_value
from rlwe_workbench.ffield import (fq2_generator, fq2_pow, fq2_power_table,
                                   smallest_nonresidue)
from test_acceptance import full_grid_log2_eps_deg1, full_grid_log2_eps_deg2


# ------------------------------------------------------------ exact anchors

def test_tiny_instance_exact():
    rep = epsilon(4, 5, 2)
    assert abs(2 ** rep.log2_eps - 0.125) < 1e-12
    assert rep.degree == 1 and (rep.m, rep.q, rep.k) == (4, 5, 2)
    assert rep.neg_floor_log2_eps == 3


NAIVE_ROWS = [(4, 13, 2), (8, 17, 2), (4, 5, 4), (8, 41, 6)]


def _primitive_roots(m: int, q: int):
    """Every element of exact order m mod q (m a power of 2)."""
    return [a for a in range(2, q) if pow(a, m, q) == 1 and pow(a, m // 2, q) != 1]


def _naive_log2_eps(m: int, q: int, k: int, alpha: int) -> float:
    """Literal sum over every y in F_q^*, no orbit collapsing."""
    total = 0.0
    for y in range(1, q):
        prod = 1.0
        for i in range(m // 2):
            prod *= math.cos(math.pi * (pow(alpha, i, q) * y % q) / q) ** k
        total += prod
    return math.log2(total / 2.0)


def test_alpha_invariance():
    # every one of the phi(m) primitive roots gives the value epsilon reports
    for m, q, k in NAIVE_ROWS:
        roots = _primitive_roots(m, q)
        assert len(roots) == m // 2
        for alpha in roots:
            assert abs(_naive_log2_eps(m, q, k, alpha) - epsilon(m, q, k).log2_eps) < 1e-9


def test_deg1_matches_naive_full_sum():
    """Dual route: literal sum over every y in F_q^*, no orbit collapsing."""
    for m, q, k in NAIVE_ROWS:
        alpha = _primitive_roots(m, q)[0]
        assert abs(_naive_log2_eps(m, q, k, alpha) - epsilon(m, q, k).log2_eps) < 1e-9


def test_deg1_frozen_regression():
    rows = [
        (64, 193, -41.337011815064386, -16.345870128756445, 41),
        (128, 1153, -97.86158866226415, -33.1048395895135, 97),
        (256, 3329, -183.5736579444915, -79.76609961377223, 183),
        (512, 10753, -419.0513184622579, -175.49223613876194, 419),
    ]
    for m, q, log2_eps, log2_bound, floor in rows:
        rep = epsilon(m, q, 2)
        assert abs(rep.log2_eps - log2_eps) < 1e-4
        assert abs(rep.log2_bound - log2_bound) < 1e-4
        assert rep.neg_floor_log2_eps == floor
        assert abs(rep.beta - (1 + math.sqrt(q) / m) / 2) < 1e-12
        assert rep.runtime_ms >= 0.0


@pytest.mark.parametrize("m", [4, 16, 256, 65536])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_fermat_prime_one_coset_is_exact(m, k):
    # q = m + 1: one coset, prod_{z=1}^{(q-1)/2} cos(pi z / q) = +-2^(-(q-1)/2),
    # so log2 eps = log2 m - 1 - k m / 2 is an integer and its floor is exact
    exact = (m.bit_length() - 1) - 1 - k * m // 2
    rep = epsilon(m, m + 1, k)
    assert rep.log2_eps == exact
    assert rep.neg_floor_log2_eps == -exact
    if m <= 256:  # the full grid holds m/2 * m cosines
        assert abs(rep.log2_eps - full_grid_log2_eps_deg1(m, m + 1, k)) < 1e-9


def test_validation():
    with pytest.raises(ValueError, match="is not prime"):
        epsilon(8, 15, 2)
    with pytest.raises(ValueError, match="power of 2"):
        epsilon(6, 13, 2)
    with pytest.raises(ValueError, match="not 1 mod m"):
        epsilon(8, 19, 2)
    with pytest.raises(ValueError, match="even integer"):
        epsilon(8, 17, 3)
    with pytest.raises(ValueError, match="even integer"):
        epsilon(8, 17, 0)


def test_theoretical_bound():
    with pytest.raises(ValueError, match="needs q < m\\^2"):
        theoretical_bound(4, 17, 2)
    assert epsilon(4, 17, 2).log2_bound is None
    got = theoretical_bound(64, 383, 2)
    expect = math.log2(382 / 2) + 32 * math.log2((1 + math.sqrt(383) / 64) / 2)
    assert abs(got - expect) < 1e-12
    assert abs(got - (-12.105134667637945)) < 1e-9


def test_logsumexp2():
    assert _logsumexp2(np.array([-3.0, -3.0])) == -2.0
    assert _logsumexp2(np.array([-2000.0])) == -2000.0  # no absolute floor
    assert _logsumexp2(np.array([], dtype=float)) == -math.inf
    assert _logsumexp2(np.array([-1.0, -2000.0])) == -1.0  # underflows after the shift
    got = _logsumexp2(np.array([-700.0, -700.0]))  # beyond float underflow
    assert abs(got - (-699.0)) < 1e-9


@pytest.mark.parametrize("estimate, m, q, k, full_grid", [
    (epsilon, 512, 10753, 6, full_grid_log2_eps_deg1),
    (epsilon, 512, 10753, 16, full_grid_log2_eps_deg1),
    (epsilon_deg2, 128, 1151, 60, full_grid_log2_eps_deg2),
])
def test_eps_below_2_to_the_minus_1100_matches_full_grid(estimate, m, q, k, full_grid):
    # every term lies below 2^-1100: the sum is finite and still the full grid's
    rep = estimate(m, q, k)
    assert rep.log2_eps < -1100.0
    assert abs(rep.log2_eps - full_grid(m, q, k)) < 1e-9


@pytest.mark.parametrize("estimate, m, q", [
    (epsilon, 64, 193), (epsilon, 512, 10753),
    (epsilon_deg2, 64, 383), (epsilon_deg2, 128, 1151), (epsilon_deg2, 512, 5119),
])
def test_orbit_logs_equal_per_element_formula(monkeypatch, estimate, m, q):
    # the table gather gives exactly the per-element cosine and logarithm,
    # added over i in order, on the inputs epsilon / epsilon_deg2 build
    calls = []

    def spy(*args):
        calls.append(args)
        return _orbit_logs(*args)
    monkeypatch.setattr(estimator, "_orbit_logs", spy)
    estimate(m, q, 2, long_run=True)  # only (512, 5119) is past the gate
    (coef, reps, q_, k), = calls
    assert q_ == q and coef.shape[0] == m // 2
    want = np.zeros(reps.shape[1])
    for row in coef:
        x = row @ reps % q
        want += np.log2(np.abs(np.cos(np.pi * x / q)))
    assert np.array_equal(_orbit_logs(coef, reps, q, k), k * want)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("q", [32749, 32771])
def test_orbit_logs_at_the_integer_lane_boundary(q, d):
    # the dot products reach d (q-1)^2: at d = 2 that fits int32 at
    # q = 32749 and not at q = 32771; residues here are Python integers
    assert (2 * (q - 1) ** 2 < 2 ** 31) == (q == 32749)
    rng = np.random.default_rng(q)
    coef = rng.integers(0, q, size=(12, d))
    reps = rng.integers(0, q, size=(d, 40))
    coef[:4] = [[q - 1] * d, [0] * d, [1] * d, [q - 1] + [0] * (d - 1)]
    reps[:, :4] = np.array([[q - 1] * d, [0] * d, [1] * d, [0] * (d - 1) + [q - 1]]).T
    want = np.zeros(reps.shape[1])
    for row in coef.tolist():
        x = [sum(c * y for c, y in zip(row, col)) % q for col in reps.T.tolist()]
        want += np.log2(np.abs(np.cos(np.pi * np.array(x) / q)))
    assert np.array_equal(_orbit_logs(coef, reps, q, 4), 4 * want)


# bits of log2_eps on every estimate-table row of the benchmark at k = 2,
# and on Kyber's and Dilithium's rings at k = 4
PINNED_LOG2_EPS = [
    (epsilon, 64, 193, 2, "-0x1.4ab2334020898p+5"),
    (epsilon, 128, 1153, 2, "-0x1.8772444c5c1dap+6"),
    (epsilon, 256, 3329, 2, "-0x1.6f25b67e7d5cfp+7"),
    (epsilon, 512, 10753, 2, "-0x1.a30d2334ed142p+8"),
    (epsilon_deg2, 64, 383, 2, "-0x1.ceda629fb653ap+3"),
    (epsilon_deg2, 128, 1151, 2, "-0x1.896d7d9a6d638p+5"),
    (epsilon_deg2, 256, 1279, 2, "-0x1.240edaebb85d5p+7"),
    (epsilon_deg2, 512, 5119, 2, "-0x1.28da7f0f1e963p+8"),
    (epsilon_deg2, 512, 3329, 4, "-0x1.7525b6820b720p+8"),
    (epsilon, 512, 8380417, 4, "-0x1.68c74afed92cfp+9"),
]


@pytest.mark.parametrize("estimate, m, q, k, bits", PINNED_LOG2_EPS)
def test_log2_eps_bits_pinned(estimate, m, q, k, bits):
    assert float.hex(estimate(m, q, k, long_run=True).log2_eps) == bits


# ------------------------------------------------------------------ degree 2

def _naive_deg2(m: int, q: int, k: int) -> float:
    """Independent arithmetic in F_{q^2} = F_q[s]/(s^2 - w): scan for an
    order-m element, then sum the trace-cosine product over all y != 0."""
    w = next(v for v in range(2, q) if pow(v, (q - 1) // 2, q) == q - 1)

    def mul(a, b):
        return ((a[0] * b[0] + a[1] * b[1] * w) % q, (a[0] * b[1] + a[1] * b[0]) % q)

    def power(a, e):
        out, base = (1, 0), a
        while e:
            if e & 1:
                out = mul(out, base)
            base = mul(base, base)
            e >>= 1
        return out

    alpha = next((u, v) for u in range(q) for v in range(q)
                 if (u, v) != (0, 0) and power((u, v), m) == (1, 0)
                 and power((u, v), m // 2) != (1, 0))
    apow = [power(alpha, i) for i in range(m // 2)]
    total = 0.0
    for yu in range(q):
        for yv in range(q):
            if (yu, yv) == (0, 0):
                continue
            prod = 1.0
            for ai in apow:
                z = mul(ai, (yu, yv))
                prod *= math.cos(math.pi * (2 * z[0] % q) / q) ** k
            total += prod
    return math.log2(total / 2.0)


def test_deg2_matches_naive_full_sum():
    for m, q in [(8, 3), (8, 5), (16, 7)]:
        assert abs(_naive_deg2(m, q, 2) - epsilon_deg2(m, q, 2).log2_eps) < 1e-9


def test_deg2_small_frozen():
    assert abs(epsilon_deg2(8, 3, 2).log2_eps - (-4.0)) < 1e-9
    assert abs(epsilon_deg2(8, 5, 2).log2_eps - (-1.8300749985576887)) < 1e-9
    assert abs(epsilon_deg2(16, 7, 2).log2_eps - (-5.245112497836532)) < 1e-9


def test_deg2_admissibility():
    assert deg2_admissible(8, 3) and deg2_admissible(64, 383)
    assert not deg2_admissible(64, 193)  # 64 | 192: degree-1 case
    assert not deg2_admissible(512, 5583)  # not prime
    assert not deg2_admissible(8, 15)
    assert nearest_admissible_q_deg2(512, 5583) == 5119
    assert nearest_admissible_q_deg2(64, 383) == 383


def test_deg2_rejections():
    with pytest.raises(ValueError, match="q=5583 is not prime"):
        epsilon_deg2(512, 5583, 2)  # the printed open-question value
    assert nearest_admissible_q_deg2(512, 5583) == 5119  # the usable stand-in
    with pytest.raises(ValueError, match="nearest admissible q is 191"):
        epsilon_deg2(64, 193, 2)  # 64 | 192: this q is a degree-1 instance


@pytest.mark.parametrize("m, q", [(2, 1000003), (2 ** 40, 1000000000039)])
def test_deg2_refusal_without_a_suggestion(m, q):
    # no q is admissible at m = 2, and none lies in (2, 2q) at m = 2^40:
    # the refusal comes at once and keeps its own message
    assert nearest_admissible_q_deg2(m, q) is None
    with pytest.raises(ValueError, match="degree-2 needs") as err:
        epsilon_deg2(m, q, 2)
    assert "nearest" not in str(err.value)


def test_deg2_long_run_gate():
    with pytest.raises(ValueError, match="long_run=True"):
        epsilon_deg2(256, 1279, 2)
    rep = epsilon_deg2(256, 1279, 2, long_run=True)
    assert rep.neg_floor_log2_eps == 146
    assert abs(rep.log2_eps - (-146.02901398301643)) < 1e-4
    # q^2 below the desk-scale threshold runs without the flag
    assert epsilon_deg2(128, 1151, 2).neg_floor_log2_eps == 49


def test_deg1_long_run_gate():
    # one field-size budget for both degrees: q at degree 1
    assert epsilon(1024, 1492993, 2).degree == 1  # just below 1.5e6
    with pytest.raises(ValueError, match="q = 1502209 exceeds the desk-scale budget"):
        epsilon(1024, 1502209, 2)
    rep = epsilon(1024, 1502209, 2, long_run=True)
    assert math.isfinite(rep.log2_eps) and rep.neg_floor_log2_eps > 0


def test_deg2_frozen_regression():
    r1 = epsilon_deg2(64, 383, 2)
    assert abs(r1.log2_eps - (-14.464158355653684)) < 1e-4
    assert abs(r1.log2_bound - (-12.105134667637945)) < 1e-4
    assert r1.degree == 2
    r2 = epsilon_deg2(128, 1151, 2)
    assert abs(r2.log2_eps - (-49.17846222540215)) < 1e-4
    assert abs(r2.log2_bound - (-33.12414497092587)) < 1e-4


@pytest.mark.parametrize("m, q", [(64, 383), (128, 1151)])
def test_deg2_coset_terms_are_frobenius_invariant(m, q):
    # the term at coset g^j H equals the term at g^(jq mod t) H, which lets
    # epsilon_deg2 sum once per Frobenius orbit
    w = smallest_nonresidue(q)
    t = (q * q - 1) // m
    g = fq2_generator(q, w)
    u, v = fq2_power_table(g, t, q, w)
    cs, ds = fq2_power_table(fq2_pow(g, t, q, w), m // 2 + 1, q, w)
    coef = np.stack([2 * cs[1:] % q, 2 * ds[1:] * w % q], axis=1)
    logs = _orbit_logs(coef, np.stack([u, v]), q, 2)
    j = np.arange(t)
    assert np.abs(logs - logs[j * q % t]).max() < 1e-12


# ------------------------------------------------------- model-level oracles

def test_orbit_logs_is_the_vk_characteristic_function():
    # the kernel's own table, reduction and gather at coef = 1, every y in
    # F_q: 2^(k log2|cos(pi y/q)|) against the direct DFT of V_k
    for q in (5, 13, 97):
        for k in (2, 4, 8):
            pmf = binomial_vk_pmf(k)
            kernel = 2 ** _orbit_logs(np.array([[1]]), np.arange(q)[None, :], q, k)
            for y in range(q):
                dft = sum(p * np.exp(-2j * np.pi * (t - k // 2) * y / q)
                          for t, p in enumerate(pmf))
                assert abs(dft.imag) < 1e-12
                assert abs(dft.real - kernel[y]) < 1e-12


def test_brute_force_pmf_frozen():
    for alpha in (2, 3):
        assert np.allclose(brute_force_pmf(4, 5, 2, alpha),
                           np.array([4, 3, 3, 3, 3]) / 16.0, atol=0)
    assert abs(brute_force_pmf(8, 17, 2, 2).sum() - 1.0) < 1e-12


def test_brute_force_distance_exact():
    assert brute_force_distance(4, 5, 2) == 0.05
    assert brute_force_distance(4, 5, 2) <= 2 ** epsilon(4, 5, 2).log2_eps + 1e-12


def test_brute_force_every_primitive_root_same_counts():
    # {alpha^i : i < n} is a transversal of the +/- pairs of H for every
    # root alpha of order m, and V_k is symmetric: one distribution for all
    for m, q, k in [(8, 17, 2), (16, 97, 2)]:
        roots = [a for a in range(1, q) if pow(a, m // 2, q) == q - 1]
        assert len(roots) == m // 2
        counts = {tuple(_brute_force_numerators(m, q, k, a)) for a in roots}
        assert len(counts) == 1
        assert sum(next(iter(counts))) == 2 ** (k * m // 2)


def test_brute_force_guard():
    # the convolution costs n*q*(k+1) steps: 8.3e6 here, above 2^22
    with pytest.raises(ValueError, match="too large for exact convolution"):
        brute_force_pmf(512, 10753, 2, 2)


def test_distance_bounded_by_estimate():
    # compared in bits: at (64, 193) and (128, 1153), -log2 TV = 44.70 and
    # 102.18 against -log2 eps = 41.34 and 97.86; at k = 16, 2^(kn) = 2^1024
    # has no float, so the one final division is int / int
    for m, q, k in [(4, 13, 2), (8, 17, 2), (64, 193, 2), (128, 1153, 2), (128, 1153, 16)]:
        delta = brute_force_distance(m, q, k)
        assert 0.0 < delta and -math.log2(delta) >= -epsilon(m, q, k).log2_eps


def test_gauss_sum_check():
    assert abs(gauss_sum_check(4, 5, 2) - 1.0) < 1e-9
    got = gauss_sum_check(64, 193, 11)
    assert abs(got - 9.413010) < 1e-4
    assert got <= math.sqrt(193)
    with pytest.raises(ValueError, match="exact order"):
        gauss_sum_check(64, 193, 2)


def test_root_of_unity_product_identity():
    """Per-y crosscheck of the cosine product: over a full orbit (alpha has
    order m, alpha^(m/2) = -1) the phases pair up into
    prod_j (1 + zeta^(alpha^j y)) = (2^n prod_i |cos(pi alpha^i y / q)|)^2."""
    for m, q, alpha in [(4, 13, 5), (8, 17, 2), (64, 193, 11)]:
        n = m // 2
        apow = [pow(alpha, j, q) for j in range(m)]
        assert apow[n] == q - 1  # alpha^(m/2) = -1
        for y in (1, 2, 5, q - 1):
            plus = np.prod([1 + np.exp(2j * np.pi * (a * y % q) / q) for a in apow])
            cos_form = np.prod(
                [4 * np.cos(np.pi * (apow[i] * y % q) / q) ** 2 for i in range(n)])
            assert abs(plus.imag) < 1e-6 * abs(cos_form) + 1e-9
            assert abs(plus.real - cos_form) < 1e-6 * abs(cos_form) + 1e-9


def test_empirical_uniformity():
    res = empirical_uniformity(64, 193, math.sqrt(2 * math.pi), 20000, 0)
    assert res.uniform is True
    assert res.critical == critical_value(192, 0.99)
    assert 100.0 < res.chi2 < res.critical
    narrow = empirical_uniformity(64, 193, 0.05, 20000, 0)
    assert narrow.uniform is False
    assert narrow.chi2 > 10000.0
