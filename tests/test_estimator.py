"""Fourier-analytic distinguishing-advantage estimates, degree 1 and 2."""

import math
import tracemalloc

import numpy as np
import pytest

import reference as ref
from reference import (_brute_force_numerators, brute_force_distance, brute_force_pmf,
                       checks, gauss_sum_check)
from rlwe_workbench import estimator
from rlwe_workbench.estimator import (_class_logs, _fft_size, _line_orbit_logs,
                                      _logsumexp2, beta_gauss, deg2_admissible,
                                      empirical_uniformity, epsilon, epsilon_deg2,
                                      nearest_admissible_q_deg2,
                                      theoretical_bound)
from rlwe_workbench.attack import critical_value
from rlwe_workbench.ffield import (fq2_generator, power_table, root_of_unity,
                                   smallest_nonresidue)


# ------------------------------------------------------------ exact anchors

def test_tiny_instance_exact():
    log2_eps = epsilon(4, 5, 2)
    assert abs(2 ** log2_eps - 0.125) < 1e-12
    assert math.floor(-log2_eps) == 3


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
            assert abs(_naive_log2_eps(m, q, k, alpha) - epsilon(m, q, k)) < 1e-9


def test_deg1_matches_naive_full_sum():
    """Dual route: literal sum over every y in F_q^*, no orbit collapsing."""
    for m, q, k in NAIVE_ROWS:
        alpha = _primitive_roots(m, q)[0]
        assert abs(_naive_log2_eps(m, q, k, alpha) - epsilon(m, q, k)) < 1e-9


def test_deg1_frozen_regression():
    rows = [
        (64, 193, -41.337011815064386, -16.345870128756445, 41),
        (128, 1153, -97.86158866226415, -33.1048395895135, 97),
        (256, 3329, -183.5736579444915, -79.76609961377223, 183),
        (512, 10753, -419.0513184622579, -175.49223613876194, 419),
    ]
    for m, q, log2_eps, log2_bound, floor in rows:
        got = epsilon(m, q, 2)
        assert abs(got - log2_eps) < 1e-4
        assert abs(theoretical_bound(m, q, 2) - log2_bound) < 1e-4
        assert math.floor(-got) == floor
        assert abs(beta_gauss(m, q) - (1 + math.sqrt(q) / m) / 2) < 1e-12


@pytest.mark.parametrize("m", [4, 16, 256, 65536])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_fermat_prime_one_coset_is_exact(m, k):
    # q = m + 1: one coset, prod_{z=1}^{(q-1)/2} cos(pi z / q) = +-2^(-(q-1)/2),
    # so log2 eps = log2 m - 1 - k m / 2 is an integer and its floor is exact
    exact = (m.bit_length() - 1) - 1 - k * m // 2
    log2_eps = epsilon(m, m + 1, k)
    assert log2_eps == exact
    assert math.floor(-log2_eps) == -exact
    if m <= 256:  # the full grid holds m/2 * m cosines
        assert abs(log2_eps - checks.grid_log2_eps(m, m + 1, k, 1)) < 1e-9


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
    got = theoretical_bound(64, 383, 2)
    expect = math.log2(382 / 2) + 32 * math.log2((1 + math.sqrt(383) / 64) / 2)
    assert abs(got - expect) < 1e-12
    assert abs(got - (-12.105134667637945)) < 1e-9


def test_logsumexp2():
    assert _logsumexp2(np.array([-3.0, -3.0])) == -2.0
    assert _logsumexp2(np.array([-2000.0])) == -2000.0  # no absolute floor
    assert _logsumexp2(np.array([-1.0, -2000.0])) == -1.0  # underflows after the shift
    got = _logsumexp2(np.array([-700.0, -700.0]))  # beyond float underflow
    assert abs(got - (-699.0)) < 1e-9


@pytest.mark.parametrize("estimate, m, q, k, degree", [
    pytest.param(epsilon, 512, 10753, 6, 1, id="epsilon-512-10753-6-full_grid_deg1"),
    pytest.param(epsilon, 512, 10753, 16, 1, id="epsilon-512-10753-16-full_grid_deg1"),
    pytest.param(epsilon_deg2, 128, 1151, 60, 2, id="epsilon_deg2-128-1151-60-full_grid_deg2"),
])
def test_eps_below_2_to_the_minus_1100_matches_full_grid(estimate, m, q, k, degree):
    # every term lies below 2^-1100: the sum is finite and still the full grid's
    log2_eps = estimate(m, q, k)
    assert log2_eps < -1100.0
    assert abs(log2_eps - checks.grid_log2_eps(m, q, k, degree)) < 1e-9


@pytest.mark.parametrize("block", [estimator._CLASS_BLOCK, 64])
@pytest.mark.parametrize("estimate, m, q", [
    (epsilon, 64, 193), (epsilon, 512, 10753),
    # (q-1)^2 below and above 2^31, where the dot-product kernel that
    # preceded _class_logs switched from int32 to int64
    (epsilon, 64, 40961), (epsilon, 64, 47041),
    (epsilon_deg2, 128, 1151),  # the e x N grid of Lambda
])
def test_class_logs_equal_per_element_formula(monkeypatch, estimate, m, q, block):
    # _class_logs gives exactly the per-element cosine and logarithm
    # at alpha^i gamma^s, alpha = gamma^cols, added over i in order, on the
    # grids epsilon and epsilon_deg2 build; at 64 cells the blocks are a
    # few columns wide, and the last one overlaps the block before it
    # where the width does not divide cols
    calls = []

    def spy(*args):
        calls.append(args)
        return _class_logs(*args)
    monkeypatch.setattr(estimator, "_class_logs", spy)
    monkeypatch.setattr(estimator, "_CLASS_BLOCK", block)
    estimate(m, q, 2)
    (q_, rows, cols), = calls
    e = math.gcd(m, q - 1)
    assert (q_, rows, cols) == ((q, m // 2, (q - 1) // m) if estimate is epsilon
                                else (q, e, (q - 1) // e))
    gamma = root_of_unity(q - 1, q)
    alpha = pow(gamma, cols, q)
    c = np.array([pow(gamma, s, q) for s in range(cols)])
    want = np.zeros(cols)
    for i in range(rows):
        x = pow(alpha, i, q) * c % q
        want += np.log2(np.abs(np.cos(np.pi * x / q)))
    assert np.array_equal(_class_logs(q, rows, cols), want)


def test_class_logs_builds_no_q_entry_array():
    # the degree-1 grid of (64, 786433): 32 x 12288 cells, each evaluated
    # where it lies; a q-entry table of float64 logarithms alone is 8 q bytes
    q, rows, cols = 786433, 32, 12288
    power_table(root_of_unity(q - 1, q), rows * cols, q)  # cached, as in a run
    tracemalloc.start()
    try:
        _class_logs(q, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * q, peak / q


# bits of log2_eps on every estimate-table row of the benchmark at k = 2,
# and on Kyber's and Dilithium's rings at k = 4, as first pinned.  The
# degree-2 bits were those of one table gather per Frobenius orbit of
# cosets; the correlation kernel moved each by less than 1e-12, and its
# bits are DEG2_REPINNED[first bits].  The degree-1 rows after Dilithium's
# were pinned from the int32/int64 dot-product kernel that preceded
# _class_logs: small and large q, m up to 1024, and k up to 16
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
    (epsilon, 16, 97, 2, "-0x1.1efec61b011f8p+2"),
    (epsilon, 32, 97, 2, "-0x1.5492734ac4f33p+4"),
    (epsilon, 8, 41, 4, "-0x1.dcf4440bcb02ap+1"),
    (epsilon, 512, 12289, 2, "-0x1.8f6bbe7c103d0p+8"),
    (epsilon, 1024, 12289, 2, "-0x1.c5ac5f825245bp+9"),
    (epsilon, 256, 7681, 4, "-0x1.8f09a48fed280p+8"),
    (epsilon, 64, 18433, 2, "-0x1.1e2eb8e162c55p+4"),
    (epsilon, 512, 8380417, 2, "-0x1.6479337826e0cp+8"),
    (epsilon, 512, 10753, 6, "-0x1.3e49da67f9fa4p+10"),
    (epsilon, 512, 10753, 16, "-0x1.aa0d23354d4dap+11"),
]


DEG2_REPINNED = {
    "-0x1.ceda629fb653ap+3": "-0x1.ceda629fb6542p+3",  # (64, 383)
    "-0x1.896d7d9a6d638p+5": "-0x1.896d7d9a6d637p+5",  # (128, 1151)
    "-0x1.240edaebb85d5p+7": "-0x1.240edaebb85d3p+7",  # (256, 1279)
    "-0x1.28da7f0f1e963p+8": "-0x1.28da7f0f1e961p+8",  # (512, 5119)
    "-0x1.7525b6820b720p+8": "-0x1.7525b6820b728p+8",  # (512, 3329), k = 4
}


@pytest.mark.parametrize("estimate, m, q, k, bits", PINNED_LOG2_EPS)
def test_log2_eps_bits_pinned(estimate, m, q, k, bits):
    got = estimate(m, q, k, long_run=True)
    assert float.hex(got) == DEG2_REPINNED.get(bits, bits)
    assert abs(got - float.fromhex(bits)) < 1e-12


# ------------------------------------------------------------------ degree 2

def _naive_deg2(m: int, q: int, k: int) -> float:
    """Independent arithmetic in F_{q^2} = F_q[s]/(s^2 - w): scan for an
    order-m element, then sum the trace-cosine product over all y != 0."""
    w = next(v for v in range(2, q) if pow(v, (q - 1) // 2, q) == q - 1)
    alpha = next((u, v) for u in range(q) for v in range(q)
                 if (u, v) != (0, 0) and ref.fq2_pow((u, v), m, q, w) == (1, 0)
                 and ref.fq2_pow((u, v), m // 2, q, w) != (1, 0))
    apow = [ref.fq2_pow(alpha, i, q, w) for i in range(m // 2)]
    total = 0.0
    for yu in range(q):
        for yv in range(q):
            if (yu, yv) == (0, 0):
                continue
            prod = 1.0
            for ai in apow:
                z = ref.fq2_mul(ai, (yu, yv), q, w)
                prod *= math.cos(math.pi * (2 * z[0] % q) / q) ** k
            total += prod
    return math.log2(total / 2.0)


def test_deg2_matches_naive_full_sum():
    # (8, 13) and (16, 41): q = 1 mod 4, so K = H ∩ F_q^* is larger than {+-1}
    for m, q in [(8, 3), (8, 5), (16, 7), (8, 13), (16, 41)]:
        assert abs(_naive_deg2(m, q, 2) - epsilon_deg2(m, q, 2)) < 1e-9


def test_deg2_small_frozen():
    assert abs(epsilon_deg2(8, 3, 2) - (-4.0)) < 1e-9
    assert abs(epsilon_deg2(8, 5, 2) - (-1.8300749985576887)) < 1e-9
    assert abs(epsilon_deg2(16, 7, 2) - (-5.245112497836532)) < 1e-9


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
    log2_eps = epsilon_deg2(256, 1279, 2, long_run=True)
    assert math.floor(-log2_eps) == 146
    assert abs(log2_eps - (-146.02901398301643)) < 1e-4
    # q^2 below the desk-scale threshold runs without the flag
    assert math.floor(-epsilon_deg2(128, 1151, 2)) == 49


def test_deg1_long_run_gate():
    # one field-size budget for both degrees: q at degree 1
    assert math.isfinite(epsilon(1024, 1492993, 2))  # just below 1.5e6
    with pytest.raises(ValueError, match="q = 1502209 exceeds the desk-scale budget"):
        epsilon(1024, 1502209, 2)
    log2_eps = epsilon(1024, 1502209, 2, long_run=True)
    assert math.isfinite(log2_eps) and math.floor(-log2_eps) > 0


def test_deg2_frozen_regression():
    assert abs(epsilon_deg2(64, 383, 2) - (-14.464158355653684)) < 1e-4
    assert abs(theoretical_bound(64, 383, 2) - (-12.105134667637945)) < 1e-4
    assert abs(epsilon_deg2(128, 1151, 2) - (-49.17846222540215)) < 1e-4
    assert abs(theoretical_bound(128, 1151, 2) - (-33.12414497092587)) < 1e-4


@pytest.mark.parametrize("m, q, k", [
    (8, 3, 2),  # d = N = 1: H is all of F_9^*
    (8, 5, 2), (8, 13, 2), (16, 41, 4),  # q = 1 mod 4: |K| = m/2 > 2
    (64, 383, 2), (128, 193, 2),
])
def test_line_orbit_logs_equal_direct_sum(m, q, k):
    # every correlation output, at y = c g^j for each orbit representative
    # j < d and each c = gamma^s, s < N, against the sum over i = 1..m/2 of
    # k log2|cos(pi Tr(alpha^i y) / q)|, each trace from the tuple model
    w = smallest_nonresidue(q)
    g = fq2_generator(q, w)
    gamma = root_of_unity(q - 1, q)
    alpha = ref.fq2_pow(g, (q * q - 1) // m, q, w)
    apow = [ref.fq2_pow(alpha, i, q, w) for i in range(1, m // 2 + 1)]
    e = math.gcd(m, q - 1)
    n_cls, d = (q - 1) // e, (q + 1) * e // m
    rows = np.concatenate(list(_line_orbit_logs(m, q, k)))
    assert rows.shape == (d, n_cls)
    for j, row in enumerate(rows):
        z = ref.fq2_pow(g, j, q, w)
        for s, got in enumerate(row):
            c = pow(gamma, s, q)
            y = (c * z[0] % q, c * z[1] % q)
            want = sum(k * math.log2(abs(math.cos(
                math.pi * (2 * ref.fq2_mul(a, y, q, w)[0] % q) / q))) for a in apow)
            assert abs(got - want) < 1e-12, (j, s)


def _is_5_smooth(x: int) -> bool:
    for p in (2, 3, 5):
        while x % p == 0:
            x //= p
    return x == 1


def test_fft_size_is_the_smallest_5_smooth_length():
    for n in range(1, 2500):
        assert _fft_size(n) == next(x for x in range(n, 2 * n + 1) if _is_5_smooth(x))
    assert _fft_size(2 * 20015) == 40500  # (64, 40031): 2^2 3^4 5^3


# ------------------------------------------------------- model-level oracles

def test_brute_force_pmf_frozen():
    for alpha in (2, 3):
        assert np.allclose(brute_force_pmf(4, 5, 2, alpha),
                           np.array([4, 3, 3, 3, 3]) / 16.0, atol=0)
    assert abs(brute_force_pmf(8, 17, 2, 2).sum() - 1.0) < 1e-12


def test_brute_force_distance_exact():
    assert brute_force_distance(4, 5, 2) == 0.05
    assert brute_force_distance(4, 5, 2) <= 2 ** epsilon(4, 5, 2) + 1e-12


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
        assert 0.0 < delta and -math.log2(delta) >= -epsilon(m, q, k)


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
    chi2 = empirical_uniformity(64, 193, math.sqrt(2 * math.pi), 20000, 0)
    assert 100.0 < chi2 < critical_value(192, 0.99)
    assert empirical_uniformity(64, 193, 0.05, 20000, 0) > 10000.0
