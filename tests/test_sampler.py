"""Randomness layer: 1-D and lattice Gaussians, V_k, RNG forking, tail bounds."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats

from rlwe_workbench.rings import (CycloRing, FamilyRing, canonical_embed, RingElem,
                                  _cyclotomic_block_basis)
from rlwe_workbench.sampling import (BinomialSpec, FidelityWarning, GaussianSpec,
                                     RngHandle, binomial_vk_pmf, compute_beta,
                                     sample_binomial_vk, sample_dgauss_z,
                                     sample_lattice_gauss, sample_lattice_gauss_batch,
                                     tail_bound)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(0.0)
    with pytest.raises(ValueError):
        GaussianSpec(-1.0)
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            BinomialSpec(bad)
    assert GaussianSpec(2.0).cut() == 21
    assert GaussianSpec(2.0, tail_cut=7).cut() == 7
    assert BinomialSpec(4).k == 4


def test_rng_determinism_and_forking():
    a = RngHandle(7).gen.integers(0, 1000, 20)
    b = RngHandle(7).gen.integers(0, 1000, 20)
    assert np.array_equal(a, b)
    f1 = RngHandle(7).fork(3).gen.integers(0, 1000, 20)
    f2 = RngHandle(7).fork(3).gen.integers(0, 1000, 20)
    f3 = RngHandle(7).fork(4).gen.integers(0, 1000, 20)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, f3)
    assert not np.array_equal(f1, a)


def test_dgauss_moments_and_support():
    spec = GaussianSpec(3.0)
    draws = sample_dgauss_z(spec, RngHandle(1), size=200_000)
    assert np.all(np.abs(draws) <= spec.cut())
    assert abs(draws.mean()) < 0.02
    # continuous-limit variance is r^2/2
    assert abs(draws.var() / (3.0 ** 2 / 2) - 1) < 0.02


def test_dgauss_matches_exact_pmf():
    r = 2.0
    spec = GaussianSpec(r)
    draws = sample_dgauss_z(spec, RngHandle(2), size=100_000)
    lo, hi = -8, 8
    counts = np.array([(draws == t).sum() for t in range(lo, hi + 1)])
    w = np.exp(-np.arange(lo, hi + 1) ** 2 / r ** 2)
    # mass beyond |t| = 8 at r = 2 is ~1e-7; fold it into the edge bins
    p = w / w.sum()
    res = scipy.stats.chisquare(counts, p * counts.sum())
    assert res.pvalue > 1e-4


def test_vk_pmf_frozen():
    assert binomial_vk_pmf(2).tolist() == [0.25, 0.5, 0.25]
    assert np.allclose(binomial_vk_pmf(4), np.array([1, 4, 6, 4, 1]) / 16.0)
    for k in (2, 4, 8):
        assert abs(binomial_vk_pmf(k).sum() - 1) < 1e-12


def test_vk_samples_match_pmf():
    draws = sample_binomial_vk(BinomialSpec(4), RngHandle(3), size=100_000)
    assert draws.min() >= -2 and draws.max() <= 2
    counts = np.array([(draws == t).sum() for t in range(-2, 3)])
    res = scipy.stats.chisquare(counts, binomial_vk_pmf(4) * 100_000)
    assert res.pvalue > 1e-4


def test_vk_scalar_and_k2_support():
    draws = sample_binomial_vk(BinomialSpec(2), RngHandle(4), size=1000)
    assert set(np.unique(draws)) <= {-1, 0, 1}
    one = sample_binomial_vk(BinomialSpec(2), RngHandle(4))
    assert one in (-1, 0, 1)


def test_klein_family_block_matches_enumeration():
    """The e1 block of the family sampler is D over the embedded degree-2
    cyclotomic block; compare 40k draws against exactly enumerated weights."""
    ring = FamilyRing(3, 2, 13)
    r = 8.0
    coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(r), RngHandle(5), 40_000)
    block = coeffs[:, :2]  # integer coordinates of the e1 block
    B = _cyclotomic_block_basis(3)
    width = r / math.sqrt(2.0)  # e1 block width
    grid = np.arange(-15, 16)
    z0, z1 = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([z0.ravel(), z1.ravel()], axis=1)
    w = np.exp(-np.einsum("ij,ij->i", pts @ B, pts @ B) / width ** 2)
    p = w / w.sum()
    observed = np.zeros(len(pts))
    idx = {(a, b): i for i, (a, b) in enumerate(map(tuple, pts))}
    for a, b in block:
        observed[idx[(int(a), int(b))]] += 1
    # merge cells with tiny expectation to keep the chi-square valid
    big = p * 40_000 >= 5
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(p[big] * 40_000, p[~big].sum() * 40_000)
    res = scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert res.pvalue > 1e-4


def test_klein_blocks_have_expected_scale():
    # e2 block is drawn at width r / sqrt(2d): second-moment sanity
    ring = FamilyRing(3, 2, 13)
    r = 12.0
    coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(r), RngHandle(6), 30_000)
    B = _cyclotomic_block_basis(3)
    e1 = coeffs[:, :2] @ B
    e2 = coeffs[:, 2:] @ B
    # E||x||^2 = width^2 for each 2-D block (widths r/sqrt(2) and r/sqrt(2d))
    assert abs((e1 ** 2).sum(axis=1).mean() / (r ** 2 / 2) - 1) < 0.05
    assert abs((e2 ** 2).sum(axis=1).mean() / (r ** 2 / 4) - 1) < 0.05


def test_cyclo_coefficient_path_exact():
    ring = CycloRing(8, 17)
    r = 12.0  # per-coefficient width r / sqrt(n) = 6
    coeffs, warned = sample_lattice_gauss_batch(ring, GaussianSpec(r), RngHandle(7), 50_000)
    assert not warned
    flat = coeffs.ravel()
    assert abs(flat.var() / (6.0 ** 2 / 2) - 1) < 0.02
    lo, hi = -25, 25
    counts = np.array([(flat == t).sum() for t in range(lo, hi + 1)])
    w = np.exp(-np.arange(lo, hi + 1) ** 2 / 36.0)
    res = scipy.stats.chisquare(counts, w / w.sum() * counts.sum())
    assert res.pvalue > 1e-4


def test_cyclo_klein_path_agrees_with_coeff_path():
    # the generic lattice walk on the (orthogonal) cyclotomic embedding must
    # produce the same coefficient law as the exact path
    ring = CycloRing(8, 17)
    spec = GaussianSpec(12.0)
    k, _ = sample_lattice_gauss_batch(ring, spec, RngHandle(8), 30_000, method="klein")
    flat = k.ravel()
    assert abs(flat.var() / 18.0 - 1) < 0.03
    lo, hi = -25, 25
    counts = np.array([(flat == t).sum() for t in range(lo, hi + 1)])
    w = np.exp(-np.arange(lo, hi + 1) ** 2 / 36.0)
    res = scipy.stats.chisquare(counts, w / w.sum() * counts.sum())
    assert res.pvalue > 1e-4


def test_method_validation():
    with pytest.raises(ValueError):
        sample_lattice_gauss_batch(FamilyRing(3, 2, 13), GaussianSpec(2.0),
                                   RngHandle(0), 1, method="coeff")


def test_fidelity_warning_below_width_floor():
    ring = FamilyRing(43, 4871, 173)
    with pytest.warns(FidelityWarning):
        sample_lattice_gauss(ring, GaussianSpec(694.94), RngHandle(9))
    # wide cyclotomic draw is exact: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_lattice_gauss(CycloRing(8, 17), GaussianSpec(12.0), RngHandle(9))


def test_tail_bound_frozen_constant():
    c1 = math.sqrt(2 * math.pi * math.e) * math.exp(-math.pi)
    assert abs(tail_bound(1.0, 1.0, 1) - c1) < 1e-12
    assert abs(c1 - 0.1785915) < 1e-6


def test_tail_bound_shape():
    assert tail_bound(2.0, 1.0, 4) == tail_bound(2.0, 1.0, 1) ** 4
    assert tail_bound(3.0, 1.0, 2) < tail_bound(2.0, 1.0, 2)  # monotone in c
    assert tail_bound(100.0, 1.0, 50) == 0.0  # underflow floor
    assert tail_bound(0.5, 1.0, 1) <= 1.0
    with pytest.raises(ValueError):
        tail_bound(0.1, 1.0, 4)  # c <= r / sqrt(2 pi) is vacuous
    with pytest.raises(ValueError):
        tail_bound(2.0, 1.0, 0)


def test_compute_beta_identity_and_frozen():
    for (d, r, n) in [(2, 2.0, 2), (4871, 200.0, 42), (4903, 150.0, 82)]:
        assert compute_beta(d, r, n) == tail_bound(math.sqrt(2 * d), r, n)
    assert abs(math.log10(compute_beta(4871, 68.17, 42)) + 87.4956) < 0.01
    assert abs(compute_beta(4871, 200.0, 42) - 0.110655) < 1e-4


def test_compute_beta_precondition():
    lim = 2.0 * math.sqrt(math.pi * 4871)
    with pytest.raises(ValueError):
        compute_beta(4871, 694.94, 42)
    with pytest.raises(ValueError):
        compute_beta(4871, lim, 42)
    compute_beta(4871, lim - 1e-9, 42)  # just inside is fine


def test_monte_carlo_exceedances_within_bound():
    """Embedded-norm tail: with c = 2r the bound is astronomically small, so a
    100k-draw run must show zero exceedances of c * sqrt(deg)."""
    ring = FamilyRing(3, 2, 13)
    r, n = 2.0, 4
    coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(r), RngHandle(10), 100_000)
    emb = np.array([canonical_embed(RingElem(c), ring) for c in coeffs[:2000]])
    # full batch via the Gram form (faster than per-row embedding)
    from rlwe_workbench.rings import gram_matrix
    g = gram_matrix(ring)
    norms_sq = np.einsum("ij,jk,ik->i", coeffs, g, coeffs)
    assert np.allclose(norms_sq[:2000], (emb ** 2).sum(axis=1))
    c = 2 * r
    exceed = int((norms_sq > c * c * n).sum())
    bound = tail_bound(c, r, n)
    assert exceed <= max(1.0, bound * 100_000)
    assert exceed == 0  # bound is ~7e-19; any hit would be a sampler bug


def test_family_subfield_error_fraction():
    """At (p=43, d=4871, r=200) the sqrt(d) block collapses to zero almost
    always (1 - beta with beta ~ 0.11 is the guarantee; observed ~0.98)."""
    ring = FamilyRing(43, 4871, 173)
    coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(200.0), RngHandle(11), 2000)
    e2 = coeffs[:, 42:]
    frac = (np.abs(e2).sum(axis=1) == 0).mean()
    beta = compute_beta(4871, 200.0, 42)
    assert frac >= 1 - beta
    assert frac > 0.95
