"""Randomness layer: 1-D and lattice Gaussians, V_k, RNG forking, and the
reference tail bound the samplers are held to."""

import math

import numpy as np
import pytest
import scipy.stats

from reference import (binomial_vk_pmf, canonical_embed, cyclotomic_block_basis,
                       family_embedding, gram_matrix, tail_bound)
from rlwe_workbench.rings import CycloRing, FamilyRing
from rlwe_workbench.sampling import (_MIN_ACCEPT, MAX_TAIL_CUT, BinomialSpec, GaussianSpec,
                                     RngHandle, _block_tables, _dgauss_table,
                                     sample_binomial_vk, sample_dgauss_z,
                                     sample_lattice_gauss_batch)


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(0.0)
    with pytest.raises(ValueError):
        GaussianSpec(-1.0)
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            BinomialSpec(bad)
    assert GaussianSpec(2.0).cut() == 21
    assert GaussianSpec((MAX_TAIL_CUT - 1) / 10).cut() == MAX_TAIL_CUT
    for wide in (MAX_TAIL_CUT / 10, 1e300, 1.7e308):  # 10 r overflows at the last
        with pytest.raises(ValueError, match="too wide to sample"):
            GaussianSpec(wide).cut()
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


def _reference_table(r):
    """(support, cdf) of D_{Z,r} cut at GaussianSpec(r).cut(), built here."""
    cut = GaussianSpec(r).cut()
    support = np.arange(-cut, cut + 1)
    cdf = np.cumsum(np.exp(-(support.astype(float) ** 2) / (r * r)))
    cdf /= cdf[-1]
    return support, cdf


def _reference_draws(r, u):
    """The inverse-CDF answer: support[min(searchsorted(cdf, u, right), len - 1)]."""
    support, cdf = _reference_table(r)
    return support[np.minimum(np.searchsorted(cdf, u, side="right"), len(support) - 1)]


DGAUSS_WIDTHS = [0.05, 0.2, 0.75, 2.0, math.sqrt(2 * math.pi), 30.0, 1000.0]


@pytest.mark.parametrize("r", DGAUSS_WIDTHS)
def test_dgauss_equals_inverse_cdf_reference(r):
    spec = GaussianSpec(r)
    assert np.array_equal(_dgauss_table(r, spec.cut())[1], _reference_table(r)[1])
    for size in (0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5):
        got = sample_dgauss_z(spec, RngHandle(size), size=size)
        want = _reference_draws(r, RngHandle(size).gen.random(size))
        assert got.dtype == np.int64 and got.shape == (size,)
        assert np.array_equal(got, want), (r, size)
    one = sample_dgauss_z(spec, RngHandle(8), size=1)
    assert one.tolist() == [int(_reference_draws(r, RngHandle(8).gen.random()))]


class _FixedUniforms:
    """An rng stand-in whose gen.random(size) hands out the given u in order."""

    def __init__(self, u):
        self.gen = self
        self._u, self._at = np.asarray(u, dtype=float), 0

    def random(self, size):
        out = self._u[self._at:self._at + size]
        self._at += size
        return out


@pytest.mark.parametrize("r", DGAUSS_WIDTHS)
def test_dgauss_guide_on_bucket_edges_and_cdf_values(r):
    # u on every bucket edge b/B and every cdf value, their float neighbours,
    # 0 and the largest double below 1: the guide must agree everywhere
    _, cdf = _reference_table(r)
    edges = np.arange(1 << 12) / (1 << 12)
    pts = np.concatenate([edges, cdf, [0.0, 1.0 - 2.0 ** -53]])
    u = np.concatenate([pts, np.nextafter(pts, 0.0), np.nextafter(pts, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = sample_dgauss_z(GaussianSpec(r), _FixedUniforms(u), size=len(u))
    assert np.array_equal(got, _reference_draws(r, u))
    for x in (0.0, 1.0 - 2.0 ** -53, float(cdf[cdf < 1.0][-1])):
        one = sample_dgauss_z(GaussianSpec(r), _FixedUniforms([x]), size=1)
        assert one.tolist() == [_reference_draws(r, x)]


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
    assert draws.dtype == np.int64 and set(np.unique(draws)) <= {-1, 0, 1}


def _enumerated_block(p, w):
    """(box radius R, squared norms, probabilities) on the box (2R+1,)*(p-1)
    of D_{L, w} over the embedded Z[zeta_p], from the embedding matrix.
    Along the all-ones direction, the block's shortest, ||c B||^2 =
    (p-1) t^2, so the mass outside the box is below exp(-40)."""
    R = int(math.ceil(w * math.sqrt(40.0 / (p - 1)))) + 1
    B = cyclotomic_block_basis(p)
    G = B @ B.T
    axes = np.ogrid[tuple(slice(-R, R + 1) for _ in range(p - 1))]
    norm_sq = sum(G[i, j] * axes[i] * axes[j] for i in range(p - 1) for j in range(p - 1))
    w_box = np.exp(-norm_sq / w ** 2)
    return R, norm_sq, w_box / w_box.sum()


def test_family_block_matches_enumeration():
    """The e1 block of the family sampler is D over the embedded cyclotomic
    block; compare 100k draws against exactly enumerated weights, at p = 3
    and p = 5 and at widths on both sides of 4."""
    for p, w, seed in [(3, 8.0 / math.sqrt(2.0), 5), (3, 1.3, 12), (3, 0.6, 13),
                       (5, 2.0, 14), (5, 6.0, 15)]:
        ring = FamilyRing(p, 2, 13)
        coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(w * math.sqrt(2.0)),
                                               RngHandle(seed), 100_000)
        block = coeffs[:, :p - 1]  # integer coordinates of the e1 block
        R, _, prob = _enumerated_block(p, w)
        inside = (np.abs(block) <= R).all(axis=1)
        cells = np.ravel_multi_index(tuple((block[inside] + R).T), prob.shape)
        observed = np.bincount(cells, minlength=prob.size)
        # merge cells with tiny expectation (and any draw outside the box)
        # to keep the chi-square valid
        expect = prob.ravel() * len(block)
        big = expect >= 5
        obs = np.append(observed[big], observed[~big].sum() + (~inside).sum())
        exp = np.append(expect[big], expect[~big].sum())
        res = scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert res.pvalue > 1e-4, (p, w, res.pvalue)


def _route_masses(p, w):
    """P(rejection), P(walk) for a record of `_sample_block` at (p, w): the
    class sums j whose rounds accept with probability H[p][j] / max g_mod
    below _MIN_ACCEPT walk."""
    t = _block_tables(p, w)
    assert np.array_equal(t.walk, t.H[p] / t.g_mod.max() < _MIN_ACCEPT)
    mass = np.diff(t.j_cdf, prepend=0.0) / t.j_cdf[-1]
    return mass[~t.walk].sum(), mass[t.walk].sum()


def test_block_routes_at_oracle_widths():
    """The exact oracles reach both routes of `_sample_block`, most of them
    within one call.  Of 100k draws, at least 100 are expected on each
    route at the (3, 0.6) and (5, 2.0) rows of
    test_family_block_matches_enumeration and at the e2 widths 2.026
    (p = 43) and 1.013 (p = 7) of test_sampler_collapse_rate_is_exact;
    at its width 3.97 (p = 43) every record walks."""
    for p, w in [(3, 0.6), (5, 2.0), (43, 200.0 / math.sqrt(2 * 4871)),
                 (7, 100.0 / math.sqrt(2 * 4871))]:
        reject, walk = _route_masses(p, w)
        assert min(reject, walk) * 100_000 >= 100, (p, w, reject, walk)
    assert _route_masses(43, 3.97)[0] == 0.0


def test_family_blocks_have_expected_scale():
    # e2 block is drawn at width r / sqrt(2d): second-moment sanity
    ring = FamilyRing(3, 2, 13)
    r = 12.0
    coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(r), RngHandle(6), 30_000)
    B = cyclotomic_block_basis(3)
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


def _beta(d, r, n):
    """Criterion 1's success bound: tail_bound(sqrt(2d), r, n), n = p - 1."""
    return tail_bound(math.sqrt(2 * d), r, n)


def test_compute_beta_identity_and_frozen():
    # beta = min((sqrt(4 pi e d)/r * exp(-2 pi d/r^2))^n, 1), the closed form
    for (d, r, n) in [(2, 2.0, 2), (4871, 200.0, 42), (4903, 150.0, 82)]:
        closed = math.sqrt(4 * math.pi * math.e * d) / r * math.exp(-2 * math.pi * d / r ** 2)
        assert abs(_beta(d, r, n) / min(closed ** n, 1.0) - 1) < 1e-12
    assert abs(math.log10(_beta(4871, 68.17, 42)) + 87.4956) < 0.01
    assert abs(_beta(4871, 200.0, 42) - 0.110655) < 1e-4


def test_compute_beta_precondition():
    # tail_bound's c > r / sqrt(2 pi) at c = sqrt(2d) is r < 2 sqrt(pi d)
    lim = 2.0 * math.sqrt(math.pi * 4871)
    with pytest.raises(ValueError):
        _beta(4871, 694.94, 42)
    with pytest.raises(ValueError):
        _beta(4871, lim, 42)
    _beta(4871, lim - 1e-9, 42)  # just inside is fine


def test_monte_carlo_exceedances_within_bound():
    """Embedded-norm tail at (3, 2, 13), r = 2: P(||iota(x)|| > c sqrt(n))
    with c = 2r.  The sampler's weight exp(-||x||^2/r^2) is the
    pi-convention Gaussian of width r sqrt(pi), which is what `tail_bound`
    takes.  The exact tail, enumerated block by block, is about 1.2e-6 per
    draw, under the bound's 5.3e-5, so 100k draws show at least one hit
    with probability about 11%."""
    ring = FamilyRing(3, 2, 13)
    r, n, count = 2.0, 4, 100_000
    coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(r), RngHandle(10), count)
    E = family_embedding(ring.p, ring.d)
    emb = canonical_embed(coeffs[:2000], E)
    # full batch via the Gram form, checked against the embedding on 2000 rows
    g = gram_matrix(E)
    norms_sq = np.einsum("ij,jk,ik->i", coeffs, g, coeffs)
    assert np.allclose(norms_sq[:2000], (emb ** 2).sum(axis=1))
    c = 2 * r
    exceed = int((norms_sq > c * c * n + 1e-9).sum())
    # iota(x) = sqrt(2) e1 (+) sqrt(2d) e2: enumerate each block's law
    # (widths r/sqrt(2), r/sqrt(2d)) and sum the joint mass beyond c^2 n
    (_, n1, p1), (_, n2, p2) = (_enumerated_block(3, w) for w in
                                (r / math.sqrt(2.0), r / math.sqrt(2.0 * ring.d)))
    n1, p1, n2, p2 = n1.ravel(), p1.ravel(), n2.ravel(), p2.ravel()
    joint = 2.0 * n1[:, None] + 2.0 * ring.d * n2[None, :]
    tail = float((p1[:, None] * p2[None, :])[joint > c * c * n + 1e-9].sum())
    bound = tail_bound(c, r * math.sqrt(math.pi), n)
    assert 1.0e-6 < tail < 1.5e-6, tail
    assert tail <= bound
    assert scipy.stats.binomtest(exceed, count, tail).pvalue > 1e-4
    assert scipy.stats.binomtest(exceed, count, bound, alternative="greater").pvalue > 1e-4


def test_family_subfield_error_fraction():
    """At (p=43, d=4871, r=200) the sqrt(d) block collapses to zero almost
    always (1 - beta with beta ~ 0.11 is the guarantee; the exact P(e2 = 0)
    from the block lattice's theta series is 0.9969)."""
    ring = FamilyRing(43, 4871, 173)
    coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(200.0), RngHandle(11), 2000)
    e2 = coeffs[:, 42:]
    frac = (np.abs(e2).sum(axis=1) == 0).mean()
    beta = _beta(4871, 200.0, 42)
    assert frac >= 1 - beta
    assert frac > 0.95
