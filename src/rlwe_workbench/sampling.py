"""Randomness: 1-D discrete Gaussians, the shifted binomial V_k, lattice
discrete Gaussians over the ring embeddings, and Gaussian tail bounds.

Width convention
----------------
Everywhere samples are drawn, the Gaussian weight is

    rho_r(x) = exp(-||x||^2 / r^2)         ("plain" convention)

so the continuous standard deviation per coordinate is r/sqrt(2).

The tail-bound helpers (`tail_bound`, `compute_beta`) implement a printed
constant C_s = s*sqrt(2*pi*e)*exp(-pi*s^2) that carries the pi-normalized
convention of its source.  That mismatch is deliberate and quarantined in
those two functions: sampling behavior depends only on rho_r above, the
bound formulas only on C_s.

Lattice sampling
----------------
`sample_lattice_gauss` draws from a distribution statistically close to the
discrete Gaussian D_{iota(R), r}:

* FamilyRing: the embedded ring splits orthogonally as iota(R) =
  sqrt(2)*L (+) sqrt(2d)*L with L the embedded cyclotomic Z[zeta_p], and a
  Gaussian factorizes exactly over orthogonal components, so the e1 block is
  drawn from D_{L, r/sqrt(2)} and the e2 block from D_{L, r/sqrt(2d)},
  each by a randomized nearest-plane (Klein-style) walk over the
  Gram-Schmidt decomposition of L.
* CycloRing: iota scales every coefficient direction by sqrt(n)
  (orthogonal basis), so D_{iota(R), r} is exactly n independent copies of
  D_{Z, r/sqrt(n)} in coefficient coordinates.

Klein's sampler is exact up to the per-level theta-function flatness; the
relative error is ~2*exp(-(pi * width)^2) per level, so per-level widths
of 4 or more are far beyond statistically detectable.  Below width 4 a
FidelityWarning is emitted and the draw still proceeds, but the walk is then
measurably biased.  On the e2 block of (p, d) = (43, 4871) the exact
P(e2 = 0), from the block lattice's theta series, is 0.9969 at r = 200
(block width 2.03) and 0.00283 at block width 3.97; the walk gives 0.982
(39283 of 40000 draws) and 0.0014 (282 of 200000), seed 12345.  It puts
too little mass on zero, so it does not concentrate like the true
distribution.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .rings import CycloRing, Ring, RingElem, _cyclotomic_block_basis, _embedding_matrix


class FidelityWarning(UserWarning):
    """Lattice sampler ran below its statistical-fidelity floor."""


@dataclass(frozen=True)
class GaussianSpec:
    """Width r under rho_r(x) = exp(-||x||^2/r^2); tail_cut in absolute units
    (defaults to ceil(10 r) + 1, leaving truncated mass below 2^-100)."""
    r: float
    tail_cut: Optional[int] = None

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("GaussianSpec: width must be positive")

    def cut(self, r: Optional[float] = None) -> int:
        if self.tail_cut is not None:
            return self.tail_cut
        w = self.r if r is None else r
        return int(math.ceil(10.0 * w)) + 1


@dataclass(frozen=True)
class BinomialSpec:
    """V_k: (sum of k fair bits) - k/2, support [-k/2, k/2]."""
    k: int

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise ValueError("BinomialSpec: k must be an even integer >= 2")


class RngHandle:
    """Deterministic, forkable randomness. Same seed => same stream.

    Forking derives child_seed = first 8 bytes of
    sha256(parent_seed || index), so worker streams are independent of each
    other and reproducible regardless of scheduling.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & (1 << 64) - 1
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def fork(self, index: int) -> "RngHandle":
        h = hashlib.sha256(self.seed.to_bytes(8, "big") + int(index).to_bytes(8, "big"))
        return RngHandle(int.from_bytes(h.digest()[:8], "big"))


# ---------------------------------------------------------------------------
# 1-D samplers


@lru_cache(maxsize=128)
def _dgauss_table(r: float, cut: int) -> Tuple[np.ndarray, np.ndarray]:
    """(support, cdf) for D_{Z,r} truncated at |t| <= cut."""
    support = np.arange(-cut, cut + 1)
    w = np.exp(-(support.astype(float) ** 2) / (r * r))
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return support, cdf


def sample_dgauss_z(spec: GaussianSpec, rng: RngHandle, size: Optional[int] = None):
    """Integer(s) t with probability proportional to exp(-t^2/r^2)."""
    support, cdf = _dgauss_table(spec.r, spec.cut())
    u = rng.gen.random(size)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(support) - 1)
    out = support[idx]
    return out if size is not None else int(out)


def binomial_vk_pmf(k: int) -> np.ndarray:
    """Exact pmf of V_k over support -k/2 .. k/2."""
    pmf = np.array([math.comb(k, t) for t in range(k + 1)], dtype=float)
    return pmf / 2.0 ** k


def sample_binomial_vk(spec: BinomialSpec, rng: RngHandle, size: Optional[int] = None):
    """V_k draw(s), literally as (sum of k fair bits) - k/2."""
    k = spec.k
    n = 1 if size is None else int(size)
    bits = rng.gen.integers(0, 2, size=(n, k), dtype=np.int64)
    out = bits.sum(axis=1) - k // 2
    return out if size is not None else int(out[0])


# ---------------------------------------------------------------------------
# Klein-style randomized nearest-plane over a Gram-Schmidt decomposition


def _gso(B: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt: B = mu @ Bstar with mu unit lower triangular.

    Returns (mu, row norms of Bstar), the data a Klein walk needs.
    """
    n = B.shape[0]
    Bstar = B.astype(float).copy()
    mu = np.eye(n)
    for i in range(n):
        for j in range(i):
            mu[i, j] = Bstar[j] @ B[i] / (Bstar[j] @ Bstar[j])
            Bstar[i] -= mu[i, j] * Bstar[j]
    return mu, np.linalg.norm(Bstar, axis=1)


def _sample_z_batch(centers: np.ndarray, width: float, cut: int, rng: RngHandle) -> np.ndarray:
    """Batched D_{Z, width, c} via explicit weights around each center."""
    base = np.rint(centers).astype(np.int64)
    offs = np.arange(-cut, cut + 1)
    grid = base[:, None] + offs[None, :]
    w = np.exp(-((grid - centers[:, None]) ** 2) / (width * width))
    cdf = np.cumsum(w, axis=1)
    u = rng.gen.random(len(centers)) * cdf[:, -1]
    idx = (cdf < u[:, None]).sum(axis=1)
    return grid[np.arange(len(centers)), idx]


@lru_cache(maxsize=32)
def _block_gso(p: int) -> Tuple[np.ndarray, np.ndarray]:
    """_gso of the family block basis, computed once per p."""
    mu, norms = _gso(_cyclotomic_block_basis(p))
    mu.flags.writeable = norms.flags.writeable = False
    return mu, norms


def _klein_batch(gso: Tuple[np.ndarray, np.ndarray], r: float, count: int,
                 rng: RngHandle) -> Tuple[np.ndarray, bool]:
    """`count` draws of the integer combination z for D_{lattice(B), r},
    given gso = _gso(B).

    Returns (z array of shape (count, n), fidelity_warned).
    """
    mu, norms = gso
    n = mu.shape[0]
    widths = r / norms
    warned = bool((widths < 4.0).any())
    # work in basis coordinates: target 0, walk levels n-1 .. 0
    z = np.zeros((count, n), dtype=np.int64)
    # c[i] tracks the current center at level i in Gram-Schmidt coordinates
    # of the *coefficient* representation:  center_i = -sum_{j>i} z_j mu[j, i]
    for i in range(n - 1, -1, -1):
        centers = -(z[:, i + 1:] @ mu[i + 1:, i]) if i + 1 < n else np.zeros(count)
        cut = int(math.ceil(10.0 * widths[i])) + 1
        z[:, i] = _sample_z_batch(np.asarray(centers, dtype=float), widths[i], cut, rng)
    return z, warned


def sample_lattice_gauss_batch(ring: Ring, spec: GaussianSpec, rng: RngHandle,
                               count: int, method: str = "auto") -> Tuple[np.ndarray, bool]:
    """`count` coefficient vectors close in law to D_{iota(R), r}.

    method "auto" picks the exact coefficient path for CycloRing and the
    Klein walk for FamilyRing; "klein" forces the generic lattice walk
    (useful for checking the two paths agree); "coeff" is CycloRing-only.

    Returns (coeffs (count, deg) signed int64, fidelity_warned).
    """
    r = spec.r
    if isinstance(ring, CycloRing):
        if method == "auto":
            method = "coeff"
        if method == "coeff":
            # exact: iota is orthogonal with all directions scaled by sqrt(n)
            one = GaussianSpec(r / math.sqrt(ring.n), spec.tail_cut)
            draws = sample_dgauss_z(one, rng, size=count * ring.n)
            return draws.reshape(count, ring.n), False
        return _klein_batch(_gso(_embedding_matrix(ring)), r, count, rng)
    if method == "coeff":
        raise ValueError("coefficient-path sampling is exact only for CycloRing")
    gso = _block_gso(ring.p)
    z1, w1 = _klein_batch(gso, r / math.sqrt(2.0), count, rng)
    z2, w2 = _klein_batch(gso, r / math.sqrt(2.0 * ring.d), count, rng)
    return np.concatenate([z1, z2], axis=1), w1 or w2


def sample_lattice_gauss(ring: Ring, spec: GaussianSpec, rng: RngHandle) -> RingElem:
    """One draw from (a close approximation of) D_{iota(R), r}, in
    coefficient coordinates.  Emits FidelityWarning below the width floor."""
    coeffs, warned = sample_lattice_gauss_batch(ring, spec, rng, 1)
    if warned:
        warnings.warn("per-level sampling width below 4; lattice Gaussian "
                      "fidelity is reduced", FidelityWarning, stacklevel=2)
    return RingElem(coeffs[0])


# ---------------------------------------------------------------------------
# Tail bounds (printed-constant convention, quarantined here)


def tail_bound(c: float, r: float, n: int) -> float:
    """min(C_{c/r}^n, 1) with C_s = s*sqrt(2*pi*e)*exp(-pi*s^2).

    Bounds P(||v|| > c*sqrt(n)) for v ~ D_{Lambda,r} over any n-dim lattice.
    Requires c > r/sqrt(2*pi) (otherwise the bound is vacuous).
    """
    if n < 1:
        raise ValueError("tail_bound: n must be >= 1")
    if c <= r / math.sqrt(2.0 * math.pi):
        raise ValueError("tail_bound: need c > r/sqrt(2*pi), got c=%g r=%g" % (c, r))
    s = c / r
    log_c = math.log(s) + 0.5 * math.log(2.0 * math.pi * math.e) - math.pi * s * s
    if n * log_c < -745.0:
        return 0.0
    return min(math.exp(n * log_c), 1.0)


def compute_beta(d: int, r: float, family_n: int) -> float:
    """beta = min((sqrt(4*pi*e*d)/r * exp(-2*pi*d/r^2))^n, 1), n = p - 1.

    Identical to tail_bound(sqrt(2d), r, n): with s = sqrt(2d)/r,
    C_s = s*sqrt(2*pi*e)*exp(-pi*s^2) = sqrt(4*pi*e*d)/r * exp(-2*pi*d/r^2)
    exactly.  The theorem precondition r < 2*sqrt(pi*d) is exactly
    tail_bound's own c > r/sqrt(2*pi).
    """
    if r >= 2.0 * math.sqrt(math.pi * d):
        raise ValueError("compute_beta: requires r < 2*sqrt(pi*d) = %g, got r = %g"
                         % (2.0 * math.sqrt(math.pi * d), r))
    return tail_bound(math.sqrt(2.0 * d), r, family_n)
