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
`sample_lattice_gauss_batch` draws exactly from the discrete Gaussian
D_{iota(R), r}; the only approximation is a tail cut at ten widths per
integer coordinate, which leaves mass below 2^-100 there:

* FamilyRing: the embedded ring splits orthogonally as iota(R) =
  sqrt(2)*L (+) sqrt(2d)*L with L the embedded cyclotomic Z[zeta_p], and a
  Gaussian factorizes exactly over orthogonal components, so the e1 block is
  drawn from D_{L, r/sqrt(2)} and the e2 block from D_{L, r/sqrt(2d)}.
  L is sqrt(p) times Z^p projected onto the sum-zero hyperplane (Gram
  p*I - J), the prime-cyclotomic view of Z[X]/(X^p - 1) in Lyubashevsky,
  Peikert and Regev, "A Toolkit for Ring-LWE Cryptography" (Eurocrypt
  2013).  `_sample_block` draws from it by conditioning i.i.d. integer
  Gaussians on the class of their sum mod p; see there.
* CycloRing: iota scales every coefficient direction by sqrt(n)
  (orthogonal basis), so D_{iota(R), r} is exactly n independent copies of
  D_{Z, r/sqrt(n)} in coefficient coordinates.

Both paths hold at every width, including the narrow e2 blocks where the
attacks draw their signal: at (p, d) = (43, 4871), r = 200 (block width
2.03), P(e2 = 0) is 0.9969, the block lattice's theta series.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .rings import CycloRing, Ring


@dataclass(frozen=True)
class GaussianSpec:
    """Width r under rho_r(x) = exp(-||x||^2/r^2)."""
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("GaussianSpec: width must be positive")

    def cut(self) -> int:
        """Tail cut ceil(10 r) + 1: the truncated mass is below 2^-100."""
        return int(math.ceil(10.0 * self.r)) + 1


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
# Exact D_{L, w} on the embedded Z[zeta_p]


@lru_cache(maxsize=64)
def _block_tables(p: int, w: float):
    """Tables for `_sample_block` at (p, w), all O(p^2) or O(support).

    With s = w/sqrt(p) and g(v) = exp(-v^2/s^2) on |v| <= ceil(10 s) + 1:
    vals[rho], cum[rho]  members v = rho (mod p) of the support, and the
                         running sums of g over them (zero-padded);
    g_mod[rho]           P(v = rho mod p) for v ~ g;
    H[k][j]              P(v_1 + .. + v_k = j mod p), k = 0 .. p;
    j_cdf                running sums of H[p][j] / theta(j), where
                         theta(j) = sum_k exp(-(j + k p)^2 / (p s^2)).
    """
    s = w / math.sqrt(p)
    cut = int(math.ceil(10.0 * s)) + 1
    per_class = -(-(2 * cut + 1) // p)
    vals = (-cut + (np.arange(p) + cut) % p)[:, None] + p * np.arange(per_class)[None, :]
    cum = np.cumsum(np.where(vals <= cut, np.exp(-(vals / s) ** 2), 0.0), axis=1)
    g_mod = cum[:, -1] / cum[:, -1].sum()
    diff = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    H = np.zeros((p + 1, p))
    H[0, 0] = 1.0
    for k in range(1, p + 1):
        H[k] = (g_mod * H[k - 1][diff]).sum(axis=1)
    # the class of j in Z_p carries weight H[p][j] / theta(j); in log space,
    # because theta underflows at narrow widths
    reps = int(math.ceil(10.0 * s / math.sqrt(p))) + 1
    ks = np.arange(-reps, reps + 1)
    log_theta = np.logaddexp.reduce(-((np.arange(p)[:, None] + p * ks) ** 2) / (p * s * s),
                                    axis=1)
    log_w = np.log(H[p], out=np.full(p, -np.inf), where=H[p] > 0) - log_theta
    j_cdf = np.cumsum(np.exp(log_w - log_w.max()))
    for a in (vals, cum, g_mod, diff, H, j_cdf):
        a.flags.writeable = False
    return vals, cum, g_mod, diff, H, j_cdf


def _pick(cdf: np.ndarray, rng: RngHandle) -> np.ndarray:
    """Per row of running sums, the index of a draw with probability
    proportional to its increment; zero-weight entries are never picked."""
    total = cdf[:, -1]
    # a product that rounds up to `total` would step past the last entry
    u = np.minimum(rng.gen.random(len(cdf)) * total, np.nextafter(total, 0.0))
    return (cdf <= u[:, None]).sum(axis=1)


def _sample_block(p: int, w: float, count: int, rng: RngHandle) -> np.ndarray:
    """`count` exact draws from D_{L, w}, L the embedded Z[zeta_p] (Gram
    p*I - J), as coefficients on 1, zeta, .., zeta^(p-2).

    L is sqrt(p) times Z^p projected onto the sum-zero hyperplane:
    x in Z^p maps to sum x_i zeta^i, with squared norm p ||x||^2 - (sum x)^2,
    and x + Z*1 is one point.  Under i.i.d. x_i ~ g, the line x + Z*1
    weighs rho_{L, w}(point) * theta(sum x mod p).  So the sum's class j is
    drawn with weight H[p][j] / theta(j), then x_0 .. x_{p-1} one by one,
    each conditioned on the classes of the later coordinates summing to
    what remains of j.  Every step is exact up to the tail cut of g; the
    cost is O(p^2) per draw whatever the width.
    """
    vals, cum, g_mod, diff, H, j_cdf = _block_tables(p, float(w))
    j = _pick(np.broadcast_to(j_cdf, (count, p)), rng)
    x = np.empty((count, p), dtype=np.int64)
    for i in range(p):
        # row j: weight of class rho for x_i when the rest must sum to j
        step = np.cumsum(g_mod * H[p - 1 - i][diff], axis=1)
        rho = _pick(step[j], rng)
        x[:, i] = vals[rho, _pick(cum[rho], rng)]
        j = (j - rho) % p
    return x[:, :-1] - x[:, -1:]


def sample_lattice_gauss_batch(ring: Ring, spec: GaussianSpec, rng: RngHandle,
                               count: int) -> Tuple[np.ndarray, bool]:
    """`count` exact draws from D_{iota(R), r}, as coefficient vectors.

    Returns (coeffs (count, deg) signed int64, False).  The second element
    is always False; it is kept so that callers unpacking a (coeffs,
    fidelity flag) pair keep working.
    """
    r = spec.r
    if isinstance(ring, CycloRing):
        # iota is orthogonal with all directions scaled by sqrt(n)
        draws = sample_dgauss_z(GaussianSpec(r / math.sqrt(ring.n)), rng, size=count * ring.n)
        return draws.reshape(count, ring.n), False
    e1 = _sample_block(ring.p, r / math.sqrt(2.0), count, rng)
    e2 = _sample_block(ring.p, r / math.sqrt(2.0 * ring.d), count, rng)
    return np.concatenate([e1, e2], axis=1), False


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
