"""Randomness: 1-D discrete Gaussians, the shifted binomial V_k, and lattice
discrete Gaussians over the ring embeddings.

Width convention
----------------
Everywhere samples are drawn, the Gaussian weight is

    rho_r(x) = exp(-||x||^2 / r^2)         ("plain" convention)

so the continuous standard deviation per coordinate is r/sqrt(2).

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
  2013).  `_sample_block` draws from it as i.i.d. integer Gaussians
  conditioned on the class j of their sum mod p: j from its exact law,
  then the coordinates by rejection.  A round makes p - 1 free draws,
  accepts with probability g_mod[c] / max g_mod for the class c that
  completes j, and draws the last coordinate within c; it accepts with
  probability H[p][j] / max g_mod in all.  Class sums where that is below
  1/4 take the conditional walk `_walk` instead; the route depends on j
  alone, so the mixture stays exact.  See there for the proof.
* CycloRing: iota scales every coefficient direction by sqrt(n)
  (orthogonal basis), so D_{iota(R), r} is exactly n independent copies of
  D_{Z, r/sqrt(n)} in coefficient coordinates.

Both paths hold at every width, including the narrow e2 blocks where the
attacks draw their signal: at (p, d) = (43, 4871), r = 200 (block width
2.03), P(e2 = 0) is 0.9969, the block lattice's theta series.

The 1-D sampler
---------------
`sample_dgauss_z` inverts the CDF: a uniform double u gives
support[min(searchsorted(cdf, u, "right"), len - 1)], the first support
point whose cdf value exceeds u.  It reaches that answer through a guide
of B = 2^12 buckets.  B is a power of 2, so u * B is exact and bucket
b = floor(u * B) satisfies b/B <= u < (b+1)/B.  Where no cdf value lies in
[b/B, (b+1)/B), every u in the bucket has the same count of cdf values
<= u, so the guide holds that draw; every other bucket holds a sentinel
outside the support, and only the draws landing there (about 0.3% at
r = sqrt(2 pi)) go through searchsorted.  The uniforms are drawn and
looked up 2^16 at a time into one int64 output.  PCG64's random(n) spends
one 64-bit output per double, so chunked calls return the same stream as
one call of the full size: every draw equals the plain inverse-CDF draw.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from .rings import CycloRing, Ring

# Largest tail cut a sampler table is built for: a support of about 2*10^6
# integers.  Every width the attacks and estimates use cuts below 10^3.
MAX_TAIL_CUT = 10 ** 6
# Narrowest width sampled.  Near 1e-154, r * r underflows to 0 and the
# tables divide by it; every width the attacks and estimates use is above 0.1.
MIN_WIDTH = 1e-100


class WidthError(ValueError):
    """A Gaussian width below MIN_WIDTH (`narrow`) or whose tail cut would
    exceed MAX_TAIL_CUT."""

    def __init__(self, message: str, narrow: bool):
        super().__init__(message)
        self.narrow = narrow


@dataclass(frozen=True)
class GaussianSpec:
    """Width r under rho_r(x) = exp(-||x||^2/r^2)."""
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            msg = "GaussianSpec: width must be finite and positive, got %r" % self.r
            # 0 is also where a width derived from one below MIN_WIDTH underflows
            raise WidthError(msg, narrow=True) if self.r == 0 else ValueError(msg)

    def cut(self) -> int:
        """Tail cut ceil(10 r) + 1: the truncated mass is below 2^-100.
        A width below MIN_WIDTH, or a cut above MAX_TAIL_CUT, is refused."""
        if self.r < MIN_WIDTH:
            raise WidthError("Gaussian width %g is too narrow to sample: it is "
                             "below %g" % (self.r, MIN_WIDTH), narrow=True)
        if not 10.0 * self.r <= MAX_TAIL_CUT - 1:
            raise WidthError("Gaussian width %g is too wide to sample: its tail cut "
                             "ceil(10 r) + 1 exceeds %d" % (self.r, MAX_TAIL_CUT),
                             narrow=False)
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
    sha256(parent_seed || index).  Sample generation draws the secret and
    each record chunk from its own fork, so a chunk's records depend only
    on the seed and the chunk's index, not on the chunks drawn before it.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & (1 << 64) - 1
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def fork(self, index: int) -> "RngHandle":
        h = hashlib.sha256(self.seed.to_bytes(8, "big") + int(index).to_bytes(8, "big"))
        return RngHandle(int.from_bytes(h.digest()[:8], "big"))


# ---------------------------------------------------------------------------
# 1-D samplers


# The 1-D sampler's guide has _BUCKETS buckets (a power of 2); it draws and
# looks up _CHUNK uniforms at a time.
_BUCKETS = 1 << 12
_CHUNK = 1 << 16


@lru_cache(maxsize=128)
def _dgauss_table(r: float, cut: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(support, cdf, guide) for D_{Z,r} truncated at |t| <= cut.

    guide[b] is the draw for every u in [b/B, (b+1)/B), B = _BUCKETS, when
    no cdf entry lies in that bucket, and the sentinel cut + 1 otherwise."""
    support = np.arange(-cut, cut + 1)
    w = np.exp(-(support.astype(float) ** 2) / (r * r))
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    hi = np.searchsorted(cdf, edges[1:], side="left")
    guide = np.where(lo == hi, support[np.minimum(lo, len(support) - 1)], cut + 1)
    for a in (support, cdf, guide):
        a.flags.writeable = False
    return support, cdf, guide


def sample_dgauss_z(spec: GaussianSpec, rng: RngHandle, size: int) -> np.ndarray:
    """`size` int64 integers t with probability proportional to
    exp(-t^2/r^2): for each uniform u, support[min(searchsorted(cdf, u,
    "right"), len - 1)]."""
    cut = spec.cut()
    support, cdf, guide = _dgauss_table(spec.r, cut)
    n = int(size)
    out = np.empty(n, dtype=np.int64)
    bucket = np.empty(min(n, _CHUNK), dtype=np.intp)
    for lo in range(0, n, _CHUNK):
        u = rng.gen.random(min(_CHUNK, n - lo))
        chunk, b = out[lo:lo + len(u)], bucket[:len(u)]
        # u * _BUCKETS is exact, so its integer part is u's bucket
        np.multiply(u, _BUCKETS, out=b, casting="unsafe")
        np.take(guide, b, out=chunk, mode="clip")
        miss = np.flatnonzero(chunk > cut)
        if miss.size:
            idx = np.searchsorted(cdf, u[miss], side="right")
            chunk[miss] = support[np.minimum(idx, len(support) - 1)]
    return out


def sample_binomial_vk(spec: BinomialSpec, rng: RngHandle, size: int) -> np.ndarray:
    """`size` int64 V_k draws, literally as (sum of k fair bits) - k/2."""
    k = spec.k
    bits = rng.gen.integers(0, 2, size=(int(size), k), dtype=np.int64)
    return bits.sum(axis=1) - k // 2


# ---------------------------------------------------------------------------
# Exact D_{L, w} on the embedded Z[zeta_p]


# A class sum j whose rejection rounds accept with probability
# H[p][j] / max g_mod below this goes through the walk instead: there the
# (p - 1) / acceptance 1-D draws per record stop paying for themselves
# against the walk's O(p^2) (measured at p = 43 and 83).
_MIN_ACCEPT = 0.25


class _BlockTables(NamedTuple):
    """Tables for `_sample_block` at (p, w), all O(p^2) or O(support).

    With s = w/sqrt(p) and g(v) = exp(-v^2/s^2) on |v| <= GaussianSpec(s).cut():
    vals[rho], cum[rho]  members v = rho (mod p) of the support, and the
                         running sums of g over them (zero-padded);
    g_mod[rho]           P(v = rho mod p) for v ~ g;
    accept[rho]          g_mod[rho] / max g_mod;
    diff[i][k]           (i - k) mod p;
    H[k][j]              P(v_1 + .. + v_k = j mod p), k = 0 .. p;
    j_cdf                running sums of H[p][j] / theta(j), where
                         theta(j) = sum_k exp(-(j + k p)^2 / (p s^2));
    walk[j]              H[p][j] / max g_mod < _MIN_ACCEPT.
    """
    s: float
    vals: np.ndarray
    cum: np.ndarray
    g_mod: np.ndarray
    accept: np.ndarray
    diff: np.ndarray
    H: np.ndarray
    j_cdf: np.ndarray
    walk: np.ndarray


@lru_cache(maxsize=64)
def _block_tables(p: int, w: float) -> _BlockTables:
    s = w / math.sqrt(p)
    cut = GaussianSpec(s).cut()
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
    t = _BlockTables(s, vals, cum, g_mod, g_mod / g_mod.max(), diff, H, j_cdf,
                     H[p] / g_mod.max() < _MIN_ACCEPT)
    for a in t[1:]:
        a.flags.writeable = False
    return t


def _pick(cdf: np.ndarray, rng: RngHandle) -> np.ndarray:
    """Per row of running sums, the index of a draw with probability
    proportional to its increment; zero-weight entries are never picked."""
    total = cdf[:, -1]
    # a product that rounds up to `total` would step past the last entry
    u = np.minimum(rng.gen.random(len(cdf)) * total, np.nextafter(total, 0.0))
    # each row is nondecreasing, so this is the first entry above u
    return (cdf > u[:, None]).argmax(axis=1)


@lru_cache(maxsize=8)
def _walk_steps(p: int, w: float) -> np.ndarray:
    """steps[i][j]: running sums over the classes rho of the weight of
    x_i = rho when x_i .. x_{p-1} must sum to j (mod p).  p^3 floats
    (0.64 MB at p = 43), built when a width first walks a record."""
    t = _block_tables(p, w)
    steps = np.empty((p, p, p))
    for i in range(p):
        np.cumsum(t.g_mod * t.H[p - 1 - i][t.diff], axis=1, out=steps[i])
    steps.flags.writeable = False
    return steps


def _walk(p: int, w: float, j: np.ndarray, rng: RngHandle) -> np.ndarray:
    """Rows x in Z^p with sum x = j (mod p), drawn with weight prod g(x_i):
    x_0 .. x_{p-1} one by one, each conditioned on the classes of the
    later coordinates summing to what remains of j.  O(p^2) per row,
    besides the width's step tables, which are built once."""
    t, steps = _block_tables(p, w), _walk_steps(p, w)
    x = np.empty((len(j), p), dtype=np.int64)
    for i in range(p):
        rho = _pick(steps[i][j], rng)
        x[:, i] = t.vals[rho, _pick(t.cum[rho], rng)]
        j = (j - rho) % p
    return x


def _sample_block(p: int, w: float, rng: RngHandle, out: np.ndarray) -> None:
    """Fills the rows of `out` with exact draws from D_{L, w}, L the
    embedded Z[zeta_p] (Gram p*I - J), as coefficients on 1, zeta, ..,
    zeta^(p-2).

    L is sqrt(p) times Z^p projected onto the sum-zero hyperplane:
    x in Z^p maps to sum x_i zeta^i, with squared norm p ||x||^2 - (sum x)^2,
    and x + Z*1 is one point.  Under i.i.d. x_i ~ g, the line x + Z*1
    weighs rho_{L, w}(point) * theta(sum x mod p).  So the sum's class j is
    drawn with weight H[p][j] / theta(j), then x from the law of i.i.d.
    x_i ~ g conditioned on sum x = j (mod p), and the point is
    x_i - x_{p-1}, i < p - 1.

    That conditional law is drawn by rejection.  Take g normalized and
    M = max g_mod.  A round draws x_0 .. x_{p-2} i.i.d. from g (one
    `sample_dgauss_z` call for all pending records), sets
    c = (j - x_0 - .. - x_{p-2}) mod p, accepts with probability
    g_mod[c] / M and then draws x_{p-1} from g conditioned on the class c.
    An accepted x has probability
        prod_{i<p-1} g(x_i) * g_mod[c] / M * g(x_{p-1}) / g_mod[c]
        = prod_i g(x_i) / M
    on {sum x = j (mod p)}: the conditional law up to its constant.  A
    round accepts with probability sum_c H[p-1][j - c] g_mod[c] / M =
    H[p][j] / M, and a rejected record is redrawn with its own j.

    Where H[p][j] / M < _MIN_ACCEPT (class sums away from the mode at
    narrow widths; most of them at middling ones, such as w = 7 at p = 43)
    the record takes `_walk` instead.  The route is a function of j alone
    and both routes draw the same law given j, so the mixture is exact;
    so is each route, up to the tail cut of g.  A rejection record costs
    (p - 1) M / H[p][j] <= 4 (p - 1) 1-D draws on average, a walked one
    O(p^2).
    """
    t = _block_tables(p, float(w))
    j = _pick(np.broadcast_to(t.j_cdf, (len(out), p)), rng)
    walk = t.walk[j]
    spec, todo = GaussianSpec(t.s), np.flatnonzero(~walk)
    while todo.size:
        head = sample_dgauss_z(spec, rng, size=todo.size * (p - 1)).reshape(-1, p - 1)
        c = (j[todo] - head.sum(axis=1)) % p
        ok = rng.gen.random(todo.size) < t.accept[c]
        c, x = c[ok], head[ok]
        x -= t.vals[c, _pick(t.cum[c], rng)][:, None]
        out[todo[ok]] = x
        todo = todo[~ok]
    if walk.any():
        x = _walk(p, float(w), j[walk], rng)
        out[walk] = x[:, :-1] - x[:, -1:]


def sample_lattice_gauss_batch(ring: Ring, spec: GaussianSpec, rng: RngHandle,
                               count: int) -> Tuple[np.ndarray, bool]:
    """`count` exact draws from D_{iota(R), r}, as coefficient vectors.

    Returns (coeffs (count, deg) signed int64, False).  The second element
    is always False.  Its one reader is the benchmark's trace hook
    (bench/tracing.py, lattice_draws, out[1]); the pair goes when the
    benchmark refresh (ROADMAP.md, item 1) drops that hook.
    """
    r = spec.r
    if isinstance(ring, CycloRing):
        # iota is orthogonal with all directions scaled by sqrt(n)
        draws = sample_dgauss_z(GaussianSpec(r / math.sqrt(ring.n)), rng, size=count * ring.n)
        return draws.reshape(count, ring.n), False
    n = ring.p - 1
    coeffs = np.empty((count, 2 * n), dtype=np.int64)
    _sample_block(ring.p, r / math.sqrt(2.0), rng, coeffs[:, :n])
    _sample_block(ring.p, r / math.sqrt(2.0 * ring.d), rng, coeffs[:, n:])
    return coeffs, False
