"""Output checks for the benchmark, computed apart from the workbench.

Nothing here imports `rlwe_workbench`.  Each check compares a command's
output with a value this module computes itself, or with a property the
method must have; none compares with a stored copy of an earlier output.
Timing fields (`elapsed_ms`, `runtime_ms`) are never checked.

The pieces:

* the secret behind a sample file, re-derived from the seed by the
  documented fork rule (sha256 of seed || 2^63, then PCG64), and its
  commitment hash;
* the product in Z[zeta_p, sqrt(d)]/q, built from multiplication by zeta
  (zeta^(p-1) = -(1 + ... + zeta^(p-2))), and the reduction rho into
  F_{q^2} at a given order-p element;
* the exact P(e2 = 0) of the sqrt(d)-block of a family-ring error, from
  the theta series of the block lattice, and an exact binomial tail test;
* the estimator's defining character sum, as a literal sum over every
  y != 0 and as a sum over the cosets of the order-m subgroup, in an
  F_{q^2} model of its own.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

HEADER_KEYS = ["schema_version", "ring_kind", "p", "d", "m", "q", "error_kind",
               "width_or_k", "seed", "count", "secret_hash"]
REPORT_KEYS = ["verdict", "candidate", "chi2_by_index", "samples_used",
               "elapsed_ms", "guesses_evaluated"]
ESTIMATE_HEADER = "m,q,k,degree,neg_floor_log2_eps,log2_bound,beta,runtime_ms"
EMPIRICAL_COLUMNS = ",chi2_empirical,uniform"

# an exact sampler fails the collapse test in fewer than 1 in 10^4 runs
COLLAPSE_SIGNIFICANCE = 1e-4
# records that must lie on the guessed line b2 = u*a2 + v*a1
MIN_LINE_SHARE = 0.9
# tolerance on the mean square of the centred e1 block
E1_MOMENT_TOLERANCE = 0.10
# a degree-2 row is summed over every y when q^2 * m/2 stays below this
GRID_LIMIT = 10 ** 8


# ------------------------------------------------------------ secrets

def fork_seed(seed: int, index: int) -> int:
    """Child seed: the first 8 bytes of sha256(seed || index), big-endian."""
    digest = hashlib.sha256((seed % 2 ** 64).to_bytes(8, "big")
                            + index.to_bytes(8, "big")).digest()
    return int.from_bytes(digest[:8], "big")


def secret_coeffs(seed: int, q: int, deg: int) -> np.ndarray:
    """The secret of a sample file: `deg` uniform residues from the 2^63 fork."""
    gen = np.random.Generator(np.random.PCG64(fork_seed(seed, 1 << 63)))
    return gen.integers(0, q, size=deg, dtype=np.int64)


def secret_hash(coeffs, q: int) -> str:
    text = "q=%d;coeffs=%s" % (q, ",".join(str(int(c) % q) for c in coeffs))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------- ring product and reduction

def zeta_rows(x, p: int, q: int) -> np.ndarray:
    """Rows zeta^i * x for i < p - 1, so that y @ zeta_rows(x) = y * x in
    Z[zeta_p]/q over the basis 1, zeta, ..., zeta^(p-2)."""
    n = p - 1
    rows = np.empty((n, n), dtype=np.int64)
    cur = np.asarray(x, dtype=np.int64) % q
    for i in range(n):
        rows[i] = cur
        top = cur[-1]
        cur = np.concatenate(([0], cur[:-1]))
        cur = (cur - top) % q
    return rows


def family_mul(a: np.ndarray, s, p: int, d: int, q: int) -> np.ndarray:
    """Row-wise a * s in Z[zeta_p, sqrt(d)]/q; a has shape (count, 2(p-1))."""
    n = p - 1
    a = np.asarray(a, dtype=np.int64) % q
    s = np.asarray(s, dtype=np.int64)
    m1, m2 = zeta_rows(s[:n], p, q), zeta_rows(s[n:], p, q)
    a1, a2 = a[:, :n], a[:, n:]
    u = (a1 @ m1 % q + (d % q) * (a2 @ m2 % q)) % q
    v = (a1 @ m2 + a2 @ m1) % q
    return np.concatenate([u, v], axis=1)


def check_order_p(alpha: int, p: int, q: int) -> None:
    if alpha % q == 1 or pow(alpha, p, q) != 1:
        raise ValueError("alpha = %d does not have order %d mod %d" % (alpha, p, q))


def rho(coeffs: np.ndarray, p: int, q: int, alpha: int):
    """(u, v) arrays: each block evaluated at zeta -> alpha, sqrt(d) kept."""
    check_order_p(alpha, p, q)
    n = p - 1
    powers = np.array([pow(alpha, i, q) for i in range(n)], dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64) % q
    return coeffs[:, :n] @ powers % q, coeffs[:, n:] @ powers % q


def centred(x: np.ndarray, q: int) -> np.ndarray:
    """Residues mod odd q lifted into [-(q-1)/2, (q-1)/2]."""
    return (x + q // 2) % q - q // 2


# ------------------------------------------------- collapse statistics

def collapse_probability(p: int, width: float) -> float:
    """Exact P(x = 0) for x ~ D_{L, width}, weight exp(-|x|^2 / width^2),
    L the embedded Z[zeta_p] with Gram p*I - J.

    L is sqrt(p) times Z^p projected onto the sum-zero hyperplane, so
    |x|^2 = p |z|^2 - (sum z)^2 for z in Z^p modulo the all-ones vector.
    Integrating the Gaussian along the all-ones direction turns the theta
    series into p / (sqrt(pi) width) * int_0^1 f(t)^p dt, with
    f(t) = sum_k exp(-p (k - t)^2 / width^2); the integrand is smooth and
    1-periodic, so an equally spaced rule converges geometrically.
    """
    a = p / (width * width)
    t = (np.arange(4096) + 0.5) / 4096
    cut = int(math.ceil(12.0 * width / math.sqrt(p))) + 2
    k = np.arange(-cut, cut + 1)
    log_f = np.log(np.exp(-a * (k[None, :] - t[:, None]) ** 2).sum(axis=1))
    log_terms = p * log_f
    top = float(log_terms.max())
    log_integral = top + math.log(float(np.exp(log_terms - top).mean()))
    log_theta = math.log(p / (math.sqrt(math.pi) * width)) + log_integral
    return math.exp(-log_theta)


def binomial_tails(n: int, prob: float, x: int):
    """(P(X <= x), P(X >= x)) for X ~ Binomial(n, prob), summed exactly
    term by term in floating point."""
    if prob <= 0.0 or prob >= 1.0:
        hit = n if prob >= 1.0 else 0
        return float(x >= hit), float(x <= hit)
    ks = np.arange(n + 1)
    log_pmf = (math.lgamma(n + 1) - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1)
                                               for k in ks])
               + ks * math.log(prob) + (n - ks) * math.log1p(-prob))
    pmf = np.exp(log_pmf)
    return float(pmf[:x + 1].sum()), float(pmf[x:].sum())


def binomial_consistent(n: int, prob: float, x: int,
                        significance: float = COLLAPSE_SIGNIFICANCE) -> bool:
    """Two-sided exact test: False when either tail at x is at most
    significance / 2, so a true Binomial(n, prob) fails it at most that often."""
    lower, upper = binomial_tails(n, prob, x)
    return min(lower, upper) > significance / 2.0


def wrapped_second_moment(sigma: float, q: int) -> float:
    """E[lift(t mod q)^2] for t with weight exp(-t^2 / (2 sigma^2)) on Z."""
    cut = int(math.ceil(12.0 * sigma)) + 1
    t = np.arange(-cut, cut + 1)
    w = np.exp(-(t.astype(float) ** 2) / (2.0 * sigma * sigma))
    lift = centred(t, q).astype(float)
    return float((w * lift * lift).sum() / w.sum())


# ------------------------------------------------------ character sums

def _largest_nonresidue(q: int) -> int:
    return next(c for c in range(q - 1, 1, -1) if pow(c, (q - 1) // 2, q) == q - 1)


def _mul(x, y, q: int, c: int):
    """Product in F_q[s]/(s^2 - c); c = 0 with v = 0 is plain F_q."""
    return ((x[0] * y[0] + x[1] * y[1] % q * c) % q, (x[0] * y[1] + x[1] * y[0]) % q)


def _pow(x, e: int, q: int, c: int):
    out = (1, 0)
    for bit in bin(e)[2:]:
        out = _mul(out, out, q, c)
        if bit == "1":
            out = _mul(out, x, q, c)
    return out


def _prime_divisors(n: int):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def _field(q: int, degree: int):
    """(c, elements in scan order) for F_q (degree 1) or F_q[s]/(s^2 - c)."""
    if degree == 1:
        return 0, ((u, 0) for u in range(2, q))
    return _largest_nonresidue(q), ((u, v) for v in range(1, q) for u in range(q))


def _generator(q: int, degree: int):
    order = q ** degree - 1
    c, elements = _field(q, degree)
    divisors = _prime_divisors(order)
    for x in elements:
        if all(_pow(x, order // f, q, c) != (1, 0) for f in divisors):
            return x, c
    raise ValueError("no generator of F_%d^%d" % (q, degree))


def _log_cos_table(q: int, k: int, degree: int) -> np.ndarray:
    """k * log2|cos(pi * value / q)| indexed by the first coordinate u of
    alpha^i * y; the value is u (degree 1) or Tr = 2u (degree 2)."""
    u = np.arange(q)
    value = u if degree == 1 else 2 * u % q
    return k * np.log2(np.abs(np.cos(np.pi * value / q)))


def _log2_sum(logs: np.ndarray) -> float:
    top = float(logs.max())
    return top + math.log2(float(np.exp2(logs - top).sum()))


def _root_powers(alpha, n: int, q: int, c: int):
    a, b, x = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), alpha
    for i in range(n):  # alpha^1 .. alpha^n
        a[i], b[i] = x
        x = _mul(x, alpha, q, c)
    return a, b


def grid_log2_eps(m: int, q: int, k: int, degree: int) -> float:
    """log2 of (1/2) sum over every y != 0 in F_{q^degree} of
    prod_{i=1}^{m/2} cos(pi * value(alpha^i y) / q)^k, one term per y, with
    alpha the first element in scan order of exact order m."""
    n, order = m // 2, q ** degree - 1
    c, elements = _field(q, degree)
    alpha = next(a for a in (_pow(x, order // m, q, c) for x in elements)
                 if _pow(a, n, q, c) == (q - 1, 0))
    a, b = _root_powers(alpha, n, q, c)
    table = _log_cos_table(q, k, degree)
    ys = np.arange(q, dtype=np.int64)
    if degree == 1:
        terms = [table[a[:, None] * ys[None, lo:lo + 2048] % q].sum(axis=0)
                 for lo in range(1, q, 2048)]
    else:
        terms = []
        for u in range(q):
            # first coordinate of alpha^i (u + v s) is a_i u + c b_i v
            row = table[(a[:, None] * u + (b * c % q)[:, None] * ys[None, :]) % q].sum(axis=0)
            terms.append(row if u else row[1:])  # u = v = 0 is y = 0
    return _log2_sum(np.concatenate(terms)) - 1.0


def orbit_log2_eps(m: int, q: int, k: int, degree: int) -> float:
    """The same sum taken once per coset of H = <alpha> in F_{q^degree}^*.

    alpha = g^(order/m) for a generator g, and the cosets are g^j H for
    j < order/m.  alpha^(m/2) = -1 and cos is even, so every y in a coset
    gives the same term: the sum is m times the sum over representatives.
    """
    n, order = m // 2, q ** degree - 1
    g, c = _generator(q, degree)
    t = order // m
    reps_u, reps_v = np.empty(t, dtype=np.int64), np.empty(t, dtype=np.int64)
    x = (1, 0)
    for j in range(t):
        reps_u[j], reps_v[j] = x
        x = _mul(x, g, q, c)
    a, b = _root_powers(_pow(g, t, q, c), n, q, c)
    bc = b * c % q
    table = _log_cos_table(q, k, degree)
    logs = np.empty(t)
    for lo in range(0, t, 4096):
        u, v = reps_u[lo:lo + 4096], reps_v[lo:lo + 4096]
        first = (a[:, None] * u[None, :] + bc[:, None] * v[None, :]) % q
        logs[lo:lo + 4096] = table[first].sum(axis=0)
    return math.log2(m) - 1.0 + _log2_sum(logs)


def log2_eps(m: int, q: int, k: int, degree: int) -> float:
    """The full grid where it is small enough, the coset sum elsewhere."""
    if q ** degree * (m // 2) <= GRID_LIMIT:
        return grid_log2_eps(m, q, k, degree)
    return orbit_log2_eps(m, q, k, degree)


def log2_bound(m: int, q: int, k: int) -> float:
    """log2 of (q-1)/2 * beta^(km/4), beta = (1 + sqrt(q)/m)/2, for q < m^2."""
    return math.log2((q - 1) / 2.0) + (k * m / 4.0) * math.log2(beta(m, q))


def beta(m: int, q: int) -> float:
    return (1.0 + math.sqrt(q) / m) / 2.0


# ------------------------------------------------- command output checks

def parse_samples(text: str):
    """(header dict, a, b) of a JSONL sample file, with no validation."""
    lines = text.splitlines()
    header = json.loads(lines[0])
    recs = [json.loads(line) for line in lines[1:]]
    a = np.array([r["a"] for r in recs], dtype=np.int64)
    b = np.array([r["b"] for r in recs], dtype=np.int64)
    return header, a, b


def _header_failures(header: dict, want: dict) -> list:
    out = []
    if list(header) != HEADER_KEYS:
        out.append("header keys %s" % list(header))
    for key, value in want.items():
        if header.get(key) != value:
            out.append("header %s = %r, expected %r" % (key, header.get(key), value))
    return out


def _range_failures(a: np.ndarray, b: np.ndarray, count: int, deg: int, q: int) -> list:
    if a.shape != (count, deg) or b.shape != (count, deg):
        return ["record arrays %s and %s, expected (%d, %d)" % (a.shape, b.shape, count, deg)]
    if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= q:
        return ["coefficients outside [0, %d)" % q]
    return []


def check_rlwe_file(text: str, p: int, d: int, q: int, r: float, seed: int, count: int):
    """Failures and figures for a family-ring Gaussian sample file.

    Returns (failures, collapse_failure, figures).  collapse_failure is the
    e2-collapse test's message or None; it is kept apart so the caller can
    say which workload rows count it.
    """
    n = p - 1
    header, a, b = parse_samples(text)
    s = secret_coeffs(seed, q, 2 * n)
    failures = _header_failures(header, {
        "schema_version": 1, "ring_kind": "family", "p": p, "d": d, "m": None, "q": q,
        "error_kind": "gaussian", "width_or_k": r, "seed": seed, "count": count,
        "secret_hash": secret_hash(s, q)})
    failures += _range_failures(a, b, count, 2 * n, q)
    if failures:
        return failures, None, {}
    e = centred((b - family_mul(a, s, p, d, q)) % q, q)
    e1, e2 = e[:, :n], e[:, n:]
    # per-coefficient variance of D_{L, w} is w^2 / p (Gram p*I - J)
    sigma1, sigma2 = r / math.sqrt(2.0 * p), r / math.sqrt(2.0 * d * p)
    e2_bound = int(math.ceil(10.0 * sigma2))
    if np.abs(e2).max() > e2_bound:
        failures.append("e2 coefficient %d beyond the tail bound %d"
                        % (np.abs(e2).max(), e2_bound))
    moment = float((e1.astype(float) ** 2).mean())
    expect = wrapped_second_moment(sigma1, q)
    if abs(moment / expect - 1.0) > E1_MOMENT_TOLERANCE:
        failures.append("e1 mean square %.1f, expected %.1f (+-%d%%)"
                        % (moment, expect, 100 * E1_MOMENT_TOLERANCE))
    p_zero = collapse_probability(p, r / math.sqrt(2.0 * d))
    nonzero = int((e2 != 0).any(axis=1).sum())
    collapse = None
    if not binomial_consistent(count, 1.0 - p_zero, nonzero):
        collapse = ("e2 collapse: %d of %d records have a nonzero e2 block; exact "
                    "P(e2 = 0) = %.6g expects %.2f" % (nonzero, count, p_zero,
                                                      count * (1.0 - p_zero)))
    figures = {"nonzero_e2": nonzero, "expected_nonzero_e2": count * (1.0 - p_zero),
               "e1_mean_square": moment, "e1_expected_mean_square": expect}
    return failures, collapse, figures


def check_uniform_file(text: str, p: int, d: int, q: int, seed: int, count: int) -> list:
    header, a, b = parse_samples(text)
    failures = _header_failures(header, {
        "schema_version": 1, "ring_kind": "family", "p": p, "d": d, "m": None, "q": q,
        "error_kind": "uniform", "width_or_k": None, "seed": seed, "count": count,
        "secret_hash": None})
    return failures + _range_failures(a, b, count, 2 * (p - 1), q)


def reduced_records(text: str, p: int, q: int, alpha: int):
    """rho(a) = (a1, a2) and the second coordinate b2 of rho(b), per record."""
    _, a, b = parse_samples(text)
    a1, a2 = rho(a, p, q, alpha)
    _, b2 = rho(b, p, q, alpha)
    return a1, a2, b2


def check_attack(text: str, attack: str, q: int, records, truth):
    """Failures and the share of records on the guessed line.

    records is (a1, a2, b2) from `reduced_records`; truth is rho(s) as
    (u, v), or None for a uniform decoy, which must give NOT-RLWE.
    """
    report = json.loads(text)
    if list(report) != REPORT_KEYS:
        return ["report keys %s" % list(report)], None
    a1, a2, b2 = records
    failures = []
    guesses = q if attack == "coset" else q * q
    if report["guesses_evaluated"] != guesses or len(report["chi2_by_index"]) != guesses:
        failures.append("guesses_evaluated %d with %d chi2 values, expected %d"
                        % (report["guesses_evaluated"], len(report["chi2_by_index"]), guesses))
    used = int((a2 != 0).sum()) if attack == "coset" else len(a2)
    if report["samples_used"] != used:
        failures.append("samples_used %d, expected %d" % (report["samples_used"], used))
    if truth is None:
        if report["verdict"] != "NOT-RLWE" or report["candidate"] is not None:
            failures.append("decoy gave %s %s" % (report["verdict"], report["candidate"]))
        return failures, None
    u, v = truth
    if report["verdict"] != "GUESS" or report["candidate"] != [u, v]:
        failures.append("%s %s, expected GUESS [%d, %d]"
                        % (report["verdict"], report["candidate"], u, v))
    share = float(((b2 - u * a2 - v * a1) % q == 0).mean())
    return failures, share


def check_estimate(text: str, m: int, q: int, k: int, degree: int, empirical: bool,
                   own_log2_eps: float) -> list:
    lines = text.splitlines()
    header = ESTIMATE_HEADER + (EMPIRICAL_COLUMNS if empirical else "")
    if len(lines) != 2 or lines[0] != header:
        return ["CSV header %r" % lines[:1]]
    row = lines[1].split(",")
    failures = []
    if [int(x) for x in row[:4]] != [m, q, k, degree]:
        failures.append("row starts %s" % row[:4])
    floor = int(row[4])
    want = math.floor(-own_log2_eps)
    near_integer = abs(-own_log2_eps - round(-own_log2_eps)) < 1e-9
    if floor != want and not (near_integer and abs(floor + own_log2_eps) < 1.0 + 1e-9):
        failures.append("floor %d, own sum gives %d (log2 eps %.9f)"
                        % (floor, want, own_log2_eps))
    if q < m * m:
        bound = log2_bound(m, q, k)
        if row[5] == "" or abs(float(row[5]) - bound) > 6e-5:
            failures.append("log2_bound %r, expected %.4f" % (row[5], bound))
        if own_log2_eps > bound:
            failures.append("log2 eps %.4f above the bound %.4f" % (own_log2_eps, bound))
    elif row[5] != "":
        failures.append("log2_bound %r printed where q >= m^2" % row[5])
    if abs(float(row[6]) - beta(m, q)) > 1e-6:
        failures.append("beta %s, expected %.6f" % (row[6], beta(m, q)))
    if empirical and row[-1] != "yes":
        failures.append("empirical uniform = %s" % row[-1])
    return failures
