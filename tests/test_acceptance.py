"""Acceptance gate: the nine workbench-level criteria, one test each.

Each test asserts what the method promises at the gate rows.  Criteria 1,
3 and 4 back their assertions with a computation made inside this module,
independent of the code under test:

* criterion 1 computes the exact probability that the sqrt(d)-block of the
  error collapses to zero (`block_collapse_probability`), the only event the
  coset attack draws signal from; the sampler's own collapse rate is tested
  against it too;
* criteria 3 and 4 evaluate the estimator's defining character sum term by
  term over every y != 0 (`full_grid_log2_eps_deg1`/`_deg2`), with their
  own root search and no orbit collapsing, in F_{q^2} through the tuple
  model of reference.py, which imports nothing from the library.

The reported target columns of these three criteria (recovery at the
printed widths; floors 40/97/194/431 and 31/54/159) are kept below for the
record.  Nothing in the repository derives them; README's acceptance table
gives the measured values beside them and the cause of each difference.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
import scipy.stats

import reference as ref
from rlwe_workbench.attack import (AttackConfig, VERDICT_GUESS,
                                   VERDICT_NOT_RLWE, coset_attack,
                                   two_bin_attack)
from rlwe_workbench.estimator import (_orbit_logs, brute_force_distance,
                                      deg2_admissible, empirical_uniformity,
                                      epsilon, epsilon_deg2,
                                      nearest_admissible_q_deg2)
from rlwe_workbench.ffield import is_prime
from rlwe_workbench.oracle import RlweInstance, draw_rlwe, draw_uniform
from rlwe_workbench.rings import FamilyRing, reduce_mod_prime_batch
from rlwe_workbench.sampling import GaussianSpec, RngHandle, sample_lattice_gauss_batch

# attack-scale rows: (p, d, q, printed width r, sample count)
ATTACK_ROWS = [(43, 4871, 173, 694.94, 1730), (83, 4903, 167, 963.84, 1670)]
# width at which the sqrt(d)-block collapses on both rows (P(e2 = 0) > 0.99)
RECOVERY_WIDTH = 200.0

# estimator rows: (m, q, reported target for -floor(log2 eps))
DEG1_ROWS = [(64, 193, 40), (128, 1153, 97), (256, 3329, 194), (512, 10753, 431)]
DEG2_ROWS = [(64, 383, 31), (128, 1151, 54)]
DEG2_LONG_RUN = (256, 1279, 159)  # optional row behind the long-run flag


@pytest.fixture(scope="module")
def deg1_reports():
    return {(m, q): epsilon(m, q, 2) for m, q, _ in DEG1_ROWS}


@pytest.fixture(scope="module")
def deg2_reports():
    reports = {(m, q): epsilon_deg2(m, q, 2) for m, q, _ in DEG2_ROWS}
    m, q, _ = DEG2_LONG_RUN
    reports[(m, q)] = epsilon_deg2(m, q, 2, long_run=True)
    return reports


# ------------------------------------------------------ independent oracles

def block_collapse_probability(p: int, width: float) -> float:
    """Exact P(e2 = 0) for e2 ~ D_{L, width}, weight exp(-||x||^2 / width^2),
    where L is the embedded Z[zeta_p] (Gram p*I - J, i.e. sqrt(p) A*_{p-1}).

    P = 1 / Theta_L(width).  L is sqrt(p) times the projection of Z^p onto
    the sum-zero hyperplane, with squared norm p*||x||^2 - (sum x)^2.
    Integrating the Gaussian out along the all-ones direction gives

        Theta_L(w) = p / (sqrt(pi) w) * int_0^1 theta(t)^p dt,
        theta(t)   = sum_{k in Z} exp(-p (k - t)^2 / w^2).

    The integrand is smooth and 1-periodic, so the rectangle rule on 2^14
    points converges geometrically; it is summed in log space because
    Theta reaches 1e24 at the attack rows' printed widths.
    """
    a = p / (width * width)
    t = np.arange(1 << 14) / (1 << 14)
    cut = int(math.ceil(12.0 * width / math.sqrt(p))) + 2
    k = np.arange(-cut, cut + 1)
    log_theta_p = p * np.log(np.exp(-a * (k[None, :] - t[:, None]) ** 2).sum(axis=1))
    top = log_theta_p.max()
    log_integral = top + math.log(np.exp(log_theta_p - top).mean())
    return math.exp(-(math.log(p / (math.sqrt(math.pi) * width)) + log_integral))


def _log2_sum_exp2(logs: np.ndarray) -> float:
    top = float(logs.max())
    return top + math.log2(np.exp2(logs - top).sum())


def full_grid_log2_eps_deg1(m: int, q: int, k: int) -> float:
    """log2 of (1/2) sum_{y=1}^{q-1} prod_{i<n} cos(pi alpha^i y / q)^k, one
    term per y, for the smallest alpha with alpha^(m/2) = -1 mod q."""
    n = m // 2
    alpha = next(a for a in range(2, q) if pow(a, n, q) == q - 1)
    apow = np.array([pow(alpha, i, q) for i in range(n)], dtype=np.int64)
    y = np.arange(1, q, dtype=np.int64)
    terms = k * np.log2(np.abs(np.cos(np.pi * (apow[:, None] * y % q) / q))).sum(axis=0)
    return _log2_sum_exp2(terms) - 1.0


def full_grid_log2_eps_deg2(m: int, q: int, k: int) -> float:
    """log2 of (1/2) sum_{y != 0 in F_{q^2}} prod_{i=1}^{n} cos(pi Tr(alpha^i y) / q)^k,
    one term per y.

    The field is F_q[s]/(s^2 - c) for the largest non-residue c (the
    estimator uses the smallest), Tr(u + v s) = 2u, and alpha is the first
    element in scan order with alpha^(m/2) = -1.
    """
    n = m // 2
    c = next(x for x in range(q - 1, 1, -1) if pow(x, (q - 1) // 2, q) == q - 1)
    alpha = next((u, v) for u in range(q) for v in range(q)
                 if ref.fq2_pow((u, v), n, q, c) == (q - 1, 0))
    apow = [alpha]
    for _ in range(n - 1):
        apow.append(ref.fq2_mul(apow[-1], alpha, q, c))
    a = np.array([x[0] for x in apow], dtype=np.int64)
    bc = np.array([x[1] * c % q for x in apow], dtype=np.int64)
    t = np.arange(q)
    # first coordinate of alpha^i * (u + v s) is a_i u + b_i c v; the table
    # maps that value (unreduced, in [0, 2q)) to k * log2|cos(pi Tr / q)|
    log_cos = np.tile(k * np.log2(np.abs(np.cos(np.pi * (2 * t % q) / q))), 2)
    from_v = bc[:, None] * t[None, :] % q
    terms = []
    for u in range(q):
        row = log_cos[a[:, None] * u % q + from_v].sum(axis=0)
        terms.append(row if u else row[1:])  # skip y = 0
    return _log2_sum_exp2(np.concatenate(terms)) - 1.0


def test_block_collapse_probability_oracle():
    """The theta integral against brute-force enumeration at p = 3 (Gram
    [[2, -1], [-1, 2]]) and p = 5, and against the first-shell count at the
    attack row (43, 4871, r = 200): 2p vectors of norm^2 p - 1 give
    1 / (1 + 86 exp(-42 / w^2)) = 0.99690."""
    for p, box, widths in [(3, 40, (0.5, 1.0, 2.0, 5.0)), (5, 8, (2.0,))]:
        gram = p * np.eye(p - 1) - 1.0
        axes = np.meshgrid(*[np.arange(-box, box + 1)] * (p - 1), indexing="ij")
        z = np.stack([ax.ravel() for ax in axes], axis=1)
        norms = np.einsum("ij,jk,ik->i", z, gram, z)
        for w in widths:
            brute = 1.0 / np.exp(-norms / (w * w)).sum()
            got = block_collapse_probability(p, w)
            assert abs(got - brute) < 1e-12 * brute, (p, w, got, brute)
    assert abs(block_collapse_probability(43, 200.0 / math.sqrt(2 * 4871)) - 0.99690) < 1e-5


def test_sampler_collapse_rate_is_exact():
    """The family sampler's rate of e2 = 0 against the theta series, on
    100k draws per row, with an exact two-sided binomial test at 1e-4.  The
    e2-block widths r / sqrt(2d) are 2.026 and 3.97 at p = 43 and 1.013 at
    p = 7, where P(e2 = 0) is 0.9969, 0.0029 and 0.958."""
    for p, d, q, r, seed in [(43, 4871, 173, 200.0, 1),
                             (43, 4871, 173, 3.97 * math.sqrt(2 * 4871), 2),
                             (7, 4871, 1051, 100.0, 3)]:
        ring, rng = FamilyRing(p, d, q), RngHandle(seed)
        collapsed = 0
        for _ in range(5):
            coeffs, _ = sample_lattice_gauss_batch(ring, GaussianSpec(r), rng, 20_000)
            collapsed += int((~coeffs[:, p - 1:].any(axis=1)).sum())
        exact = block_collapse_probability(p, r / math.sqrt(2 * d))
        pvalue = scipy.stats.binomtest(collapsed, 100_000, exact).pvalue
        assert pvalue > 1e-4, (p, r, collapsed, exact, pvalue)


def test_criterion_1_coset_recovery_at_printed_widths():
    """Gate: the coset attack draws signal only from records whose
    sqrt(d)-block e2 is zero (see the attack module docstring).  On both
    attack-scale rows, at the printed counts, seeds 0-9, each run under 10
    minutes:

    * at the printed width, the exact P(e2 = 0) is below 1e-12, and no run
      returns a wrong GUESS;
    * at r = 200, where P(e2 = 0) exceeds 0.99, GUESS == rho(s) in >= 9/10
      runs.
    """
    results = []
    for p, d, q, printed_r, n in ATTACK_ROWS:
        ring = FamilyRing(p, d, q)
        for r in (printed_r, RECOVERY_WIDTH):
            collapse = block_collapse_probability(p, r / math.sqrt(2 * d))
            hits = wrong = 0
            verdicts = Counter()
            for seed in range(10):
                t0 = time.perf_counter()
                inst = RlweInstance.generate(ring, GaussianSpec(r), seed=seed)
                truth = tuple(int(c[0]) for c in reduce_mod_prime_batch(
                    inst.secret[None, :], ring))
                samples = draw_rlwe(inst, n)
                out = coset_attack(samples, AttackConfig())
                elapsed = time.perf_counter() - t0
                assert elapsed < 600.0, "run exceeded the 10-minute budget"
                if out.verdict == VERDICT_GUESS:
                    if out.candidate == truth:
                        hits += 1
                    else:
                        wrong += 1
                verdicts[out.verdict] += 1
            results.append((p, r, collapse, hits, wrong, verdicts))
    summary = "; ".join("p=%d r=%g: P(e2=0)=%.3g, %d/10 recovered, %d wrong, %s"
                        % (p, r, c, h, w, dict(v)) for p, r, c, h, w, v in results)
    for p, r, collapse, hits, wrong, _ in results:
        assert wrong == 0, "wrong GUESS: %s" % summary
        if r == RECOVERY_WIDTH:
            assert collapse > 0.99 and hits >= 9, (
                "coset recovery where the error collapses: %s" % summary)
        else:
            assert collapse < 1e-12, (
                "the printed widths leave no collapsed records among the "
                "printed counts, so no run can recover rho(s) there: %s" % summary)


def test_criterion_2_decoy_soundness():
    """Gate: both attacks say NOT-RLWE on uniform decoys in >= 9/10 runs."""
    for p, d, q, _, n in ATTACK_ROWS:
        ring = FamilyRing(p, d, q)
        good = 0
        for seed in range(100, 110):
            inst = RlweInstance.generate(ring, GaussianSpec(100.0), seed=seed)
            decoy = draw_uniform(inst, n)
            cos = coset_attack(decoy, AttackConfig())
            two = two_bin_attack(decoy, AttackConfig())
            if cos.verdict == VERDICT_NOT_RLWE and two.verdict == VERDICT_NOT_RLWE:
                good += 1
        assert good >= 9, "p=%d decoys: %d/10" % (p, good)


def test_criterion_3_degree1_estimator_table(deg1_reports):
    """Gate: on the four degree-1 rows, -floor(log2 eps) equals the full-grid
    evaluation of the defining sum (+-1), total runtime under 15 minutes."""
    total_s = sum(r.runtime_ms for r in deg1_reports.values()) / 1e3
    assert total_s < 900.0
    got = {(m, q): deg1_reports[(m, q)].neg_floor_log2_eps for m, q, _ in DEG1_ROWS}
    grid = {(m, q): full_grid_log2_eps_deg1(m, q, 2) for m, q, _ in DEG1_ROWS}
    rows = ["(%d,%d): estimator %d, full grid %d (log2 %.6f), reported target %d"
            % (m, q, got[(m, q)], math.floor(-grid[(m, q)]), grid[(m, q)], want)
            for m, q, want in DEG1_ROWS]
    bad = [(m, q) for m, q, _ in DEG1_ROWS
           if abs(got[(m, q)] - math.floor(-grid[(m, q)])) > 1]
    assert not bad, "degree-1 advantage floors: %s" % "; ".join(rows)


def test_criterion_4_degree2_estimator_table(deg2_reports):
    """Gate: degree-2 floors at (64,383) and (128,1151), and at (256,1279)
    behind the long-run flag, equal the full-grid evaluation of the defining
    sum (+-1); (512,5583) recorded inadmissible as printed."""
    # the (512, 5583) row cannot run as printed: q is composite
    assert not is_prime(5583)
    assert not deg2_admissible(512, 5583)
    assert nearest_admissible_q_deg2(512, 5583) == 5119
    all_rows = DEG2_ROWS + [DEG2_LONG_RUN]
    got = {(m, q): deg2_reports[(m, q)].neg_floor_log2_eps for m, q, _ in all_rows}
    grid = {(m, q): full_grid_log2_eps_deg2(m, q, 2) for m, q, _ in all_rows}
    rows = ["(%d,%d): estimator %d, full grid %d (log2 %.6f), reported target %d"
            % (m, q, got[(m, q)], math.floor(-grid[(m, q)]), grid[(m, q)], want)
            for m, q, want in all_rows]
    bad = [(m, q) for m, q, _ in all_rows
           if abs(got[(m, q)] - math.floor(-grid[(m, q)])) > 1]
    assert not bad, "degree-2 advantage floors: %s" % "; ".join(rows)


def test_criterion_5_epsilon_below_theoretical_bound(deg1_reports, deg2_reports):
    """Gate: computed eps <= (q-1)/2 * beta^(km/4) wherever q < m^2."""
    reports = list(deg1_reports.values()) + list(deg2_reports.values())
    assert len(reports) == 7
    for rep in reports:
        assert rep.q < rep.m * rep.m  # bound applicable on every gate row
        assert rep.log2_bound is not None
        assert rep.log2_eps <= rep.log2_bound, (rep.m, rep.q)


def test_criterion_6_fourier_correctness():
    """Gate: the estimator's orbit kernel, through its own log2|cos| table,
    reduction and gather, gives the direct DFT of V_k to 1e-12 at every y,
    and the exact tiny-instance distance is 0.05 = eps * 0.4."""
    for q in (5, 13, 97):
        for k in (2, 4, 8):
            pmf = ref.binomial_vk_pmf(k)
            kernel = 2 ** _orbit_logs(np.array([[1]]), np.arange(q)[None, :], q, k)
            for y in range(q):
                dft = sum(p * np.exp(-2j * np.pi * (t - k // 2) * y / q)
                          for t, p in enumerate(pmf))
                assert abs(dft.imag) < 1e-12
                assert abs(dft.real - kernel[y]) < 1e-12
    delta = brute_force_distance(4, 5, 2)
    assert delta == 0.05
    eps_tiny = 2 ** epsilon(4, 5, 2).log2_eps
    assert abs(eps_tiny - 0.125) < 1e-12
    assert delta <= eps_tiny + 1e-12


def test_criterion_7_coset_attack_math_exhaustive():
    """Gate: exhaustively over F_{q^2} (q = 5 and the stated q = 13), the
    difference map a -> (conj(a) - a, conj(a d) - a d) restricted to
    a outside F_q is a bijection onto (V \\ 0) x V, and wrong-coset residuals
    are exactly balanced while the true coset is constant."""
    for q in (5, 13):
        # F_q[sqrt(c)] for the smallest nonresidue c, in the tuple model
        c = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
        # (i) bijection for every multiplier delta outside F_q
        outside = [(u, v) for u in range(q) for v in range(1, q)]
        for delta in outside:
            images = set()
            for a in outside:
                f1 = ref.fq2_sub(ref.fq2_conj(a, q), a, q)
                ad = ref.fq2_mul(a, delta, q, c)
                f2 = ref.fq2_sub(ref.fq2_conj(ad, q), ad, q)
                assert f1[0] == 0 and f2[0] == 0  # both land in V
                assert f1[1] != 0  # first coordinate misses 0
                images.add((f1[1], f2[1]))
            assert len(images) == q * (q - 1)  # injective onto (V \ 0) x V
        # (ii) residual balance for every secret (u, v) and every guess j
        for u in (1, q - 2):
            for v in (0, 2):
                for j in range(q):
                    hist = Counter()
                    for a1 in range(q):
                        for a2 in range(1, q):
                            b2 = (a1 * v + a2 * u) % q
                            m_j = (b2 - j * a1) * pow(a2, q - 2, q) % q
                            hist[m_j] += 1
                    if j == v:
                        assert hist == Counter({u: q * (q - 1)})
                    else:
                        assert len(hist) == q
                        assert all(c == q - 1 for c in hist.values())


def test_criterion_8_empirical_uniformity():
    """Gate: at (m=64, q=193, r0=sqrt(2 pi)) the reduced-error chi-square
    test at confidence 0.99 reports uniform in >= 9/10 seeded runs."""
    uniform_runs = 0
    for seed in range(10):
        res = empirical_uniformity(64, 193, math.sqrt(2 * math.pi), 20000, seed)
        uniform_runs += res.uniform
    assert uniform_runs >= 9, "%d/10 runs uniform" % uniform_runs


def test_criterion_9_guess_loop_counters():
    """Gate: on the same instance both attacks count q rows of guesses
    through one counter; `guesses_evaluated`, the guesses each one scores,
    is exactly q (coset) versus q^2 (two-bin)."""
    ring = FamilyRing(3, 2, 13)
    inst = RlweInstance.generate(ring, GaussianSpec(2.0), seed=1)
    samples = draw_rlwe(inst, 2000)
    assert coset_attack(samples).guesses_evaluated == 13
    assert two_bin_attack(samples).guesses_evaluated == 13 ** 2
