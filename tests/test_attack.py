"""Coset and two-bin chi-square distinguishers and their decision thresholds."""

import io
import json
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from reference import chi_square
from rlwe_workbench.attack import (AttackConfig, VERDICT_GUESS,
                                   VERDICT_INSUFFICIENT, VERDICT_NOT_RLWE,
                                   _BLOCK, _binom_upper_quantile, _guess_rows,
                                   _inverse_table, _two_bin_stat, _verdict,
                                   coset_attack, critical_value,
                                   default_beta_coset, default_beta_two_bin,
                                   two_bin_attack)
from rlwe_workbench.oracle import (RlweInstance, SampleSet, draw_rlwe,
                                   draw_uniform)
from rlwe_workbench.rings import CycloRing, FamilyRing, reduce_mod_prime_batch
from rlwe_workbench.sampling import GaussianSpec, RngHandle

RING = FamilyRing(3, 2, 13)


def _rho_secret(inst):
    """rho(s) as the (u, v) pair a GUESS reports."""
    u, v = reduce_mod_prime_batch(inst.secret[None, :], inst.ring)
    return int(u[0]), int(v[0])


# ----------------------------------------------------------- statistics

def test_chi_square_frozen_and_formula():
    got = chi_square([1522, 208], [10, 1720])
    assert abs(got - ((1522 - 10) ** 2 / 10 + (208 - 1720) ** 2 / 1720)) < 1e-9
    assert abs(got - 229943.5534883721) < 1e-6


def test_chi_square_scalar_broadcast():
    assert chi_square([3, 5, 4], 4.0) == chi_square([3, 5, 4], [4.0, 4.0, 4.0])


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square([5], [5])
    with pytest.raises(ValueError):
        chi_square([1, 2, 3], [1, 2])
    with pytest.raises(ValueError):
        chi_square([1, 2], [1, 0])
    with pytest.raises(ValueError):
        chi_square([1, 2], [-1, 3])


def test_chi_square_matches_scipy():
    obs = np.array([10.0, 22.0, 31.0, 17.0])
    exp = obs.sum() * np.array([0.2, 0.3, 0.3, 0.2])
    ref = scipy.stats.chisquare(obs, exp).statistic
    assert abs(chi_square(obs, exp) - ref) < 1e-9


def test_critical_value_dof1_exact():
    assert abs(critical_value(1, 0.99) - 6.634896601021213) < 1e-9
    assert abs(critical_value(1, 0.99) - scipy.stats.chi2.ppf(0.99, 1)) < 1e-6
    assert abs(critical_value(1, 0.95) - scipy.stats.chi2.ppf(0.95, 1)) < 1e-6


def test_critical_value_large_dof():
    got = critical_value(192, 0.99)
    assert 238.0 < got < 244.0
    assert abs(got - scipy.stats.chi2.ppf(0.99, 192)) < 1.5


def test_critical_value_approximation_quality():
    for dof in (2, 5, 10, 30, 100, 192, 1000):
        for conf in (0.9, 0.99, 0.999):
            ref = scipy.stats.chi2.ppf(conf, dof)
            rel = abs(critical_value(dof, conf) - ref) / ref
            assert rel < 0.03
            if dof >= 10:
                assert rel < 0.01


def test_critical_value_validation():
    with pytest.raises(ValueError):
        critical_value(0, 0.99)
    with pytest.raises(ValueError):
        critical_value(5, 0.0)
    with pytest.raises(ValueError):
        critical_value(5, 1.0)


def test_default_beta_coset_identity():
    assert default_beta_coset(13) == critical_value(12, 1.0 - 0.01 / 13)
    assert default_beta_coset(173) == critical_value(172, 1.0 - 0.01 / 173)


def test_two_bin_stat_is_two_cell_chi_square():
    for c, M, q in [(31, 1730, 173), (25, 130, 13), (7.5, 650, 13)]:
        direct = chi_square([c, M - c], [M / q, M * (q - 1) / q])
        assert abs(float(_two_bin_stat(c, M, q)) - direct) < 1e-9


def test_default_beta_two_bin_frozen_and_scipy():
    for q, M, frozen in [(173, 1730, 42.269331), (167, 1670, 42.278163),
                         (13, 130, 22.777083)]:
        beta = default_beta_two_bin(q, M)
        assert abs(beta - frozen) < 5e-2
        alpha = 0.005 / (q * q)
        c = 0
        while scipy.stats.binom.sf(c - 1, M, 1.0 / q) > alpha:
            c += 1
        assert abs(beta - float(_two_bin_stat(c - 0.5, M, q))) < 1e-9


def test_binom_upper_quantile_matches_scipy():
    cases = [(1730, 1 / 173, 0.005 / 173 ** 2), (1670, 1 / 167, 0.005 / 167 ** 2),
             (130, 1 / 13, 0.005 / 169), (1000, 0.5, 0.01)]
    for m, p, alpha in cases:
        c = 0
        while scipy.stats.binom.sf(c - 1, m, p) > alpha:
            c += 1
        assert _binom_upper_quantile(m, p, alpha) == c


def test_inverse_table():
    for q in (3, 13, 17, 173, 1051):
        inv = _inverse_table(q)
        assert inv[0] == 0
        assert all(w * inv[w] % q == 1 for w in range(1, q))


def test_verdict_rules():
    assert _verdict([]) == (VERDICT_NOT_RLWE, None)
    assert _verdict([(3, 5)]) == (VERDICT_GUESS, (3, 5))
    assert _verdict([(3, 5), (2, 2)]) == (VERDICT_INSUFFICIENT, None)


# ----------------------------------------------------------- attack runs

def _instance(seed, r=2.0):
    return RlweInstance.generate(RING, GaussianSpec(r), seed=seed)


def test_rejects_residue_degree_one_rings():
    cyc = CycloRing(8, 17)
    inst = RlweInstance.generate(cyc, GaussianSpec(8.0), seed=0)
    ss = draw_rlwe(inst, 100)
    with pytest.raises(ValueError, match="residue degree 2"):
        coset_attack(ss)
    with pytest.raises(ValueError, match="residue degree 2"):
        two_bin_attack(ss)
    # below two-bin's 5q sample floor the ring is still what is refused
    few = draw_rlwe(inst, 10)
    for attack in (coset_attack, two_bin_attack):
        with pytest.raises(ValueError, match="residue degree 2"):
            attack(few)


def test_small_ring_recovery():
    for seed in (1, 7):
        inst = _instance(seed)
        expect = _rho_secret(inst)
        ss = draw_rlwe(inst, 2000)
        for attack in (coset_attack, two_bin_attack):
            out = attack(ss)
            assert out.verdict == VERDICT_GUESS
            assert out.candidate == expect
    # seed 7 exercises the tau = 0 coset; check it really does
    assert _rho_secret(_instance(7))[1] == 0


def test_counters_q_and_q_squared():
    ss = draw_rlwe(_instance(1), 2000)
    assert coset_attack(ss).guesses_evaluated == 13
    assert two_bin_attack(ss).guesses_evaluated == 169
    assert len(coset_attack(ss).chi2_by_index) == 13
    assert len(two_bin_attack(ss).chi2_by_index) == 169


def test_table_scale_recovery():
    ring = FamilyRing(43, 4871, 173)
    inst = RlweInstance.generate(ring, GaussianSpec(200.0), seed=11)
    assert _rho_secret(inst) == (92, 6)
    ss = draw_rlwe(inst, 1730)
    for attack in (coset_attack, two_bin_attack):
        out = attack(ss)
        assert out.verdict == VERDICT_GUESS
        assert out.candidate == (92, 6)
        assert out.samples_used <= 1730


def test_uniform_decoy_rejected():
    ring = FamilyRing(43, 4871, 173)
    inst = RlweInstance.generate(ring, GaussianSpec(200.0), seed=50)
    dec = draw_uniform(inst, 1730)
    assert coset_attack(dec).verdict == VERDICT_NOT_RLWE
    assert two_bin_attack(dec).verdict == VERDICT_NOT_RLWE


def test_coset_insufficient_below_floor():
    ss = draw_rlwe(_instance(1), 30)  # default floor is 5q = 65
    out = coset_attack(ss)
    assert out.verdict == VERDICT_INSUFFICIENT
    assert out.candidate is None
    assert out.guesses_evaluated == 0
    assert np.array_equal(out.chi2_by_index, np.zeros(13))
    assert out.samples_used <= 30


def test_two_bin_raises_below_floor():
    ss = draw_rlwe(_instance(1), 30)
    with pytest.raises(ValueError, match="needs at least 65 samples, got 30"):
        two_bin_attack(ss)


def test_min_samples_override():
    ss = draw_rlwe(_instance(1), 25)
    out = coset_attack(ss, AttackConfig(min_samples=15))
    assert out.verdict == VERDICT_GUESS
    assert out.candidate == (4, 7)
    assert out.samples_used == 24  # one record lost to a2 = 0
    out2 = two_bin_attack(ss, AttackConfig(min_samples=15))
    assert out2.verdict == VERDICT_GUESS and out2.candidate == (4, 7)


def test_beta_chi_override():
    ss = draw_rlwe(_instance(1), 2000)
    hi = coset_attack(ss, AttackConfig(beta_chi=1e9))
    assert hi.verdict == VERDICT_NOT_RLWE
    lo = coset_attack(ss, AttackConfig(beta_chi=1e-9))
    assert lo.verdict == VERDICT_INSUFFICIENT
    assert len(lo.candidates) >= 13


def test_modal_tie_reports_every_candidate():
    """All-zero b with a confined to the sqrt(d) block makes every coset guess
    equally perfect, so the outcome must list all q ties, not pick one."""
    rng = RngHandle(77)
    n = 130
    a = np.zeros((n, 4), dtype=np.int64)
    a[:, 2:] = rng.gen.integers(0, 13, size=(n, 2), dtype=np.int64)
    b = np.zeros((n, 4), dtype=np.int64)
    hdr = dict(draw_rlwe(_instance(1), 1).header)
    hdr["count"] = n
    out = coset_attack(SampleSet(RING, hdr, a, b))
    assert out.verdict == VERDICT_INSUFFICIENT
    assert sorted(out.candidates) == [(0, t) for t in range(13)]


def test_scores_match_direct_guess_counts():
    """Both attacks' scores against counts made here, guess by guess.

    Each record is built with zero zeta-coefficients, so rho(a) = (a[0], a[2])
    and b2 = b[2] with no reduction map involved.  The set holds records with
    a1 = 0, with a2 = 0 and with both zero, and half of the rest lie on the
    planted guess (5, 9)."""
    q, n = 13, 160
    gen = RngHandle(5).gen
    a1, a2, b2 = (gen.integers(0, q, size=n) for _ in range(3))
    a1[:10] = 0
    a2[10:20] = 0
    a1[20:30] = a2[20:30] = 0
    b2[25:28] = 0  # with a = 0 these support every guess
    b2[30::2] = (5 * a2[30::2] + 9 * a1[30::2]) % q
    a = np.zeros((n, 4), dtype=np.int64)
    b = np.zeros((n, 4), dtype=np.int64)
    a[:, 0], a[:, 2], b[:, 2] = a1, a2, b2
    b[:, 0] = gen.integers(0, q, size=n)
    hdr = dict(draw_rlwe(_instance(1), 1).header)
    hdr["count"] = n
    ss = SampleSet(RING, hdr, a, b)

    records = list(zip(a1.tolist(), a2.tolist(), b2.tolist()))
    on_guess = {(u, v): sum((y - u * x2 - v * x1) % q == 0 for x1, x2, y in records)
                for u in range(q) for v in range(q)}
    two = two_bin_attack(ss)
    for (u, v), c in on_guess.items():
        want = chi_square([c, n - c], [n / q, n * (q - 1) / q])
        assert abs(two.chi2_by_index[u * q + v] - want) < 1e-9

    kept = [r for r in records if r[1] != 0]
    cos = coset_attack(ss)
    assert cos.samples_used == len(kept) < n - 20
    for t in range(q):
        row = [sum((y - u * x2 - t * x1) % q == 0 for x1, x2, y in kept)
               for u in range(q)]
        assert abs(cos.chi2_by_index[t] - chi_square(row, len(kept) / q)) < 1e-9
    assert two.candidate == cos.candidate == (5, 9)


def _check_guess_rows(a1, a2, b2, q):
    """Every row _guess_rows yields against its own reduction mod q plus its
    fixed support, counted here record by record.  Returns each block's
    (t0, row count), and x, g and the fixed support."""
    keep = a2 != 0
    ainv = np.array([pow(int(w), -1, q) for w in a2[keep]], dtype=np.int64)
    x, g = b2[keep] * ainv % q, a1[keep] * ainv % q
    fixed = np.zeros(q, dtype=np.int64)
    for u, w in zip(a1[~keep].tolist(), b2[~keep].tolist()):
        if u:
            fixed[w * pow(u, -1, q) % q] += 1
        elif w == 0:
            fixed += 1
    blocks = []
    for t0, rows in _guess_rows(a1, a2, b2, q):
        assert rows.dtype == np.int32 and rows.shape[1] == q and rows.size <= _BLOCK
        for t, row in enumerate(rows, t0):
            want = np.bincount((x - t * g) % q, minlength=q) + fixed[t]
            assert np.array_equal(row, want), t
        blocks.append((t0, len(rows)))
    return blocks, x, g, fixed


def test_guess_counts_rows_at_large_q():
    """Every stepped row against its own reduction mod q, in both roles.

    Among the records: g = a1/a2 = 0, x = b2/a2 = 0 and g = q - 1, where
    each step wraps; a2 = 0 with a1 != 0, which support one row; and
    a1 = a2 = 0, which support every row when b2 = 0 and none else.  At
    q = 1051 a block holds 15 rows, so the last of 71 blocks holds one; at
    q = 13 one block holds every row.  The call with a1 and a2 swapped is
    the one two_bin_attack makes."""
    for q, n, last in [(1051, 3000, (1050, 1)), (13, 600, (0, 13))]:
        gen = RngHandle(9).gen
        a1, b2 = gen.integers(0, q, size=n), gen.integers(1, q, size=n)
        a2 = gen.integers(1, q, size=n)
        a1[:100] = 0  # g = 0
        b2[100:200] = 0  # x = 0
        a1[200:300] = q - a2[200:300]  # g = q - 1
        b2[250:300] = 0  # and x = 0
        a2[300:400] = 0
        a1[300:350] = gen.integers(1, q, size=50)
        a1[350:400] = 0
        b2[350:370] = 0
        rows = max(1, _BLOCK // q)
        blocks, x, g, fixed = _check_guess_rows(a1, a2, b2, q)
        assert [t0 for t0, _ in blocks] == list(range(0, q, rows))
        assert blocks[-1] == last and all(k == rows for _, k in blocks[:-1])
        assert g.min() == 0 and g.max() == q - 1 and x.min() == 0
        want = np.full(q, 20)  # a1 = a2 = b2 = 0
        for u, w in zip(a1[300:350].tolist(), b2[300:350].tolist()):
            want[w * pow(u, -1, q) % q] += 1
        assert np.array_equal(fixed, want)
        # two-bin's roles: the records with a1 = 0 != a2 now support one
        # row each, besides the 20 that support every row
        swapped, _, _, fixed = _check_guess_rows(a2, a1, b2, q)
        assert swapped == blocks
        assert fixed.sum() == np.count_nonzero((a1 == 0) & (a2 != 0)) + 20 * q


def test_a2_zero_records_dropped():
    ss = draw_rlwe(_instance(1), 2000)
    _, a2 = reduce_mod_prime_batch(ss.a, RING)
    expect_usable = 2000 - int((a2 % 13 == 0).sum())
    assert coset_attack(ss).samples_used == expect_usable
    assert two_bin_attack(ss).samples_used == 2000  # two-bin keeps all


def _report_text(out) -> str:
    fh = io.StringIO()
    out.report(fh)
    return fh.getvalue()


def test_report_shape():
    ss = draw_rlwe(_instance(1), 2000)
    rep = json.loads(_report_text(coset_attack(ss)))
    assert list(rep.keys()) == ["verdict", "candidate", "chi2_by_index",
                                "samples_used", "elapsed_ms", "guesses_evaluated"]
    assert rep["verdict"] == VERDICT_GUESS
    assert rep["candidate"] == [4, 7]
    assert all(isinstance(v, float) for v in rep["chi2_by_index"])
    assert all(v == round(v, 6) for v in rep["chi2_by_index"])
    norep = json.loads(_report_text(coset_attack(draw_rlwe(_instance(1), 30))))
    assert norep["candidate"] is None


def _reference_report(out) -> str:
    """The report line as json.dumps encodes the six-key dict, and its newline."""
    return json.dumps({
        "verdict": out.verdict,
        "candidate": None if out.candidate is None else list(out.candidate),
        "chi2_by_index": [round(v, 6) for v in out.chi2_by_index.tolist()],
        "samples_used": out.samples_used,
        "elapsed_ms": round(out.elapsed_ms, 3),
        "guesses_evaluated": out.guesses_evaluated,
    }) + "\n"


@pytest.mark.parametrize("attack", [coset_attack, two_bin_attack])
def test_report_bytes_match_json_dumps(attack):
    rlwe = draw_rlwe(_instance(1), 2000)
    decoy = draw_uniform(_instance(1), 2000)
    runs = [(rlwe, None, VERDICT_GUESS), (decoy, None, VERDICT_NOT_RLWE),
            (rlwe, AttackConfig(beta_chi=1e-9), VERDICT_INSUFFICIENT)]
    if attack is coset_attack:  # below the floor: all-zero scores
        runs.append((draw_rlwe(_instance(1), 30), None, VERDICT_INSUFFICIENT))
    # 173^2 = 29929 two-bin guesses: the array is written in two pieces
    wide = RlweInstance.generate(FamilyRing(43, 4871, 173), GaussianSpec(200.0), 1)
    runs.append((draw_uniform(wide, 1730), None, VERDICT_NOT_RLWE))
    for samples, config, verdict in runs:
        out = attack(samples, config)
        assert out.verdict == verdict
        assert _report_text(out) == _reference_report(out)


class _Sink:
    def write(self, text):
        pass


@pytest.mark.parametrize("attack, bytes_per_cell", [(coset_attack, 1.5), (two_bin_attack, 7)])
def test_attack_and_report_memory_at_q1051(attack, bytes_per_cell):
    # the benchmark's largest attack row: coset holds nothing q^2-sized and
    # two-bin one int32 q x q count matrix, its index, and no q^2-sized
    # temporary but the 1-byte flag mask; the bounds sit between the peaks
    # of this code (1.1 and 5.5 bytes) and of a separate count matrix and
    # transposed index (4.7 and 8.3)
    q = 1051
    inst = RlweInstance.generate(FamilyRing(7, 4871, q), GaussianSpec(100.0), 1003)
    samples = draw_rlwe(inst, 10 * q)
    tracemalloc.start()
    try:
        attack(samples).report(_Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_cell * q * q, peak / (q * q)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(beta_chi=0.0)
    with pytest.raises(ValueError):
        AttackConfig(beta_chi=-4.0)
    cfg = AttackConfig()
    assert cfg.beta_chi is None and cfg.min_samples is None
