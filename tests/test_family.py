"""Parameter admissibility, search, and width suggestions for the field family."""

import math

import pytest

import reference as ref
from rlwe_workbench import family, ffield
from rlwe_workbench.ffield import is_prime
from rlwe_workbench.family import (UndecidedError, extend_d, is_squarefree,
                                   search_q, validate, violations)
from rlwe_workbench.rings import FamilyRing


def test_is_squarefree_small():
    expect = {1: True, 2: True, 3: True, 4: False, 9: False, 12: False,
              18: False, 30: True, 49: False, 4871: True, 4875: False,
              5583: True}
    for n, want in expect.items():
        assert is_squarefree(n) is want, n
    with pytest.raises(ValueError):
        is_squarefree(0)
    with pytest.raises(ValueError):
        is_squarefree(-6)


def test_is_squarefree_beyond_trial_limit():
    p6 = 1000003  # prime just above the 10^6 trial-division limit
    assert is_squarefree(p6 ** 2) is False
    assert is_squarefree(2 * p6 ** 2) is False
    assert is_squarefree(2 * p6) is True  # prime cofactor is certifiable
    with pytest.raises(UndecidedError, match="unfactored cofactor"):
        is_squarefree(1000003 * 1000033)  # semiprime, neither square nor prime


def test_violations_name_each_failure():
    assert violations(3, 2, 13) == []
    assert violations(43, 4871, 173) == []
    assert violations(4, 2, 13) == ["p=4 is not an odd prime",
                                    "gcd(d=2, p=4) != 1"]
    assert violations(3, 1, 13) == ["d=1 is not > 1"]
    assert violations(3, 5, 13) == ["d=5 is not 2 or 3 mod 4"]
    assert violations(3, 12, 13) == ["d=12 is not 2 or 3 mod 4",
                                     "d=12 is not squarefree",
                                     "gcd(d=12, p=3) != 1",
                                     "d=12 is a square mod q=13"]
    assert violations(3, 6, 13) == ["gcd(d=6, p=3) != 1"]
    assert violations(3, 2, 12) == ["q=12 is not prime"]
    assert violations(3, 2, 11) == ["q=11 is not 1 mod p=3"]
    assert violations(3, 10, 13) == ["d=10 is a square mod q=13"]
    # q = 2 is prime but never 1 mod an odd p; no residue test is made
    assert violations(3, 2, 2) == ["q=2 is not 1 mod p=3"]


def test_validate():
    params = validate(43, 4871, 173)
    assert params == FamilyRing(43, 4871, 173)
    with pytest.raises(ValueError, match="inadmissible parameters: .*squarefree"):
        validate(3, 12, 13)
    with pytest.raises(ValueError, match="not an odd prime"):
        validate(4, 2, 13)


def test_family_params_frozen_quantities():
    params = FamilyRing(43, 4871, 173)
    assert params.deg == 84
    assert abs(params.log2_disc - 1043.4538) < 1e-3
    # dual route: the ring's exact integer discriminant
    exact = math.log2(ref.family_abs_disc(43, 4871))
    assert abs(params.log2_disc - exact) < 1e-6


def test_suggested_r_round_trips_the_normalized_width():
    params = FamilyRing(43, 4871, 173)
    scale = math.exp(math.log(ref.family_abs_disc(43, 4871)) / (2 * params.deg))
    for r0 in (1.0, 2.5, 9.380794127152955):
        r = params.suggested_r(r0)
        assert abs(r / scale - r0) < 1e-9
    assert abs(params.suggested_r(1.0) - 74.0811) < 1e-3
    assert abs(params.suggested_r(9.380794127152955) - 694.94) < 1e-2


def test_search_q_frozen():
    got = [f.q for f in search_q(43, 4871, 100, 1000)]
    assert got == [173, 431]
    got = [f.q for f in search_q(3, 2, 2, 100)]
    assert got == [13, 19, 37, 43, 61, 67]
    assert got == sorted(got)
    for f in search_q(3, 2, 2, 100):
        assert violations(f.p, f.d, f.q) == []


def test_each_q_is_tested_prime_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)
    monkeypatch.setattr(family, "is_prime", counted)
    monkeypatch.setattr(ffield, "is_prime", counted)
    assert violations(43, 4871, 173) == []
    assert calls.count(173) == 1
    calls.clear()
    assert [r.q for r in search_q(43, 4871, 100, 1000)] == [173, 431]
    tested = [n for n in calls if n != 43]
    assert len(tested) == len(set(tested)) == len(range(130, 1001, 43))


def test_search_q_endpoints_inclusive():
    assert [f.q for f in search_q(43, 4871, 173, 173)] == [173]
    assert search_q(43, 4871, 174, 430) == []


def test_search_q_rejects_bad_base():
    with pytest.raises(ValueError, match="inadmissible \\(p, d\\)"):
        search_q(4, 2, 2, 100)
    with pytest.raises(ValueError, match="squarefree"):
        search_q(3, 12, 2, 100)


def test_extend_d_frozen():
    got = [f.d for f in extend_d(43, 173, 4871, 5)]
    assert got == [5563, 6947, 7639, 8331]  # k = 2 lands on 6255 = 3^2 * 5 * 139
    for f in extend_d(43, 173, 4871, 5):
        assert (f.d - 4871) % (4 * 173) == 0
        assert violations(f.p, f.d, f.q) == []
    assert not is_squarefree(6255)


def test_extend_d_validates_base():
    with pytest.raises(ValueError, match="inadmissible parameters"):
        extend_d(43, 173, 4872, 3)  # 4872 = 0 mod 4
