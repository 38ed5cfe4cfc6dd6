"""End-to-end command-line behavior: formats, plumbing, and exit codes."""

import argparse
import hashlib
import json
import re
import time

import numpy as np
import pytest

from rlwe_workbench import cli, family
from rlwe_workbench.cli import main
from rlwe_workbench.oracle import load
from rlwe_workbench.rings import FamilyRing, reduce_mod_prime_batch


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- find-params

def test_find_params_search_csv(capsys):
    code, out, err = run(capsys, "find-params", "--p", "43", "--d", "4871",
                         "--q-min", "100", "--q-max", "1000")
    assert code == 0
    assert out.splitlines() == [
        "p,d,q,deg,log2_disc,suggested_r_for_r0",
        "43,4871,173,84,1043.4538,74.0811",
        "43,4871,431,84,1043.4538,74.0811",
    ]
    assert err.strip() == "2 admissible parameter set(s)"


def test_find_params_r0_scaling(capsys):
    code, out, _ = run(capsys, "find-params", "--p", "43", "--d", "4871",
                       "--q-min", "100", "--q-max", "200",
                       "--r0", "9.380794127152955")
    assert code == 0
    assert out.splitlines()[1] == "43,4871,173,84,1043.4538,694.9400"


def test_find_params_extend_mode(capsys):
    code, out, err = run(capsys, "find-params", "--p", "43", "--d", "4871",
                         "--q", "173", "--k-max", "5")
    assert code == 0
    assert out.splitlines()[1:] == [
        "43,5563,173,84,1051.5029,76.5827",
        "43,6947,173,84,1064.9650,80.9566",
        "43,7639,173,84,1070.7188,82.9015",
        "43,8331,173,84,1075.9732,84.7183",
    ]
    assert err.strip() == "4 admissible parameter set(s)"


def test_find_params_mode_errors(capsys):
    code, _, err = run(capsys, "find-params", "--p", "43", "--d", "4871")
    assert code == 2 and "either --q-min/--q-max" in err
    code, _, err = run(capsys, "find-params", "--p", "43", "--d", "4871",
                       "--q-min", "100", "--q-max", "200", "--q", "173")
    assert code == 2 and "either --q-min/--q-max" in err
    code, _, err = run(capsys, "find-params", "--p", "43", "--d", "4871",
                       "--q-min", "100")
    assert code == 2 and "both --q-min and --q-max" in err


def test_find_params_inadmissible(capsys):
    code, _, err = run(capsys, "find-params", "--p", "4", "--d", "2",
                       "--q-min", "2", "--q-max", "50")
    assert code == 2
    assert "p=4 is not an odd prime" in err
    # q = 2 is prime: it is refused by the condition it fails, not by
    # Euler's criterion, which takes no q = 2
    assert run(capsys, "find-params", "--p", "3", "--d", "2", "--q", "2", "--k-max", "1") == (
        2, "", "error: inadmissible parameters: q=2 is not 1 mod p=3\n")


@pytest.mark.parametrize("r0", ["-1", "0", "nan", "inf"])
def test_find_params_rejects_bad_r0(capsys, monkeypatch, tmp_path, r0):
    # refused before anything is written, whether or not a q is admissible
    for q_min, q_max in (("100", "1000"), ("174", "430")):
        path = tmp_path / "rows.csv"
        for out_args in ((), ("--out", str(path))):
            code, out, err = run(capsys, "find-params", "--p", "43", "--d", "4871",
                                 "--q-min", q_min, "--q-max", q_max, "--r0", r0, *out_args)
            assert code == 2 and out == ""
            assert "--r0 must be finite and positive" in err
            assert not path.exists()
    # estimate --empirical names the flag and the value given, not the
    # per-coefficient width r0 * sqrt(n), and refuses before any sum
    monkeypatch.setattr(cli, "epsilon", lambda *a, **k: pytest.fail("summed"))
    path = tmp_path / "est.csv"
    for out_args in ((), ("--out", str(path))):
        code, out, err = run(capsys, "estimate", "--m", "64", "--q", "193", "--empirical",
                             "--r0", r0, *out_args)
        assert (code, out) == (2, "")
        assert err == "error: --r0 must be finite and positive, got %r\n" % float(r0)
        assert not path.exists()
    # gen-samples names --r the same way, on either ring and for a decoy
    path = tmp_path / "s.jsonl"
    for ring in (("--m", "8", "--q", "17"), ("--p", "3", "--d", "2", "--q", "13")):
        for extra in ((), ("--uniform",)):
            code, out, err = run(capsys, "gen-samples", *ring, "--r", r0, *extra,
                                 "--out", str(path))
            assert (code, out) == (2, ""), (ring, extra)
            assert err == "error: --r must be finite and positive, got %r\n" % float(r0)
            assert not path.exists()


def test_find_params_refuses_a_modulus_that_overflows_int64(capsys):
    # q = 1518500293 is admissible for (3, 2), but 4 * (q - 1)^2 >= 2^63
    code, out, err = run(capsys, "find-params", "--p", "3", "--d", "2",
                         "--q-min", "1518500200", "--q-max", "1518500300")
    assert code == 2 and out == ""
    assert "2^63" in err


# ------------------------------------------------------------- gen-samples

GEN = ("gen-samples", "--p", "3", "--d", "2", "--q", "13", "--r", "2.0",
       "--workers", "1")


def test_gen_samples_stdout_and_file_agree(capsys, tmp_path):
    path = tmp_path / "s.jsonl"
    code, out, err = run(capsys, *GEN, "--out", str(path))
    assert code == 0
    assert out == ""
    assert err.splitlines() == ["wrote 130 gaussian record(s) (seed 0)"]
    code, out2, _ = run(capsys, *GEN)
    assert code == 0
    assert out2 == path.read_text()
    # deterministic: regenerate and compare bytes
    code, out3, _ = run(capsys, *GEN)
    assert out3 == out2
    header = json.loads(out2.splitlines()[0])
    assert list(header.keys()) == ["schema_version", "ring_kind", "p", "d", "m",
                                   "q", "error_kind", "width_or_k", "seed",
                                   "count", "secret_hash"]
    assert len(out2.splitlines()) == 131  # header + default count 10q


def test_family_ring_validated_once_per_command(capsys, monkeypatch, tmp_path):
    calls = []
    validate = family.validate

    def counted(p, d, q):
        calls.append((p, d, q))
        return validate(p, d, q)

    monkeypatch.setattr(family, "validate", counted)
    path = tmp_path / "s.jsonl"
    for extra in ((), ("--uniform",)):
        assert run(capsys, *GEN, *extra, "--out", str(path))[0] == 0
        assert calls == [(3, 2, 13)], extra
        del calls[:]
    load(path)
    assert calls == [(3, 2, 13)]
    del calls[:]
    assert run(capsys, "attack", "--attack", "coset", "--samples", str(path))[0] == 0
    assert calls == [(3, 2, 13)]


def test_gen_samples_validation(capsys, tmp_path):
    path = tmp_path / "refused.jsonl"
    cases = [
        (("gen-samples", "--q", "13", "--r", "2.0"), "exactly one of --p"),
        (("gen-samples", "--p", "3", "--m", "8", "--q", "13", "--r", "2."),
         "exactly one of --p"),
        (("gen-samples", "--p", "3", "--q", "13", "--r", "2.0"), "needs --d"),
        (("gen-samples", "--p", "3", "--d", "2", "--q", "13"), "needs --r"),
        (("gen-samples", "--p", "3", "--d", "2", "--q", "13", "--r", "2.0",
          "--k", "4"), "--k applies only to cyclotomic"),
        (("gen-samples", "--m", "8", "--q", "17"), "exactly one of --r or --k"),
        (("gen-samples", "--m", "8", "--q", "17", "--r", "4.0", "--k", "4"),
         "exactly one of --r or --k"),
        (("gen-samples", "--m", "8", "--q", "17", "--d", "3", "--k", "2"),
         "mixed ring parameters: a cyclotomic ring (m=8) takes no p or d, got p=None, d=3"),
        (("gen-samples", "--p", "3", "--d", "10", "--q", "13", "--r", "2.0"),
         "square mod q"),
        (("gen-samples", "--p", "3", "--d", "2", "--q", "2", "--r", "1"),
         "error: inadmissible parameters: q=2 is not 1 mod p=3\n"),
        # --count is refused by name, as under estimate --empirical
        (GEN + ("--count", "0"), "error: --count must be >= 1, got 0\n"),
        (GEN + ("--count", "-5", "--uniform"), "error: --count must be >= 1, got -5\n"),
        # q = 1 mod m, but not prime
        (("gen-samples", "--m", "8", "--q", "9", "--k", "2"), "q=9 is not prime"),
        (("gen-samples", "--m", "4", "--q", "1", "--k", "2"), "q=1 is not prime"),
        (("gen-samples", "--m", "8", "--q", "17", "--r", "inf"), "finite and positive"),
        (("gen-samples", "--m", "8", "--q", "17", "--r", "nan"), "finite and positive"),
        (("gen-samples", "--p", "3", "--d", "2", "--q", "13", "--r", "inf"),
         "finite and positive"),
        (("gen-samples", "--p", "3", "--d", "2", "--q", "13", "--r", "-1"),
         "finite and positive"),
        # finite widths whose tail cut would size a table past MAX_TAIL_CUT;
        # the refusal names the flag and the value given, not the
        # per-coordinate width the sampler derives from it
        (("gen-samples", "--m", "8", "--q", "17", "--r", "1e12", "--count", "5"),
         "--r 1e+12 is too wide to sample"),
        (("gen-samples", "--p", "3", "--d", "2", "--q", "13", "--r", "1e300",
          "--count", "5"), "--r 1e+300 is too wide to sample"),
    ]
    for argv, needle in cases:
        code, _, err = run(capsys, *argv, "--out", str(path))
        assert code == 2, argv
        assert needle in err, (argv, err)
        assert len(err.splitlines()) == 1, (argv, err)
        assert "5e+11" not in err and "4.08248e+299" not in err, (argv, err)
        assert not path.exists(), argv


@pytest.mark.parametrize("argv, needle", [
    (("gen-samples", "--p", "43", "--d", "4871", "--q", "173", "--r", "1e-300",
      "--count", "5", "--seed", "1"), "--r 1e-300 is too narrow to sample"),
    (("gen-samples", "--m", "8", "--q", "17", "--r", "1e-300", "--count", "3",
      "--seed", "1"), "--r 1e-300 is too narrow to sample"),
    # the e2 block's width r / sqrt(2 d p) underflows to 0 on the way
    (("gen-samples", "--p", "43", "--d", "4871", "--q", "173", "--r", "5e-324",
      "--count", "5", "--seed", "1"), "--r 4.94066e-324 is too narrow to sample"),
    (("estimate", "--m", "64", "--q", "193", "--empirical", "--r0", "1e-300"),
     "--r0 1e-300 is too narrow to sample"),
], ids=["family", "cyclo", "family-underflow", "empirical"])
def test_narrow_widths_refused_by_flag(capsys, tmp_path, argv, needle):
    # below MIN_WIDTH the sampler's tables would divide by r * r, which
    # underflows to 0 (the family rejection loop then never ends), so each
    # command refuses at once, by the flag and the value given
    path = tmp_path / "out"
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == "error: %s: a coordinate's width would fall below 1e-100\n" % needle
    assert not path.exists()


def test_gen_samples_refuses_a_modulus_that_overflows_int64(capsys, tmp_path):
    # 2 * (q - 1)^2 = 2^65: the int64 ring products would wrap
    path = tmp_path / "big.jsonl"
    code, out, err = run(capsys, "gen-samples", "--m", "4", "--q", "4294967297",
                         "--k", "2", "--out", str(path))
    assert code == 2 and out == ""
    assert "2^63" in err
    assert not path.exists()


def test_gen_samples_uniform_note(capsys, tmp_path):
    path = tmp_path / "u.jsonl"
    code, _, err = run(capsys, *GEN, "--uniform", "--count", "200",
                       "--out", str(path))
    assert code == 0
    assert err.strip() == "wrote 200 uniform record(s) (seed 0)"
    assert json.loads(path.read_text().splitlines()[0])["error_kind"] == "uniform"


class _NoMemory:
    """Stands in for a module's numpy: every attribute but `empty` is
    numpy's, and `empty` fails the way a too-large allocation does."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")


def test_out_of_memory_is_a_runtime_failure(capsys, monkeypatch, tmp_path):
    from rlwe_workbench import estimator, oracle
    monkeypatch.setattr(oracle, "np", _NoMemory())
    path = tmp_path / "big.jsonl"
    code, out, err = run(capsys, *GEN, "--count", "100000000000", "--out", str(path))
    assert (code, out) == (1, "")
    assert err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"
    assert not path.exists()

    def no_memory(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr(estimator, "sample_lattice_gauss_batch", no_memory)
    code, out, err = run(capsys, "estimate", "--m", "64", "--q", "193",
                         "--empirical", "--count", "100000000000")
    assert (code, out, err) == (1, "", "error: out of memory\n")


# ------------------------------------------------------------------ attack

@pytest.fixture()
def sample_file(capsys, tmp_path):
    path = tmp_path / "s.jsonl"
    assert run(capsys, *GEN, "--out", str(path))[0] == 0
    return path


def test_attack_round_trip(capsys, sample_file):
    for kind in ("coset", "two-bin"):
        code, out, err = run(capsys, "attack", "--attack", kind,
                             "--samples", str(sample_file), "--workers", "1")
        assert code == 0
        rep = json.loads(out)
        assert list(rep.keys()) == ["verdict", "candidate", "chi2_by_index",
                                    "samples_used", "elapsed_ms",
                                    "guesses_evaluated"]
        assert rep["verdict"] == "GUESS"
        assert rep["candidate"] == [12, 0]  # rho(secret) for seed 0
        assert err.startswith("verdict: GUESS candidate=(12, 0)")
    assert rep["guesses_evaluated"] == 169  # the last run was two-bin


@pytest.mark.parametrize("command", ["gen-samples", "attack", "estimate"])
def test_attack_workers_flag_accepted_and_ignored(capsys, sample_file, command):
    # every subcommand runs in one process; --workers is accepted and ignored
    argvs = {
        "gen-samples": [GEN[:-2] + ("--count", "2100")],  # three 1024-record chunks
        "attack": [("attack", "--attack", kind, "--samples", str(sample_file))
                   for kind in ("coset", "two-bin")],
        "estimate": [("estimate", "--m", "128", "--q", "1151", "--degree", "2")],
    }[command]
    for argv in argvs:
        outputs = []
        for workers in ("1", "3"):
            code, out, _ = run(capsys, *argv, "--workers", workers)
            assert code == 0
            if command == "attack":
                out = json.loads(out)
                del out["elapsed_ms"]
            elif command == "estimate":  # runtime_ms is the last column
                out = [line.rsplit(",", 1)[0] for line in out.splitlines()]
            outputs.append(out)
        assert outputs[0] == outputs[1]


def test_attack_out_file(capsys, sample_file, tmp_path):
    report_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(sample_file), "--workers", "1",
                       "--out", str(report_path))
    assert code == 0 and out == ""
    assert json.loads(report_path.read_text())["verdict"] == "GUESS"


def test_attack_beta_chi_plumbed(capsys, sample_file):
    code, out, _ = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(sample_file), "--workers", "1",
                       "--beta-chi", "1e9")
    assert code == 0
    assert json.loads(out)["verdict"] == "NOT-RLWE"


def test_attack_uniform_decoy(capsys, tmp_path):
    path = tmp_path / "u.jsonl"
    run(capsys, *GEN, "--uniform", "--count", "1300", "--out", str(path))
    code, out, _ = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(path), "--workers", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "NOT-RLWE"


def test_attack_min_samples(capsys, tmp_path):
    path = tmp_path / "s30.jsonl"
    run(capsys, *GEN, "--count", "30", "--out", str(path))
    code, out, _ = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(path), "--workers", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "INSUFFICIENT-SAMPLES"
    code, _, err = run(capsys, "attack", "--attack", "two-bin",
                       "--samples", str(path), "--workers", "1")
    assert code == 2
    assert "needs at least 65 samples, got 30" in err
    code, out, _ = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(path), "--workers", "1",
                       "--min-samples", "15")
    assert code == 0
    # the floor is lifted: every coset is scored on every record with a2 != 0
    report = json.loads(out)
    _, a2 = reduce_mod_prime_batch(load(path).a, FamilyRing(3, 2, 13))
    assert report["guesses_evaluated"] == 13
    assert report["samples_used"] == int(np.count_nonzero(a2)) >= 15
    assert len(report["chi2_by_index"]) == 13


def test_attack_two_bin_refuses_zero_records(capsys, tmp_path):
    # a lowered floor still asks for one record: the statistic divides by
    # the record count, so an empty file would score every guess NaN
    path = tmp_path / "empty.jsonl"
    run(capsys, *GEN, "--count", "1", "--out", str(path))
    header = json.loads(path.read_text().splitlines()[0])
    header["count"] = 0
    path.write_text(json.dumps(header) + "\n")
    for floor in ("0", "-3"):
        code, out, err = run(capsys, "attack", "--attack", "two-bin",
                             "--samples", str(path), "--min-samples", floor)
        assert (code, out) == (2, "")
        assert err == "error: two-bin attack needs at least 1 samples, got 0\n"


def test_attack_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(tmp_path / "missing.jsonl"))
    assert code == 1
    assert "No such file" in err
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(bad))
    assert code == 1
    assert "line 1: bad header JSON" in err
    # a family header find-params would not admit: p = 9 is not prime, so
    # q has no residue degree 2 to attack
    run(capsys, *GEN, "--count", "30", "--out", str(bad))
    lines = bad.read_text().splitlines()
    header = json.loads(lines[0])
    header["p"] = 9
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    for attack in ("coset", "two-bin"):
        code, out, err = run(capsys, "attack", "--attack", attack,
                             "--samples", str(bad), "--workers", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: line 1: bad ring parameters (inadmissible "
                              "parameters: p=9 is not an odd prime")
    # a byte that is not UTF-8 is a file fault at its line, not a usage error
    run(capsys, *GEN, "--count", "30", "--out", str(bad))
    lines = bad.read_bytes().split(b"\n")
    lines[5] = lines[5][:10] + b"\xff" + lines[5][10:]
    bad.write_bytes(b"\n".join(lines))
    for attack in ("coset", "two-bin"):
        code, out, err = run(capsys, "attack", "--attack", attack, "--samples", str(bad))
        assert (code, out) == (1, "")
        assert err == "error: line 6: a byte that is not UTF-8 (read as U+FFFD)\n"


def test_attack_refuses_a_nonpositive_beta_chi(capsys, tmp_path):
    # refused before the attack looks at the ring: the cyclotomic file gets
    # this message too, not the residue-degree one
    family_file, cyclo_file = tmp_path / "family.jsonl", tmp_path / "cyclo.jsonl"
    run(capsys, *GEN, "--count", "130", "--out", str(family_file))
    run(capsys, "gen-samples", "--m", "8", "--q", "17", "--k", "4", "--count", "100",
        "--out", str(cyclo_file))
    report = tmp_path / "report.json"
    for samples in (family_file, cyclo_file):
        for attack in ("coset", "two-bin"):
            for beta_chi in ("0", "-4", "nan"):
                for out_args in ((), ("--out", str(report))):
                    code, out, err = run(capsys, "attack", "--attack", attack, "--samples",
                                         str(samples), "--beta-chi", beta_chi, *out_args)
                    assert (code, out) == (2, ""), (samples, attack, beta_chi)
                    assert err == "error: beta_chi must be positive\n"
                    assert not report.exists()


def test_attack_rejects_cyclotomic_samples(capsys, tmp_path):
    # 10 records sit below two-bin's 5q = 85 floor: the ring is refused first
    for count in ("100", "10"):
        path = tmp_path / ("c%s.jsonl" % count)
        run(capsys, "gen-samples", "--m", "8", "--q", "17", "--k", "4",
            "--count", count, "--workers", "1", "--out", str(path))
        for attack in ("coset", "two-bin"):
            code, out, err = run(capsys, "attack", "--attack", attack,
                                 "--samples", str(path), "--workers", "1")
            assert (code, out) == (2, ""), (count, attack)
            assert "residue degree 2" in err and "family-ring samples only" in err
            assert "needs at least" not in err


# ---------------------------------------------------------------- estimate

def test_estimate_deg1_csv(capsys):
    code, out, err = run(capsys, "estimate", "--m", "64", "--q", "193",
                         "--workers", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "m,q,k,degree,neg_floor_log2_eps,log2_bound,beta,runtime_ms"
    fields = lines[1].split(",")
    assert fields[:6] == ["64", "193", "2", "1", "41", "-16.3459"]
    assert fields[6] == "0.608535"
    float(fields[7])  # runtime parses


def test_estimate_bound_blank_when_inapplicable(capsys):
    code, out, _ = run(capsys, "estimate", "--m", "4", "--q", "17",
                       "--workers", "1")
    assert code == 0
    assert out.splitlines()[1].split(",")[5] == ""  # q >= m^2: no bound column


def test_estimate_deg2(capsys):
    code, out, _ = run(capsys, "estimate", "--m", "128", "--q", "1151",
                       "--degree", "2", "--workers", "1")
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[:6] == ["128", "1151", "2", "2", "49", "-33.1241"]


def test_estimate_deg2_gates(capsys):
    code, _, err = run(capsys, "estimate", "--m", "512", "--q", "5583",
                       "--degree", "2", "--workers", "1")
    assert code == 2
    assert "q=5583 is not prime" in err
    code, _, err = run(capsys, "estimate", "--m", "256", "--q", "1279",
                       "--degree", "2", "--workers", "1")
    assert code == 2
    assert "--long-run" in err
    code, out, _ = run(capsys, "estimate", "--m", "256", "--q", "1279",
                       "--degree", "2", "--long-run", "--workers", "1")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "146"


def test_estimate_deg1_field_size_gate(capsys):
    # (q - 1)/2 powers of a generator of F_q^*: refused at once
    # above 1.5e6 elements without --long-run, as degree 2 is above q^2 = 1.5e6
    code, out, err = run(capsys, "estimate", "--m", "2", "--q", "1000000007")
    assert code == 2 and out == ""
    assert err == ("error: q = 1000000007 exceeds the desk-scale budget; pass "
                   "long_run=True (--long-run on the command line)\n")


def test_estimate_deg2_exact_integer_row(capsys):
    # H is all of F_9^*: log2 eps = -4 exactly, and a sum a last bit above
    # -4 would print floor 3; runtime_ms masked
    code, out, err = run(capsys, "estimate", "--m", "8", "--q", "3", "--degree", "2")
    assert code == 0 and err == ""
    assert out.splitlines()[1].rsplit(",", 1)[0] == "8,3,2,2,4,-2.8690,0.608253"


@pytest.mark.parametrize("argv, floor", [
    (["--m", "512", "--q", "10753", "--k", "6"], "1273"),
    (["--m", "512", "--q", "5119", "--degree", "2", "--long-run", "--k", "8"], "1211"),
])
def test_estimate_eps_below_2_to_the_minus_1100(capsys, argv, floor):
    code, out, err = run(capsys, "estimate", *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[4] == floor


def test_estimate_deg2_refusal_without_a_suggestion(capsys):
    code, out, err = run(capsys, "estimate", "--m", "1099511627776",
                         "--q", "1000000000039", "--degree", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: degree-2 needs") and len(err.splitlines()) == 1


def test_estimate_empirical(capsys, monkeypatch):
    code, out, err = run(capsys, "estimate", "--m", "64", "--q", "193",
                         "--empirical", "--workers", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",chi2_empirical,uniform")
    assert lines[1].endswith(",198.8000,yes")  # seed 0, count 10q, r0 sqrt(2pi)
    assert err.strip() == "uniform: yes (chi2 198.80 vs critical 240.51 at 0.99)"
    # the flag is refused before any degree-2 sum is computed
    monkeypatch.setattr(cli, "epsilon_deg2", lambda *a, **k: pytest.fail("summed"))
    code, _, err = run(capsys, "estimate", "--m", "128", "--q", "1151",
                       "--degree", "2", "--empirical", "--workers", "1")
    assert code == 2
    assert "--empirical" in err and "--degree 1" in err


def test_estimate_fermat_prime_floor(capsys):
    # q = m + 1: log2 eps = log2 m - 1 - k m / 2 = -249 exactly
    code, out, _ = run(capsys, "estimate", "--m", "256", "--q", "257")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "249"


@pytest.mark.parametrize("argv, digest", [
    (["gen-samples", "--m", "64", "--q", "193", "--r", "8", "--count", "1930",
      "--seed", "3"],
     "16ec959b51f3a6a6db2ef67d9a70d9f24b8fb72c835da322149deebbe462a00b"),
    (["estimate", "--m", "256", "--q", "3329", "--empirical"],
     "41f58b76a2937bb363f9b87ffb553b2c530b0e27f54dadf8258ea0462b1bf461"),
    (["gen-samples", "--p", "43", "--d", "4871", "--q", "173", "--r", "200",
      "--count", "1730", "--seed", "11"],
     "3148be1f5695493a11e115494e437ba58356bfbf78706f2677d4835ed1c3d2cc"),
    (["gen-samples", "--p", "43", "--d", "4871", "--q", "173", "--r", "200",
      "--count", "1730", "--seed", "100", "--uniform"],
     "4983395c47fef494dc4f5d390e60f7168fe5395d51c4b22a8b3e04515f9b94a3"),
    # the benchmark's largest degree-2 row (|K| = 2), Kyber's ring at degree
    # 2 (|K| = 256), Dilithium's ring at degree 1 (a 256 x 16368 grid of
    # powers) and a row with eps below 2^-1100: every column but runtime_ms
    (["estimate", "--m", "512", "--q", "5119", "--degree", "2", "--long-run"],
     "83e62dae69d2a571d9422f6cc46907bdf608f8e04cbb4fe4442198332ffe8758"),
    (["estimate", "--m", "512", "--q", "3329", "--k", "4", "--degree", "2", "--long-run"],
     "f90602eaf979792a98d52319e8753533af212a79ef12d479eff310869ea33aac"),
    (["estimate", "--m", "512", "--q", "8380417", "--k", "4", "--long-run"],
     "36f82fbb63cfc51de0a0fad0aef5233779384fee9ad86a40239e6aa78945db24"),
    (["estimate", "--m", "512", "--q", "10753", "--k", "6"],
     "ec654c77fd830feec97ee9d9b5ee282d1687b0b4fe860463c4e5d169eaffc2ce"),
])
def test_frozen_output_bytes(capsys, argv, digest):
    # the 1-D sampler, the reduction map, the ring product and dump keep
    # every draw, residue and byte: the sample files and the estimate rows
    # (runtime_ms blanked) hash as they did before each was rewritten; a
    # second call in the same process, through the same parser, does too
    # (the slower --long-run and --empirical rows run once)
    for _ in range(1 if {"--long-run", "--empirical"} & set(argv) else 2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines(keepends=True)
        if argv[0] == "estimate":
            fields = lines[1].split(",")
            # runtime_ms blanked; a row that ends with it keeps its newline
            fields[7] = "\n" if fields[7].endswith("\n") else ""
            lines[1] = ",".join(fields)
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


Q1051_FILE = ("--p", "7", "--d", "4871", "--q", "1051", "--r", "100", "--count", "10510",
              "--seed", "1003")
README_FILE = ("--p", "43", "--d", "4871", "--q", "173", "--r", "200", "--count", "1730",
               "--seed", "11")


@pytest.mark.parametrize("kind, digest, sample_args", [
    ("coset", "3a8d07bf59ebc414c6fbc449e16178225953d44388c2c18e9355f15a89a44817", Q1051_FILE),
    ("two-bin", "768b421673918b5fc69b08168ce21f468f8352a40cf8c0320da9d3486a54980d", Q1051_FILE),
    ("coset", "7094c238fc39ace5094eeface50a65a8e952b99b7d22f2fabd61e2ee40369439", README_FILE),
    ("two-bin", "4eafe0ebd736f50660d5624a497e19491831228f1b48841071b0402fbb602328", README_FILE),
])
def test_frozen_attack_reports_at_q1051(capsys, tmp_path, kind, digest, sample_args):
    # the benchmark's largest attack row and the README example: the loader,
    # the guess-count rows and the report keep every byte but the timing, on
    # stdout and in the --out file, each written piece by piece
    path = tmp_path / "samples.jsonl"
    report = tmp_path / "report.json"
    assert run(capsys, "gen-samples", *sample_args, "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "attack", "--attack", kind, "--samples", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "GUESS"
    code, empty, _ = run(capsys, "attack", "--attack", kind, "--samples", str(path),
                         "--out", str(report))
    assert (code, empty) == (0, "")
    for text in (out, report.read_text()):
        masked = re.sub(r'"elapsed_ms": [^,]+', '"elapsed_ms": null', text)
        assert hashlib.sha256(masked.encode()).hexdigest() == digest


def test_estimate_out_file(capsys, tmp_path):
    path = tmp_path / "est.csv"
    code, out, _ = run(capsys, "estimate", "--m", "64", "--q", "193",
                       "--workers", "1", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[1].split(",")[4] == "41"


def test_estimate_validation_exit_codes(capsys, monkeypatch):
    code, _, err = run(capsys, "estimate", "--m", "6", "--q", "13",
                       "--workers", "1")
    assert code == 2 and "power of 2" in err
    code, _, err = run(capsys, "estimate", "--m", "8", "--q", "15",
                       "--workers", "1")
    assert code == 2 and "not prime" in err
    empirical = ("estimate", "--m", "64", "--q", "193", "--empirical")
    for extra, needle in [(("--r0", "inf"), "finite and positive"),
                          (("--r0", "nan"), "finite and positive"),
                          (("--count", "0"), "count must be >= 1"),
                          (("--count", "-5"), "count must be >= 1"),
                          (("--r0", "1e12"), "--r0 1e+12 is too wide to sample")]:
        code, out, err = run(capsys, *empirical, *extra)
        assert code == 2 and out == "", extra
        assert needle in err, (extra, err)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (extra, err)
    # --count is refused beside --r0, by the flag's name, before any sum
    monkeypatch.setattr(cli, "epsilon", lambda *a, **k: pytest.fail("summed"))
    for count in ("0", "-5"):
        code, out, err = run(capsys, *empirical, "--count", count)
        assert (code, out, err) == (2, "", "error: --count must be >= 1, got %s\n" % count)


# ----------------------------------------------------------------- parsing

def test_help_and_usage_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2  # a sub-command is required
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "attack", "--attack", "sideways", "--samples", "x")[0] == 2


def test_one_parser_per_process(capsys, monkeypatch, tmp_path):
    # after the first cli.main call has built (or found) the parser, no
    # further call constructs one: not another command, a usage error or
    # --help
    assert run(capsys, "estimate", "--m", "64", "--q", "193")[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    samples = tmp_path / "s.jsonl"
    for argv, expected in [
            (("find-params", "--p", "43", "--d", "4871", "--q-min", "100",
              "--q-max", "200"), 0),
            (GEN + ("--out", str(samples)), 0),
            (("attack", "--attack", "coset", "--samples", str(samples)), 0),
            (("estimate", "--m", "64", "--q", "193"), 0),
            (("estimate", "--m", "64"), 2),
            (("--help",), 0),
            (("attack", "--help"), 0)]:
        assert run(capsys, *argv)[0] == expected, argv
    assert built == []
