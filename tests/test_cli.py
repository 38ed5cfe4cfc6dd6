"""End-to-end command-line behavior: formats, plumbing, and exit codes."""

import json

import numpy as np
import pytest

from rlwe_workbench.cli import main
from rlwe_workbench.ffield import FieldCtx
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


def test_gen_samples_validation(capsys):
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
        (("gen-samples", "--p", "3", "--d", "10", "--q", "13", "--r", "2.0"),
         "square mod q"),
    ]
    for argv, needle in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert needle in err, (argv, err)


def test_gen_samples_uniform_note(capsys, tmp_path):
    path = tmp_path / "u.jsonl"
    code, _, err = run(capsys, *GEN, "--uniform", "--count", "200",
                       "--out", str(path))
    assert code == 0
    assert err.strip() == "wrote 200 uniform record(s) (seed 0)"
    assert json.loads(path.read_text().splitlines()[0])["error_kind"] == "uniform"


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


def test_attack_workers_flag_accepted_and_ignored(capsys, sample_file):
    for kind in ("coset", "two-bin"):
        reports = []
        for workers in ("1", "3"):
            code, out, _ = run(capsys, "attack", "--attack", kind,
                               "--samples", str(sample_file), "--workers", workers)
            assert code == 0
            rep = json.loads(out)
            del rep["elapsed_ms"]
            reports.append(rep)
        assert reports[0] == reports[1]


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
    _, a2 = reduce_mod_prime_batch(load(path).a, FamilyRing(3, 2, 13),
                                   FieldCtx.for_family(3, 2, 13))
    assert report["guesses_evaluated"] == 13
    assert report["samples_used"] == int(np.count_nonzero(a2)) >= 15
    assert len(report["chi2_by_index"]) == 13


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


def test_attack_rejects_cyclotomic_samples(capsys, tmp_path):
    path = tmp_path / "c.jsonl"
    run(capsys, "gen-samples", "--m", "8", "--q", "17", "--k", "4",
        "--count", "100", "--workers", "1", "--out", str(path))
    code, _, err = run(capsys, "attack", "--attack", "coset",
                       "--samples", str(path), "--workers", "1")
    assert code == 2
    assert "family-ring samples only" in err


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
    assert "long_run" in err
    code, out, _ = run(capsys, "estimate", "--m", "256", "--q", "1279",
                       "--degree", "2", "--long-run", "--workers", "1")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "146"


def test_estimate_empirical(capsys):
    code, out, err = run(capsys, "estimate", "--m", "64", "--q", "193",
                         "--empirical", "--workers", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",chi2_empirical,uniform")
    assert lines[1].endswith(",198.8000,yes")  # seed 0, count 10q, r0 sqrt(2pi)
    assert err.strip() == "uniform: yes (chi2 198.80 vs critical 240.51 at 0.99)"
    code, _, err = run(capsys, "estimate", "--m", "128", "--q", "1151",
                       "--degree", "2", "--empirical", "--workers", "1")
    assert code == 2
    assert "--empirical" in err and "--degree 1" in err


def test_estimate_out_file(capsys, tmp_path):
    path = tmp_path / "est.csv"
    code, out, _ = run(capsys, "estimate", "--m", "64", "--q", "193",
                       "--workers", "1", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[1].split(",")[4] == "41"


def test_estimate_validation_exit_codes(capsys):
    code, _, err = run(capsys, "estimate", "--m", "6", "--q", "13",
                       "--workers", "1")
    assert code == 2 and "power of 2" in err
    code, _, err = run(capsys, "estimate", "--m", "8", "--q", "15",
                       "--workers", "1")
    assert code == 2 and "not prime" in err


# ----------------------------------------------------------------- parsing

def test_help_and_usage_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2  # a sub-command is required
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "attack", "--attack", "sideways", "--samples", "x")[0] == 2
