"""Sample generation, the JSONL wire format, and its failure modes."""

import io
import json

import numpy as np
import pytest

from rlwe_workbench.oracle import (RlweInstance, SampleFileError, SampleSet,
                                   _HEADER_KEYS, draw_rlwe, draw_uniform, dump,
                                   load, save, secret_commitment)
from rlwe_workbench.rings import CycloRing, FamilyRing, ring_mul
from rlwe_workbench.sampling import (BinomialSpec, GaussianSpec, RngHandle,
                                     sample_lattice_gauss_batch)

R = FamilyRing(3, 2, 13)
C = CycloRing(8, 17)


def test_secret_commitment_frozen():
    assert (secret_commitment(np.array([1, 2, 3, 0]), 13)
            == "895e8ce522ca234f0f0ac64b9af79fd189c16ef9226ac8d593fb6d6ff533d5fc")


def test_secret_commitment_reduces_mod_q():
    assert (secret_commitment(np.array([1, 2, 3, 0]), 13)
            == secret_commitment(np.array([14, -11, 16, 13]), 13))
    assert (secret_commitment(np.array([1, 2]), 13)
            != secret_commitment(np.array([2, 1]), 13))


def test_instance_generation_deterministic():
    i1 = RlweInstance.generate(R, GaussianSpec(6.0), seed=42)
    i2 = RlweInstance.generate(R, GaussianSpec(6.0), seed=42)
    i3 = RlweInstance.generate(R, GaussianSpec(6.0), seed=43)
    assert np.array_equal(i1.secret, i2.secret)
    assert not np.array_equal(i1.secret, i3.secret)
    assert i1.secret.shape == (4,) and i1.secret.dtype == np.int64
    assert np.all((0 <= i1.secret) & (i1.secret < 13))


def test_secret_uses_reserved_fork():
    inst = RlweInstance.generate(R, None, seed=42)
    expect = RngHandle(42).fork(1 << 63).gen.integers(0, 13, size=4, dtype=np.int64)
    assert np.array_equal(inst.secret, expect)


def test_zero_error_records_are_exact_products():
    inst = RlweInstance.generate(R, None, seed=5)
    ss = draw_rlwe(inst, 50)
    assert ss.header["error_kind"] == "zero"
    assert ss.header["width_or_k"] is None
    for i in range(50):
        prod = ring_mul(ss.a[i], inst.secret, R)
        assert np.array_equal(ss.b[i], prod % 13)


def test_binomial_error_support():
    inst = RlweInstance.generate(C, BinomialSpec(4), seed=6)
    ss = draw_rlwe(inst, 400)
    assert ss.header["error_kind"] == "binomial"
    assert ss.header["width_or_k"] == 4
    for i in range(400):
        prod = ring_mul(ss.a[i], inst.secret, C)
        e = (ss.b[i] - prod) % 17
        centered = np.where(e > 8, e - 17, e)
        assert np.all(np.abs(centered) <= 2)


def test_gaussian_records_replay_from_seed():
    """Within a chunk the stream is: a-batch, then error batch, each from the
    chunk fork -- regenerating both reproduces the file exactly."""
    spec = GaussianSpec(6.0)
    inst = RlweInstance.generate(R, spec, seed=42)
    ss = draw_rlwe(inst, 300)
    rng = RngHandle(42).fork(0)
    a = rng.gen.integers(0, 13, size=(300, 4), dtype=np.int64)
    assert np.array_equal(a, ss.a)
    e, _ = sample_lattice_gauss_batch(R, spec, rng, 300)
    for i in range(300):
        prod = ring_mul(a[i], inst.secret, R)
        assert np.array_equal(ss.b[i], (prod + e[i]) % 13)


def test_uniform_decoy_header_and_determinism():
    inst = RlweInstance.generate(R, GaussianSpec(6.0), seed=3)
    u1 = draw_uniform(inst, 1500)
    u2 = draw_uniform(inst, 1500)
    assert u1.header["error_kind"] == "uniform"
    assert u1.header["width_or_k"] is None
    assert u1.header["secret_hash"] is None
    assert np.array_equal(u1.a, u2.a) and np.array_equal(u1.b, u2.b)
    assert not np.array_equal(u1.a, u1.b)


def test_header_key_order_on_disk(tmp_path):
    inst = RlweInstance.generate(C, BinomialSpec(2), seed=1)
    path = tmp_path / "s.jsonl"
    save(draw_rlwe(inst, 3), path)
    first = path.read_text().splitlines()[0]
    assert list(json.loads(first).keys()) == _HEADER_KEYS
    assert _HEADER_KEYS == ["schema_version", "ring_kind", "p", "d", "m", "q",
                            "error_kind", "width_or_k", "seed", "count",
                            "secret_hash"]


def test_round_trip(tmp_path):
    inst = RlweInstance.generate(R, GaussianSpec(6.0), seed=8)
    ss = draw_rlwe(inst, 120)
    path = tmp_path / "rt.jsonl"
    save(ss, path)
    back = load(path)
    assert back.header == ss.header
    assert np.array_equal(back.a, ss.a)
    assert np.array_equal(back.b, ss.b)
    assert len(back) == 120
    assert back.ring == R


@pytest.mark.parametrize("ring, error, uniform", [
    (FamilyRing(43, 4871, 173), GaussianSpec(200.0), False),
    (CycloRing(16, 17), BinomialSpec(4), False),
    (FamilyRing(43, 4871, 173), GaussianSpec(200.0), True),
    (CycloRing(4, 2 ** 20 + 1), BinomialSpec(4), False),  # q past the table size
])
def test_dump_bytes_match_json_dumps(ring, error, uniform):
    """dump against the header line plus json.dumps of each record."""
    inst = RlweInstance.generate(ring, error, seed=3)
    ss = (draw_uniform if uniform else draw_rlwe)(inst, 300)
    buf = io.StringIO()
    dump(ss, buf)
    want = [json.dumps({k: ss.header[k] for k in _HEADER_KEYS})]
    want += [json.dumps({"a": ss.a[i].tolist(), "b": ss.b[i].tolist()})
             for i in range(len(ss))]
    assert buf.getvalue() == "\n".join(want) + "\n"


def test_dump_refuses_coefficients_outside_zq():
    ss = draw_rlwe(RlweInstance.generate(R, GaussianSpec(6.0), seed=8), 4)
    for bad in (-1, 13):
        ss.b[2, 1] = bad
        with pytest.raises(ValueError, match=r"must lie in \[0, 13\)"):
            dump(ss, io.StringIO())


def _lines(tmp_path, seed=8, count=4):
    inst = RlweInstance.generate(R, GaussianSpec(6.0), seed=seed)
    buf = io.StringIO()
    dump(draw_rlwe(inst, count), buf)
    return buf.getvalue().splitlines()


def _write(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_bad_header_json(tmp_path):
    path = _write(tmp_path, ["this is not json"])
    with pytest.raises(SampleFileError, match="bad header JSON") as ei:
        load(path)
    assert ei.value.line == 1


def test_load_header_not_an_object(tmp_path):
    for header in ("[1, 2]", "7", "null", '"header"'):
        with pytest.raises(SampleFileError, match="header is not a JSON object") as ei:
            load(_write(tmp_path, [header]))
        assert ei.value.line == 1


def test_load_header_field_types(tmp_path):
    lines = _lines(tmp_path)
    cases = [(key, bad) for key in ("schema_version", "q", "seed", "count")
             for bad in ("40", True, 13.0, None, [4])]
    cases += [(key, bad) for key in ("p", "d", "m") for bad in ("3", False, 3.0)]
    for key, bad in cases:
        h = json.loads(lines[0])
        h[key] = bad
        with pytest.raises(SampleFileError, match="header %r must be an integer" % key) as ei:
            load(_write(tmp_path, [json.dumps(h)] + lines[1:]))
        assert ei.value.line == 1, (key, bad)


def test_load_negative_count(tmp_path):
    lines = _lines(tmp_path)
    h = json.loads(lines[0])
    h["count"] = -1
    with pytest.raises(SampleFileError, match="header count -1 is negative") as ei:
        load(_write(tmp_path, [json.dumps(h)] + lines[1:]))
    assert ei.value.line == 1


def test_load_huge_count(tmp_path):
    # the header's count is checked against the records, never used to size arrays
    lines = _lines(tmp_path, count=40)
    h = json.loads(lines[0])
    for count in (10 ** 10, 2 ** 62):
        h["count"] = count
        with pytest.raises(SampleFileError,
                           match="expected %d records, found 40" % count) as ei:
            load(_write(tmp_path, [json.dumps(h)] + lines[1:]))
        assert ei.value.line == 41


def test_load_header_missing_keys(tmp_path):
    path = _write(tmp_path, [json.dumps({"schema_version": 1, "q": 13})])
    with pytest.raises(SampleFileError, match="header missing keys") as ei:
        load(path)
    assert ei.value.line == 1


def test_load_bad_ring_parameters(tmp_path):
    lines = _lines(tmp_path)
    h = json.loads(lines[0])
    h["ring_kind"], h["m"], h["p"], h["d"] = "cyclo", 8, None, None
    h["q"] = 19  # 19 != 1 mod 8
    path = _write(tmp_path, [json.dumps(h)] + lines[1:])
    with pytest.raises(SampleFileError, match="bad ring parameters") as ei:
        load(path)
    assert ei.value.line == 1
    h["ring_kind"] = "mystery"
    path = _write(tmp_path, [json.dumps(h)] + lines[1:])
    with pytest.raises(SampleFileError, match="bad ring parameters"):
        load(path)
    # deg * (q - 1)^2 >= 2^63 would wrap int64 products
    h["ring_kind"], h["m"], h["q"] = "cyclo", 4, 2 ** 32 + 1
    path = _write(tmp_path, [json.dumps(h)] + lines[1:])
    with pytest.raises(SampleFileError, match="bad ring parameters .*2\\^63") as ei:
        load(path)
    assert ei.value.line == 1
    # family rings the parameter search would not admit: q must have residue
    # degree 2, so p prime, d squarefree and 2 or 3 mod 4, gcd(d, p) = 1,
    # q = 1 mod p and d a nonresidue mod q
    h["ring_kind"], h["m"] = "family", None
    for (p, d, q), why in [((9, 3, 19), "p=9 is not an odd prime"),
                           ((3, 6, 13), "gcd\\(d=6, p=3\\) != 1"),
                           ((3, 4, 13), "d=4 is not 2 or 3 mod 4"),
                           ((3, 2, 7), "d=2 is a square mod q=7")]:
        h["p"], h["d"], h["q"] = p, d, q
        path = _write(tmp_path, [json.dumps(h)] + lines[1:])
        with pytest.raises(SampleFileError, match="^line 1: bad ring parameters "
                           "\\(inadmissible parameters: .*" + why) as ei:
            load(path)
        assert ei.value.line == 1, (p, d, q)


def test_load_bad_record_json(tmp_path):
    lines = _lines(tmp_path)
    lines[2] = "{broken"
    with pytest.raises(SampleFileError, match="bad record JSON") as ei:
        load(_write(tmp_path, lines))
    assert ei.value.line == 3


def test_load_record_not_an_object(tmp_path):
    lines = _lines(tmp_path)
    for bad in ("[1, 2]", "3", "null"):
        with pytest.raises(SampleFileError, match="record 1 is not a JSON object") as ei:
            load(_write(tmp_path, lines[:2] + [bad] + lines[3:]))
        assert ei.value.line == 3


def test_load_wrong_length_vector(tmp_path):
    lines = _lines(tmp_path)
    lines[1] = json.dumps({"a": [1, 2], "b": [0, 0, 0, 0]})
    with pytest.raises(SampleFileError, match="is not a length-4 vector") as ei:
        load(_write(tmp_path, lines))
    assert ei.value.line == 2


def test_load_out_of_range_coefficient(tmp_path):
    # out-of-range and huge ints, floats, strings, null and nested lists
    lines = _lines(tmp_path, count=3)
    for bad in (13, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 70, -2 ** 70, 0.5, 1.0, "3",
                None, [1], []):
        rec = json.loads(lines[2])
        rec["b"][1] = bad
        with pytest.raises(SampleFileError,
                           match=r"^line 3: record 1: 'b' has coefficients outside \[0, 13\)$"):
            load(_write(tmp_path, lines[:2] + [json.dumps(rec)] + lines[3:]))


def test_load_accepts_json_booleans(tmp_path):
    # JSON true/false decode to Python bools, which are ints
    lines = _lines(tmp_path, count=2)
    lines[1] = json.dumps({"a": [True, False, 1, 12], "b": [True] * 4})
    ss = load(_write(tmp_path, lines))
    assert ss.a[0].tolist() == [1, 0, 1, 12] and ss.b[0].tolist() == [1] * 4
    assert ss.a.dtype == np.int64


def test_load_reports_the_first_fault_in_file_order(tmp_path):
    lines = _lines(tmp_path, count=4)
    rec = json.loads(lines[2])
    rec["a"][0] = 0.5
    lines[2] = json.dumps(rec)
    lines[3] = "{broken"
    with pytest.raises(SampleFileError, match="record 1: 'a' has coefficients") as ei:
        load(_write(tmp_path, lines))
    assert ei.value.line == 3
    lines[2] = json.dumps({"a": [0, 0, 0, 0], "b": [0, 0, 0]})
    with pytest.raises(SampleFileError, match="record 1: 'b' is not a length-4") as ei:
        load(_write(tmp_path, lines))
    assert ei.value.line == 3


def test_load_extra_record(tmp_path):
    lines = _lines(tmp_path, count=2)
    lines.append(lines[1])
    with pytest.raises(SampleFileError, match="more records than header count 2") as ei:
        load(_write(tmp_path, lines))
    assert ei.value.line == 4


def test_load_truncated(tmp_path):
    lines = _lines(tmp_path, count=4)
    with pytest.raises(SampleFileError, match="expected 4 records, found 1") as ei:
        load(_write(tmp_path, lines[:2]))
    assert ei.value.line == 2


def test_load_tolerates_blank_lines(tmp_path):
    lines = _lines(tmp_path, count=3)
    padded = [lines[0], "", lines[1], "   ", lines[2], lines[3], ""]
    ss = load(_write(tmp_path, padded))
    assert len(ss) == 3


def test_sample_set_shape_validation():
    inst = RlweInstance.generate(R, None, seed=1)
    ss = draw_rlwe(inst, 5)
    with pytest.raises(ValueError, match="record arrays"):
        SampleSet(ss.header, ss.a[:4], ss.b)
    with pytest.raises(ValueError, match="record arrays"):
        SampleSet(ss.header, ss.a, ss.b[:, :3])


def test_count_validation():
    inst = RlweInstance.generate(R, None, seed=1)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            draw_rlwe(inst, bad)
        with pytest.raises(ValueError):
            draw_uniform(inst, bad)
