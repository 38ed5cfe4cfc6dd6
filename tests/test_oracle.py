"""Sample generation, the JSONL wire format, and its failure modes."""

import io
import json

import numpy as np
import pytest

from rlwe_workbench import oracle
from rlwe_workbench.oracle import (RlweInstance, SampleFileError, SampleSet,
                                   _HEADER_KEYS, draw_rlwe, draw_uniform, dump,
                                   load, secret_commitment)
from rlwe_workbench.rings import CycloRing, FamilyRing, ring_mul
from rlwe_workbench.sampling import (BinomialSpec, GaussianSpec, RngHandle,
                                     sample_lattice_gauss_batch)

R = FamilyRing(3, 2, 13)
C = CycloRing(8, 17)


def _save(sample_set, path):
    with open(path, "w") as fh:
        dump(sample_set, fh)


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
    inst = RlweInstance.generate(R, GaussianSpec(6.0), seed=42)
    expect = RngHandle(42).fork(1 << 63).gen.integers(0, 13, size=4, dtype=np.int64)
    assert np.array_equal(inst.secret, expect)


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
    _save(draw_rlwe(inst, 3), path)
    first = path.read_text().splitlines()[0]
    assert list(json.loads(first).keys()) == _HEADER_KEYS
    assert _HEADER_KEYS == ["schema_version", "ring_kind", "p", "d", "m", "q",
                            "error_kind", "width_or_k", "seed", "count",
                            "secret_hash"]


def test_round_trip(tmp_path):
    inst = RlweInstance.generate(R, GaussianSpec(6.0), seed=8)
    ss = draw_rlwe(inst, 120)
    path = tmp_path / "rt.jsonl"
    _save(ss, path)
    back = load(path)
    assert back.header == ss.header
    assert np.array_equal(back.a, ss.a)
    assert np.array_equal(back.b, ss.b)
    assert len(back) == 120
    assert back.ring == R


DUMP_CASES = [
    (FamilyRing(43, 4871, 173), GaussianSpec(200.0), False),
    (CycloRing(16, 17), BinomialSpec(4), False),
    (FamilyRing(43, 4871, 173), GaussianSpec(200.0), True),
    (CycloRing(4, 2 ** 20 + 1), BinomialSpec(4), False),  # q past the table size
]


def _check_dump(ring, error, uniform, count):
    """dump against the header line plus json.dumps of each record."""
    inst = RlweInstance.generate(ring, error, seed=3)
    ss = (draw_uniform if uniform else draw_rlwe)(inst, count)
    buf = io.StringIO()
    dump(ss, buf)
    want = [json.dumps({k: ss.header[k] for k in _HEADER_KEYS})]
    want += [json.dumps({"a": ss.a[i].tolist(), "b": ss.b[i].tolist()})
             for i in range(len(ss))]
    assert buf.getvalue() == "\n".join(want) + "\n"


@pytest.mark.parametrize("ring, error, uniform", DUMP_CASES)
def test_dump_bytes_match_json_dumps(ring, error, uniform):
    _check_dump(ring, error, uniform, 300)


@pytest.mark.parametrize("edge", ["one", "piece-1", "piece", "piece+1", "1025"])
@pytest.mark.parametrize("ring, error, uniform", DUMP_CASES)
def test_dump_bytes_match_json_dumps_at_piece_edges(ring, error, uniform, edge):
    # dump joins whole records, up to _PIECE coefficients at a time; with
    # one record the p = 43 file has fewer slots than q, so its tokens come
    # from the distinct values, as they always do at q = 2^20 + 1
    piece = oracle._PIECE // (2 * ring.deg)
    count = {"one": 1, "piece-1": piece - 1, "piece": piece, "piece+1": piece + 1,
             "1025": 1025}[edge]
    _check_dump(ring, error, uniform, count)


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


def test_load_unknown_schema_version(tmp_path):
    lines = _lines(tmp_path)
    for version in (0, 2, 7, -1):
        h = json.loads(lines[0])
        h["schema_version"] = version
        with pytest.raises(SampleFileError, match="unsupported schema_version %d "
                           "\\(this reader knows 1\\)" % version) as ei:
            load(_write(tmp_path, [json.dumps(h)] + lines[1:]))
        assert ei.value.line == 1


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
    h["q"] = 9  # 1 mod 8, but not prime: no root of unity to reduce at
    path = _write(tmp_path, [json.dumps(h)] + lines[1:])
    with pytest.raises(SampleFileError, match="^line 1: bad ring parameters "
                       "\\(q=9 is not prime\\)$") as ei:
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
    # a header carries p and d (family) or m (cyclo), never both, and its
    # ring_kind names the ring those parameters build
    h = json.loads(lines[0])
    for edit, why in [({"m": 8}, "mixed ring parameters: .*p=3, d=2"),
                      ({"ring_kind": "cyclo", "m": 8, "q": 17, "p": 5, "d": 3},
                       "mixed ring parameters: .*p=5, d=3"),
                      ({"ring_kind": "cyclo", "m": 8, "q": 17, "p": None, "d": 3},
                       "mixed ring parameters: .*p=None, d=3"),
                      ({"m": 8, "q": 17, "p": None, "d": None},
                       "ring_kind 'family' does not match p=None, d=None, m=8"),
                      ({"ring_kind": "cyclo"}, "ring_kind 'cyclo' does not match "
                       "p=3, d=2, m=None"),
                      # a null ring parameter is named, not compared with an int
                      ({"ring_kind": "cyclo", "m": None, "q": 17, "p": None, "d": None},
                       "missing p and d: a family ring needs p and d, a cyclotomic "
                       "ring m\\)$"),
                      ({"p": None}, "missing p: a family ring needs p and d"),
                      ({"d": None}, "missing d: a family ring needs p and d")]:
        path = _write(tmp_path, [json.dumps(dict(h, **edit))] + lines[1:])
        with pytest.raises(SampleFileError, match="^line 1: bad ring parameters "
                           "\\(" + why) as ei:
            load(path)
        assert ei.value.line == 1, edit


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
    # record 1 is inside the first block; record 1023 is on its last line,
    # and the broken line after it opens the second block
    for record in (1, 1023):
        lines = _lines(tmp_path, count=record + 3)
        rec = json.loads(lines[record + 1])
        rec["a"][0] = 0.5
        lines[record + 1] = json.dumps(rec)
        lines[record + 2] = "{broken"
        with pytest.raises(SampleFileError, match="record %d: 'a' has coefficients" % record) as ei:
            load(_write(tmp_path, lines))
        assert ei.value.line == record + 2
        lines[record + 1] = json.dumps({"a": [0, 0, 0, 0], "b": [0, 0, 0]})
        with pytest.raises(SampleFileError, match="record %d: 'b' is not a length-4" % record) as ei:
            load(_write(tmp_path, lines))
        assert ei.value.line == record + 2


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
    # blank lines around the records: the error names the last line read
    header = json.loads(lines[0])
    header["count"] = 3
    padded = [json.dumps(header), "", "", "", lines[1], lines[2], "", ""]
    with pytest.raises(SampleFileError, match="^line 8: expected 3 records, found 2$") as ei:
        load(_write(tmp_path, padded))
    assert ei.value.line == 8


def test_load_tolerates_blank_lines(tmp_path):
    lines = _lines(tmp_path, count=3)
    padded = [lines[0], "", lines[1], "   ", lines[2], lines[3], ""]
    ss = load(_write(tmp_path, padded))
    assert len(ss) == 3


def test_sample_set_shape_validation():
    inst = RlweInstance.generate(R, GaussianSpec(6.0), seed=1)
    ss = draw_rlwe(inst, 5)
    with pytest.raises(ValueError, match="record arrays"):
        SampleSet(ss.ring, ss.header, ss.a[:4], ss.b)
    with pytest.raises(ValueError, match="record arrays"):
        SampleSet(ss.ring, ss.header, ss.a, ss.b[:, :3])


def test_sample_set_keeps_the_callers_ring(tmp_path):
    # the draws hand over the instance's ring unchecked; load checks the
    # header's ring, so a hand-built inadmissible ring's file is refused
    ring = FamilyRing(3, 4, 13)  # d = 4 is neither squarefree nor 2, 3 mod 4
    inst = RlweInstance.generate(ring, GaussianSpec(6.0), seed=1)
    for draw in (draw_rlwe, draw_uniform):
        ss = draw(inst, 5)
        assert ss.ring is ring
        path = tmp_path / "bad.jsonl"
        _save(ss, path)
        with pytest.raises(SampleFileError, match="inadmissible parameters") as ei:
            load(path)
        assert ei.value.line == 1


def test_count_validation():
    inst = RlweInstance.generate(R, GaussianSpec(6.0), seed=1)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            draw_rlwe(inst, bad)
        with pytest.raises(ValueError):
            draw_uniform(inst, bad)


# ------------------------------------------------ the block parse and the
# per-line parse: a block laid out exactly as dump writes it is parsed in
# one pass, everything else line by line; both must read the same file alike

BIG = FamilyRing(7, 4871, 1051)  # deg 12, coefficients of 1 to 4 digits


def _file(tmp_path, ring, count, name="f.jsonl"):
    inst = RlweInstance.generate(ring, GaussianSpec(6.0), seed=4)
    path = tmp_path / name
    _save(draw_uniform(inst, count), path)
    return path


def _json_reference(path):
    """a and b read with one json.loads per record line."""
    recs = [json.loads(line) for line in path.read_text().splitlines()[1:] if line.strip()]
    return (np.array([r["a"] for r in recs], dtype=np.int64),
            np.array([r["b"] for r in recs], dtype=np.int64))


def _line_by_line(monkeypatch, path):
    """load with the block parse refusing every block."""
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_block_records", lambda block, q, deg: None)
        return _outcome(path)


def _outcome(path):
    try:
        ss = load(path)
    except SampleFileError as e:
        return ("error", str(e), e.line)
    return ("ok", ss.a.tolist(), ss.b.tolist())


@pytest.mark.parametrize("ring", [BIG, CycloRing(64, 193)])
@pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2049])
def test_load_matches_json_loads_reference(tmp_path, ring, count):
    path = _file(tmp_path, ring, count)
    a, b = _json_reference(path)
    ss = load(path)
    assert np.array_equal(ss.a, a) and np.array_equal(ss.b, b)
    assert ss.a.dtype == ss.b.dtype == np.int64
    assert ss.a.shape == (count, ring.deg)
    # the same file with compact separators is valid JSON, not dump's layout
    compact = tmp_path / "compact.jsonl"
    compact.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                               for line in path.read_text().splitlines()))
    again = load(compact)
    assert again.header == ss.header
    assert np.array_equal(again.a, a) and np.array_equal(again.b, b)


def _first_a(line, new):
    """The line with its first "a" coefficient's text replaced by new."""
    head, rest = line.split("[", 1)
    return head + "[" + new + rest[rest.index(","):]


def _misplace(line):
    # "[x0, x1, x2" -> "[, x0,x1 x2": the same bytes once digits are
    # deleted and the same number of digit runs, but not JSON
    head, rest = line.split("[", 1)
    x0, x1, rest = rest.split(", ", 2)
    return head + "[, " + x0 + "," + x1 + " " + rest


RECORD_PERTURBATIONS = {
    "spacing": lambda line: line.replace(", ", ","),
    "leading zero": lambda line: _first_a(line, "05"),
    "zero padded zero": lambda line: _first_a(line, "00"),
    "q": lambda line: _first_a(line, "1051"),
    "negative": lambda line: _first_a(line, "-7"),
    "true": lambda line: _first_a(line, "true"),
    "20 digits": lambda line: _first_a(line, "12345678901234567890"),
    "19 digits": lambda line: _first_a(line, "9999999999999999999"),
    "crlf": lambda line: line[:-1] + "\r\n",
    "blank line before": lambda line: "\n" + line,
    "non-ascii digit": lambda line: _first_a(line, "1٥"),
    "renamed key": lambda line: line.replace('"b"', '"c"'),
    "extra coefficient": lambda line: line.replace("]", ", 1]", 1),
    "misplaced digits": _misplace,
}


@pytest.mark.parametrize("where", [5, 1500])  # in the first block, in the second
@pytest.mark.parametrize("kind", sorted(RECORD_PERTURBATIONS))
def test_load_perturbed_record_as_line_by_line(tmp_path, monkeypatch, kind, where):
    lines = _file(tmp_path, BIG, 2100).read_text().splitlines(keepends=True)
    lines[1 + where] = RECORD_PERTURBATIONS[kind](lines[1 + where])
    path = tmp_path / "perturbed.jsonl"
    path.write_bytes("".join(lines).encode())
    want = _line_by_line(monkeypatch, path)
    assert _outcome(path) == want
    if want[0] == "ok":
        a, b = _json_reference(path)
        assert want[1:] == (a.tolist(), b.tolist())


def test_load_missing_final_newline_as_line_by_line(tmp_path, monkeypatch):
    path = _file(tmp_path, BIG, 2100)
    path.write_text(path.read_text()[:-1])
    assert _outcome(path) == _line_by_line(monkeypatch, path)
    assert _outcome(path)[0] == "ok"


@pytest.mark.parametrize("records", [1, 1024, 1025, 2049])
def test_load_truncated_or_extra_record_at_block_edges(tmp_path, monkeypatch, records):
    lines = _file(tmp_path, BIG, 2100).read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("".join(lines[:1 + records]))
    got = _outcome(truncated)
    assert got == _line_by_line(monkeypatch, truncated)
    assert got == ("error", "line %d: expected 2100 records, found %d" % (records + 1, records),
                   records + 1)
    header["count"] = records
    extra = tmp_path / "extra.jsonl"
    extra.write_text(json.dumps(header) + "\n" + "".join(lines[1:2 + records]))
    got = _outcome(extra)
    assert got == _line_by_line(monkeypatch, extra)
    assert got == ("error", "line %d: more records than header count %d"
                   % (records + 2, records), records + 2)


@pytest.mark.parametrize("where", [5, 1500])
def test_load_refuses_leading_zero_and_overflow_at_their_line(tmp_path, where):
    lines = _file(tmp_path, BIG, 2100).read_text().splitlines(keepends=True)
    zero = list(lines)
    zero[1 + where] = _first_a(zero[1 + where], "05")
    path = _write(tmp_path, [line.rstrip("\n") for line in zero])
    with pytest.raises(SampleFileError, match=r"^line %d: bad record JSON \(Expecting ',' "
                       r"delimiter: line 1 column 9 \(char 8\)\)$" % (where + 2)) as ei:
        load(path)
    assert ei.value.line == where + 2
    big = list(lines)
    big[1 + where] = _first_a(big[1 + where], "12345678901234567890")
    path = _write(tmp_path, [line.rstrip("\n") for line in big])
    with pytest.raises(SampleFileError, match=r"^line %d: record %d: 'a' has coefficients "
                       r"outside \[0, 1051\)$" % (where + 2, where)) as ei:
        load(path)
    assert ei.value.line == where + 2


@pytest.mark.parametrize("lineno", [1, 6, 1501])  # the header, the first block, the second
@pytest.mark.parametrize("where", ["in a key", "in place of the closing brace"])
def test_load_refuses_a_byte_that_is_not_utf8_at_its_line(tmp_path, lineno, where):
    # in a key the line is still JSON once the byte is read as U+FFFD
    path = _file(tmp_path, BIG, 2100)
    lines = path.read_bytes().split(b"\n")
    line = lines[lineno - 1]
    lines[lineno - 1] = (line[:2] + b"\xff" + line[2:] if where == "in a key"
                         else line[:-1] + b"\xff")
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(SampleFileError, match=r"^line %d: a byte that is not UTF-8 "
                       r"\(read as U\+FFFD\)$" % lineno):
        load(path)


def test_canonical_file_makes_no_per_record_json_call(tmp_path, monkeypatch):
    path = _file(tmp_path, BIG, 2049)
    calls = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: calls.append(s) or real(s, **kw))
    load(path)
    assert len(calls) == 1  # the header
