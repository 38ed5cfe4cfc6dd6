"""Generate, persist, and load RLWE sample sets and uniform decoys.

File format (the project's one wire contract)
----------------------------------------------
Line-delimited JSON.  Line 1 is the header object with keys in this fixed
order:

    schema_version, ring_kind, p, d, m, q, error_kind, width_or_k,
    seed, count, secret_hash

ring_kind is "family" or "cyclo"; p/d (family) or m (cyclo) are null when
inapplicable.  error_kind is "gaussian", "binomial" or "uniform" (decoy
sets, where width_or_k is null and secret_hash is null).  Every subsequent
line is one record {"a": [...], "b": [...]} with coefficients in [0, q-1],
vectors of length deg.

The secret never appears in the file; secret_hash is the hex sha256 of the
canonical encoding "q=<q>;coeffs=<c0>,<c1>,..." so a reported guess can be
checked later against a disclosed secret.

A SampleSet keeps the ring it was built from: load builds it from the
header once through family.validate_ring, refusing at line 1 any
schema_version but SCHEMA_VERSION, any family ring family.validate refuses
(only then does q have residue degree 2), any cyclotomic ring whose q
is not prime, and a header that mixes p or d with m or whose ring_kind
names the other ring; draw_rlwe and draw_uniform pass on the instance's
ring.

Determinism
-----------
(seed, count) fully determine the bytes of a sample set.  Generation is
chunked at a fixed 1024 records with one forked RNG per chunk; the file
bytes depend on that chunking, so it stays fixed.  Within a chunk the draw
order is: all a-vectors, then all errors, and b = a*s + e is one ring_mul
call over the chunk's a-vectors; a decoy chunk draws all a, then all b.
The secret uses its own fork index 2^63, outside the chunk range.

Writing
-------
dump writes the records as the join of one token per coefficient slot:
the coefficient's digits followed by the skeleton bytes up to the next
slot -- ', ' inside a vector, '], "b": [' after the last slot of a, and
']}\n{"a": [' after the last slot of b -- after one leading '{"a": [',
with the last record's trailing '{"a": [' cut off.  The bytes are those
of json.dumps on each record.  The records are joined a piece at a time:
whole records, at most 8192 coefficients (or one record, if it is longer),
so every temporary stays below glibc's default 128 KiB mmap threshold.
The tokens come from a table of every residue when q is at most twice the
coefficient count, else from a table of the piece's distinct values; a
slot's token is at its value's place in the table plus the table's length
times the slot kind (0, 1 or 2).

Reading
-------
load reads the records 1024 lines at a time.  A block whose every line is
laid out exactly as dump writes it -- once its digits are deleted, the
bytes are the record skeleton '{"a": [, , ..], "b": [, , ..]}\n' repeated,
and each coefficient slot holds one run of digits without a leading zero
-- is parsed in one vectorised pass.  Such a line is JSON, and every slot
an unsigned decimal integer, so json.loads would read the same values;
the range check is the one the per-line path makes.  Any other block (other
spacing, blank lines, booleans, a fault of any kind) is read one line at a
time: json.loads, an object, two length-deg vectors, every coefficient an
int (or a JSON true/false) in [0, q).  Each line is checked as it is read,
and load raises at the first fault, so faults come out in file order with
their line numbers: a fault is only ever reported by that path.

The pass finds the digit runs as the edges of the bytes' digit mask,
checks the gaps between runs against the skeleton, and decodes every run
at once by Horner's rule: one np.take on intp positions gathers the k-th
digit from the right of each run, and a multiply by width >= k zeroes it
where the run is shorter.  To bound a block's memory, the body is dropped
once copied into the digit array, and one array holds the gaps, then the
widths, then the digit positions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from hashlib import sha256
from typing import Union

import numpy as np

from . import family
from .rings import FamilyRing, Ring, ring_mul
from .sampling import (BinomialSpec, GaussianSpec, RngHandle, sample_binomial_vk,
                       sample_lattice_gauss_batch)

SCHEMA_VERSION = 1
_CHUNK = 1024  # records per generation chunk; the file bytes depend on it
_BLOCK = 1024  # lines per block in load; nothing written depends on it
_SECRET_INDEX = 1 << 63

ErrorSpec = Union[GaussianSpec, BinomialSpec]


def secret_commitment(coeffs: np.ndarray, q: int) -> str:
    enc = "q=%d;coeffs=%s" % (q, ",".join(str(int(c) % q) for c in coeffs))
    return sha256(enc.encode()).hexdigest()


@dataclass
class RlweInstance:
    """A ring, an error spec, a secret, and the master seed; secret is the
    int64 coefficient vector of s."""
    ring: Ring
    error: ErrorSpec
    secret: np.ndarray
    seed: int

    @classmethod
    def generate(cls, ring: Ring, error: ErrorSpec, seed: int) -> "RlweInstance":
        rng = RngHandle(seed).fork(_SECRET_INDEX)
        coeffs = rng.gen.integers(0, ring.q, size=ring.deg, dtype=np.int64)
        return cls(ring, error, coeffs, seed)


class SampleSet:
    """The ring its caller built, header metadata, and ordered (a, b)
    records as (count, deg) arrays."""

    def __init__(self, ring: Ring, header: dict, a: np.ndarray, b: np.ndarray):
        self.ring = ring
        self.header = header
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        if self.a.shape != (header["count"], ring.deg) or self.b.shape != self.a.shape:
            raise ValueError("record arrays do not match header count/degree")

    def __len__(self):
        return len(self.a)


def _error_fields(error: ErrorSpec):
    if isinstance(error, GaussianSpec):
        return "gaussian", error.r
    return "binomial", error.k


def _sample_errors(ring: Ring, error: ErrorSpec, rng: RngHandle, count: int):
    """Errors as a (count, deg) array."""
    if isinstance(error, BinomialSpec):
        # coefficient-wise V_k (the estimator's model distribution)
        draws = sample_binomial_vk(error, rng, size=count * ring.deg)
        return draws.reshape(count, ring.deg)
    return sample_lattice_gauss_batch(ring, error, rng, count)[0]


def _draw(instance, count, chunk, error_kind, width_or_k, secret_hash) -> SampleSet:
    """count records, 1024 at a time: chunk(rng, n) draws n records as
    (a, b) arrays from the chunk's own fork of the master seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ring = instance.ring
    a = np.empty((count, ring.deg), dtype=np.int64)
    b = np.empty((count, ring.deg), dtype=np.int64)
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        rng = RngHandle(instance.seed).fork(start // _CHUNK)
        a[start:start + n], b[start:start + n] = chunk(rng, n)
    fam = isinstance(ring, FamilyRing)
    header = {
        "schema_version": SCHEMA_VERSION,
        "ring_kind": "family" if fam else "cyclo",
        "p": ring.p if fam else None,
        "d": ring.d if fam else None,
        "m": None if fam else ring.m,
        "q": ring.q,
        "error_kind": error_kind,
        "width_or_k": width_or_k,
        "seed": instance.seed,
        "count": count,
        "secret_hash": secret_hash,
    }
    return SampleSet(ring, header, a, b)


def draw_rlwe(instance: RlweInstance, count: int) -> SampleSet:
    """count records (a, b = a*s + e) with a uniform in R/qR."""
    ring, error, secret = instance.ring, instance.error, instance.secret

    def chunk(rng, n):
        a = rng.gen.integers(0, ring.q, size=(n, ring.deg), dtype=np.int64)
        e = _sample_errors(ring, error, rng, n)
        return a, (ring_mul(a, secret, ring) + e) % ring.q

    kind, wk = _error_fields(error)
    return _draw(instance, count, chunk, kind, wk, secret_commitment(secret, ring.q))


def draw_uniform(instance: RlweInstance, count: int) -> SampleSet:
    """Decoy set: both coordinates uniform and independent in R/qR."""
    q, deg = instance.ring.q, instance.ring.deg

    def chunk(rng, n):
        a = rng.gen.integers(0, q, size=(n, deg), dtype=np.int64)
        return a, rng.gen.integers(0, q, size=(n, deg), dtype=np.int64)

    return _draw(instance, count, chunk, "uniform", None, None)


class SampleFileError(ValueError):
    """Malformed sample file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__("line %d: %s" % (line, message))


_HEADER_KEYS = ["schema_version", "ring_kind", "p", "d", "m", "q",
                "error_kind", "width_or_k", "seed", "count", "secret_hash"]
_INT_KEYS = ["schema_version", "q", "seed", "count"]
_RING_INT_KEYS = ["p", "d", "m"]  # null where the ring kind has no such parameter
_INT_TYPES = {int, bool}  # what json.loads gives for a JSON integer, true or false
_RECORD = '{"a": [%s], "b": [%s]}\n'  # one record line, as dump writes it
_HEAD, _MID, _TAIL = _RECORD.split("%s")
_SEP = ", "
_AFTER = (_SEP, _MID, _TAIL + _HEAD)  # what follows a slot, by slot kind
_PIECE = 8192  # coefficients per join in dump


def _slot_kinds(deg: int) -> np.ndarray:
    """The kind of each of a record's 2 deg coefficient slots, an index
    into _AFTER: 0 inside a vector, 1 last of a, 2 last of b."""
    kinds = np.zeros(2 * deg, dtype=np.intp)
    kinds[deg - 1], kinds[-1] = 1, 2
    return kinds


def _tokens(values) -> np.ndarray:
    """For k values, the 3k tokens str(v) + what follows its slot: the
    token of value i in a slot of kind j is at j k + i."""
    text = [str(v) for v in values]
    return np.array([t + after for after in _AFTER for t in text], dtype=object)


def dump(sample_set: SampleSet, fh) -> None:
    """Write the header line, then one record line per (a, b) pair, as
    joined tokens (see Writing above).  A coefficient outside [0, q) is
    refused, since `load` would refuse the file."""
    a, b, q = sample_set.a, sample_set.b, sample_set.header["q"]
    if a.size and (min(int(a.min()), int(b.min())) < 0
                   or max(int(a.max()), int(b.max())) >= q):
        raise ValueError("record coefficients must lie in [0, %d)" % q)
    fh.write(json.dumps({k: sample_set.header[k] for k in _HEADER_KEYS}) + "\n")
    count, deg = a.shape
    if not count:
        return
    kinds = _slot_kinds(deg)
    table = _tokens(range(q)) if q <= 2 * a.size else None
    rows = max(1, _PIECE // (2 * deg))
    fh.write(_HEAD)
    for start in range(0, count, rows):
        piece = np.concatenate([a[start:start + rows], b[start:start + rows]], axis=1)
        if table is None:
            values, codes = np.unique(piece, return_inverse=True)
            tokens, idx = _tokens(values.tolist()), codes.reshape(piece.shape)
        else:
            tokens, idx = table, piece
        text = "".join(tokens[idx + len(tokens) // 3 * kinds].ravel().tolist())
        fh.write(text if start + rows < count else text[:-len(_HEAD)])


def _block_records(block, q: int, deg: int):
    """The records of a block of lines as one (n, 2, deg) int64 array, or
    None unless every line is laid out exactly as dump writes it: the
    record skeleton with one decimal in each coefficient slot, every one
    without a leading zero and below q."""
    body = "".join(block).encode()  # any non-ASCII byte fails the skeleton check
    n = len(block)
    blank = _SEP * (deg - 1)  # a vector without its digits
    if body.translate(None, b"0123456789") != (_HEAD + blank + _MID + blank + _TAIL).encode() * n:
        return None
    # the runs of digits: the body starts with "{" and ends with "\n", so
    # the edges alternate run start, run end
    dv = np.frombuffer(body, dtype=np.uint8) - 48  # uint8: bytes below "0" wrap past 9
    del body  # dv is a copy
    edges = np.flatnonzero(np.diff(dv < 10))  # intp, which np.take uses as is
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    # one run per slot and none elsewhere: the first run follows the
    # head, and between runs lie exactly the skeleton's bytes between slots
    if starts.size != 2 * deg * n or starts[0] != len(_HEAD):
        return None
    gaps = np.array([len(after) for after in _AFTER], dtype=np.intp)[_slot_kinds(deg)]
    # step holds each run's gap to the next run (the last run's is set to
    # the skeleton's), then its width, then the position of the digit
    # being read: one array, reused
    step = np.empty(starts.size, dtype=np.intp)
    np.subtract(starts[1:], ends[:-1], out=step[:-1])
    step[-1] = gaps[-1]
    if not (step.reshape(n, -1) == gaps).all():
        return None
    # JSON numbers have no leading zero; with at most as many digits as
    # q - 1, each value fits int64
    width = np.subtract(ends, starts, out=step)
    top = int(width.max())
    if top > len(str(q - 1)) or np.any((dv[starts] == 0) & (width > 1)):
        return None
    width = width.astype(np.uint8)
    pos = np.subtract(ends, top, out=step)  # the top-th digit from the right
    del edges, starts, ends  # freed before the Horner loop's arrays are made
    vals = np.zeros(pos.size, dtype=np.int64)
    for k in range(top, 0, -1):  # Horner over the k-th digit from the right
        digit = np.take(dv, pos)
        if k > 1:  # every run has at least one digit
            digit *= width >= k  # left of a shorter run: a leading 0 that adds nothing
        vals *= 10
        vals += digit
        pos += 1
    if vals.max() >= q:
        return None
    return vals.reshape(n, 2, deg)


def _in_range(vec, q: int) -> bool:
    """Whether every entry of the list vec is an int (a JSON true/false
    is one) in [0, q); min and max run only once every type is int."""
    return _INT_TYPES.issuperset(map(type, vec)) and min(vec) >= 0 and max(vec) < q


def _json_line(line: str, lineno: int, what: str):
    """json.loads of one line, or SampleFileError at lineno.  load decodes
    each byte that is not UTF-8 as U+FFFD, which is refused here even
    where JSON would take it (inside a string)."""
    if "\ufffd" in line:
        raise SampleFileError(lineno, "a byte that is not UTF-8 (read as U+FFFD)")
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise SampleFileError(lineno, "bad %s JSON (%s)" % (what, e)) from e


def load(path) -> SampleSet:
    """The sample set in the file at path; any fault raises SampleFileError
    at its 1-based line, the first fault in file order.

    Each block of 1024 lines that _block_records accepts, and that holds no
    more records than the header's count still allows, is parsed in one
    pass; every other block is read one json.loads per line, each line
    checked as it is read.  A file with too few records is refused at its
    last line."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = _json_line(fh.readline(), 1, "header")
        if not isinstance(header, dict):
            raise SampleFileError(1, "header is not a JSON object")
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise SampleFileError(1, "header missing keys %s" % missing)
        for key in _INT_KEYS + _RING_INT_KEYS:
            value = header[key]
            if (type(value) is not int  # bools and floats are refused too
                    and not (value is None and key in _RING_INT_KEYS)):
                raise SampleFileError(1, "header %r must be an integer, got %r" % (key, value))
        if header["schema_version"] != SCHEMA_VERSION:
            raise SampleFileError(1, "unsupported schema_version %d (this reader "
                                  "knows %d)" % (header["schema_version"], SCHEMA_VERSION))
        if header["count"] < 0:
            raise SampleFileError(1, "header count %d is negative" % header["count"])
        if header["ring_kind"] not in ("family", "cyclo"):
            raise SampleFileError(1, "bad ring parameters (unknown ring_kind %r)"
                                  % header["ring_kind"])
        try:
            ring = family.validate_ring(header["p"], header["d"], header["m"], header["q"])
            if isinstance(ring, FamilyRing) != (header["ring_kind"] == "family"):
                raise ValueError("ring_kind %r does not match p=%r, d=%r, m=%r"
                                 % tuple(header[k] for k in ("ring_kind", "p", "d", "m")))
        except (ValueError, TypeError) as e:
            raise SampleFileError(1, "bad ring parameters (%s)" % e) from e
        count, deg, q = header["count"], ring.deg, ring.q
        done, last = 0, 1  # records read; the last line read
        # one (a, b) pair per block; the header count sizes nothing
        chunks = [(np.empty((0, deg), dtype=np.int64),) * 2]
        for start in itertools.count(2, _BLOCK):  # the line number of each block's first line
            block = list(itertools.islice(fh, _BLOCK))
            if not block:
                break
            last = start + len(block) - 1
            recs = _block_records(block, q, deg) if done + len(block) <= count else None
            if recs is None:
                rows = []
                for lineno, line in enumerate(block, start=start):
                    if not line.strip():
                        continue
                    if done >= count:
                        raise SampleFileError(lineno, "more records than header count %d" % count)
                    rec = _json_line(line, lineno, "record")
                    if not isinstance(rec, dict):
                        raise SampleFileError(lineno, "record %d is not a JSON object" % done)
                    vecs = rec.get("a"), rec.get("b")
                    for key, vec in zip("ab", vecs):
                        if not isinstance(vec, list) or len(vec) != deg:
                            raise SampleFileError(
                                lineno, "record %d: %r is not a length-%d vector" % (done, key, deg))
                    row = vecs[0] + vecs[1]
                    if not _in_range(row, q):
                        raise SampleFileError(lineno, "record %d: %r has coefficients outside "
                                              "[0, %d)" % (done, "b" if _in_range(vecs[0], q)
                                                           else "a", q))
                    rows.append(row)
                    done += 1
                recs = np.array(rows, dtype=np.int64).reshape(-1, 2, deg)
            else:
                done += len(block)
            chunks.append((recs[:, 0], recs[:, 1]))
        if done != count:
            raise SampleFileError(last, "expected %d records, found %d" % (count, done))
    a, b = zip(*chunks)
    return SampleSet(ring, header, np.concatenate(a), np.concatenate(b))
