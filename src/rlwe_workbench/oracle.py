"""Generate, persist, and load RLWE sample sets and uniform decoys.

File format (the project's one wire contract)
----------------------------------------------
Line-delimited JSON.  Line 1 is the header object with keys in this fixed
order:

    schema_version, ring_kind, p, d, m, q, error_kind, width_or_k,
    seed, count, secret_hash

ring_kind is "family" or "cyclo"; p/d (family) or m (cyclo) are null when
inapplicable.  error_kind is "gaussian", "binomial", "zero" (degenerate test
hook) or "uniform" (decoy sets, where width_or_k is null and secret_hash is
null).  Every subsequent line is one record {"a": [...], "b": [...]} with
coefficients in [0, q-1], vectors of length deg.

The secret never appears in the file; secret_hash is the hex sha256 of the
canonical encoding "q=<q>;coeffs=<c0>,<c1>,..." so a reported guess can be
checked later against a disclosed secret.

Determinism
-----------
(seed, count) fully determine the bytes of a sample set.  Generation is
chunked at a fixed 1024 records with one forked RNG per chunk; the file
bytes depend on that chunking, so it stays fixed.  Within a chunk the draw
order is: all a-vectors, then all errors, and b = a*s + e is one ring_mul
call over the chunk's a-vectors.  The secret uses its own fork index 2^63,
outside the chunk range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256
from typing import Optional, Union

import numpy as np

from . import family
from .rings import CycloRing, FamilyRing, Ring, ring_mul
from .sampling import (BinomialSpec, GaussianSpec, RngHandle, sample_binomial_vk,
                       sample_lattice_gauss_batch)

SCHEMA_VERSION = 1
_CHUNK = 1024
_SECRET_INDEX = 1 << 63

ErrorSpec = Union[GaussianSpec, BinomialSpec, None]


def secret_commitment(coeffs: np.ndarray, q: int) -> str:
    enc = "q=%d;coeffs=%s" % (q, ",".join(str(int(c) % q) for c in coeffs))
    return sha256(enc.encode()).hexdigest()


@dataclass
class RlweInstance:
    """A ring, an error spec, a secret, and the master seed.

    error None is the degenerate zero-error test hook; secret is the int64
    coefficient vector of s.
    """
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
    """Header metadata, the ring it names, and ordered (a, b) records as
    (count, deg) arrays."""

    def __init__(self, header: dict, a: np.ndarray, b: np.ndarray):
        self.header = header
        self.ring = _ring_from_header(header)
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        if self.a.shape != (header["count"], self.ring.deg) or self.b.shape != self.a.shape:
            raise ValueError("record arrays do not match header count/degree")

    def __len__(self):
        return len(self.a)


def _ring_from_header(h: dict) -> Ring:
    """The header's ring; a family ring must be admissible, so that q has
    residue degree 2 in it."""
    if h["ring_kind"] == "family":
        return family.validate(h["p"], h["d"], h["q"])
    if h["ring_kind"] == "cyclo":
        return CycloRing(h["m"], h["q"])
    raise ValueError("unknown ring_kind %r" % h["ring_kind"])


def _header(ring: Ring, error_kind: str, width_or_k, seed: int, count: int,
            secret_hash: Optional[str]) -> dict:
    fam = isinstance(ring, FamilyRing)
    return {
        "schema_version": SCHEMA_VERSION,
        "ring_kind": "family" if fam else "cyclo",
        "p": ring.p if fam else None,
        "d": ring.d if fam else None,
        "m": None if fam else ring.m,
        "q": ring.q,
        "error_kind": error_kind,
        "width_or_k": width_or_k,
        "seed": seed,
        "count": count,
        "secret_hash": secret_hash,
    }


def _error_fields(error: ErrorSpec):
    if error is None:
        return "zero", None
    if isinstance(error, GaussianSpec):
        return "gaussian", error.r
    return "binomial", error.k


def _sample_errors(ring: Ring, error: ErrorSpec, rng: RngHandle, count: int):
    """Errors as a (count, deg) array."""
    if error is None:
        return np.zeros((count, ring.deg), dtype=np.int64)
    if isinstance(error, BinomialSpec):
        # coefficient-wise V_k (the estimator's model distribution)
        draws = sample_binomial_vk(error, rng, size=count * ring.deg)
        return draws.reshape(count, ring.deg)
    return sample_lattice_gauss_batch(ring, error, rng, count)[0]


def _gen_chunk(ring, error, secret, seed, start, n):
    """Records start .. start + n - 1 as (a, b) arrays."""
    rng = RngHandle(seed).fork(start // _CHUNK)
    a = rng.gen.integers(0, ring.q, size=(n, ring.deg), dtype=np.int64)
    e = _sample_errors(ring, error, rng, n)
    return a, (ring_mul(a, secret, ring) + e) % ring.q


def draw_rlwe(instance: RlweInstance, count: int) -> SampleSet:
    """count records (a, b = a*s + e) with a uniform in R/qR."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ring = instance.ring
    kind, wk = _error_fields(instance.error)
    header = _header(ring, kind, wk, instance.seed, count,
                     secret_commitment(instance.secret, ring.q))
    a = np.empty((count, ring.deg), dtype=np.int64)
    b = np.empty((count, ring.deg), dtype=np.int64)
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        a[start:start + n], b[start:start + n] = _gen_chunk(
            ring, instance.error, instance.secret, instance.seed, start, n)
    return SampleSet(header, a, b)


def draw_uniform(instance: RlweInstance, count: int) -> SampleSet:
    """Decoy set: both coordinates uniform and independent in R/qR."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ring = instance.ring
    header = _header(ring, "uniform", None, instance.seed, count, None)
    a = np.empty((count, ring.deg), dtype=np.int64)
    b = np.empty((count, ring.deg), dtype=np.int64)
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        rng = RngHandle(instance.seed).fork(start // _CHUNK)
        a[start:start + n] = rng.gen.integers(0, ring.q, size=(n, ring.deg), dtype=np.int64)
        b[start:start + n] = rng.gen.integers(0, ring.q, size=(n, ring.deg), dtype=np.int64)
    return SampleSet(header, a, b)


class SampleFileError(ValueError):
    """Malformed sample file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__("line %d: %s" % (line, message))


_HEADER_KEYS = ["schema_version", "ring_kind", "p", "d", "m", "q",
                "error_kind", "width_or_k", "seed", "count", "secret_hash"]
_INT_KEYS = ["schema_version", "q", "seed", "count"]
_RING_INT_KEYS = ["p", "d", "m"]  # null where the ring kind has no such parameter


def dump(sample_set: SampleSet, fh) -> None:
    """Write the header line, then one record line per (a, b) pair.

    Each residue is formatted once, from a table of str(0) .. str(q - 1),
    when the table is no larger than the records; a coefficient outside
    [0, q) is refused, since `load` would refuse the file."""
    a, b, q = sample_set.a, sample_set.b, sample_set.header["q"]
    if a.size and (min(int(a.min()), int(b.min())) < 0
                   or max(int(a.max()), int(b.max())) >= q):
        raise ValueError("record coefficients must lie in [0, %d)" % q)
    enc = [str(i) for i in range(q)].__getitem__ if q <= 2 * a.size else str
    fh.write(json.dumps({k: sample_set.header[k] for k in _HEADER_KEYS}) + "\n")
    for ra, rb in zip(a, b):  # one row at a time: no list of the whole file
        fh.write('{"a": [%s], "b": [%s]}\n'
                 % (", ".join(map(enc, ra.tolist())), ", ".join(map(enc, rb.tolist()))))


def save(sample_set: SampleSet, path) -> None:
    with open(path, "w") as fh:
        dump(sample_set, fh)


def _coefficients(vecs, linenos, first: int, q: int, deg: int) -> np.ndarray:
    """Record vectors (a then b of records first, first + 1, .., in file
    order) as one int64 array, checked in one pass; a vector holding
    anything but ints in [0, q) raises SampleFileError at its line."""
    if not vecs:
        return np.empty((0, deg), dtype=np.int64)
    try:
        arr = np.array(vecs)
        ok = (arr.dtype.kind in "bi" and arr.ndim == 2
              and arr.min() >= 0 and arr.max() < q)
    except ValueError:  # ragged nesting
        ok = False
    if ok:
        return arr.astype(np.int64, copy=False)
    for i, vec in enumerate(vecs):
        if any(not isinstance(c, int) or c < 0 or c >= q for c in vec):
            raise SampleFileError(linenos[i // 2], "record %d: %r has coefficients "
                                  "outside [0, %d)" % (first + i // 2, "ab"[i % 2], q))
    raise AssertionError("unreachable: the one-pass check rejected valid vectors")


def load(path) -> SampleSet:
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as e:
            raise SampleFileError(1, "bad header JSON (%s)" % e) from e
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
        if header["count"] < 0:
            raise SampleFileError(1, "header count %d is negative" % header["count"])
        try:
            ring = _ring_from_header(header)
        except (ValueError, TypeError) as e:
            raise SampleFileError(1, "bad ring parameters (%s)" % e) from e
        count, deg, q = header["count"], ring.deg, ring.q
        vecs, linenos, done = [], [], 0  # records parsed since the last flush
        chunks = []  # one checked (a, b) pair per flush; the header count sizes nothing

        def flush():
            # checked a chunk at a time, so the parsed lists stay small;
            # a bad coefficient is reported before any later fault
            nonlocal done
            arr = _coefficients(vecs, linenos, done, q, deg)
            chunks.append((arr[0::2], arr[1::2]))
            done += len(vecs) // 2
            del vecs[:], linenos[:]

        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            got = done + len(linenos)
            if got >= count:
                flush()
                raise SampleFileError(lineno, "more records than header count %d" % count)
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                flush()
                raise SampleFileError(lineno, "bad record JSON (%s)" % e) from e
            if not isinstance(rec, dict):
                flush()
                raise SampleFileError(lineno, "record %d is not a JSON object" % got)
            linenos.append(lineno)
            for key in ("a", "b"):
                vec = rec.get(key)
                if not isinstance(vec, list) or len(vec) != deg:
                    flush()
                    raise SampleFileError(
                        lineno, "record %d: %r is not a length-%d vector" % (got, key, deg))
                vecs.append(vec)
            if len(linenos) == _CHUNK:
                flush()
        flush()
        if done != count:
            raise SampleFileError(done + 1, "expected %d records, found %d" % (count, done))
    a, b = zip(*chunks)
    return SampleSet(header, np.concatenate(a), np.concatenate(b))
