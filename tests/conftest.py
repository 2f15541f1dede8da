"""Shared oracles: dense mod-p linear algebra done independently of the
package's sparse structures, plus seeded random generators."""

import importlib.util
import os
import random
import zlib

import numpy as np
import pytest

from smithy import FieldSpec, SparseMatrix, Transcript
from smithy.transcript import TAG


def dense_rref(rows, p):
    """Row-reduce over F_p; returns (rref ndarray, pivot column list)."""
    a = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p
    m = a.shape[0]
    n = a.shape[1] if m else 0
    pivots = []
    r = 0
    for j in range(n):
        piv = None
        for i in range(r, m):
            if a[i, j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, j]), p - 2, p) % p
        col = a[:, j].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(j)
        r += 1
        if r == m:
            break
    return a, pivots


def dense_rank(rows, p):
    if not rows or not len(rows[0]):
        return 0
    return len(dense_rref(rows, p)[1])


def dense_kernel(rows, p, n=None):
    """Basis of the right kernel as a list of length-n vectors."""
    if not rows:
        assert n is not None
        return [[1 if t == j else 0 for t in range(n)] for j in range(n)]
    n = len(rows[0])
    a, pivots = dense_rref(rows, p)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for r_i, pj in enumerate(pivots):
            v[pj] = int(-a[r_i, f]) % p
        basis.append(v)
    return basis


def dense_mat_vec(rows, x, p):
    return [sum(rv * xv for rv, xv in zip(row, x)) % p for row in rows]


def reference_read(data):
    """The matrix text format read naively from bytes: ((m, n, p), {(i, j): v})
    with 1-based indices, or the line number of the first fault."""
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    rows = [(no, line.split()) for no, line in enumerate(lines, 1) if line.split()]
    if not rows:
        return len(lines) + 1
    no, header = rows[0]
    try:
        m, n, p = map(int, header)
        FieldSpec(p)
    except ValueError:
        return no
    if m < 0 or n < 0:
        return no
    entries = {}
    rest = iter(rows[1:])
    for no, parts in rest:
        try:
            i, j, v = map(int, parts)
        except ValueError:
            return no
        if (i, j, v) == (0, 0, 0):
            break
        if not (1 <= i <= m and 1 <= j <= n and 0 < v < p) or (i, j) in entries:
            return no
        entries[i, j] = v
    else:
        return len(lines) + 1
    for no, _ in rest:
        return no
    return (m, n, p), entries


def random_dense(rng, m, n, p, density):
    return [[rng.randrange(1, p) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def sparse_from_dense(rows, p):
    return SparseMatrix.from_dense(rows, FieldSpec(p))


def sparse_identity(n, spec):
    a = SparseMatrix(n, n, spec)
    for i in range(n):
        a.set_col(i, [i << spec.k | 1])
    return a


def sparse_copy(a):
    """An independent copy; snf overwrites the matrix it is given."""
    b = SparseMatrix(a.m, a.n, a.spec)
    b.cols = [list(col) for col in a.cols]
    return b


def load_gen():
    """perfbench/gen.py, imported by path: the seeded torus generator."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def torus_coboundary(torus, q, spec):
    """A Torus's delta_q : C^q -> C^(q+1) as a SparseMatrix over spec."""
    a = SparseMatrix(torus.size(q + 1), torus.size(q), spec)
    for j, col in enumerate(torus.coboundary_columns(q, spec.p)):
        a.set_col(j, [i << spec.k | v for i, v in col])
    return a


def random_slice(rng, n6, n5, n4, p):
    """(dTop rows, dBottom rows) with dTop.dBottom = 0 by construction:
    dBottom columns are random combinations of dTop's dense kernel."""
    top = random_dense(rng, n6, n5, p, rng.uniform(0.05, 0.3))
    kernel = dense_kernel(top, p, n=n5)
    bottom_cols = []
    for _ in range(n4):
        col = [0] * n5
        for kv in kernel:
            c = rng.randrange(p) if rng.random() < 0.6 else 0
            if c:
                col = [(a + c * b) % p for a, b in zip(col, kv)]
        bottom_cols.append(col)
    bottom = [[bottom_cols[j][i] for j in range(n4)] for i in range(n5)]
    return top, bottom


def transcript_text(path):
    """The transcript at path in the text layout smithy wrote before its
    binary one: the header line `SIDE dim p`, one `S a b` or `T a b v` line
    per record and the trailer line `E count crc`, crc being the CRC-32 of
    every byte before it.  Pinned transcript hashes are of this rendering,
    so they pin the records and not their encoding."""
    tr = Transcript.open(path)
    body = b"%s %d %d\n" % (tr.side.encode(), tr.dim, tr.spec.p) + b"".join(
        b"T %d %d %d\n" % (a, b, v) if v else b"S %d %d\n" % (a, b)
        for a, b, v in zip(*tr.decoded()))
    return body + b"E %d %d\n" % (len(tr), zlib.crc32(body))


def trn_header(side, dim, p):
    return b"%s %s %d %d\n" % (TAG, side.encode(), dim, p)


def trn_chunk(records):
    """(a, b, v) records, v = 0 for a swap, as one chunk of the binary
    transcript format, built with int.to_bytes: the record count, then the
    a, b and v columns as 4-, 4- and 2-byte little-endian integers."""
    a = b"".join(r[0].to_bytes(4, "little") for r in records)
    b = b"".join(r[1].to_bytes(4, "little") for r in records)
    v = b"".join(r[2].to_bytes(2, "little") for r in records)
    return len(records).to_bytes(4, "little") + a + b + v


def trn_signed(data, count):
    """data closed with the trailer of count records and data's CRC-32."""
    return (data + bytes(4) + count.to_bytes(8, "little")
            + zlib.crc32(data).to_bytes(4, "little"))


def trn_resigned(data):
    """A finalized transcript's bytes under a new trailer that matches them,
    its record count kept."""
    return trn_signed(data[:-16], int.from_bytes(data[-12:-4], "little"))


def trn_file(side, dim, p, records, chunk=1 << 12):
    """A finalized binary transcript of records, chunk records a chunk."""
    chunks = [trn_chunk(records[i:i + chunk]) for i in range(0, len(records), chunk)]
    return trn_signed(trn_header(side, dim, p) + b"".join(chunks), len(records))


@pytest.fixture
def f7():
    return FieldSpec(7)


@pytest.fixture
def f12379():
    return FieldSpec(12379)
