"""Change-of-basis transcripts: elementary operations on disk.

A transcript is an append-only binary file.  It opens with one header line

    smithy-trn/2 SIDE dim p       (SIDE is ROW or COL)

followed by chunks of records, each

    n                 u32, the chunk's record count, 0 < n <= _CHUNK
    a[0], ..., a[n-1] u32 each
    b[0], ..., b[n-1] u32 each
    v[0], ..., v[n-1] u16 each

and, once finalized, the trailer

    0                 u32, where a next chunk's count would stand
    count             u64, the number of records
    crc               u32, the CRC-32 of every byte before the trailer

every number little-endian.  A record (a, b, v) with v = 0 swaps lines a
and b, and one with 0 < v < p adds v times line a to line b; indices are
0-based.  "Line" means row for a ROW transcript and column for a COL
transcript.  The header's tag names this format: a text transcript of an
earlier smithy, whose header has none, is refused with a message that says
to recompute it.
Transcript.append takes each record in the file's own form (a, b, v) and
is the one place that checks it.
Each record stands for the elementary matrix performing that operation on
its side; for a record with matrix E, a ROW transcript represents the
product E0 E1 E2 ... in file order, while a COL transcript represents
... E2 E1 E0 with the first record rightmost.  These are exactly the
accumulation orders produced by a reduction that repeatedly rewrites
A <- E_row^-1 A and A <- A E_col^-1, so replaying a ROW transcript against
the reduced matrix on the left and a COL transcript on the right restores
the original matrix.

append fills three typed arrays and writes them out a chunk at a time,
keeping the CRC as it goes.  A finalized transcript is immutable and is
decoded once: by open, or for one made by create, by its first replay.
The reader takes each chunk's columns straight into typed arrays, checks
their ranges and that no record names one line twice, and checks the
trailer, so a file cut short, damaged or never finalized is refused.  The
decoded records are three parallel arrays (a, b, v), 10 bytes per record.
Every replay walks them forward or through reversed() views, an inverse
negating each scalar as it reads it, so it allocates nothing per record.
trace_lines reads a file through the same checks without keeping its
records, to follow where its swaps move each line and which lines it
writes.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from itertools import compress, count
from operator import eq, neg, not_

from .gfp import FieldSpec
from .sparse import ShapeError, SparseMatrix, axpy

ROW = "ROW"
COL = "COL"

TAG = b"smithy-trn/2"
# records per chunk: what append buffers, and the most a reader takes
_CHUNK = 1 << 12
# the file is little-endian; on a big-endian host the arrays are swapped
_BYTESWAP = sys.byteorder != "little"
_TRAILER = struct.Struct("<IQI")


class TranscriptError(ValueError):
    """Malformed transcript file or record."""


def _columns():
    """Three empty arrays for the a, b and v columns of records."""
    return array("I"), array("I"), array("H")


def _chunks(path, spec: FieldSpec | None):
    """Yield the header (side, dim, spec) of the transcript at path, then
    its records one chunk at a time as arrays (a, b, v).

    A chunk is refused when its count exceeds _CHUNK, before it is read,
    or when a record names a line outside [0, dim) or one line twice, or
    holds a scalar outside [0, p).  Once the last chunk has been taken, the
    trailer's count and CRC-32 must match what came before it, and nothing
    may follow it.  Memory is one chunk, not the file.
    """
    with open(path, "rb") as f:
        header = f.readline(256)
        parts = header.split()
        if len(parts) == 3 and parts[0] in (b"ROW", b"COL"):
            raise TranscriptError("%s is a text transcript from an earlier smithy: "
                                  "recompute it" % path)
        if len(parts) != 4 or parts[0] != TAG or parts[1] not in (b"ROW", b"COL"):
            raise TranscriptError("bad header %r" % header)
        side = parts[1].decode()
        try:
            dim, p = int(parts[2]), int(parts[3])
        except ValueError:
            dim = -1  # refused with the negative ones
        if dim < 0:
            raise TranscriptError("bad header %r" % header)
        file_spec = FieldSpec(p)
        if spec is not None and spec.p != p:
            raise TranscriptError("modulus %d does not match expected %d" % (p, spec.p))
        yield side, dim, file_spec
        crc = zlib.crc32(header)
        records = 0
        short = "%s has no trailer: it was cut short or never finalized" % path
        while True:
            head = f.read(4)
            if len(head) < 4:
                raise TranscriptError(short)
            n = int.from_bytes(head, "little")
            if not n:
                break
            if n > _CHUNK:
                raise TranscriptError("%s: a chunk of %d records, above the limit of %d"
                                      % (path, n, _CHUNK))
            body = f.read(10 * n)
            if len(body) < 10 * n:
                raise TranscriptError(short)
            crc = zlib.crc32(body, zlib.crc32(head, crc))
            cols = a, b, v = _columns()
            view = memoryview(body)
            a.frombytes(view[:4 * n])
            b.frombytes(view[4 * n:8 * n])
            v.frombytes(view[8 * n:])
            if _BYTESWAP:
                for col in cols:
                    col.byteswap()
            if max(a) >= dim or max(b) >= dim or max(v) >= p:
                raise TranscriptError("%s: a record exceeds dimension %d or modulus %d"
                                      % (path, dim, p))
            if any(map(eq, a, b)):
                raise TranscriptError("%s: a swap or transvection names one line "
                                      "twice" % path)
            records += n
            yield cols
        trailer = head + f.read(_TRAILER.size - 4)
        if trailer != _TRAILER.pack(0, records, crc):
            raise TranscriptError("%s: trailer %r does not match %d records with "
                                  "CRC-32 %d" % (path, trailer, records, crc))
        if f.read(1):
            raise TranscriptError("%s: bytes after the trailer" % path)


def _decode(path, spec: FieldSpec | None = None):
    """Read a transcript file into (side, dim, spec, ops), ops being its
    records as parallel arrays (a, b, v), v = 0 for a swap: the header and
    then every chunk of _chunks."""
    chunks = _chunks(path, spec)
    header = next(chunks)
    ops = _columns()
    for cols in chunks:
        for whole, col in zip(ops, cols):
            whole.extend(col)
    return (*header, ops)


def trace_lines(path, side: str, dim: int, spec: FieldSpec):
    """Follow the lines of the side, dim transcript at path through its
    records in file order, in one pass over its chunks: (src, written),
    where line i ends up holding the original line src[i], and written[i]
    is 1 when a transvection wrote it on the way (the line it names
    first).

    The file is checked as by open, but its records are not kept.  Between
    two swaps the written lines form a set, so a run of records is marked
    by the set of its a's, one line for nearly every run of a reduction.
    The lines are allocated only once the header matches side and dim.
    """
    chunks = _chunks(path, spec)
    file_side, file_dim, _ = next(chunks)
    if (file_side, file_dim) != (side, dim):
        chunks.close()
        raise TranscriptError("%s: header says %s %d, expected %s %d"
                              % (path, file_side, file_dim, side, dim))
    src = list(range(dim))
    written = bytearray(dim)
    for a, b, v in chunks:
        start = 0
        for s in compress(count(), map(not_, v)):
            for i in set(a[start:s]):
                written[i] = 1
            x, y = a[s], b[s]
            src[x], src[y] = src[y], src[x]
            written[x], written[y] = written[y], written[x]
            start = s + 1
        for i in set(a[start:]):
            written[i] = 1
    return src, written


def _run_col_ops(target: SparseMatrix, ops) -> None:
    """Apply _replay's (src, dst, v) column operations, which _decode
    checked, to target's columns: a nonzero v, of either sign, adds
    v*cols[src] to cols[dst], and v = 0 swaps two slots."""
    cols, spec = target.cols, target.spec
    for src, dst, v in ops:
        if v:
            cols[dst] = axpy(cols[dst], cols[src], v, spec)
        else:
            cols[src], cols[dst] = cols[dst], cols[src]


class Transcript:
    """One side of a change of basis, as a file of elementary ops."""

    def __init__(self, path, side: str, dim: int, spec: FieldSpec, _ops=None):
        if side not in (ROW, COL):
            raise ValueError("side must be ROW or COL")
        self.path = str(path)
        self.side = side
        self.dim = dim
        self.spec = spec
        self._writer = None
        self._ops = _ops  # the decoded (a, b, v) arrays
        self._count = len(_ops[0]) if _ops else 0  # records decoded or written out
        self._chunk = _columns()  # records appended but not yet written out

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, path, side: str, dim: int, spec: FieldSpec) -> "Transcript":
        if not 0 <= dim <= 1 << 32:
            raise ValueError("a transcript's dimension must lie in [0, 2**32]")
        tr = cls(path, side, dim, spec)
        header = b"%s %s %d %d\n" % (TAG, side.encode(), dim, spec.p)
        tr._writer = open(path, "wb")
        tr._writer.write(header)
        tr._crc = zlib.crc32(header)
        return tr

    @classmethod
    def open(cls, path, spec: FieldSpec | None = None) -> "Transcript":
        side, dim, file_spec, ops = _decode(path, spec)
        return cls(path, side, dim, file_spec, _ops=ops)

    def append(self, a: int, b: int, v: int) -> None:
        """Take one record (a, b, v) once it checks: a and b are two lines
        in [0, dim), and v, 0 for a swap, lies in [0, p)."""
        if self._writer is None:
            raise TranscriptError("transcript is finalized")
        dim = self.dim
        if not (0 <= a < dim and 0 <= b < dim and a != b and 0 <= v < self.spec.p):
            raise TranscriptError("bad record %r for dimension %s and modulus %s"
                                  % ((a, b, v), dim, self.spec.p))
        la, lb, lv = self._chunk
        la.append(a)
        lb.append(b)
        lv.append(v)
        if len(lv) == _CHUNK:
            self._flush()

    def _flush(self) -> None:
        """Write the buffered records as one chunk and empty the buffer."""
        cols = self._chunk
        if _BYTESWAP:
            for col in cols:
                col.byteswap()
        data = len(cols[2]).to_bytes(4, "little") + b"".join(map(bytes, cols))
        self._crc = zlib.crc32(data, self._crc)
        self._writer.write(data)
        self._count += len(cols[2])
        self._chunk = _columns()

    def finalize(self) -> "Transcript":
        """Write the buffered records and close the file with its trailer:
        the record count and the CRC-32 of every byte before it.  The file
        is closed even when a write fails."""
        if self._writer is not None:
            try:
                if self._chunk[2]:
                    self._flush()
                self._writer.write(_TRAILER.pack(0, self._count, self._crc))
            finally:
                self.abandon()
        return self

    def abandon(self) -> None:
        """Close the file without a trailer, so that it never decodes."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __len__(self) -> int:
        return self._count + len(self._chunk[2])

    # -- records -------------------------------------------------------------

    def records(self):
        """The records (a, b, v) in file order; this and records_reversed
        are the views perfbench/tracing.py times as decode."""
        return zip(*self.decoded())

    def records_reversed(self):
        return zip(*map(reversed, self.decoded()))

    def decoded(self):
        """The records as the parallel arrays (a, b, v) of _decode,
        decoded from the file on first use."""
        if self._writer is not None:
            raise TranscriptError("transcript is still being written")
        if self._ops is None:
            self._ops = _decode(self.path, self.spec)[3]
        return self._ops

    def _replay(self, left: bool, inverse: bool):
        """The records as lazy (src, dst, v) column operations, v = 0 for a
        swap, that multiply a target by M (or M^-1) on the left or right.
        A ROW record applied on the right, or a COL record on the left,
        exchanges the roles of a and b in (a, b, v) (col[b] += v*col[a])
        and walks the file forward; the inverse walks it the other way,
        reading -v for p - v, so nothing is built per record."""
        a, b, v = self.decoded()
        flip = (self.side == COL) == left
        if flip:
            a, b = b, a
        if flip == inverse:
            a, b, v = reversed(a), reversed(b), reversed(v)
        return zip(a, b, map(neg, v) if inverse else v)

    # -- application --------------------------------------------------------

    def apply_vec(self, x: list[int], inverse: bool = False) -> list[int]:
        """x <- M x (or M^-1 x), mutating and returning the list x."""
        if len(x) != self.dim:
            raise ShapeError("vector length %d, transcript dimension %d" % (len(x), self.dim))
        p = self.spec.p
        for src, dst, v in self._replay(True, inverse):
            if v:
                x[dst] = (x[dst] + v * x[src]) % p
            else:
                x[src], x[dst] = x[dst], x[src]
        return x

    def apply_mat_left(self, a: SparseMatrix, inverse: bool = False) -> SparseMatrix:
        """Return M a (or M^-1 a); the input matrix is left untouched.

        Works on the transpose so each record touches at most two columns.
        """
        if a.m != self.dim:
            raise ShapeError("matrix has %d rows, transcript dimension %d" % (a.m, self.dim))
        w = a.transpose()
        _run_col_ops(w, self._replay(True, inverse))
        return w.transpose()

    def apply_mat_right(self, a: SparseMatrix, inverse: bool = False) -> SparseMatrix:
        """a <- a M (or a M^-1), mutating and returning the given matrix."""
        if a.n != self.dim:
            raise ShapeError("matrix has %d columns, transcript dimension %d" % (a.n, self.dim))
        _run_col_ops(a, self._replay(False, inverse))
        return a
