"""Change-of-basis transcripts: elementary operations on disk.

A transcript is an append-only text file holding one header line

    SIDE dim p        (SIDE is ROW or COL)

followed by one record per elementary operation, 0-based indices:

    S a b             swap lines a and b
    T a b v           add v times line a to line b   (0 < v < p)

and, once finalized, one trailer line

    E count crc       the number of records and the CRC-32 of every
                      byte before this line

"Line" means row for a ROW transcript and column for a COL transcript.
Transcript.append takes each record as a plain (kind, a, b, v) tuple, v
None for a swap, and is the one place that checks it; records() and
records_reversed() give them back in that form.
Each record stands for the elementary matrix performing that operation on
its side; for a record with matrix E, a ROW transcript represents the
product E0 E1 E2 ... in file order, while a COL transcript represents
... E2 E1 E0 with the first record rightmost.  These are exactly the
accumulation orders produced by a reduction that repeatedly rewrites
A <- E_row^-1 A and A <- A E_col^-1, so replaying a ROW transcript against
the reduced matrix on the left and a COL transcript on the right restores
the original matrix.

A finalized transcript is immutable and is decoded once: by open, or for
one made by create, by its first replay.  The decoder checks the trailer,
so a file cut short, damaged or never finalized is refused, and parses
the records straight into three parallel typed arrays (a, b, v), 10 bytes
per record, v = 0 marking a swap, whose ranges it checks once per array.
Every replay walks those arrays forward or through reversed() views, an
inverse negating each scalar as it reads it, so it allocates nothing per
record.
trace_lines reads a file through the same trailer check without decoding
it, to follow where its swaps move each line and which lines it writes.
"""

from __future__ import annotations

import re
import zlib
from array import array
from operator import eq, neg

from .gfp import FieldSpec
from .sparse import ShapeError, SparseMatrix, axpy

ROW = "ROW"
COL = "COL"


class TranscriptError(ValueError):
    """Malformed transcript file or record."""


_CHUNK = 1 << 16


def _parse(body: bytes, ops) -> None:
    """Append the records of body, whole lines, to the arrays ops = (a, b,
    v), checking only each record's shape: a swap gets v = 0, and a T
    record with scalar 0 is refused, so v alone tells the kinds apart.  A
    blank line is refused.  A negative index or scalar does not fit its
    unsigned array and is refused here; every refusal names its record."""
    la, lb, val = ops
    aa, ba, va = la.append, lb.append, val.append
    lines = body.split(b"\n")
    lines.pop()  # the empty piece after body's final newline
    try:
        for raw in lines:
            parts = raw.split()
            n = len(parts)
            if n == 4 and parts[0] == b"T":
                v = int(parts[3])
                if not v:
                    raise TranscriptError("a transvection has scalar 0")
            elif n == 3 and parts[0] == b"S":
                v = 0
            else:
                raise TranscriptError("unrecognized %r" % raw.strip())
            aa(int(parts[1]))
            ba(int(parts[2]))
            va(v)
    except (ValueError, OverflowError) as exc:
        raise TranscriptError("record %d: %s" % (len(val) + 1, exc)) from None


def _stream(path, spec: FieldSpec | None, begin):
    """Pass the records of the transcript at path in chunks of whole lines
    to the consumer that begin(side, dim, spec), called once the header is
    read, returns, and return that header.

    Each record is one line, so the record count is the number of
    newlines before the trailer.  That count and the CRC-32 of every byte
    before the trailer must be what the trailer says, and nothing may
    follow it.  No record holds an "E", so the first one starts the
    trailer, and a record that runs into it is refused.  Memory is one
    chunk, not the file.
    """
    with open(path, "rb") as f:
        header = f.readline()
        parts = header.split()
        if len(parts) != 3 or parts[0] not in (b"ROW", b"COL"):
            raise TranscriptError("bad header %r" % header)
        side = parts[0].decode()
        try:
            dim, p = int(parts[1]), int(parts[2])
        except ValueError:
            dim = -1  # refused with the negative ones
        if dim < 0:
            raise TranscriptError("bad header %r" % header)
        file_spec = FieldSpec(p)
        if spec is not None and spec.p != p:
            raise TranscriptError("modulus %d does not match expected %d" % (p, spec.p))
        consume = begin(side, dim, file_spec)
        crc = zlib.crc32(header)
        count = 0
        rest = b""
        while True:
            chunk = f.read(_CHUNK)
            buf = rest + chunk
            cut = buf.find(b"E")
            if cut < 0:
                if not chunk:
                    raise TranscriptError("%s has no trailer: it was cut short or "
                                          "never finalized" % path)
                cut = buf.rfind(b"\n") + 1
            body, rest = buf[:cut], buf[cut:]
            done = rest.startswith(b"E")
            if done and body[-1:] not in (b"", b"\n"):
                raise TranscriptError("%s: a record runs into the trailer" % path)
            crc = zlib.crc32(body, crc)
            count += body.count(b"\n")
            consume(body)
            if done:
                break
        trailer, end, after = (rest + f.readline()).partition(b"\n")
        if trailer + end != b"E %d %d\n" % (count, crc):
            raise TranscriptError("%s: trailer %r does not match %d records "
                                  "with CRC-32 %d" % (path, trailer + end, count, crc))
        if after or f.read(1):
            raise TranscriptError("%s: bytes after the trailer" % path)
    return side, dim, file_spec


def _decode(path, spec: FieldSpec | None = None):
    """Read a transcript file into (side, dim, spec, ops), ops being the
    records as parallel arrays (a, b, v), v = 0 for a swap; see _parse.
    The ranges of indices and scalars are checked once per array at the end.
    """
    ops = la, lb, val = array("I"), array("I"), array("H")
    side, dim, file_spec = _stream(path, spec, lambda *header: lambda body: _parse(body, ops))
    p = file_spec.p
    if la and (max(la) >= dim or max(lb) >= dim or max(val) >= p):
        raise TranscriptError("%s: a record exceeds dimension %d or modulus %d"
                              % (path, dim, p))
    if any(map(eq, la, lb)):
        raise TranscriptError("%s: a swap or transvection names one line twice" % path)
    return side, dim, file_spec, ops


_SWAP = re.compile(rb"\nS (\d+) (\d+)(?=\n)")
_WRITE = re.compile(rb"T (\d+) ")


def trace_lines(path, side: str, dim: int, spec: FieldSpec):
    """Follow the lines of the side, dim transcript at path through its
    records in file order, in one pass over its bytes: (src, written), where
    line i ends up holding the original line src[i], and written[i] is 1
    when a T record wrote it on the way (the line such a record names
    first).

    The header, the trailer's count and the CRC-32 are checked as by open,
    but of a record only its kind and the lines it swaps or writes are
    read: append checked the rest when the file was written, and the CRC
    has covered it since.  Between two swaps the written lines form a set,
    so a run of records that all write one line, as over 99% of the runs
    in a torus slice's Q5 do, is checked by counting that line's records
    in the run instead of matching each one.  The lines are allocated
    only once the header matches side and dim.
    """
    src = written = None

    def begin(file_side: str, file_dim: int, _):
        nonlocal src, written
        if (file_side, file_dim) != (side, dim):
            raise TranscriptError("%s: header says %s %d, expected %s %d"
                                  % (path, file_side, file_dim, side, dim))
        src = list(range(dim))
        written = bytearray(dim)
        return scan

    def line(x: bytes) -> int:
        i = int(x)
        if i >= dim:
            raise TranscriptError("%s: a record names line %d of %d" % (path, i, dim))
        return i

    def mark(buf: bytes, start: int, stop: int) -> None:
        """Mark the lines that the records in buf[start:stop], each after
        a newline, write."""
        m = _WRITE.match(buf, start + 1)
        if m is not None:
            x = m[1]
            if buf.count(b"\nT %s " % x, start, stop) == buf.count(b"\n", start, stop):
                written[line(x)] = 1
                return
        for record in buf[start + 1:stop].split(b"\n"):
            m = _WRITE.match(record)
            if m is None:
                raise TranscriptError("%s: unrecognized %r" % (path, record))
            written[line(m[1])] = 1

    def scan(body: bytes) -> None:
        buf = b"\n" + body
        start = 0
        for m in _SWAP.finditer(buf):
            if m.start() > start:
                mark(buf, start, m.start())
            a, b = line(m[1]), line(m[2])
            src[a], src[b] = src[b], src[a]
            written[a], written[b] = written[b], written[a]
            start = m.end()
        if len(buf) - 1 > start:
            mark(buf, start, len(buf) - 1)

    _stream(path, spec, begin)
    return src, written


def _op(a: int, b: int, v: int) -> tuple:
    """A decoded record as the (kind, a, b, v) tuple that append takes."""
    return ("T", a, b, v) if v else ("S", a, b, None)


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

    def __init__(self, path, side: str, dim: int, spec: FieldSpec, _writer=None, _ops=None):
        if side not in (ROW, COL):
            raise ValueError("side must be ROW or COL")
        self.path = str(path)
        self.side = side
        self.dim = dim
        self.spec = spec
        self._writer = _writer
        self._ops = _ops  # the decoded (a, b, v) arrays
        self._count = len(_ops[0]) if _ops else 0

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, path, side: str, dim: int, spec: FieldSpec) -> "Transcript":
        f = open(path, "w", newline="\n")
        f.write("%s %d %d\n" % (side, dim, spec.p))
        return cls(path, side, dim, spec, _writer=f)

    @classmethod
    def open(cls, path, spec: FieldSpec | None = None) -> "Transcript":
        side, dim, file_spec, ops = _decode(path, spec)
        return cls(path, side, dim, file_spec, _ops=ops)

    def append(self, op) -> None:
        """Write one (kind, a, b, v) record once it checks: a and b are two
        lines in [0, dim), and v is None for S and in (0, p) for T."""
        w = self._writer
        if w is None:
            raise TranscriptError("transcript is finalized")
        kind, a, b, v = op
        dim = self.dim
        if kind == "T":
            if 0 <= a < dim and 0 <= b < dim and a != b and 0 < v < self.spec.p:
                w.write("T %d %d %d\n" % (a, b, v))
                self._count += 1
                return
        elif kind == "S":
            if 0 <= a < dim and 0 <= b < dim and a != b and v is None:
                w.write("S %d %d\n" % (a, b))
                self._count += 1
                return
        else:
            raise TranscriptError("unknown op kind %r" % (kind,))
        raise TranscriptError("bad record %r for dimension %s and modulus %s"
                              % (op, dim, self.spec.p))

    def finalize(self) -> "Transcript":
        """Close the file with its trailer line: the record count and the
        CRC-32 of every byte before it."""
        if self._writer is not None:
            self._writer.flush()
            crc = 0
            with open(self.path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 16), b""):
                    crc = zlib.crc32(chunk, crc)
            self._writer.write("E %d %d\n" % (self._count, crc))
            self.abandon()
        return self

    def abandon(self) -> None:
        """Close the file without a trailer, so that it never decodes."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __len__(self) -> int:
        return self._count

    # -- records -------------------------------------------------------------

    def records(self):
        """The (kind, a, b, v) records in file order."""
        return map(_op, *self.decoded())

    def records_reversed(self):
        return map(_op, *map(reversed, self.decoded()))

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
        exchanges the roles of T a b v (col[b] += v*col[a]) and walks the
        file forward; the inverse walks it the other way, reading -v for
        p - v, so nothing is built per record."""
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
