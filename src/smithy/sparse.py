"""Column-major sparse matrices over GF(p) and their text format.

A column is a Python list of packed entries i << k | v (see gfp),
strictly increasing in row index, never storing zeros.  The matrix keeps
only its columns; nnz is counted from them when read.  The row pattern and
the pivot keys that Markowitz pivoting needs are built and maintained by
the reduction engine (reduce._Engine), the only code that pivots.

A matrix changes only by whole-column replacement: set_col, or an
assignment to cols[j] inside the library (the reduction engine, which owns
the matrix while it reduces it, also edits its columns in place).  No
elementary operation is a method: transcript replay applies each to the
columns with axpy, and a row operation is a column operation on the
transpose.

The text format is a header line "m n p", one line "i j v" per entry
(1-based indices, 0 < v < p, any order), the terminator "0 0 0" and nothing
after it but blank lines.  This module alone reads and writes it.  It reads
bytes, so a field that is not an ASCII integer fails at its line, in the one
reader (_read_header, _read_runs) of read_matrix, read_header and the spill.
The reader takes the entry lines a 64 KiB block at a time: a block of the
lines this module writes, "i j v" with single spaces and LF, is parsed by
one json.loads, and any other block a line at a time; both feed one loop of
checks, so every layout meets the same checks at the same lines.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain, count

from .gfp import FieldSpec


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries the offending 1-based line number and
    the message without it, for a caller that re-raises with its context."""

    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no
        self.message = message


def axpy(dst: list[int], src: list[int], s: int, spec: FieldSpec) -> list[int]:
    """Return dst + s*src as a new packed list (single merge pass).

    Entries present in both vectors may cancel; an entry scaled by a nonzero
    s never vanishes on its own since GF(p) has no zero divisors.
    """
    p = spec.p
    k = spec.k
    mask = spec.mask
    s %= p
    if s == 0 or not src:
        return list(dst)
    if not dst:
        return [(e >> k) << k | (e & mask) * s % p for e in src]
    out: list[int] = []
    append = out.append
    na, nb = len(dst), len(src)
    ap = bp = 0
    ea, eb = dst[0], src[0]
    while True:
        ra, rb = ea >> k, eb >> k
        if ra < rb:
            append(ea)
            ap += 1
            if ap == na:
                break
            ea = dst[ap]
        elif ra > rb:
            append(rb << k | (eb & mask) * s % p)
            bp += 1
            if bp == nb:
                break
            eb = src[bp]
        else:
            v = ((ea & mask) + (eb & mask) * s) % p
            if v:
                append(ra << k | v)
            ap += 1
            bp += 1
            if ap == na or bp == nb:
                break
            ea, eb = dst[ap], src[bp]
    if ap < na:
        out.extend(dst[ap:])
    else:
        while bp < nb:
            eb = src[bp]
            append((eb >> k) << k | (eb & mask) * s % p)
            bp += 1
    return out


class SparseMatrix:
    """m x n matrix over GF(p), columns stored as sorted packed lists."""

    __slots__ = ("m", "n", "spec", "cols")

    def __init__(self, m: int, n: int, spec: FieldSpec):
        if m < 0 or n < 0:
            raise ShapeError("negative dimension")
        self.m = m
        self.n = n
        self.spec = spec
        self.cols: list[list[int]] = [[] for _ in range(n)]

    @property
    def nnz(self) -> int:
        """The number of stored entries, counted: O(n)."""
        return sum(map(len, self.cols))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dense(cls, rows, spec: FieldSpec) -> "SparseMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(row) != n for row in rows):
            raise ShapeError("ragged rows")
        a = cls(m, n, spec)
        k, p = spec.k, spec.p
        for j in range(n):
            a.set_col(j, [i << k | v for i, v in enumerate(row[j] % p for row in rows) if v])
        return a

    # -- element access ------------------------------------------------------

    def set_col(self, j: int, new: list[int]) -> None:
        """Replace column j with a sorted packed list."""
        self.cols[j] = new

    def dense_col(self, j: int) -> list[int]:
        """Column j as a dense list of length m."""
        k, mask = self.spec.k, self.spec.mask
        out = [0] * self.m
        for e in self.cols[j]:
            out[e >> k] = e & mask
        return out

    def entries(self):
        """Yield (i, j, v) column-major, rows ascending within a column."""
        k = self.spec.k
        mask = self.spec.mask
        for j, col in enumerate(self.cols):
            for e in col:
                yield e >> k, j, e & mask

    # -- whole-matrix operations ----------------------------------------------

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.n, self.m, self.spec)
        k = self.spec.k
        mask = self.spec.mask
        tcols = t.cols
        for j, col in enumerate(self.cols):
            jk = j << k
            for e in col:
                tcols[e >> k].append(jk | (e & mask))
        # source columns ascend in j, so each target column is already sorted
        return t

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.n for _ in range(self.m)]
        for i, j, v in self.entries():
            out[i][j] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.m, self.n, self.spec.p) == (other.m, other.n, other.spec.p) and self.cols == other.cols

    def check(self) -> None:
        """Validate every structural invariant: the tests and the engine's
        paranoid recheck call it."""
        assert len(self.cols) == self.n
        k = self.spec.k
        mask = self.spec.mask
        for j, col in enumerate(self.cols):
            prev = -1
            for e in col:
                i, v = e >> k, e & mask
                assert prev < i, "rows not strictly increasing in column %d" % j
                assert 0 < v < self.spec.p, "stored zero or out-of-range value"
                assert i < self.m
                prev = i


# -- text interchange format ----------------------------------------------

# The reader's block size: 256 KiB and 1 MiB blocks were slower and held
# more memory.
_BLOCK = 1 << 16
# The longest line the reader takes, its line break counted: a longer one,
# header or entry, blank or not, is refused at its line.  _BLOCK must not
# exceed it, since _blocks checks only a line that runs into the next block.
_LINE = 1 << 16
_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")


def _write_entries(f, m: int, n: int, p: int, entries) -> None:
    """Write the header, the 0-based (i, j, v) entries and the terminator."""
    f.write("%d %d %d\n" % (m, n, p))
    f.writelines("%d %d %d\n" % (i + 1, j + 1, v) for i, j, v in entries)
    f.write("0 0 0\n")


def _read_header(f) -> tuple[int, int, int, int]:
    """The header (line_no, m, n, p) of the binary file f, left just after
    the header line."""
    line_no = 0
    for line_no, line in enumerate(iter(lambda: f.readline(_LINE), b""), 1):
        if len(line) == _LINE and not line.endswith(b"\n"):
            raise MatrixFormatError(line_no, "line longer than %d bytes" % _LINE)
        header = line.split()
        if header:
            break
    else:
        raise MatrixFormatError(line_no + 1, "missing header")
    try:
        m, n, p = map(int, header)
    except ValueError:
        raise MatrixFormatError(line_no, "header must be 'm n p'" if len(header) != 3
                                else "non-integer header field") from None
    if m < 0 or n < 0:
        raise MatrixFormatError(line_no, "negative dimension in header")
    return line_no, m, n, p


def _blocks(f, first: int):
    """Yield (first, block) for the rest of the binary file f: blocks of
    whole lines of about _BLOCK bytes, the first line of each numbered
    first.  A last line without a newline gets one.  A line longer than
    _LINE raises MatrixFormatError once the lines before it are yielded."""
    rest = b""
    while True:
        chunk = f.read(_BLOCK)
        # only the line that rest begins can be longer than a block
        end = chunk.find(b"\n")
        if len(rest) + (end if end >= 0 else len(chunk)) >= _LINE:
            raise MatrixFormatError(first, "line longer than %d bytes" % _LINE)
        if not chunk:
            if rest:
                yield first, rest + b"\n"
            return
        buf = rest + chunk
        cut = buf.rfind(b"\n") + 1
        block, rest = buf[:cut], buf[cut:]
        if block:
            yield first, block
            first += block.count(b"\n")


def _entries(block: bytes, first: int):
    """(line_no, i, j, v) for each entry line of a block from _blocks whose
    first line is numbered first.

    A block of canonical lines, "i j v" in decimal with single spaces and
    LF as _write_entries writes them, gets all its numbers from one
    json.loads, each line numbered first plus its offset.  Deleting the
    digits leaves "  \\n" per line exactly when every line is digits,
    space, digits, space, digits, and JSON refuses an empty field and a
    leading zero.  Any other block is split into lines and read by int a
    line at a time, lazily; a line that is neither blank nor three integers
    raises MatrixFormatError."""
    if block.translate(None, _DIGITS) == b"  \n" * block.count(b"\n"):
        try:
            nums = json.loads(b"[%b]" % block[:-1].translate(_COMMAS))
        except ValueError:  # an empty field, a leading zero, too many digits
            pass
        else:
            it = iter(nums)
            return zip(count(first), it, it, it)
    return _tokenize(block, first)


def _tokenize(block: bytes, first: int):
    for line_no, line in enumerate(block.split(b"\n"), first):
        parts = line.split()
        try:
            i, j, v = parts
            entry = line_no, int(i), int(j), int(v)
        except ValueError:
            if not parts:
                continue
            raise MatrixFormatError(line_no, "entry must be 'i j v'" if len(parts) != 3
                                    else "non-integer entry field") from None
        yield entry


def _check_after_terminator(blocks) -> None:
    """Raise MatrixFormatError at the first line of blocks, (first, block)
    pairs, that is not blank."""
    for first, block in blocks:
        for line_no, line in enumerate(block.split(b"\n"), first):
            if line.split():
                raise MatrixFormatError(line_no, "content after the '0 0 0' terminator")


def _read_runs(f, header, k: int, cols: list[list[int]] | None = None):
    """Yield each maximal run of entry lines in one column, from the binary
    file f after header = _read_header(f) up to the terminator, as (j, col):
    its 1-based column and its sorted packed list, cols[j - 1] if cols is
    given (it may hold an earlier run of j), else a new list, and then each
    column must come in one run, ascending.

    The file is read a block of whole lines at a time, so memory holds one
    block besides the columns, and the entries of every block go through
    one loop.  An entry that continues the run with a higher row costs one
    range compare and one append; any other takes every check, and a fault
    raises MatrixFormatError at its line."""
    line_no, m, n, p = header
    first, block = line_no + 1, b""
    blocks = _blocks(f, first)
    jcur, last = 0, m  # last: the run's last 1-based row; none yet, no fast path
    for first, block in blocks:
        for line_no, i, j, v in _entries(block, first):
            if j == jcur and last < i <= m and 0 < v < p:
                append((i - 1) << k | v)
                last = i
                continue
            if not (1 <= i <= m and 1 <= j <= n):
                if i == j == v == 0:
                    after = block.split(b"\n", line_no + 1 - first)[-1]
                    _check_after_terminator(chain([(line_no + 1, after)], blocks))
                    if jcur:
                        yield jcur, col
                    return
                raise MatrixFormatError(line_no, "index (%d, %d) outside %dx%d" % (i, j, m, n))
            if not 0 < v < p:
                raise MatrixFormatError(line_no, "value %d outside [1, %d)" % (v, p))
            if j != jcur:
                if cols is None and j < jcur:
                    raise MatrixFormatError(line_no, "column %d after column %d" % (j, jcur))
                if jcur:
                    yield jcur, col
                jcur = j
                col = [] if cols is None else cols[j - 1]
                append = col.append
            if not col:
                append((i - 1) << k | v)
                last = i
                continue
            idx = bisect_left(col, (i - 1) << k)
            if idx < len(col) and col[idx] >> k == i - 1:
                raise MatrixFormatError(line_no, "duplicate entry (%d, %d)" % (i, j))
            col.insert(idx, (i - 1) << k | v)
            last = (col[-1] >> k) + 1
    raise MatrixFormatError(first + block.count(b"\n"), "missing '0 0 0' terminator")


def write_matrix(a: SparseMatrix, path) -> None:
    with open(path, "w", newline="\n") as f:
        _write_entries(f, a.m, a.n, a.spec.p, a.entries())


def read_header(path) -> tuple[int, int, int]:
    """The header (m, n, p) of the matrix file at path; nothing after it is
    parsed."""
    with open(path, "rb") as f:
        return _read_header(f)[1:]


def read_matrix(path, spec: FieldSpec | None = None) -> SparseMatrix:
    """Parse the matrix file at path, whose modulus must be spec's if spec is
    given; raises MatrixFormatError with a line number."""
    with open(path, "rb") as f:
        header = line_no, m, n, p = _read_header(f)
        if spec is not None and spec.p != p:
            raise MatrixFormatError(line_no, "modulus %d does not match expected %d" % (p, spec.p))
        try:
            spec = spec or FieldSpec(p)
        except ValueError as exc:
            raise MatrixFormatError(line_no, str(exc)) from None
        a = SparseMatrix(m, n, spec)
        for _ in _read_runs(f, header, spec.k, a.cols):
            pass
        return a
