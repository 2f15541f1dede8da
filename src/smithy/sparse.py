"""Column-major sparse matrices over GF(p).

A column is a Python list of packed entries (see gfp.FieldSpec.pack),
strictly increasing in row index, never storing zeros.  The matrix keeps
only its columns and the total nonzero count.  Per-row and per-column
counts and the row pattern that Markowitz pivoting needs are built and
maintained by the reduction engine (reduce._Engine), the only code that
pivots.

Only column operations are offered.  Row operations are column
operations on the transpose: transpose, apply them, transpose back.
"""

from __future__ import annotations

from bisect import bisect_left

from .gfp import FieldSpec


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


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

    __slots__ = ("m", "n", "spec", "cols", "nnz")

    def __init__(self, m: int, n: int, spec: FieldSpec):
        if m < 0 or n < 0:
            raise ShapeError("negative dimension")
        self.m = m
        self.n = n
        self.spec = spec
        self.cols: list[list[int]] = [[] for _ in range(n)]
        self.nnz = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dense(cls, rows, spec: FieldSpec) -> "SparseMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        a = cls(m, n, spec)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ShapeError("ragged rows")
            for j, v in enumerate(row):
                v %= spec.p
                if v:
                    a.set(i, j, v)
        return a

    @classmethod
    def identity(cls, n: int, spec: FieldSpec) -> "SparseMatrix":
        a = cls(n, n, spec)
        for i in range(n):
            a.set(i, i, 1)
        return a

    def copy(self) -> "SparseMatrix":
        a = SparseMatrix(self.m, self.n, self.spec)
        a.cols = [list(c) for c in self.cols]
        a.nnz = self.nnz
        return a

    # -- element access ------------------------------------------------------

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError("index (%d, %d) outside %dx%d" % (i, j, self.m, self.n))

    def get(self, i: int, j: int) -> int:
        self._check_index(i, j)
        col = self.cols[j]
        k = self.spec.k
        idx = bisect_left(col, i << k)
        if idx < len(col) and col[idx] >> k == i:
            return col[idx] & self.spec.mask
        return 0

    def set(self, i: int, j: int, v: int) -> None:
        """Write entry (i, j); v == 0 deletes."""
        self._check_index(i, j)
        v %= self.spec.p
        col = self.cols[j]
        k = self.spec.k
        idx = bisect_left(col, i << k)
        present = idx < len(col) and col[idx] >> k == i
        if v:
            if present:
                col[idx] = i << k | v
            else:
                col.insert(idx, i << k | v)
                self.nnz += 1
        elif present:
            del col[idx]
            self.nnz -= 1

    def set_col(self, j: int, new: list[int]) -> None:
        """Replace column j with a sorted packed list."""
        self.nnz += len(new) - len(self.cols[j])
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

    # -- elementary operations ------------------------------------------------

    def swap_cols(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("swap needs distinct columns")
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError("column swap (%d, %d) outside %d columns" % (a, b, self.n))
        self.cols[a], self.cols[b] = self.cols[b], self.cols[a]

    def add_col_multiple(self, src: int, dst: int, s: int) -> None:
        """col[dst] += s * col[src]."""
        if src == dst:
            raise ValueError("transvection needs distinct columns")
        self.set_col(dst, axpy(self.cols[dst], self.cols[src], s, self.spec))

    def scale_col(self, j: int, u: int) -> None:
        u %= self.spec.p
        if u == 0:
            raise ValueError("dilation scalar must be nonzero")
        k = self.spec.k
        mask = self.spec.mask
        p = self.spec.p
        self.cols[j] = [(e >> k) << k | (e & mask) * u % p for e in self.cols[j]]

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
        t.nnz = self.nnz
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
        """Validate every structural invariant; cheap insurance in tests."""
        assert len(self.cols) == self.n
        k = self.spec.k
        mask = self.spec.mask
        total = 0
        for j, col in enumerate(self.cols):
            prev = -1
            for e in col:
                i, v = e >> k, e & mask
                assert prev < i, "rows not strictly increasing in column %d" % j
                assert 0 < v < self.spec.p, "stored zero or out-of-range value"
                assert i < self.m
                prev = i
                total += 1
        assert total == self.nnz


# -- text interchange format ----------------------------------------------
#
# header line:  m n p
# entry lines:  i j v      (1-based indices, 0 < v < p, any order)
# terminator:   0 0 0


def write_matrix(a: SparseMatrix, path_or_file) -> None:
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    f = open(path_or_file, "w") if own else path_or_file
    try:
        f.write("%d %d %d\n" % (a.m, a.n, a.spec.p))
        for i, j, v in a.entries():
            f.write("%d %d %d\n" % (i + 1, j + 1, v))
        f.write("0 0 0\n")
    finally:
        if own:
            f.close()


def read_matrix(path_or_file, spec: FieldSpec | None = None) -> SparseMatrix:
    """Parse the text format; raises MatrixFormatError with a line number.

    When spec is given the file's modulus must match it.
    """
    own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    f = open(path_or_file) if own else path_or_file
    try:
        return _read_matrix_stream(f, spec)
    finally:
        if own:
            f.close()


def _read_matrix_stream(f, spec: FieldSpec | None) -> SparseMatrix:
    line_no = 0
    header = None
    while header is None:
        line = f.readline()
        line_no += 1
        if not line:
            raise MatrixFormatError(line_no, "missing header")
        if line.strip():
            header = line.split()
    if len(header) != 3:
        raise MatrixFormatError(line_no, "header must be 'm n p'")
    try:
        m, n, p = (int(t) for t in header)
    except ValueError:
        raise MatrixFormatError(line_no, "non-integer header field") from None
    try:
        file_spec = FieldSpec(p)
    except ValueError as exc:
        raise MatrixFormatError(line_no, str(exc)) from None
    if spec is not None:
        if spec.p != p:
            raise MatrixFormatError(line_no, "modulus %d does not match expected %d" % (p, spec.p))
        file_spec = spec
    a = SparseMatrix(m, n, file_spec)
    terminated = False
    while True:
        line = f.readline()
        line_no += 1
        if not line:
            break
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise MatrixFormatError(line_no, "entry must be 'i j v'")
        try:
            i, j, v = (int(t) for t in parts)
        except ValueError:
            raise MatrixFormatError(line_no, "non-integer entry field") from None
        if (i, j, v) == (0, 0, 0):
            terminated = True
            break
        if not (1 <= i <= m and 1 <= j <= n):
            raise MatrixFormatError(line_no, "index (%d, %d) outside %dx%d" % (i, j, m, n))
        if not 0 < v < p:
            raise MatrixFormatError(line_no, "value %d outside [1, %d)" % (v, p))
        if a.get(i - 1, j - 1) != 0:
            raise MatrixFormatError(line_no, "duplicate entry (%d, %d)" % (i, j))
        a.set(i - 1, j - 1, v)
    if not terminated:
        raise MatrixFormatError(line_no, "missing '0 0 0' terminator")
    return a
