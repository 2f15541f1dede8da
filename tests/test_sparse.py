import io
import random

import pytest

from smithy import (FieldSpec, MatrixFormatError, ShapeError, SparseMatrix,
                    axpy, read_matrix, write_matrix)

from conftest import random_dense


def test_axpy_against_dense(f7):
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(1, 12)
        xs = [rng.randrange(7) for _ in range(n)]
        ys = [rng.randrange(7) for _ in range(n)]
        s = rng.randrange(7)
        dst = [i << 3 | v for i, v in enumerate(xs) if v]
        src = [i << 3 | v for i, v in enumerate(ys) if v]
        got = axpy(dst, src, s, f7)
        want = [(x + s * y) % 7 for x, y in zip(xs, ys)]
        assert got == [i << 3 | v for i, v in enumerate(want) if v]


def test_axpy_cancellation(f7):
    dst = [0 << 3 | 3, 2 << 3 | 5]
    src = [0 << 3 | 4, 1 << 3 | 1]
    # 3 + 1*4 = 0 mod 7: row 0 must vanish, row 1 appears, row 2 untouched
    assert axpy(dst, src, 1, f7) == [1 << 3 | 1, 2 << 3 | 5]
    assert axpy(dst, src, 0, f7) == dst
    assert axpy([], src, 3, f7) == [0 << 3 | 5, 1 << 3 | 3]


def test_from_dense_roundtrip(f7):
    rng = random.Random(3)
    for _ in range(50):
        m, n = rng.randrange(0, 8), rng.randrange(0, 8)
        rows = random_dense(rng, m, n, 7, 0.4)
        a = SparseMatrix.from_dense(rows, f7)
        a.check()
        assert a.to_dense() == rows
        assert a.nnz == sum(v != 0 for row in rows for v in row)


def test_get_set(f7):
    a = SparseMatrix(3, 3, f7)
    a.set(1, 2, 5)
    assert a.get(1, 2) == 5
    assert a.get(0, 0) == 0
    a.set(1, 2, 0)
    assert a.get(1, 2) == 0
    assert a.nnz == 0
    a.check()
    with pytest.raises(IndexError):
        a.get(3, 0)
    a.set(0, 0, 9)  # values reduce mod p on the way in
    assert a.get(0, 0) == 2
    a.set(0, 0, 7)
    assert a.get(0, 0) == 0


def test_identity_and_eq(f7):
    i3 = SparseMatrix.identity(3, f7)
    assert i3.to_dense() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert i3 == SparseMatrix.from_dense(i3.to_dense(), f7)
    assert i3 != SparseMatrix(3, 3, f7)


def test_elementary_ops_against_dense(f7):
    rng = random.Random(7)
    for _ in range(120):
        m, n = rng.randrange(2, 7), rng.randrange(2, 7)
        rows = random_dense(rng, m, n, 7, 0.5)
        a = SparseMatrix.from_dense(rows, f7)
        op = rng.randrange(3)
        if op == 0:
            x, y = rng.sample(range(n), 2)
            a.swap_cols(x, y)
            for r in rows:
                r[x], r[y] = r[y], r[x]
        elif op == 1:
            x, y = rng.sample(range(n), 2)
            s = rng.randrange(7)
            a.add_col_multiple(x, y, s)
            for r in rows:
                r[y] = (r[y] + s * r[x]) % 7
        else:
            x, u = rng.randrange(n), rng.randrange(1, 7)
            a.scale_col(x, u)
            for r in rows:
                r[x] = r[x] * u % 7
        a.check()
        assert a.to_dense() == rows


def test_swap_cols_shared_rows(f7):
    a = SparseMatrix.from_dense([[1, 2], [3, 4]], f7)
    a.swap_cols(0, 1)
    a.check()
    assert a.to_dense() == [[2, 1], [4, 3]]


def test_transpose(f7):
    rng = random.Random(9)
    for _ in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = random_dense(rng, m, n, 7, 0.4)
        a = SparseMatrix.from_dense(rows, f7)
        t = a.transpose()
        t.check()
        assert t.to_dense() == [[rows[i][j] for i in range(m)] for j in range(n)]
        assert t.transpose() == a


def test_transpose_empty(f7):
    t = SparseMatrix(0, 3, f7).transpose()
    assert (t.m, t.n) == (3, 0)
    assert t.transpose() == SparseMatrix(0, 3, f7)


def test_set_col_and_counts(f7):
    a = SparseMatrix.from_dense([[1, 0], [2, 0], [0, 3]], f7)
    a.set_col(0, [0 << 3 | 4, 2 << 3 | 1])
    a.check()
    assert a.to_dense() == [[4, 0], [0, 0], [1, 3]]
    a.set_col(0, [])
    a.check()
    assert a.nnz == 1


def test_write_read_roundtrip(f12379):
    rng = random.Random(13)
    for _ in range(20):
        m, n = rng.randrange(0, 10), rng.randrange(0, 10)
        rows = random_dense(rng, m, n, 12379, 0.3)
        a = SparseMatrix.from_dense(rows, f12379)
        buf = io.StringIO()
        write_matrix(a, buf)
        back = read_matrix(io.StringIO(buf.getvalue()))
        assert back == a
        assert back.spec.p == 12379


def test_format_text_shape():
    text = "2 3 7\n1 1 5\n2 3 6\n0 0 0\n"
    a = read_matrix(io.StringIO(text))
    assert (a.m, a.n) == (2, 3)
    assert a.to_dense() == [[5, 0, 0], [0, 0, 6]]


def test_format_blank_lines_ok():
    a = read_matrix(io.StringIO("2 2 7\n\n1 1 1\n\n0 0 0\n\n"))
    assert a.to_dense() == [[1, 0], [0, 0]]


@pytest.mark.parametrize("text,line", [
    ("", 1),                                # missing header
    ("2 2\n0 0 0\n", 1),                    # short header
    ("2 2 6\n0 0 0\n", 1),                  # modulus not prime
    ("2 2 7\n3 1 1\n0 0 0\n", 2),           # row out of range
    ("2 2 7\n1 3 1\n0 0 0\n", 2),           # column out of range
    ("2 2 7\n1 1 7\n0 0 0\n", 2),           # value out of range
    ("2 2 7\n1 1 0\n0 0 0\n", 2),           # zero value
    ("2 2 7\n1 1 1\n1 1 2\n0 0 0\n", 3),    # duplicate
    ("2 2 7\n1 1 1\n", 3),                  # missing terminator, flagged at EOF
    ("2 2 7\nx y z\n0 0 0\n", 2),           # junk
])
def test_format_errors(text, line):
    with pytest.raises(MatrixFormatError) as exc:
        read_matrix(io.StringIO(text))
    assert exc.value.line_no == line


def test_read_with_expected_spec(f7):
    with pytest.raises(MatrixFormatError):
        read_matrix(io.StringIO("2 2 11\n0 0 0\n"), f7)
    a = read_matrix(io.StringIO("2 2 7\n0 0 0\n"), f7)
    assert a.spec is f7
