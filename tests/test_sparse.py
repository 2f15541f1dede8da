import random
import tracemalloc
from collections import Counter

import pytest

from smithy import (MatrixFormatError, ShapeError, SparseMatrix, axpy,
                    read_matrix, write_matrix)
from smithy import sparse
from smithy.sparse import read_header

from conftest import random_dense, reference_read, sparse_identity


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
    # values reduce mod p on the way in, and rows must share one length
    assert SparseMatrix.from_dense([[9, 7], [-1, 0]], f7).to_dense() == [[2, 0], [6, 0]]
    with pytest.raises(ShapeError):
        SparseMatrix.from_dense([[1, 2], [3]], f7)


def test_identity_and_eq(f7):
    i3 = sparse_identity(3, f7)
    assert i3.to_dense() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert i3 == SparseMatrix.from_dense(i3.to_dense(), f7)
    assert i3 != SparseMatrix(3, 3, f7)


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


def write_text(tmp_path, text):
    """The path of a file holding text, or bytes."""
    path = tmp_path / "m.sms"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return path


def read_text(tmp_path, text, spec=None):
    return read_matrix(write_text(tmp_path, text), spec)


def test_write_read_roundtrip(tmp_path, f12379):
    rng = random.Random(13)
    path = tmp_path / "m.sms"
    for _ in range(20):
        m, n = rng.randrange(0, 10), rng.randrange(0, 10)
        rows = random_dense(rng, m, n, 12379, 0.3)
        a = SparseMatrix.from_dense(rows, f12379)
        write_matrix(a, path)
        back = read_matrix(path)
        assert back == a
        assert back.spec.p == 12379


def test_format_text_shape(tmp_path):
    text = "2 3 7\n1 1 5\n2 3 6\n0 0 0\n"
    a = read_text(tmp_path, text)
    assert (a.m, a.n) == (2, 3)
    assert a.to_dense() == [[5, 0, 0], [0, 0, 6]]
    # columns out of order, rows descending within a column
    b = read_text(tmp_path, "3 3 7\n3 3 1\n2 1 4\n2 3 6\n1 1 5\n1 3 2\n0 0 0\n")
    assert b.to_dense() == [[5, 0, 2], [4, 0, 6], [0, 0, 1]]
    b.check()


def test_format_blank_lines_ok(tmp_path):
    a = read_text(tmp_path, "2 2 7\n\n1 1 1\n\n0 0 0\n\n")
    assert a.to_dense() == [[1, 0], [0, 0]]


@pytest.mark.parametrize("text,line", [
    ("", 1),                                # missing header
    ("2 2\n0 0 0\n", 1),                    # short header
    ("2 2 6\n0 0 0\n", 1),                  # modulus not prime
    ("2 2 40000\n0 0 0\n", 1),              # modulus too wide
    ("2 2 2305843009213693951\n0 0 0\n", 1),  # ... and prime: 2**61 - 1
    ("-1 2 7\n0 0 0\n", 1),                 # negative row count
    ("2 -1 7\n0 0 0\n", 1),                 # negative column count
    ("2 2 7\n3 1 1\n0 0 0\n", 2),           # row out of range
    ("2 2 7\n1 3 1\n0 0 0\n", 2),           # column out of range
    ("2 2 7\n1 1 7\n0 0 0\n", 2),           # value out of range
    ("2 2 7\n1 1 0\n0 0 0\n", 2),           # zero value
    ("2 2 7\n1 1 1\n1 1 2\n0 0 0\n", 3),    # duplicate
    ("2 2 7\n2 1 1\n1 1 1\n2 1 3\n0 0 0\n", 4),  # duplicate out of order
    ("2 2 7\n1 1 1\n", 3),                  # missing terminator, flagged at EOF
    ("2 2 7\nx y z\n0 0 0\n", 2),           # junk
    ("2 2 7\n1 1 1\n0 0 0\n\n2 2 1\n", 5),  # entry after the terminator
    ("2 2 7\n0 0 0\nx\n", 3),              # junk after the terminator
    (b"2 2 7\n1 \xff 1\n0 0 0\n", 2),      # a byte that is not UTF-8
    (b"2 \xff 7\n0 0 0\n", 1),              # ... in the header
    (b"2 2 7\n0 0 0\n\xff\n", 3),           # ... after the terminator
])
def test_format_errors(tmp_path, text, line):
    with pytest.raises(MatrixFormatError) as exc:
        read_text(tmp_path, text)
    assert exc.value.line_no == line


def test_read_header_parses_only_the_header(tmp_path):
    for body in ("junk\n", "1 1 1\n", "3 1 1\n1 1\n", ""):
        assert read_header(write_text(tmp_path, "\n2 3 7\n" + body)) == (2, 3, 7)


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("\n\n", 3),
    ("2 3\n0 0 0\n", 1),
    ("\n2 3 7 1\n0 0 0\n", 2),
    ("2 x 7\n0 0 0\n", 1),
    (b"2 3 \xff\n0 0 0\n", 1),
    ("2 -3 7\n0 0 0\n", 1),
])
def test_read_header_errors(tmp_path, text, line):
    with pytest.raises(MatrixFormatError) as exc:
        read_header(write_text(tmp_path, text))
    assert exc.value.line_no == line


def random_matrix_file(rng, canonical=False):
    """A small matrix file as bytes, sound or damaged: blank lines, CRLF
    endings, tabs, short, long and junk lines, rows and columns in any order,
    repeated entries, indices or values out of range, a missing terminator
    and content after it.  A canonical file has single spaces, LF endings
    and a tenth of the damage."""
    rare = 0.1 if canonical else 1
    m, n, p = rng.randrange(5), rng.randrange(5), rng.choice([3, 5, 7])
    cells = [(i, j) for j in range(1, n + 1) for i in range(1, m + 1)]
    cells = rng.sample(cells, rng.randrange(len(cells) + 1))
    order = rng.randrange(3)
    if order < 2:  # column runs, rows ascending or shuffled within each
        cells.sort(key=lambda c: (c[1], c[0] if order else rng.random()))
    lines = [[m, n, p]] + [[i, j, rng.randrange(1, p)] for i, j in cells]
    if rng.random() < 0.1 * rare:
        lines[0] = rng.choice([[m, n], [m, n, p, 1], [-1, n, p], [m, -1, p], [m, n, 9],
                               [m, b"x", p], [m, n, b"\xff"]])
    for t in range(len(lines) - 1, 0, -1):
        if rng.random() < 0.03 * rare:
            i, j, v = lines[t]
            lines[t] = rng.choice([[b"x", j, v], [i, b"\xff", v], [i, j], [i, j, v, 1],
                                   [rng.choice([0, m + 1]), j, v], [i, rng.choice([0, n + 1]), v],
                                   [i, j, rng.choice([0, p, -1])], [b"junk"]])
        elif rng.random() < 0.03 * rare:  # a repeated cell, later in its run or in another
            lines.insert(rng.randrange(t + 1, len(lines) + 1), lines[t][:2] + [1])
    if rng.random() < 1 - 0.1 * rare:
        lines.append([0, 0, 0])
        if rng.random() < 0.05 * rare:
            lines.append(rng.choice([[1, 1, 1], [0, 0, 0], [b"x"]]))
    if rng.random() < 0.05 * rare:
        lines = []
    for t in range(len(lines) + 1):
        if rng.random() < 0.05 * rare:
            lines.insert(t, [])
    if canonical:
        sep, end = b" ", b"\n"
    else:
        sep, end = rng.choice([b" ", b"\t", b"  "]), rng.choice([b"\n", b"\r\n"])
    text = end.join(sep.join(f if isinstance(f, bytes) else b"%d" % f for f in line)
                    for line in lines)
    return text + end if rng.random() < 1 - 0.1 * rare else text


def test_reader_matches_reference(tmp_path):
    """read_matrix and the naive reference reader agree on 3,000 small files:
    the same matrix, or a refusal at the same line."""
    rng = random.Random(21)
    path = tmp_path / "m.sms"
    outcomes = Counter()
    for _ in range(3000):
        data = random_matrix_file(rng)
        path.write_bytes(data)
        want = reference_read(data)
        try:
            a = read_matrix(path)
        except MatrixFormatError as exc:
            assert exc.line_no == want, data
            outcomes["refused"] += 1
        else:
            a.check()
            got = {(i + 1, j + 1): v for i, j, v in a.entries()}
            assert ((a.m, a.n, a.spec.p), got) == want, data
            outcomes["read"] += 1
    assert min(outcomes.values()) > 500, outcomes


def reads_as_reference(path, data):
    """Assert that read_matrix reads data, written to path, as the reference
    reader does; "read", or the line of the refusal."""
    path.write_bytes(data)
    want = reference_read(data)
    try:
        a = read_matrix(path)
    except MatrixFormatError as exc:
        assert exc.line_no == want, data
        return exc.line_no
    a.check()
    got = {(i + 1, j + 1): v for i, j, v in a.entries()}
    assert ((a.m, a.n, a.spec.p), got) == want, data
    return "read"


@pytest.mark.parametrize("block", [1, 7, 16, 64])
def test_reader_matches_reference_across_blocks(tmp_path, monkeypatch, block):
    """With blocks of a few bytes every file spans many blocks, and a block
    edge falls at every offset: the 3,000 reference files and 1,000
    canonical-heavy ones still read as the reference reads them."""
    monkeypatch.setattr(sparse, "_BLOCK", block)
    test_reader_matches_reference(tmp_path)
    rng = random.Random(22)
    outcomes = Counter(reads_as_reference(tmp_path / "m.sms", random_matrix_file(rng, True))
                       == "read" for _ in range(1000))
    assert min(outcomes.values()) > 25, outcomes


# Lines of six bytes and blocks of twelve: after the header, lines 2-3, 4-5,
# 6-7, ... make one block each.
@pytest.mark.parametrize("body,want", [
    ("1 1 1\n2 1 1\n1 4 1\n0 0 0\n", 4),           # a fault on a block's first line
    ("1 1 1\n2 1 1\n1 x 1\n0 0 0\n", 4),           # ... a shape fault
    ("1 1 1\n2 1 1\n1 1 2\n0 0 0\n", 4),           # ... a duplicate from the block before
    ("1 1 1\n0 0 0\n", "read"),                    # the terminator ends a block
    ("1 1 1\n0 0 0\n\n\n", "read"),                # ... then blank lines
    ("1 1 1\n0 0 0\n1 2 1\n", 4),                 # ... then content in the next
    ("1 1 1\n2 1 1\n0 0 0\n1 2 1\n", 5),           # content in the terminator's block
    ("1 1 1\n0 0 0", "read"),                      # no newline at the end
    ("1 1 1\n2 1 1", 4),                           # ... nor terminator
    ("1 1 1\n2 1 1\n", 4),                         # no terminator after a whole block
    ("1 1 1\n2 1 05\n3 1 1\n0 0 0\n", "read"),     # int reads what JSON refuses
    ("1 1 1\n2 1 +1\n3 1 1\n0 0 0\n", "read"),
    ("1 1 1\n1_0 2 1\n3 1 1\n0 0 0\n", "read"),
    ("1 1 1\n2\t1 1\n3 1 1\n0 0 0\n", "read"),
    ("1 1 1\n2 1 1\r\n3 1 1\n0 0 0\n", "read"),
    ("1 1 1\n1 2 1 \n3 1 1\n0 0 0\n", "read"),
    ("1 1 1\n2 1 00\n3 1 1\n0 0 0\n", 3),         # value 0, as int reads it
    ("1 1 1\n2 1 -1\n3 1 1\n0 0 0\n", 3),
    ("1 1 1\n 1 2\n3 1 1\n0 0 0\n", 3),           # an empty field
    ("1 1 1\n1 2 3 4 5\n6\n0 0 0\n", 3),           # short and long lines
])
def test_reader_block_edges(tmp_path, monkeypatch, body, want):
    monkeypatch.setattr(sparse, "_BLOCK", 12)
    assert reads_as_reference(tmp_path / "m.sms", b"10 3 7\n" + body.encode()) == want


def test_read_memory_is_one_block(tmp_path, f12379):
    """A read holds one block of text and numbers besides the matrix it
    returns, not the file."""
    rng = random.Random(23)
    a = SparseMatrix(1000, 25000, f12379)
    for j in range(a.n):
        a.set_col(j, [i << a.spec.k | rng.randrange(1, 12379)
                      for i in sorted(rng.sample(range(a.m), 4))])
    path = tmp_path / "big.sms"
    write_matrix(a, path)
    assert path.stat().st_size > 20 * sparse._BLOCK
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = read_matrix(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == a and back.nnz == 100000
    assert peak - held < 2 << 20, (held - base, peak - held)


MIB = 1 << 20


@pytest.mark.parametrize("read,text,line", [
    (read_matrix, b"2 2 7\n1 1 1\n" + b"1" * MIB + b"\n0 0 0\n", 3),  # an entry
    (read_matrix, b"\n" + b"2" * MIB + b"\n0 0 0\n", 2),  # the header
    (read_header, b"\n" + b"2" * MIB + b"\n0 0 0\n", 2),
    (read_matrix, b"2 2 7\n0 0 0\n" + b"1" * MIB, 3),  # after the terminator
    (read_matrix, b"2 2 7\n" + b" " * MIB + b"\n0 0 0\n", 2),  # blank lines too
    (read_header, b" " * MIB, 1),
])
def test_long_line_is_refused_at_its_line(tmp_path, read, text, line):
    """A line longer than 64 KiB is refused at its line number without being
    held whole: a file with no line break costs no more than one does."""
    path = write_text(tmp_path, text)
    tracemalloc.start()
    try:
        with pytest.raises(MatrixFormatError, match="line longer than 65536 bytes") as exc:
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line_no == line
    assert peak < MIB, peak


@pytest.mark.parametrize("block", [1, 7, 16])
def test_line_bound_counts_the_line_break(tmp_path, monkeypatch, block):
    """_LINE bytes with the line break are read, one more is refused; a last
    line without a break is counted as if it had one."""
    monkeypatch.setattr(sparse, "_BLOCK", block)
    monkeypatch.setattr(sparse, "_LINE", 16)

    def pad(line, size):
        return line + b" " * (size - len(line))

    def lines(size):
        return [pad(b"2 2 7", size) + b"\n", pad(b"1 1 1", size) + b"\n",
                pad(b"0 0 0", size)]

    assert read_text(tmp_path, b"".join(lines(15))).to_dense() == [[1, 0], [0, 0]]
    for at in range(3):
        text = lines(15)
        text[at] = lines(16)[at]
        with pytest.raises(MatrixFormatError, match="line longer than 16 bytes") as exc:
            read_text(tmp_path, b"".join(text))
        assert exc.value.line_no == at + 1


def test_read_with_expected_spec(tmp_path, f7):
    with pytest.raises(MatrixFormatError):
        read_text(tmp_path, "2 2 11\n0 0 0\n", f7)
    a = read_text(tmp_path, "2 2 7\n0 0 0\n", f7)
    assert a.spec is f7
