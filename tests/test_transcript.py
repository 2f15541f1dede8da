import json
import os
import random
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

import smithy
from smithy import (COL, ROW, FieldSpec, SparseMatrix, Transcript,
                    TranscriptError)
from smithy.transcript import trace_lines

from conftest import random_dense, sparse_identity


def dense_op(op, side, dim, p):
    """The elementary matrix a (kind, a, b, v) record stands for, as a
    dense array.

    Row-side transvection T a b v is the left factor adding v x (row a)
    to row b; column-side is the right factor adding v x (col a) to col b.
    A swap looks the same from either side.
    """
    kind, a, b, v = op
    e = np.eye(dim, dtype=np.int64)
    if kind == "S":
        e[[a, b]] = e[[b, a]]
    elif side == ROW:
        e[b, a] = v % p
    else:
        e[a, b] = v % p
    return e


def inverse_op(op, spec):
    """The record whose elementary matrix inverts op's."""
    kind, a, b, v = op
    if kind == "S":
        return op
    return ("T", a, b, spec.p - v)


def dense_product(ops, side, dim, p, inverse=False):
    spec = FieldSpec(p)
    if inverse:
        ops = [inverse_op(op, spec) for op in reversed(ops)]
    mats = [dense_op(op, side, dim, p) for op in ops]
    if side == COL:
        mats.reverse()  # first record is the rightmost factor
    acc = np.eye(dim, dtype=np.int64)
    for mat in mats:
        acc = acc @ mat % p
    return acc


def random_ops(rng, dim, p):
    """Up to 24 swaps and transvections; none when dim < 2."""
    ops = []
    for _ in range(rng.randrange(0, 25) if dim >= 2 else 0):
        a, b = rng.sample(range(dim), 2)
        ops.append(("S", a, b, None) if rng.randrange(2) else ("T", a, b, rng.randrange(1, p)))
    return ops


def write_transcript(path, side, dim, spec, ops):
    tr = Transcript.create(path, side, dim, spec)
    for op in ops:
        tr.append(op)
    tr.finalize()
    return Transcript.open(path, spec)


def test_roundtrip_and_order(tmp_path, f7):
    ops = [("S", 0, 2, None), ("T", 1, 0, 4), ("T", 2, 1, 6)]
    tr = write_transcript(tmp_path / "t.trn", ROW, 3, f7, ops)
    assert len(tr) == 3
    assert list(tr.records()) == ops
    assert list(tr.records_reversed()) == ops[::-1]


def test_records_append_back_byte_identical(tmp_path, f7):
    """records() of a decoded transcript, appended to a fresh one, rebuild
    the file byte for byte, on either side."""
    rng = random.Random(26)
    for side in (ROW, COL):
        ops = [("S", 0, 3, None), ("T", 2, 1, 5), ("T", 4, 0, 3)] + random_ops(rng, 5, 7)
        src, dst = tmp_path / ("src-%s.trn" % side), tmp_path / ("dst-%s.trn" % side)
        records = list(write_transcript(src, side, 5, f7, ops).records())
        copy = Transcript.create(dst, side, 5, f7)
        for rec in records:
            copy.append(rec)
        copy.finalize()
        assert dst.read_bytes() == src.read_bytes()


def test_append_validation(tmp_path, f7):
    tr = Transcript.create(tmp_path / "t.trn", ROW, 3, f7)
    with pytest.raises(TranscriptError):
        tr.append(("S", 0, 3, None))
    with pytest.raises(TranscriptError):
        tr.append(("T", 0, 1, 9))
    tr.finalize()


def test_append_refuses_bad_plain_records(tmp_path, f7):
    """append takes plain (kind, a, b, v) tuples and checks each itself."""
    path = tmp_path / "t.trn"
    tr = Transcript.create(path, ROW, 3, f7)
    good = [("S", 0, 2, None), ("T", 1, 0, 4), ("T", 2, 1, 6)]
    bad = [("S", -1, 2, None), ("T", 0, -1, 3),  # negative
           ("S", 0, 3, None), ("T", 3, 0, 1),  # index >= dim
           ("S", 1, 1, None), ("T", 2, 2, 5),  # one line twice
           ("T", 0, 1, 0),  # scalar 0
           ("T", 0, 1, 7),  # scalar >= p
           ("S", 0, 1, 3),  # a scalar on a swap
           ("K", 0, 1, 1), ("D", 0, None, 3)]  # unknown kind; a dilation is none
    tr.append(good[0])
    for rec in bad:
        with pytest.raises(ValueError):  # TranscriptError is a ValueError
            tr.append(rec)
        assert len(tr) == 1, rec
    for rec in good[1:]:
        tr.append(rec)
    tr.finalize()
    assert list(Transcript.open(path, f7).records()) == good


def test_open_errors(tmp_path, f7):
    bad = tmp_path / "bad.trn"
    bad.write_text("ROW x 7\n")
    with pytest.raises(TranscriptError):
        Transcript.open(bad)
    bad.write_text("XYZ 3 7\n")
    with pytest.raises(TranscriptError):
        Transcript.open(bad)
    # a negative dimension, under a trailer that matches
    bad.write_bytes(b"ROW -3 7\nE 0 %d\n" % zlib.crc32(b"ROW -3 7\n"))
    with pytest.raises(TranscriptError, match="bad header"):
        Transcript.open(bad)
    bad.write_text("ROW 3 7\nK 1 2\n")
    with pytest.raises(TranscriptError):
        list(Transcript.open(bad).records())
    # a dilation is no record kind, even under a trailer that matches
    body = b"ROW 3 7\nS 0 1\nD 1 3\n"
    bad.write_bytes(body + b"E 2 %d\n" % zlib.crc32(body))
    with pytest.raises(TranscriptError, match="record 2: unrecognized b'D 1 3'"):
        Transcript.open(bad, f7)
    with pytest.raises(TranscriptError, match="unrecognized b'D 1 3'"):
        trace_lines(bad, ROW, 3, f7)
    good = tmp_path / "good.trn"
    good.write_text("ROW 3 7\nS 0 1\n")
    with pytest.raises(TranscriptError):
        Transcript.open(good, FieldSpec(11))


def test_empty_transcript_is_identity(tmp_path, f7):
    for side in (ROW, COL):
        tr = write_transcript(tmp_path / ("e-%s.trn" % side), side, 4, f7, [])
        mat = tr.apply_mat_left(sparse_identity(tr.dim, f7))
        assert mat.to_dense() == np.eye(4, dtype=int).tolist()
        assert tr.apply_vec([1, 2, 3, 4]) == [1, 2, 3, 4]


def test_materialize_matches_dense_product(tmp_path, f7):
    """The represented matrix is the transcript applied to the identity."""
    rng = random.Random(21)
    for trial in range(40):
        side = ROW if trial % 2 else COL
        dim = rng.randrange(1, 7)
        ops = random_ops(rng, dim, 7)
        tr = write_transcript(tmp_path / ("m%d.trn" % trial), side, dim, f7, ops)
        want = dense_product(ops, side, dim, 7)
        assert tr.apply_mat_left(sparse_identity(tr.dim, f7)).to_dense() == want.tolist()


def test_apply_vec_matches_dense(tmp_path, f7):
    rng = random.Random(22)
    for trial in range(40):
        side = ROW if trial % 2 else COL
        dim = rng.randrange(1, 7)
        ops = random_ops(rng, dim, 7)
        tr = write_transcript(tmp_path / ("v%d.trn" % trial), side, dim, f7, ops)
        x = [rng.randrange(7) for _ in range(dim)]
        for inverse in (False, True):
            want = dense_product(ops, side, dim, 7, inverse) @ np.array(x) % 7
            assert tr.apply_vec(x, inverse=inverse) == want.tolist(), \
                (side, inverse, ops)


def test_apply_mat_matches_dense(tmp_path, f7):
    rng = random.Random(23)
    for trial in range(30):
        side = ROW if trial % 2 else COL
        dim = rng.randrange(1, 6)
        ops = random_ops(rng, dim, 7)
        tr = write_transcript(tmp_path / ("a%d.trn" % trial), side, dim, f7, ops)
        other = rng.randrange(1, 6)
        left_rows = random_dense(rng, dim, other, 7, 0.6)
        right_rows = random_dense(rng, other, dim, 7, 0.6)
        for inverse in (False, True):
            mat = dense_product(ops, side, dim, 7, inverse)
            a = SparseMatrix.from_dense(left_rows, f7)
            got = tr.apply_mat_left(a, inverse=inverse)
            got.check()
            assert got.to_dense() == (mat @ np.array(left_rows) % 7).tolist()
            assert a.to_dense() == left_rows  # left-apply must not mutate
            b = SparseMatrix.from_dense(right_rows, f7)
            tr.apply_mat_right(b, inverse=inverse)
            b.check()
            assert b.to_dense() == (np.array(right_rows) @ mat % 7).tolist()


def test_inverse_really_inverts(tmp_path, f12379):
    rng = random.Random(24)
    for trial in range(20):
        side = ROW if trial % 2 else COL
        dim = rng.randrange(1, 8)
        ops = random_ops(rng, dim, 12379)
        tr = write_transcript(tmp_path / ("i%d.trn" % trial), side, dim,
                              f12379, ops)
        x = [rng.randrange(12379) for _ in range(dim)]
        assert tr.apply_vec(tr.apply_vec(x), inverse=True) == x
        assert tr.apply_vec(tr.apply_vec(x, inverse=True)) == x


def test_inverse_replay_copies_no_record(tmp_path, f12379):
    """An inverse replay walks the decoded arrays in place: its allocation
    peak stays a few bytes per record, where a copy of the scalars would
    take about 40."""
    rng = random.Random(27)
    n, dim = 20000, 40
    for side in (ROW, COL):
        ops = [("S", *rng.sample(range(dim), 2), None) if rng.random() < 0.25
               else ("T", *rng.sample(range(dim), 2), rng.randrange(1, 12379))
               for _ in range(n)]
        assert sum(op[0] == "S" for op in ops) >= n // 5
        tr = write_transcript(tmp_path / ("big-%s.trn" % side), side, dim, f12379, ops)
        x = [rng.randrange(12379) for _ in range(dim)]
        y = tr.apply_vec(list(x))
        rows = random_dense(rng, 2, dim, 12379, 0.5)
        b = tr.apply_mat_right(SparseMatrix.from_dense(rows, f12379))
        tracemalloc.start()
        try:
            for name, replay in (("apply_vec", lambda: tr.apply_vec(y, inverse=True)),
                                 ("apply_mat_right",
                                  lambda: tr.apply_mat_right(b, inverse=True))):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                replay()
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak < 8 * n, (side, name, peak / n)
        finally:
            tracemalloc.stop()
        assert y == x
        assert b.to_dense() == rows


def test_concurrent_record_streams(tmp_path, f7):
    ops = [("S", 0, 1, None), ("T", 1, 0, 3), ("T", 0, 1, 2)]
    tr = write_transcript(tmp_path / "c.trn", ROW, 2, f7, ops)
    it1 = tr.records()
    it2 = tr.records_reversed()
    assert next(it1) == ops[0]
    assert next(it2) == ops[2]
    assert next(it1) == ops[1]
    assert next(it2) == ops[1]
    assert list(it1) == [ops[2]]
    assert list(it2) == [ops[0]]


DAMAGE_OPS = [("T", 0, 1, 3), ("S", 1, 2, None), ("T", 2, 1, 5), ("T", 2, 0, 6)]


def test_trailer_counts_and_checksums(tmp_path, f7):
    path = tmp_path / "t.trn"
    write_transcript(path, ROW, 3, f7, DAMAGE_OPS)
    body, trailer = path.read_bytes().rsplit(b"\n", 2)[0:2]
    assert trailer == b"E 4 %d" % zlib.crc32(body + b"\n")
    assert body.splitlines()[1:] == [b"T 0 1 3", b"S 1 2", b"T 2 1 5", b"T 2 0 6"]


def test_damaged_transcripts_are_refused(tmp_path, f7):
    path = tmp_path / "t.trn"
    write_transcript(path, ROW, 3, f7, DAMAGE_OPS)
    good = path.read_bytes()
    lines = good.splitlines(keepends=True)
    assert lines[1] == b"T 0 1 3\n"

    def signed(body, count=4):  # body under a trailer with body's CRC-32
        return body + b"E %d %d\n" % (count, zlib.crc32(body))

    into = b"".join(lines[:-1])[:-1] + b" "
    blank = b"".join(lines[:2]) + b"\n" + b"".join(lines[2:-1])
    damaged = {
        "record boundary cut": b"".join(lines[:3]),
        "mid-record cut": b"".join(lines[:4]) + lines[4][:4],
        "flipped digit": lines[0] + b"T 0 1 4\n" + b"".join(lines[2:]),
        "missing trailer": b"".join(lines[:-1]),
        "bytes after trailer": good + b"S 0 1\n",
        "blank line after trailer": good + b"\n",
        "wrong count": b"".join(lines[:-1]) + lines[-1].replace(b"E 4", b"E 3"),
        "record running into the trailer": signed(into),
        "record running into the trailer, left out of the count": signed(into, 3),
        "blank line left out of the count": signed(blank),
        "blank line in the count": signed(blank, 5),
    }
    for name, data in damaged.items():
        path.write_bytes(data)
        with pytest.raises(TranscriptError):
            Transcript.open(path, f7)
            pytest.fail("accepted a transcript with a " + name)
        with pytest.raises(TranscriptError):
            trace_lines(path, ROW, 3, f7)
            pytest.fail("traced a transcript with a " + name)
    path.write_bytes(good)
    assert list(Transcript.open(path, f7).records()) == DAMAGE_OPS


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16])
def test_decode_across_chunk_boundaries(tmp_path, f7, monkeypatch, chunk):
    """Records and the trailer split between read chunks decode the same."""
    path = tmp_path / "t.trn"
    write_transcript(path, ROW, 3, f7, DAMAGE_OPS)
    monkeypatch.setattr(smithy.transcript, "_CHUNK", chunk)
    assert list(Transcript.open(path, f7).records()) == DAMAGE_OPS
    good = path.read_bytes()
    for bad in (good[:-1], good[:-3], good + b"\n", good + b"E 0 0\n"):
        path.write_bytes(bad)
        with pytest.raises(TranscriptError):
            Transcript.open(path, f7)


def followed_lines(tr):
    """What trace_lines gives, from the decoded records: a swap exchanges
    two lines, and a T record writes the line it names first."""
    a, b, v = tr.decoded()
    src, written = list(range(tr.dim)), bytearray(tr.dim)
    for x, y, s in zip(a, b, v):
        if not s:
            src[x], src[y] = src[y], src[x]
            written[x], written[y] = written[y], written[x]
        else:
            written[x] = 1
    return src, written


def run_ops(rng, dim, p):
    """Records in runs between swaps.  A run writes one line, as nearly
    every run of a reduction does, or two or three."""
    ops = []
    for _ in range(rng.randrange(1, 8)):
        lines = rng.sample(range(dim), min(dim, rng.choice((1, 1, 2, 3))))
        for _ in range(rng.randrange(0, 5)):
            x = rng.choice(lines)
            y = rng.choice([y for y in range(dim) if y != x])
            ops.append(("T", x, y, rng.randrange(1, p)))
        if rng.randrange(3):
            ops.append(("S", *rng.sample(range(dim), 2), None))
    return ops


# runs writing 1 and 10, 1 and 11, 0 and 11: one line's pattern must not
# count another's records
SEVERAL_LINES_OPS = [("T", 1, 0, 2), ("T", 10, 0, 3), ("S", 1, 10, None),
                     ("T", 1, 2, 4), ("T", 11, 4, 5), ("T", 1, 3, 6),
                     ("S", 0, 1, None), ("T", 11, 3, 1), ("T", 0, 2, 3)]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16, 1 << 16])
def test_trace_lines_agrees_with_decode(tmp_path, f7, monkeypatch, chunk):
    """trace_lines follows the decoded records, at any read chunk size."""
    monkeypatch.setattr(smithy.transcript, "_CHUNK", chunk)
    rng = random.Random(chunk)
    path = tmp_path / "t.trn"
    tr = write_transcript(path, COL, 12, f7, SEVERAL_LINES_OPS)
    want = ([10, 0, 2, 3, 4, 5, 6, 7, 8, 9, 1, 11], bytearray(b"\1" + b"\0" * 9 + b"\1\1"))
    assert trace_lines(path, COL, 12, f7) == followed_lines(tr) == want
    for _ in range(40):
        dim = rng.randrange(2, 13)
        tr = write_transcript(path, COL, dim, f7, run_ops(rng, dim, 7))
        assert trace_lines(path, COL, dim, f7) == followed_lines(tr)


def test_out_of_range_records_are_refused(tmp_path, f7):
    path = tmp_path / "t.trn"
    for record, why in ((b"S 0 3\n", "exceeds"), (b"T 3 0 1\n", "exceeds"),
                        (b"T 0 1 7\n", "exceeds"),
                        (b"T 0 1 0\n", "record 2: a transvection has scalar 0"),
                        (b"S 1 1\n", "one line twice"), (b"T 2 2 5\n", "one line twice")):
        body = b"ROW 3 7\nS 0 1\n" + record
        path.write_bytes(body + b"E 2 %d\n" % zlib.crc32(body))
        with pytest.raises(TranscriptError, match=why):
            Transcript.open(path, f7)
    path.write_bytes(b"ROW 3 7\nS 0 2\nE 1 %d\n" % zlib.crc32(b"ROW 3 7\nS 0 2\n"))
    assert list(Transcript.open(path, f7).records()) == [("S", 0, 2, None)]


def test_unfinalized_transcript_is_refused(tmp_path, f7):
    path = tmp_path / "t.trn"
    tr = Transcript.create(path, COL, 3, f7)
    tr.append(("S", 0, 1, None))
    with pytest.raises(TranscriptError):
        tr.apply_vec([1, 2, 3])
    tr.abandon()
    with pytest.raises(TranscriptError):
        tr.apply_vec([1, 2, 3])
    with pytest.raises(TranscriptError):
        Transcript.open(path, f7)


def test_each_transcript_is_decoded_once(tmp_path, f7):
    rng = random.Random(25)
    for trial, side in enumerate((ROW, COL, ROW, COL)):
        dim = 5
        ops = [("T", 0, 1, 2)] + random_ops(rng, dim, 7)
        path = tmp_path / ("d%d.trn" % trial)
        created = Transcript.create(path, side, dim, f7)
        for op in ops:
            created.append(op)
        created.finalize()
        opened = Transcript.open(path, f7)
        x = [rng.randrange(7) for _ in range(dim)]
        rows = random_dense(rng, dim, 3, 7, 0.6)

        def replays(tr):
            return (tr.apply_vec(list(x)), tr.apply_vec(list(x), inverse=True),
                    tr.apply_mat_left(SparseMatrix.from_dense(rows, f7)).cols,
                    list(tr.records_reversed()))

        first = [replays(tr) for tr in (created, opened)]
        assert first[0] == first[1]
        os.remove(path)
        assert [replays(tr) for tr in (created, opened)] == first


def test_benchmark_tracer_still_hooks_the_library(tmp_path):
    """The benchmark's traced run wraps Transcript methods by name."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(smithy.__file__)))
    code = """
import json, sys
sys.path[:0] = [%r, %r]
from tracing import Tracer
tracer = Tracer()
tracer.install()
tracer.enabled = True
from smithy import FieldSpec, SparseMatrix, reduce
a = SparseMatrix.from_dense([[0, 2, 1], [3, 0, 1], [1, 1, 0]], FieldSpec(7))
res = reduce.snf(a, reduce.SnfOptions(emit_p=True, emit_q=True, workdir="wd"))
res.q.apply_vec([1, 2, 3])
decoded = len(list(res.p.records_reversed()))
print(json.dumps([tracer.layer_metrics(), decoded, len(res.p) + len(res.q)]))
""" % (os.path.join(root, "perfbench"), src)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    metrics, decoded, written = json.loads(out.stdout.splitlines()[-1])
    assert metrics["transcript.records_written"] == written > 0
    assert metrics["transcript.apply_s"] > 0
    assert metrics["transcript.records_decoded"] == decoded > 0
    assert metrics["transcript.bytes_written"] == sum(
        os.path.getsize(os.path.join(tmp_path, "wd", name))
        for name in ("p.trn", "q.trn"))
