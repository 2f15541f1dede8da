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
from smithy.transcript import TAG, trace_lines

from conftest import (random_dense, sparse_identity, trn_chunk, trn_file,
                      trn_header, trn_signed)


def dense_op(op, side, dim, p):
    """The elementary matrix a record (a, b, v) stands for, as a dense
    array.

    Row-side transvection (a, b, v), v != 0, is the left factor adding
    v x (row a) to row b; column-side is the right factor adding v x (col a)
    to col b.  A swap, v = 0, looks the same from either side.
    """
    a, b, v = op
    e = np.eye(dim, dtype=np.int64)
    if not v:
        e[[a, b]] = e[[b, a]]
    elif side == ROW:
        e[b, a] = v % p
    else:
        e[a, b] = v % p
    return e


def inverse_op(op, spec):
    """The record whose elementary matrix inverts op's."""
    a, b, v = op
    return (a, b, spec.p - v) if v else op


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
        ops.append((a, b, 0) if rng.randrange(2) else (a, b, rng.randrange(1, p)))
    return ops


def write_transcript(path, side, dim, spec, ops):
    tr = Transcript.create(path, side, dim, spec)
    for op in ops:
        tr.append(*op)
    tr.finalize()
    return Transcript.open(path, spec)


def test_roundtrip_and_order(tmp_path, f7):
    """append takes the file's record (a, b, v), v = 0 for a swap, and
    records() gives the decoded arrays back as those tuples."""
    ops = [(0, 2, 0), (1, 0, 4), (2, 1, 6)]
    tr = write_transcript(tmp_path / "t.trn", ROW, 3, f7, ops)
    assert len(tr) == 3
    assert list(tr.records()) == list(zip(*tr.decoded())) == ops
    assert list(tr.records_reversed()) == ops[::-1]
    swap = write_transcript(tmp_path / "s.trn", ROW, 3, f7, ops[:1])
    assert swap.apply_vec([1, 2, 3]) == [3, 2, 1]


def test_records_append_back_byte_identical(tmp_path, f7):
    """records() of a decoded transcript, appended to a fresh one, rebuild
    the file byte for byte, on either side."""
    rng = random.Random(26)
    for side in (ROW, COL):
        ops = [(0, 3, 0), (2, 1, 5), (4, 0, 3)] + random_ops(rng, 5, 7)
        src, dst = tmp_path / ("src-%s.trn" % side), tmp_path / ("dst-%s.trn" % side)
        records = list(write_transcript(src, side, 5, f7, ops).records())
        copy = Transcript.create(dst, side, 5, f7)
        for rec in records:
            copy.append(*rec)
        copy.finalize()
        assert dst.read_bytes() == src.read_bytes()


def test_append_validation(tmp_path, f7):
    tr = Transcript.create(tmp_path / "t.trn", ROW, 3, f7)
    with pytest.raises(TranscriptError):
        tr.append(0, 3, 0)
    with pytest.raises(TranscriptError):
        tr.append(0, 1, 9)
    tr.finalize()
    # an index must fit its u32 column
    with pytest.raises(ValueError, match="dimension"):
        Transcript.create(tmp_path / "big.trn", ROW, 2**32 + 1, f7)
    assert not (tmp_path / "big.trn").exists()


def test_append_refuses_bad_plain_records(tmp_path, f7):
    """append takes plain (a, b, v) records and checks each itself."""
    path = tmp_path / "t.trn"
    tr = Transcript.create(path, ROW, 3, f7)
    good = [(0, 2, 0), (1, 0, 4), (2, 1, 6)]
    bad = [(-1, 2, 0), (0, -1, 3),  # negative
           (0, 3, 0), (3, 0, 1),  # index >= dim
           (1, 1, 0), (2, 2, 5),  # one line twice
           (0, 1, 7),  # scalar >= p
           (0, 1, -1)]  # scalar < 0
    tr.append(*good[0])
    for rec in bad:
        with pytest.raises(ValueError):  # TranscriptError is a ValueError
            tr.append(*rec)
        assert len(tr) == 1, rec
    for rec in good[1:]:
        tr.append(*rec)
    tr.finalize()
    assert list(Transcript.open(path, f7).records()) == good


def refused(path, f7, why):
    """Both readers refuse the ROW 3 transcript at path, with a message
    matching why."""
    with pytest.raises(TranscriptError, match=why):
        Transcript.open(path, f7)
    with pytest.raises(TranscriptError, match=why):
        trace_lines(path, ROW, 3, f7)


def test_open_errors(tmp_path, f7):
    bad = tmp_path / "bad.trn"
    for header in (TAG + b" ROW x 7\n", TAG + b" XYZ 3 7\n",  # bad fields
                   b"smithy-trn/1 ROW 3 7\n", TAG + b" ROW 3\n"):  # bad tag, short
        bad.write_bytes(trn_signed(header, 0))
        refused(bad, f7, "bad header")
    # a negative dimension, under a trailer that matches
    bad.write_bytes(trn_signed(trn_header(ROW, -3, 7), 0))
    refused(bad, f7, "bad header")
    # a text record under a binary header reads as a count far too large
    bad.write_bytes(trn_signed(trn_header(ROW, 3, 7) + b"K 1 2\n", 1))
    refused(bad, f7, "above the limit of 4096")
    # the old dilation case: no record kind holds one, so a scalar >= p
    bad.write_bytes(trn_file(ROW, 3, 7, [(0, 1, 0), (1, 0, 7)]))
    refused(bad, f7, "exceeds dimension 3 or modulus 7")
    good = tmp_path / "good.trn"
    good.write_bytes(trn_file(ROW, 3, 7, [(0, 1, 0)]))
    with pytest.raises(TranscriptError, match="modulus 7 does not match expected 11"):
        Transcript.open(good, FieldSpec(11))
    assert list(Transcript.open(good).records()) == [(0, 1, 0)]


def test_text_transcripts_are_refused(tmp_path, f7):
    """A finalized transcript in the text layout of an earlier smithy is
    refused by its header, with a message that says to recompute it."""
    path = tmp_path / "old.trn"
    body = b"ROW 3 7\nS 0 1\nT 1 2 3\n"
    path.write_bytes(body + b"E 2 %d\n" % zlib.crc32(body))
    refused(path, f7, "text transcript from an earlier smithy: recompute it")


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
        ops = [(*rng.sample(range(dim), 2), 0) if rng.random() < 0.25
               else (*rng.sample(range(dim), 2), rng.randrange(1, 12379))
               for _ in range(n)]
        assert sum(not op[2] for op in ops) >= n // 5
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
    ops = [(0, 1, 0), (1, 0, 3), (0, 1, 2)]
    tr = write_transcript(tmp_path / "c.trn", ROW, 2, f7, ops)
    it1 = tr.records()
    it2 = tr.records_reversed()
    assert next(it1) == ops[0]
    assert next(it2) == ops[2]
    assert next(it1) == ops[1]
    assert next(it2) == ops[1]
    assert list(it1) == [ops[2]]
    assert list(it2) == [ops[0]]


DAMAGE_OPS = [(0, 1, 3), (1, 2, 0), (2, 1, 5), (2, 0, 6)]


def test_trailer_counts_and_checksums(tmp_path, f7):
    path = tmp_path / "t.trn"
    write_transcript(path, ROW, 3, f7, DAMAGE_OPS)
    data = path.read_bytes()
    body, trailer = data[:-16], data[-16:]
    assert trailer == (bytes(4) + (4).to_bytes(8, "little")
                       + zlib.crc32(body).to_bytes(4, "little"))
    assert body == trn_header(ROW, 3, 7) + trn_chunk(DAMAGE_OPS)


def test_damaged_transcripts_are_refused(tmp_path, f7, monkeypatch):
    """Written two records a chunk: a file cut short, a flipped byte in
    any field, a trailer that does not match, bytes after it and framing
    that does not add up are refused by both readers."""
    monkeypatch.setattr(smithy.transcript, "_CHUNK", 2)
    path = tmp_path / "t.trn"
    write_transcript(path, ROW, 3, f7, DAMAGE_OPS)
    good = path.read_bytes()
    header, first, second = trn_header(ROW, 3, 7), trn_chunk(DAMAGE_OPS[:2]), \
        trn_chunk(DAMAGE_OPS[2:])
    assert good == trn_signed(header + first + second, 4)
    h = len(header)

    def flipped(offset, mask):  # the byte at offset in the first chunk
        data = bytearray(good)
        data[h + offset] ^= mask
        return bytes(data)

    damaged = {
        # the first chunk's count 2 -> 3, a = 0 -> 2, b = 1 -> 2 and
        # v = 3 -> 2: each stays in range, so only the CRC sees it
        "flipped count": flipped(0, 1),
        "flipped a": flipped(4, 2),
        "flipped b": flipped(12, 3),
        "flipped v": flipped(20, 1),
        "cut at a chunk boundary": header + first,
        "cut inside a chunk": header + first + second[:7],
        "cut inside the trailer": good[:-3],
        "missing trailer": good[:-16],
        "bytes after trailer": good + trn_chunk(DAMAGE_OPS[:1]),
        "zero byte after trailer": good + b"\0",
        "wrong count": trn_signed(header + first + second, 3),
        "count running into the trailer": trn_signed(
            header + first + (3).to_bytes(4, "little") + second[4:], 4),
        "empty chunk left out of the count": trn_signed(header + first + bytes(4) + second, 4),
        "empty chunk in the count": trn_signed(header + first + bytes(4) + second, 5),
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
    """Records written chunk to a chunk decode the same, and the file is
    refused cut short, with bytes after its trailer, or by a reader whose
    chunks are smaller than the writer's."""
    monkeypatch.setattr(smithy.transcript, "_CHUNK", chunk)
    rng = random.Random(chunk)
    ops = DAMAGE_OPS + random_ops(rng, 3, 7) + random_ops(rng, 3, 7)
    path = tmp_path / "t.trn"
    write_transcript(path, ROW, 3, f7, ops)
    good = path.read_bytes()
    assert good == trn_file(ROW, 3, 7, ops, chunk)
    assert list(Transcript.open(path, f7).records()) == ops
    for bad in (good[:-1], good[:-17], good + b"\n", good + good[-16:]):
        path.write_bytes(bad)
        with pytest.raises(TranscriptError):
            Transcript.open(path, f7)
    path.write_bytes(good)
    monkeypatch.setattr(smithy.transcript, "_CHUNK", chunk - 1 or 1)
    if chunk > 1:
        with pytest.raises(TranscriptError, match="a chunk of %d records" % chunk):
            Transcript.open(path, f7)


def test_oversized_chunk_count_is_refused_before_a_read(tmp_path, f7):
    """A count flipped far above a chunk's size is refused before the
    reader asks for that many bytes: the allocation peak stays small."""
    path = tmp_path / "t.trn"
    write_transcript(path, ROW, 3, f7, DAMAGE_OPS)
    data = bytearray(path.read_bytes())
    h = len(trn_header(ROW, 3, 7))
    for byte in (2, 3):  # count 4 -> 4 + 2**23 or 4 + 2**31: 80 MB or 20 GB
        bad = bytearray(data)
        bad[h + byte] ^= 0x80
        path.write_bytes(bytes(bad))
        for read in (lambda: Transcript.open(path, f7),
                     lambda: trace_lines(path, ROW, 3, f7)):
            tracemalloc.start()
            try:
                with pytest.raises(TranscriptError, match="above the limit of 4096"):
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak


@pytest.mark.parametrize("flipped", [False, True], ids=["as-is", "flag-flipped"])
def test_file_layout(tmp_path, f12379, monkeypatch, flipped):
    """Four records, both kinds and an index at or above 2**16, as bytes
    built by hand equal what create, append and finalize write, and decode
    back to the records.  The flag-flipped run flips the module's
    byte-order flag, so that on a little-endian host the byteswap path of
    a big-endian one runs: the record columns are then written and read
    big-endian, while the counts and the trailer, packed little-endian
    explicitly, do not change."""
    if flipped:
        monkeypatch.setattr(smithy.transcript, "_BYTESWAP",
                            not smithy.transcript._BYTESWAP)
    order = "big" if flipped else "little"
    ops = [(70000, 3, 12378), (0, 70001, 0), (1, 65536, 1), (65535, 2, 0)]
    header = TAG + b" COL 70002 12379\n"
    chunk = ((4).to_bytes(4, "little")
             + b"".join(x.to_bytes(4, order) for x in (70000, 0, 1, 65535))
             + b"".join(x.to_bytes(4, order) for x in (3, 70001, 65536, 2))
             + b"".join(x.to_bytes(2, order) for x in (12378, 0, 1, 0)))
    want = header + chunk + (0).to_bytes(4, "little") + (4).to_bytes(8, "little") \
        + zlib.crc32(header + chunk).to_bytes(4, "little")
    path = tmp_path / "t.trn"
    tr = write_transcript(path, COL, 70002, f12379, ops)
    assert path.read_bytes() == want
    assert list(tr.records()) == ops
    src, written = trace_lines(path, COL, 70002, f12379)
    assert (src[0], src[70001], src[2], src[65535]) == (70001, 0, 65535, 2)
    assert [i for i, w in enumerate(written) if w] == [1, 70000]


def followed_lines(tr):
    """What trace_lines gives, from the decoded records: a swap exchanges
    two lines, and a transvection writes the line it names first."""
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
            ops.append((x, y, rng.randrange(1, p)))
        if rng.randrange(3):
            ops.append((*rng.sample(range(dim), 2), 0))
    return ops


# runs writing 1 and 10, 1 and 11, 0 and 11: one line's pattern must not
# count another's records
SEVERAL_LINES_OPS = [(1, 0, 2), (10, 0, 3), (1, 10, 0),
                     (1, 2, 4), (11, 4, 5), (1, 3, 6),
                     (0, 1, 0), (11, 3, 1), (0, 2, 3)]


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
    """Records under a trailer that matches, each refused by both readers.
    A scalar of 0 makes a swap in this format, so the old scalar-0 case
    is the largest scalar a record holds."""
    path = tmp_path / "t.trn"
    for record, why in (((0, 3, 0), "exceeds"), ((3, 0, 1), "exceeds"),
                        ((0, 1, 7), "exceeds"), ((0, 1, 0xFFFF), "exceeds"),
                        ((0, 2**32 - 1, 0), "exceeds"),
                        ((1, 1, 0), "one line twice"),
                        ((2, 2, 5), "one line twice")):
        path.write_bytes(trn_file(ROW, 3, 7, [(0, 1, 0), record]))
        refused(path, f7, why)
    path.write_bytes(trn_file(ROW, 3, 7, [(0, 2, 0)]))
    assert list(Transcript.open(path, f7).records()) == [(0, 2, 0)]


def test_unfinalized_transcript_is_refused(tmp_path, f7, monkeypatch):
    """Refused whether its record was still buffered or, one record a
    chunk, written out."""
    path = tmp_path / "t.trn"
    for chunk in (1 << 12, 1):
        monkeypatch.setattr(smithy.transcript, "_CHUNK", chunk)
        tr = Transcript.create(path, COL, 3, f7)
        tr.append(0, 1, 0)
        with pytest.raises(TranscriptError):
            tr.apply_vec([1, 2, 3])
        tr.abandon()
        with pytest.raises(TranscriptError):
            tr.apply_vec([1, 2, 3])
        with pytest.raises(TranscriptError):
            Transcript.open(path, f7)
    assert os.path.getsize(path) > len(trn_header(COL, 3, 7))


def test_each_transcript_is_decoded_once(tmp_path, f7):
    rng = random.Random(25)
    for trial, side in enumerate((ROW, COL, ROW, COL)):
        dim = 5
        ops = [(0, 1, 2)] + random_ops(rng, dim, 7)
        path = tmp_path / ("d%d.trn" % trial)
        created = Transcript.create(path, side, dim, f7)
        for op in ops:
            created.append(*op)
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
