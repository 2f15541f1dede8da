import os
import random

import pytest

from smithy import (COL, FieldSpec, SnfOptions, SparseMatrix, Transcript,
                    disk_hnf, snf)
from smithy.reduce import _Engine

from conftest import dense_rank, random_dense


def replay(res, d):
    """P . D . Q from the transcripts; falls back to D when a side was
    not recorded (the tests only do that when the side is the identity)."""
    out = d.copy()
    if res.q is not None:
        res.q.apply_mat_right(out)
    if res.p is not None:
        out = res.p.apply_mat_left(out)
    return out


def run_snf(rows, p, tmp_path, tag, **kw):
    a = SparseMatrix.from_dense(rows, FieldSpec(p))
    kw.setdefault("emit_p", True)
    kw.setdefault("emit_q", True)
    res = snf(a, SnfOptions(workdir=str(tmp_path / tag), **kw))
    return a, res


def test_markowitz_examples(f7):
    def pivots(a, c):
        eng = _Engine(a, start=c)
        return eng.find_pivot(), eng.reference_pivot()

    assert pivots(SparseMatrix.identity(2, f7), 0) == ((0, 0), (0, 0))
    a = SparseMatrix.from_dense([[1, 1, 1], [1, 0, 0]], f7)
    assert pivots(a, 0) == ((0, 1), (0, 1))
    assert pivots(SparseMatrix(3, 3, f7), 0) == (None, None)
    b = SparseMatrix.from_dense([[1, 0], [0, 1]], f7)
    assert pivots(b, 1) == ((1, 1), (1, 1))
    assert pivots(b, 2) == (None, None)


def test_zero_matrix(tmp_path):
    a, res = run_snf([[0, 0, 0], [0, 0, 0]], 7, tmp_path, "z")
    assert res.rank == 0
    assert res.diag == []
    assert res.fill_log == [0]
    assert len(res.p) == 0 and len(res.q) == 0
    assert a.to_dense() == [[0, 0, 0], [0, 0, 0]]


def test_identity(tmp_path):
    a, res = run_snf([[1, 0], [0, 1]], 7, tmp_path, "i")
    assert res.rank == 2
    assert res.diag == [1, 1]
    assert len(res.p) == 0 and len(res.q) == 0  # no swaps, nothing to clear
    assert replay(res, a).to_dense() == [[1, 0], [0, 1]]


def test_worked_2x2_both_paths(tmp_path):
    for tag, tau in (("a", None), ("b", 1)):
        a, res = run_snf([[0, 2], [3, 0]], 7, tmp_path, tag, tau=tau)
        assert res.rank == 2
        assert res.fill_log == [2, 1, 0]
        assert a.to_dense() == [[2, 0], [0, 3]]
        assert replay(res, a).to_dense() == [[0, 2], [3, 0]]
        assert (res.hnf_stats is not None) == (tau == 1)


def test_single_row_and_column(tmp_path):
    a, res = run_snf([[0, 5, 0, 3]], 7, tmp_path, "r")
    assert res.rank == 1
    assert replay(res, a).to_dense() == [[0, 5, 0, 3]]
    b, res2 = run_snf([[0], [4], [1]], 7, tmp_path, "c")
    assert res2.rank == 1
    assert replay(res2, b).to_dense() == [[0], [4], [1]]


def test_empty_shapes(tmp_path, f7):
    for m, n in ((0, 4), (4, 0), (0, 0)):
        a = SparseMatrix(m, n, f7)
        res = snf(a, SnfOptions(emit_p=True, emit_q=True,
                                workdir=str(tmp_path / ("e%d%d" % (m, n)))))
        assert res.rank == 0
        assert res.fill_log == [0]


def test_fill_log_semantics(tmp_path):
    # dense 3x3: the log starts at nnz, ends at 0, never exceeds min(m,n)+1 entries
    rows = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
    a, res = run_snf(rows, 7, tmp_path, "f")
    assert res.fill_log[0] == 7
    assert res.fill_log[-1] == 0
    assert len(res.fill_log) <= 4
    path = tmp_path / "fill.txt"
    a2 = SparseMatrix.from_dense(rows, FieldSpec(7))
    res2 = snf(a2, SnfOptions(fill_log_path=str(path),
                              workdir=str(tmp_path / "f2")))
    assert [int(x) for x in path.read_text().split()] == res2.fill_log


def test_diag_values_unnormalized(tmp_path):
    a, res = run_snf([[0, 2], [3, 0]], 7, tmp_path, "u")
    assert res.diag == [2, 3]  # pivots keep their values unless asked


def test_normalize_pivots(tmp_path):
    for tag, emit_p, emit_q in (("pp", True, True), ("pq", False, True),
                                ("pr", True, False), ("ps", False, False)):
        a = SparseMatrix.from_dense([[0, 2], [3, 0]], FieldSpec(7))
        res = snf(a, SnfOptions(emit_p=emit_p, emit_q=emit_q,
                                normalize_pivots=True,
                                workdir=str(tmp_path / tag)))
        assert res.diag == [1, 1]
        assert a.to_dense() == [[1, 0], [0, 1]]
        if emit_p and emit_q:
            assert replay(res, a).to_dense() == [[0, 2], [3, 0]]


def test_oracle_batch_small(tmp_path):
    rng = random.Random(31)
    for trial in range(60):
        p = 7 if trial % 2 else 12379
        m, n = rng.randrange(1, 14), rng.randrange(1, 14)
        rows = random_dense(rng, m, n, p, rng.uniform(0.1, 0.5))
        tau = rng.choice([None, 1, 8])
        a, res = run_snf(rows, p, tmp_path, "o%d" % trial, tau=tau,
                         paranoid=True)
        assert res.rank == dense_rank(rows, p)
        assert replay(res, a).to_dense() == rows
        assert res.fill_log[-1] == 0
        assert a.to_dense() == [
            [res.diag[i] if i == j and i < res.rank else 0 for j in range(n)]
            for i in range(m)]


def test_rank_only_runs_without_transcripts(tmp_path):
    rng = random.Random(33)
    rows = random_dense(rng, 10, 12, 7, 0.3)
    a = SparseMatrix.from_dense(rows, FieldSpec(7))
    res = snf(a, SnfOptions(workdir=str(tmp_path / "nt")))
    assert res.p is None and res.q is None
    assert res.rank == dense_rank(rows, 7)


def test_deterministic(tmp_path):
    rng = random.Random(35)
    rows = random_dense(rng, 12, 15, 7, 0.25)
    outs = []
    for tag in ("d1", "d2"):
        a = SparseMatrix.from_dense(rows, FieldSpec(7))
        res = snf(a, SnfOptions(emit_p=True, emit_q=True, tau=10,
                                workdir=str(tmp_path / tag)))
        outs.append((res.diag, res.fill_log,
                     open(res.p.path, "rb").read(),
                     open(res.q.path, "rb").read()))
    assert outs[0] == outs[1]


def test_tau_zero_triggers_immediately(tmp_path):
    a, res = run_snf([[1, 1], [0, 1]], 7, tmp_path, "t0", tau=0)
    assert res.hnf_stats is not None
    assert res.hnf_stats.pivot_index == 0
    assert replay(res, a).to_dense() == [[1, 1], [0, 1]]


def test_disk_hnf_echelon_structure(tmp_path, f7):
    rng = random.Random(41)
    for trial in range(25):
        m, n = rng.randrange(1, 9), rng.randrange(1, 11)
        rows = random_dense(rng, m, n, 7, 0.35)
        a = SparseMatrix.from_dense(rows, f7)
        q = Transcript.create(str(tmp_path / ("h%d.trn" % trial)), COL, n, f7)
        stats = disk_hnf(a, 0, q=q)
        q.finalize()
        a.check()
        dense = a.to_dense()
        rank = dense_rank(rows, 7)
        assert stats.echelon_columns == rank
        pivots = []
        for j in range(rank):
            col = [dense[i][j] for i in range(m)]
            piv = next(i for i, v in enumerate(col) if v)
            pivots.append(piv)
            # full reduction: the pivot row is zero everywhere else
            assert all(dense[piv][j2] == 0 for j2 in range(n) if j2 != j)
        assert pivots == sorted(pivots)
        for j in range(rank, n):
            assert all(dense[i][j] == 0 for i in range(m))
        # replay: result times the recorded ops restores the input
        back = a.copy()
        Transcript.open(str(tmp_path / ("h%d.trn" % trial)), f7) \
            .apply_mat_right(back)
        assert back.to_dense() == rows


def test_disk_hnf_zero_and_echelon_inputs(tmp_path, f7):
    a = SparseMatrix.from_dense([[0, 3], [0, 0]], f7)
    disk_hnf(a, 0)
    assert a.to_dense() == [[3, 0], [0, 0]]  # zero column pushed right
    b = SparseMatrix.from_dense([[1, 0], [0, 2]], f7)
    disk_hnf(b, 0)
    assert dense_rank(b.to_dense(), 7) == 2


def test_disk_hnf_below_existing_pivots(tmp_path, f7):
    # columns >= c are confined to rows >= c; earlier columns stay put
    rows = [[1, 5, 0, 0, 0],
            [0, 2, 0, 0, 0],
            [3, 0, 4, 0, 2],
            [1, 1, 2, 0, 1]]
    a = SparseMatrix.from_dense(rows, f7)
    q = Transcript.create(str(tmp_path / "c2.trn"), COL, 5, f7)
    disk_hnf(a, 2, q=q)
    q.finalize()
    a.check()
    dense = a.to_dense()
    assert [row[:2] for row in dense] == [row[:2] for row in rows]
    sub = [row[2:] for row in dense[2:]]
    assert dense_rank(sub, 7) == dense_rank([row[2:] for row in rows[2:]], 7)
    back = a.copy()
    Transcript.open(str(tmp_path / "c2.trn"), f7).apply_mat_right(back)
    assert back.to_dense() == rows


def test_disk_hnf_rejects_entries_above_region(f7):
    rows = [[0, 0, 2], [0, 1, 0], [0, 0, 3]]
    a = SparseMatrix.from_dense(rows, f7)
    with pytest.raises(ValueError):
        disk_hnf(a, 1)
    assert a.to_dense() == rows  # untouched on refusal


def test_spill_dir_env(tmp_path, monkeypatch, f7):
    spill = tmp_path / "spills"
    monkeypatch.setenv("SMITHY_SPILL_DIR", str(spill))
    a = SparseMatrix.from_dense([[1, 1], [1, 0]], f7)
    res = snf(a, SnfOptions(tau=1, workdir=str(tmp_path / "wd")))
    assert res.hnf_stats.spill_path.startswith(str(spill))
    assert not os.path.exists(res.hnf_stats.spill_path)  # removed on success
