import hashlib
import io
import os
import random
import tempfile
import tracemalloc
from heapq import heappush
from pathlib import Path

import pytest

import smithy
from smithy import (COL, ROW, FieldSpec, MatrixFormatError, SnfOptions,
                    SparseMatrix, Transcript, TranscriptError, read_matrix,
                    reduce, snf)
from smithy.cli import EXIT_PARSE, main
from smithy.reduce import _disk_echelon, _Engine

from conftest import (dense_rank, load_gen, random_dense, sparse_copy,
                      sparse_identity, torus_coboundary, transcript_text)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture30x40.sms")


def replay(res, d):
    """P . D . Q from the transcripts; falls back to D when a side was
    not recorded (the tests only do that when the side is the identity)."""
    out = sparse_copy(d)
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
        eng = _Engine(a)
        eng.c = c
        return eng.find_pivot(), eng.reference_pivot()

    assert pivots(sparse_identity(2, f7), 0) == ((0, 0), (0, 0))
    a = SparseMatrix.from_dense([[1, 1, 1], [1, 0, 0]], f7)
    assert pivots(a, 0) == ((0, 1), (0, 1))
    assert pivots(SparseMatrix(3, 3, f7), 0) == (None, None)
    b = SparseMatrix.from_dense([[1, 0], [0, 1]], f7)
    assert pivots(b, 1) == ((1, 1), (1, 1))
    assert pivots(b, 2) == (None, None)
    # the pivot-free start column holds no entry, so total - c undercounts
    z = SparseMatrix.from_dense([[0, 0], [0, 1]], f7)
    assert pivots(z, 1) == ((1, 1), (1, 1))


# SHA-256 of p.trn and q.trn for the 30x40 fixture, recorded before the
# cached-key pivot search replaced the scanning one: any change to the pivot
# order or the tie-break shows here.  Every pinned transcript hash in this
# file is of the file's records rendered in the old text layout
# (transcript_text), and was recorded when that layout was the file itself.
FIXTURE_TRANSCRIPTS = {
    "plain": ({},
              "df347c04d864f6e9e03aed8c657bf0ef092d39963cd3b7ac959458bad0e1083f",
              "300dd39d328b0cd2b5260dcf7b0590962e51c7666b0392ca5e2eae320f8de68d"),
    "tau0": ({"tau": 0},
             "49e903cc9489dfaba44574d31da1c120314812edcb09d2990db06d315356b76b",
             "5f54fece1f8f9ed0226d280138533482542f3533bcd68ec84168811bbad571aa"),
}


@pytest.mark.parametrize("tag", sorted(FIXTURE_TRANSCRIPTS))
def test_fixture_transcripts_are_pinned(tmp_path, tag):
    kw, p_sha, q_sha = FIXTURE_TRANSCRIPTS[tag]
    a = read_matrix(FIXTURE)
    res = snf(a, SnfOptions(emit_p=True, emit_q=True, workdir=str(tmp_path), **kw))
    assert res.rank == 29
    for path, want in ((res.p.path, p_sha), (res.q.path, q_sha)):
        assert hashlib.sha256(transcript_text(path)).hexdigest() == want


def test_fixture_transcript_bytes_are_pinned(tmp_path):
    """The binary files themselves, for the plain fixture run: any change
    to the encoding shows here, where the rendered hashes above hold."""
    a = read_matrix(FIXTURE)
    res = snf(a, SnfOptions(emit_p=True, emit_q=True, workdir=str(tmp_path)))
    assert (len(res.p), len(res.q)) == (28, 79)
    for tr, want in (
            (res.p, "36ced9d53b406ab5368e11976cd30e2b45217af11c5f955bf8813b96cec9eaf4"),
            (res.q, "d683351282027bdaad34c78827a4f56e092560552a2b708cdab1e3740fdf223d")):
        with open(tr.path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == want


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
    # at tau = 0 the count that crossed tau is logged, before the disk echelon
    _, res3 = run_snf(rows, 7, tmp_path, "f3", tau=0)
    assert res3.hnf_stats is not None
    assert res3.fill_log[0] == 7
    assert len(res3.fill_log) == res3.rank + 1


def test_diag_values_unnormalized(tmp_path):
    a, res = run_snf([[0, 2], [3, 0]], 7, tmp_path, "u")
    assert res.diag == [2, 3]  # pivots keep their values


def tie_heavy(p):
    """Two matrices whose pivots are mostly decided by the (i, j) tie-break:
    the vertex-by-edge incidence of the 4x4 torus grid (two entries per
    column, four per row) and the 16x16 circulant with entries at offsets
    0, 1, 3, 7 (four per row and column), whose fill rises for a few pivots."""
    grid = [[0] * 32 for _ in range(16)]
    for v in range(16):
        x, y = divmod(v, 4)
        for t, w in enumerate((((x + 1) % 4) * 4 + y, x * 4 + (y + 1) % 4)):
            grid[v][2 * v + t] = p - 1
            grid[w][2 * v + t] = 1
    circ = [[0] * 16 for _ in range(16)]
    for j in range(16):
        for t, off in enumerate((0, 1, 3, 7)):
            circ[(j + off) % 16][j] = t + 1
    return grid, circ


# SHA-256 of p.trn and q.trn for tie_heavy(7)'s circulant: each of its 45
# pivot-row updates merges a pivot column of several entries, a path the
# fixture's runs never take.  First recorded before step 4 cancelled in
# place; re-recorded when ties moved from the current to the physical row,
# which changes this input's pivots
def test_circulant_transcripts_are_pinned(tmp_path):
    rows = tie_heavy(7)[1]
    a, res = run_snf(rows, 7, tmp_path, "circ")
    assert res.rank == 16
    assert 0 < res.searched < res.rank  # both the cost-0 lane and the key search pick
    for tr, want in (
            (res.p, "3ad26098bc7e4d1ccf21caca104ac0268e037750385ebb526c39b6fa55d20add"),
            (res.q, "d6d9f721d80bceb8c8f77a85d80a306adf68b03d191ce93b9753e0c958d8b1ac")):
        assert hashlib.sha256(transcript_text(tr.path)).hexdigest() == want
    assert replay(res, a).to_dense() == rows


# The disk echelon pass entered at pivot 0 (the fixture at tau 0) and after
# three pivots (tie_heavy(7)'s circulant at tau 68, its peak fill): every
# HnfStats field, and the SHA-256 of p.trn and q.trn, all
# recorded before the echelon's vectors moved into the engine's columns.
# The circulant's q.trn was re-recorded when the pass stopped reordering its
# columns: the loop swaps each pivot column into place itself, so two
# redundant swaps went (102 -> 100 records); its stats and p.trn are as before
ECHELON_PASSES = {
    "fixture-tau0": (dict(pivot_index=0, columns_streamed=35, echelon_columns=29,
                          peak_echelon_nnz=71, final_echelon_nnz=29),
                     FIXTURE_TRANSCRIPTS["tau0"][1:]),
    "circulant-mid-run": (
        dict(pivot_index=3, columns_streamed=13, echelon_columns=13,
             peak_echelon_nnz=42, final_echelon_nnz=13),
        ("2a742e04ccb9e9cb6d0aaf7592f1b9a1a913173b7ab4ef9fd84ec0976ebf2b97",
         "dc67add54f95ef0e14d7992f98b6f3834f154b4d150c84e2b862aa09751c2954")),
}


@pytest.mark.parametrize("tag", sorted(ECHELON_PASSES))
def test_echelon_passes_are_pinned(tmp_path, tag):
    stats, shas = ECHELON_PASSES[tag]
    if tag == "fixture-tau0":
        a, tau = read_matrix(FIXTURE), 0
    else:
        a, tau = SparseMatrix.from_dense(tie_heavy(7)[1], FieldSpec(7)), 68
    rows = a.to_dense()
    res = snf(a, SnfOptions(emit_p=True, emit_q=True, tau=tau, workdir=str(tmp_path)))
    assert vars(res.hnf_stats) == stats
    for tr, want in zip((res.p, res.q), shas):
        assert hashlib.sha256(transcript_text(tr.path)).hexdigest() == want
    assert replay(res, a).to_dense() == rows


def skinny(seed, m, p):
    """A seeded m x 3m matrix with 1-6 entries per column, the shape of
    the benchmark's skinny workload."""
    rng = random.Random(seed)
    a = SparseMatrix(m, 3 * m, FieldSpec(p))
    for j in range(3 * m):
        a.set_col(j, sorted(i << a.spec.k | rng.randrange(1, p)
                            for i in rng.sample(range(m), rng.randint(1, 6))))
    return a


# SHA-256 of p.trn and q.trn for skinny(51, 300, 12379): most of its pivot
# rows are cleared against a singleton pivot column.  First recorded before
# row swaps and singleton clears updated pivot keys in O(1); re-recorded
# when ties moved from the current to the physical row, which changes this
# input's pivots.  Keyed False: the pivots are not normalized
SKINNY_TRANSCRIPTS = {
    False: ("4180f761a3f4c469f50522ccaa389ab9ddfb61859646855edf3009e712093883",
            "3c64bebe71e618a495839f18988f129e6a20eba802ab398d4864757e603b916f"),
}


@pytest.mark.parametrize("normalized", list(SKINNY_TRANSCRIPTS))
def test_skinny_transcripts_are_pinned(tmp_path, normalized):
    a = skinny(51, 300, 12379)
    rows = a.to_dense()
    res = snf(a, SnfOptions(emit_p=True, emit_q=True, workdir=str(tmp_path)))
    assert res.rank == 300
    assert res.searched == 0  # every pivot has Markowitz cost 0
    for tr, want in zip((res.p, res.q), SKINNY_TRANSCRIPTS[normalized]):
        assert hashlib.sha256(transcript_text(tr.path)).hexdigest() == want
    assert replay(res, a).to_dense() == rows


def test_skinny_cost_zero_pivots_paranoid(tmp_path):
    """The pinned skinny input under paranoid checks: each of its 300
    cost-0 pivots, taken from the cost-0 heap, is checked against the
    reference scan, and the transcripts are the pinned ones."""
    a = skinny(51, 300, 12379)
    res = snf(a, SnfOptions(emit_p=True, emit_q=True, workdir=str(tmp_path), paranoid=True))
    assert (res.rank, res.searched) == (300, 0)
    for tr, want in zip((res.p, res.q), SKINNY_TRANSCRIPTS[False]):
        assert hashlib.sha256(transcript_text(tr.path)).hexdigest() == want


def test_clear_row_refuses_a_drifted_pattern(f7):
    eng = _Engine(SparseMatrix.from_dense([[1, 0], [0, 2]], f7))
    eng.rows_pat[0].append(1)  # column 1 holds no entry in row 0
    with pytest.raises(AssertionError, match="row pattern drifted"):
        eng.clear_row(0, 0, 1, None)


@pytest.mark.parametrize("pr,pattern", [(0, [0, 0, 1]), (0, [1]), (1, [1, 0])],
                         ids=["duplicate", "missing", "extra"])
def test_recheck_refuses_a_pattern_unlike_the_columns(f7, pr, pattern):
    """Patterns are unordered, so recheck accepts row 0 as [1, 0] but
    refuses a column repeated, left out or not in the row."""
    eng = _Engine(SparseMatrix.from_dense([[1, 1], [0, 1]], f7))
    eng.rows_pat[0] = [1, 0]
    eng.recheck()
    eng.rows_pat[pr] = pattern
    with pytest.raises(AssertionError):
        eng.recheck()


# case -> (input, snf options, (every pivot of cost 0, disk echelon ran))
SHUFFLED = {
    "skinny": (lambda: skinny(51, 300, 12379), {}, (True, False)),
    "circulant": (lambda: SparseMatrix.from_dense(tie_heavy(7)[1], FieldSpec(7)), {},
                  (False, False)),
    "fixture-tau0": (lambda: read_matrix(FIXTURE), {"tau": 0}, (True, True)),
}


@pytest.mark.parametrize("case", list(SHUFFLED))
def test_shuffled_row_patterns_change_nothing(tmp_path, monkeypatch, case):
    """Row patterns are unordered: shuffled right after the engine builds
    them and after each column edit, the reduction takes the same pivots
    and writes the same diagonal and transcript bytes as a paranoid run on
    the patterns as kept.  The skinny input takes every pivot in the
    cost-0 lane, the circulant's key search picks some, and at tau 0 the
    disk echelon reads them."""
    make, kw, lanes = SHUFFLED[case]
    find, init, set_col = _Engine.find_pivot, _Engine.__init__, _Engine.set_col
    rng = random.Random(97)

    def recording(eng):
        pivots[-1].append(find(eng))
        return pivots[-1][-1]

    def shuffled(eng, mat):
        init(eng, mat)
        for row in eng.rows_pat:
            rng.shuffle(row)

    def set_col_shuffled(eng, j, new):
        set_col(eng, j, new)
        for e in new:
            rng.shuffle(eng.rows_pat[e >> eng.k])

    def run(tag, **opts):
        pivots.append([])
        return snf(make(), SnfOptions(emit_p=True, emit_q=True, workdir=str(tmp_path / tag),
                                      **kw, **opts))

    pivots = []
    monkeypatch.setattr(_Engine, "find_pivot", recording)
    want = run("want", paranoid=True)
    monkeypatch.setattr(_Engine, "__init__", shuffled)
    monkeypatch.setattr(_Engine, "set_col", set_col_shuffled)
    got = run("got")
    want_piv, got_piv = pivots
    assert (got.searched == 0, got.hnf_stats is not None) == lanes
    assert got_piv == want_piv
    assert (got.diag, got.searched, got.fill_log) == (want.diag, want.searched, want.fill_log)
    for g, w in ((got.p, want.p), (got.q, want.q)):
        assert Path(g.path).read_bytes() == Path(w.path).read_bytes()


def engine_bytes_per_nonzero(a):
    tracemalloc.start()
    try:
        eng = _Engine(a)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert eng.total == a.nnz
    return held / a.nnz


def test_engine_memory_per_nonzero():
    """The engine's own state at entry (row patterns as lists, the
    permutation as arrays, no pivot keys yet) stays under 60 bytes per
    stored nonzero; a set per row took over 120."""
    gen = load_gen()
    for a in (skinny(1, 2000, 12379),
              torus_coboundary(gen.Torus(3, 6, 1), 2, FieldSpec(gen.PRIME))):
        assert engine_bytes_per_nonzero(a) <= 60


def test_ties_break_on_the_physical_row(f7):
    """Once a row swap makes current and physical order disagree, equal
    costs go to the smallest physical row, then the smallest column."""
    # every entry costs 0; physical row 0 holds only column 1
    eng = _Engine(SparseMatrix.from_dense([[0, 1], [0, 0], [1, 0]], f7))
    assert eng.find_pivot() == eng.reference_pivot() == (0, 1)
    eng.swap_rows(0, 2)
    assert (eng.cur_of[0], eng.cur_of[2]) == (2, 0)
    assert eng.find_pivot() == eng.reference_pivot() == (0, 1)
    # the 4 x 4 circulant with offsets 0, 1: every entry costs 1
    eng = _Engine(SparseMatrix.from_dense(
        [[1 if (j - i) % 4 in (0, 1) else 0 for j in range(4)] for i in range(4)], f7))
    eng.swap_rows(0, 2)
    eng.swap_rows(1, 3)
    assert list(eng.phys_of) == [2, 3, 0, 1]  # current row 0 holds columns 2, 3
    assert eng.find_pivot() == eng.reference_pivot() == (0, 0)


def test_swap_rows_keeps_every_key_current(f7):
    """After any row swap, every cached key matches a fresh scan: keys name
    physical rows, so swap_rows leaves them as they are.  zero names
    physical rows too, so swap_cols leaves it as it is, and the search
    still finds the reference pivot."""
    rng = random.Random(61)
    for trial in range(40):
        m, n = rng.randrange(2, 9), rng.randrange(1, 9)
        eng = _Engine(SparseMatrix.from_dense(random_dense(rng, m, n, 7, 0.5), f7))
        for _ in range(5):
            eng.find_pivot()
            eng.swap_rows(*sorted(rng.sample(range(m), 2)))
            eng.recheck()
            if n > 1:
                zero = list(eng.zero)
                eng.swap_cols(*rng.sample(range(n), 2))
                assert eng.zero == zero
                eng.recheck()
            assert eng.find_pivot() == eng.reference_pivot()


def test_finished_rows_stay_off_the_cost0_heap(monkeypatch):
    """snf advances c before it clears a pivot's row and column, so no row
    is pushed onto zero whose pattern holds only finished columns (the
    pivot column counts as finished once the pivot is chosen).  The
    (3, 4) torus delta_1 takes every pivot from the key search, each
    against a column of several entries; the fixture takes every pivot at
    cost 0, and its pushes show that the hook sees them."""
    engines = []

    class Recorder(_Engine):
        def __init__(self, mat):
            super().__init__(mat)
            self.done = 0  # columns below it are finished
            engines.append(self)

        def find_pivot(self):
            pivot = super().find_pivot()
            self.done = self.c + 1
            return pivot

    pushes, finished = [], []

    def push(heap, item):
        eng = engines[-1]
        if heap is eng.zero:
            pushes.append(item)
            if all(j < eng.done for j in eng.rows_pat[item]):
                finished.append(item)
        heappush(heap, item)

    monkeypatch.setattr(reduce, "_Engine", Recorder)
    monkeypatch.setattr(reduce, "heappush", push)
    gen = load_gen()
    assert snf(torus_coboundary(gen.Torus(3, 4, 1), 1, FieldSpec(gen.PRIME))).searched > 0
    snf(read_matrix(FIXTURE))
    assert pushes and finished == []


def test_cost0_run_keeps_no_keys(monkeypatch):
    """A reduction whose every pivot has cost 0 never builds the pivot keys,
    so its edits mark no column or row dirty for them."""
    engines = []

    class Recorder(_Engine):
        def __init__(self, mat):
            super().__init__(mat)
            engines.append(self)

    monkeypatch.setattr(reduce, "_Engine", Recorder)
    res = snf(skinny(51, 300, 12379))
    assert (res.rank, res.searched) == (300, 0)
    eng, = engines
    assert eng.key == [] and eng.dirty_cols == set() and eng.dirty_rows == set()


def cost0_then_searched(seed, p):
    """Eight rows each holding a column of its own and, at random, some of
    twelve shared columns, over six rows full in those columns: the first
    eight pivots have cost 0, and the full block's are searched."""
    rng = random.Random(seed)
    rows = [[0] * 20 for _ in range(14)]
    for i in range(14):
        if i < 8:
            rows[i][i] = rng.randrange(1, p)
        for j in range(8, 20):
            if i >= 8 or rng.random() < 0.5:
                rows[i][j] = rng.randrange(1, p)
    return rows


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_keys_built_after_cost0_pivots(tmp_path, monkeypatch, seed):
    """The first search comes after cost-0 pivots whose edits marked
    nothing: its keys, built by a full scan, match a fresh scan, every
    pivot is the reference one, the transcripts are those of a paranoid
    run (which builds the keys at the first pivot) and replay to the input."""
    rows = cost0_then_searched(seed, 12379)
    _, ref = run_snf(rows, 12379, tmp_path, "paranoid", paranoid=True)
    unkeyed = []  # per pivot: no keys yet before its search

    class Recorder(_Engine):
        def find_pivot(self):
            unkeyed.append(not self.key)
            pivot = super().find_pivot()
            assert pivot == self.reference_pivot()
            if self.key:
                self.recheck()
            return pivot

    monkeypatch.setattr(reduce, "_Engine", Recorder)
    a, res = run_snf(rows, 12379, tmp_path, "plain")
    assert 0 < res.searched < res.rank == ref.rank
    assert unkeyed[:9] == [True] * 9 and not any(unkeyed[9:])
    for mine, theirs in ((res.p, ref.p), (res.q, ref.q)):
        with open(mine.path, "rb") as f, open(theirs.path, "rb") as g:
            assert f.read() == g.read()
    assert replay(res, a).to_dense() == rows


def test_row_count_changes_keep_every_key_current(f7):
    """Column edits between searches raise and lower row counts; the keys
    of the columns those rows touch are refreshed from each row's own cost
    (a rescan only where the argmin row got worse) and match a fresh scan."""
    rng = random.Random(67)
    for trial in range(60):
        m, n = rng.randrange(2, 10), rng.randrange(2, 10)
        eng = _Engine(SparseMatrix.from_dense(random_dense(rng, m, n, 7, 0.4), f7))
        for _ in range(6):
            assert eng.find_pivot() == eng.reference_pivot()
            for _ in range(rng.randrange(1, 4)):
                rows = sorted(rng.sample(range(m), rng.randrange(m + 1)))
                eng.set_col(rng.randrange(n), [i << eng.k | rng.randrange(1, 7) for i in rows])
            eng.recheck()


def test_torus_coboundary_paranoid(tmp_path):
    """delta_1 of the (3, 4) torus (768 x 448) under paranoid checks: its
    merges and pivot-column clears leave about 2,600 dirty rows to refresh.
    rank = n1 - rank(delta_0) - h1 = 448 - 63 - 3, and the transcripts
    replay to the input.  Every pivot row is cleared against a pivot column
    of several entries, 1,120 column transvections in all, so the pinned
    SHA-256 of p.trn and q.trn (rendered as in FIXTURE_TRANSCRIPTS) guard
    that path at volume."""
    gen = load_gen()
    spec = FieldSpec(gen.PRIME)
    a = torus_coboundary(gen.Torus(3, 4, 1), 1, spec)
    rows = a.to_dense()
    res = snf(a, SnfOptions(emit_p=True, emit_q=True, paranoid=True, workdir=str(tmp_path)))
    assert (a.m, a.n, res.rank) == (768, 448, 382)
    for tr, want in (
            (res.p, "76e99b8940399ef96396092a05c7d640c5b1dee16f732b59f897c3b81c88da13"),
            (res.q, "1c32dc4a68c354a2c7c44a27c6c3b6d463f438951da748eff9356b0ce98c4091")):
        assert hashlib.sha256(transcript_text(tr.path)).hexdigest() == want
    assert replay(res, a).to_dense() == rows


def test_oracle_batch_small(tmp_path):
    rng = random.Random(31)
    cases = []
    for trial in range(60):
        p = 7 if trial % 2 else 12379
        m, n = rng.randrange(1, 14), rng.randrange(1, 14)
        rows = random_dense(rng, m, n, p, rng.uniform(0.1, 0.5))
        cases.append((rows, p, rng.choice([None, 1, 8]), False))
    for p in (7, 12379):
        grid, circ = tie_heavy(p)
        # a tau at the circulant's peak fill spills after some pivots, so
        # Markowitz resumes on keys cached before the disk echelon ran
        peak = max(run_snf(circ, p, tmp_path, "peak%d" % p)[1].fill_log)
        cases += [(grid, p, None, False), (grid, p, 1, False),
                  (circ, p, None, False), (circ, p, peak, True)]
    # skinny m x 3m inputs with 1-3 entries per column: most pivot columns
    # are singletons, so step 4 cancels in place
    srng = random.Random(41)
    for trial in range(8):
        p = 7 if trial % 2 else 12379
        m = srng.randrange(3, 9)
        rows = [[0] * (3 * m) for _ in range(m)]
        for j in range(3 * m):
            for i in srng.sample(range(m), srng.randint(1, 3)):
                rows[i][j] = srng.randrange(1, p)
        cases += [(rows, p, None, False), (rows, p, 1, False)]
    for trial, (rows, p, tau, mid) in enumerate(cases):
        m, n = len(rows), len(rows[0])
        a, res = run_snf(rows, p, tmp_path, "o%d" % trial, tau=tau,
                         paranoid=True)
        if mid:
            assert res.hnf_stats.pivot_index > 0
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
                     Path(res.p.path).read_bytes(),
                     Path(res.q.path).read_bytes()))
    assert outs[0] == outs[1]


def test_tau_zero_triggers_immediately(tmp_path):
    a, res = run_snf([[1, 1], [0, 1]], 7, tmp_path, "t0", tau=0)
    assert res.hnf_stats is not None
    assert res.hnf_stats.pivot_index == 0
    assert replay(res, a).to_dense() == [[1, 1], [0, 1]]


def test_snf_makes_its_own_temp_dir(tmp_path, monkeypatch, f7):
    """Without a workdir or transcript paths, snf puts both transcripts in
    one fresh smithy-* dir under the system temp dir."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    rows = [[1, 2, 0], [3, 4, 5]]
    a = SparseMatrix.from_dense(rows, f7)
    res = snf(a, SnfOptions(emit_p=True, emit_q=True))
    [made] = os.listdir(tmp_path)
    assert made.startswith("smithy-")
    workdir = str(tmp_path / made)
    assert sorted(os.listdir(workdir)) == ["p.trn", "q.trn"]
    assert (res.p.path, res.q.path) == (os.path.join(workdir, "p.trn"),
                                        os.path.join(workdir, "q.trn"))
    assert replay(res, a).to_dense() == rows


def test_negative_tau_is_refused(tmp_path, capsys, monkeypatch, f7):
    """Refused by the library and by smithy snf, with or without a
    --workdir; without one, no temp dir is made."""
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        snf(SparseMatrix.from_dense([[1]], f7), SnfOptions(tau=-1))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    for workdir in (["--workdir", str(tmp_path / "wd")], []):
        assert main(["snf", FIXTURE, *workdir, "--tau", "-1"]) == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == ""
        assert "tau must be nonnegative" in out.err
    assert os.listdir(tmp) == []


def disk_echelon(a, c, spill_dir, q=None):
    """snf's disk echelon pass over a's active region from pivot index c;
    columns >= c must be confined to rows >= c."""
    eng = _Engine(a)
    eng.c = c
    return _disk_echelon(eng, q, str(spill_dir))


def test_disk_hnf_echelon_structure(tmp_path, f7):
    rng = random.Random(41)
    for trial in range(25):
        m, n = rng.randrange(1, 9), rng.randrange(1, 11)
        rows = random_dense(rng, m, n, 7, 0.35)
        a = SparseMatrix.from_dense(rows, f7)
        q = Transcript.create(str(tmp_path / ("h%d.trn" % trial)), COL, n, f7)
        stats = disk_echelon(a, 0, tmp_path, q)
        q.finalize()
        a.check()
        dense = a.to_dense()
        rank = dense_rank(rows, 7)
        assert stats.echelon_columns == rank
        nonzero = [j for j in range(n) if any(dense[i][j] for i in range(m))]
        assert len(nonzero) == rank
        for j in nonzero:
            col = [dense[i][j] for i in range(m)]
            piv = next(i for i, v in enumerate(col) if v)
            # full reduction: the pivot row is zero everywhere else
            assert all(dense[piv][j2] == 0 for j2 in range(n) if j2 != j)
        # replay: result times the recorded ops restores the input
        back = sparse_copy(a)
        Transcript.open(str(tmp_path / ("h%d.trn" % trial)), f7) \
            .apply_mat_right(back)
        assert back.to_dense() == rows


def test_disk_hnf_zero_and_echelon_inputs(tmp_path, f7):
    a = SparseMatrix.from_dense([[0, 3], [0, 0]], f7)
    disk_echelon(a, 0, tmp_path)
    assert a.to_dense() == [[0, 3], [0, 0]]  # each vector stays in its column
    b = SparseMatrix.from_dense([[1, 0], [0, 2]], f7)
    disk_echelon(b, 0, tmp_path)
    assert dense_rank(b.to_dense(), 7) == 2


def test_disk_hnf_below_existing_pivots(tmp_path, f7):
    # columns >= c are confined to rows >= c; earlier columns stay put
    rows = [[1, 5, 0, 0, 0],
            [0, 2, 0, 0, 0],
            [3, 0, 4, 0, 2],
            [1, 1, 2, 0, 1]]
    a = SparseMatrix.from_dense(rows, f7)
    q = Transcript.create(str(tmp_path / "c2.trn"), COL, 5, f7)
    disk_echelon(a, 2, tmp_path, q)
    q.finalize()
    a.check()
    dense = a.to_dense()
    assert [row[:2] for row in dense] == [row[:2] for row in rows]
    sub = [row[2:] for row in dense[2:]]
    assert dense_rank(sub, 7) == dense_rank([row[2:] for row in rows[2:]], 7)
    back = sparse_copy(a)
    Transcript.open(str(tmp_path / "c2.trn"), f7).apply_mat_right(back)
    assert back.to_dense() == rows


def test_spill_dir_env(tmp_path, monkeypatch, f7):
    spill = tmp_path / "spills"
    monkeypatch.setenv("SMITHY_SPILL_DIR", str(spill))
    a = SparseMatrix.from_dense([[1, 1], [1, 0]], f7)
    res = snf(a, SnfOptions(tau=1, workdir=str(tmp_path / "wd")))
    assert res.hnf_stats is not None
    assert os.listdir(spill) == []  # the spill went here and was removed on success


def test_snf_without_workdir_leaves_no_temp_dir(tmp_path, monkeypatch, f7):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.delenv(reduce.SPILL_DIR_ENV, raising=False)
    for opts in (None, SnfOptions(), SnfOptions(tau=1),
                 SnfOptions(emit_q=True, q_path=str(tmp_path / "q.trn"))):
        a = SparseMatrix.from_dense([[0, 2], [3, 0]], f7)
        res = snf(a, opts)
        assert res.rank == 2 and res.p is None
        assert res.q is None or res.q.path == str(tmp_path / "q.trn")
    assert os.listdir(tmp_path) == ["q.trn"]


def test_failed_snf_leaves_transcripts_without_trailer(tmp_path, monkeypatch):
    """Records written out, one a chunk, before a failure leave files that
    never decode."""
    monkeypatch.setattr(smithy.transcript, "_CHUNK", 1)
    real_axpy = reduce.axpy
    calls = []

    def failing_axpy(*args):
        calls.append(args)
        if len(calls) == 12:
            raise OSError("write failed")
        return real_axpy(*args)

    monkeypatch.setattr(reduce, "axpy", failing_axpy)
    rows = random_dense(random.Random(31), 6, 8, 7, 0.7)
    wd = tmp_path / "wd"
    with pytest.raises(OSError):
        run_snf(rows, 7, tmp_path, "wd")
    assert len(calls) == 12
    for name in ("p.trn", "q.trn"):
        with open(wd / name, "rb") as f:
            f.readline()  # the header
            assert f.read(4) == (1).to_bytes(4, "little")  # records were written
        with pytest.raises(TranscriptError):
            Transcript.open(wd / name)


def test_failed_set_up_abandons_the_transcripts(tmp_path, monkeypatch):
    """A Q transcript that cannot be created fails snf after P was
    created; P is closed without a trailer, not left open."""
    abandoned = []
    real_abandon = Transcript.abandon

    def abandon(tr):
        abandoned.append(os.path.basename(tr.path))
        real_abandon(tr)

    monkeypatch.setattr(Transcript, "abandon", abandon)
    with pytest.raises(FileNotFoundError):
        run_snf([[0, 2], [3, 0]], 7, tmp_path, "wd",
                q_path=str(tmp_path / "missing" / "q.trn"))
    assert abandoned == ["p.trn"]
    for name in abandoned:
        with pytest.raises(TranscriptError):
            Transcript.open(tmp_path / "wd" / name)


def test_failed_finalize_closes_every_transcript(tmp_path, monkeypatch):
    """P's finalize fails writing its last chunk: the error reaches the
    caller, P and Q are both closed, and P never decodes."""
    real_create, real_flush = Transcript.create.__func__, Transcript._flush
    files = []

    def create(cls, *args):
        tr = real_create(cls, *args)
        files.append(tr._writer)
        return tr

    def flush(tr):
        if tr.side == ROW:
            raise OSError("disk full")
        real_flush(tr)

    monkeypatch.setattr(Transcript, "create", classmethod(create))
    monkeypatch.setattr(Transcript, "_flush", flush)
    with pytest.raises(OSError, match="disk full"):
        snf(read_matrix(FIXTURE),
            SnfOptions(emit_p=True, emit_q=True, workdir=str(tmp_path)))
    assert len(files) == 2 and all(f.closed for f in files)
    with pytest.raises(TranscriptError):
        Transcript.open(tmp_path / "p.trn")


def test_cut_spill_is_refused(tmp_path, monkeypatch, capsys):
    """A spill that lost its last line between write and read (its "0 0 0"
    terminator) fails the reduction instead of being reduced as complete,
    and the error names the spill, in the library and on the CLI."""
    real_open = open
    served = []

    def cutting_open(path, mode="r", *args, **kwargs):
        if mode == "rb" and os.path.basename(path).startswith("spill-"):
            with real_open(path, "rb") as f:
                data = f.read()
            served.append(path)
            return io.BytesIO(data[:data.rindex(b"\n", 0, -1) + 1])
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(reduce, "open", cutting_open, raising=False)
    monkeypatch.delenv(reduce.SPILL_DIR_ENV, raising=False)
    rows = random_dense(random.Random(37), 6, 8, 7, 0.5)
    with pytest.raises(MatrixFormatError, match="terminator") as exc:
        run_snf(rows, 7, tmp_path, "lib", tau=1)
    wd = tmp_path / "cli"
    assert main(["snf", FIXTURE, "--workdir", str(wd), "--emit-p", "--emit-q",
                 "--tau", "1"]) == EXIT_PARSE
    assert len(served) == 2
    assert served[0] in str(exc.value)
    assert served[1] in capsys.readouterr().err
    for spill in served:
        assert os.path.exists(spill)  # kept for inspection
    for name in ("lib/q.trn", "cli/q.trn"):
        with pytest.raises(TranscriptError):
            Transcript.open(tmp_path / name)


def _repeat_first_entry(lines):
    return lines[:2] + lines[1:]


def _row_outside(lines):
    m_loc = int(lines[0].split()[0])
    _, j, v = lines[1].split()
    return [lines[0], b"%d %s %s\n" % (m_loc + 1, j, v)] + lines[2:]


def _value_outside(lines):
    i, j, _ = lines[1].split()
    return [lines[0], b"%s %s 7\n" % (i, j)] + lines[2:]


def _header_too_tall(lines):
    m_loc, n_loc, p = lines[0].split()
    return [b"%d %s %s\n" % (int(m_loc) + 1, n_loc, p)] + lines[1:]


def _first_entry_last(lines):
    # away from its column's run, so only the run order can refuse it
    return [lines[0]] + lines[2:-1] + [lines[1], lines[-1]]


def _entry_after_terminator(lines):
    return [lines[0]] + lines[2:] + [lines[1]]


@pytest.mark.parametrize("damage,match,line_no", [
    (_repeat_first_entry, "duplicate", 3),
    (_row_outside, "outside", 2),
    (_value_outside, "value", 2),
    (_header_too_tall, "spill header", 1),
    (_first_entry_last, "column 1 after column 8", 22),
    (_entry_after_terminator, "content after", 23),
])
def test_damaged_spill_is_refused(tmp_path, monkeypatch, damage, match, line_no):
    """A spill damaged between write and read is refused with read_matrix's
    checks, at the line they name, and kept, instead of being reduced; the
    error names the spill."""
    real_open = open
    served = []

    def damaging_open(path, mode="r", *args, **kwargs):
        if mode == "rb" and os.path.basename(path).startswith("spill-"):
            with real_open(path, "rb") as f:
                lines = f.readlines()
            served.append(path)
            return io.BytesIO(b"".join(damage(lines)))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(reduce, "open", damaging_open, raising=False)
    monkeypatch.delenv(reduce.SPILL_DIR_ENV, raising=False)
    rows = random_dense(random.Random(37), 6, 8, 7, 0.5)
    with pytest.raises(MatrixFormatError, match=match) as exc:
        run_snf(rows, 7, tmp_path, "lib", tau=1)
    assert exc.value.line_no == line_no
    assert len(served) == 1
    assert str(exc.value).startswith("line %d: " % line_no)
    assert served[0] in str(exc.value)
    assert os.path.exists(served[0])  # kept for inspection
    with pytest.raises(TranscriptError):
        Transcript.open(tmp_path / "lib" / "q.trn")
