"""Smith normal form over GF(p): full Markowitz pivoting with a one-shot
out-of-core column-echelon fallback.

The reduction loop, for pivot index c starting at 0:

  1. if the active region (rows >= c, cols >= c) holds at least tau
     nonzeros and the fallback has not run yet, spill the region to disk
     and replace it with its fully reduced column-echelon form;
  2. stop when the active region is empty;
  3. pick the active nonzero minimizing the Markowitz count
     (r_i - 1)(c_j - 1) over the whole region, ties to the smallest (i, j),
     and move it to (c, c) with one row swap and one column swap;
  4. clear the pivot row with column transvections;
  5. clear the pivot column with row transvections -- after step 4 the
     pivot row is a singleton, so each of these touches only column c;
  6. advance c.

Over a field every pivot is a unit, so the result is diag(d_0..d_{rho-1})
with no divisibility bookkeeping.  The input matrix is overwritten with
that diagonal; the row and column operations stream to transcripts when
requested, and replaying them against the diagonal restores the input.

The engine (_Engine) is the one owner of the pivoting bookkeeping: it
builds the per-row and per-column nonzero counts and the row pattern (per
row, the set of columns holding an entry of that row) from the matrix's
columns on entry, and every column edit during the reduction goes through
it.  The matrix itself keeps only columns and its nonzero total.

Rows are never physically moved: the engine keeps a row permutation and
stores entries under stable physical ids, translating to current indices
at the edges (pivot search, transcript records, the final overwrite).
Column swaps are cheap pointer swaps, so columns are swapped physically.
"""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrix, axpy
from .transcript import COL, ROW, ElementaryOp, Transcript


@dataclass
class SnfOptions:
    emit_p: bool = False
    emit_q: bool = False
    tau: int | None = None  # active-nonzero threshold for the disk fallback
    normalize_pivots: bool = False
    fill_log_path: str | None = None
    workdir: str | None = None  # transcripts and spill live here; temp dir if unset
    p_path: str | None = None
    q_path: str | None = None
    spill_dir: str | None = None  # overrides workdir for the spill file
    paranoid: bool = False  # cross-check every pivot against the reference scan


@dataclass
class HnfStats:
    """Accounting for one disk-echelon pass."""

    pivot_index: int
    columns_streamed: int
    echelon_columns: int
    peak_echelon_nnz: int
    final_echelon_nnz: int
    spill_path: str


@dataclass
class SnfResult:
    rank: int
    diag: list[int]
    p: Transcript | None
    q: Transcript | None
    fill_log: list[int]
    hnf_stats: HnfStats | None
    workdir: str


SPILL_DIR_ENV = "SMITHY_SPILL_DIR"


class _Engine:
    """Working state for one reduction; owns the matrix until finalized,
    and alone keeps the counts and row pattern that pivoting reads."""

    __slots__ = (
        "mat", "spec", "p", "k", "mask", "m", "n", "cols", "rows_pat",
        "row_cnt", "col_cnt", "col_min_phys", "phys_of", "cur_of", "total", "c",
    )

    def __init__(self, mat: SparseMatrix, start: int = 0):
        self.mat = mat
        self.spec = mat.spec
        self.p = mat.spec.p
        self.k = mat.spec.k
        self.mask = mat.spec.mask
        self.m = mat.m
        self.n = mat.n
        self.cols = mat.cols
        k = self.k
        rows_pat: list[set[int]] = [set() for _ in range(mat.m)]
        for j, col in enumerate(mat.cols):
            for e in col:
                rows_pat[e >> k].add(j)
        self.rows_pat = rows_pat
        self.row_cnt = np.array([len(s) for s in rows_pat], dtype=np.int64)
        self.col_cnt = np.array([len(col) for col in mat.cols], dtype=np.int64)
        self.col_min_phys = np.array(
            [(col[0] >> k) if col else mat.m for col in mat.cols], dtype=np.int64
        )
        self.phys_of = np.arange(mat.m, dtype=np.int64)
        self.cur_of = np.arange(mat.m, dtype=np.int64)
        self.total = mat.nnz
        self.c = start

    # -- bookkeeping -------------------------------------------------------

    def set_col(self, j: int, new: list[int]) -> None:
        old = self.cols[j]
        k = self.k
        row_cnt = self.row_cnt
        pat = self.rows_pat
        a = b = 0
        na, nb = len(old), len(new)
        while a < na and b < nb:
            ra, rb = old[a] >> k, new[b] >> k
            if ra < rb:
                row_cnt[ra] -= 1
                pat[ra].discard(j)
                a += 1
            elif ra > rb:
                row_cnt[rb] += 1
                pat[rb].add(j)
                b += 1
            else:
                a += 1
                b += 1
        while a < na:
            ra = old[a] >> k
            row_cnt[ra] -= 1
            pat[ra].discard(j)
            a += 1
        while b < nb:
            rb = new[b] >> k
            row_cnt[rb] += 1
            pat[rb].add(j)
            b += 1
        self.total += nb - na
        self.col_cnt[j] = nb
        self.col_min_phys[j] = (new[0] >> k) if nb else self.m
        self.cols[j] = new

    def swap_rows(self, a: int, b: int) -> None:
        pa, pb = int(self.phys_of[a]), int(self.phys_of[b])
        self.phys_of[a], self.phys_of[b] = pb, pa
        self.cur_of[pa], self.cur_of[pb] = b, a

    def swap_cols(self, a: int, b: int) -> None:
        k = self.k
        rows_a = [e >> k for e in self.cols[a]]
        rows_b = [e >> k for e in self.cols[b]]
        pat = self.rows_pat
        for r in rows_a:
            pat[r].discard(a)
        for r in rows_b:
            pat[r].discard(b)
        for r in rows_a:
            pat[r].add(b)
        for r in rows_b:
            pat[r].add(a)
        self.cols[a], self.cols[b] = self.cols[b], self.cols[a]
        ca, cb = int(self.col_cnt[a]), int(self.col_cnt[b])
        self.col_cnt[a], self.col_cnt[b] = cb, ca
        ma, mb = int(self.col_min_phys[a]), int(self.col_min_phys[b])
        self.col_min_phys[a], self.col_min_phys[b] = mb, ma

    def value_at_phys(self, pr: int, j: int) -> int:
        col = self.cols[j]
        idx = bisect_left(col, pr << self.k)
        if idx < len(col) and col[idx] >> self.k == pr:
            return col[idx] & self.mask
        return 0

    def scale_row_values(self, pr: int, u: int) -> None:
        k, mask, p = self.k, self.mask, self.p
        key = pr << k
        for j in self.rows_pat[pr]:
            col = self.cols[j]
            idx = bisect_left(col, key)
            col[idx] = key | (col[idx] & mask) * u % p

    def scale_col_values(self, j: int, u: int) -> None:
        k, mask, p = self.k, self.mask, self.p
        self.cols[j] = [(e >> k) << k | (e & mask) * u % p for e in self.cols[j]]

    # -- pivot search --------------------------------------------------------

    def find_pivot(self) -> tuple[int, int] | None:
        """Exact Markowitz minimum with lexicographic tie-break.

        Equivalent to scanning every active nonzero; singleton rows and
        columns resolve through the maintained counts, and otherwise a
        per-column lower bound (c_j - 1)(rmin - 1) prunes the scan without
        changing the selected position.
        """
        c = self.c
        if self.total - c == 0:
            return None
        cur_rows = self.phys_of[c:self.m]
        rcnt = self.row_cnt[cur_rows]
        ccnt = self.col_cnt[c:self.n]
        rpos = rcnt[rcnt > 0]
        cpos = ccnt[ccnt > 0]
        rmin = int(rpos.min())
        cmin = int(cpos.min())

        if rmin == 1 or cmin == 1:
            cand = None
            if rmin == 1:
                rel = int(np.flatnonzero(rcnt == 1)[0])
                pr = int(cur_rows[rel])
                cand = (c + rel, min(self.rows_pat[pr]))
            if cmin == 1:
                rel = np.flatnonzero(ccnt == 1)
                prs = self.col_min_phys[c + rel]
                curs = self.cur_of[prs]
                i2 = int(curs.min())
                j2 = c + int(rel[curs == i2].min())
                if cand is None or (i2, j2) < cand:
                    cand = (i2, j2)
            return cand

        bound = (ccnt - 1) * (rmin - 1)
        bound[ccnt == 0] = np.iinfo(np.int64).max
        j0 = int(bound.argmin())
        best = self._scan_col(c + j0, None)
        for rel in np.flatnonzero(bound <= best[0]):
            rel = int(rel)
            if rel != j0:
                best = self._scan_col(c + rel, best)
        return (best[1], best[2])

    def _scan_col(self, j: int, best):
        cj1 = int(self.col_cnt[j]) - 1
        k = self.k
        cur_of = self.cur_of
        row_cnt = self.row_cnt
        for e in self.cols[j]:
            pr = e >> k
            cand = ((int(row_cnt[pr]) - 1) * cj1, int(cur_of[pr]), j)
            if best is None or cand < best:
                best = cand
        return best

    def reference_pivot(self) -> tuple[int, int] | None:
        best = None
        for j in range(self.c, self.n):
            cj1 = int(self.col_cnt[j]) - 1
            for e in self.cols[j]:
                pr = e >> self.k
                cand = ((int(self.row_cnt[pr]) - 1) * cj1, int(self.cur_of[pr]), j)
                if best is None or cand < best:
                    best = cand
        return (best[1], best[2]) if best else None

    def recheck(self) -> None:
        """Recount everything from the columns; paranoid mode only."""
        rc = np.zeros(self.m, dtype=np.int64)
        total = 0
        for j, col in enumerate(self.cols):
            assert int(self.col_cnt[j]) == len(col)
            prev = -1
            for e in col:
                pr = e >> self.k
                assert prev < pr
                prev = pr
                assert e & self.mask
                rc[pr] += 1
                assert j in self.rows_pat[pr]
                total += 1
            if col:
                assert int(self.col_min_phys[j]) == col[0] >> self.k
        assert (rc == self.row_cnt).all()
        assert total == self.total
        for pr in range(self.m):
            assert len(self.rows_pat[pr]) == int(self.row_cnt[pr])

    # -- completion -----------------------------------------------------------

    def overwrite_with_diagonal(self, diag: list[int]) -> None:
        mat = self.mat
        k = self.k
        rank = len(diag)
        for t in range(self.n):
            mat.cols[t] = [t << k | diag[t]] if t < rank else []
        mat.nnz = rank


def _resolve_spill_dir(spill_dir: str | None, default: str) -> str:
    """An explicit spill_dir, else $SMITHY_SPILL_DIR, else default."""
    return spill_dir or os.environ.get(SPILL_DIR_ENV) or default


def _disk_echelon(eng: _Engine, q: Transcript | None, spill_dir: str,
                  check_region: bool = False) -> HnfStats:
    """Spill the active region, reduce it to fully reduced column-echelon
    form streaming one column at a time, and write the result back with
    echelon columns first (ascending pivot row) and zero columns after.

    Memory holds only the accumulated echelon set, whose size stays small
    when the region has low co-rank.  The spill file is removed on success
    and kept for inspection on failure.
    """
    spec = eng.spec
    p, k = eng.p, eng.k
    c = eng.c
    m_loc = eng.m - c
    n_loc = eng.n - c
    os.makedirs(spill_dir, exist_ok=True)
    fd, spill = tempfile.mkstemp(prefix="spill-", suffix=".sms", dir=spill_dir)
    streamed = 0
    with os.fdopen(fd, "w", newline="\n") as f:
        f.write("%d %d %d\n" % (m_loc, n_loc, p))
        for j in range(c, eng.n):
            col = eng.cols[j]
            if not col:
                continue
            streamed += 1
            jl = j - c + 1
            rows = [(int(eng.cur_of[e >> k]), e & eng.mask) for e in col]
            if check_region and min(r for r, _ in rows) < c:
                raise ValueError(
                    "column %d holds entries above the active region" % j)
            for i_cur, v in sorted(rows):
                f.write("%d %d %d\n" % (i_cur - c + 1, jl, v))
        f.write("0 0 0\n")
    for j in range(c, eng.n):
        if eng.cols[j]:
            eng.set_col(j, [])

    # echelon state, all in 0-based local coordinates
    ech_vec: list[list[int]] = []  # packed local columns
    ech_piv: list[int] = []  # owned pivot row of each echelon column
    ech_col: list[int] = []  # global column where the ops left it
    piv_owner: dict[int, int] = {}
    row_hits: dict[int, set[int]] = {}  # local row -> echelon indices
    peak = 0

    def vec_value(vec: list[int], r: int) -> int:
        idx = bisect_left(vec, r << k)
        return vec[idx] & eng.mask if idx < len(vec) and vec[idx] >> k == r else 0

    def absorb(j_loc: int, entries: list[int]) -> None:
        nonlocal peak
        gcol = c + j_loc - 1
        y = sorted(entries)
        hits = sorted(r for r in set(e >> k for e in y) if r in piv_owner)
        for r in hits:
            idx = piv_owner[r]
            coeff = vec_value(y, r) * spec.inv(vec_value(ech_vec[idx], r)) % p
            y = axpy(y, ech_vec[idx], p - coeff, spec)
            if q is not None:
                q.append(ElementaryOp.transvection(ech_col[idx], gcol, coeff))
        if not y:
            return
        pivr = y[0] >> k
        mine = len(ech_vec)
        y_inv = spec.inv(y[0] & eng.mask)
        for idx in sorted(row_hits.get(pivr, ())):
            vec = ech_vec[idx]
            coeff = vec_value(vec, pivr) * y_inv % p
            new = axpy(vec, y, p - coeff, spec)
            old_rows = set(e >> k for e in vec)
            new_rows = set(e >> k for e in new)
            for r in old_rows - new_rows:
                row_hits[r].discard(idx)
            for r in new_rows - old_rows:
                row_hits.setdefault(r, set()).add(idx)
            ech_vec[idx] = new
            if q is not None:
                q.append(ElementaryOp.transvection(gcol, ech_col[idx], coeff))
        ech_vec.append(y)
        ech_piv.append(pivr)
        ech_col.append(gcol)
        piv_owner[pivr] = mine
        for e in y:
            row_hits.setdefault(e >> k, set()).add(mine)
        peak = max(peak, sum(len(v) for v in ech_vec))

    with open(spill, "rb") as f:
        f.readline()
        cur_j = None
        entries: list[int] = []
        for raw in f:
            parts = raw.split()
            if not parts:
                continue
            i_loc, j_loc, v = int(parts[0]), int(parts[1]), int(parts[2])
            if (i_loc, j_loc, v) == (0, 0, 0):
                break
            if j_loc != cur_j:
                if cur_j is not None:
                    absorb(cur_j, entries)
                cur_j = j_loc
                entries = []
            entries.append((i_loc - 1) << k | v)
        if cur_j is not None:
            absorb(cur_j, entries)

    # ordering permutation: echelon columns by ascending pivot row,
    # zero columns after; emitted as explicit swaps
    order = sorted(range(len(ech_vec)), key=lambda t: ech_piv[t])
    occupant = {ech_col[idx] - c: idx for idx in range(len(ech_vec))}
    where = {idx: ech_col[idx] - c for idx in range(len(ech_vec))}
    for t, idx in enumerate(order):
        src = where[idx]
        if src == t:
            continue
        other = occupant.get(t)
        occupant[t] = idx
        where[idx] = t
        if other is not None:
            occupant[src] = other
            where[other] = src
        else:
            del occupant[src]
        if q is not None:
            q.append(ElementaryOp.swap(c + t, c + src))
        eng.swap_cols(c + t, c + src)  # both empty

    phys_of = eng.phys_of
    final_nnz = 0
    for t, idx in enumerate(order):
        vec = ech_vec[idx]
        final_nnz += len(vec)
        packed = sorted(
            int(phys_of[(e >> k) + c]) << k | (e & eng.mask) for e in vec
        )
        eng.set_col(c + t, packed)
    os.unlink(spill)
    return HnfStats(
        pivot_index=c,
        columns_streamed=streamed,
        echelon_columns=len(ech_vec),
        peak_echelon_nnz=peak,
        final_echelon_nnz=final_nnz,
        spill_path=spill,
    )


def disk_hnf(a: SparseMatrix, c: int = 0, q: Transcript | None = None,
             spill_dir: str | None = None) -> HnfStats:
    """Public entry for the out-of-core column-echelon pass.

    Columns in the active region must not reach above row c.  Column
    operations are recorded to q when one is given.
    """
    if not 0 <= c <= min(a.m, a.n):
        raise ValueError("pivot index %d outside [0, %d]" % (c, min(a.m, a.n)))
    eng = _Engine(a, start=c)
    stats = _disk_echelon(eng, q, _resolve_spill_dir(spill_dir, tempfile.gettempdir()),
                          check_region=True)
    a.nnz = eng.total
    return stats


def snf(a: SparseMatrix, opts: SnfOptions | None = None) -> SnfResult:
    """Reduce a to diag(d_0..d_{rho-1}) in place and stream transcripts.

    The caller gives up the matrix: on return it holds the diagonal.  With
    emit_p/emit_q set, replaying the row transcript on the left and the
    column transcript on the right of the diagonal restores the input.
    """
    opts = opts or SnfOptions()
    if opts.tau is not None and opts.tau < 0:
        raise ValueError("tau must be nonnegative")
    workdir = opts.workdir or tempfile.mkdtemp(prefix="smithy-")
    os.makedirs(workdir, exist_ok=True)
    spec = a.spec
    p_tr = q_tr = None
    if opts.emit_p:
        p_tr = Transcript.create(opts.p_path or os.path.join(workdir, "p.trn"), ROW, a.m, spec)
    if opts.emit_q:
        q_tr = Transcript.create(opts.q_path or os.path.join(workdir, "q.trn"), COL, a.n, spec)
    fill_file = open(opts.fill_log_path, "w", newline="\n") if opts.fill_log_path else None

    eng = _Engine(a)
    mn = min(a.m, a.n)
    p = spec.p
    diag: list[int] = []
    fill_log: list[int] = []
    hnf_stats = None
    try:
        while True:
            active = eng.total - eng.c
            if (hnf_stats is None and opts.tau is not None and active >= opts.tau):
                hnf_stats = _disk_echelon(eng, q_tr, _resolve_spill_dir(opts.spill_dir, workdir))
                active = eng.total - eng.c
            fill_log.append(active)
            if fill_file:
                fill_file.write("%d\n" % active)
            if active == 0:
                break
            assert eng.c < mn, "nonzeros left with no pivot slots"
            c = eng.c
            pivot = eng.find_pivot()
            if opts.paranoid:
                eng.recheck()
                assert pivot == eng.reference_pivot(), "pivot search drifted"
            i, j = pivot
            if i != c:
                eng.swap_rows(c, i)
                if p_tr is not None:
                    p_tr.append(ElementaryOp.swap(c, i))
            if j != c:
                eng.swap_cols(c, j)
                if q_tr is not None:
                    q_tr.append(ElementaryOp.swap(c, j))
            pr = int(eng.phys_of[c])
            d = eng.value_at_phys(pr, c)
            assert d, "pivot vanished"
            if opts.normalize_pivots and d != 1:
                u = d
                dinv = spec.inv(d)
                if p_tr is not None:
                    eng.scale_row_values(pr, dinv)
                    p_tr.append(ElementaryOp.dilation(c, u))
                else:
                    eng.scale_col_values(c, dinv)
                    if q_tr is not None:
                        q_tr.append(ElementaryOp.dilation(c, u))
                d = 1
            dinv = spec.inv(d) if d != 1 else 1
            # step 4: clear the pivot row
            for j2 in sorted(eng.rows_pat[pr] - {c}):
                s = eng.value_at_phys(pr, j2) * dinv % p
                eng.set_col(j2, axpy(eng.cols[j2], eng.cols[c], p - s, spec))
                if q_tr is not None:
                    q_tr.append(ElementaryOp.transvection(c, j2, s))
            # step 5: clear the pivot column (touches only column c now)
            col = eng.cols[c]
            if len(col) > 1:
                others = sorted(
                    (int(eng.cur_of[e >> eng.k]), e & eng.mask)
                    for e in col if e >> eng.k != pr
                )
                if p_tr is not None:
                    for i2, v2 in others:
                        p_tr.append(ElementaryOp.transvection(c, i2, v2 * dinv % p))
                eng.set_col(c, [pr << eng.k | d])
            diag.append(d)
            eng.c += 1
        eng.overwrite_with_diagonal(diag)
    finally:
        if p_tr is not None:
            p_tr.finalize()
        if q_tr is not None:
            q_tr.finalize()
        if fill_file:
            fill_file.close()
    return SnfResult(
        rank=len(diag),
        diag=diag,
        p=p_tr,
        q=q_tr,
        fill_log=fill_log,
        hnf_stats=hnf_stats,
        workdir=workdir,
    )
