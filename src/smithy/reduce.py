"""Smith normal form over GF(p): full Markowitz pivoting with a one-shot
out-of-core column-echelon fallback.

The reduction loop, for pivot index c starting at 0:

  1. if the active region (rows >= c, cols >= c) holds at least tau
     nonzeros and the fallback has not run yet, spill the region to disk
     and replace it with a fully reduced set spanning the same space:
     each vector owns one pivot row and is zero on every other vector's
     pivot row, so every pivot of step 3 is then of cost 0;
  2. stop when the active region is empty;
  3. pick the active nonzero minimizing the Markowitz count
     (r_i - 1)(c_j - 1) over the whole region, ties to the smallest
     physical row (the row's index in the input), then the smallest
     column, and swap its column to c.  The search does not scan.  An
     entry of cost 0 (alone in its column or in its row) wins first, its
     row taken from a heap of its own.  Only when there is none does the
     key search run:
     each column caches its own minimum in a heap, rescanned only when the
     column is edited or swapped or the minimum's row gets a higher count;
     other count changes update it in O(1), and row swaps leave it alone
     (see _Engine).  The first search builds the keys from a full scan,
     so the cost-0 pivots before it keep no key up to date;
  4. swap the pivot row up to row c and advance c, so that no edit puts
     the pivot row on the cost-0 heap; clear it with column transvections,
     in one loop: each column deletes its pivot-row entry in place, and
     only against a pivot column holding more than the pivot then adds in
     the rest of that column, also in place (_Engine.add_col);
  5. clear the pivot column with row transvections -- after step 4 the
     pivot row is a singleton, so these edit only column c, in place.

Over a field every pivot is a unit, so the result is diag(d_0..d_{rho-1})
with no divisibility bookkeeping.  The input matrix is overwritten with
that diagonal; the row and column operations stream to transcripts when
requested, and replaying them against the diagonal restores the input.

The engine (_Engine) is the one owner of the pivoting bookkeeping: it
builds the row pattern (per row, the columns holding an entry of that
row, in no order) from the matrix's columns on entry, keeps the pivot
keys, and every column edit during the reduction goes through it, the
disk echelon's included: the echelon set lives in the engine's columns,
and the row pattern finds the vectors a new echelon pivot clears.  The
matrix itself keeps only its columns.

Rows are never physically moved: the engine keeps a row permutation and
stores entries under stable physical ids, which the pivot search and its
keys use too, translating to current indices at the edges (transcript
records, the final overwrite).
Column swaps are cheap pointer swaps, so columns are swapped physically.
"""

from __future__ import annotations

import os
import tempfile
from array import array
from bisect import bisect_left
from contextlib import ExitStack
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .sparse import (MatrixFormatError, SparseMatrix, _read_header, _read_runs,
                     _write_entries, axpy)
from .transcript import COL, ROW, Transcript


@dataclass
class SnfOptions:
    emit_p: bool = False
    emit_q: bool = False
    tau: int | None = None  # active-nonzero threshold for the disk fallback
    workdir: str | None = None  # transcripts and spill live here; see snf
    p_path: str | None = None
    q_path: str | None = None
    spill_dir: str | None = None  # overrides workdir for the spill file
    paranoid: bool = False  # cross-check every pivot against the reference scan

    def __post_init__(self):
        if self.tau is not None and self.tau < 0:
            raise ValueError("tau must be nonnegative")


@dataclass
class HnfStats:
    """Accounting for one disk-echelon pass."""

    pivot_index: int
    columns_streamed: int
    echelon_columns: int
    peak_echelon_nnz: int
    final_echelon_nnz: int


@dataclass
class SnfResult:
    rank: int
    searched: int  # pivots the key search chose; the other rank - searched had cost 0
    diag: list[int]
    p: Transcript | None
    q: Transcript | None
    fill_log: list[int]
    hnf_stats: HnfStats | None


SPILL_DIR_ENV = "SMITHY_SPILL_DIR"


class _Engine:
    """Working state for one reduction; owns the matrix until finalized
    (so add_col and clear_row edit its column lists in place),
    and alone keeps the row pattern and the pivot keys that pivoting reads.

    A row's pattern is the list of its columns in no order, so an edit
    appends or removes one column and a swap renames one; its count is the
    pattern's length, and a column's count the length of its list.  Only
    three readers need an order, and each sorts: clear_row (the pivot row,
    once), find_pivot's cost-0 lane (its tie-break) and _disk_echelon (the
    columns a new pivot clears).
    Each column j >= c with entries has a cached key, its minimum
    (cost, physical row, j) packed as (cost*m + pr)*n + j, in a heap with
    lazy deletion; key // n % m is the argmin's physical row, so row swaps
    leave every key as it is.  The keys stay a list, as the packed key can
    pass 2^63 at 20M nonzeros; the first flush builds them by scanning
    every active column.  From then on add_col marks its column and the
    rows that gain or lose it dirty, swap_cols both columns, and clear_row
    each column it deletes a pivot-row entry from; before it, with no key
    to keep, they mark nothing.  _flush rescans the dirty columns and refreshes
    the other columns of each dirty row from that row's own cost in O(1),
    rescanning one only if its argmin row got worse.

    A second heap, zero, holds the physical row of every active entry of
    cost 0 (its column holds one entry or its row one column), also with
    lazy deletion: an edit pushes each row it leaves with one column, and
    the row of each column it leaves with one entry, that column being c
    or past it (snf advances c before it clears the pivot's row and
    column).  Counts are all it reads, so swaps push nothing.  Only when
    zero holds no live row does find_pivot flush the keys.
    """

    __slots__ = (
        "mat", "p", "k", "mask", "m", "n", "cols", "rows_pat", "phys_of", "cur_of",
        "total", "c", "key", "heap", "zero", "dirty_cols", "dirty_rows", "searched",
    )

    def __init__(self, mat: SparseMatrix):
        self.mat = mat
        self.p = mat.spec.p
        self.k = mat.spec.k
        self.mask = mat.spec.mask
        self.m = mat.m
        self.n = mat.n
        self.cols = mat.cols
        k = self.k
        rows_pat: list[list[int]] = [[] for _ in range(mat.m)]
        for j, col in enumerate(mat.cols):
            for e in col:
                rows_pat[e >> k].append(j)
        self.rows_pat = rows_pat
        self.phys_of = array("I", range(mat.m))
        self.cur_of = array("I", range(mat.m))
        self.total = mat.nnz
        self.c = 0
        self.key: list[int] = []  # per column, -1: no entry; filled by the first _flush
        self.heap: list[int] = []
        self.zero = sorted({col[0] >> k for col in mat.cols if len(col) == 1}
                           | {pr for pr, row in enumerate(rows_pat) if len(row) == 1})
        self.dirty_cols: set[int] = set()
        self.dirty_rows: set[int] = set()
        self.searched = 0

    # -- bookkeeping -------------------------------------------------------

    def add_col(self, j: int, src: list[int], s: int) -> None:
        """Add s * src to column j in place, 0 < s < p; src must be sorted
        and must not be column j's own list.  One walk of src bisects for
        each entry from the last one's place, then updates, cancels (its row
        loses j) or inserts it (its row gains j), so rows move in increasing
        order.  zero, the dirty sets and total are kept as the class says."""
        k, p, mask, pat, zero, c = self.k, self.p, self.mask, self.rows_pat, self.zero, self.c
        col = self.cols[j]
        before = len(col)
        moved = []  # rows that gain or lose column j
        i = 0
        for e in src:
            r = e >> k
            lo = r << k
            i = bisect_left(col, lo, i)
            if i < len(col) and col[i] >> k == r:
                v = ((col[i] & mask) + (e & mask) * s) % p
                if v:
                    col[i] = lo | v
                    i += 1
                    continue
                del col[i]
                pat[r].remove(j)
            else:
                col.insert(i, lo | (e & mask) * s % p)
                i += 1
                pat[r].append(j)
            moved.append(r)
            if len(pat[r]) == 1 and pat[r][0] >= c:
                heappush(zero, r)
        if len(col) == 1 and j >= c:
            heappush(zero, col[0] >> k)
        if self.key:
            self.dirty_rows.update(moved)
            self.dirty_cols.add(j)
        self.total += len(col) - before

    def swap_rows(self, a: int, b: int) -> None:
        """Swap the rows at current indices a and b.  Keys name physical
        rows, so none changes."""
        pa, pb = self.phys_of[a], self.phys_of[b]
        self.phys_of[a], self.phys_of[b] = pb, pa
        self.cur_of[pa], self.cur_of[pb] = b, a

    def swap_cols(self, a: int, b: int) -> None:
        """Rename a to b in column a's rows, then b to a in column b's: a
        row holding both ends up holding a and b again."""
        k, cols, pat = self.k, self.cols, self.rows_pat
        for e in cols[a]:
            row = pat[e >> k]
            row[row.index(a)] = b
        for e in cols[b]:
            row = pat[e >> k]
            row[row.index(b)] = a
        cols[a], cols[b] = cols[b], cols[a]
        if self.key:
            self.dirty_cols.update((a, b))

    def clear_row(self, pr: int, c: int, dinv: int, q: Transcript | None) -> None:
        """Clear row pr outside the pivot column c (column j2 -= s * column c,
        s = a[pr, j2] * dinv), appending (c, j2, s) to q in increasing j2.
        Each j2 loses its row-pr entry in place (snf's caller gives up the
        matrix), and only against a pivot column holding more than the pivot
        then takes -s times the rest of column c, also in place (add_col).
        Row pr holds no column below c, so c leads it once sorted, and c is
        all it keeps; self.c is c + 1."""
        k, p, mask, cols, zero = self.k, self.p, self.mask, self.cols, self.zero
        row = self.rows_pat[pr]
        row.sort()  # so the columns, and Q's records, go in increasing order
        assert row[0] == c, "pivot row holds a finished column"
        js = row[1:]
        lo = pr << k
        rest = [e for e in cols[c] if e >> k != pr]
        for j2 in js:
            col = cols[j2]
            idx = bisect_left(col, lo)
            assert col[idx] >> k == pr, "row pattern drifted"
            s = (col[idx] & mask) * dinv % p
            if q is not None:
                q.append(c, j2, s)
            del col[idx]
            if rest:
                self.add_col(j2, rest, p - s)
            elif len(col) == 1:
                heappush(zero, col[0] >> k)
        # pr is left only in the finished column c: no live key reads it
        self.total -= len(js)
        if self.key:
            self.dirty_cols.update(js)
        del row[1:]

    # -- pivot search --------------------------------------------------------

    def _rescan(self, js) -> None:
        """Set the key of each column in js from a scan of its entries,
        pushing the keys that changed."""
        m, n, k = self.m, self.n, self.k
        cols, pat, key, heap = self.cols, self.rows_pat, self.key, self.heap
        for j in js:
            col = cols[j]
            new = -1
            if col:
                w = (len(col) - 1) * m
                for e in col:
                    pr = e >> k
                    v = (len(pat[pr]) - 1) * w + pr
                    if new < 0 or v < new:
                        new = v
                new = new * n + j
            if new != key[j]:
                key[j] = new
                if new >= 0:
                    heappush(heap, new)

    def _flush(self) -> None:
        """Rescan each dirty column, then refresh the other columns in a
        dirty row's pattern from that row's own cost v alone: v below the
        key becomes the key; a key whose argmin is that row and whose cost
        changed is rescanned; any other key stands, since the rows not
        dirty kept their costs.  Changed keys are pushed, and the heap is
        rebuilt from the live keys once it outgrows 2(n - c).  The first
        flush has no keys to refresh: it scans every active column."""
        c, m, n = self.c, self.m, self.n
        cols, pat, key, heap = self.cols, self.rows_pat, self.key, self.heap
        todo = self.dirty_cols
        if key:
            self._rescan([j for j in todo if j >= c])
        else:
            key += [-1] * n
            self._rescan(range(c, n))
            self.dirty_rows.clear()
        for pr in self.dirty_rows:
            w = (len(pat[pr]) - 1) * m
            for j in pat[pr]:
                if j < c or j in todo:
                    continue
                kj = key[j]
                v = (w * (len(cols[j]) - 1) + pr) * n + j
                if v < kj:
                    key[j] = v
                    heappush(heap, v)
                elif v != kj and kj // n % m == pr:
                    self._rescan((j,))
                    todo.add(j)
        self.dirty_rows.clear()
        todo.clear()
        if len(heap) > 2 * (n - c):
            heap[:] = [kj for kj in key[c:] if kj >= 0]
            heapify(heap)

    def find_pivot(self) -> tuple[int, int] | None:
        """Exact Markowitz minimum (r_i - 1)(c_j - 1) over the active
        columns, ties to the smallest physical row, then column; returns
        (physical row, column).

        zero's first live top pr gives the exact pivot, tie-break
        included: row pr's only column, else its smallest column holding
        one entry.  A top is stale when its row is empty or finished (a pivot
        row keeps only its pivot column, below c; an active row holds no
        finished column) or holds no cost-0 entry; stale tops are popped.
        With no live top it flushes the keys and pops the main heap's
        stale or finished (j < c) entries.
        """
        c, cols, pat, zero = self.c, self.cols, self.rows_pat, self.zero
        while zero:
            pr = zero[0]
            row = pat[pr]
            if row and row[0] >= c:
                if len(row) == 1:
                    return (pr, row[0])
                for j in sorted(row):
                    if len(cols[j]) == 1:
                        return (pr, j)
            heappop(zero)
        self._flush()
        n, key, heap = self.n, self.key, self.heap
        while heap:
            top = heap[0]
            j = top % n
            if j >= c and key[j] == top:
                self.searched += 1
                return (top // n % self.m, j)
            heappop(heap)
        return None

    def reference_pivot(self) -> tuple[int, int] | None:
        best = None
        for j in range(self.c, self.n):
            cj1 = len(self.cols[j]) - 1
            for e in self.cols[j]:
                pr = e >> self.k
                cand = ((len(self.rows_pat[pr]) - 1) * cj1, pr, j)
                if best is None or cand < best:
                    best = cand
        return (best[1], best[2]) if best else None

    def recheck(self) -> None:
        """Check the matrix (SparseMatrix.check), the pattern, the
        permutation, that zero holds every active cost-0 entry and, after a
        flush, every live column's cached key against a fresh scan;
        paranoid mode only."""
        self.mat.check()
        pat: list[list[int]] = [[] for _ in range(self.m)]
        for j, col in enumerate(self.cols):
            for e in col:
                pat[e >> self.k].append(j)
        # built in increasing j: a pattern that misses, adds or repeats a
        # column sorts to something else
        assert pat == [sorted(row) for row in self.rows_pat]
        assert sum(map(len, pat)) == self.total
        assert all(self.cur_of[pr] == i for i, pr in enumerate(self.phys_of))
        self._flush()
        live, zero = set(self.heap), set(self.zero)
        for j in range(self.c, self.n):
            col = self.cols[j]
            if not col:
                assert self.key[j] == -1
                continue
            for e in col:
                pr = e >> self.k
                assert (len(self.rows_pat[pr]) > 1 and len(col) > 1) or pr in zero
            cost, i, _ = min(((len(self.rows_pat[e >> self.k]) - 1) * (len(col) - 1),
                              e >> self.k, j) for e in col)
            assert self.key[j] == (cost * self.m + i) * self.n + j
            assert self.key[j] in live


def _disk_echelon(eng: _Engine, q: Transcript | None, spill_dir: str) -> HnfStats:
    """Spill the active region and reduce it to a fully reduced set, streaming
    one column at a time: each vector owns one pivot row and is zero on every
    other vector's pivot row, which is column-echelon form up to the order of
    the columns.  Every engine column edit is an add_col: it empties each
    spilled column, back-substitutes each absorbed vector into the vectors that
    hold its pivot row (the row pattern finds them), and then stores the
    vector, in physical rows, in the column it was read into.  Only the
    incoming vector, reduced by axpy, is a new list.  A column that reduces to
    zero stays empty: snf's loop then takes every pivot at cost 0 and swaps
    each column into place itself.  Besides that the pass keeps one dict, pivot
    row -> (column, 1 / pivot): reducing a vector of a fully reduced set by
    another leaves its values on the other pivot rows as they were.  Memory
    holds only the echelon set, small when the region has low co-rank.  The
    spill is in sparse.py's text format, its column runs ascending, and is read
    back one run at a time by read_matrix's reader loop: a spill that ends
    before its terminator, or holds a malformed line, an index or value outside
    the region, a repeated row, a column run out of order or content after the
    terminator raises MatrixFormatError, its message naming the spill and its
    line_no the line.  Removed on success, kept on failure.
    """
    spec = eng.mat.spec
    p, k, mask = eng.p, eng.k, eng.mask
    c, cols, phys_of, cur_of = eng.c, eng.cols, eng.phys_of, eng.cur_of
    m_loc = eng.m - c
    n_loc = eng.n - c
    os.makedirs(spill_dir, exist_ok=True)
    fd, spill = tempfile.mkstemp(prefix="spill-", suffix=".sms", dir=spill_dir)
    streamed = [j for j in range(c, eng.n) if cols[j]]

    def region():
        for j in range(c, eng.n):
            for i_cur, v in sorted((cur_of[e >> k], e & mask) for e in cols[j]):
                yield i_cur - c, j - c, v

    with os.fdopen(fd, "w", newline="\n") as f:
        _write_entries(f, m_loc, n_loc, p, region())
    for j in streamed:
        eng.add_col(j, cols[j][:], p - 1)
    base = eng.total
    owner: dict[int, tuple[int, int]] = {}  # physical pivot row -> (column, 1 / pivot)
    peak = 0

    try:
        with open(spill, "rb") as f:
            header = line_no, *shape = _read_header(f)
            if shape != [m_loc, n_loc, p]:
                raise MatrixFormatError(line_no, "spill header %s, not %s"
                                        % (shape, [m_loc, n_loc, p]))
            for j_loc, run in _read_runs(f, header, k):
                gcol = c + j_loc - 1
                y = sorted(phys_of[c + (e >> k)] << k | (e & mask) for e in run)
                # y's value on a pivot row changes only when that row's vector
                # is taken out, so each coefficient comes from the y as read
                for _, e in sorted((cur_of[e >> k], e) for e in y if e >> k in owner):
                    j, inv = owner[e >> k]
                    coeff = (e & mask) * inv % p
                    y = axpy(y, cols[j], p - coeff, spec)
                    if q is not None:
                        q.append(j, gcol, coeff)
                if not y:
                    continue
                lead = min(y, key=lambda e: cur_of[e >> k])
                pivr = lead >> k
                y_inv = spec.inv(lead & mask)
                for j in sorted(j for j in eng.rows_pat[pivr] if j >= c):
                    vec = cols[j]
                    coeff = (vec[bisect_left(vec, pivr << k)] & mask) * y_inv % p
                    eng.add_col(j, y, p - coeff)
                    if q is not None:
                        q.append(gcol, j, coeff)
                eng.add_col(gcol, y, 1)
                owner[pivr] = (gcol, y_inv)
                peak = max(peak, eng.total - base)
    except MatrixFormatError as exc:
        raise MatrixFormatError(exc.line_no, "%s, in spill %s (kept for inspection)"
                                % (exc.message, spill)) from None

    os.unlink(spill)
    return HnfStats(
        pivot_index=c,
        columns_streamed=len(streamed),
        echelon_columns=len(owner),
        peak_echelon_nnz=peak,
        final_echelon_nnz=eng.total - base,
    )


def snf(a: SparseMatrix, opts: SnfOptions | None = None) -> SnfResult:
    """Reduce a to diag(d_0..d_{rho-1}) in place and stream transcripts.

    The caller gives up the matrix: on return it holds the diagonal.  With
    emit_p/emit_q set, replaying the row transcript on the left and the
    column transcript on the right of the diagonal restores the input.
    The transcripts get their trailers only if the reduction completes.

    Without a workdir, a fresh temp dir is made only for a transcript that
    has no path of its own.  The spill file goes to spill_dir, else
    $SMITHY_SPILL_DIR, else the workdir, else the system temp dir.
    """
    opts = opts or SnfOptions()
    workdir = opts.workdir
    if workdir:
        os.makedirs(workdir, exist_ok=True)
    elif (opts.emit_p and not opts.p_path) or (opts.emit_q and not opts.q_path):
        workdir = tempfile.mkdtemp(prefix="smithy-")
    spec = a.spec
    p_tr = q_tr = None
    eng = _Engine(a)
    mn = min(a.m, a.n)
    p, k, mask = spec.p, spec.k, spec.mask
    diag: list[int] = []
    fill_log: list[int] = []
    hnf_stats = None
    with ExitStack() as opened:
        # every transcript is closed on the way out; one not finalized, as
        # after a failed reduction or a failed finalize, gets no trailer
        if opts.emit_p:
            p_tr = Transcript.create(opts.p_path or os.path.join(workdir, "p.trn"), ROW, a.m, spec)
            opened.callback(p_tr.abandon)
        if opts.emit_q:
            q_tr = Transcript.create(opts.q_path or os.path.join(workdir, "q.trn"), COL, a.n, spec)
            opened.callback(q_tr.abandon)
        while True:
            active = eng.total - eng.c
            if (hnf_stats is None and opts.tau is not None and active >= opts.tau):
                hnf_stats = _disk_echelon(eng, q_tr, opts.spill_dir or os.environ.get(
                    SPILL_DIR_ENV) or workdir or tempfile.gettempdir())
            fill_log.append(active)
            if active == 0:
                break
            assert eng.c < mn, "nonzeros left with no pivot slots"
            c = eng.c
            pivot = eng.find_pivot()
            if opts.paranoid:
                eng.recheck()
                assert pivot == eng.reference_pivot(), "pivot search drifted"
            pr, j = pivot  # columns hold physical rows
            i = eng.cur_of[pr]
            if i != c:
                if p_tr is not None:
                    p_tr.append(c, i, 0)
                eng.swap_rows(c, i)
            if j != c:
                eng.swap_cols(c, j)
                if q_tr is not None:
                    q_tr.append(c, j, 0)
            col = eng.cols[c]
            e = col[bisect_left(col, pr << k)]
            assert e >> k == pr, "pivot vanished"
            d = e & mask
            dinv = spec.inv(d)
            # step 4: clear the pivot row, its column now finished
            eng.c += 1
            eng.clear_row(pr, c, dinv, q_tr)
            # step 5: clear the pivot column (touches only column c now)
            if len(col) > 1:
                others = [e for e in col if e >> k != pr]
                if p_tr is not None:
                    for i2, v2 in sorted((eng.cur_of[e >> k], e & mask) for e in others):
                        p_tr.append(c, i2, v2 * dinv % p)
                eng.add_col(c, others, p - 1)
            diag.append(d)
        for t in range(a.n):  # the caller's matrix now holds the diagonal
            a.cols[t] = [t << k | diag[t]] if t < len(diag) else []
        for tr in (p_tr, q_tr):
            if tr is not None:
                tr.finalize()
    return SnfResult(
        rank=len(diag),
        searched=eng.searched,
        diag=diag,
        p=p_tr,
        q=q_tr,
        fill_log=fill_log,
        hnf_stats=hnf_stats,
    )
