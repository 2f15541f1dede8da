"""H^5 of a two-step cochain complex slice over GF(p).

The slice is C4 --dBottom--> C5 --dTop--> C6.  Diagonalize dTop = P D Q;
in the coordinates y = Q x on C5 the cocycles are exactly the vectors
whose first rho5 coordinates vanish (D is invertible there), so the
coboundary map folds down to eta = the last n5 - rho5 rows of Q dBottom.

Every transvection of Q writes a pivot line, one of the first
rho5, so the last n5 - rho5 coordinates of Q y are coordinates of y moved
by Q's swaps alone: (Q y)[rho5 + t] = y[tail[t]].  eta is thus a row
selection of dBottom, and "Q y vanishes on its first rho5 coordinates",
the certificate that y is a cocycle, is the exact check dTop y = 0.
Neither needs Q replayed.  tail comes from one pass over the chunks of
Q's file, which checks them and its trailer, and that no written line ends
in the tail, but keeps no record.

A second reduction eta = P' D' Q' splits the tail coordinates into rho_eta
coboundary directions and h5 = n5 - rho5 - rho_eta survivors, which is
the Betti number.  An explicit cocycle basis comes back through the two
changes of coordinates.  The coefficients of a cocycle y modulo
coboundaries are the last h5 coordinates of P'^-1 y[tail], a linear map
R = [0 | I_h5] P'^-1 (row selection by tail) of shape h5 x n5.  Both
compute_h5 and load_workspace build [dTop; R] as one SparseMatrix, from
d5.sms and one replay of P'^-1; every reduction is then one sparse
mat-vec [dTop; R] y, whose top n6 rows are the check dTop y = 0.  It
costs one C-level pass over y, Python work per entry of [dTop; R] in y's
support, and residues only for the nonzero image sums and the h5
coordinates.

Everything the later reduction steps need (dTop, both transcripts, the
basis, the ranks) is persisted in a work directory so they can run in
separate processes.
"""

from __future__ import annotations

import contextlib
import os
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .gfp import FieldSpec
from .reduce import SnfOptions, snf
from .sparse import (ShapeError, SparseMatrix, axpy, read_header, read_matrix,
                     write_matrix)
from .transcript import COL, ROW, Transcript, trace_lines

META_NAME = "meta"
META_KEYS = ("p", "n4", "n5", "n6", "rho5", "rhoEta", "h5", "h6")


class NotAComplexError(ValueError):
    """dTop . dBottom != 0, or a transcript disagrees with the slice."""


class NotACocycleError(ValueError):
    """Vector not in ker dTop."""


@dataclass
class ComplexSlice:
    """dTop is n6 x n5, dBottom is n5 x n4, and dTop . dBottom must be 0."""

    d_top: SparseMatrix
    d_bottom: SparseMatrix

    def __post_init__(self):
        if self.d_top.spec.p != self.d_bottom.spec.p:
            raise ShapeError("differentials live over different primes")
        if self.d_top.n != self.d_bottom.m:
            raise ShapeError(
                "chain mismatch: dTop is %dx%d but dBottom is %dx%d"
                % (self.d_top.m, self.d_top.n, self.d_bottom.m, self.d_bottom.n)
            )

    def validate(self) -> None:
        """Check dTop . dBottom = 0 exactly, one merge of a dTop column per
        dBottom entry."""
        d_top, spec = self.d_top, self.d_top.spec
        k, mask = spec.k, spec.mask
        for j, col in enumerate(self.d_bottom.cols):
            acc: list[int] = []
            for e in col:
                acc = axpy(acc, d_top.cols[e >> k], e & mask, spec)
            if acc:
                raise NotAComplexError("dTop.dBottom has a nonzero column at index %d" % j)


def _q5_tail(path, spec: FieldSpec, n5: int, rho5: int) -> array:
    """tail with (Q5 y)[rho5 + t] = y[tail[t]] for every y, from one pass
    over the COL transcript Q5 at path (trace_lines).

    Replayed on the left, a record (a, b, v) writes line a when v != 0
    and swaps lines a and b when v = 0.  A line at or above rho5 that ends
    written is not a moved coordinate of y, and the transcript is refused.
    """
    src, written = trace_lines(path, COL, n5, spec)
    first = written.find(1, rho5)
    if first >= 0:
        raise NotAComplexError(
            "transcript mismatch: Q5 writes line %d, at or above rho5 = %d"
            % (first, rho5))
    return array("I", src[rho5:])


def _select_rows(d_bottom: SparseMatrix, tail: array) -> SparseMatrix:
    """The matrix whose row t is row tail[t] of dBottom: eta, given the tail
    of Q5."""
    spec = d_bottom.spec
    k, mask = spec.k, spec.mask
    row_of = [-1] * d_bottom.m
    for t, i in enumerate(tail):
        row_of[i] = t
    eta = SparseMatrix(len(tail), d_bottom.n, spec)
    for j, col in enumerate(d_bottom.cols):
        rows = [row_of[e >> k] for e in col]
        eta.set_col(j, sorted(t << k | e & mask for t, e in zip(rows, col) if t >= 0))
    return eta


def build_eta(q5: Transcript, d_bottom: SparseMatrix, rho5: int) -> SparseMatrix:
    """Left-multiply dBottom by Q5, check the first rho5 rows vanish, and
    return the remaining (n5 - rho5) x n4 block.

    The vanishing certifies the complex: D.Q5.dBottom = P5^-1.dTop.dBottom,
    and D is invertible on its first rho5 coordinates.  compute_h5 takes
    eta as _select_rows(dBottom, _q5_tail(...)) instead; this full replay
    is its paranoid-mode oracle.
    """
    if q5.side != COL:
        raise ValueError("q5 must be a column-side transcript")
    if q5.dim != d_bottom.m:
        raise ShapeError(
            "transcript dimension %d does not match dBottom rows %d"
            % (q5.dim, d_bottom.m))
    if not 0 <= rho5 <= d_bottom.m:
        raise ValueError("rho5 out of range")
    folded = q5.apply_mat_left(d_bottom)
    k = folded.spec.k
    bad = sorted({e >> k for col in folded.cols
                  for e in col[:bisect_left(col, rho5 << k)]})
    if bad:
        raise NotAComplexError(
            "not a complex / transcript mismatch: %d nonzero rows among the "
            "first %d after the change of basis (first at row %d)"
            % (len(bad), rho5, bad[0]))
    spec = d_bottom.spec
    eta = SparseMatrix(d_bottom.m - rho5, d_bottom.n, spec)
    for j, col in enumerate(folded.cols):
        eta.set_col(j, [((e >> spec.k) - rho5) << spec.k | (e & spec.mask) for e in col])
    return eta


@dataclass
class CohomologyWorkspace:
    n4: int
    n5: int
    n6: int
    rho5: int
    rho_eta: int
    h5: int
    h6: int
    reducer: SparseMatrix  # [dTop; R], built from d5.sms by _reducer
    basis: SparseMatrix
    workdir: str

    def basis_column(self, j: int) -> list[int]:
        return self.basis.dense_col(j)


def _reducer(d_top: SparseMatrix, tail: array, p_eta: Transcript, h5: int) -> SparseMatrix:
    """[dTop; R], (n6 + h5) x n5: R = [0 | I_h5] P_eta^-1 (row selection
    by tail) takes a cocycle to its coefficients.  d_top is consumed: each
    of its columns is extended in place by R's, whose rows are all >= n6.

    One replay, E P_eta^-1, of the selector E with E[n6 + t, rho_eta + t]
    = 1 (n6 zero rows on top, so R lands in rows n6..); column i of the
    product is column tail[i] of R.  A workspace builds it when it is made
    and only reads it afterwards, so concurrent reductions share it.
    """
    n6, spec = d_top.m, d_top.spec
    rho_eta = len(tail) - h5
    sel = SparseMatrix(n6 + h5, len(tail), spec)
    for t in range(h5):
        sel.set_col(rho_eta + t, [(n6 + t) << spec.k | 1])
    r = p_eta.apply_mat_right(sel, inverse=True)
    for i, col in zip(tail, r.cols):
        d_top.cols[i] += col
    d_top.m += h5
    return d_top


def _meta_path(workdir: str) -> str:
    return os.path.join(workdir, META_NAME)


def _write_meta(ws: CohomologyWorkspace) -> None:
    """Write meta last and atomically: its presence marks a complete run."""
    path = _meta_path(ws.workdir)
    with open(path + ".tmp", "w", newline="\n") as f:
        for key, val in zip(META_KEYS, (ws.basis.spec.p, ws.n4, ws.n5, ws.n6,
                                        ws.rho5, ws.rho_eta, ws.h5, ws.h6)):
            f.write("%s: %d\n" % (key, val))
    os.replace(path + ".tmp", path)


def compute_h5(slice_: ComplexSlice, workdir: str, tau: int | None = None,
               validate: bool = True, paranoid: bool = False) -> CohomologyWorkspace:
    """Run the two reductions and persist everything reduce_cocycle needs.

    dTop is reduced with Q only and no disk fallback (that side's column
    basis must be kept, and only then is eta a row selection of dBottom);
    tau applies to the eta reduction, whose column operations are
    discarded anyway.  The input matrices are written to the work
    directory up front since snf consumes dTop; [dTop; R] is built from
    d5.sms afterwards, as load_workspace builds it.

    The certificate is the exact check dTop.dBottom = 0, run once: up
    front with validate, else after the old meta is removed.  paranoid
    also builds eta by a full replay of Q5 (build_eta) and compares.

    Any earlier meta in workdir is removed before the first file is
    written, and meta is written last, so a run that fails leaves a
    directory that load_workspace refuses.  A refused tau touches nothing.
    """
    eta_opts = SnfOptions(emit_p=True, p_path=os.path.join(workdir, "peta.trn"),
                          workdir=workdir, tau=tau, paranoid=paranoid)
    os.makedirs(workdir, exist_ok=True)
    if validate:
        slice_.validate()
    spec = slice_.d_top.spec
    n4, n5, n6 = slice_.d_bottom.n, slice_.d_top.n, slice_.d_top.m
    with contextlib.suppress(FileNotFoundError):
        os.remove(_meta_path(workdir))
    write_matrix(slice_.d_top, os.path.join(workdir, "d5.sms"))
    write_matrix(slice_.d_bottom, os.path.join(workdir, "d4.sms"))
    if not validate:
        slice_.validate()

    r5 = snf(slice_.d_top, SnfOptions(
        emit_q=True, q_path=os.path.join(workdir, "q5.trn"), workdir=workdir,
        paranoid=paranoid))
    assert r5.hnf_stats is None, "dTop's reduction took the disk echelon"
    rho5 = r5.rank
    tail = _q5_tail(r5.q.path, spec, n5, rho5)
    eta = _select_rows(slice_.d_bottom, tail)
    if paranoid:
        assert eta == build_eta(r5.q, slice_.d_bottom, rho5), "eta is not Q5.dBottom"
    r_eta = snf(eta, eta_opts)
    rho_eta = r_eta.rank
    h5 = n5 - rho5 - rho_eta
    assert h5 >= 0, "rank accounting broke"
    h6 = n6 - rho5

    # cocycle basis: unit vectors in the surviving coordinates, pulled back
    # through both changes of basis
    b = SparseMatrix(n5 - rho5, h5, spec)
    for t in range(h5):
        b.set_col(t, [(rho_eta + t) << spec.k | 1])
    bbar = r_eta.p.apply_mat_left(b)
    padded = SparseMatrix(n5, h5, spec)
    for j, col in enumerate(bbar.cols):
        padded.set_col(j, [((e >> spec.k) + rho5) << spec.k | (e & spec.mask) for e in col])
    basis = r5.q.apply_mat_left(padded, inverse=True)
    del r5  # Q5's decoded records: the basis replay was their last use
    write_matrix(basis, os.path.join(workdir, "basis.sms"))

    ws = CohomologyWorkspace(
        n4=n4, n5=n5, n6=n6, rho5=rho5, rho_eta=rho_eta, h5=h5, h6=h6,
        reducer=_reducer(read_matrix(os.path.join(workdir, "d5.sms"), spec), tail,
                         r_eta.p, h5),
        basis=basis, workdir=workdir)
    _write_meta(ws)
    return ws


def _read_meta(workdir: str) -> dict[str, int]:
    """meta's values, refused with ValueError unless it holds each of
    META_KEYS once, no value is negative, h5 = n5 - rho5 - rhoEta and
    h6 = n6 - rho5."""
    with open(_meta_path(workdir)) as f:
        pairs = [line.partition(":")[::2] for line in f if line.strip()]
    meta = {key.strip(): int(val) for key, val in pairs}
    if len(meta) != len(pairs) or meta.keys() != set(META_KEYS):
        raise ValueError("meta must hold each of %s once" % ", ".join(META_KEYS))
    if (min(meta.values()) < 0 or meta["h5"] != meta["n5"] - meta["rho5"] - meta["rhoEta"]
            or meta["h6"] != meta["n6"] - meta["rho5"]):
        raise ValueError("meta's values are inconsistent: %s" % meta)
    return meta


def load_workspace(workdir: str) -> CohomologyWorkspace:
    """Reopen a work directory written by compute_h5 (read-only use).

    meta is checked by _read_meta, and every other file against it;
    d4.sms only as far as its header.  q5.trn is not kept decoded: _q5_tail
    checks it as open would and takes the tail from one pass over its
    chunks.
    """
    meta = _read_meta(workdir)
    spec = FieldSpec(meta["p"])
    n5, rho5, h5 = meta["n5"], meta["rho5"], meta["h5"]
    if read_header(os.path.join(workdir, "d4.sms")) != (n5, meta["n4"], spec.p):
        raise ValueError("meta's n4, n5 or p does not match the header of d4.sms")
    tail = _q5_tail(os.path.join(workdir, "q5.trn"), spec, n5, rho5)
    d_top = read_matrix(os.path.join(workdir, "d5.sms"), spec)
    if (d_top.m, d_top.n) != (meta["n6"], n5):
        raise ValueError("d5.sms does not match meta")
    p_eta = Transcript.open(os.path.join(workdir, "peta.trn"), spec)
    if p_eta.side != ROW or p_eta.dim != n5 - rho5:
        raise ValueError("peta.trn does not match meta")
    basis = read_matrix(os.path.join(workdir, "basis.sms"), spec)
    if (basis.m, basis.n) != (n5, h5):
        raise ValueError("basis.sms does not match meta")
    return CohomologyWorkspace(
        n4=meta["n4"], n5=n5, n6=meta["n6"], rho5=rho5, rho_eta=meta["rhoEta"],
        h5=h5, h6=meta["h6"], reducer=_reducer(d_top, tail, p_eta, h5),
        basis=basis, workdir=workdir)


def reduce_cocycle(ws: CohomologyWorkspace, y: list[int]) -> list[int]:
    """Coefficients s with y = s_1 z_1 + ... + s_h5 z_h5 + (a coboundary).

    One sparse mat-vec [dTop; R] y against ws.reducer: a C-level pass over
    y yields its nonzero coordinates, and each entry of [dTop; R] in y's
    support adds to a plain int sum.  The top n6 sums are the certificate
    that y is a cocycle, the exact check dTop.y = 0, which holds exactly
    when Q5.y vanishes on its first rho5 coordinates; only the nonzero ones
    are reduced mod p.  The rest of Q5.y is the row selection w = y[tail],
    and the bottom h5 sums are R y, the last h5 coordinates of P_eta^-1 w.
    """
    r, n6 = ws.reducer, ws.n6
    if len(y) != r.n:
        raise ShapeError("vector length %d, expected %d" % (len(y), r.n))
    k, mask, p = r.spec.k, r.spec.mask, r.spec.p
    out = [0] * r.m
    for col, yj in compress(zip(r.cols, y), y):
        for e in col:
            out[e >> k] += (e & mask) * yj
    if any(map(p.__rmod__, filter(None, out[:n6]))):
        bad = [i for i, v in enumerate(out[:n6]) if v % p]
        raise NotACocycleError(
            "not a cocycle: dTop.y is nonzero in %d rows (first at %d)"
            % (len(bad), bad[0]))
    return [v % p for v in out[n6:]]


def hecke_matrix(ws: CohomologyWorkspace, translates: list[list[int]]) -> SparseMatrix:
    """Assemble the h5 x h5 matrix whose column j reduces translate j, a
    length-n5 vector."""
    if len(translates) != ws.h5:
        raise ShapeError("expected %d translates, got %d" % (ws.h5, len(translates)))
    out = SparseMatrix(ws.h5, ws.h5, ws.basis.spec)
    for j, vec in enumerate(translates):
        s = reduce_cocycle(ws, vec)
        out.set_col(j, [i << out.spec.k | si for i, si in enumerate(s) if si])
    return out
