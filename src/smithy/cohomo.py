"""H^5 of a two-step cochain complex slice over GF(p).

The slice is C4 --dBottom--> C5 --dTop--> C6.  Diagonalize dTop = P D Q;
in the coordinates y = Q x on C5 the cocycles are exactly the vectors
whose first rho5 coordinates vanish (D is invertible there), so the
coboundary map folds down to eta = the last n5 - rho5 rows of Q dBottom.
A second reduction eta = P' D' Q' splits those coordinates into rho_eta
coboundary directions and h5 = n5 - rho5 - rho_eta survivors, which is
the Betti number.  An explicit cocycle basis comes back through the two
changes of coordinates, and reducing any cocycle to its coefficients
modulo coboundaries is two transcript replays and a truncation.

Everything the later reduction steps need (both transcripts, the basis,
the ranks) is persisted in a work directory so they can run in separate
processes.
"""

from __future__ import annotations

import contextlib
import os
import random
from bisect import bisect_left
from dataclasses import dataclass

from .gfp import FieldSpec
from .reduce import SnfOptions, snf
from .sparse import ShapeError, SparseMatrix, axpy, read_matrix, write_matrix
from .transcript import COL, ROW, Transcript

META_NAME = "meta"
EXACT_CHECK_LIMIT = 1_000_000  # dTop.nnz * n4 above this switches to sampling
PROBE_COUNT = 8


class NotAComplexError(ValueError):
    """dTop . dBottom != 0, or a transcript disagrees with the slice."""


class NotACocycleError(ValueError):
    """Vector not in ker dTop: Q5.y has support in the first rho5 slots."""


def _mat_vec(a: SparseMatrix, x: list[int]) -> list[int]:
    p, k, mask = a.spec.p, a.spec.k, a.spec.mask
    out = [0] * a.m
    for j, xj in enumerate(x):
        if xj:
            for e in a.cols[j]:
                out[e >> k] = (out[e >> k] + (e & mask) * xj) % p
    return out


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

    @property
    def n6(self) -> int:
        return self.d_top.m

    @property
    def n5(self) -> int:
        return self.d_top.n

    @property
    def n4(self) -> int:
        return self.d_bottom.n

    def validate(self, exact: bool | None = None, seed: int = 2021) -> None:
        """Check dTop . dBottom = 0; exact up to a size cutoff, after that
        probabilistically on random vectors (a false pass needs dTop.dBottom
        to kill several independent uniform vectors)."""
        if exact is None:
            exact = self.d_top.nnz * max(self.n4, 1) <= EXACT_CHECK_LIMIT
        spec = self.d_top.spec
        if exact:
            for j in range(self.n4):
                acc: list[int] = []
                for i, _, v in (
                    (e >> spec.k, j, e & spec.mask) for e in self.d_bottom.cols[j]
                ):
                    acc = axpy(acc, self.d_top.cols[i], v, spec)
                if acc:
                    raise NotAComplexError(
                        "dTop.dBottom has a nonzero column at index %d" % j)
            return
        rng = random.Random(seed)
        for _ in range(PROBE_COUNT):
            r = [rng.randrange(spec.p) for _ in range(self.n4)]
            mid = _mat_vec(self.d_bottom, r)
            if any(_mat_vec(self.d_top, mid)):
                raise NotAComplexError("dTop.(dBottom.r) != 0 for a random r")


def build_eta(q5: Transcript, d_bottom: SparseMatrix, rho5: int) -> SparseMatrix:
    """Left-multiply dBottom by Q5, check the first rho5 rows vanish, and
    return the remaining (n5 - rho5) x n4 block.

    The vanishing certifies the complex: D.Q5.dBottom = P5^-1.dTop.dBottom,
    and D is invertible on its first rho5 coordinates.
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
    for j in range(folded.n):
        col = folded.cols[j]
        if col:
            eta.set_col(j, [((e >> spec.k) - rho5) << spec.k | (e & spec.mask)
                            for e in col])
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
    q5: Transcript
    p_eta: Transcript
    basis: SparseMatrix
    workdir: str

    def basis_column(self, j: int) -> list[int]:
        return self.basis.dense_col(j)


def _meta_path(workdir: str) -> str:
    return os.path.join(workdir, META_NAME)


def _write_meta(ws: CohomologyWorkspace) -> None:
    """Write meta last and atomically: its presence marks a complete run."""
    path = _meta_path(ws.workdir)
    with open(path + ".tmp", "w", newline="\n") as f:
        for key, val in (
            ("p", ws.basis.spec.p), ("n4", ws.n4), ("n5", ws.n5), ("n6", ws.n6),
            ("rho5", ws.rho5), ("rhoEta", ws.rho_eta), ("h5", ws.h5), ("h6", ws.h6),
        ):
            f.write("%s: %d\n" % (key, val))
    os.replace(path + ".tmp", path)


def compute_h5(slice_: ComplexSlice, workdir: str, tau: int | None = None,
               validate: bool = True, normalize_pivots: bool = False,
               paranoid: bool = False) -> CohomologyWorkspace:
    """Run the two reductions and persist everything reduce_cocycle needs.

    dTop is reduced with Q only and no disk fallback (that side's column
    basis must be kept); tau applies to the eta reduction, whose column
    operations are discarded anyway.  The input matrices are written to
    the work directory up front since snf consumes them.

    Any earlier meta in workdir is removed before the first file is
    written, and meta is written last, so a run that fails leaves a
    directory that load_workspace refuses.
    """
    os.makedirs(workdir, exist_ok=True)
    if validate:
        slice_.validate()
    spec = slice_.d_top.spec
    n4, n5, n6 = slice_.n4, slice_.n5, slice_.n6
    with contextlib.suppress(FileNotFoundError):
        os.remove(_meta_path(workdir))
    write_matrix(slice_.d_top, os.path.join(workdir, "d5.sms"))
    write_matrix(slice_.d_bottom, os.path.join(workdir, "d4.sms"))

    r5 = snf(slice_.d_top, SnfOptions(
        emit_q=True, q_path=os.path.join(workdir, "q5.trn"), workdir=workdir,
        normalize_pivots=normalize_pivots, paranoid=paranoid))
    rho5 = r5.rank
    eta = build_eta(r5.q, slice_.d_bottom, rho5)
    r_eta = snf(eta, SnfOptions(
        emit_p=True, p_path=os.path.join(workdir, "peta.trn"), workdir=workdir,
        tau=tau, normalize_pivots=normalize_pivots, paranoid=paranoid))
    rho_eta = r_eta.rank
    h5 = n5 - rho5 - rho_eta
    assert h5 >= 0, "rank accounting broke"
    h6 = n6 - rho5

    # cocycle basis: unit vectors in the surviving coordinates, pulled back
    # through both changes of basis
    b = SparseMatrix(n5 - rho5, h5, spec)
    for t in range(h5):
        b.set(rho_eta + t, t, 1)
    bbar = r_eta.p.apply_mat_left(b)
    padded = SparseMatrix(n5, h5, spec)
    for j in range(h5):
        col = bbar.cols[j]
        if col:
            padded.set_col(j, [((e >> spec.k) + rho5) << spec.k | (e & spec.mask)
                               for e in col])
    basis = r5.q.apply_mat_left(padded, inverse=True)
    write_matrix(basis, os.path.join(workdir, "basis.sms"))

    ws = CohomologyWorkspace(
        n4=n4, n5=n5, n6=n6, rho5=rho5, rho_eta=rho_eta, h5=h5, h6=h6,
        q5=r5.q, p_eta=r_eta.p, basis=basis, workdir=workdir)
    _write_meta(ws)
    return ws


def load_workspace(workdir: str) -> CohomologyWorkspace:
    """Reopen a work directory written by compute_h5 (read-only use)."""
    meta: dict[str, int] = {}
    with open(_meta_path(workdir)) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            key, _, val = line.partition(":")
            meta[key.strip()] = int(val)
    spec = FieldSpec(meta["p"])
    q5 = Transcript.open(os.path.join(workdir, "q5.trn"), spec)
    p_eta = Transcript.open(os.path.join(workdir, "peta.trn"), spec)
    basis = read_matrix(os.path.join(workdir, "basis.sms"), spec)
    ws = CohomologyWorkspace(
        n4=meta["n4"], n5=meta["n5"], n6=meta["n6"], rho5=meta["rho5"],
        rho_eta=meta["rhoEta"], h5=meta["h5"], h6=meta["h6"],
        q5=q5, p_eta=p_eta, basis=basis, workdir=workdir)
    if q5.side != COL or q5.dim != ws.n5:
        raise ValueError("q5.trn does not match meta")
    if p_eta.side != ROW or p_eta.dim != ws.n5 - ws.rho5:
        raise ValueError("peta.trn does not match meta")
    if (basis.m, basis.n) != (ws.n5, ws.h5):
        raise ValueError("basis.sms does not match meta")
    return ws


def reduce_cocycle(ws: CohomologyWorkspace, y: list[int]) -> list[int]:
    """Coefficients s with y = s_1 z_1 + ... + s_h5 z_h5 + (a coboundary).

    w = Q5.y must vanish on its first rho5 coordinates; that is the
    certificate that y is a cocycle.  The rest is u = P_eta^-1 applied to
    the truncation, whose last h5 coordinates are the answer.
    """
    if len(y) != ws.n5:
        raise ShapeError("vector length %d, expected %d" % (len(y), ws.n5))
    p = ws.q5.spec.p
    w = ws.q5.apply_vec([v % p for v in y])
    head = [t for t in range(ws.rho5) if w[t]]
    if head:
        raise NotACocycleError(
            "not a cocycle: %d nonzero certificate coordinates (first at %d)"
            % (len(head), head[0]))
    u = ws.p_eta.apply_vec(w[ws.rho5:], inverse=True)
    return u[ws.rho_eta:]


def hecke_matrix(ws: CohomologyWorkspace,
                 translates: SparseMatrix | list[list[int]]) -> SparseMatrix:
    """Assemble the h5 x h5 matrix whose column j reduces translate j."""
    if isinstance(translates, SparseMatrix):
        if translates.m != ws.n5:
            raise ShapeError("translates have %d rows, expected %d"
                             % (translates.m, ws.n5))
        vecs = [translates.dense_col(j) for j in range(translates.n)]
    else:
        vecs = list(translates)
    if len(vecs) != ws.h5:
        raise ShapeError("expected %d translates, got %d" % (ws.h5, len(vecs)))
    out = SparseMatrix(ws.h5, ws.h5, ws.basis.spec)
    for j, vec in enumerate(vecs):
        s = reduce_cocycle(ws, vec)
        out.set_col(j, [i << out.spec.k | si for i, si in enumerate(s) if si])
    return out
