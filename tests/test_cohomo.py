import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from smithy import (ComplexSlice, FieldSpec, NotAComplexError,
                    NotACocycleError, ShapeError, SparseMatrix, Transcript,
                    build_eta, cohomo, compute_h5, hecke_matrix,
                    load_workspace, reduce_cocycle, snf, SnfOptions)

from conftest import (dense_kernel, dense_mat_vec, dense_rank, load_gen,
                      random_slice, sparse_copy, torus_coboundary, trn_file)


def make_slice(rng, n6, n5, n4, p):
    top, bottom = random_slice(rng, n6, n5, n4, p)
    spec = FieldSpec(p)
    sl = ComplexSlice(SparseMatrix.from_dense(top, spec),
                      SparseMatrix.from_dense(bottom, spec))
    return sl, top, bottom


def circle_slice(p=7):
    """dTop = 0 on one row, dBottom = coboundary of the 3-cycle graph."""
    spec = FieldSpec(p)
    d_top = SparseMatrix(1, 3, spec)
    d_bottom = SparseMatrix.from_dense(
        [[p - 1, 1, 0], [0, p - 1, 1], [1, 0, p - 1]], spec)
    return ComplexSlice(d_top, d_bottom)


def test_circle(tmp_path):
    sl = circle_slice()
    ws = compute_h5(sl, str(tmp_path / "ws"))
    assert (ws.rho5, ws.rho_eta, ws.h5, ws.h6) == (0, 2, 1, 1)
    z1 = ws.basis_column(0)
    assert reduce_cocycle(ws, z1) == [1]
    sl2 = circle_slice()
    cob = dense_mat_vec(sl2.d_bottom.to_dense(), [2, 0, 5], 7)
    assert reduce_cocycle(ws, cob) == [0]
    mixed = [(a + b) % 7 for a, b in zip(z1, cob)]
    assert reduce_cocycle(ws, mixed) == [1]


def test_rank_one_slice(tmp_path):
    spec = FieldSpec(7)
    sl = ComplexSlice(SparseMatrix.from_dense([[1, 0]], spec),
                      SparseMatrix.from_dense([[0], [1]], spec))
    ws = compute_h5(sl, str(tmp_path / "ws"))
    assert (ws.rho5, ws.rho_eta, ws.h5) == (1, 1, 0)


def test_all_zero_slice(tmp_path):
    spec = FieldSpec(7)
    sl = ComplexSlice(SparseMatrix(2, 4, spec), SparseMatrix(4, 3, spec))
    ws = compute_h5(sl, str(tmp_path / "ws"))
    assert (ws.rho5, ws.rho_eta, ws.h5, ws.h6) == (0, 0, 4, 2)
    assert ws.basis.to_dense() == [[1 if i == j else 0 for j in range(4)]
                                   for i in range(4)]


def test_slice_validation():
    spec = FieldSpec(7)
    with pytest.raises(ShapeError):
        ComplexSlice(SparseMatrix(2, 4, spec), SparseMatrix(3, 3, spec))
    with pytest.raises(ShapeError):
        ComplexSlice(SparseMatrix(2, 4, spec),
                     SparseMatrix(4, 3, FieldSpec(11)))
    bad = ComplexSlice(SparseMatrix.from_dense([[1, 1]], spec),
                       SparseMatrix.from_dense([[1], [0]], spec))
    with pytest.raises(NotAComplexError):
        bad.validate()


def test_build_eta_examples(tmp_path):
    # zero dBottom: eta is the empty shifted shape
    spec = FieldSpec(7)
    d_top = SparseMatrix.from_dense([[1, 0, 0]], spec)
    res = snf(sparse_copy(d_top), SnfOptions(emit_q=True,
                                       workdir=str(tmp_path / "q")))
    eta = build_eta(res.q, SparseMatrix(3, 2, spec), res.rank)
    assert (eta.m, eta.n, eta.nnz) == (2, 2, 0)
    # rho5 = 0 leaves dBottom untouched
    sl = circle_slice()
    res2 = snf(sparse_copy(sl.d_top), SnfOptions(emit_q=True,
                                           workdir=str(tmp_path / "q2")))
    eta2 = build_eta(res2.q, sl.d_bottom, 0)
    assert eta2.to_dense() == circle_slice().d_bottom.to_dense()


def test_build_eta_detects_corruption(tmp_path):
    spec = FieldSpec(7)
    d_top = SparseMatrix.from_dense([[1, 1]], spec)
    res = snf(sparse_copy(d_top), SnfOptions(emit_q=True,
                                       workdir=str(tmp_path / "q")))
    not_in_kernel = SparseMatrix.from_dense([[1], [0]], spec)
    with pytest.raises(NotAComplexError):
        build_eta(res.q, not_in_kernel, res.rank)


def test_not_a_cocycle(tmp_path):
    spec = FieldSpec(7)
    sl = ComplexSlice(SparseMatrix.from_dense([[1, 0]], spec),
                      SparseMatrix(2, 1, spec))
    ws = compute_h5(sl, str(tmp_path / "ws"))
    with pytest.raises(NotACocycleError):
        reduce_cocycle(ws, [1, 0])
    with pytest.raises(ShapeError):
        reduce_cocycle(ws, [1, 0, 0])


def test_oracle_slices(tmp_path):
    rng = random.Random(57)
    for trial in range(25):
        p = 7 if trial % 2 else 12379
        n6 = rng.randrange(1, 9)
        n5 = rng.randrange(1, 11)
        n4 = rng.randrange(1, 9)
        sl, d_top_rows, d_bot_rows = make_slice(rng, n6, n5, n4, p)
        sl.validate()
        ws = compute_h5(sl, str(tmp_path / ("t%d" % trial)), paranoid=True)
        kernel = dense_kernel(d_top_rows, p, n=n5)
        assert ws.h5 == len(kernel) - dense_rank(d_bot_rows, p)
        basis_cols = [ws.basis_column(j) for j in range(ws.h5)]
        for j, z in enumerate(basis_cols):
            assert dense_mat_vec(d_top_rows, z, p) == [0] * n6
            assert reduce_cocycle(ws, z) == \
                [1 if t == j else 0 for t in range(ws.h5)]
        stacked = [d_bot_rows[i] + [z[i] for z in basis_cols]
                   for i in range(n5)]
        assert dense_rank(stacked, p) == ws.rho_eta + ws.h5
        # linearity and coboundary invariance on a random cocycle pair
        if ws.h5:
            y1 = _random_cocycle(rng, kernel, p)
            y2 = _random_cocycle(rng, kernel, p)
            a, b = rng.randrange(p), rng.randrange(p)
            combo = [(a * u + b * v) % p for u, v in zip(y1, y2)]
            s1, s2 = reduce_cocycle(ws, y1), reduce_cocycle(ws, y2)
            assert reduce_cocycle(ws, combo) == [
                (a * u + b * v) % p for u, v in zip(s1, s2)]
            x = [rng.randrange(p) for _ in range(n4)]
            noisy = [(u + v) % p for u, v in
                     zip(y1, dense_mat_vec(d_bot_rows, x, p))]
            assert reduce_cocycle(ws, noisy) == s1


@pytest.mark.parametrize("p", [7, 12379])
def test_reduce_cocycle_against_dense(tmp_path, p):
    """y = basis . s + dBottom . x, built by the dense oracle, reduces to s:
    the zero vector, a cocycle with every coordinate nonzero, and that
    cocycle shifted by p u and by -p u.  Bumping one coordinate of it
    leaves the other rows of dTop.y nonzero multiples of p (its entries are
    positive), and the refusal names exactly the rows nonzero mod p."""
    rng = random.Random(p + 3)
    full = multiples = 0
    for trial in range(40):
        sl, top, bottom = make_slice(rng, rng.randrange(1, 6), rng.randrange(3, 10),
                                     rng.randrange(1, 6), p)
        ws = compute_h5(sl, str(tmp_path / ("t%d" % trial)))
        n5 = ws.n5
        basis = [ws.basis_column(j) for j in range(ws.h5)]
        assert reduce_cocycle(ws, [0] * n5) == [0] * ws.h5
        with pytest.raises(ShapeError, match="^vector length %d, expected %d$" % (n5 + 1, n5)):
            reduce_cocycle(ws, [0] * (n5 + 1))
        for _ in range(100):
            s = [rng.randrange(p) for _ in range(ws.h5)]
            cob = dense_mat_vec(bottom, [rng.randrange(p) for _ in range(ws.n4)], p)
            y = [(c + sum(sj * z[i] for sj, z in zip(s, basis))) % p
                 for i, c in enumerate(cob)]
            if all(y):
                break
        else:
            continue  # some coordinate vanishes on every cocycle
        full += 1
        assert reduce_cocycle(ws, y) == s
        u = [rng.randrange(1, p) for _ in range(n5)]
        assert reduce_cocycle(ws, [a + p * b for a, b in zip(y, u)]) == s
        assert reduce_cocycle(ws, [a - p * b for a, b in zip(y, u)]) == s
        # bump the coordinate in the fewest rows of dTop, to leave the most
        hits = [sum(1 for row in top if row[j]) for j in range(n5)]
        if not any(hits):
            continue
        j = min((h, j) for j, h in enumerate(hits) if h)[1]
        y[j] += rng.randrange(1, p)
        bad = [i for i, v in enumerate(dense_mat_vec(top, y, p)) if v]
        multiples += sum(1 for i, row in enumerate(top)
                         if i not in bad and sum(a * b for a, b in zip(row, y)))
        with pytest.raises(NotACocycleError) as refused:
            reduce_cocycle(ws, y)
        assert str(refused.value) == (
            "not a cocycle: dTop.y is nonzero in %d rows (first at %d)" % (len(bad), bad[0]))
    assert full >= 10 and multiples > 0


def _random_cocycle(rng, kernel, p):
    n5 = len(kernel[0]) if kernel else 0
    out = [0] * n5
    for row in kernel:
        c = rng.randrange(p)
        out = [(u + c * v) % p for u, v in zip(out, row)]
    return out


def test_basis_self_reduction_is_identity(tmp_path):
    rng = random.Random(61)
    sl, _, _ = make_slice(rng, 5, 9, 6, 7)
    ws = compute_h5(sl, str(tmp_path / "ws"))
    for j in range(ws.h5):
        s = reduce_cocycle(ws, ws.basis_column(j))
        assert s == [1 if t == j else 0 for t in range(ws.h5)]


def test_hecke_matrix(tmp_path):
    rng = random.Random(66)
    sl, _, d_bot_rows = make_slice(rng, 4, 10, 7, 12379)
    ws = compute_h5(sl, str(tmp_path / "ws"))
    assert ws.h5 == 2  # seed chosen so the matrices are 2x2
    ident = [[1 if i == j else 0 for j in range(ws.h5)] for i in range(ws.h5)]
    assert hecke_matrix(ws, [ws.basis_column(j) for j in range(ws.h5)]).to_dense() == ident
    lam = 5
    scaled = [[lam * v % 12379 for v in ws.basis_column(j)] for j in range(ws.h5)]
    scaled_mat = hecke_matrix(ws, scaled)
    assert scaled_mat.to_dense() == [[lam * v % 12379 for v in row]
                                     for row in ident]
    noisy_cols = []
    for j in range(ws.h5):
        x = [rng.randrange(12379) for _ in range(ws.n4)]
        cob = dense_mat_vec(d_bot_rows, x, 12379)
        noisy_cols.append([(ws.basis_column(j)[i] + cob[i]) % 12379
                           for i in range(ws.n5)])
    assert hecke_matrix(ws, [list(col) for col in noisy_cols]).to_dense() == ident
    with pytest.raises(ShapeError):
        hecke_matrix(ws, [noisy_cols[0]] * (ws.h5 + 1))


def test_workspace_files_and_reload(tmp_path):
    sl = circle_slice()
    wd = tmp_path / "ws"
    ws = compute_h5(sl, str(wd))
    for name in ("d5.sms", "d4.sms", "q5.trn", "peta.trn", "basis.sms",
                 "meta"):
        assert (wd / name).exists(), name
    meta = dict(line.split(": ") for line in
                (wd / "meta").read_text().splitlines())
    assert meta == {"p": "7", "n4": "3", "n5": "3", "n6": "1", "rho5": "0",
                    "rhoEta": "2", "h5": "1", "h6": "1"}
    ws2 = load_workspace(str(wd))
    assert (ws2.n5, ws2.rho5, ws2.rho_eta, ws2.h5) == (3, 0, 2, 1)
    assert ws2.basis.to_dense() == ws.basis.to_dense()
    z1 = ws2.basis_column(0)
    assert reduce_cocycle(ws2, z1) == [1]


def test_failed_rerun_leaves_no_meta(tmp_path):
    wd = str(tmp_path / "ws")
    compute_h5(circle_slice(), wd)
    spec = FieldSpec(7)
    bad = ComplexSlice(SparseMatrix.from_dense([[1, 1]], spec),
                       SparseMatrix.from_dense([[1], [0]], spec))
    with pytest.raises(NotAComplexError):
        compute_h5(bad, wd, validate=False)
    assert not (tmp_path / "ws" / "meta").exists()
    with pytest.raises(OSError):
        load_workspace(wd)


def test_tau_applies_to_eta(tmp_path):
    rng = random.Random(67)
    sl, _, _ = make_slice(rng, 6, 12, 8, 7)
    ws_plain = compute_h5(sl, str(tmp_path / "a"))
    sl2, _, _ = make_slice(random.Random(67), 6, 12, 8, 7)
    ws_tau = compute_h5(sl2, str(tmp_path / "b"), tau=1)
    assert (ws_tau.rho5, ws_tau.rho_eta, ws_tau.h5) == \
        (ws_plain.rho5, ws_plain.rho_eta, ws_plain.h5)
    for j in range(ws_tau.h5):
        assert reduce_cocycle(ws_tau, ws_tau.basis_column(j)) == \
            [1 if t == j else 0 for t in range(ws_tau.h5)]


def _replay_reduce(ws, q5, p_eta, y):
    """reduce_cocycle by a full Q5 replay, a truncation and a P_eta^-1
    replay, the path that the row selection, the dTop check and [dTop; R]
    replace."""
    p = q5.spec.p
    w = q5.apply_vec([v % p for v in y])
    if any(w[:ws.rho5]):
        raise NotACocycleError("Q5.y is nonzero in its first rho5 slots")
    return p_eta.apply_vec(w[ws.rho5:], inverse=True)[ws.rho_eta:]


def _outcome(reduce, *args):
    try:
        return reduce(*args)
    except NotACocycleError:
        return "refused"


def test_reduce_cocycle_matches_q5_replay(tmp_path):
    rng = random.Random(57)
    slices = [(circle_slice(), [[0, 0, 0]], [[6, 1, 0], [0, 6, 1], [1, 0, 6]], 7)]
    for trial in range(25):
        p = 7 if trial % 2 else 12379
        n6, n5, n4 = rng.randrange(1, 9), rng.randrange(1, 11), rng.randrange(1, 9)
        sl, top, bottom = make_slice(rng, n6, n5, n4, p)
        slices.append((sl, top, bottom, p))
    for trial, (sl, top, bottom, p) in enumerate(slices):
        wd = str(tmp_path / ("t%d" % trial))
        ws = compute_h5(sl, wd, paranoid=True)
        q5 = Transcript.open(os.path.join(wd, "q5.trn"))
        p_eta = Transcript.open(os.path.join(wd, "peta.trn"))
        kernel = dense_kernel(top, p, n=ws.n5)
        vecs = [ws.basis_column(j) for j in range(ws.h5)]
        for _ in range(4):
            x = [rng.randrange(p) for _ in range(ws.n4)]
            cob = dense_mat_vec(bottom, x, p)
            vecs.append([(u + v) % p for u, v in
                         zip(_random_cocycle(rng, kernel, p) or [0] * ws.n5, cob)])
            vecs.append([rng.randrange(-p, 2 * p) for _ in range(ws.n5)])
        reloaded = load_workspace(wd)
        for y in vecs:
            want = _outcome(_replay_reduce, ws, q5, p_eta, y)
            assert _outcome(reduce_cocycle, ws, y) == want
            assert _outcome(reduce_cocycle, reloaded, y) == want


def test_paranoid_builds_eta_by_replay(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_eta(*args)

    monkeypatch.setattr(cohomo, "build_eta", counted)
    sl, _, _ = make_slice(random.Random(61), 5, 9, 6, 7)
    compute_h5(sl, str(tmp_path / "plain"))
    assert calls == []
    sl, _, _ = make_slice(random.Random(61), 5, 9, 6, 7)
    ws = compute_h5(sl, str(tmp_path / "paranoid"), paranoid=True)
    assert len(calls) == 1 and calls[0][2] == ws.rho5


def _write_q5(path, records):
    with open(path, "wb") as f:
        f.write(trn_file("COL", 2, 7, records))


def test_written_line_moved_into_tail_is_refused(tmp_path):
    spec = FieldSpec(7)
    wd = str(tmp_path / "ws")
    ws = compute_h5(ComplexSlice(SparseMatrix.from_dense([[1, 0]], spec),
                                 SparseMatrix.from_dense([[0], [1]], spec)), wd)
    assert (ws.n5, ws.rho5) == (2, 1)
    q5 = os.path.join(wd, "q5.trn")
    _write_q5(q5, [(0, 1, 0), (0, 1, 3)])  # writes line 0 < rho5
    load_workspace(wd)
    assert list(cohomo._q5_tail(q5, spec, 2, 1)) == [0]
    _write_q5(q5, [(0, 1, 3), (0, 1, 0)])  # then moves it to line 1
    with pytest.raises(NotAComplexError, match="writes line 1"):
        load_workspace(wd)


def test_p_eta_is_replayed_once_per_workspace(tmp_path, monkeypatch):
    rng = random.Random(71)
    replays = []
    for name in ("apply_vec", "apply_mat_right"):
        replay = getattr(Transcript, name)

        def counted(self, *args, _replay=replay, **kwargs):
            replays.append(self.path)
            return _replay(self, *args, **kwargs)

        monkeypatch.setattr(Transcript, name, counted)
    for trial in range(8):
        p = 7 if trial % 2 else 12379
        sl, top, bottom = make_slice(rng, rng.randrange(1, 7), rng.randrange(4, 11),
                                     rng.randrange(1, 7), p)
        wd = str(tmp_path / ("t%d" % trial))
        peta = os.path.join(wd, "peta.trn")
        replays.clear()
        ws = compute_h5(sl, wd)
        assert replays == [peta]
        replays.clear()
        loaded = load_workspace(wd)
        assert replays == [peta]
        replays.clear()
        kernel = dense_kernel(top, p, n=ws.n5)
        for each in (ws, loaded):
            for _ in range(20):
                y = _random_cocycle(rng, kernel, p) or [0] * ws.n5
                reduce_cocycle(each, y)
        assert replays == []
        # the bottom h5 rows of [dTop; R] are R: R . basis = I, R . dBottom = 0
        m = ws.reducer
        assert loaded.reducer == m
        assert (m.m, m.n) == (ws.n6 + ws.h5, ws.n5)
        dense = m.to_dense()
        for j in range(ws.h5):
            assert dense_mat_vec(dense, ws.basis_column(j), p) == \
                [0] * ws.n6 + [1 if t == j else 0 for t in range(ws.h5)]
        for j in range(ws.n4):
            assert not any(dense_mat_vec(dense, [row[j] for row in bottom], p))


def test_loaded_workspace_reduces_without_a_replay(tmp_path, monkeypatch):
    """load_workspace builds [dTop; R], so concurrent first reductions
    share a finished matrix and replay no transcript."""
    sl, _, _ = make_slice(random.Random(73), 4, 12, 5, 7)
    wd = str(tmp_path / "ws")
    compute_h5(sl, wd)
    ws = load_workspace(wd)
    assert ws.h5 > 0

    def refuse(*args, **kwargs):
        raise AssertionError("a reduction replayed a transcript")

    monkeypatch.setattr(Transcript, "apply_mat_right", refuse)
    want = [[1 if t == j else 0 for t in range(ws.h5)] for j in range(ws.h5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda j: reduce_cocycle(ws, ws.basis_column(j)),
                                list(range(ws.h5)) * 4, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 4


def test_torus_top_slice_known_answer(tmp_path):
    """The (4, 3) torus's C^2 -> C^3 -> C^4: H^3 has dimension C(4, 3) = 4
    and H^4 dimension 1, translations act as the identity on cohomology,
    the coordinate rotation as T with T^4 = I, T^2 != I and trace 0, and
    coboundaries reduce to 0.  n5 = 4,860, beyond the dense oracle."""
    gen = load_gen()
    torus = gen.Torus(4, 3, 1)
    p = gen.PRIME
    spec = FieldSpec(p)
    d4 = torus_coboundary(torus, 2, spec)
    ws = compute_h5(ComplexSlice(torus_coboundary(torus, 3, spec), d4), str(tmp_path / "ws"))
    assert (ws.n5, ws.h5, ws.h6) == (4860, 4, 1)
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    basis = [ws.basis_column(j) for j in range(4)]
    for j, z in enumerate(basis):
        assert reduce_cocycle(ws, z) == ident[j]
    for t in torus.unit_translations():
        perm = torus.pullback(3, torus.translate(t))
        pulled = [gen.apply_perm(perm, z) for z in basis]
        assert hecke_matrix(ws, pulled).to_dense() == ident
    perm = torus.pullback(3, torus.rotate())
    rot = hecke_matrix(ws, [gen.apply_perm(perm, z) for z in basis]).to_dense()

    def square(a):
        return [[sum(a[i][t] * a[t][j] for t in range(4)) % p for j in range(4)]
                for i in range(4)]

    assert square(rot) != ident and square(square(rot)) == ident
    assert sum(rot[i][i] for i in range(4)) % p == 0
    rng = random.Random(43)
    for _ in range(5):
        y = [0] * ws.n5  # d4 . x for an x on 30 random 2-simplices
        for j in rng.sample(range(ws.n4), 30):
            xj = rng.randrange(1, p)
            for e in d4.cols[j]:
                y[e >> spec.k] = (y[e >> spec.k] + (e & spec.mask) * xj) % p
        assert any(y) and reduce_cocycle(ws, y) == [0] * 4
    bumped = list(basis[0])
    bumped[rng.randrange(ws.n5)] += 1
    with pytest.raises(NotACocycleError, match="dTop.y is nonzero"):
        reduce_cocycle(ws, bumped)
