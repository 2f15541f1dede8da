import random

import pytest

from smithy import (ComplexSlice, FieldSpec, NotAComplexError,
                    NotACocycleError, ShapeError, SparseMatrix, build_eta,
                    compute_h5, hecke_matrix, load_workspace, reduce_cocycle,
                    snf, SnfOptions)

from conftest import (dense_kernel, dense_mat_vec, dense_rank, random_slice,
                      sparse_from_dense)


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
    with pytest.raises(NotAComplexError):
        bad.validate(exact=False)  # probe vectors catch it too


def test_build_eta_examples(tmp_path):
    # zero dBottom: eta is the empty shifted shape
    spec = FieldSpec(7)
    d_top = SparseMatrix.from_dense([[1, 0, 0]], spec)
    res = snf(d_top.copy(), SnfOptions(emit_q=True,
                                       workdir=str(tmp_path / "q")))
    eta = build_eta(res.q, SparseMatrix(3, 2, spec), res.rank)
    assert (eta.m, eta.n, eta.nnz) == (2, 2, 0)
    # rho5 = 0 leaves dBottom untouched
    sl = circle_slice()
    res2 = snf(sl.d_top.copy(), SnfOptions(emit_q=True,
                                           workdir=str(tmp_path / "q2")))
    eta2 = build_eta(res2.q, sl.d_bottom, 0)
    assert eta2.to_dense() == circle_slice().d_bottom.to_dense()


def test_build_eta_detects_corruption(tmp_path):
    spec = FieldSpec(7)
    d_top = SparseMatrix.from_dense([[1, 1]], spec)
    res = snf(d_top.copy(), SnfOptions(emit_q=True,
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
        sl.validate(exact=True)
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
    assert hecke_matrix(ws, ws.basis).to_dense() == ident
    lam = 5
    scaled = [[lam * ws.basis_column(j)[i] % 12379 for j in range(ws.h5)]
              for i in range(ws.n5)]
    scaled_mat = hecke_matrix(ws, sparse_from_dense(scaled, 12379))
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


def test_validate_probabilistic_path():
    rng = random.Random(71)
    sl, _, _ = make_slice(rng, 5, 8, 6, 12379)
    sl.validate(exact=False)  # should accept a genuine complex
    sl.validate(exact=False, seed=99)
