"""Acceptance suite: one test per headline requirement, each printing a
single summary line.  The stress test is long and only runs when
SMITHY_STRESS=1 is set in the environment."""

import os
import random
import resource
import time

import pytest

from smithy import (GAMMA, GAMMA_CONJ, ComplexSlice, FieldSpec, SnfOptions,
                    SparseMatrix, check_table, dim_jacobi_cusp3,
                    dim_paramodular3, dim_paramodular3_nongritsenko,
                    estimates, hecke_poly_family, hecke_poly_spin, is_prime,
                    load_betti_csv, p3_size, snf)
from smithy.cli import bundled_table_path
from smithy.cohomo import compute_h5, reduce_cocycle

from conftest import (dense_kernel, dense_mat_vec, dense_rank, random_dense,
                      random_slice, sparse_copy)

TABLE_PNG = {83: 0, 89: 1, 97: 2, 101: 2, 103: 2, 107: 0, 109: 3, 113: 1,
             127: 3, 131: 2, 137: 2, 139: 4, 149: 4, 151: 5, 157: 7,
             163: 4, 167: 4, 173: 6, 179: 4, 181: 10, 191: 6, 193: 10,
             197: 7, 199: 10, 211: 10}


def reconstruct(res, d):
    out = sparse_copy(d)
    res.q.apply_mat_right(out)
    return res.p.apply_mat_left(out)


def test_snf_oracle_suite(tmp_path):
    """500 random matrices, both elimination paths, rank + exact replay."""
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for trial in range(500):
        p = 7 if trial % 2 else 12379
        m = rng.randrange(1, 65)
        n = rng.randrange(1, 97)
        density = rng.uniform(0.02, 0.15)
        rows = random_dense(rng, m, n, p, density)
        want_rank = dense_rank(rows, p)
        for tag, tau in (("m", None), ("h", 1)):
            a = SparseMatrix.from_dense(rows, FieldSpec(p))
            res = snf(a, SnfOptions(
                emit_p=True, emit_q=True, tau=tau,
                workdir=str(tmp_path / ("t%d%s" % (trial, tag)))))
            assert res.rank == want_rank
            assert res.fill_log[-1] == 0
            assert reconstruct(res, a).to_dense() == rows
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 500
    assert elapsed < 60.0, "SNF suite took %.1f s" % elapsed
    print("PASS snf oracle suite: 500 matrices x 2 paths in %.1f s" % elapsed)


def test_cohomology_oracle_suite(tmp_path):
    """100 synthetic slices: Betti number, cocycle basis, reduction laws."""
    t0 = time.monotonic()
    rng = random.Random(103)
    nontrivial = 0
    for trial in range(100):
        p = 7 if trial % 3 == 0 else 12379
        n6 = rng.randrange(1, 31)
        n5 = rng.randrange(1, 51)
        n4 = rng.randrange(1, 71)
        top, bottom = random_slice(rng, n6, n5, n4, p)
        sl = ComplexSlice(SparseMatrix.from_dense(top, FieldSpec(p)),
                          SparseMatrix.from_dense(bottom, FieldSpec(p)))
        ws = compute_h5(sl, str(tmp_path / ("s%d" % trial)))
        kernel = dense_kernel(top, p, n=n5)
        rank_bottom = dense_rank(bottom, p)
        assert ws.h5 == len(kernel) - rank_bottom
        cols = [ws.basis_column(j) for j in range(ws.h5)]
        for j, z in enumerate(cols):
            assert dense_mat_vec(top, z, p) == [0] * n6
            assert reduce_cocycle(ws, z) == \
                [1 if t == j else 0 for t in range(ws.h5)]
        stacked = [bottom[i] + [z[i] for z in cols] for i in range(n5)]
        assert dense_rank(stacked, p) == rank_bottom + ws.h5
        x = [rng.randrange(p) for _ in range(n4)]
        cob = dense_mat_vec(bottom, x, p)
        assert reduce_cocycle(ws, cob) == [0] * ws.h5
        if ws.h5:
            nontrivial += 1
            y1 = cols[rng.randrange(ws.h5)]
            y2 = [(u + v) % p for u, v in zip(cols[-1], cob)]
            a_, b_ = rng.randrange(1, p), rng.randrange(1, p)
            combo = [(a_ * u + b_ * v) % p for u, v in zip(y1, y2)]
            s1 = reduce_cocycle(ws, y1)
            s2 = reduce_cocycle(ws, y2)
            assert reduce_cocycle(ws, combo) == \
                [(a_ * u + b_ * v) % p for u, v in zip(s1, s2)]
    elapsed = time.monotonic() - t0
    assert nontrivial >= 15  # the laws were exercised, not vacuous
    assert elapsed < 120.0, "cohomology suite took %.1f s" % elapsed
    print("PASS cohomology oracle suite: 100 slices in %.1f s" % elapsed)


def test_size_formulas():
    """Exact projective counts plus estimate accuracy at level 211."""
    assert p3_size(53) == 151740
    assert p3_size(211) == 9438664
    est = estimates(211)
    assert est == (98319, 943866, 3277314)
    for got, actual in zip(est, (98351, 944046, 3277686)):
        assert abs(got - actual) / actual <= 0.0006
    assert float("%.3g" % (p3_size(210) / 210 ** 3)) == 4.04
    print("PASS size formulas: exact counts, estimates within 0.06%")


def test_paramodular_formulas():
    """Dimension formulas: base cases, integrality, table cross-check."""
    t0 = time.monotonic()
    assert dim_paramodular3(2) == 0
    assert dim_paramodular3(3) == 0
    assert dim_paramodular3(5) == 0
    for N in range(2, 1000):
        if is_prime(N):
            assert dim_paramodular3(N) >= 0  # raises if not an integer
    for N, png in TABLE_PNG.items():
        assert dim_paramodular3(N) - dim_jacobi_cusp3(N) == png
        assert dim_paramodular3_nongritsenko(N) == png
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "paramodular suite took %.1f s" % elapsed
    print("PASS paramodular formulas: 168 primes, 25 table rows in %.1f s"
          % elapsed)


def test_betti_identity():
    """2(s2 + sl3 + pnG) + s4_0 = h5 on every bundled row, spots pinned."""
    rows = load_betti_csv(bundled_table_path())
    assert len(rows) == 25
    results = check_table(rows)
    assert all(ok for _, _, ok in results)
    spots = {83: 21, 89: 28, 127: 40, 193: 73, 211: 77}
    by_level = {row.N: row.h5 for row in rows}
    for N, h5 in spots.items():
        assert by_level[N] == h5
    print("PASS betti identity: 25/25 rows, 5 spot values")


def test_hecke_polynomial_properties():
    """Spin symmetry on 100 random triples; families normalized at T=0."""
    rng = random.Random(107)
    for _ in range(100):
        l = rng.choice([2, 3, 5, 7, 11, 13, 97, 211])
        d1 = rng.randrange(-10 ** 6, 10 ** 6)
        d2 = rng.randrange(-10 ** 6, 10 ** 6)
        c = hecke_poly_spin(l, d1, d2).coeffs
        assert c[0] == 1
        assert c[4] == l ** 6
        assert c[3] == l ** 3 * c[1]
    families = (("IIa", dict(alpha=5)), ("IIb", dict(alpha=-2)),
                ("IV", dict(beta=9)),
                ("IIIa", dict(gamma=GAMMA, gamma_conj=GAMMA_CONJ)),
                ("IIIb", dict(gamma=GAMMA, gamma_conj=GAMMA_CONJ)))
    for family, params in families:
        assert hecke_poly_family(family, 7, **params).coeff(0) == 1
    assert hecke_poly_family("IIa", 2, alpha=0).coeffs == \
        (1, -12, 34, -24, 64)
    assert hecke_poly_family("IIb", 2, alpha=0).coeffs == \
        (1, -3, 34, -96, 64)
    print("PASS hecke polynomials: spin symmetry x100, families normalized")


def _random_skinny(rng, m, n, p, max_per_col):
    a = SparseMatrix(m, n, p if isinstance(p, FieldSpec) else FieldSpec(p))
    k = a.spec.k
    for j in range(n):
        rows_ = rng.sample(range(m), rng.randrange(1, max_per_col + 1))
        a.set_col(j, sorted(r << k | rng.randrange(1, a.spec.p)
                            for r in rows_))
    return a


@pytest.mark.skipif(os.environ.get("SMITHY_STRESS") != "1",
                    reason="long stress run; set SMITHY_STRESS=1")
def test_out_of_core_stress(tmp_path):
    """50k x 150k reduction to completion plus a rank cross-check at 5k."""
    bound_mb = int(os.environ.get("SMITHY_STRESS_MEM_MB", "4096"))
    rng = random.Random(109)
    spec = FieldSpec(12379)

    small = _random_skinny(rng, 5000, 15000, spec, 6)
    twin = sparse_copy(small)
    res_m = snf(small, SnfOptions(workdir=str(tmp_path / "m5k")))
    res_h = snf(twin, SnfOptions(tau=20000, workdir=str(tmp_path / "h5k")))
    assert res_h.hnf_stats is not None  # the echelon path really ran
    assert res_m.rank == res_h.rank

    big = _random_skinny(rng, 50000, 150000, spec, 6)
    t0 = time.monotonic()
    res = snf(big, SnfOptions(tau=2 * 10 ** 6,
                              workdir=str(tmp_path / "big")))
    elapsed = time.monotonic() - t0
    assert res.fill_log[-1] == 0
    assert 0 < res.rank <= 50000
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    assert peak_mb < bound_mb, "peak rss %d MB over bound %d" % (peak_mb,
                                                                 bound_mb)
    print("PASS stress: rank %d in %.0f s, peak rss %d MB, "
          "downscale ranks agree (%d)"
          % (res.rank, elapsed, peak_mb, res_m.rank))
