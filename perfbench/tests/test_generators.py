"""Known answers for the benchmark's input generators.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import os
import random
import sys
from math import comb

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from gen import PRIME, Torus, apply_perm, skinny_columns, write_skinny  # noqa: E402
from smithy import (ComplexSlice, FieldSpec, SparseMatrix, compute_h5,  # noqa: E402
                    read_matrix)

SPEC = FieldSpec(PRIME)


def as_matrix(m, n, cols):
    a = SparseMatrix(m, n, SPEC)
    for j, col in enumerate(cols):
        a.set_col(j, [i << SPEC.k | v for i, v in col])
    return a


def coboundary(t, q):
    return as_matrix(t.size(q + 1), t.size(q), t.coboundary_columns(q, PRIME))


def product_is_zero(top, bottom):
    dense_top = top.to_dense()
    for j in range(bottom.n):
        acc = [0] * top.m
        for e in bottom.cols[j]:
            i, v = e >> SPEC.k, e & SPEC.mask
            for r in range(top.m):
                acc[r] = (acc[r] + dense_top[r][i] * v) % PRIME
        if any(acc):
            return False
    return True


def test_skinny_shape_and_determinism(tmp_path):
    cols = skinny_columns(random.Random(5), 50, 150, PRIME)
    assert len(cols) == 150
    for col in cols:
        rows = [i for i, _ in col]
        assert 1 <= len(col) <= 6 and rows == sorted(set(rows))
        assert all(0 <= i < 50 and 0 < v < PRIME for i, v in col)
    a, b, c = (str(tmp_path / n) for n in "abc")
    write_skinny(a, 40, 120, seed=3)
    write_skinny(b, 40, 120, seed=3)
    write_skinny(c, 40, 120, seed=4)
    assert open(a).read() == open(b).read() != open(c).read()
    mat = read_matrix(a, SPEC)
    assert (mat.m, mat.n) == (40, 120)


@pytest.mark.parametrize("k", [3, 4])
def test_torus_simplex_counts(k):
    t = Torus(3, k, seed=1)
    assert [t.size(q) for q in range(4)] == [k ** 3 * c for c in (1, 7, 12, 6)]


@pytest.mark.parametrize("d,k", [(2, 3), (3, 3)])
def test_coboundary_squares_to_zero(d, k):
    t = Torus(d, k, seed=2)
    for q in range(d - 1):
        assert product_is_zero(coboundary(t, q + 1), coboundary(t, q))


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (3, 3)])
def test_betti_numbers(tmp_path, d, k):
    """h^q of the d-torus is C(d, q), through the slice C^(q-1) -> C^q -> C^(q+1)."""
    t = Torus(d, k, seed=7)
    for q in range(d + 1):
        top = coboundary(t, q) if q < d else SparseMatrix(0, t.size(q), SPEC)
        bottom = coboundary(t, q - 1) if q > 0 else SparseMatrix(t.size(0), 0, SPEC)
        ws = compute_h5(ComplexSlice(top, bottom), str(tmp_path / ("q%d" % q)))
        assert ws.h5 == comb(d, q), (d, k, q)


def test_pullbacks_are_cochain_maps():
    """phi^* delta = delta phi^* for every translation and the rotation."""
    t = Torus(3, 3, seed=4)
    d1 = coboundary(t, 1)
    rng = random.Random(0)
    x = [rng.randrange(PRIME) for _ in range(t.size(1))]

    def apply(a, v):
        out = [0] * a.m
        for j, vj in enumerate(v):
            for e in a.cols[j]:
                out[e >> SPEC.k] = (out[e >> SPEC.k] + (e & SPEC.mask) * vj) % PRIME
        return out

    maps = [t.translate(v) for v in t.unit_translations()] + [t.rotate()]
    assert len(maps) == 27
    for phi in maps:
        p1, p2 = t.pullback(1, phi), t.pullback(2, phi)
        assert sorted(p2) == list(range(t.size(2)))
        assert apply_perm(p2, apply(d1, x)) == apply(d1, apply_perm(p1, x))


def test_relabeling_depends_on_seed():
    a, b, c = Torus(3, 3, seed=1), Torus(3, 3, seed=1), Torus(3, 3, seed=2)
    assert a.simplices == b.simplices != c.simplices
    assert sorted(a.simplices[2]) == sorted(c.simplices[2])
