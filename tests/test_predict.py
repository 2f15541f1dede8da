import random
from fractions import Fraction

import pytest

from smithy import (GAMMA, GAMMA_CONJ, BettiRow, ConjugatePair, check_table,
                    dim_jacobi_cusp3, dim_level1_cusp, dim_paramodular3,
                    dim_paramodular3_nongritsenko, estimates, factorize,
                    hecke_poly_family, hecke_poly_spin, is_prime, kronecker,
                    load_betti_csv, p3_size, predict_h5)
from smithy.cli import bundled_table_path


TABLE_PRIMES = (83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
                149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197,
                199, 211)


def test_primality_and_factorization():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    # trial division agrees with factorize, and its divisors reach the
    # square root: the square of a prime is composite
    assert all(is_prime(n) == (factorize(n) == [(n, 1)]) for n in range(1, 3000))
    assert not is_prime(32749 ** 2) and not is_prime(-7)
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(211) == [(211, 1)]


def test_p3_size_values():
    assert p3_size(53) == 151740  # 1 + 53 + 53^2 + 53^3
    assert p3_size(211) == 9438664
    assert p3_size(2) == 15
    assert p3_size(6) == p3_size(2) * p3_size(3) == 600
    assert p3_size(4) == 4 ** 3 * 15 // 8  # prime powers count once per p
    assert p3_size(210) == 37440000
    assert round(p3_size(210) / 210 ** 3, 2) == 4.04
    with pytest.raises(ValueError):
        p3_size(1)


def test_estimates():
    assert estimates(211) == (98319, 943866, 3277314)
    assert estimates(53) == (1581, 15174, 52688)  # 52687.5 rounds to even
    # measured sizes for level 211 land within 0.04% of the estimates
    for est, actual in zip(estimates(211), (98351, 944046, 3277686)):
        assert abs(est - actual) / actual < 0.0004


def test_kronecker():
    assert kronecker(-1, 5) == 1
    assert kronecker(2, 5) == -1
    assert kronecker(5, 5) == 0
    assert kronecker(210, 7) == 0
    squares = {x * x % 11 for x in range(1, 11)}
    for a in range(1, 11):
        assert kronecker(a, 11) == (1 if a in squares else -1)
    with pytest.raises(ValueError):
        kronecker(1, 9)
    with pytest.raises(ValueError):
        kronecker(1, 2)


def test_dim_paramodular3():
    assert dim_paramodular3(2) == 0
    assert dim_paramodular3(3) == 0
    assert dim_paramodular3(5) == 0
    assert dim_paramodular3(89) == 9
    assert dim_paramodular3(127) == 16
    for N in (83, 101, 211, 997):
        assert dim_paramodular3(N) >= 0
    with pytest.raises(ValueError):
        dim_paramodular3(10)


def test_dim_level1_cusp():
    assert dim_level1_cusp(12) == 1
    assert dim_level1_cusp(10) == 0
    assert dim_level1_cusp(3) == 0
    assert dim_level1_cusp(26) == 1  # k = 2 mod 12 loses one
    # oracle: number of monomials E4^a E6^b of weight k, minus one
    for k in range(0, 201, 2):
        count = sum(1 for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0)
        assert dim_level1_cusp(k) == max(count - 1, 0), k


def test_dim_jacobi_cusp3():
    assert dim_jacobi_cusp3(5) == 0
    assert dim_jacobi_cusp3(89) == 8
    assert dim_jacobi_cusp3(127) == 13


def test_nongritsenko_all_table_primes():
    expected = {83: 0, 89: 1, 97: 2, 101: 2, 103: 2, 107: 0, 109: 3, 113: 1,
                127: 3, 131: 2, 137: 2, 139: 4, 149: 4, 151: 5, 157: 7,
                163: 4, 167: 4, 173: 6, 179: 4, 181: 10, 191: 6, 193: 10,
                197: 7, 199: 10, 211: 10}
    for N in TABLE_PRIMES:
        got = dim_paramodular3_nongritsenko(N)
        assert got == dim_paramodular3(N) - dim_jacobi_cusp3(N)
        assert got == expected[N], N


def test_conjugate_pair_algebra():
    g, gc = GAMMA, GAMMA_CONJ
    assert g + gc == gc + g
    assert (g - g).is_rational()
    assert 2 * g + 3 == ConjugatePair(3, 2, 0)
    x = Fraction(1, 2) + g
    assert x - Fraction(1, 2) == g
    assert 4 * x == 2 + 4 * g
    assert repr(g) != repr(gc)
    assert hash(2 * g + 3) == hash(ConjugatePair(3, 2, 0))
    with pytest.raises(ValueError):
        g * gc  # products of two formal parts stay out of scope
    with pytest.raises(ValueError):
        (1 + g) * (1 + gc)
    assert (1 + g) * 2 == 2 + 2 * g


def test_hecke_poly_spin_symmetry():
    rng = random.Random(73)
    for _ in range(100):
        l = rng.choice([2, 3, 5, 7, 11, 97])
        d1 = rng.randrange(-50, 51)
        d2 = rng.randrange(-50, 51)
        poly = hecke_poly_spin(l, d1, d2)
        c = poly.coeffs
        assert c[0] == 1
        assert c[3] == l ** 3 * c[1]
        assert c[4] == l ** 6 * c[0]
        assert c[1] == -d1
        assert c[2] == d1 * d1 - d2 - l * l


def test_family_expansions():
    assert hecke_poly_family("IIa", 2, alpha=0).coeffs == (1, -12, 34, -24, 64)
    assert hecke_poly_family("IIb", 2, alpha=0).coeffs == (1, -3, 34, -96, 64)
    p3a = hecke_poly_family("IIIa", 2, gamma=GAMMA, gamma_conj=GAMMA_CONJ)
    assert p3a.coeffs == (1, -8 - GAMMA, 8 * GAMMA + 2 * GAMMA_CONJ,
                          -8 - 16 * GAMMA_CONJ, 64)
    # every family evaluates to 1 at T = 0
    cases = (("IIa", dict(alpha=3)), ("IIb", dict(alpha=-1)),
             ("IV", dict(beta=7)),
             ("IIIa", dict(gamma=GAMMA, gamma_conj=GAMMA_CONJ)),
             ("IIIb", dict(gamma=2, gamma_conj=5)))
    for family, params in cases:
        poly = hecke_poly_family(family, 3, **params)
        assert poly.coeff(0) == 1
        assert poly.family == family
    iv = hecke_poly_family("IV", 2, beta=1)
    assert iv.coeffs == (1, -7, 22, -56, 64)  # (1-2T)(1-4T)(1-T+8T^2)


def test_family_validation():
    with pytest.raises(ValueError):
        hecke_poly_family("V", 2, alpha=1)
    with pytest.raises(ValueError):
        hecke_poly_family("IIa", 2)  # alpha missing
    with pytest.raises(ValueError):
        hecke_poly_family("IIa", 2, alpha=1, beta=2)  # beta not taken
    with pytest.raises(ValueError):
        hecke_poly_family("IIIa", 2, gamma=GAMMA)  # conjugate missing


def test_predict_h5_rows():
    assert predict_h5(BettiRow(83, 7, 7, 0, 0, 21)) == 21
    assert predict_h5(BettiRow(89, 7, 8, 2, 1, 28)) == 28
    assert predict_h5(BettiRow(193, 15, 23, 0, 10, 73)) == 73
    with pytest.raises(ValueError):
        BettiRow(89, -1, 8, 2, 1, 28)


def test_load_bundled_table():
    rows = load_betti_csv(bundled_table_path())
    assert len(rows) == 25
    assert [r.N for r in rows] == list(TABLE_PRIMES)
    results = check_table(rows)
    assert all(ok for _, _, ok in results)
    for row, predicted, _ in results:
        assert predicted == row.h5


def test_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("N,s2,s4,sl3,pnG,h5\n83,7,7,0,0,21\n")
    with pytest.raises(ValueError):
        load_betti_csv(str(bad_header))
    bad_row = tmp_path / "b.csv"
    bad_row.write_text("N,s2,s4_0,sl3,pnG,h5\n83,7,7,0,0\n")
    with pytest.raises(ValueError):
        load_betti_csv(str(bad_row))
    not_int = tmp_path / "c.csv"
    not_int.write_text("N,s2,s4_0,sl3,pnG,h5\n83,7,x,0,0,21\n")
    with pytest.raises(ValueError):
        load_betti_csv(str(not_int))


def test_check_table_flags_mismatch(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# comment line\n"
                    "N,s2,s4_0,sl3,pnG,h5\n"
                    "83,7,7,0,0,21\n"
                    "89,7,8,2,1,29\n")
    results = check_table(load_betti_csv(str(path)))
    assert [ok for _, _, ok in results] == [True, False]
    assert results[1][1] == 28
