"""Level-N arithmetic: cochain-size estimates, paramodular and Jacobi cusp
form dimensions, Hecke polynomial families, and the Betti consistency check.

Everything here is exact: Fractions throughout, with a small formal algebra
for the conjugate eigenvalue pair that appears in the type III families.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial division; all levels in play are a few thousand at most."""
    if n < 1:
        raise ValueError("positive integers only")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == [(n, 1)]


# -- size estimates -----------------------------------------------------------

def p3_size(N: int) -> int:
    """Number of points of P^3 over Z/N: product over p^e || N of
    p^(3e-3).(1+p+p^2+p^3).  For prime N this is 1+N+N^2+N^3."""
    if N < 2:
        raise ValueError("level must be at least 2")
    size = 1
    for p, e in factorize(N):
        size *= p ** (3 * e - 3) * (1 + p + p * p + p ** 3)
    return size


def estimates(N: int) -> tuple[int, int, int]:
    """(n6Est, n5Est, n4Est): the cochain ranks scale like 1/96, 1/10 and
    25/72 of |P^3(Z/N)|; rounded to nearest, ties to even."""
    size = p3_size(N)
    return (
        round(Fraction(size, 96)),
        round(Fraction(size, 10)),
        round(Fraction(25 * size, 72)),
    )


# -- dimension formulas -------------------------------------------------------

def kronecker(a: int, N: int) -> int:
    """Legendre symbol (a/N) for an odd prime N, via Euler's criterion."""
    if N < 3 or N % 2 == 0 or not is_prime(N):
        raise ValueError("modulus must be an odd prime")
    r = pow(a % N, (N - 1) // 2, N)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def dim_paramodular3(N: int) -> int:
    """Dimension of the weight-3 paramodular cusp forms of prime level N.

    Seven rational terms plus two correction terms minus 1; the total must
    come out a nonnegative integer, and anything else is a transcription
    bug, not a domain error.
    """
    if not is_prime(N):
        raise ValueError("prime levels only")
    if N in (2, 3):
        return 0
    k1 = kronecker(-1, N)
    k3 = kronecker(-3, N)
    k2 = kronecker(2, N)
    total = (
        Fraction(N * N - 1, 2880)
        + Fraction((N + 1) * (1 - k1), 64)
        + Fraction(5 * (N - 1) * (1 + k1), 192)
        + Fraction((N + 1) * (1 - k3), 72)
        + Fraction((N - 1) * (1 + k3), 36)
        + Fraction(1 - k2, 8)
        - 1
    )
    if N % 5 in (2, 3):
        total += Fraction(2, 5)
    elif N == 5:
        total += Fraction(1, 5)
    if N % 12 == 5:
        total += Fraction(1, 6)
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(
            "paramodular dimension came out %s at N=%d; the rational terms "
            "must cancel" % (total, N))
    return int(total)


def dim_level1_cusp(k: int) -> int:
    """dim S_k for the full modular group: 0 below weight 12 or in odd
    weight, else one less than the count of monomials E4^a E6^b of weight k."""
    if k < 0:
        raise ValueError("weight must be nonnegative")
    if k % 2 or k < 12:
        return 0
    return k // 12 - 1 if k % 12 == 2 else k // 12


def dim_jacobi_cusp3(N: int) -> int:
    """Jacobi cusp forms of weight 3 and index N, which is also the
    dimension of the Gritsenko part of the weight-3 paramodular forms:
    sum over j = 1..N-1 of s(2j+2) - floor(j^2/4N), floor taken per term."""
    if N < 1:
        raise ValueError("index must be positive")
    total = sum(dim_level1_cusp(2 * j + 2) - j * j // (4 * N)
                for j in range(1, N))
    if total < 0:
        raise ArithmeticError(
            "Jacobi dimension sum came out negative (%d) at N=%d" % (total, N))
    return total


def dim_paramodular3_nongritsenko(N: int) -> int:
    return dim_paramodular3(N) - dim_jacobi_cusp3(N)


# -- Hecke polynomials --------------------------------------------------------

class ConjugatePair:
    """Element a + b.gamma + c.gamma' of the rational span of 1 and a formal
    conjugate pair of eigenvalues.  Linear arithmetic is exact; a product
    that would need gamma.gamma or gamma.gamma' raises, since the pair's
    quadratic relations are deliberately left unspecified."""

    __slots__ = ("const", "g", "gc")

    def __init__(self, const=0, g=0, gc=0):
        self.const = Fraction(const)
        self.g = Fraction(g)
        self.gc = Fraction(gc)

    def _coerce(other):
        if isinstance(other, ConjugatePair):
            return other
        if isinstance(other, (int, Fraction)):
            return ConjugatePair(other)
        return None

    def is_rational(self) -> bool:
        return self.g == 0 and self.gc == 0

    def simplify(self):
        if not self.is_rational():
            return self
        c = self.const
        return int(c) if c.denominator == 1 else c

    def __add__(self, other):
        o = ConjugatePair._coerce(other)
        if o is None:
            return NotImplemented
        return ConjugatePair(self.const + o.const, self.g + o.g, self.gc + o.gc)

    __radd__ = __add__

    def __neg__(self):
        return ConjugatePair(-self.const, -self.g, -self.gc)

    def __sub__(self, other):
        o = ConjugatePair._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = ConjugatePair._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.is_rational() or o.is_rational()):
            raise ValueError("product of two formal eigenvalue parts")
        if self.is_rational():
            s = self.const
            return ConjugatePair(s * o.const, s * o.g, s * o.gc)
        s = o.const
        return ConjugatePair(s * self.const, s * self.g, s * self.gc)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = ConjugatePair._coerce(other)
        if o is None:
            return NotImplemented
        return (self.const, self.g, self.gc) == (o.const, o.g, o.gc)

    def __hash__(self):
        return hash((self.const, self.g, self.gc))

    def __repr__(self):
        parts = []
        if self.const or not (self.g or self.gc):
            parts.append(str(self.const))
        if self.g:
            parts.append("%s*g" % self.g)
        if self.gc:
            parts.append("%s*g'" % self.gc)
        return " + ".join(parts)


GAMMA = ConjugatePair(g=1)
GAMMA_CONJ = ConjugatePair(gc=1)


@dataclass(frozen=True)
class HeckePolynomial:
    coeffs: tuple  # degree <= 4, index = power of T
    family: str

    def coeff(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else 0


def _simplify(c):
    if isinstance(c, ConjugatePair):
        return c.simplify()
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _finish(coeffs: list, family: str) -> HeckePolynomial:
    coeffs = [_simplify(c) for c in coeffs]
    while len(coeffs) < 5:
        coeffs.append(0)
    poly = HeckePolynomial(tuple(coeffs[:5]), family)
    if poly.coeffs[0] != 1:
        raise AssertionError("constant coefficient must be 1")
    return poly


def hecke_poly_spin(l: int, delta_l, delta_l2) -> HeckePolynomial:
    """1 - d T + (d^2 - d2 - l^2) T^2 - d l^3 T^3 + l^6 T^4 where d, d2 are
    the eigenvalues at l and l^2; c3 = l^3 c1 and c4 = l^6 c0 hold by shape."""
    coeffs = [
        1,
        -delta_l,
        delta_l * delta_l - delta_l2 - l * l,
        -delta_l * l ** 3,
        l ** 6,
    ]
    return _finish(coeffs, "Spin")


def hecke_poly_family(family: str, l: int, alpha=None, beta=None,
                      gamma=None, gamma_conj=None) -> HeckePolynomial:
    """Expand one of the local-factor products:

      IIa   (1 - l^2 T)(1 - l^3 T)(1 - alpha T + l T^2)
      IIb   (1 - T)(1 - l T)(1 - l^2 alpha T + l^5 T^2)
      IV    (1 - l T)(1 - l^2 T)(1 - beta T + l^3 T^2)
      IIIa  (1 - l^3 T)(1 - gamma T + l gamma' T^2 - l^3 T^3)
      IIIb  (1 - T)(1 - l gamma T + l^3 gamma' T^2 - l^6 T^3)

    gamma and gamma' may be numbers or the formal GAMMA / GAMMA_CONJ pair.
    """
    given = {"alpha": alpha, "beta": beta, "gamma": gamma,
             "gamma_conj": gamma_conj}
    needs = {
        "IIa": ("alpha",), "IIb": ("alpha",), "IV": ("beta",),
        "IIIa": ("gamma", "gamma_conj"), "IIIb": ("gamma", "gamma_conj"),
    }
    if family not in needs:
        raise ValueError("unknown family %r" % (family,))
    for name in needs[family]:
        if given[name] is None:
            raise ValueError("family %s needs parameter %s" % (family, name))
    for name, val in given.items():
        if val is not None and name not in needs[family]:
            raise ValueError("family %s does not take %s" % (family, name))

    if family == "IIa":
        coeffs = _poly_mul(_poly_mul([1, -l * l], [1, -l ** 3]),
                           [1, -alpha, l])
    elif family == "IIb":
        coeffs = _poly_mul(_poly_mul([1, -1], [1, -l]),
                           [1, -l * l * alpha, l ** 5])
    elif family == "IV":
        coeffs = _poly_mul(_poly_mul([1, -l], [1, -l * l]),
                           [1, -beta, l ** 3])
    elif family == "IIIa":
        coeffs = _poly_mul([1, -l ** 3],
                           [1, -1 * gamma, l * gamma_conj, -l ** 3])
    else:  # IIIb
        coeffs = _poly_mul([1, -1],
                           [1, -l * gamma, l ** 3 * gamma_conj, -l ** 6])
    return _finish(coeffs, family)


# -- Betti table --------------------------------------------------------------

BETTI_HEADER = ("N", "s2", "s4_0", "sl3", "pnG", "h5")


@dataclass(frozen=True)
class BettiRow:
    N: int
    s2: int
    s4_0: int
    sl3: int
    pnG: int
    h5: int

    def __post_init__(self):
        for name in BETTI_HEADER:
            if getattr(self, name) < 0:
                raise ValueError("%s must be nonnegative" % name)


def predict_h5(row: BettiRow) -> int:
    """Two copies each of the weight-2, SL3-cuspidal and non-Gritsenko
    constituents, one of the vanishing-central-value weight-4 part."""
    return 2 * (row.s2 + row.sl3 + row.pnG) + row.s4_0


def load_betti_csv(path) -> list[BettiRow]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(line for line in f if not line.startswith("#"))
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != BETTI_HEADER:
            raise ValueError("expected header %s" % ",".join(BETTI_HEADER))
        for rec in reader:
            if not rec:
                continue
            if len(rec) != 6:
                raise ValueError("bad row: %r" % (rec,))
            rows.append(BettiRow(*[int(x) for x in rec]))
    if not rows:
        raise ValueError("%s holds no rows" % path)
    return rows


def check_table(rows: list[BettiRow]) -> list[tuple[BettiRow, int, bool]]:
    """Per row: (row, predicted h5, matches the recorded h5)."""
    return [(row, predict_h5(row), predict_h5(row) == row.h5) for row in rows]
