"""Arithmetic over a prime field GF(p) and the packed sparse-element encoding.

A sparse vector entry is a (row index, nonzero value) pair packed into a
single integer: ``i << k | v`` where ``k`` is the smallest width with
``p < 2**k``.  Because ``v < 2**k``, the packed integers sort exactly like
their row indices, so merge passes can compare packed values directly.

The modulus must be an odd prime below 2**15 so that a packed entry with a
row index below 2**(64-k) always fits a 64-bit word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .predict import is_prime

WORD_BITS = 64


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with a*x + b*y == g
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


@dataclass(frozen=True)
class FieldSpec:
    """An odd prime modulus p < 2**15 together with the packing width k."""

    p: int
    k: int = field(init=False)
    mask: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise TypeError("modulus must be an int")
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError("modulus must be an odd prime, got %r" % (self.p,))
        if self.p >= 1 << 15:
            raise ValueError("modulus must be below 2**15, got %d" % self.p)
        object.__setattr__(self, "k", self.p.bit_length())
        object.__setattr__(self, "mask", (1 << self.k) - 1)

    # -- scalar arithmetic ------------------------------------------------

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse by extended Euclid."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse mod %d" % self.p)
        g, x, _ = _xgcd(a, self.p)
        if g != 1:  # cannot happen for prime p; guards corrupted state
            raise ArithmeticError("gcd(%d, %d) = %d" % (a, self.p, g))
        return x % self.p

    # -- packed elements ---------------------------------------------------

    def pack(self, i: int, v: int) -> int:
        if not 0 < v < self.p:
            raise ValueError("value %d outside [1, %d)" % (v, self.p))
        if i < 0 or i >= 1 << (WORD_BITS - self.k):
            raise OverflowError("row index %d does not fit %d-bit word" % (i, WORD_BITS))
        return i << self.k | v

    def unpack(self, e: int) -> tuple[int, int]:
        return e >> self.k, e & self.mask

