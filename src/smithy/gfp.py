"""Arithmetic over a prime field GF(p), the packed sparse-element encoding,
and the package's one primality test.

A sparse vector entry is a (row index, nonzero value) pair packed into a
single integer: ``i << k | v`` where ``k`` is the smallest width with
``p < 2**k``; it unpacks as ``(e >> k, e & mask)``.  Because ``v < 2**k``,
the packed integers sort exactly like their row indices, so merge passes
can compare packed values directly.

The modulus must be an odd prime below 2**15 so that a packed entry with a
row index below 2**(64-k) always fits a 64-bit word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt


def is_prime(n: int) -> bool:
    """Trial division by 2 and by the odd numbers up to the square root of n."""
    return n == 2 or (n > 2 and n % 2 == 1 and all(n % f for f in range(3, isqrt(n) + 1, 2)))


@dataclass(frozen=True)
class FieldSpec:
    """An odd prime modulus p < 2**15 together with the packing width k."""

    p: int
    k: int = field(init=False)
    mask: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise TypeError("modulus must be an int")
        if self.p >= 1 << 15:  # first, so the primality test stays cheap
            raise ValueError("modulus must be below 2**15, got %d" % self.p)
        if self.p < 3 or not is_prime(self.p):
            raise ValueError("modulus must be an odd prime, got %r" % (self.p,))
        object.__setattr__(self, "k", self.p.bit_length())
        object.__setattr__(self, "mask", (1 << self.k) - 1)

    # -- scalar arithmetic ------------------------------------------------

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse mod %d" % self.p)
        return pow(a, -1, self.p)
