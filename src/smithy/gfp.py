"""Arithmetic over a prime field GF(p) and the packed sparse-element encoding.

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

from .predict import is_prime


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

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse mod %d" % self.p)
        return pow(a, -1, self.p)
