"""Seeded input generators for the benchmark.

Two families, both written in the library's text matrix format
(header ``m n p``, 1-based ``i j v`` entries, ``0 0 0`` terminator):

* skinny random matrices, the shape of the library's stress test;
* the Freudenthal triangulation of the d-torus (Z/k)^d, whose cochain
  complex has Betti numbers C(d, q), with a seeded relabeling of the
  simplices and pull-back maps for translations and the coordinate
  rotation.

Everything here is plain Python and depends only on the seed, so the same
seed always writes byte-identical files.
"""

from __future__ import annotations

import itertools
import random

PRIME = 12379


# -- skinny random matrices -------------------------------------------------

def skinny_columns(rng: random.Random, m: int, n: int, p: int,
                   max_nnz: int = 6) -> list[list[tuple[int, int]]]:
    """n columns of (row, value) pairs, 1..max_nnz distinct rows each,
    rows ascending, values uniform in [1, p)."""
    cols = []
    for _ in range(n):
        rows = sorted(rng.sample(range(m), rng.randint(1, max_nnz)))
        cols.append([(i, rng.randrange(1, p)) for i in rows])
    return cols


def write_columns(path: str, m: int, n: int, p: int, cols) -> int:
    """Write column lists of (row, value) pairs; returns the entry count."""
    lines = ["%d %d %d\n" % (m, n, p)]
    for j, col in enumerate(cols, 1):
        lines.extend("%d %d %d\n" % (i + 1, j, v) for i, v in col)
    lines.append("0 0 0\n")
    with open(path, "w", newline="\n") as f:
        f.writelines(lines)
    return len(lines) - 2


def write_skinny(path: str, m: int, n: int, seed, p: int = PRIME) -> int:
    rng = random.Random("skinny:%d:%d:%s" % (m, n, seed))
    return write_columns(path, m, n, p, skinny_columns(rng, m, n, p))


# -- Freudenthal triangulation of the d-torus --------------------------------
#
# A q-simplex is a base vertex x together with a strictly increasing chain
# S_1 < S_2 < ... < S_q of nonempty coordinate subsets (bit masks); its
# vertices, in order, are x, x + e(S_1), ..., x + e(S_q), where e(S) is the
# 0/1 vector of S.  The d-simplices are the d! paths from x to x + (1..1).
# For k >= 3 the vertices of a simplex are distinct mod k and the
# representation is unique.


def _chains(d: int, q: int) -> list[tuple[int, ...]]:
    """Strictly increasing chains of q nonempty subsets of {0..d-1}."""
    full = (1 << d) - 1
    out: list[tuple[int, ...]] = [()]
    for _ in range(q):
        nxt = []
        for ch in out:
            last = ch[-1] if ch else 0
            for s in range(1, full + 1):
                if s != last and s & last == last:
                    nxt.append(ch + (s,))
        out = nxt
    return sorted(out)


class Torus:
    """Freudenthal triangulation of (Z/k)^d with seeded simplex labels.

    ``simplices[q]`` lists the q-simplices as (vertex index, chain) in
    label order, ``index[q]`` maps a simplex back to its label.
    """

    def __init__(self, d: int, k: int, seed: int | None = None):
        if d < 1 or k < 3:
            raise ValueError("need d >= 1 and k >= 3")
        self.d, self.k = d, k
        rng = random.Random("torus:%d:%d:%s" % (d, k, seed))
        nverts = k ** d
        self.simplices: list[list[tuple[int, tuple[int, ...]]]] = []
        self.index: list[dict] = []
        for q in range(d + 1):
            simp = [(x, ch) for x in range(nverts) for ch in _chains(d, q)]
            if seed is not None:
                rng.shuffle(simp)
            self.simplices.append(simp)
            self.index.append({s: t for t, s in enumerate(simp)})

    def size(self, q: int) -> int:
        return len(self.simplices[q]) if 0 <= q <= self.d else 0

    # vertices are mixed-radix integers, coordinate 0 least significant
    def _coords(self, x: int) -> list[int]:
        return [x // self.k ** i % self.k for i in range(self.d)]

    def _vertex(self, coords) -> int:
        return sum(c % self.k * self.k ** i for i, c in enumerate(coords))

    def _shift(self, x: int, mask: int) -> int:
        c = self._coords(x)
        return self._vertex([c[i] + (mask >> i & 1) for i in range(self.d)])

    def faces(self, q: int, simplex):
        """(sign, face) for the q+1 faces of a q-simplex, face i first
        dropping vertex i; the sign is (-1)^i."""
        x, ch = simplex
        out = []
        for i in range(q + 1):
            if i == 0:
                s1 = ch[0]
                face = (self._shift(x, s1), tuple(s ^ s1 for s in ch[1:]))
            else:
                face = (x, ch[:i - 1] + ch[i:])
            out.append((1 if i % 2 == 0 else -1, face))
        return out

    def coboundary_columns(self, q: int, p: int) -> list[list[tuple[int, int]]]:
        """delta_q : C^q -> C^(q+1) as columns of (row, value) pairs, a
        size(q+1) x size(q) matrix over F_p."""
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.size(q))]
        if q + 1 > self.d:
            return cols
        idx = self.index[q]
        for r, sigma in enumerate(self.simplices[q + 1]):
            for sign, face in self.faces(q + 1, sigma):
                cols[idx[face]].append((r, sign % p))
        for col in cols:
            col.sort()
        return cols

    def write_coboundary(self, path: str, q: int, p: int = PRIME) -> int:
        return write_columns(path, self.size(q + 1), self.size(q), p,
                             self.coboundary_columns(q, p))

    # -- simplicial automorphisms and their pull-backs ---------------------

    def translate(self, t):
        def f(simplex):
            x, ch = simplex
            c = self._coords(x)
            return self._vertex([a + b for a, b in zip(c, t)]), ch
        return f

    def rotate(self):
        """Coordinate i of the image is coordinate i-1 of the source."""
        d = self.d

        def rot_mask(s: int) -> int:
            return ((s << 1) | (s >> (d - 1))) & ((1 << d) - 1)

        def f(simplex):
            x, ch = simplex
            c = self._coords(x)
            return self._vertex(c[-1:] + c[:-1]), tuple(rot_mask(s) for s in ch)
        return f

    def pullback(self, q: int, phi) -> list[int]:
        """perm with (phi^* z)[t] = z[perm[t]] on q-cochains.

        Both maps keep each simplex's vertex order, so the pull-back is a
        plain permutation with no signs."""
        idx = self.index[q]
        return [idx[phi(s)] for s in self.simplices[q]]

    def unit_translations(self) -> list[tuple[int, ...]]:
        """The 3^d - 1 nonzero vectors with entries in {-1, 0, 1}."""
        return [t for t in itertools.product((-1, 0, 1), repeat=self.d) if any(t)]


def apply_perm(perm: list[int], z: list[int]) -> list[int]:
    return [z[t] for t in perm]
