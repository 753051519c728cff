"""Standard-complex cohomology over a point (quadratic Lie algebras).

Over a point the coefficient ring is the rationals, function slots vanish,
and the adjacent-swap relation forces the single remaining component of a
degree-p cochain to be alternating, so the space of p-cochains has one basis
element per p-subset of the frame.  The differential keeps only its
bracket-insertion sum and the cohomology is computed from exact ranks.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import comb

from . import linalg
from .report import PreconditionError
from .scalar import Scalar

__all__ = ["PointComplex"]


class PointComplex:
    """Cochain spaces and differentials of an algebroid over a point."""

    def __init__(self, alg):
        if alg.n != 0:
            raise PreconditionError(
                "cohomology is computed only over a point (n = 0)")
        self.alg = alg
        self.rank = alg.rank
        self._bases = {p: list(combinations(range(self.rank), p))
                       for p in range(self.rank + 1)}
        self._matrices = {}
        self._ranks = {}
        # nonzero structure constants (k, c_ij^k) as plain rationals
        self._c = [[[(k, v) for k, v in enumerate(
                        x.constant_value() for x in alg.bracket_coeffs[i][j])
                     if v]
                    for j in range(self.rank)]
                   for i in range(self.rank)]

    def basis(self, p):
        """Index subsets labelling the alternating basis in degree p."""
        return self._bases[p]

    def dimension(self, p):
        return comb(self.rank, p)

    def differential_matrix(self, p):
        """Matrix of the degree-raising differential in the alternating bases.

        Row indices run over the (p+1)-subsets, columns over p-subsets; the
        entry is the value of the image cochain on the row's frame tuple.
        On a row a, the pair i < j and a nonzero c_{a_i a_j}^k give the term
        (-1)^(i+1) c_{a_i a_j}^k w(a_0, .., k, .., a_p) with k in the place
        of a_j; it vanishes if k repeats an index, and otherwise belongs to
        the one column of its sorted indices, with the sign of moving k from
        place j - 1 to its sorted place.
        """
        cached = self._matrices.get(p)
        if cached is not None:
            return cached
        rows = self._bases[p + 1] if p + 1 <= self.rank else []
        column = {subset: ci for ci, subset in enumerate(self._bases[p])}
        out = []
        for a in rows:
            row = [0] * len(column)
            for i, j in combinations(range(p + 1), 2):
                rest = a[:i] + a[i + 1 : j] + a[j + 1 :]
                for k, coeff in self._c[a[i]][a[j]]:
                    place = bisect_left(rest, k)
                    if place < len(rest) and rest[place] == k:
                        continue
                    ci = column[rest[:place] + (k,) + rest[place:]]
                    # (-1)^(i+1) times (-1)^(j-1-place), as a parity
                    row[ci] += -coeff if (i + j - place) % 2 else coeff
            out.append(row)
        self._matrices[p] = out
        return out

    def _rank(self, p):
        """Rank of the differential in degree p, kept per degree as its
        matrix is."""
        cached = self._ranks.get(p)
        if cached is not None:
            return cached
        rank = self._ranks[p] = linalg.rank(
            [[Scalar.const(0, x) for x in row] for row in self.differential_matrix(p)])
        return rank

    def betti(self, p):
        """Betti number in degree p from exact rational ranks."""
        rank_out = self._rank(p) if p < self.rank else 0
        rank_in = self._rank(p - 1) if p >= 1 else 0
        return self.dimension(p) - rank_out - rank_in

    def euler_characteristic(self):
        return sum((-1) ** p * self.dimension(p) for p in range(self.rank + 1))

    def table(self):
        """Rows (p, dimension, rank of the outgoing differential, betti),
        one per degree p = 0..rank."""
        rows = []
        for p in range(self.rank + 1):
            rank_out = self._rank(p) if p < self.rank else 0
            rows.append({"p": p, "dim": self.dimension(p),
                         "rank_d": rank_out, "betti": self.betti(p)})
        return rows
