"""Standard-complex cohomology over a point (quadratic Lie algebras).

Over a point the coefficient ring is the rationals, function slots vanish,
and the adjacent-swap relation forces the single remaining component of a
degree-p cochain to be alternating, so the space of p-cochains has one basis
element per p-subset of the frame.  The differential keeps only its
bracket-insertion sum and the cohomology is computed from exact ranks.
"""

from __future__ import annotations

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
        # structure constants as plain rationals
        self._c = [[[alg.bracket_coeffs[i][j][k].constant_value()
                     for k in range(self.rank)]
                    for j in range(self.rank)]
                   for i in range(self.rank)]
        self._check_alternating_identification()

    def _check_alternating_identification(self):
        # over a point the swap correction of the component pairs is the
        # differential of a constant pairing, which vanishes; confirm by
        # evaluating it for every frame pair
        for i in range(self.rank):
            for j in range(self.rank):
                pair = self.alg.pairing_matrix[i][j]
                if not self.alg.d_E(pair).is_zero():
                    raise PreconditionError(
                        "pairing differential does not vanish over a point")

    def basis(self, p):
        """Index subsets labelling the alternating basis in degree p."""
        if not 0 <= p <= self.rank:
            raise PreconditionError(f"degree {p} out of range 0..{self.rank}")
        return self._bases[p]

    def dimension(self, p):
        if p < 0 or p > self.rank:
            return 0
        return comb(self.rank, p)

    def _basis_value(self, subset, args):
        """Value of the alternating basis functional on frame indices."""
        if sorted(args) != list(subset):
            return 0
        # permutation sign taking args to the sorted subset
        seen = list(args)
        sign = 1
        for i in range(len(seen)):
            if seen[i] == subset[i]:
                continue
            j = seen.index(subset[i], i + 1)
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
        return sign

    def differential_matrix(self, p):
        """Matrix of the degree-raising differential in the alternating bases.

        Row indices run over the (p+1)-subsets, columns over p-subsets; the
        entry is the value of the image cochain on the row's frame tuple.
        """
        if not 0 <= p <= self.rank:
            raise PreconditionError(f"degree {p} out of range 0..{self.rank}")
        cached = self._matrices.get(p)
        if cached is not None:
            return cached
        rows = self._bases[p + 1] if p + 1 <= self.rank else []
        cols = self._bases[p]
        c = self._c
        out = []
        for row_subset in rows:
            row = []
            for col_subset in cols:
                total = 0
                args = list(row_subset)
                m = len(args)
                for i in range(m):
                    for j in range(i + 1, m):
                        cij = c[args[i]][args[j]]
                        reduced = args[:i] + args[i + 1 : j]
                        tail = args[j + 1 :]
                        for k in range(self.rank):
                            coeff = cij[k]
                            if not coeff:
                                continue
                            value = self._basis_value(
                                col_subset, reduced + [k] + tail)
                            if value:
                                sign = -1 if i % 2 == 0 else 1
                                total += sign * coeff * value
                row.append(total)
            out.append(row)
        self._matrices[p] = out
        return out

    def _rank(self, p):
        """Rank of the differential in degree p, kept per degree as its
        matrix is."""
        cached = self._ranks.get(p)
        if cached is not None:
            return cached
        m = self.differential_matrix(p)
        if not m or not m[0]:
            rank = 0
        else:
            rank = linalg.rank([[Scalar.const(0, x) for x in row] for row in m])
        self._ranks[p] = rank
        return rank

    def betti(self, p):
        """Betti number in degree p from exact rational ranks."""
        if p < 0 or p > self.rank:
            return 0
        rank_out = self._rank(p) if p < self.rank else 0
        rank_in = self._rank(p - 1) if p >= 1 else 0
        return self.dimension(p) - rank_out - rank_in

    def euler_characteristic(self):
        return sum((-1) ** p * self.dimension(p) for p in range(self.rank + 1))

    def table(self, max_p=None):
        """Rows (p, dimension, rank of the outgoing differential, betti)."""
        top = self.rank if max_p is None else min(max_p, self.rank)
        rows = []
        for p in range(top + 1):
            rank_out = self._rank(p) if p < self.rank else 0
            rows.append({"p": p, "dim": self.dimension(p),
                         "rank_d": rank_out, "betti": self.betti(p)})
        return rows
