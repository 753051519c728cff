"""Dense linear algebra over the fraction field of the scalar ring.

Matrices are lists of lists of :class:`~courantcalc.scalar.Scalar`.  All
pivoting is deterministic (columns left to right, first nonzero row), so
ranks, solutions and inverses are reproducible.
"""

from __future__ import annotations

from .scalar import Scalar

__all__ = [
    "LinAlgError",
    "mat_identity",
    "mat_transpose",
    "mat_mul",
    "mat_is_zero",
    "mat_eq",
    "mat_str",
    "rank",
    "det",
    "inverse",
    "solve",
    "solve_matrix",
]


class LinAlgError(ValueError):
    pass


def mat_identity(size, n):
    z, o = Scalar.zero(n), Scalar.one(n)
    return [[o if i == j else z for j in range(size)] for i in range(size)]


def mat_transpose(m):
    return [list(row) for row in zip(*m)] if m else []


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = mat_transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = None
            for x, y in zip(row, col):
                if x.is_zero() or y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            out_row.append(acc if acc is not None else row[0] - row[0])
        out.append(out_row)
    return out


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def mat_str(a):
    """The rows of a as text, each entry printed by str: [[0, 1], [x1, 0]]."""
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in a) + "]"


def _eliminate(m, aug=None):
    """In-place forward elimination, with the rows of aug following the rows
    of m; returns the pivot columns and the sign of the row permutation."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    piv_cols = []
    sign = 1
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
            if aug is not None:
                aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        piv = m[r][c]
        for i in range(r + 1, rows):
            f = m[i][c]
            if f.is_zero():
                continue
            ratio = f / piv
            for j in range(c, cols):
                if not m[r][j].is_zero():
                    m[i][j] = m[i][j] - ratio * m[r][j]
            if aug is not None:
                for j in range(len(aug[0])):
                    if not aug[r][j].is_zero():
                        aug[i][j] = aug[i][j] - ratio * aug[r][j]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols, sign


def rank(m):
    if not m or not m[0]:
        return 0
    return len(_eliminate([list(row) for row in m])[0])


def det(m):
    """The product of the pivots of the elimination, signed by its row swaps."""
    size = len(m)
    if size == 0:
        raise LinAlgError("determinant of an empty matrix")
    if any(len(row) != size for row in m):
        raise LinAlgError("determinant of a non-square matrix")
    n = m[0][0].n
    work = [list(row) for row in m]
    piv_cols, sign = _eliminate(work)
    if len(piv_cols) < size:
        return Scalar.zero(n)
    result = Scalar.one(n)
    for r in range(size):
        result = result * work[r][r]
    return -result if sign < 0 else result


def inverse(m):
    """The solution of m X = 1; it exists exactly when m is invertible."""
    size = len(m)
    if size == 0 or any(len(row) != size for row in m):
        raise LinAlgError("inverse of a non-square matrix")
    x = solve_matrix(m, mat_identity(size, m[0][0].n))
    if x is None:
        raise LinAlgError("singular matrix")
    return x


def _solve(a, aug):
    """The solution X of a X = aug with free variables set to zero, from one
    elimination; None when some column of aug is inconsistent.  Pivot
    columns are the lexicographically first maximal independent set."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    width = len(aug[0]) if aug else 0
    zero = Scalar.zero(next((x.n for row in a + aug for x in row), 0))
    work = [list(row) for row in a]
    piv_cols, _ = _eliminate(work, aug)
    r = len(piv_cols)
    if any(not x.is_zero() for row in aug[r:] for x in row):
        return None
    x = [[zero] * width for _ in range(cols)]
    for col in range(width):
        for idx in range(r - 1, -1, -1):
            c = piv_cols[idx]
            acc = aug[idx][col]
            for j in range(c + 1, cols):
                if not (work[idx][j].is_zero() or x[j][col].is_zero()):
                    acc = acc - work[idx][j] * x[j][col]
            x[c][col] = acc / work[idx][c]
    return x


def solve(a, b):
    """One solution of a x = b with free variables set to zero (see
    :func:`_solve`); None when the system is inconsistent."""
    x = _solve(a, [[v] for v in b])
    return None if x is None else [row[0] for row in x]


def solve_matrix(a, rhs):
    """The solution of a X = rhs with free variables set to zero, from one
    elimination for all columns; None if any column is inconsistent."""
    return _solve(a, [list(row) for row in rhs])
