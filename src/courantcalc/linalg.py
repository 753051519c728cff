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
    "mat_sub",
    "mat_mul",
    "mat_vec",
    "mat_is_zero",
    "mat_eq",
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


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(row, v):
            if x.is_zero() or y.is_zero():
                continue
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else row[0] - row[0])
    return out


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def _eliminate(m, aug=None):
    """In-place forward elimination; returns list of pivot columns."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    piv_cols = []
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
    return piv_cols


def rank(m):
    if not m or not m[0]:
        return 0
    work = [list(row) for row in m]
    return len(_eliminate(work))


def det(m):
    size = len(m)
    if size == 0:
        raise LinAlgError("determinant of an empty matrix")
    if any(len(row) != size for row in m):
        raise LinAlgError("determinant of a non-square matrix")
    n = m[0][0].n
    work = [list(row) for row in m]
    sign = 1
    result = Scalar.one(n)
    for c in range(size):
        pivot_row = None
        for i in range(c, size):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return Scalar.zero(n)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            sign = -sign
        piv = work[c][c]
        result = result * piv
        for i in range(c + 1, size):
            f = work[i][c]
            if f.is_zero():
                continue
            ratio = f / piv
            for j in range(c, size):
                if not work[c][j].is_zero():
                    work[i][j] = work[i][j] - ratio * work[c][j]
    if sign < 0:
        result = -result
    return result


def inverse(m):
    size = len(m)
    if size == 0 or any(len(row) != size for row in m):
        raise LinAlgError("inverse of a non-square matrix")
    n = m[0][0].n
    work = [list(row) for row in m]
    aug = mat_identity(size, n)
    piv_cols = _eliminate(work, aug)
    if len(piv_cols) != size:
        raise LinAlgError("singular matrix")
    # back substitution
    for r in range(size - 1, -1, -1):
        piv = work[r][r]
        for j in range(size):
            aug[r][j] = aug[r][j] / piv
            work[r][j] = work[r][j] / piv
        for i in range(r):
            f = work[i][r]
            if f.is_zero():
                continue
            for j in range(size):
                aug[i][j] = aug[i][j] - f * aug[r][j]
            work[i][r] = work[i][r] - f  # stays consistent; column is now e_r
    return aug


def solve(a, b):
    """One solution of a x = b with free variables set to zero.

    Pivot columns are the lexicographically first maximal independent set.
    Returns None when the system is inconsistent.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    n = b[0].n if b else (a[0][0].n if rows and cols else 0)
    work = [list(row) for row in a]
    aug = [[x] for x in b]
    piv_cols = _eliminate(work, aug)
    r = len(piv_cols)
    for i in range(r, rows):
        if not aug[i][0].is_zero():
            return None
    x = [Scalar.zero(n) for _ in range(cols)]
    for idx in range(r - 1, -1, -1):
        c = piv_cols[idx]
        acc = aug[idx][0]
        for j in range(c + 1, cols):
            if not (work[idx][j].is_zero() or x[j].is_zero()):
                acc = acc - work[idx][j] * x[j]
        x[c] = acc / work[idx][c]
    return x


def solve_matrix(a, rhs):
    """Solve a X = rhs column by column; None if any column is inconsistent."""
    cols_rhs = len(rhs[0]) if rhs else 0
    out_cols = []
    for j in range(cols_rhs):
        col = solve(a, [row[j] for row in rhs])
        if col is None:
            return None
        out_cols.append(col)
    return mat_transpose(out_cols) if out_cols else []
