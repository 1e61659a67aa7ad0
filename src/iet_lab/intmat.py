"""Exact integer matrix arithmetic.

Matrices are immutable tuples of tuples of Python ints, so products and
powers never overflow or round.  Everything here is sized for the small
dense matrices the library needs (d up to ~20), not for general linear
algebra.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, NotPrimitive

IntMatrix = tuple  # tuple of row tuples of int


def freeze(rows) -> IntMatrix:
    """Validate and freeze a square matrix of integers."""
    out = tuple(tuple(int(x) for x in row) for row in rows)
    d = len(out)
    if d == 0 or any(len(row) != d for row in out):
        raise DimensionError("matrix must be square and non-empty")
    return out


def identity(d: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise DimensionError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def matpow(a: IntMatrix, n: int) -> IntMatrix:
    if n < 0:
        raise DimensionError("negative matrix power; use inverse_unimodular")
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = matmul(result, base)
        base = matmul(base, base) if n > 1 else base
        n >>= 1
    return result


def mat_transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def mat_vec(a: IntMatrix, v: Sequence):
    """Matrix times vector; entries may be ints or context reals."""
    if len(a[0]) != len(v):
        raise DimensionError("matrix/vector size mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def column_sums(a: IntMatrix) -> tuple:
    return tuple(sum(col) for col in zip(*a))


def norm_col(a: IntMatrix) -> int:
    """max over columns of the column sum of absolute values."""
    return max(sum(abs(x) for x in col) for col in zip(*a))


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    d = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for i in range(k + 1, d):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse; requires det = +-1."""
    d = len(a)
    dt = det(a)
    if dt not in (1, -1):
        raise DimensionError(f"matrix is not unimodular (det = {dt})")
    aug = [[Fraction(a[i][j]) for j in range(d)] + [Fraction(int(i == k)) for k in range(d)]
           for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = tuple(tuple(int(aug[i][d + j]) for j in range(d)) for i in range(d))
    return inv


def charpoly(a: IntMatrix) -> tuple:
    """Monic characteristic polynomial, highest degree first.

    Faddeev-LeVerrier over exact rationals; all returned coefficients
    are integers for an integer input matrix.
    """
    d = len(a)
    af = [[Fraction(x) for x in row] for row in a]

    def mm(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)]

    m = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    coeffs = [Fraction(1)]
    for k in range(1, d + 1):
        m = mm(af, m)
        c = -sum(m[i][i] for i in range(d)) / k
        coeffs.append(c)
        for i in range(d):
            m[i][i] += c
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise DimensionError("characteristic polynomial is not integral")
        out.append(int(c))
    return tuple(out)


def rank_rational(rows) -> int:
    """Exact rank of a matrix with int/Fraction entries."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def wielandt_bound(d: int) -> int:
    """Sharp primitivity exponent bound for a d x d non-negative matrix."""
    return (d - 1) * (d - 1) + 1


def positive_power(a: IntMatrix, max_power: int | None = None) -> int:
    """Least q >= 1 with a**q strictly positive.

    Raises NotPrimitive if no power up to the Wielandt bound works,
    which for a non-negative matrix certifies non-primitivity.
    """
    d = len(a)
    if any(x < 0 for row in a for x in row):
        raise NotPrimitive("matrix has negative entries")
    limit = max_power or wielandt_bound(d)
    p = a
    for q in range(1, limit + 1):
        if all(x > 0 for row in p for x in row):
            return q
        p = matmul(p, a)
    raise NotPrimitive(f"no strictly positive power up to {limit}")


def smith_normal_form(a) -> tuple:
    """Smith normal form D = U * A * V with U, V unimodular.

    Returns (D, U, V) as tuples of row tuples; A may be rectangular.
    Diagonal entries of D are non-negative with each dividing the next.
    """
    m = [list(map(int, row)) for row in a]
    if not m:
        raise DimensionError("empty matrix")
    nr, nc = len(m), len(m[0])
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        m[dst] = [x + mult * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, mult):
        for row in m:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]

    t = 0
    while t < min(nr, nc):
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        again = True
        while again:
            again = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        again = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        again = True
        # divisibility pass: fold any non-divisible entry into the pivot
        fixed = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (tuple(tuple(row) for row in m),
            tuple(tuple(row) for row in u),
            tuple(tuple(row) for row in v))


def integer_kernel(a) -> list:
    """Basis of the integer kernel {x in Z^n : A x = 0} as a list of tuples.

    Basis vectors are sign-normalized so their first nonzero entry is
    positive.
    """
    d_mat, _u, v = smith_normal_form(a)
    nr, nc = len(d_mat), len(d_mat[0])
    basis = []
    for j in range(nc):
        diag = d_mat[j][j] if j < nr else 0
        if diag == 0:
            vec = tuple(v[i][j] for i in range(nc))
            lead = next((x for x in vec if x != 0), 1)
            if lead < 0:
                vec = tuple(-x for x in vec)
            basis.append(vec)
    return basis


def matrix_to_strings(a: IntMatrix) -> list:
    """Row-major decimal strings (the exact serialization format)."""
    return [[str(x) for x in row] for row in a]


def matrix_from_strings(rows) -> IntMatrix:
    return freeze(tuple(tuple(int(x) for x in row) for row in rows))
