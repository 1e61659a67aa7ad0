"""Exact integer matrix arithmetic.

Matrices are immutable tuples of tuples of Python ints, so products and
powers never overflow or round.  Everything here is sized for the small
dense matrices the library needs (d up to ~20), not for general linear
algebra.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import DimensionError, DomainError, NotPrimitive

IntMatrix = tuple  # tuple of row tuples of int


def _entry(x) -> int:
    """One matrix entry as an exact int.

    Ints, numpy integers, integral numbers and decimal-integer strings
    are taken (any other string raises ValueError, as ``int`` does); a
    bool or a number that is not an integer raises DomainError instead
    of being truncated.
    """
    if isinstance(x, bool):
        raise DomainError(f"matrix entry {x!r} is a bool, not an integer")
    if isinstance(x, str):
        return int(x)
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != x:
        raise DomainError(f"matrix entry {x!r} is not an integer")
    return value


def freeze(rows) -> IntMatrix:
    """Validate and freeze a square matrix of integers (see ``_entry``)."""
    out = tuple(tuple(_entry(x) for x in row) for row in rows)
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
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in bt])
                  for row in a])


def matpow(a: IntMatrix, n: int) -> IntMatrix:
    """a**n by squaring from the base, high bit first.

    The top bit takes ``a`` itself, then each lower bit squares and, when
    set, multiplies by ``a``: bit_length(n) + popcount(n) - 2 products
    for n >= 1, none against the identity.
    """
    if n < 0:
        raise DimensionError("negative matrix power; use inverse_unimodular")
    if n == 0:
        return identity(len(a))
    result = tuple(map(tuple, a))
    for bit in bin(n)[3:]:
        result = matmul(result, result)
        if bit == "1":
            result = matmul(result, a)
    return result


def mat_transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def mat_vec(a: IntMatrix, v: Sequence):
    """Matrix times vector; entries may be ints or context reals."""
    if len(a[0]) != len(v):
        raise DimensionError("matrix/vector size mismatch")
    return tuple([sum(map(operator.mul, row, v)) for row in a])


def column_sums(a: IntMatrix) -> tuple:
    return tuple(sum(col) for col in zip(*a))


def norm_col(a: IntMatrix) -> int:
    """max over columns of the column sum of absolute values."""
    return max(sum(abs(x) for x in col) for col in zip(*a))


def _gauss_jordan(rows: list, ncols: int) -> tuple:
    """In-place fraction-free (Bareiss) Gauss-Jordan on integer rows.

    Pivots are sought in the first ``ncols`` columns; every row operation
    spans the whole row, so augmented columns ride along.  Each entry
    stays an integer minor of the input (Sylvester's identity), so every
    ``//`` is exact.  On return each pivot row holds the last pivot on its
    pivot column and zeros on the other pivot columns.  Returns
    (rank, sign of the row permutation, last pivot).
    """
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                   None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[col]
        for i, row in enumerate(rows):
            if i != rank:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return rank, sign, prev


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    d = len(a)
    rank, sign, pivot = _gauss_jordan([list(row) for row in a], d)
    return sign * pivot if rank == d else 0


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse; requires det = +-1."""
    d = len(a)
    aug = [list(row) + list(e) for row, e in zip(a, identity(d))]
    rank, sign, pivot = _gauss_jordan(aug, d)
    dt = sign * pivot if rank == d else 0
    if dt not in (1, -1):
        raise DimensionError(f"matrix is not unimodular (det = {dt})")
    # the right block is pivot * A^-1, and pivot = +-1
    return tuple(tuple(pivot * x for x in row[d:]) for row in aug)


def charpoly(a: IntMatrix) -> tuple:
    """Monic characteristic polynomial, highest degree first.

    Faddeev-LeVerrier in integers: each trace division by k is exact
    for an integer input matrix.
    """
    d = len(a)
    m = identity(d)
    coeffs = [1]
    for k in range(1, d + 1):
        m = matmul(a, m)
        c, r = divmod(-sum(m[i][i] for i in range(d)), k)
        if r:
            raise DimensionError("characteristic polynomial is not integral")
        coeffs.append(c)
        m = tuple(tuple(x + c * (i == j) for j, x in enumerate(row))
                  for i, row in enumerate(m))
    return tuple(coeffs)


def rank_rational(rows) -> int:
    """Exact rank over Q of an integer matrix, square or rectangular."""
    m = [list(map(operator.index, row)) for row in rows]
    return _gauss_jordan(m, len(m[0]))[0] if m else 0


def wielandt_bound(d: int) -> int:
    """Sharp primitivity exponent bound for a d x d non-negative matrix."""
    return (d - 1) * (d - 1) + 1


def positive_power(a: IntMatrix) -> int:
    """Least q >= 1 with a**q strictly positive.

    Raises NotPrimitive if no power up to the Wielandt bound works,
    which for a non-negative matrix certifies non-primitivity.
    """
    d = len(a)
    if any(x < 0 for row in a for x in row):
        raise NotPrimitive("matrix has negative entries")
    limit = wielandt_bound(d)
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
    return freeze(rows)
