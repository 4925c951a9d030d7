"""Small exact linear algebra over the rationals."""

from fractions import Fraction


class SingularMatrix(ValueError):
    pass


def matrix_inverse(rows):
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    m = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    if any(len(row) != 2 * n for row in m):
        raise ValueError("matrix is not square")
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def matrix_multiply(a, b):
    if not a or not b:
        return []
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]
