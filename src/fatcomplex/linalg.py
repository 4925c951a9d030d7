"""Small exact linear algebra: dense rational matrices as lists of rows,
and sparse integer matrices as {(row, col): value}."""

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


RANK_MODULUS = 2 ** 61 - 1


def sparse_product(a, b):
    """Product of sparse integer matrices given as {(row, col): value}."""
    by_row = {}
    for (t, j), v in b.items():
        by_row.setdefault(t, []).append((j, v))
    out = {}
    for (i, t), u in a.items():
        for j, v in by_row.get(t, ()):
            out[(i, j)] = out.get((i, j), 0) + u * v
    return out


def sparse_rank(entries, modulus=None):
    """Rank of a sparse integer matrix {(row, col): value} by row
    elimination, modulo the prime `modulus`, or over Q when it is None."""
    if modulus is None:
        reduce, inverse = Fraction, (lambda x: 1 / x)
    else:
        reduce, inverse = (lambda x: x % modulus), (lambda x: pow(x, -1, modulus))
    rows = {}
    for (r, c), v in entries.items():
        v = reduce(v)
        if v:
            rows.setdefault(r, {})[c] = v
    # pivots[c]: a reduced row with leading column c and leading entry 1
    pivots = {}
    for r in sorted(rows):
        row = rows[r]
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = inverse(row[c])
                pivots[c] = {k: reduce(v * inv) for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                x = reduce(row.get(k, 0) - f * v)
                if x:
                    row[k] = x
                else:
                    row.pop(k)
    return len(pivots)
