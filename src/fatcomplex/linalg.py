"""Small exact linear algebra: dense rational matrices as lists of rows,
and sparse integer matrices as {(row, col): value}."""

import math
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


def sparse_rank(entries):
    """Rank over Q of a sparse integer matrix {(row, col): value}, by
    fraction-free row elimination.

    When a row meets the pivot row p at its leading column c, it becomes
    a*row - b*p with a, b = p[c], row[c] divided by their gcd, and is then
    divided by the gcd of its entries.  Both steps are invertible row
    operations over Q (a and the content are nonzero), so the rank is
    unchanged.  The first clears column c (a*row[c] - b*p[c] = 0), so the
    leading column grows and each row ends as a new pivot or as zero; a
    variant that does not clear c loops forever.
    """
    rows = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
    # pivots[c]: a reduced row with leading column c
    pivots = {}
    for r in sorted(rows):
        row = rows[r]
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            g = math.gcd(pivot[c], row[c])
            a, b = pivot[c] // g, row[c] // g
            row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                x = row.get(k, 0) - b * v
                if x:
                    row[k] = x
                else:
                    row.pop(k)
            content = math.gcd(*row.values())
            if content > 1:
                row = {k: v // content for k, v in row.items()}
    return len(pivots)
