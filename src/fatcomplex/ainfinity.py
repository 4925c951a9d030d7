"""Finite free A-infinity superalgebras and their graph partition functions.

An algebra is a free Z/2-graded module with a finite family of
structure maps m_k, and an even, graded-symmetric, nondegenerate scalar
product.  The partition function of an oriented ribbon graph is the
state sum over basis labelings of half-edges: a structure-constant
factor per vertex read clockwise, a dual-pairing factor per edge, and
two permutation signs fixed by the reference ordering of
vertices-and-half-edges.

The sum is computed over labelings of the edges: each vertex factor is
tabulated once over the states of its own half-edges, and each edge's
dual-pairing factor is summed into the table of one of its vertices.
That is exact with odd elements because the scalar product is even, so
its inverse is too: a nonzero dual-pairing factor joins two labels of
one parity, and the Koszul sign of a labeling depends only on which
edge labels are odd.

Every map is held in one format, a digit-coded integer table: the map
times the lcm d of its denominators, as (d, {code: entry}) with no zero
entries, where the code writes the map's basis indices as the digits of
one integer in base rank.  The entry j of m_k(b_{i_1}, ..., b_{i_k}) has
the code j + rank * (i_k + rank * (i_{k-1} + ...)); a matrix entry M[r][c]
has the code c + rank * r.  An m_{n-1} code is thus the code
sum_i x_i * rank^i of the states (x_0, ..., x_{n-1}) of an n-valent
vertex read from its first half-edge, with the output as x_0.  One
linear map, `_move`, changes one digit of a table by a matrix: it turns
m_{n-1} into that vertex's table (the output digit moved by the scalar
product), absorbs the inverse at the vertex's slots, and changes basis.
Each table is integral over a known denominator, so the state sum, the
A-infinity relation check and the cyclic-symmetry check run in
integers, and the sum divides by the product of the denominators once
per graph.  The rational structure maps (`products`) are a view decoded
from the tables on first use.
"""

from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm
from operator import itemgetter, mul

from fatcomplex.coefficients import format_rational, partitions_of
from fatcomplex.graph_complex import eval_w
from fatcomplex.linalg import SingularMatrix, matrix_inverse
from fatcomplex.ribbon import (
    GraphError,
    OrientedRibbonGraph,
    graph_from_key,
    word_parity,
)


class InvalidAlgebra(GraphError):
    pass


class ZeroX0(GraphError):
    pass


def _scaled(entries):
    """(d, d * entries) for a map of {code: rational} entries, with d the
    lcm of their denominators and the zero entries dropped."""
    d = lcm(*(c.denominator for c in entries.values()))
    return d, {code: c.numerator * (d // c.denominator) for code, c in entries.items() if c}


def _matrix(rows, rank):
    """The scaled code table of a rank x rank matrix of rationals."""
    return _scaled({c + rank * r: x for r, row in enumerate(rows) for c, x in enumerate(row)})


def _reduced(d, table):
    """A table exact times d as the (d, d * map) of `_scaled`: d and the
    entries divided by their gcd."""
    g = gcd(d, *table.values())
    return d // g, {code: v // g for code, v in table.items()}


def _digits(code, count, rank):
    """The `count` base-rank digits of `code`, most significant first."""
    digits = [0] * count
    for i in range(count - 1, -1, -1):
        code, digits[i] = divmod(code, rank)
    return tuple(digits)


def _move(table, place, rank, matrix):
    """T'(.., a, ..) = sum_b T(.., b, ..) * M[b][a] at the digit whose
    place value in the code is `place`, for the code table `matrix` of M;
    zero entries are dropped."""
    rows = [[] for _ in range(rank)]
    for code, entry in matrix.items():
        rows[code // rank].append((code % rank, entry))
    out = {}
    for code, value in table.items():
        b = code // place % rank
        rest = code - b * place
        for a, entry in rows[b]:
            new = rest + a * place
            out[new] = out.get(new, 0) + value * entry
    return {code: value for code, value in out.items() if value}


class AInfinityAlgebra:
    """Structure constants on basis tuples plus an even scalar product.

    The algebra is held as `_scaled`: the scaled code tables of its
    scalar product g, of the transpose of g's inverse (its rows are the
    inverse's columns, as absorption reads them) and of each m_k, the
    last as {k: (d, table)}.  `pairing` is g as rows of `Fraction`s, and
    `products[k][(i_1, ..., i_k)]` the output of m_k on those basis
    elements as a sparse {index: Fraction} map; absent arities are zero
    maps.  Strict validation enforces m_1 = 0, parity homogeneity of
    each m_k, and the scalar-product axioms; `strict=False` keeps only
    the scalar-product axioms, for deliberately broken examples.
    """

    def __init__(self, parities, pairing, products, strict=True):
        self.parities = tuple(int(p) % 2 for p in parities)
        self.rank = n = len(self.parities)
        self.pairing = tuple(tuple(Fraction(x) for x in row) for row in pairing)
        scaled = {}
        for k, table in products.items():
            k = int(k)
            entries = {}
            for args, out in table.items():
                args = tuple(int(a) for a in args)
                if len(args) != k:
                    raise InvalidAlgebra("arity mismatch in structure table")
                out = {int(j): Fraction(c) for j, c in out.items()}
                if not all(0 <= i < n for i in args + tuple(out)):
                    raise InvalidAlgebra("basis index out of range in structure table")
                rest = 0
                for i in args:
                    rest = rest * n + i
                entries.update((j + n * rest, c) for j, c in out.items())
            d, entries = _scaled(entries)
            if entries:
                scaled[k] = d, entries
        self._validate_pairing()
        try:
            inverse = matrix_inverse([list(r) for r in self.pairing])
        except SingularMatrix:
            raise InvalidAlgebra("scalar product is degenerate")
        self._set(_matrix(self.pairing, n), _matrix(zip(*inverse), n), scaled, strict)

    def _set(self, pairing, inverse, scaled, strict):
        """If `strict`, check the structure, then keep the scaled tables."""
        if strict:
            self._validate_structure(scaled)
        self._scaled = pairing, inverse, scaled
        self._products = None
        # the vertex tables of the state sum, by (valence, absorbed slots)
        self._tables = {}

    @property
    def products(self):
        """The m_k as {k: {args: {index: Fraction}}}, decoded from
        `_scaled` on first access; editing it does not change the algebra."""
        if self._products is None:
            n = self.rank
            self._products = {}
            for k, (d, table) in self._scaled[2].items():
                maps = self._products[k] = {}
                for code, c in table.items():
                    code, j = divmod(code, n)
                    maps.setdefault(_digits(code, k, n), {})[j] = Fraction(c, d)
        return self._products

    def _validate_pairing(self):
        n = self.rank
        if len(self.pairing) != n or any(len(r) != n for r in self.pairing):
            raise InvalidAlgebra("scalar product must be a rank x rank matrix")
        for i in range(n):
            for j in range(n):
                if (self.parities[i] + self.parities[j]) % 2 == 1:
                    if self.pairing[i][j]:
                        raise InvalidAlgebra("scalar product must be even")
                sym = (-1) ** self.parities[i] * self.pairing[j][i]
                if self.pairing[i][j] != sym:
                    raise InvalidAlgebra("scalar product must be graded symmetric")

    def _validate_structure(self, scaled):
        if 1 in scaled:
            raise InvalidAlgebra("m_1 must vanish")
        for k, (_, table) in scaled.items():
            for code in table:
                # the output's parity is k plus the arguments' parities
                odd = k + sum(self.parities[x] for x in _digits(code, k + 1, self.rank))
                if odd % 2:
                    raise InvalidAlgebra(
                        "m_%d is not homogeneous of degree %d mod 2" % (k, k))

    def cyclicity_failures(self):
        """Basis tuples (x_0, ..., x_k) violating the cyclic-symmetry axiom
        <m_k(x_1, ..., x_k), x_0> = +-<m_k(x_0, ..., x_{k-1}), x_k>.  Both
        sides are entries of the unabsorbed table of a (k+1)-valent vertex,
        exact times dm_k * dg: the right side at the code whose digits,
        most significant first, are the tuple, the left side at that code
        with its top digit moved to the bottom."""
        n, bad = self.rank, []
        for k in sorted(self._scaled[2]):
            table, top = self._vertex_table(k + 1, ()), n ** k
            for code in range(n * top):
                x0 = code // top
                sign = -1 if (k + (k + 1) * self.parities[x0]) % 2 else 1
                if table.get(x0 + n * (code % top), 0) != sign * table.get(code, 0):
                    bad.append((k, _digits(code, k + 1, n)))
        return bad

    def _vertex_table(self, valence, absorbed):
        """The table of a `valence`-valent vertex, m_{valence-1} with its
        output digit moved by the scalar product and the inverse absorbed
        at the slots `absorbed`, built on first use.  Only these tables
        are kept, not the partial absorptions on the way to them, which
        would more than double the entries held."""
        key = (valence, absorbed)
        table = self._tables.get(key)
        if table is None:
            (_, pairing), (_, inverse), products = self._scaled
            if absorbed:
                table = self._vertex_table(valence, ())
                for slot in absorbed:
                    table = _move(table, self.rank ** slot, self.rank, inverse)
            else:
                table = _move(products.get(valence - 1, (1, {}))[1], 1, self.rank, pairing)
            self._tables[key] = table
        return table

    def change_basis(self, matrix):
        """Conjugate everything by an invertible parity-preserving rank x
        rank matrix P whose columns are the new basis vectors in the old
        one.

        It runs on the code tables, in integers: with dp and dq the lcms
        of the denominators of P and of its inverse, each argument digit
        of the scaled m_k and both digits of the scalar product move by
        dp * P, and the output digit and both digits of the inverse's
        table by dq * P^-1 (by the code table of its transpose, as `_move`
        reads a matrix).  So m_k comes out exact times d_k * dp^k * dq, and
        dividing that and the entries by their gcd gives the
        constructor's (d, d * m_k)."""
        n = self.rank
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InvalidAlgebra("basis change must be a rank x rank matrix")
        p = [[Fraction(x) for x in row] for row in matrix]
        try:
            pinv = matrix_inverse(p)
        except SingularMatrix:
            raise InvalidAlgebra("basis change must be invertible")
        new_parities = []
        for j in range(n):
            pars = {self.parities[i] for i in range(n) if p[i][j]}
            if len(pars) > 1:
                raise InvalidAlgebra("basis change must preserve parity")
            new_parities.append(pars.pop())
        dp, forward = _matrix(p, n)
        dq, backward = _matrix(zip(*pinv), n)
        (dg, pairing), (dgi, inverse), products = self._scaled
        dg, pairing = _reduced(dg * dp * dp, _move(_move(pairing, 1, n, forward), n, n, forward))
        inverse = _reduced(dgi * dq * dq, _move(_move(inverse, 1, n, backward), n, n, backward))
        scaled = {}
        for k, (d, table) in products.items():
            for slot in range(1, k + 1):
                table = _move(table, n ** slot, n, forward)
            table = _move(table, 1, n, backward)
            if table:
                scaled[k] = _reduced(d * dp ** k * dq, table)
        changed = AInfinityAlgebra.__new__(AInfinityAlgebra)
        changed.parities = tuple(new_parities)
        changed.rank = n
        changed.pairing = tuple(tuple(Fraction(pairing.get(c + n * r, 0), dg) for c in range(n))
                                for r in range(n))
        changed._set((dg, pairing), inverse, scaled, True)
        return changed

    def to_json(self):
        return {
            "parities": list(self.parities),
            "pairing": [[format_rational(x) for x in row] for row in self.pairing],
            "m": [{"k": k, "in": list(args),
                   "out": {str(j): format_rational(c) for j, c in sorted(vec.items())}}
                  for k in sorted(self.products)
                  for args, vec in sorted(self.products[k].items())],
        }


def one_dimensional_algebra(x, max_arity):
    """The rank-one even algebra with m_2k = multiplication by x[k-1]."""
    products = {}
    for k in range(2, max_arity + 1, 2):
        coeff = Fraction(x[k // 2 - 1]) if k // 2 - 1 < len(x) else Fraction(0)
        if coeff:
            products[k] = {(0,) * k: {0: coeff}}
    return AInfinityAlgebra([0], [[Fraction(1)]], products)


def verify_ainfinity(algebra, max_arity):
    """Check every A-infinity relation instance on basis tuples up to the
    given total arity; returns the offending (arity, tuple) pairs.

    A term m_o(.., m_s(..), ..) of total arity k, o = k - s + 1, is exact
    times d_s * d_o for the scaled m_s and m_o, so each is weighted by
    lcm(d_s * d_o) / (d_s * d_o), the lcm over the arities present, and
    the terms are summed as integers.  The tuples are walked in code
    order, the code of a tuple having its entries as base-rank digits,
    most significant first, and each term reads the argument codes of
    m_s and m_o off it.  A total arity with no such pair of arities has
    no terms, and its tuples are not visited."""
    n, products, parities = algebra.rank, algebra._scaled[2], algebra.parities
    failures = []
    for k in range(1, max_arity + 1):
        pairs = [(s, products[s], products[k - s + 1]) for s in range(1, k + 1)
                 if s in products and k - s + 1 in products]
        if not pairs:
            continue
        scale = lcm(*(ds * do for _, (ds, _), (do, _) in pairs))
        # m_s reads the digits r+1 .. r+s of the tuple, below them t = k-r-s
        terms = [(n ** (k - s - r), n ** s, r, s, (r + s * (k - s - r)) % 2,
                  scale // (ds * do), inner, outer)
                 for s, (ds, inner), (do, outer) in pairs for r in range(k - s + 1)]
        for code in range(n ** k):
            args = _digits(code, k, n)
            odd = [0]
            for a in args:
                odd.append(odd[-1] + parities[a])
            total = [0] * n
            for low, width, r, s, u, weight, inner, outer in terms:
                head, middle = divmod(code // low, width)
                tail = code % low
                if (u + s * odd[r]) % 2:
                    weight = -weight
                for mid in range(n):
                    c_mid = inner.get(mid + n * middle)
                    if c_mid:
                        base = n * ((head * n + mid) * low + tail)
                        for j in range(n):
                            c = outer.get(base + j)
                            if c:
                                total[j] += weight * c_mid * c
            if any(total):
                failures.append((k, args))
    return failures


def contraction_identity_holds(algebra):
    """sum_{i,a} <x, b_i><y, b_a> ginv[a][i] == <x, y> on all basis pairs,
    read off the scaled tables: with G the scalar product's table and C
    the inverse's, C[i][a] = dgi * ginv[a][i], it is
    sum_{i,a} G[x][i] G[y][a] C[i][a] == dg * dgi * G[x][y]."""
    (dg, g), (dgi, c), _ = algebra._scaled
    n = algebra.rank
    basis = range(n)
    return all(sum(g.get(i + n * x, 0) * g.get(a + n * y, 0) * c.get(a + n * i, 0)
                   for i in basis for a in basis) == dg * dgi * g.get(y + n * x, 0)
               for x in basis for y in basis)


# ---------------------------------------------------------------------------
# the partition function
# ---------------------------------------------------------------------------

def partition_function(algebra, og):
    """State sum over basis labelings of the half-edges of <Gamma>, read
    from the reference choices: the vertices in order of their least
    half-edge, each read from that half-edge.  The result does not depend
    on that choice: relabelling the graph and transporting the
    orientation gives the same value.

    The sum runs over labelings of the edges, not of the half-edges.
    Each vertex factor is tabulated once over the states of its own
    half-edges, and for each edge (h, hbar) with h < hbar the factor
    ginv[s_h][s_hbar] is summed into the table of hbar's vertex over
    s_hbar, leaving s_h as the edge's label.  This is exact with odd
    elements: the scalar product is even, so its inverse is too, and a
    nonzero ginv[a][b] has parity(a) == parity(b).  The Koszul sign of a
    state therefore depends only on which edge labels are odd.

    The tables hold integers: with g, ginv and m_k scaled by the lcms dg,
    dgi and dm_k of their denominators, the table of an n-valent vertex
    with `a` absorbed slots is exact times dm_{n-1} * dg * dgi^a.  The
    integer sum is divided by the product of those over the vertices,
    dg^V * dgi^E * prod dm_{n-1}, once.
    """
    if not isinstance(algebra, AInfinityAlgebra):
        raise InvalidAlgebra("need an AInfinityAlgebra")
    g = og.graph

    # the global clockwise-labelled sequence e_11 .. e_1n e_10 e_21 ..
    sequence = []
    for c in g.vertices:
        sequence.extend(reversed(c[1:]))
        sequence.append(c[0])

    edges = [(min(a, b), max(a, b)) for a, b in g.edges()]
    edge_of = {h: e for e, edge in enumerate(edges) for h in edge}
    hbars = {hbar for _, hbar in edges}
    (dg, _), (dgi, _), products = algebra._scaled

    tables = []
    denominator = dgi ** len(edges)
    rank = algebra.rank
    for c in g.vertices:
        absorbed = tuple(i for i, h in enumerate(c) if h in hbars)
        table = algebra._vertex_table(len(c), absorbed)
        if not table:
            return Fraction(0)
        # a vertex's key is the code of its states, read at its edges
        tables.append((itemgetter(*(edge_of[h] for h in c)),
                       tuple(rank ** i for i in range(len(c))), table))
        denominator *= products.get(len(c) - 1, (1, {}))[0] * dg

    parities = algebra.parities
    eps2 = {}
    total = 0
    for labels in product(range(rank), repeat=len(edges)):
        # read in the reference order, the orientation word is the
        # reference word, so the orientation contributes og.sign
        term = og.sign
        for states, weights, table in tables:
            factor = table.get(sum(map(mul, states(labels), weights)))
            if factor is None:
                break
            term *= factor
        else:
            odd = tuple(e for e, s in enumerate(labels) if parities[s])
            if odd:
                if odd not in eps2:
                    odd_in_sequence = [h for h in sequence if edge_of[h] in odd]
                    paired_order = [h for e in odd for h in edges[e]]
                    eps2[odd] = word_parity(odd_in_sequence, paired_order)
                term *= eps2[odd]
            total += term
    return Fraction(total, denominator)


def partition_function_chain(algebra, chain):
    total = Fraction(0)
    for key, coeff in chain.items():
        og = OrientedRibbonGraph(graph_from_key(key), 1)
        total += coeff * partition_function(algebra, og)
    return total


def z_x(x, og):
    """The rank-one partition function: o(Gamma) times the product of
    x_{(valence-3)/2} over the vertices; zero on even-valent graphs."""
    g = og.graph
    if any(len(c) % 2 == 0 for c in g.vertices):
        return Fraction(0)
    value = Fraction(og.sign)
    for c in g.vertices:
        i = (len(c) - 3) // 2
        value *= Fraction(x[i]) if i < len(x) else Fraction(0)
    return value


def z_x_chain(x, chain):
    total = Fraction(0)
    for key, coeff in chain.items():
        total += coeff * z_x(x, OrientedRibbonGraph(graph_from_key(key), 1))
    return total


def zx_expansion_check(x, corpus):
    """Check Z_x == x_0^(-2 chi) sum_lambda y^lambda W_lambda* class by
    class of the corpus; both sides are computed independently.  The
    chain of a class is its key with coefficient 1, or 0 if the class
    is zero."""
    x = [Fraction(v) for v in x]
    if not x or x[0] == 0:
        raise ZeroX0("the expansion needs x_0 nonzero")
    report = []
    for key in corpus.keys:
        chain = {key: 1} if corpus.is_nonzero(key) else {}
        lhs = z_x_chain(x, chain)
        chi = graph_from_key(key).euler_characteristic
        rhs = Fraction(0)
        for lam in (lam for w in range(-chi + 1) for lam in partitions_of(w)):
            r0 = -2 * chi - sum(2 * p + 1 for p in lam)
            if r0 < 0:
                continue
            y = x[0] ** r0
            ok = True
            for p in lam:
                if p < len(x):
                    y *= x[p]
                else:
                    ok = False
                    break
            if not ok:
                continue
            value = eval_w(lam, chain)
            if value:
                rhs += y * value
        report.append((key, lhs, rhs))
    return report


def check_partition_cocycle(algebras, corpus):
    """Z_A on the boundary of every class of codimension >= 1 in the
    corpus, for each algebra A in `algebras`: one report of (key, value)
    in key order per algebra, all from the corpus's boundary columns.
    Z_A is a cocycle when every value is zero."""
    keys = [g.literal() for g in corpus.graphs() if g.codimension >= 1]
    columns = corpus.evaluate(
        [partial(_partition_function_key, algebra) for algebra in algebras], keys)
    return [list(zip(keys, values)) for values in columns]


def _partition_function_key(algebra, key):
    return partition_function(algebra, OrientedRibbonGraph(graph_from_key(key), 1))
