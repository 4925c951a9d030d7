"""Finite free A-infinity superalgebras and their graph partition functions.

An algebra is a free Z/2-graded module with a finite family of
structure maps m_k (stored sparsely on basis tuples), and an even,
graded-symmetric, nondegenerate scalar product.  The partition function
of an oriented ribbon graph is the state sum over basis labelings of
half-edges: a structure-constant factor per vertex read clockwise, a
dual-pairing factor per edge, and two permutation signs fixed by the
reference ordering of vertices-and-half-edges.

The sum is computed over labelings of the edges: each vertex factor is
tabulated once over the states of its own half-edges, and each edge's
dual-pairing factor is summed into the table of one of its vertices.
That is exact with odd elements because the scalar product is even, so
its inverse is too: a nonzero dual-pairing factor joins two labels of
one parity, and the Koszul sign of a labeling depends only on which
edge labels are odd.  The sum runs in integers: an algebra is held as
one representation, its scalar product, the inverse and each m_k scaled
by the lcm of their own denominators, so each table is integral over a
known denominator, and the sum divides by the product of those once per
graph.  The rational structure maps (`products`) are a view derived from
it on first use.  An algebra builds each vertex table once, for a
valence and a set of absorbed slots, from the valence's unabsorbed
table, and keys it by the mixed-radix code of its states.  The
A-infinity relation and cyclic-symmetry checks also read the scaled
tables, and compare integers, and a basis change moves the scaled m_k
by the integer-scaled matrix and its inverse.
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


def _scaled(rows):
    """(d, d * rows) for a map of sparse {index: Fraction} rows, with d
    the lcm of the denominators of their entries; d * rows is integral."""
    d = lcm(*(c.denominator for row in rows.values() for c in row.values()))
    return d, {key: {j: c.numerator * (d // c.denominator) for j, c in row.items()}
               for key, row in rows.items()}


class AInfinityAlgebra:
    """Structure constants on basis tuples plus an even scalar product.

    The algebra is held as `_scaled`: its scalar product's rows, the
    inverse's columns and each m_k, as (d, d * data) with d the lcm of
    the data's denominators, m_k as `{(i_1, ..., i_k): {index: int}}`
    with no zero entries.  `products[k][(i_1, ..., i_k)]` is the output
    of m_k on those basis elements as a sparse {index: Fraction} map,
    derived from `_scaled` on first access; absent arities are zero
    maps.  Strict validation enforces m_1 = 0, parity homogeneity of
    each m_k, and the scalar-product axioms; `strict=False` keeps only
    the scalar-product axioms, for deliberately broken examples.
    """

    def __init__(self, parities, pairing, products, strict=True):
        self.parities = tuple(int(p) % 2 for p in parities)
        self.rank = len(self.parities)
        self.pairing = tuple(tuple(Fraction(x) for x in row) for row in pairing)
        scaled = {}
        for k, table in products.items():
            k = int(k)
            clean = {}
            for args, out in table.items():
                args = tuple(int(a) for a in args)
                if len(args) != k:
                    raise InvalidAlgebra("arity mismatch in structure table")
                out = {int(j): Fraction(c) for j, c in out.items()}
                if not all(0 <= i < self.rank for i in args + tuple(out)):
                    raise InvalidAlgebra("basis index out of range in structure table")
                vec = {j: c for j, c in out.items() if c}
                if vec:
                    clean[args] = vec
            if clean:
                scaled[k] = _scaled(clean)
        self._build(scaled, strict)

    def _build(self, scaled, strict):
        """Check the scalar product and, if `strict`, the structure, then
        keep the scaled tables: `scaled` is {k: (d, d * m_k)}."""
        self._validate_pairing()
        try:
            self.pairing_inverse = matrix_inverse([list(r) for r in self.pairing])
        except SingularMatrix:
            raise InvalidAlgebra("scalar product is degenerate")
        if strict:
            self._validate_structure(scaled)
        self._scaled = (
            _scaled({i: dict(enumerate(row)) for i, row in enumerate(self.pairing)}),
            _scaled({b: {a: row[b] for a, row in enumerate(self.pairing_inverse) if row[b]}
                     for b in range(self.rank)}),
            scaled)
        self._products = None
        # the vertex tables of the state sum, by (valence, absorbed slots)
        self._tables = {}

    @property
    def products(self):
        """The m_k as {k: {args: {index: Fraction}}}, derived from
        `_scaled` on first access; editing it does not change the algebra."""
        if self._products is None:
            self._products = {
                k: {args: {j: Fraction(c, d) for j, c in vec.items()}
                    for args, vec in table.items()}
                for k, (d, table) in self._scaled[2].items()}
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
            for args, vec in table.items():
                want = (k + sum(self.parities[a] for a in args)) % 2
                for j in vec:
                    if self.parities[j] != want:
                        raise InvalidAlgebra(
                            "m_%d is not homogeneous of degree %d mod 2" % (k, k))

    def cyclicity_failures(self):
        """Basis tuples violating the cyclic-symmetry axiom.  Both sides
        of an instance are exact times dm_k * dg, so their scaled values
        are compared."""
        bad = []
        (_, pairing), _, products = self._scaled
        for k, (_, table) in sorted(products.items()):
            for args in product(range(self.rank), repeat=k + 1):
                x0, rest = args[0], args[1:]
                lhs = sum(c * pairing[j][x0] for j, c in table.get(rest, {}).items())
                rhs = sum(c * pairing[j][args[-1]]
                          for j, c in table.get(args[:-1], {}).items())
                sign = (-1) ** (k + self.parities[x0] + k * self.parities[x0])
                if lhs != sign * rhs:
                    bad.append((k, args))
        return bad

    def _vertex_table(self, valence, absorbed):
        """The table of a `valence`-valent vertex with the pairing's
        inverse absorbed at the slots `absorbed`, built on first use from
        the valence's unabsorbed table.  Only these tables are kept, not
        the partial absorptions on the way to them, which would more than
        double the entries held."""
        key = (valence, absorbed)
        table = self._tables.get(key)
        if table is None:
            if absorbed:
                columns = self._scaled[1][1]
                table = self._vertex_table(valence, ())
                for slot in absorbed:
                    table = _absorb(table, self.rank ** slot, self.rank, columns)
            else:
                (_, pairing), _, products = self._scaled
                table = _vertex_factors(products.get(valence - 1, (1, {}))[1], pairing,
                                        self.rank)
            self._tables[key] = table
        return table

    def change_basis(self, matrix):
        """Conjugate everything by an invertible parity-preserving matrix
        whose columns are the new basis vectors in the old one.

        It runs on the scaled tables, in integers: with dp and dq the
        lcms of the denominators of the matrix P and of its inverse, each
        argument slot of the scaled m_k moves by dp * P and the outputs
        by dq * P^-1, so the result is exact times d_k * dp^k * dq, and
        dividing that and the entries by their gcd gives the constructor's
        (d, d * m_k)."""
        p = [[Fraction(x) for x in row] for row in matrix]
        n = self.rank
        pinv = matrix_inverse(p)
        new_parities = []
        for j in range(n):
            pars = {self.parities[i] for i in range(n) if p[i][j]}
            if len(pars) > 1:
                raise InvalidAlgebra("basis change must preserve parity")
            new_parities.append(pars.pop())
        dp, p = _scaled({i: dict(enumerate(row)) for i, row in enumerate(p)})
        dq, pinv = _scaled({j: dict(enumerate(row)) for j, row in enumerate(pinv)})
        dg, pairing = self._scaled[0]
        changed = AInfinityAlgebra.__new__(AInfinityAlgebra)
        changed.parities = tuple(new_parities)
        changed.rank = n
        changed.pairing = tuple(
            tuple(Fraction(sum(p[i][a] * p[j][b] * pairing[i][j]
                               for i in range(n) for j in range(n)), dp * dp * dg)
                  for b in range(n)) for a in range(n))
        p_rows = [[(a, c) for a, c in p[i].items() if c] for i in range(n)]
        scaled = {}
        for k, (d, table) in self._scaled[2].items():
            # m(P e_a1, ..., P e_ak), moving one argument slot at a time
            for slot in range(k):
                moved = {}
                for args, vec in table.items():
                    for a, c in p_rows[args[slot]]:
                        out = moved.setdefault(args[:slot] + (a,) + args[slot + 1:], {})
                        for j, v in vec.items():
                            out[j] = out.get(j, 0) + c * v
                table = {args: {j: v for j, v in vec.items() if v}
                         for args, vec in moved.items()}
            # then the outputs in the new basis, dropping zeros
            new = {}
            for args, vec in sorted(table.items()):
                out = {j: v for j, v in ((j, sum(row[i] * c for i, c in vec.items()))
                                         for j, row in pinv.items()) if v}
                if out:
                    new[args] = out
            if new:
                d *= dp ** k * dq
                g = gcd(d, *(v for vec in new.values() for v in vec.values()))
                scaled[k] = d // g, {args: {j: v // g for j, v in vec.items()}
                                     for args, vec in new.items()}
        changed._build(scaled, True)
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

    @classmethod
    def from_json(cls, data, strict=True):
        products = {}
        for entry in data.get("m", []):
            k = int(entry["k"])
            args = tuple(int(a) for a in entry["in"])
            out = {int(j): Fraction(c) for j, c in entry["out"].items()}
            products.setdefault(k, {})[args] = out
        return cls(data["parities"], data["pairing"], products, strict=strict)


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
    the terms are summed as integers.  A total arity with no such pair
    of arities has no terms, and its tuples are not visited."""
    products = algebra._scaled[2]
    parities = algebra.parities
    failures = []
    for k in range(1, max_arity + 1):
        pairs = [(s, products[s], products[k - s + 1]) for s in range(1, k + 1)
                 if s in products and k - s + 1 in products]
        if not pairs:
            continue
        scale = lcm(*(ds * do for _, (ds, _), (do, _) in pairs))
        terms = [(r, s, (r + s * (k - s - r)) % 2, scale // (ds * do), inner, outer)
                 for s, (ds, inner), (do, outer) in pairs for r in range(k - s + 1)]
        for args in product(range(algebra.rank), repeat=k):
            odd = [0]
            for a in args:
                odd.append(odd[-1] + parities[a])
            total = {}
            for r, s, u, weight, inner, outer in terms:
                vec = inner.get(args[r:r + s])
                if vec is None:
                    continue
                if (u + s * odd[r]) % 2:
                    weight = -weight
                head, tail = args[:r], args[r + s:]
                for mid, c_mid in vec.items():
                    out = outer.get(head + (mid,) + tail)
                    if out is not None:
                        c_mid *= weight
                        for j, c in out.items():
                            total[j] = total.get(j, 0) + c_mid * c
            if any(total.values()):
                failures.append((k, args))
    return failures


def contraction_identity_holds(algebra):
    """sum_i <x, b_i><y, D b_i*> == <x, y> on all basis pairs, where D
    takes the i-th dual basis functional to sum_a ginv[a][i] b_a."""
    g, ginv, n = algebra.pairing, algebra.pairing_inverse, range(algebra.rank)
    return all(sum(g[x][i] * g[y][a] * ginv[a][i] for i in n for a in n) == g[x][y]
               for x in n for y in n)


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


def _vertex_factors(structure, pairing, rank):
    """The nonzero vertex factors sum_j m(x_{n-1}, ..., x_1)_j <b_j, x_0>
    of a cycle of n half-edges, keyed by the code sum_i x_i * rank^i of
    the states (x_0, x_1, ..., x_{n-1}) of the cycle read from its first
    half-edge, from the scaled m_{n-1} and pairing rows: the factors
    times dm_{n-1} * dg."""
    table = {}
    for args, out in structure.items():
        rest = 0
        for x in args:
            rest = rest * rank + x
        for x0 in pairing:
            factor = sum(c * pairing[j][x0] for j, c in out.items())
            if factor:
                table[x0 + rest * rank] = factor
    return table


def _absorb(table, place, rank, columns):
    """T'(.., a, ..) = sum_b T(.., b, ..) ginv[a][b] at the slot whose
    place value in the code is `place`, with `columns[b]` the nonzero
    {a: ginv[a][b]}, scaled by dgi."""
    out = {}
    for code, value in table.items():
        b = code // place % rank
        rest = code - b * place
        for a, entry in columns[b].items():
            new = rest + a * place
            out[new] = out.get(new, 0) + value * entry
    return {code: value for code, value in out.items() if value}


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
