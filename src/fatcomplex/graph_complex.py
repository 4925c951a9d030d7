"""The associative graph complex: boundary operators on oriented ribbon
graph classes, vertex-pattern cocycles, the class corpus, and the
forest complex over a base graph.

Chains are finitely supported maps from canonical oriented-class keys
to exact rationals.  A key names the isomorphism class with its
orientation normalized to +1 on the canonical representative; classes
admitting an orientation-reversing automorphism are identically zero
and never stored.

Every boundary comes from one row core, `_rows`, on classes or, for the
forest complex, on objects over a base.  It keys each single-vertex
expansion from its position tables, with no graph built per term, and
tells rows apart by walk code: a row's key is built at most once, when
first hit by `boundary_matrix` and the corpus, and by `d_chain` and
`d_integral` only for the rows whose sum is nonzero.  The classes of
each half-edge count are grown once per process, keying one one-vertex
map per class, and kept as keys and nonzero flags.  A `ClassCorpus`
takes the levels within its bound from there and keeps the boundary
column of each class, so the checks that share a corpus build each
column once.  The forest complex keeps only its matrices.  Its d.d
check is an exact sparse product, and its acyclicity check compares
exact integer ranks (`linalg.sparse_rank`).
"""

import math
from fractions import Fraction
from functools import partial

from fatcomplex.coefficients import normalize_partition
from fatcomplex.linalg import sparse_product, sparse_rank
from fatcomplex.ribbon import (
    GraphError,
    OrientedRibbonGraph,
    canonical_oriented,
    graph_from_key,
    key_over,
    oriented_key,
    vertex_expansions,
)
from fatcomplex.trees import face_count


class GraphChain:
    """Finitely supported rational combination of oriented classes."""

    __slots__ = ("grading", "terms")

    def __init__(self, grading=None):
        self.grading = grading
        self.terms = {}

    def items(self):
        return sorted(self.terms.items())

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GraphChain) and self.terms == other.terms)

    def __repr__(self):
        return "GraphChain(%d terms, grading=%r)" % (len(self.terms), self.grading)


def _rows(columns, canon, first):
    """The boundary on the oriented graphs `columns`: one term per
    single-vertex expansion of each column, taken as given and keyed from
    its position tables (`ribbon.vertex_expansions`, no graph built) by
    `canon(vertices, succ, mate, sign)` -> (code, sign, literal).  Rows
    are told apart by code, sign None marks a zero class, and `literal()`
    builds the row's key.  Returns `first(sign, literal)` at the first
    hit of each row, in order of first hit, and {(row, col): value} over
    their indices, zero values included."""
    found = {}
    rows = []
    entries = {}
    for col, og in enumerate(columns):
        for tables in vertex_expansions(og):
            code, sign, literal = canon(*tables)
            row = found.setdefault(code, len(rows))
            if row == len(rows):
                rows.append(first(sign, literal))
            if sign is not None:
                entries[row, col] = entries.get((row, col), 0) + sign
    return rows, entries


def boundary_matrix(columns, canon=oriented_key):
    """The boundary on `columns` by `_rows`, with each row's key built at
    its first hit, as (rows, matrix): the sorted keys of every class hit,
    zero classes included, and {(row, col): value} over their positions,
    without zero entries; a zero class has no entries."""
    found, entries = _rows(columns, canon, lambda sign, literal: literal())
    rows = sorted(found)
    position = {key: r for r, key in enumerate(rows)}
    return rows, {(position[found[r]], c): v for (r, c), v in entries.items() if v}


def d_integral(og):
    """Boundary of <Gamma> in the integral subcomplex: `d_chain` of
    <Gamma>, the key of Gamma with its sign, or of zero for a zero class."""
    key, sign = canonical_oriented(og)
    chain = GraphChain(grading=og.graph.codimension)
    chain.terms = {} if sign is None else {key: Fraction(sign)}
    return d_chain(chain)


def d_chain(chain):
    """The boundary of a chain, summed in integers by row code: the
    coefficients are scaled by the lcm D of their denominators, and each
    nonzero term is divided by D once.  Only the keys of the nonzero
    terms are built."""
    out = GraphChain(grading=None if chain.grading is None else chain.grading - 1)
    terms = chain.items()
    scale = math.lcm(*(coeff.denominator for _, coeff in terms))
    scaled = [coeff.numerator * (scale // coeff.denominator) for _, coeff in terms]
    literals, entries = _rows([OrientedRibbonGraph(graph_from_key(key), 1) for key, _ in terms],
                              oriented_key, lambda sign, literal: literal)
    sums = [0] * len(literals)
    for (r, c), v in entries.items():
        sums[r] += scaled[c] * v
    out.terms = dict(sorted((literals[r](), Fraction(v, scale)) for r, v in enumerate(sums) if v))
    return out


# ---------------------------------------------------------------------------
# vertex-pattern cocycles
# ---------------------------------------------------------------------------

def _pattern_of(cycles):
    """(positive pattern, #trivalent) of odd-valent vertex cycles, else None."""
    if any(len(c) % 2 == 0 for c in cycles):
        return None
    positive = sorted(((len(c) - 3) // 2 for c in cycles if len(c) > 3), reverse=True)
    trivalent = sum(1 for c in cycles if len(c) == 3)
    return tuple(positive), trivalent


def eval_w_key(lam, key):
    """Value of the dual pattern cocycle on one canonical generator."""
    lam = normalize_partition(lam, allow_zero=True)
    zeros = sum(1 for p in lam if p == 0)
    positive = tuple(p for p in lam if p > 0)
    pat = _pattern_of(key[0])
    if pat is None or pat[0] != positive:
        return Fraction(0)
    # canonical keys carry the natural orientation, so o = +1
    return Fraction(math.comb(pat[1], zeros))


def eval_w(lam, chain):
    total = Fraction(0)
    for key, coeff in chain.items():
        total += coeff * eval_w_key(lam, key)
    return total


def check_pattern_cocycle(lam, corpus):
    """The pattern cocycle on the boundary of every nonzero class of
    codimension 2|lam|+1 in the corpus, as a list of (key, value) in key
    order; the cocycle kills boundaries when every value is zero."""
    lam = normalize_partition(lam, allow_zero=True)
    codimension = 2 * sum(lam) + 1
    keys = [key for key in corpus.keys
            if sum(len(c) - 3 for c in key[0]) == codimension and corpus.is_nonzero(key)]
    [values] = corpus.evaluate([lambda key: eval_w_key(lam, key)], keys)
    return list(zip(keys, values))


def verify_cocycle(lam, max_half_edges):
    """`check_pattern_cocycle` on the classes within the half-edge bound."""
    return check_pattern_cocycle(lam, ClassCorpus(max_half_edges))


# ---------------------------------------------------------------------------
# the class corpus
# ---------------------------------------------------------------------------

def _matchings(items):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        rest = items[1:i] + items[i + 1:]
        for sub in _matchings(rest):
            yield [(a, b)] + sub


def _rotation_classes(total):
    """The pairings of 0..total-1, as lists of mates, whose chord gaps
    (mate(h) - h) mod total are least among their rotations."""
    for pairs in _matchings(list(range(total))):
        mate = [0] * total
        for a, b in pairs:
            mate[a] = b
            mate[b] = a
        gaps = [(m - h) % total for h, m in enumerate(mate)]
        if not any(gaps[s:] + gaps[:s] < gaps for s in range(1, total)):
            yield mate


# the classes with H half-edges, for each H grown in this process, as
# (key, nonzero flag) pairs in key order; a level is recorded once complete
_LEVELS = {}


class ClassCorpus:
    """Every class within a half-edge bound, each with a nonzero flag and
    its oriented boundary column, built at most once.  `keys` lists the
    class keys in key order.  The levels of classes are grown once per
    process and shared by every corpus; the columns are per corpus.

    The classes are grown by vertex expansion.  Those with H half-edges
    are the one-vertex maps on H labels and the single-vertex expansions
    of the classes with H - 2, and that is all of them.  A connected
    graph with at least 2 vertices has an edge that is not a loop.
    Collapsing it gives a connected graph with H - 2 half-edges, in
    which two vertices of valences p, q >= 3 merge into one of valence
    p + q - 2 >= 4, and the graph is the expansion of the merged vertex
    into blocks of sizes p - 1 >= 2 and q - 1 >= 2.  Every
    fixed-point-free pairing of one cycle of at least 4 labels is a
    valid connected graph, so the one-vertex maps are keyed from their
    position tables unchecked.  Their classes are their rotation classes:
    a rotation h -> h + s mod H is an isomorphism, and every isomorphism
    commutes with the cycle, so is a rotation.  A rotation rotates the
    chord gaps (mate(h) - h) mod H, which determine the map, so only the
    one map per class with the least gaps among their rotations is keyed.

    The expansions are the rows of `_rows` on the classes with H - 2
    half-edges, zero classes included, so one keying pass grows a
    level and gives the columns of the level below it.  A level grown
    before costs no keying.  The columns that its growth would have
    given, like those of the classes at the bound and of the classes past
    it that a boundary hits, are built on first use.  A column is {row
    key: integer}, the boundary of the class with orientation +1 on its
    canonical representative; the column of a zero class is empty.
    """

    def __init__(self, max_half_edges):
        if max_half_edges < 4:
            raise GraphError("need at least 4 half-edges")
        self.max_half_edges = max_half_edges
        self._nonzero = {}
        self._columns = {}
        found = []
        level = []
        for total in range(4, max_half_edges + 1, 2):
            if total not in _LEVELS:
                cycle = tuple(range(total))
                succ = list(cycle[1:]) + [0]
                hit = set(self._build(level))
                for mate in _rotation_classes(total):
                    hit.add(self._first(*oriented_key([cycle], succ, mate, 1)[1:]))
                _LEVELS[total] = tuple((key, self._nonzero[key]) for key in sorted(hit))
            level = [key for key, _ in _LEVELS[total]]
            self._nonzero.update(_LEVELS[total])
            found += level
        self.keys = sorted(found)

    def _first(self, sign, literal):
        """The key of a class at its first hit, noting whether it is zero."""
        key = literal()
        self._nonzero[key] = sign is not None
        return key

    def _build(self, keys):
        """Build the columns of `keys` in one pass of `_rows` and return
        the keys of every class hit."""
        rows, entries = _rows([OrientedRibbonGraph(graph_from_key(key), 1) for key in keys],
                              oriented_key, self._first)
        columns = [{} for _ in keys]
        for (r, c), v in entries.items():
            if v:
                columns[c][rows[r]] = v
        for key, column in zip(keys, columns):
            self._columns[key] = column if self._nonzero[key] else {}
        return rows

    def graphs(self, codimension=None, valences=None):
        """One canonical representative per class, in key order,
        optionally only the classes of one codimension or of one valence
        multiset."""
        if valences is not None:
            valences = tuple(sorted(valences, reverse=True))
        graphs = [graph_from_key(key) for key in self.keys]
        return [g for g in graphs
                if (codimension is None or g.codimension == codimension)
                and (valences is None or g.valences() == valences)]

    def is_nonzero(self, key):
        """Whether <key> is not zero, that is, whether the class has no
        orientation-reversing automorphism."""
        if key not in self._nonzero:
            og = OrientedRibbonGraph(graph_from_key(key), 1)
            self._nonzero[key] = canonical_oriented(og)[1] is not None
        return self._nonzero[key]

    def columns(self, keys):
        """The boundary columns of `keys`, building the missing ones of
        nonzero classes in one batch."""
        missing = [key for key in dict.fromkeys(keys)
                   if key not in self._columns and self.is_nonzero(key)]
        if missing:
            self._build(missing)
        return [self._columns.get(key, {}) for key in keys]

    def boundary(self, chain):
        """The boundary of the chain {key: coefficient}, as {key:
        coefficient} without zero terms."""
        out = {}
        for coeff, column in zip(chain.values(), self.columns(list(chain))):
            for row, v in column.items():
                out[row] = out.get(row, 0) + coeff * v
        return {row: v for row, v in out.items() if v}

    def evaluate(self, cochains, keys):
        """<f, d key> for each cochain f in `cochains` and each key in
        `keys`, where f takes the value `f(row)` on the generator `row`:
        each f is evaluated once per class hit, and its values come out as
        one list over `keys`."""
        columns = self.columns(keys)
        hit = {row for column in columns for row in column}
        out = []
        for value_of in cochains:
            f = {row: value_of(row) for row in hit}
            out.append([sum((f[row] * v for row, v in column.items()), Fraction(0))
                        for column in columns])
        return out


def enumerate_graphs(max_half_edges, codimension=None, valences=None):
    """`ClassCorpus.graphs` of the classes within the half-edge bound."""
    return ClassCorpus(max_half_edges).graphs(codimension, valences)


# ---------------------------------------------------------------------------
# the forest complex over a base graph
# ---------------------------------------------------------------------------

class ForestComplex:
    """The augmented chain complex of forested graphs over a base graph.

    Level k is spanned by the isomorphism classes over the base of
    oriented codimension-k graphs collapsing onto it; such objects are
    rigid, so each class is a free generator.
    """

    def __init__(self, base):
        self.base = base
        self.base_labels = set(base.half_edges)
        n = base.codimension
        self.levels = [None] * (n + 1)
        # over its own labels, the base is its own key
        self.levels[n] = [base.literal()]
        self.matrices = [None] * (n + 1)
        for k in range(n, 0, -1):
            columns = [OrientedRibbonGraph(graph_from_key(key), 1) for key in self.levels[k]]
            self.levels[k - 1], self.matrices[k] = boundary_matrix(
                columns, partial(key_over, base.half_edges))

    def ranks(self):
        return [len(level) for level in self.levels]

    def d_squared_is_zero(self):
        """d_{k-1} d_k = 0 for every k, as exact sparse integer products."""
        return all(not any(sparse_product(self.matrices[k - 1], self.matrices[k]).values())
                   for k in range(2, self.base.codimension + 1))

    def augmentation_kills_boundary(self):
        if self.base.codimension < 1:
            return True
        # the augmentation sends every trivalent generator to 1
        eps = {(0, i): 1 for i in range(len(self.levels[0]))}
        return not any(sparse_product(eps, self.matrices[1]).values())

    def homology_is_trivial(self):
        """Augmented homology vanishes in all degrees 0..n by ranks.

        First it checks exactly that the augmented sequence is a complex
        (d d = 0 and the augmentation kills d_1).  Then it checks that
        dim C_k = r_k + r_{k+1} in every degree k, where r_k is the exact
        rank of d_k, r_0 that of the augmentation and r_{n+1} = 0.
        """
        if not (self.d_squared_is_zero() and self.augmentation_kills_boundary()):
            return False
        n = self.base.codimension
        dims = self.ranks()
        ranks = [1 if dims[0] else 0]
        ranks += [sparse_rank(self.matrices[k]) for k in range(1, n + 1)]
        ranks.append(0)
        return all(dims[k] == ranks[k] + ranks[k + 1] for k in range(n + 1))

    def expected_ranks(self):
        """Convolution of associahedron face counts over the big vertices."""
        out = [1]
        for cycle in self.base.vertices:
            m = len(cycle) - 3
            if m == 0:
                continue
            fv = [face_count(m, k) for k in range(m + 1)]
            new = [0] * (len(out) + m)
            for i, a in enumerate(out):
                for j, b in enumerate(fv):
                    new[i + j] += a * b
            out = new
        return out


def forest_complex(base):
    return ForestComplex(base)
