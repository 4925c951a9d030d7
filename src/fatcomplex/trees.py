"""Planar trees and the face structure of the Stasheff associahedron.

A face of K^n is a planar tree with n+3 leaves in fixed counterclockwise
order and internal vertices of valence >= 3; a tree with n-k internal
edges is a k-face.  Trees are stored like ribbon graphs whose pairing is
partial: leaves are unpaired half-edge labels 0..n+2, internal
half-edges are labels >= n+3.

A chain T_0 -> ... -> T_m is a simplex (seed, steps) that collapses one
internal edge per step.  Signs follow the same Conant-Vogtmann
bookkeeping as for graphs; the designated orientation of the terminal
corolla is the natural one for even n and the leaf-0 counterclockwise
word for odd n, which in both cases is the reference ordering.

Every region fact comes from one table per tree, `branch_intervals`:
region j is the gap between leaf j and leaf j+1, the corner after a
half-edge lies in the region closing off its branch, and a face of K^n
is keyed by the intervals its internal half-edges cut off.  One region
sign rule, `lemma_region_sign`, predicts chain signs from those corner
regions, for seeds with one big vertex and for maximal chains alike.
"""

import math
from itertools import permutations

from fatcomplex.ribbon import (
    GraphError,
    _edge_list,
    _normalize_cycles,
    canonical_key_over,
    collapse_steps,
    word_parity,
)


class ConfigurationMismatch(GraphError):
    pass


class PlanarTree:
    """A planar tree with labelled leaves in counterclockwise order."""

    __slots__ = ("leaf_count", "vertices", "pairing", "_vertex_of")

    def __init__(self, leaf_count, vertex_cycles, edge_pairs):
        self._set(leaf_count, _normalize_cycles([tuple(c) for c in vertex_cycles]), edge_pairs)
        self._validate()

    def _set(self, leaf_count, vertices, edge_pairs):
        self.leaf_count = leaf_count
        self.vertices = vertices
        pairing = {}
        for a, b in edge_pairs:
            pairing[a] = b
            pairing[b] = a
        self.pairing = pairing
        self._vertex_of = {x: c for c in vertices for x in c}

    @classmethod
    def _trusted(cls, leaf_count, vertices, edge_pairs):
        """A tree from parts known to be valid, with no checks:
        `vertices` normalized and `edge_pairs` its internal edges."""
        t = cls.__new__(cls)
        t._set(leaf_count, vertices, edge_pairs)
        return t

    def _validate(self):
        labels = [x for c in self.vertices for x in c]
        if len(labels) != len(set(labels)):
            raise GraphError("duplicate half-edge label")
        leaves = [x for x in labels if x not in self.pairing]
        if sorted(leaves) != list(range(self.leaf_count)):
            raise GraphError("leaves must be exactly 0..leaf_count-1")
        if any(len(c) < 3 for c in self.vertices):
            raise GraphError("internal vertex of valence < 3")
        if len(self.vertices) != len(self.pairing) // 2 + 1:
            raise GraphError("not a tree: vertices != internal edges + 1")
        if self.contour_leaves() != tuple(range(self.leaf_count)):
            raise GraphError("leaves are not in counterclockwise order")

    def sigma(self):
        nxt = {}
        for c in self.vertices:
            for i, h in enumerate(c):
                nxt[h] = c[(i + 1) % len(c)]
        return nxt

    def vertex_of(self, h):
        return self._vertex_of[h]

    def contour(self):
        """Half-edges in the order the contour walk from leaf 0 meets them:
        after a leaf it turns to the next half-edge at the leaf's vertex,
        after an internal half-edge to the next one at its mate's vertex.
        Around a tree it meets each half-edge once."""
        sigma = self.sigma()
        cur = 0
        for _ in range(len(sigma)):
            yield cur
            cur = sigma[self.pairing.get(cur, cur)]
            if cur == 0:
                return

    def contour_leaves(self):
        """Leaves in the order the contour walk from leaf 0 meets them."""
        return tuple(h for h in self.contour() if h not in self.pairing)

    def internal_edges(self):
        return _edge_list(self.pairing)

    def literal(self):
        return (self.leaf_count, self.vertices, tuple(self.internal_edges()))

    def canonical(self):
        """Canonical representative over the fixed leaves."""
        (cycles, pairs), _ = canonical_key_over(range(self.leaf_count), self.vertices,
                                                self.pairing)
        return PlanarTree._trusted(self.leaf_count, cycles, pairs)

    def __eq__(self, other):
        return isinstance(other, PlanarTree) and self.literal() == other.literal()

    def __hash__(self):
        return hash(self.literal())

    def __repr__(self):
        return "PlanarTree(%d, %r, %r)" % (self.leaf_count, list(self.vertices),
                                           self.internal_edges())


# ---------------------------------------------------------------------------
# enumeration of faces
# ---------------------------------------------------------------------------

def _compositions(lo, hi, binary_only):
    """Split the leaf interval [lo..hi] into >= 2 consecutive blocks."""
    size = hi - lo + 1
    if binary_only:
        for cut in range(lo + 1, hi + 1):
            yield [(lo, cut - 1), (cut, hi)]
        return
    # all compositions into >= 2 blocks
    def rec(start):
        if start > hi:
            yield []
            return
        for end in range(start, hi + 1):
            for rest in rec(end + 1):
                yield [(start, end)] + rest
    for blocks in rec(lo):
        if len(blocks) >= 2:
            yield blocks


def _count_vertices(struct):
    if isinstance(struct, int):
        return 0
    return 1 + sum(_count_vertices(kid) for kid in struct)


def _structures(lo, hi, binary_only, budget=None):
    """Subtree shapes over the leaf interval [lo..hi].

    `budget` bounds the number of internal vertices in the subtree.
    """
    if lo == hi:
        yield lo
        return
    if budget is not None and budget < 1:
        return
    kid_budget = None if budget is None else budget - 1
    for blocks in _compositions(lo, hi, binary_only):
        def rec(i, rem):
            if i == len(blocks):
                yield []
                return
            a, b = blocks[i]
            for sub in _structures(a, b, binary_only, rem):
                used = _count_vertices(sub)
                nxt = None if rem is None else rem - used
                if nxt is not None and nxt < 0:
                    continue
                for rest in rec(i + 1, nxt):
                    yield [sub] + rest
        for kids in rec(0, kid_budget):
            yield tuple(kids)


def _tree_from_structure(leaf_count, root_kids):
    cycles = []
    pairs = []
    counter = [leaf_count]

    def build(node, up_half):
        # returns nothing; appends the vertex for `node` whose first
        # entry is the half-edge toward the parent
        cycle = [up_half]
        for kid in node:
            if isinstance(kid, int):
                cycle.append(kid)
            else:
                down = counter[0]
                up = counter[0] + 1
                counter[0] += 2
                pairs.append((down, up))
                cycle.append(down)
                build(kid, up)
        cycles.append(tuple(cycle))

    build(root_kids, 0)
    return PlanarTree(leaf_count, cycles, pairs)


def _all_trees(leaf_count, binary_only, max_vertices=None):
    if leaf_count < 3:
        raise GraphError("need at least 3 leaves")
    for kids in _structures(1, leaf_count - 1, binary_only, max_vertices):
        if isinstance(kids, int):
            continue
        yield _tree_from_structure(leaf_count, kids)


def enumerate_trivalent_trees(leaf_count):
    """All trivalent planar trees with the given leaves, Catalan-many."""
    return list(_all_trees(leaf_count, binary_only=True))


def enumerate_faces(n, k):
    """All k-faces of K^n: trees with n+3 leaves and n-k internal edges."""
    if not 0 <= k <= n:
        raise GraphError("need 0 <= k <= n")
    want = n - k
    return [t for t in _all_trees(n + 3, binary_only=False, max_vertices=want + 1)
            if len(t.pairing) // 2 == want]


def face_count(n, k):
    """The number of k-faces of K^n: the Kirkman-Cayley number of
    dissections of an (n+3)-gon by j = n - k diagonals,
    C(n, j) C(n+j+2, j) / (j+1)."""
    j = n - k
    return math.comb(n, j) * math.comb(n + j + 2, j) // (j + 1)


# ---------------------------------------------------------------------------
# collapses and chains
# ---------------------------------------------------------------------------

def maximal_chains(n):
    """All maximal chains of K^n, ending at the corolla, as
    [((seed, steps), sign)]: a trivalent seed and one edge per step.

    Catalan(n+1) * n! chains; the sign is the induced-orientation
    bookkeeping against the designated orientation of the corolla.
    """
    out = []
    for seed in enumerate_trivalent_trees(n + 3):
        for order in permutations(seed.internal_edges()):
            steps = tuple((e,) for e in order)
            out.append(((seed, steps), collapse_steps(seed.vertices, seed.pairing, steps)[2]))
    return out


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def branch_intervals(tree):
    """The leaves of the branch through each half-edge h, as (first, size):
    the cyclic interval first, first+1, ..., first+size-1 mod the leaf
    count.  The branch through a leaf is the leaf; the branch through an
    internal h is the subtree reached by crossing h.

    The contour walk meets the leaves in order, and between crossing an
    internal h and crossing its mate back it walks around exactly the
    branch through h, so one walk gives every interval.
    """
    L = tree.leaf_count
    met = {}
    count = 0
    for h in tree.contour():
        met[h] = count
        if h not in tree.pairing:
            count += 1
    return {h: (h, 1) if h not in tree.pairing
            else (met[h] % L, (met[tree.pairing[h]] - met[h]) % L)
            for h in met}


def cut_intervals(tree):
    """The leaf intervals, as (first leaf, length), that the internal
    half-edges of a tree cut off; they determine the tree, so they key
    its face."""
    intervals = branch_intervals(tree)
    return frozenset(intervals[h] for h in tree.pairing)


# ---------------------------------------------------------------------------
# the region sign rule
# ---------------------------------------------------------------------------

def lemma_region_sign(tree, edge_order, v0=None):
    """Predicted chain sign for a seed whose vertices are trivalent except
    possibly one vertex v0.

    With 2k internal edges collapsed in the given order, the sign of the
    chain is (-1)^k times the sign of the permutation sorting
    (a_1..a_V, b_1..b_2k), where the a_i are the regions around v0 and
    b_i is the region touching e_i only at its endpoint furthest from
    v0.  The tuple has odd length, so its sort sign is its cyclic sign:
    rotating an odd-length tuple is even.  When every vertex is
    trivalent, v0 must be given; at an endpoint of e_1 the rule gives
    the sign of a maximal chain of K^{2k}.

    Everything is read off `branch_intervals`, with cr[h] the region of
    the corner after h:
      - the flanks of an edge (x, y) are cr[x] and cr[y], the corners
        after x and after y;
      - at a trivalent endpoint of h the corner before h lies in the
        flank across the edge, so the region touching the edge only
        there is cr[sigma[h]].
    The far half-edge of (x, y) is x when v0 lies in the branch through
    x, and y otherwise.  A vertex lies in the branch through x, of
    leaves (first, size), exactly when one of its corner regions r is
    strictly between two leaves of the branch, that is
    (r - first) mod L < size - 1.  Both leaves of such a region lie in
    the branch, so does the tree path between them, and the region
    touches only the vertices on that path.  Conversely every vertex of
    the branch has such a corner: the corner between two consecutive
    half-edges of it that point away from x.
    """
    if v0 is None:
        big = [c for c in tree.vertices if len(c) > 3]
        if len(big) != 1:
            raise ConfigurationMismatch("need exactly one non-trivalent vertex")
        v0 = big[0]
    else:
        v0 = tree.vertex_of(v0[0])
    if len(edge_order) % 2 != 0:
        raise ConfigurationMismatch("need an even number of edges")
    if set(edge_order) != set(tree.internal_edges()):
        raise ConfigurationMismatch("edge order must list all internal edges")
    if any(len(c) != 3 for c in tree.vertices if c != v0):
        raise ConfigurationMismatch("every vertex but v0 must be trivalent")
    iv, sigma, L = branch_intervals(tree), tree.sigma(), tree.leaf_count
    cr = {h: (first + size - 1) % L for h, (first, size) in iv.items()}
    a = [cr[h] for h in v0]
    bs = []
    for x, y in edge_order:
        first, size = iv[x]
        far = x if any((r - first) % L < size - 1 for r in a) else y
        bs.append(cr[sigma[far]])
    return (-1) ** (len(edge_order) // 2) * word_parity(a + bs, sorted(a + bs))


# ---------------------------------------------------------------------------
# dual cells
# ---------------------------------------------------------------------------

def _chain_key(seed, steps):
    """The faces along a chain (seed, steps), each the seed collapsed by
    the steps before it, keyed by `cut_intervals`: a collapse keeps the
    branch through every half-edge it leaves, so each key is the seed's
    minus the intervals of the edges collapsed so far."""
    intervals = branch_intervals(seed)
    key = [cut_intervals(seed)]
    for step in steps:
        key.append(key[-1] - {intervals[h] for e in step for h in e})
    return tuple(key)


def dual_cell_boundary_check(n):
    """Both sides of d D(T) == (-1)^n sum of D(T') over the codimension-1
    faces T', as {chain key: coefficient}.

    D(T') uses on T' the orientation induced from the designated
    orientation of the corolla along the collapse T' -> T, so each
    maximal chain truncated at T' enters the right side with (-1)^n
    times its own sign.  Those are exactly the i = n face terms of the
    left side, so the identity checks that the face terms for i < n,
    which drop the seed or an inner tree of a chain, cancel.
    """
    lhs = {}
    rhs = {}
    for simplex, sign in maximal_chains(n):
        key = _chain_key(*simplex)
        for i in range(n + 1):
            face = key[:i] + key[i + 1:]
            lhs[face] = lhs.get(face, 0) + sign * (-1) ** i
        rhs[key[:n]] = rhs.get(key[:n], 0) + (-1) ** n * sign
    return ({k: v for k, v in lhs.items() if v},
            {k: v for k, v in rhs.items() if v})
