"""Planar trees and the face structure of the Stasheff associahedron.

A face of K^n is a planar tree with n+3 leaves in fixed counterclockwise
order and internal vertices of valence >= 3; a tree with n-k internal
edges is a k-face.  Trees are stored like ribbon graphs whose pairing is
partial: leaves are unpaired half-edge labels 0..n+2, internal
half-edges are labels >= n+3.  A face is the set of leaf intervals
(first, size), pairwise nested or disjoint, that its edges cut off on
the side away from leaf 0, kept as one int, the face bitmask, with bit
first * L + size for each (L the leaf count): bits run in interval order.
Only `face_bit` and `face_intervals` encode and decode it.  `face_sets`
lists the faces of K^n, `tree_from_face` builds a face's tree,
`edge_bits` reads each edge's bit off a tree, and `dihedral_orbits`
lists trivalent trees up to leaf rotations and reflections.

A chain T_0 -> ... -> T_m is a simplex (seed, steps) that collapses one
internal edge per step.  Signs follow the same Conant-Vogtmann
bookkeeping as for graphs; the designated orientation of the terminal
corolla is the natural one for even n and the leaf-0 counterclockwise
word for odd n, which in both cases is the reference ordering.

Every region fact of a tree comes from one table, `branch_intervals`:
region j is the gap between leaf j and leaf j+1, the corner after a
half-edge lies in the region closing off its branch, and `one_sided` of
either half-edge's interval is its edge's cut interval (`edge_bits`).
A face's vertices, edges and regions are read off its bitmask
(`face_layout`), and one region sign rule on that layout,
`region_sign`, gives chain signs from the corner regions, for seeds with
one big vertex and for maximal chains alike.
"""

import math
from itertools import permutations

from fatcomplex.ribbon import (
    GraphError,
    _edge_list,
    _normalize_cycles,
    collapse_steps,
)


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

def one_sided(first, size, leaf_count):
    """Of the cyclic leaf interval first..first+size-1 mod leaf_count and
    its complement, the two sides of one edge, the one without leaf 0."""
    first %= leaf_count
    if first == 0 or first + size > leaf_count:
        return (first + size) % leaf_count, leaf_count - size
    return first, size


def face_bit(first, size, leaf_count):
    """The bit of the cut interval (first, size) in a face bitmask."""
    return 1 << first * leaf_count + size


def face_intervals(face, leaf_count):
    """[(bit, (first, size))] for the bits of a face, in interval order."""
    out = []
    while face:
        bit = face & -face
        face ^= bit
        out.append((bit, divmod(bit.bit_length() - 1, leaf_count)))
    return out


def paint_leaves(intervals, leaf_count):
    """The innermost vertex holding each leaf, and the (parent, child)
    vertices of each edge, of the face whose edges cut off `intervals`:
    vertex 0 holds leaf 0 and vertex i+1 lies below edge i.  Each edge
    paints its leaves with its child, longer intervals first, and its
    parent is what held its first leaf just before."""
    holder = [0] * leaf_count
    ends = [None] * len(intervals)
    for i in sorted(range(len(intervals)), key=lambda i: -intervals[i][1]):
        lo, size = intervals[i]
        ends[i] = (holder[lo], i + 1)
        holder[lo:lo + size] = [i + 1] * size
    return holder, ends


def face_layout(face, leaf_count):
    """A face's edge bits in interval order, the (parent, child) vertices of
    each edge, and each vertex's region and incident-edge masks.  Edge i
    cuts off the leaves lo..lo+size-1 away from leaf 0; vertex 0 holds
    leaf 0 and vertex i+1 lies below edge i (`paint_leaves`).  The corner
    after a half-edge lies in the region closing off its branch: the parent
    gets region lo+size-1, the child region lo - 1, and leaf j gives region
    j to the innermost vertex that holds it."""
    pairs = face_intervals(face, leaf_count)
    holder, ends = paint_leaves([iv for _, iv in pairs], leaf_count)
    masks = [0] * (len(pairs) + 1)
    incident = [0] * (len(pairs) + 1)
    for j, v in enumerate(holder):
        masks[v] |= 1 << j
    for i, ((_, (lo, size)), (parent, child)) in enumerate(zip(pairs, ends)):
        masks[parent] |= 1 << (lo + size - 1)
        masks[child] |= 1 << (lo - 1)
        incident[parent] |= 1 << i
        incident[child] |= 1 << i
    return [code for code, _ in pairs], ends, masks, incident


def tree_from_face(face, leaf_count):
    """The planar tree of a face bitmask, unchecked.  Edge r in preorder
    from leaf 0, by (lo, -size), is (L + 2r, L + 2r + 1) with L + 2r at
    the parent; a vertex lists the half-edge towards leaf 0, then its
    branches in leaf order."""
    intervals = sorted((iv for _, iv in face_intervals(face, leaf_count)),
                       key=lambda iv: (iv[0], -iv[1]))
    holder, ends = paint_leaves(intervals, leaf_count)
    branches = [[] for _ in range(len(intervals) + 1)]
    for leaf, v in enumerate(holder):
        branches[v].append((leaf, leaf))
    for i, ((lo, _), (parent, child)) in enumerate(zip(intervals, ends)):
        branches[parent].append((lo, leaf_count + 2 * i))
        branches[child].append((-1, leaf_count + 2 * i + 1))
    cycles = [tuple(h for _, h in sorted(b)) for b in branches]
    pairs = [(leaf_count + 2 * i, leaf_count + 2 * i + 1) for i in range(len(intervals))]
    return PlanarTree._trusted(leaf_count, _normalize_cycles(cycles), pairs)


def face_sets(n, k):
    """The k-faces of K^n as face bitmasks, without building trees.

    From leaf 0, the branches below a vertex hold two or more runs of
    consecutive leaves, and a run of s >= 2 leaves is an edge holding 1
    to s-1 edges in all.  The recursion splits a run into its first
    branch and the rest, giving each only edge counts it can hold, so it
    lists exactly the faces with n-k edges.
    """
    if not 0 <= k <= n:
        raise GraphError("need 0 <= k <= n")
    memo = {}

    def runs(lo, hi, edges, whole):
        # the leaves lo..hi cut into branches with `edges` edges in all;
        # into one branch only when `whole`
        key = (lo, hi, edges, whole)
        if key not in memo:
            out = []
            for end in range(lo, hi):
                # the first branch lo..end holds `used` edges, none if a
                # leaf, and the rest, hi-end leaves, at most hi-end-1
                size = end - lo + 1
                for used in range(max(size > 1, edges - (hi - end - 1)), min(size - 1, edges) + 1):
                    out += [head | tail for head in branch(lo, end, used)
                            for tail in runs(end + 1, hi, edges - used, True)]
            if whole:
                out += branch(lo, hi, edges)
            memo[key] = out
        return memo[key]

    def branch(lo, hi, edges):
        # a leaf, or an edge cutting off lo..hi with a vertex below it
        if lo == hi:
            return [0]
        bit = face_bit(lo, hi - lo + 1, n + 3)
        return [bit | below for below in runs(lo, hi, edges - 1, False)]

    return runs(1, n + 2, n - k, False)


def enumerate_faces(n, k):
    """All k-faces of K^n: trees with n+3 leaves and n-k internal edges."""
    return [tree_from_face(face, n + 3) for face in face_sets(n, k)]


def enumerate_trivalent_trees(leaf_count):
    """All trivalent planar trees with the given leaves, Catalan-many: the
    vertices of K^(leaf_count - 3)."""
    return enumerate_faces(leaf_count - 3, 0)


def dihedral_orbits(leaf_count):
    """Trivalent trees up to leaf rotations and reflections, as [(top
    face, orbit size)], an orbit's top face its first in `face_sets`
    order.  A rotation moves every cut interval one leaf on, and the
    reflection i -> -i maps (first, size) to (-(first + size - 1), size),
    each image taken away from leaf 0."""
    seen = set()
    out = []
    for face in face_sets(leaf_count - 3, 0):
        if face in seen:
            continue
        intervals = [iv for _, iv in face_intervals(face, leaf_count)]
        mirror = [(-(first + size - 1), size) for first, size in intervals]
        orbit = {sum(face_bit(*one_sided(first + r, size, leaf_count), leaf_count)
                     for first, size in ivs)
                 for ivs in (intervals, mirror) for r in range(leaf_count)}
        seen |= orbit
        out.append((face, len(orbit)))
    return out


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


def edge_bits(tree):
    """{internal edge: its bit, for the interval it cuts off away from leaf
    0}; the bits sum to the tree's face bitmask (`tree_from_face` inverts)."""
    intervals, L = branch_intervals(tree), tree.leaf_count
    return {(x, y): face_bit(*one_sided(*intervals[x], L), L) for x, y in tree.internal_edges()}


# ---------------------------------------------------------------------------
# the region sign rule
# ---------------------------------------------------------------------------

def region_sign(face, order, v0, leaf_count):
    """The sign of the chain collapsing the 2k edges of `face`, edge bits
    listed in `order`, for a face whose vertices are trivalent except
    possibly v0, a `face_layout` vertex, with an odd leaf count.  When
    every vertex is trivalent, v0 must be an endpoint of the first edge
    collapsed: the rule then gives the sign of a maximal chain of K^{2k}.

    The sign is (-1)^k times the sign of the permutation sorting
    (a_1..a_V, b_1..b_2k), the a_i the regions around v0 and b_i the
    region touching edge i only at its end away from v0: of that
    trivalent end's regions, the one that is not a flank of the edge,
    lo - 1 or lo + size - 1.  That end is the child, unless v0 lies
    below the edge: v0 is the child, or the edge above v0 (edge v0 - 1)
    cuts off leaves nested in the edge's own.  The tuple lists every
    region once and has odd length, so the a_i may go first in
    increasing order, a rotation of their cyclic order, which is even;
    appending a region x flips the sort sign once for each entry above
    x, the parity of (seen >> x).bit_count().
    """
    codes, ends, masks, _ = face_layout(face, leaf_count)
    intervals = {code: (i, iv) for i, (code, iv) in enumerate(face_intervals(face, leaf_count))}
    above = intervals[codes[v0 - 1]][1] if v0 else None
    seen, parity = masks[v0], len(order) // 2
    for code in order:
        i, (lo, size) = intervals[code]
        below = v0 and lo <= above[0] and above[0] + above[1] <= lo + size
        far = ends[i][0] if below else ends[i][1]
        x = (masks[far] & ~(1 << lo - 1 | 1 << lo + size - 1)).bit_length() - 1
        parity += (seen >> x).bit_count()
        seen |= 1 << x
    return -1 if parity & 1 else 1


# ---------------------------------------------------------------------------
# dual cells
# ---------------------------------------------------------------------------

def _chain_key(seed, steps):
    """The faces along a chain (seed, steps), each the seed collapsed by
    the steps before it, keyed by its face bitmask: a collapse keeps the
    branch through every half-edge it leaves, so each key is the seed's
    without the bits of the edges collapsed so far."""
    bits = edge_bits(seed)
    key = [sum(bits.values())]
    for step in steps:
        key.append(key[-1] & ~sum(bits[e] for e in step))
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
