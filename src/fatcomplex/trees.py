"""Planar trees and the face structure of the Stasheff associahedron.

A face of K^n is a planar tree with n+3 leaves in fixed counterclockwise
order and internal vertices of valence >= 3; a tree with n-k internal
edges is a k-face.  A face is the set of leaf intervals (first, size),
pairwise nested or disjoint, that its edges cut off on the side away
from leaf 0, kept as one int, the face bitmask, with bit
first * L + size for each (L the leaf count): bits run in interval order.
The bitmask is the only face type.  Only `face_bit` and
`face_intervals` encode and decode it.  `face_sets` lists the faces of
K^n, and `dihedral_orbits` lists trivalent faces up to leaf rotations
and reflections.

A face's vertices, edges and regions are read off its bitmask
(`face_layout`): region j is the gap between leaf j and leaf j+1, and
the corner after a half-edge lies in the region closing off its branch.
One region sign rule on that layout, `region_sign`, gives chain signs
from the corner regions, for seeds with one big vertex and for maximal
chains alike.

A chain collapses one edge of a face per step, given as the face and
its edge bits in collapse order; the face after a step is the face
without the bits collapsed so far.  Its sign, `chain_sign`, is the
Conant-Vogtmann bookkeeping of `ribbon.collapse_steps` on the tables of
the face's tree (`tree_from_face`), stored like a ribbon graph whose
pairing is partial: leaves are unpaired half-edge labels 0..n+2,
internal half-edges are labels >= n+3.  The designated orientation of
the terminal corolla is the natural one for even n and the leaf-0
counterclockwise word for odd n, which in both cases is the reference
ordering.
"""

import math
from itertools import accumulate, permutations

from fatcomplex.ribbon import GraphError, _normalize_cycles, collapse_steps


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
    """The planar tree of a face bitmask as (cycles, pairing, edges): its
    normalized vertex cycles, with leaves the unpaired labels 0..L-1, its
    pairing of internal half-edges, and {edge bit: the edge's half-edge
    at its parent}.  Edge r in preorder from leaf 0, by (lo, -size), is
    (L + 2r, L + 2r + 1) with L + 2r at the parent; a vertex lists the
    half-edge towards leaf 0, then its branches in leaf order."""
    pairs = sorted(face_intervals(face, leaf_count), key=lambda p: (p[1][0], -p[1][1]))
    holder, ends = paint_leaves([iv for _, iv in pairs], leaf_count)
    branches = [[] for _ in range(len(pairs) + 1)]
    for leaf, v in enumerate(holder):
        branches[v].append((leaf, leaf))
    pairing, edges = {}, {}
    for i, ((bit, (lo, _)), (parent, child)) in enumerate(zip(pairs, ends)):
        h = leaf_count + 2 * i
        branches[parent].append((lo, h))
        branches[child].append((-1, h + 1))
        pairing[h], pairing[h + 1] = h + 1, h
        edges[bit] = h
    cycles = [tuple(h for _, h in sorted(b)) for b in branches]
    return _normalize_cycles(cycles), pairing, edges


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


def enumerate_trivalent_trees(leaf_count):
    """All trivalent planar trees with the given leaves as face bitmasks,
    Catalan-many: the vertices of K^(leaf_count - 3)."""
    return face_sets(leaf_count - 3, 0)


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

def chain_sign(tree, order):
    """The sign of the chain collapsing the edges whose bits are listed in
    `order`, one at a time in that order, of the face whose tree tables
    (`tree_from_face`) are `tree`: the induced-orientation bookkeeping of
    `collapse_steps` on those tables."""
    cycles, pairing, edges = tree
    return collapse_steps(cycles, pairing, [[(edges[bit], edges[bit] + 1) for bit in order]])[2]


def maximal_chains(n):
    """All maximal chains of K^n, ending at the corolla, as
    [((top face, edge bits in collapse order), sign)]: a trivalent top
    face and one edge per step.

    Catalan(n+1) * n! chains; the sign is `chain_sign`, against the
    designated orientation of the corolla, on tables built once per face.
    """
    L = n + 3
    return [((face, order), chain_sign(tree, order))
            for face in face_sets(n, 0) for tree in [tree_from_face(face, L)]
            for order in permutations(bit for bit, _ in face_intervals(face, L))]


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

def dual_cell_boundary_check(n):
    """Both sides of d D(T) == (-1)^n sum of D(T') over the codimension-1
    faces T', as {chain key: coefficient}.  A chain's key lists the faces
    along it: a collapse keeps the branch through every half-edge it
    leaves, so each face is the top face without the bits of the edges
    collapsed so far.

    D(T') uses on T' the orientation induced from the designated
    orientation of the corolla along the collapse T' -> T, so each
    maximal chain truncated at T' enters the right side with (-1)^n
    times its own sign.  Those are exactly the i = n face terms of the
    left side, so the identity checks that the face terms for i < n,
    which drop the seed or an inner tree of a chain, cancel.
    """
    lhs = {}
    rhs = {}
    for (top, order), sign in maximal_chains(n):
        key = tuple(accumulate(order, lambda face, bit: face & ~bit, initial=top))
        for i in range(n + 1):
            face = key[:i] + key[i + 1:]
            lhs[face] = lhs.get(face, 0) + sign * (-1) ** i
        rhs[key[:n]] = rhs.get(key[:n], 0) + (-1) ** n * sign
    return ({k: v for k, v in lhs.items() if v},
            {k: v for k, v in rhs.items() if v})
