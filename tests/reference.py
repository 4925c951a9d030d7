"""Definitional references that the tests check the library against.

No command of `fatcomplex` reaches these.  Each is the slow, literal
definition of what the library computes another way: the `K^{2m}` scan
reads region masks for the cyclic-set cocycle on corner chains,
`canonical_form` gives automorphisms, `collapse_steps` collapse signs,
`trees.region_sign` reads the region sign rule off a face bitmask
instead of a tree, `boundary_matrix` keys expansions from position
tables instead of building each as a graph, and `verify_ainfinity` and
`cyclicity_failures` sum the scaled integer tables of an algebra
instead of its `Fraction` structure constants.  Some are helpers that
only the tests call: `canonical_over` and `canonical_tree` key an
object over fixed labels from its cycles and pairing, and `traverse`,
`is_loop` and `reversed_orientation` read a walk, a loop or the
opposite orientation off a graph.

The cyclic-set cocycle: the basic datum is a chain of cyclically
ordered finite sets C_0 -> C_1 -> ... -> C_2k joined by
cyclic-order-preserving monomorphisms.  The unadjusted cocycle sums the
cyclic sign of all tuples (a_0, ..., a_2k) with a_i drawn from C_i minus
C_{i-1} and divides by (-2)^k (2k-1)!! |C_0| ... |C_2k|; the adjusted
cocycle divides by a further -2.  Evaluated with multiplicity valence-2
at every vertex of the first graph of a simplex, the adjusted cocycle
computes the combinatorial representative of the degree-2k adjusted
tautological class.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from fatcomplex.coefficients import (
    _cocycle_constant,
    _part_scale,
    _region_bits,
    double_factorial,
)
from fatcomplex.graph_complex import ForestComplex, GraphChain
from fatcomplex.ribbon import (
    GraphError,
    OrientedRibbonGraph,
    RibbonGraph,
    _edge_list,
    _position_tables,
    _vsym,
    canonical_form,
    canonical_oriented,
    collapse_cycles,
    collapse_oriented,
    collapse_steps,
    graph_from_key,
    key_over,
    reference_word,
    word_parity,
)
from fatcomplex.trees import (
    PlanarTree,
    _chain_key,
    branch_intervals,
    face_layout,
    maximal_chains,
    one_sided,
)


# ---------------------------------------------------------------------------
# the cyclic-set cocycle and corner tracking
# ---------------------------------------------------------------------------

class RepeatedElement(GraphError):
    pass


class EvenLength(GraphError):
    pass


class LengthMismatch(GraphError):
    pass


def cyclic_sign(elements, ambient):
    """Sign of the permutation sorting `elements` into the ambient
    cyclic order, read from any starting point.

    The tuple must have odd length so that the choice of starting point
    does not matter (rotating an odd tuple is even).
    """
    elements = tuple(elements)
    if len(elements) % 2 == 0:
        raise EvenLength("cyclic sign needs an odd tuple")
    if len(set(elements)) != len(elements):
        raise RepeatedElement("cyclic sign needs distinct elements")
    pos = {x: i for i, x in enumerate(ambient)}
    try:
        ranks = [pos[x] for x in elements]
    except KeyError as exc:
        raise GraphError("element %r not in ambient cyclic set" % (exc.args[0],))
    return word_parity(ranks, sorted(ranks))


class CyclicSetChain:
    """A chain of cyclic sets embedded in a common ambient cyclic set.

    `ambient` is the cyclic order of the last set; `images` are the
    images of C_0 ... C_2k inside it, as frozensets.
    """

    __slots__ = ("ambient", "images")

    def __init__(self, ambient, images):
        self.ambient = tuple(ambient)
        self.images = [frozenset(s) for s in images]
        universe = set(self.ambient)
        prev = None
        for s in self.images:
            if not s <= universe:
                raise GraphError("chain set not inside the ambient cyclic set")
            if prev is not None and not prev <= s:
                raise GraphError("chain maps must be monomorphisms")
            prev = s
        if self.images and self.images[-1] != universe:
            raise GraphError("last chain set must fill the ambient cyclic set")

    def sizes(self):
        return [len(s) for s in self.images]

    def __len__(self):
        return len(self.images)


def _sign_sum(chain):
    levels = [sorted(chain.images[0])]
    for prev, cur in zip(chain.images, chain.images[1:]):
        levels.append(sorted(cur - prev))
    total = 0
    for tup in product(*levels):
        total += cyclic_sign(tup, chain.ambient)
    return total


def cz(k, chain):
    """The unadjusted cyclic-set cocycle on a 2k-simplex of cyclic sets."""
    if len(chain) != 2 * k + 1:
        raise LengthMismatch("need a chain of 2k+1 cyclic sets")
    sizes = chain.sizes()
    if any(b - a == 0 for a, b in zip(sizes, sizes[1:])):
        return Fraction(0)
    denom = Fraction((-2) ** k * double_factorial(2 * k - 1))
    for s in sizes:
        denom *= s
    return Fraction(_sign_sum(chain)) / denom


def adjusted_cz(k, chain):
    """The cocycle divided by -2, the normalization evaluated on graphs."""
    return cz(k, chain) / (-2)
def c_fat(k, simplex):
    """Adjusted cocycle of a 2k-simplex (top, steps), the cup product of
    one part: sum over the vertices of the top graph or tree, weighted by
    valence-2, of the cocycle on their corner chains."""
    return cup_product((k,), simplex)


def cup_product(parts, simplex):
    """Front/back-face cup product on a simplex (top, steps), one
    adjusted cocycle of degree 2*part per part, in the given order.
    Each face starts at the object the steps before it collapse the top
    to, of which only the vertex cycles and pairing are read."""
    top, steps = simplex
    if 2 * sum(parts) != len(steps):
        raise LengthMismatch("parts must tile the simplex")
    cycles, pairing = top.vertices, top.pairing
    total = Fraction(1)
    for p in parts:
        face, steps = steps[:2 * p], steps[2 * p:]
        total *= sum((len(c) - 2) * adjusted_cz(p, CyclicSetChain(
            *corner_chain(cycles, pairing, face, c))) for c in cycles)
        if total == 0:
            return total
        cycles, pairing, _ = collapse_steps(cycles, pairing, face)
    return total


def region_chain(top, steps, cycle):
    """Region-model cyclic set chain of a vertex along a tree simplex
    (top, steps): C_i is the set of regions touching the image of the
    vertex after step i; the ambient cyclic set is the last of them.

    The corner after a half-edge closes off the same branch in every tree
    of the chain, so the regions touching each vertex are read once from
    the top tree, and an image vertex touches the union of the regions of
    the top vertices merged into it (the mask model of the `K^{2m}` scan)."""
    regions = list(region_touch_sets(top).values())
    index = {h: i for i, c in enumerate(top.vertices) for h in c}
    rep = list(range(len(regions)))
    vertex = index[cycle[0]]
    images = [frozenset(regions[vertex])]
    for step in steps:
        for a, b in step:
            ra, rb = rep[index[a]], rep[index[b]]
            regions[ra] |= regions[rb]
            rep = [ra if r == rb else r for r in rep]
        images.append(frozenset(regions[rep[vertex]]))
    # regions are numbered in circle order, so the sorted last set keeps it
    return CyclicSetChain(sorted(images[-1]), images)
def corner_collapse_map(cycles, pairing, half_edge):
    """Corner tracking for one edge collapse.

    Corners are named by the half-edge they follow in the vertex cycle.
    Every corner persists under the collapse except the two corners
    following the collapsing half-edges, which are absorbed into the
    corners following the cyclic predecessors on the opposite side.
    """
    h = half_edge
    hbar = pairing[h]
    pred = {}
    for c in cycles:
        if h in c:
            i = c.index(h)
            pred[h] = c[i - 1]
        if hbar in c:
            i = c.index(hbar)
            pred[hbar] = c[i - 1]
    # corner after h lands after pred(hbar), and vice versa
    return {h: pred[hbar], hbar: pred[h]}


def corner_chain(cycles, pairing, steps, cycle):
    """Corner chain of a vertex along a simplex whose top has these
    vertex cycles and pairing: a ribbon graph or a planar tree.

    Each step is a tuple of edges collapsed in order (an identity step
    is ()), and `cycle` is a vertex of the top.  Returns (ambient,
    images): the cyclic order of the vertex's image after the last step,
    and for each step i the corners of its image after step i carried
    into the ambient, as frozensets.  An edge absent at its step raises
    GraphError.
    """
    levels = [tuple(cycle)]
    for step in steps:
        for a, b in step:
            if pairing.get(a) != b:
                raise GraphError("edge %r is not in the graph at its step" % ((a, b),))
            moved = corner_collapse_map(cycles, pairing, a)
            cycles, pairing, _ = collapse_cycles(cycles, pairing, a)
            levels = [tuple(moved.get(x, x) for x in xs) for xs in levels]
        corner = levels[-1][0]
        levels.append(next(c for c in cycles if corner in c))
    images = [frozenset(xs) for xs in levels]
    if any(len(s) != len(xs) for s, xs in zip(images, levels)):
        raise GraphError("corner monomorphism failed")
    return levels[-1], images


# ---------------------------------------------------------------------------
# vertex expansions built as graphs, and the label-level key over a base
# ---------------------------------------------------------------------------

class VertexTooSmall(GraphError):
    pass


class BadSplit(GraphError):
    pass


def expand_vertex(og, cycle, split):
    """Split one vertex into two joined by a fresh edge.

    `split` is a pair of cut positions (i, j) in the cyclic order; the
    blocks cycle[i:j] and cycle[j:]+cycle[:i] become the new vertices,
    each of size >= 2, and they get the new half-edges top + 1 and
    top + 2, with top the largest label.  The result carries the unique
    orientation that collapses back to `og`, with the sign derived in
    `ribbon.vertex_expansions`.
    """
    cycle = tuple(cycle)
    p = len(cycle)
    if p < 4:
        raise VertexTooSmall("cannot expand a vertex of valence %d" % p)
    i, j = split
    if not (0 <= i < j < p):
        raise BadSplit("cut positions must satisfy 0 <= i < j < valence")
    if j - i < 2 or p - (j - i) < 2:
        raise BadSplit("both blocks must have size >= 2")
    g = og.graph
    if cycle not in g.vertices:
        raise GraphError("%r is not a vertex cycle of the graph" % (cycle,))
    top = g.half_edges[-1]
    eminus, eplus = top + 1, top + 2
    # cycle[0] is in the first block cycle[i:j] exactly when i == 0
    a, b, hx, hy = (j, p, eplus, eminus) if i == 0 else (i, j, eminus, eplus)
    block = cycle[a:b]
    r = block.index(min(block))
    x = block[r:] + (hx,) + block[:r]
    y = cycle[:a] + (hy,) + cycle[b:]
    vertices = tuple(sorted([c for c in g.vertices if c != cycle] + [x, y]))
    pairing = dict(g.pairing)
    pairing[eminus] = eplus
    pairing[eplus] = eminus
    expanded = RibbonGraph._trusted(vertices, pairing, g.half_edges + (eminus, eplus))

    before = sum(len(c) + 1 for c in g.vertices if c[0] < cycle[0])
    between = sum(len(c) + 1 for c in g.vertices if cycle[0] < c[0] < x[0])
    size = b - a
    moves = (3 * before + 3 + 3 * a + (2 + size) * (p - b) + (1 + r) * (size - r)
             + (2 + size) * between)
    return OrientedRibbonGraph(expanded, og.sign * (-1) ** moves), (eminus, eplus)


def enumerate_expansions(og, cycle):
    """All (p^2-3p)/2 expansions of one vertex, with induced orientations."""
    cycle = tuple(cycle)
    p = len(cycle)
    out = []
    for i, j in combinations(range(p), 2):
        d = j - i
        if d < 2 or p - d < 2:
            continue
        out.append(expand_vertex(og, cycle, (i, j)))
    return out


def traverse(succ, mate, root):
    """Positions labelled 0..H-1 from `root`: each position, in label
    order, labels its sigma-successor and then its mate if they have no
    label yet.  Returns (order, label), inverse lists."""
    label = [-1] * len(succ)
    label[root] = 0
    order = [root]
    for h in order:
        for nxt in (succ[h], mate[h]):
            if label[nxt] < 0:
                label[nxt] = len(order)
                order.append(nxt)
    return order, label


def canonical_over(fixed, cycles, pairing, sign):
    """`ribbon.key_over` from an object's normalized `cycles` and its
    `pairing`, which maps each paired half-edge to its mate, over the
    labels `fixed`, which must lie below the others: returns (key, sign)."""
    labels = sorted(x for c in cycles for x in c)
    fixed = sorted(fixed)
    assert labels[:len(fixed)] == fixed
    _, vertices, succ, mate = _position_tables(cycles, pairing, labels)
    return key_over(fixed, vertices, succ, mate, sign)


def canonical_tree(tree):
    """The canonical representative of a planar tree over its fixed
    leaves."""
    (cycles, pairs), _ = canonical_over(range(tree.leaf_count), tree.vertices,
                                        tree.pairing, 1)
    return PlanarTree._trusted(tree.leaf_count, cycles, pairs)


def is_loop(g, edge):
    """Whether both half-edges of `edge` lie at one vertex of `g`."""
    a, b = edge
    return g.vertex_of(a) is g.vertex_of(b)


def reversed_orientation(og):
    return OrientedRibbonGraph(og.graph, -og.sign)


# ---------------------------------------------------------------------------
# ribbon graphs: one-edge collapse, isomorphisms, chains and dual cells
# ---------------------------------------------------------------------------

def collapse_edge(og, edge):
    """Collapse a non-loop edge of an oriented graph, with induced sign."""
    a, _ = edge
    cycles, pairing, sign = collapse_oriented(
        og.graph.vertices, og.graph.pairing, og.sign, a)
    return OrientedRibbonGraph(RibbonGraph(cycles, [tuple(e) for e in _edge_list(pairing)]), sign)


def _grow_iso(g1, g2, seed_pairs):
    """Extend seed half-edge assignments to a full isomorphism, or None."""
    s1, s2 = g1.sigma(), g2.sigma()
    p1, p2 = g1.pairing, g2.pairing
    m = {}
    used = set()
    stack = []
    for a, b in seed_pairs:
        if a in m:
            if m[a] != b:
                return None
            continue
        if b in used:
            return None
        m[a] = b
        used.add(b)
        stack.append(a)
    while stack:
        h = stack.pop()
        for f1, f2 in ((s1, s2), (p1, p2)):
            a, b = f1[h], f2[m[h]]
            if a in m:
                if m[a] != b:
                    return None
            else:
                if b in used:
                    return None
                m[a] = b
                used.add(b)
                stack.append(a)
    if len(m) != len(g1.half_edges):
        return None
    # vertex cycles must correspond (sigma-closure guarantees it) and so
    # does the pairing; lengths were matched by construction
    return m


def isomorphisms_between(g1, g2):
    """All cyclic-order-preserving half-edge bijections g1 -> g2."""
    if len(g1.half_edges) != len(g2.half_edges):
        return []
    if g1.valences() != g2.valences():
        return []
    anchor = g1.half_edges[0]
    out = []
    for b in g2.half_edges:
        m = _grow_iso(g1, g2, [(anchor, b)])
        if m is not None:
            out.append(m)
    return out


def automorphisms(g):
    return isomorphisms_between(g, g)


def _transported_word(cycles, iso):
    """The reference word of the normalized `cycles` carried along `iso`."""
    word = []
    for c in cycles:
        image = [iso[x] for x in c]
        word.append(_vsym(image))
        word.extend(image)
    return word


def transport_sign(g1, g2, iso):
    """Sign picked up by an orientation transported along `iso`."""
    return word_parity(_transported_word(g1.vertices, iso), reference_word(g2.vertices))


def reference_canonical_oriented(og):
    """Canonical key of an oriented isomorphism class.

    Returns (literal, sign), with sign None when the class carries an
    orientation-reversing automorphism (so <Gamma> = 0).
    """
    lit, maps = canonical_form(og.graph)
    target = reference_word(lit[0])
    signs = {og.sign * word_parity(_transported_word(og.graph.vertices, m), target) for m in maps}
    if len(signs) == 2:
        return lit, None
    return lit, signs.pop()


def chain_of(og, coeff=1):
    """The chain <Gamma> for one oriented graph (zero if the class is)."""
    key, sign = canonical_oriented(og)
    chain = GraphChain(grading=og.graph.codimension)
    if sign is not None:
        chain.add(key, Fraction(coeff) * sign)
    return chain


def dual_cell_simplices(base):
    """The dual cell of an oriented base graph, as simplices (top, steps).

    Yields ((top, steps), sign) over every maximal chain of objects over
    the base: a trivalent object `top` together with an ordering of its
    forest edges, one edge per step.  The sign compares the orientation
    induced from the natural orientation of the trivalent object with the
    +1 orientation of the base's reference ordering.
    """
    fc = ForestComplex(base)
    base_labels = set(base.half_edges)
    for key in fc.levels[0]:
        top = graph_from_key(key)
        forest = [e for e in top.edges()
                  if e[0] not in base_labels and e[1] not in base_labels]
        for order in permutations(forest):
            steps = tuple((e,) for e in order)
            cycles, pairing, sign = collapse_steps(top.vertices, top.pairing, steps)
            if cycles != base.vertices or pairing != base.pairing:
                raise GraphError("dual cell chain did not land on the base")
            yield (top, steps), sign


# ---------------------------------------------------------------------------
# planar trees: the nested-composition generator, the corolla, corner
# regions and the dual cell
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


def reference_trivalent_trees(leaf_count):
    """All trivalent planar trees, from nested binary splits of the leaves:
    the generator that `trees.face_sets` replaced."""
    return list(_all_trees(leaf_count, binary_only=True))


def reference_faces(n, k):
    """All k-faces of K^n, from nested compositions of the leaves."""
    if not 0 <= k <= n:
        raise GraphError("need 0 <= k <= n")
    want = n - k
    return [t for t in _all_trees(n + 3, binary_only=False, max_vertices=want + 1)
            if len(t.pairing) // 2 == want]

def corolla(n):
    return PlanarTree(n + 3, [tuple(range(n + 3))], [])


def cut_intervals(tree):
    """A tree's cut-interval set: for each internal edge, the leaves
    (first, size) that either half-edge's branch holds, taken on the side
    away from leaf 0."""
    intervals, L = branch_intervals(tree), tree.leaf_count
    return frozenset(one_sided(*intervals[x], L) for x, _ in tree.internal_edges())


def face_bits(tree):
    """A tree's face bitmask, bit first * L + size for each cut interval
    (first, size), encoded here apart from `trees`."""
    L = tree.leaf_count
    return sum(1 << first * L + size for first, size in cut_intervals(tree))


def corner_regions(tree):
    """The region of the corner following each half-edge at its vertex:
    region j is the gap between leaf j and leaf j+1, and the corner after
    h closes off the branch through h, so its region is that branch's
    last leaf."""
    L = tree.leaf_count
    return {h: (first + size - 1) % L for h, (first, size) in branch_intervals(tree).items()}


def region_touch_sets(tree):
    """For each vertex index, the set of regions touching it."""
    corners = corner_regions(tree)
    return {i: {corners[h] for h in c} for i, c in enumerate(tree.vertices)}


def dual_cell(n):
    """The signed sum of maximal chains of K^n, as {chain key: sign}."""
    out = {}
    for simplex, sign in maximal_chains(n):
        key = _chain_key(*simplex)
        out[key] = out.get(key, 0) + sign
    return out


# ---------------------------------------------------------------------------
# the region sign rule on planar trees, which `trees.region_sign` replaced
# ---------------------------------------------------------------------------

class ConfigurationMismatch(GraphError):
    pass


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
# the K^{2m} scan: the recursive window walk
# ---------------------------------------------------------------------------

def _append_level(tuples, regions):
    """Signed tuples [(region mask S, sign)] extended by each region x of
    the next level, which is not in S: x follows every entry of S, so each
    entry above x is one more inversion, and the sign flips when their
    number, (S >> x).bit_count(), is odd."""
    return [(s | 1 << x, -sign if (s >> x).bit_count() & 1 else sign)
            for s, sign in tuples for x in regions]


def _level_sum(tuples, regions):
    """The sign sum of `_append_level(tuples, regions)`."""
    return sum(-sign if (s >> x).bit_count() & 1 else sign
               for s, sign in tuples for x in regions)


def _scaled_value(total, size_product, constant, scale):
    """`scale` times the adjusted cyclic-set cocycle of a chain of 2k+1
    region sets whose sizes multiply to `size_product` and whose signed
    tuples sum to `total`, as an exact int, with `constant` the part's
    `_cocycle_constant(k)`; raises ArithmeticError when it is not one."""
    if not total:
        return 0
    denom = constant * size_product
    value, rem = divmod(total * scale, denom)
    if rem:
        raise ArithmeticError("scaled cocycle value %d*%d/%d is not an integer"
                              % (total, scale, denom))
    return value


def reference_windows(face, k, leaf_count):
    """{end face: signed scaled value} of the windows of part k that
    collapse 2k edges of `face`, by walking every order of collapses that
    grows one blob from a first edge: the walk that `coefficients._windows`
    replaced.  Each walk track (one per endpoint of the first edge)
    carries its signed region tuples (S, sign) and the product of its
    region-set sizes.  End faces whose orders cancel keep their 0."""
    bits = _region_bits(leaf_count)
    constant, scale = _cocycle_constant(k), _part_scale(k, leaf_count)
    codes, ends, masks, incident = face_layout(face, leaf_count)
    out = {}
    free0 = (1 << len(codes)) - 1

    def walk(left, used, end, blob, blob_mask, blob_edges, sgn0, tracks):
        # the collapse of face edge ei flips the sign once for each
        # face edge before it
        free = free0 & ~used
        for ei in bits[blob_edges & free]:
            sgn = -sgn0 if (free & ((1 << ei) - 1)).bit_count() & 1 else sgn0
            u, w = ends[ei]
            # a tree edge never has both endpoints in the blob
            other = w if blob >> u & 1 else u
            delta = masks[other] & ~blob_mask
            size = (blob_mask | delta).bit_count()
            if left > 1:
                walk(left - 1, used | 1 << ei, end & ~codes[ei], blob | 1 << other,
                     blob_mask | delta, blob_edges | incident[other], sgn,
                     [(weight, size_product * size, _append_level(tuples, bits[delta]))
                      for weight, size_product, tuples in tracks])
            else:
                value = sum(weight * _scaled_value(_level_sum(tuples, bits[delta]),
                                                   size_product * size, constant, scale)
                            for weight, size_product, tuples in tracks)
                if value:
                    last = end & ~codes[ei]
                    out[last] = out.get(last, 0) + sgn * value

    for ei in bits[free0]:
        u, w = ends[ei]
        mu, mw = masks[u], masks[w]
        size = (mu | mw).bit_count()
        walk(2 * k - 1, 1 << ei, face & ~codes[ei], 1 << u | 1 << w, mu | mw,
             incident[u] | incident[w],
             -1 if (free0 & ((1 << ei) - 1)).bit_count() & 1 else 1,
             [(c0.bit_count() - 2, c0.bit_count() * size,
               _append_level([(1 << x, 1) for x in bits[c0]], bits[c1 & ~c0]))
              for c0, c1 in ((mu, mw), (mw, mu))])
    return out


# ---------------------------------------------------------------------------
# A-infinity relations and cyclic symmetry in Fraction
# ---------------------------------------------------------------------------

def m_basis(algebra, args):
    """m_k on a tuple of basis indices, as a sparse vector."""
    return algebra.products.get(len(args), {}).get(tuple(args), {})


def reference_verify_ainfinity(algebra, max_arity):
    """`verify_ainfinity` summed in `Fraction`: the offending (arity,
    tuple) pairs of the A-infinity relations up to the total arity."""
    failures = []
    for k in range(1, max_arity + 1):
        for args in product(range(algebra.rank), repeat=k):
            total = {}
            for s in range(1, k + 1):
                for r in range(0, k - s + 1):
                    t = k - s - r
                    inner = m_basis(algebra, args[r:r + s])
                    if not inner:
                        continue
                    u = r + s * t + s * sum(algebra.parities[a] for a in args[:r])
                    sign = (-1) ** u
                    for mid, c_mid in inner.items():
                        outer_args = args[:r] + (mid,) + args[r + s:]
                        for j, c in m_basis(algebra, outer_args).items():
                            total[j] = total.get(j, 0) + sign * c_mid * c
            if any(total.values()):
                failures.append((k, args))
    return failures


def reference_cyclicity_failures(algebra):
    """`AInfinityAlgebra.cyclicity_failures` in `Fraction`."""
    bad = []
    for k in sorted(algebra.products):
        for args in product(range(algebra.rank), repeat=k + 1):
            x0, rest = args[0], args[1:]
            lhs = sum(c * algebra.pairing[j][x0] for j, c in m_basis(algebra, rest).items())
            rhs = sum(c * algebra.pairing[j][args[-1]]
                      for j, c in m_basis(algebra, args[:-1]).items())
            sign = (-1) ** (k + algebra.parities[x0] + k * algebra.parities[x0])
            if lhs != sign * rhs:
                bad.append((k, args))
    return bad
