"""Ribbon graphs (fat graphs) as labelled combinatorial maps.

A ribbon graph is a finite set of integer half-edge labels together with
a partition into cyclically ordered vertices and a fixed-point-free
pairing of half-edges into edges.  Orientations follow the
Conant-Vogtmann convention: an orientation is an ordering of the set of
vertices and half-edges, stored as a sign relative to a fixed reference
ordering (vertices sorted by their minimum half-edge label, each vertex
followed by its cycle read from its minimum label).

Carried along a relabelling, an orientation changes sign by the parity
of the carried reference word against the relabelled graph's reference
word, and only even-valent vertices count (`_transport_sign`): reading a
p-cycle from another start is a rotation, odd only for even p and an
odd shift; and moving a vertex's block of p + 1 symbols past another's
q + 1 is odd only when p and q are both even.  So each even-valent
vertex adds the position, inside its cycle, of its least image label,
and its inversions against the least image labels of the even-valent
vertices before it.

An isomorphism class is keyed by the literal (normalized cycles, sorted
edge pairs) of its relabeling with the least walk code: a walk from a
root half-edge labels the half-edges 0..H-1, and its code lists the
labels of the sigma-successor and the mate of each half-edge in label
order (`_least_code`, which walks only the roots whose first elements,
read off the tables, are least, and drops a root at its first larger
element).

The same low-level machinery (orientation words and edge collapse with
induced sign) also drives planar trees, where some half-edges are
unpaired leaves.
"""


class GraphError(ValueError):
    pass


class NotInvolution(GraphError):
    pass


class FixedPoint(GraphError):
    pass


class ValenceTooLow(GraphError):
    pass


class Disconnected(GraphError):
    pass


class DanglingHalfEdge(GraphError):
    pass


class LoopCollapse(GraphError):
    pass


# ---------------------------------------------------------------------------
# permutation parity and orientation words
# ---------------------------------------------------------------------------

def word_parity(word_a, word_b):
    """Sign of the permutation carrying ordering `word_a` to `word_b`,
    by walking its cycles: a cycle of even length is odd.

    Both words must list the same distinct symbols.  As orientations,
    [word_a] == word_parity(word_a, word_b) * [word_b].  The sign of the
    permutation sorting distinct values w is word_parity(w, sorted(w)).
    """
    pos = {x: i for i, x in enumerate(word_b)}
    if len(pos) != len(word_a) or len(word_a) != len(word_b) or pos.keys() != set(word_a):
        raise ValueError("words must list the same distinct symbols")
    perm = [pos[x] for x in word_a]
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _rotate_min(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:]) + tuple(cycle[:i])


def _normalize_cycles(cycles):
    return tuple(sorted((_rotate_min(tuple(c)) for c in cycles), key=lambda c: c[0]))


def _vsym(cycle):
    # vertex symbol, stable across rewordings of the same graph
    return ("v", min(cycle))


def reference_word(cycles):
    """The reference ordering of vertices-and-half-edges for `cycles`.

    `cycles` must already be normalized (min label first, sorted).
    """
    word = []
    for c in cycles:
        word.append(_vsym(c))
        word.extend(c)
    return word


def _edge_list(pairing):
    return sorted({(min(a, b), max(a, b)) for a, b in pairing.items()})


def collapse_cycles(cycles, pairing, half_edge):
    """Collapse the edge containing `half_edge`, no orientation tracking.

    Returns (new_cycles, new_pairing, merged_cycle).  The merged vertex
    cycle is (h_1..h_n, k_1..k_m) when the endpoints are (e-, h_1..h_n)
    and (e+, k_1..k_m).
    """
    h = half_edge
    hbar = pairing[h]
    u = w = None
    for c in cycles:
        if h in c:
            u = tuple(c)
        if hbar in c:
            w = tuple(c)
    if u == w:
        raise LoopCollapse("cannot collapse a loop")
    iu, iw = u.index(h), w.index(hbar)
    merged = u[iu + 1:] + u[:iu] + w[iw + 1:] + w[:iw]
    new_cycles = [merged] + [tuple(c) for c in cycles if h not in c and hbar not in c]
    new_pairing = {a: b for a, b in pairing.items() if a not in (h, hbar)}
    return _normalize_cycles(new_cycles), new_pairing, merged


def collapse_oriented(cycles, pairing, sign, half_edge):
    """Collapse a non-loop edge with the induced orientation sign.

    `cycles` normalized, `sign` relative to reference_word(cycles).
    Orient the edge from the vertex of `half_edge` to its mate, put
    source first and target second; the coalesced vertex replaces them
    in front and the remaining vertices and edges keep their order.
    """
    h = half_edge
    hbar = pairing[h]
    u = w = None
    for c in cycles:
        if h in c:
            u = c
        if hbar in c:
            w = c
    if u is None or w is None:
        raise GraphError("half-edge not in graph")
    if u == w:
        raise LoopCollapse("cannot collapse a loop")

    others = [c for c in cycles if c is not u and c is not w]
    other_edges = [e for e in _edge_list(pairing) if h not in e and hbar not in e]
    paired = set(pairing)
    legs = sorted(x for c in cycles for x in c if x not in paired)

    word = [_vsym(u), _vsym(w)] + [_vsym(c) for c in others] + [h, hbar]
    for a, b in other_edges:
        word.extend((a, b))
    word.extend(legs)
    s = sign * word_parity(reference_word(cycles), word)

    new_cycles, new_pairing, merged = collapse_cycles(cycles, pairing, h)
    word2 = [_vsym(merged)] + [_vsym(c) for c in others]
    for a, b in other_edges:
        word2.extend((a, b))
    word2.extend(legs)
    s *= word_parity(word2, reference_word(new_cycles))
    return new_cycles, new_pairing, s


def collapse_steps(cycles, pairing, steps):
    """Collapse the edges of each step in order, as `collapse_oriented`
    from sign +1.  Returns the end (cycles, pairing, sign)."""
    sign = 1
    for step in steps:
        for a, _ in step:
            cycles, pairing, sign = collapse_oriented(cycles, pairing, sign, a)
    return cycles, pairing, sign


# ---------------------------------------------------------------------------
# ribbon graphs
# ---------------------------------------------------------------------------

class RibbonGraph:
    """An immutable connected ribbon graph with valences >= 3."""

    __slots__ = ("vertices", "pairing", "half_edges", "_sigma", "_vertex_of", "_edges")

    def __init__(self, vertex_cycles, edge_pairs):
        cycles = [tuple(c) for c in vertex_cycles]
        labels = [x for c in cycles for x in c]
        if len(labels) != len(set(labels)):
            raise DanglingHalfEdge("duplicate half-edge label in vertex cycles")
        label_set = set(labels)
        pairing = {}
        for pair in edge_pairs:
            a, b = pair
            if a == b:
                raise FixedPoint("edge pairing has a fixed point: %r" % (a,))
            if a in pairing or b in pairing:
                raise NotInvolution("half-edge paired twice")
            pairing[a] = b
            pairing[b] = a
        if set(pairing) != label_set:
            raise DanglingHalfEdge("pairing and vertex cycles use different half-edges")
        for c in cycles:
            if len(c) < 3:
                raise ValenceTooLow("vertex %r has valence %d < 3" % (c, len(c)))
        self._set(_normalize_cycles(cycles), pairing, tuple(sorted(label_set)))
        if not self._connected():
            raise Disconnected("graph is not connected")

    def _set(self, vertices, pairing, half_edges):
        self.vertices = vertices
        self.pairing = pairing
        self.half_edges = half_edges
        self._sigma = None
        self._vertex_of = None
        self._edges = None

    @classmethod
    def _trusted(cls, vertices, pairing, half_edges):
        """A graph from parts known to be valid, with no checks:
        `vertices` normalized, `pairing` the full involution and
        `half_edges` the sorted labels."""
        g = cls.__new__(cls)
        g._set(vertices, pairing, half_edges)
        return g

    def _connected(self):
        if not self.vertices:
            return False
        sigma = self.sigma()
        seen = {self.half_edges[0]}
        stack = [self.half_edges[0]]
        while stack:
            h = stack.pop()
            for nxt in (sigma[h], self.pairing[h]):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.half_edges)

    def sigma(self):
        """Next half-edge counterclockwise at the same vertex."""
        if self._sigma is None:
            nxt = {}
            for c in self.vertices:
                for i, h in enumerate(c):
                    nxt[h] = c[(i + 1) % len(c)]
            self._sigma = nxt
        return self._sigma

    def vertex_of(self, h):
        if self._vertex_of is None:
            self._vertex_of = {x: c for c in self.vertices for x in c}
        return self._vertex_of[h]

    def edge_tuple(self):
        """The sorted (min, max) edge pairs, computed once per graph."""
        if self._edges is None:
            self._edges = tuple(_edge_list(self.pairing))
        return self._edges

    def edges(self):
        return list(self.edge_tuple())

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.half_edges) // 2

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges

    @property
    def codimension(self):
        return sum(len(c) - 3 for c in self.vertices)

    def valences(self):
        return tuple(sorted((len(c) for c in self.vertices), reverse=True))

    def boundary_cycles(self):
        """Face orbits of the map, plus (genus, punctures).

        The face permutation sends h to sigma(pairing(h)); its orbits
        are the boundary components of the thickened surface, and the
        genus comes from chi = 2 - 2g - s.
        """
        sigma = self.sigma()
        seen = set()
        faces = []
        for h in self.half_edges:
            if h in seen:
                continue
            orbit = []
            x = h
            while x not in seen:
                seen.add(x)
                orbit.append(x)
                x = sigma[self.pairing[x]]
            faces.append(_rotate_min(orbit))
        s = len(faces)
        chi = self.euler_characteristic
        genus2 = 2 - s - chi
        if genus2 % 2 != 0 or genus2 < 0:
            raise GraphError("impossible Euler characteristic")
        return faces, genus2 // 2, s

    def literal(self):
        """Canonical-comparison form: (vertex cycles, edge pairs)."""
        return (self.vertices, self.edge_tuple())

    def relabel(self, mapping):
        cycles = [tuple(mapping[x] for x in c) for c in self.vertices]
        pairs = [(mapping[a], mapping[b]) for a, b in self.edge_tuple()]
        return RibbonGraph(cycles, pairs)

    def __eq__(self, other):
        return isinstance(other, RibbonGraph) and self.literal() == other.literal()

    def __hash__(self):
        return hash(self.literal())

    def __repr__(self):
        return "RibbonGraph(%r, %r)" % (list(self.vertices), self.edges())


def build_graph(vertex_cycles, edge_pairs):
    """Validate and build a ribbon graph from cycles and an edge pairing."""
    return RibbonGraph(vertex_cycles, edge_pairs)


class OrientedRibbonGraph:
    """A ribbon graph with a sign relative to the reference ordering."""

    __slots__ = ("graph", "sign")

    def __init__(self, graph, sign=1):
        if sign not in (1, -1):
            raise GraphError("orientation sign must be +1 or -1")
        self.graph = graph
        self.sign = sign

    def __eq__(self, other):
        return (isinstance(other, OrientedRibbonGraph)
                and self.graph == other.graph and self.sign == other.sign)

    def __hash__(self):
        return hash((self.graph.literal(), self.sign))

    def __repr__(self):
        return "OrientedRibbonGraph(%r, sign=%+d)" % (self.graph, self.sign)


def natural_orientation(g):
    """The natural orientation of an odd-valent ribbon graph.

    Any word listing each vertex followed by its half-edges in cyclic
    order is an even permutation of the reference word when all
    valences are odd, so the natural orientation has sign +1.
    """
    if any(len(c) % 2 == 0 for c in g.vertices):
        raise GraphError("natural orientation needs all valences odd")
    return OrientedRibbonGraph(g, 1)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _transport_sign(cycles, image):
    """The sign an orientation picks up when carried along the relabelling
    `image`: the parity of the reference word of `cycles` carried along
    `image` against the reference word of the normalized image cycles,
    read off without building either word.

    Only even-valent vertices count.  Each adds the position, inside its
    cycle, of its least image label, and its inversions against the least
    image labels of the even-valent vertices before it (the module
    docstring says why).
    """
    parity = 0
    leasts = []
    for c in cycles:
        if len(c) % 2:
            continue
        image_c = [image[h] for h in c]
        least = min(image_c)
        parity += image_c.index(least)
        for m in leasts:
            parity += m > least
        leasts.append(least)
    return -1 if parity & 1 else 1


def _position_tables(cycles, pairing, labels):
    """The sorted half-edge `labels` as positions 0..H-1: the position of
    each label, the cycles over positions, and sigma and the pairing as
    lists of positions.  An unpaired half-edge (a leaf) is its own mate.

    Labels that are exactly 0..H-1 are their own positions, so `labels`
    itself is the index and the cycles are kept as they are.  Sorted
    distinct labels are 0..H-1 when the first is 0 and the last H - 1;
    neither end alone suffices, as a label may be skipped or negative.
    """
    n = len(labels)
    if labels[0] == 0 and labels[-1] == n - 1:
        index = labels
    else:
        index = {h: i for i, h in enumerate(labels)}
        cycles = [tuple([index[h] for h in c]) for c in cycles]
    succ = [0] * n
    for c in cycles:
        for i, h in enumerate(c):
            succ[h] = c[i + 1 - len(c)]
    return index, cycles, succ, [index[pairing.get(h, h)] for h in labels]


def key_over(fixed, vertices, succ, mate, sign):
    """The key of an object over a base and its sign, from position
    tables whose first positions are the base's sorted labels `fixed`
    and whose others lie above them.  The base keeps its labels.  A walk
    from position 0 visits positions in the order it reaches them and
    from each reaches its sigma-successor, then its mate, and the others
    get the labels fixed[-1] + 1, ... as it reaches them.  Returns
    ((cycles, pairs), sign): the relabeled normalized cycles, the sorted
    (min, max) pairs (a leaf is its own mate and forms no pair), and
    `sign` transported along the relabeling."""
    final = list(fixed) + [None] * (len(succ) - len(fixed))
    fresh = fixed[-1] + 1
    seen = [False] * len(succ)
    seen[0] = True
    order = [0]
    for h in order:
        nxt = succ[h]
        if not seen[nxt]:
            seen[nxt] = True
            order.append(nxt)
            if final[nxt] is None:
                final[nxt] = fresh
                fresh += 1
        nxt = mate[h]
        if not seen[nxt]:
            seen[nxt] = True
            order.append(nxt)
            if final[nxt] is None:
                final[nxt] = fresh
                fresh += 1
    cycles = []
    for c in vertices:
        image = [final[h] for h in c]
        i = image.index(min(image))
        cycles.append(tuple(image[i:] + image[:i]))
    cycles.sort()
    pairs = sorted([(final[h], final[m]) for h, m in enumerate(mate) if final[h] < final[m]])
    return (tuple(cycles), tuple(pairs)), sign * _transport_sign(vertices, final)


def _least_code(succ, mate):
    """The key of the map with sigma `succ` and pairing `mate` over
    positions from the root with the least walk code, and, in root
    order, (order, label) for every root that ties with it (one per
    automorphism).

    Each root half-edge seeds the labelling of a walk that visits
    positions in label order and labels the sigma-successor, then the
    mate, of each if they have no label yet.  A root's code lists, for
    each h in walk order, the labels s of sigma(h) and m of its mate as
    one integer s * H + m, which orders as the pair (s, m), emitted as
    soon as both are labelled.  Each element is compared there and then
    with the same element of the best code so far (a plantri-style
    early abandon): the root is dropped at the first larger element, and
    at the first smaller one it becomes the best and walks on without
    comparing.  A code determines its labelled graph, so roots tie
    exactly when their relabelings give the same literal.

    Only the roots whose first elements are least are walked, as those
    elements are read off the tables (s = succ, m = mate, r the root):
      - loop roots (s r = m r), walked alone when there are any:
        (1, 1), (2, 0), then (0, 3) if s^3 r = r, else (3, 3) if
        s(s^2 r) = m(s^2 r), else (3, 4);
      - otherwise (1, 2), then (2, 3) at gap-2 roots (s^2 r = m r) and
        (3, 4) at the rest;
      - after (2, 3): (3, 0) if s(m r) = m(s r), else (4, 0);
      - after (3, 4): (4, 0) if s(m r) = m(s r), else (5, 0);
      - after (5, 0): (a, b), where a is 0 if s^3 r = r, 2 if
        s^3 r = m r and else new (6), and b is 5 if m(s^2 r) = s(m r)
        and else new.
    Each is the walk's step when every valence is >= 3 and no half-edge
    is its own mate, the precondition here (trees and forests key through
    `key_over`): any other coincidence is a valence below 3 or a loop or
    gap-2 root at r, s r, m r or s^2 r, which an earlier case takes.  The
    best code is listed only once a second root needs comparing.

    The key is built once, from the first tied root.  The walk reaches
    every vertex first at one half-edge, which therefore carries the
    vertex's least label, and it reaches vertices in increasing order of
    those labels.  So the relabeled normalized cycles are the cycles read
    from their entry half-edges, in the order of entry, and the sorted
    edge pairs are read off the labels in increasing order.
    """
    n = len(succ)
    ranks = None
    if roots := [r for r in range(n) if succ[r] == mate[r]]:
        ranks = [0 if succ[x] == r else 1 if succ[x] == mate[x] else 2
                 for r in roots for x in [succ[succ[r]]]]
    elif roots := [r for r in range(n) if succ[succ[r]] == mate[r]]:
        ranks = [succ[mate[r]] != mate[succ[r]] for r in roots]
    elif not (roots := [r for r in range(n) if succ[mate[r]] == mate[succ[r]]]):
        roots = range(n)
        ranks = [2 * (0 if succ[x] == r else 1 if succ[x] == mate[r] else 2)
                 + (mate[x] != succ[mate[r]]) for r in roots for x in [succ[succ[r]]]]
    if ranks:
        least = min(ranks)
        roots = [r for r, k in zip(roots, ranks) if k == least]
    best = None
    ties = []
    for root in roots:
        label = [-1] * n
        label[root] = 0
        order = [root]
        walk = iter(order)
        if ties:
            if best is None:
                first, known = ties[0]
                best = [known[succ[h]] * n + known[mate[h]] for h in first]
            for k, h in enumerate(walk):
                nxt = succ[h]
                if label[nxt] < 0:
                    label[nxt] = len(order)
                    order.append(nxt)
                step = label[nxt] * n
                nxt = mate[h]
                if label[nxt] < 0:
                    label[nxt] = len(order)
                    order.append(nxt)
                step += label[nxt]
                if step != best[k]:
                    break
            else:
                ties.append((order, label))
                continue
            if step > best[k]:
                continue
        # the first root, or one whose code is already smaller
        for h in walk:
            nxt = succ[h]
            if label[nxt] < 0:
                label[nxt] = len(order)
                order.append(nxt)
            nxt = mate[h]
            if label[nxt] < 0:
                label[nxt] = len(order)
                order.append(nxt)
        best = None
        ties = [(order, label)]

    order, label = ties[0]
    entered = [False] * n
    cycles = []
    for h in order:
        if not entered[h]:
            cycle = []
            x = h
            while not entered[x]:
                entered[x] = True
                cycle.append(label[x])
                x = succ[x]
            cycles.append(tuple(cycle))
    pairs = tuple([(i, label[mate[h]]) for i, h in enumerate(order) if label[mate[h]] > i])
    return (tuple(cycles), pairs), ties


def canonical_form(g):
    """The relabeled literal of `g` with the least walk code, with all
    relabelings achieving it (one per automorphism), in the order of
    their roots: `_least_code` with each tied root's order as a map
    old -> new label."""
    _, _, succ, mate = _position_tables(g.vertices, g.pairing, g.half_edges)
    lit, ties = _least_code(succ, mate)
    labels = g.half_edges
    return lit, [{labels[h]: i for i, h in enumerate(order)} for order, _ in ties]


def oriented_key(vertices, succ, mate, sign):
    """Canonical key of the oriented class with position tables
    `vertices` (in reference order), `succ` and `mate` and orientation
    `sign`.

    Returns (literal, sign), with sign None when the class carries an
    orientation-reversing automorphism (so <Gamma> = 0).  The sign of
    each tied root is `_transport_sign` along its labels.
    """
    lit, ties = _least_code(succ, mate)
    signs = {_transport_sign(vertices, label) for _, label in ties}
    if len(signs) == 2:
        return lit, None
    return lit, sign * signs.pop()


def canonical_oriented(og):
    """`oriented_key` of an oriented graph."""
    g = og.graph
    _, vertices, succ, mate = _position_tables(g.vertices, g.pairing, g.half_edges)
    return oriented_key(vertices, succ, mate, og.sign)


def graph_from_key(lit):
    """The graph of a key made by `canonical_form` or `key_over`,
    without validation: such a key is the relabeled literal of a valid
    graph, with normalized cycles and sorted pairs, which the graph keeps
    as its edge tuple.  Graphs from outside input go through
    `build_graph`."""
    cycles, pairs = lit
    pairing = {}
    for a, b in pairs:
        pairing[a] = b
        pairing[b] = a
    g = RibbonGraph._trusted(cycles, pairing, tuple(sorted(pairing)))
    g._edges = tuple(pairs)
    return g


# ---------------------------------------------------------------------------
# vertex expansions
# ---------------------------------------------------------------------------

def vertex_expansions(og):
    """Every single-vertex expansion of `og`, with the unique orientation
    that collapses back to `og`, as position tables (vertices, succ,
    mate, sign): the cycles in reference order, and sigma and the
    pairing as lists.  The tables of `og` are built once, and its
    expansions share one `mate` list.

    A vertex cycle c of valence p >= 4 splits at each pair of cut
    positions 0 <= i < j < p, in that order, into the blocks c[i:j] and
    c[j:] + c[:i] of size >= 2, joined by a fresh edge: (p^2 - 3p)/2
    expansions.  With H half-edges the fresh ones are positions H, in
    c[i:j], and H + 1, those of the labels top + 1 and top + 2 with top
    the largest label, so positions keep label order.  The expansion of
    a valid graph is valid: its labels are distinct, its pairing an
    involution, every valence >= 3 and the graph connected.

    The sign is that of `collapse_oriented` on the new edge, counted as
    one parity.  Write the normalized cycle as c = A + X + B, where the
    new vertex y = A + (hy,) + B keeps c[0], and with it c's symbol and
    place in the reference word, and the new vertex x is X + (hx,) read
    from its least label X[r].  In the two words that `collapse_oriented`
    compares, the other vertices and the edges cancel.  That leaves the
    parity of [x, hx, hy] + reference_word(V) against the expanded
    graph's reference word, with x also standing for its symbol.  The
    transpositions: the first three symbols move to c's place past the
    `before` symbols of the vertices ahead of c; inside c's segment, c's
    symbol moves past 3 symbols, A past 3, B past 2 + |X| and X[r:] past
    1 + r, giving [c] + A + [hy] + B + [x] + X[r:] + [hx] + X[:r]; then
    the |X| + 2 symbols of x's segment move past the `between` symbols
    of the vertices whose least label lies between c[0] and X[r].
    """
    g = og.graph
    _, vertices, succ, mate = _position_tables(g.vertices, g.pairing, g.half_edges)
    vertices = list(vertices)
    n = len(succ)
    mate = mate + [n + 1, n]
    before = 0
    for k, c in enumerate(vertices):
        p = len(c)
        for i in range(p - 1):
            for j in range(i + 2, min(p, i + p - 1)):
                # c[0] is in the first block c[i:j] exactly when i == 0
                a, b, hx, hy = (j, p, n + 1, n) if i == 0 else (i, j, n, n + 1)
                block = c[a:b]
                r = block.index(min(block))
                x = block[r:] + (hx,) + block[:r]
                m = k + 1
                between = 0
                while m < len(vertices) and vertices[m][0] < x[0]:
                    between += len(vertices[m]) + 1
                    m += 1
                y = c[:a] + (hy,) + c[b:]
                cycles = vertices[:k] + [y] + vertices[k + 1:m] + [x] + vertices[m:]
                # y runs on from hy to c[b], x from hx to c[a]
                sigma = succ + ([c[b % p], c[a]] if hy == n else [c[a], c[b % p]])
                sigma[c[a - 1]], sigma[c[b - 1]] = hy, hx
                size = b - a
                moves = (3 * before + 3 + 3 * a + (2 + size) * (p - b) + (1 + r) * (size - r)
                         + (2 + size) * between)
                yield cycles, sigma, mate, -og.sign if moves & 1 else og.sign
        before += p + 1
