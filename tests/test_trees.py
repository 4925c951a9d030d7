import math
from itertools import accumulate, permutations

import pytest

from fatcomplex import trees
from fatcomplex.linalg import sparse_product, sparse_rank
from fatcomplex.graph_complex import forest_complex
from fatcomplex.ribbon import (
    GraphError,
    RibbonGraph,
    collapse_oriented,
    collapse_steps,
    reference_word,
    word_parity,
)
from fatcomplex.trees import (
    chain_sign,
    dual_cell_boundary_check,
    enumerate_trivalent_trees,
    face_count,
    face_layout,
    face_sets,
    maximal_chains,
    region_sign,
    tree_from_face,
)
from reference import (
    ConfigurationMismatch,
    PlanarTree,
    canonical_tree,
    chain_key,
    corner_regions,
    corolla,
    dual_cell,
    edge_bits,
    enumerate_faces,
    face_bits,
    lemma_region_sign,
    reference_faces,
    reference_trivalent_trees,
    region_touch_sets,
    tree_chains,
    trivalent_trees,
    vertex_of,
)


def regions_touching(tree, cycle):
    """Regions around a vertex, cyclically ordered by its corners.

    A region touches the vertices on the tree path between its two
    leaves, which are the vertices with a corner in it.
    """
    corners = corner_regions(tree)
    return tuple(corners[h] for h in cycle)


def order_sign(tree, order):
    """The chain sign of collapsing the edges of `tree` in this order."""
    return collapse_steps(tree.vertices, tree.pairing, [order])[2]


def tree_at(simplex, i):
    """The tree of a chain (seed, steps) after step i, by collapsing the seed."""
    seed, steps = simplex
    cycles, pairing, _ = collapse_steps(seed.vertices, seed.pairing, steps[:i])
    return PlanarTree(seed.leaf_count, cycles, [(a, b) for a, b in pairing.items() if a < b])


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_trivalent_tree_counts():
    assert len(enumerate_trivalent_trees(3)) == 1
    assert len(enumerate_trivalent_trees(5)) == 5
    assert len(enumerate_trivalent_trees(7)) == 42


def test_trivalent_tree_counts_up_to_nine_leaves():
    for leaves in range(3, 10):
        assert len(enumerate_trivalent_trees(leaves)) == catalan(leaves - 2)


def test_enumerate_faces_pentagon():
    assert len(face_sets(2, 2)) == 1
    assert len(face_sets(2, 1)) == 5
    assert len(face_sets(2, 0)) == 5
    assert len(face_sets(1, 0)) == 2


def test_face_counts_k3_k4():
    assert [len(face_sets(3, k)) for k in range(4)] == [14, 21, 9, 1]
    assert [len(face_sets(4, k)) for k in range(5)] == [42, 84, 56, 14, 1]


def test_face_count_matches_enumeration():
    for n in range(7):
        for k in range(n + 1):
            assert face_count(n, k) == len(face_sets(n, k))


def _checked(tree):
    """The tree rebuilt by the checked constructor, which raises on an
    invalid one."""
    return PlanarTree(tree.leaf_count, tree.vertices, tree.internal_edges())


def test_trees_are_valid_and_deduplicated():
    # every face of K^0..K^6 and every trivalent tree with 9 and 11
    # leaves: the tables of `tree_from_face` make a valid tree whose
    # bitmask and edge bits, read off the contour walk, give back its
    # face and its edge table, and the faces are the reference
    # generator's, each once
    for n in range(7):
        for k in range(n + 1):
            faces = trees.face_sets(n, k)
            assert len(set(faces)) == len(faces)
            reference = reference_faces(n, k)
            assert {face_bits(t) for t in reference} == set(faces)
            literals = {t.literal() for t in reference}
            built = []
            for face in faces:
                cycles, pairing, edges = tree_from_face(face, n + 3)
                tree = PlanarTree(n + 3, cycles, [(h, pairing[h]) for h in edges.values()])
                assert tree.pairing == pairing
                assert face_bits(tree) == face
                # one bit per edge: two equal bits would carry, leaving
                # the sum fewer bits than the face has
                assert sum(edge_bits(tree).values()) == face
                assert {bit: x for (x, _), bit in edge_bits(tree).items()} == edges
                assert tree.literal() in literals
                built.append(tree)
            assert len({canonical_tree(t).literal() for t in built}) == len(faces)
    for leaves in (9, 11):
        built = trivalent_trees(leaves)
        assert [_checked(t) for t in built] == reference_trivalent_trees(leaves)
        assert [face_bits(t) for t in built] == enumerate_trivalent_trees(leaves)


def test_enumerators_reject_bad_input():
    with pytest.raises(GraphError):
        enumerate_trivalent_trees(2)
    with pytest.raises(GraphError):
        face_sets(2, 3)
    with pytest.raises(GraphError):
        face_sets(2, -1)


def test_bad_leaf_order_rejected():
    # swap two leaves of the corolla: contour order breaks
    with pytest.raises(GraphError):
        PlanarTree(4, [(0, 2, 1, 3)], [])


def test_maximal_chain_counts():
    assert len(maximal_chains(0)) == 1
    assert maximal_chains(0)[0][1] == 1
    assert len(maximal_chains(2)) == 10
    assert len(maximal_chains(4)) == 1008


def test_chain_sign_antisymmetry_under_transposition():
    for n in (2, 3):
        for face in enumerate_trivalent_trees(n + 3):
            tree = tree_from_face(face, n + 3)
            for order in permutations(face_layout(face, n + 3)[0]):
                base = chain_sign(tree, order)
                for i in range(n - 1):
                    swapped = list(order)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    assert chain_sign(tree, swapped) == -base


def test_maximal_chains_match_the_tree_chains():
    # the face chains of K^0..K^4 against the chains of seed trees, keyed
    # through the contour walk: the same chain keys with the same signs
    for n in range(5):
        faces = {tuple(accumulate(order, lambda f, bit: f & ~bit, initial=face)): sign
                 for (face, order), sign in maximal_chains(n)}
        tree_side = {chain_key(*simplex): sign for simplex, sign in tree_chains(n)}
        assert len(faces) == len(tree_side) == math.factorial(n) * catalan(n + 1)
        assert faces == tree_side


def test_case_2a_orientation_words():
    # One non-trivalent vertex of valence 2n+3 = 3 (n=0): leaves 0..4,
    # v0 = (e1-, 0, 1), v1 = (e1+, 2, e2-), v2 = (e2+, 3, 4).
    # Collapsing e1 then e2 induces minus the natural orientation on the
    # corolla, while the region permutation sign is +1.
    t0 = PlanarTree(5, [(5, 0, 1), (6, 2, 7), (8, 3, 4)], [(5, 6), (7, 8)])
    c1, p1, s1 = collapse_oriented(t0.vertices, t0.pairing, 1, 5)
    # the merged vertex is (0, 1, 2, 7)
    assert c1 == ((0, 1, 2, 7), (3, 4, 8))
    # paper word for T_1: v0 e2- v2 e2+ h1...h5
    expected = word_parity([("v", 0), 7, ("v", 3), 8, 0, 1, 2, 3, 4],
                           reference_word(c1))
    assert s1 == expected
    c2, _, s2 = collapse_oriented(c1, p1, s1, 7)
    assert c2 == ((0, 1, 2, 3, 4),)
    assert s2 == -1
    assert order_sign(t0, [(5, 6), (7, 8)]) == -1
    assert lemma_region_sign(t0, [(5, 6), (7, 8)], v0=(5, 0, 1)) == -1
    # the underlying region permutation sign is +1: regions at v0 plus
    # the two off-regions b1 = 2, b2 = 3 sort evenly into cyclic order
    v0 = vertex_of(t0, 5)
    regions = list(regions_touching(t0, v0)) + [2, 3]
    assert word_parity(regions, sorted(regions)) == 1


def test_case_2b_orientation_words():
    # v0 = (e1-, 0, 1), v1 = (e1+, e2-, 4), v2 = (e2+, 2, 3): collapsing
    # e1 then e2 induces plus the natural orientation on the corolla.
    t0 = PlanarTree(5, [(5, 0, 1), (6, 7, 4), (8, 2, 3)], [(5, 6), (7, 8)])
    assert order_sign(t0, [(5, 6), (7, 8)]) == 1
    assert lemma_region_sign(t0, [(5, 6), (7, 8)], v0=(5, 0, 1)) == 1


def test_case_1_sign_parametrized():
    # both edges at the big vertex: for n=0 the lemma gives sign (-1)^(m-1)
    # via the words; check a couple of explicit m configurations
    # m=1: v0 = (e1-, e2-, h3), v1 = (e1+, h4, h5), v2 = (e2+, h1, h2)
    # with leaves h1..h5 = 0..4
    t_m1 = PlanarTree(5, [(5, 7, 2), (6, 3, 4), (8, 0, 1)], [(5, 6), (7, 8)])
    sign = order_sign(t_m1, [(5, 6), (7, 8)])
    assert sign == 1  # (-1)^(m-1) with m=1
    assert lemma_region_sign(t_m1, [(5, 6), (7, 8)], v0=(5, 7, 2)) == sign
    # n=1, m=2: v0 = (e1-, h1, e2-, h4, h5) of valence 5, leaves 0..6
    t_m2 = PlanarTree(7, [(7, 0, 9, 3, 4), (8, 5, 6), (10, 1, 2)],
                      [(7, 8), (9, 10)])
    sign2 = order_sign(t_m2, [(7, 8), (9, 10)])
    assert sign2 == -1  # (-1)^(m-1) with m=2
    assert lemma_region_sign(t_m2, [(7, 8), (9, 10)]) == sign2


def test_lemma_region_sign_exhaustive_small():
    # every seed with one vertex of valence 5 and two extra edges
    count = 0
    for t in enumerate_faces(2, 0) + enumerate_faces(3, 1) + enumerate_faces(4, 2):
        valences = sorted((len(c) for c in t.vertices), reverse=True)
        if len(t.internal_edges()) != 2 or valences.count(3) != len(valences) - 1:
            continue
        if valences[0] == 3:
            continue
        for order in permutations(t.internal_edges()):
            assert lemma_region_sign(t, list(order)) == order_sign(t, order)
            count += 1
    assert count > 0


def test_regions_touching_counts():
    c = corolla(2)
    assert len(regions_touching(c, c.vertices[0])) == 5
    # caterpillar with 5 leaves: vertex adjacent to leaves 0 and 1
    t = PlanarTree(5, [(5, 0, 1), (6, 2, 7), (8, 3, 4)], [(5, 6), (7, 8)])
    v = vertex_of(t, 0)
    regs = regions_touching(t, v)
    assert len(regs) == 3


def _reference_vertex_path(adj, start, goal):
    """The vertex indices on the tree path from `start` to `goal`, by BFS."""
    prev = {start: None}
    queue = [start]
    for v in queue:
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = {goal}
    v = goal
    while prev[v] is not None:
        v = prev[v]
        path.add(v)
    return path


def _reference_region_touch_sets(tree):
    """The path model: region j touches the vertices on the tree path
    between leaf j and leaf j+1."""
    index = {c: i for i, c in enumerate(tree.vertices)}
    adj = {i: [] for i in index.values()}
    for a, b in tree.internal_edges():
        u, w = index[vertex_of(tree, a)], index[vertex_of(tree, b)]
        adj[u].append(w)
        adj[w].append(u)
    leaf_vertex = {x: i for c, i in index.items() for x in c if x not in tree.pairing}
    L = tree.leaf_count
    touch = {i: set() for i in index.values()}
    for j in range(L):
        for v in _reference_vertex_path(adj, leaf_vertex[j], leaf_vertex[(j + 1) % L]):
            touch[v].add(j)
    return touch


def _reference_branch_leaves(tree, h):
    """Leaves of the subtree hanging off half-edge h (h itself if a leaf), by DFS."""
    if h not in tree.pairing:
        return {h}
    seen = set()
    stack = [tree.pairing[h]]
    leaves = set()
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        for y in vertex_of(tree, x):
            if y == x:
                continue
            if y in tree.pairing:
                if tree.pairing[y] not in seen:
                    stack.append(tree.pairing[y])
            else:
                leaves.add(y)
    return leaves


def _reference_corner_region(tree, h):
    """The corner model: the corner after h belongs to the region closing
    off the branch through h."""
    branch = _reference_branch_leaves(tree, h)
    return next(leaf for leaf in branch if (leaf + 1) % tree.leaf_count not in branch)


def test_regions_touching_agrees_with_path_model():
    # every face of K^0..K^5 and the trivalent trees with 9 and 11 leaves
    faces = [t for n in range(6) for k in range(n + 1) for t in enumerate_faces(n, k)]
    for t in faces + trivalent_trees(9) + trivalent_trees(11):
        assert region_touch_sets(t) == _reference_region_touch_sets(t)
        for c in t.vertices:
            assert regions_touching(t, c) == tuple(_reference_corner_region(t, h) for h in c)


def test_region_growth_along_chains_of_k2():
    for simplex, _ in tree_chains(2):
        for i, (e,) in enumerate(simplex[1]):
            before = tree_at(simplex, i)
            after = tree_at(simplex, i + 1)
            u, w = vertex_of(before, e[0]), vertex_of(before, e[1])
            merged = [c for c in after.vertices if c not in before.vertices][0]
            ru = set(regions_touching(before, u))
            rw = set(regions_touching(before, w))
            rm = set(regions_touching(after, merged))
            assert rm == ru | rw
            assert len(rm) == len(merged)


def test_dual_cell_small():
    d0 = dual_cell(0)
    assert len(d0) == 1 and set(d0.values()) == {1}
    d1 = dual_cell(1)
    assert len(d1) == 2
    assert sorted(d1.values()) == [-1, 1]
    d2 = dual_cell(2)
    assert len(d2) == 10
    assert all(v in (-1, 1) for v in d2.values())
    # a chain key names the i-face at position i, and distinct faces
    # get distinct keys
    for n in range(5):
        keys = dual_cell(n)
        for i in range(n + 1):
            assert len({key[i] for key in keys}) == face_count(n, i)


def test_dual_cell_boundary_identity():
    for n in (1, 2, 3):
        lhs, rhs = dual_cell_boundary_check(n)
        assert lhs == rhs


def test_dual_cell_boundary_identity_fails_on_a_wrong_chain_sign(monkeypatch):
    # one chain with the wrong sign leaves its face terms for i < n uncancelled
    chains_of = trees.maximal_chains

    def flipped(n):
        chains = chains_of(n)
        simplex, sign = chains[0]
        chains[0] = (simplex, -sign)
        return chains

    monkeypatch.setattr(trees, "maximal_chains", flipped)
    for n in (2, 3):
        lhs, rhs = dual_cell_boundary_check(n)
        assert lhs != rhs


def one_big_vertex_base(n):
    """A ribbon graph whose only vertex of valence > 3 has valence n + 3:
    one vertex with adjacent half-edges paired when n + 3 is even, and
    otherwise also a trivalent vertex with a loop.  The forest complex
    over it is the cellular chain complex of K^n."""
    big = n + 3
    if big % 2 == 0:
        return RibbonGraph([tuple(range(big))], [(i, i + 1) for i in range(0, big, 2)])
    return RibbonGraph([tuple(range(big)), (big, big + 1, big + 2)],
                       [(i, i + 1) for i in range(0, big - 1, 2)]
                       + [(big - 1, big), (big + 1, big + 2)])


def test_cellular_complex_d_squared_zero_and_euler():
    for n in range(1, 6):
        fc = forest_complex(one_big_vertex_base(n))
        dims = fc.ranks()
        assert dims == [face_count(n, k) for k in range(n + 1)]
        # Euler characteristic of a contractible polytope
        assert sum((-1) ** k * dims[k] for k in range(n + 1)) == 1
        assert fc.d_squared_is_zero()
        # K^n is a convex polytope, so its homology is that of a point
        ranks = [0] + [sparse_rank(fc.matrices[k]) for k in range(1, n + 1)] + [0]
        homology = [dims[k] - ranks[k] - ranks[k + 1] for k in range(n + 1)]
        assert homology == [1] + [0] * n
    # one changed entry of d_2 on K^3 leaves a nonzero product
    maps = forest_complex(one_big_vertex_base(3)).matrices
    entry = min(maps[2])
    maps[2][entry] += 1
    assert any(sparse_product(maps[1], maps[2]).values())


def test_degree_statement_chainwise():
    # the raw region-permutation sign of every maximal chain differs from
    # its bookkeeping sign by exactly (-1)^binom(n+1, 2), the degree of
    # the simplex embedding in the top cell
    for n in (2, 4):
        k = n // 2
        twist = (-1) ** math.comb(n + 1, 2)
        assert twist == (-1) ** k
        for simplex, sign in tree_chains(n):
            seed, steps = simplex
            edges = [e for (e,) in steps]
            raw_region_sign = (lemma_region_sign(seed, edges, v0=vertex_of(seed, edges[0][0]))
                               * (-1) ** k)
            assert raw_region_sign * sign == twist


def test_lemma_region_sign_k0_and_bad_configuration():
    # k = 0: no edges to collapse, the sign is trivially +1
    assert lemma_region_sign(corolla(2), []) == 1
    # all-trivalent seeds need v0 to be named
    seed = trivalent_trees(5)[0]
    with pytest.raises(ConfigurationMismatch):
        lemma_region_sign(seed, list(seed.internal_edges()))
    # wrong edge list
    big = PlanarTree(7, [(7, 0, 9, 3, 4), (8, 5, 6), (10, 1, 2)],
                     [(7, 8), (9, 10)])
    with pytest.raises(ConfigurationMismatch):
        lemma_region_sign(big, [(7, 8), (8, 9)])
    # an odd number of edges
    odd = PlanarTree(6, [(6, 0, 1), (7, 2, 3, 4, 5)], [(6, 7)])
    with pytest.raises(ConfigurationMismatch):
        lemma_region_sign(odd, [(6, 7)])
    # a vertex other than v0 that is not trivalent
    with pytest.raises(ConfigurationMismatch):
        lemma_region_sign(big, [(7, 8), (9, 10)], v0=(8, 5, 6))


def test_region_lookup_facts():
    # on every face of K^n, n <= 5: the flanks of an edge (x, y) are the
    # regions cr[x] and cr[y] after x and after y, and at a trivalent
    # endpoint of h the third region, touching the edge only there, is
    # cr[sigma[h]]
    for n in range(6):
        for k in range(n + 1):
            for t in enumerate_faces(n, k):
                cr, sigma, touch = corner_regions(t), t.sigma(), region_touch_sets(t)
                index = {h: i for i, c in enumerate(t.vertices) for h in c}
                for x, y in t.internal_edges():
                    flanks = touch[index[x]] & touch[index[y]]
                    assert flanks == {cr[x], cr[y]} and cr[x] != cr[y]
                    for h in (x, y):
                        if len(vertex_of(t, h)) == 3:
                            assert touch[index[h]] - flanks == {cr[sigma[h]]}


def test_region_rule_at_either_end_of_the_first_edge_on_k6():
    # every order of three K^6 seeds, with v0 at either endpoint of e_1
    for seed in [trivalent_trees(9)[i] for i in (0, 200, 428)]:
        for order in permutations(seed.internal_edges()):
            sign = order_sign(seed, order)
            for h in order[0]:
                assert lemma_region_sign(seed, list(order), v0=vertex_of(seed, h)) == sign


def test_region_sign_gives_the_scan_seed_sign_on_k2_to_k8():
    # the scan's s0: the rule at vertex 1, the child of the first edge in
    # interval order, against the collapse bookkeeping in that order, on
    # every trivalent seed of K^2, K^4, K^6 and K^8
    count = 0
    for n in (2, 4, 6, 8):
        L = n + 3
        for face in face_sets(n, 0):
            codes = face_layout(face, L)[0]
            assert region_sign(face, codes, 1, L) == chain_sign(tree_from_face(face, L), codes)
            count += 1
    assert count == 5 + 42 + 429 + 4862


def test_region_sign_at_either_end_of_e1_on_every_maximal_chain_of_k2_k4():
    # both the face rule and the tree rule give the chain sign with v0 at
    # either endpoint of the first edge collapsed
    for n, count in ((2, 10), (4, 1008)):
        L = n + 3
        chains = tree_chains(n)
        assert len(chains) == count
        for (seed, steps), sign in chains:
            face, code = face_bits(seed), edge_bits(seed)
            edges = [e for (e,) in steps]
            order = [code[e] for e in edges]
            codes, ends, _, _ = face_layout(face, L)
            for v0 in ends[codes.index(order[0])]:
                assert region_sign(face, order, v0, L) == sign
            for h in edges[0]:
                assert lemma_region_sign(seed, edges, v0=vertex_of(seed, h)) == sign


def test_region_sign_matches_the_tree_rule_at_a_big_vertex():
    # every seed with one vertex of valence 5, 7 or 9 and two trivalent
    # ones, and every order of its two edges
    for valence in (5, 7, 9):
        seeds = [t for t in enumerate_faces(valence - 1, valence - 3)
                 if sorted(len(c) for c in t.vertices) == [3, 3, valence]]
        assert seeds
        for seed in seeds:
            face, code = face_bits(seed), edge_bits(seed)
            masks = face_layout(face, seed.leaf_count)[2]
            big = [v for v, mask in enumerate(masks) if mask.bit_count() == valence]
            assert len(big) == 1
            for order in permutations(seed.internal_edges()):
                assert (region_sign(face, [code[e] for e in order], big[0], seed.leaf_count)
                        == lemma_region_sign(seed, list(order)))
