from fractions import Fraction

import pytest

from fatcomplex.coefficients import double_factorial
from fatcomplex.ribbon import GraphError, OrientedRibbonGraph, build_graph
from reference import (
    CyclicSetChain,
    EvenLength,
    LengthMismatch,
    PlanarTree,
    RepeatedElement,
    adjusted_cz,
    c_fat,
    collapse_edge,
    corner_chain,
    corner_collapse_map,
    cup_product,
    cyclic_sign,
    cz,
    dual_cell_simplices,
    region_chain,
    tree_chains,
)
from test_trees import tree_at


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105


def test_cyclic_sign_basics():
    assert cyclic_sign(("a", "b", "c"), ("a", "b", "c")) == 1
    assert cyclic_sign(("a", "c", "b"), ("a", "b", "c")) == -1
    # rotating the ambient set does not change the sign of an odd tuple
    assert cyclic_sign(("a", "b", "c"), ("b", "c", "a")) == 1
    # rotating the tuple itself is even
    assert cyclic_sign(("b", "c", "a"), ("a", "b", "c")) == 1
    with pytest.raises(EvenLength):
        cyclic_sign(("a", "b"), ("a", "b", "c"))
    with pytest.raises(RepeatedElement):
        cyclic_sign(("a", "a", "b"), ("a", "b", "c"))


def test_cyclic_sign_alternates_under_transposition():
    ambient = tuple(range(7))
    tup = (3, 0, 5, 2, 6)
    base = cyclic_sign(tup, ambient)
    for i in range(4):
        swapped = list(tup)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert cyclic_sign(tuple(swapped), ambient) == -base


def sign_sum_word(word):
    """Sum of sgn(a, b, c) over the positions of the letter 'a', where
    word is over the alphabet a, b, c and b, c appear once each."""
    ambient = tuple(range(len(word)))
    b = word.index("b")
    c = word.index("c")
    total = 0
    for i, ch in enumerate(word):
        if ch == "a":
            total += cyclic_sign((i, b, c), ambient)
    return total


def test_sign_sum_case_1_word():
    # the word a^m c a^(2n-m+3) b has sign sum 2n - 2m + 3
    for n in range(0, 3):
        for m in range(1, 2 * n + 3):
            word = "a" * m + "c" + "a" * (2 * n - m + 3) + "b"
            assert sign_sum_word(word) == 2 * n - 2 * m + 3


def test_sign_sum_case_2a_word():
    # sgn(a^(2n+3) b c) sums to 2n+3
    for n in range(0, 3):
        word = "a" * (2 * n + 3) + "b" + "c"
        assert sign_sum_word(word) == 2 * n + 3


def test_cz_case_2a_chain():
    # chain 5 -> 6 -> 7 with the new elements appended in cyclic order
    ambient = tuple(range(7))
    chain = CyclicSetChain(ambient, [frozenset(range(5)),
                                     frozenset(range(6)),
                                     frozenset(range(7))])
    assert cz(1, chain) == Fraction(-1, 84)
    assert adjusted_cz(1, chain) == Fraction(1, 168)


def test_cz_zero_when_size_stalls():
    ambient = tuple(range(5))
    chain = CyclicSetChain(ambient, [frozenset(range(4)),
                                     frozenset(range(4)),
                                     frozenset(range(5))])
    assert cz(1, chain) == 0


def test_cz_vanishing_split_chain():
    # a 4 -> 5 -> 6 chain whose first set straddles the two later
    # elements symmetrically has vanishing sign sum
    ambient = tuple(range(6))
    chain = CyclicSetChain(ambient, [frozenset({0, 1, 3, 4}),
                                     frozenset({0, 1, 2, 3, 4}),
                                     frozenset(range(6))])
    assert cz(1, chain) == 0


def test_no_3_4_5_chain_vanishes():
    # with |C_0| = 3 the sign sum is odd, so it can never vanish
    from itertools import combinations
    ambient = tuple(range(5))
    found_zero = False
    for c0 in combinations(range(5), 3):
        rest = [x for x in range(5) if x not in c0]
        for mid in rest:
            chain = CyclicSetChain(ambient, [frozenset(c0),
                                             frozenset(c0) | {mid},
                                             frozenset(range(5))])
            if cz(1, chain) == 0:
                found_zero = True
    assert not found_zero


def test_cz_length_mismatch():
    ambient = tuple(range(5))
    chain = CyclicSetChain(ambient, [frozenset(range(4)), frozenset(range(5))])
    with pytest.raises(LengthMismatch):
        cz(1, chain)


def test_c_fat_degenerate_simplex_is_zero():
    g = build_graph([(1, 2, 3), (6, 5, 4)], [(1, 4), (2, 5), (3, 6)])
    assert c_fat(1, (g, [(), ()])) == 0


def test_case_1_full_cocycle_value():
    # tree with one vertex of valence 2n+3 carrying both edges, collapsed
    # e1 then e2: the adjusted cocycle of the 2-simplex evaluates to
    # -(2n - 2m + 3) / (2 (2n+3) (2n+4) (2n+5))
    for n in (0, 1, 2):
        L = 2 * n + 5
        e1m, e1p, e2m, e2p = L, L + 1, L + 2, L + 3
        for m in range(1, 2 * n + 3):
            # leaves h_1..h_{2n+5} are 0..L-1
            v0 = (e1m,) + tuple(range(0, m - 1)) + (e2m,) + tuple(range(m + 1, 2 * n + 3))
            v1 = (e1p, 2 * n + 3, 2 * n + 4)
            v2 = (e2p, m - 1, m)
            t = PlanarTree(L, [v0, v1, v2], [(e1m, e1p), (e2m, e2p)])
            value = c_fat(1, (t, [((e1m, e1p),), ((e2m, e2p),)]))
            expected = Fraction(-(2 * n - 2 * m + 3),
                                2 * (2 * n + 3) * (2 * n + 4) * (2 * n + 5))
            assert value == expected


def window_corner_chain(top, steps, cycle):
    """The corner chain of a vertex along a window (top, steps)."""
    return CyclicSetChain(*corner_chain(top.vertices, top.pairing, steps, cycle))


def reference_tree_corner_chain(trees, edges, vertex_cycle):
    """The tree-only corner tracker as first written, frozen: corners of
    the image vertex, tracked through each collapse by sector
    containment, the image vertex found from the surviving half-edges.
    `trees` are the trees of a window and `edges` its collapsed edges."""
    maps = []
    for t, e in zip(trees, edges):
        maps.append(corner_collapse_map(t.vertices, t.pairing, e[0]))

    vertex_cycles = [tuple(vertex_cycle)]
    current = set(vertex_cycle)
    for i, t in enumerate(trees[1:]):
        survivors = current - set(edges[i])
        vertex = next(c for c in t.vertices if survivors & set(c))
        vertex_cycles.append(vertex)
        current = set(vertex)

    ambient = vertex_cycles[-1]
    images = []
    for i, vc in enumerate(vertex_cycles):
        xs = list(vc)
        for step in maps[i:]:
            xs = [step.get(x, x) for x in xs]
        if len(set(xs)) != len(vc):
            raise GraphError("corner monomorphism failed on tree chain")
        images.append(frozenset(xs))
    return CyclicSetChain(ambient, images)


def test_corner_model_agrees_with_region_model_on_k2():
    for simplex, _ in tree_chains(2):
        for cycle in simplex[0].vertices:
            corner = window_corner_chain(*simplex, cycle)
            region = region_chain(*simplex, cycle)
            assert corner.sizes() == region.sizes()
            assert adjusted_cz(1, corner) == adjusted_cz(1, region)


def test_corner_model_agrees_with_region_model_on_k4_windows():
    for simplex, _ in tree_chains(4)[:200]:
        for start, k in ((0, 1), (2, 1), (0, 2)):
            top, steps = tree_at(simplex, start), simplex[1][start:start + 2 * k]
            for cycle in top.vertices:
                corner = window_corner_chain(top, steps, cycle)
                region = region_chain(top, steps, cycle)
                assert adjusted_cz(k, corner) == adjusted_cz(k, region)


def test_corner_chain_matches_frozen_tree_tracker_on_k2_k4_windows():
    # every window of every maximal chain of K^2 and K^4, from every
    # vertex of its first tree: the same ambient and corner sets
    checked = 0
    for n in (2, 4):
        for simplex, _ in tree_chains(n):
            trees = [tree_at(simplex, i) for i in range(n + 1)]
            edges = [e for (e,) in simplex[1]]
            for start in range(n + 1):
                for stop in range(start, n + 1):
                    for cycle in trees[start].vertices:
                        got = window_corner_chain(trees[start], simplex[1][start:stop], cycle)
                        want = reference_tree_corner_chain(trees[start:stop + 1],
                                                           edges[start:stop], cycle)
                        assert got.ambient == want.ambient
                        assert got.images == want.images
                        checked += 1
    assert checked > 0


def test_cup_product_single_part_is_window():
    # against the region model, summed over the seed's vertices
    simplex, _ = tree_chains(2)[3]
    seed, steps = simplex
    want = sum((len(c) - 2) * adjusted_cz(1, region_chain(seed, steps, c))
               for c in seed.vertices)
    assert want and cup_product((1,), simplex) == want


def test_cocycle_coboundary_vanishes_on_nerve_simplices():
    # the alternating sum of the adjusted cocycle over the four 2-faces
    # of every 3-simplex over a codimension-3 base vanishes; the inner
    # faces concatenate two steps into one two-edge collapse
    from fatcomplex.graph_complex import enumerate_graphs

    base = enumerate_graphs(6, valences=(6,))[0]
    count = 0
    for (top, (s1, s2, s3)), _ in dual_cell_simplices(base):
        after_first = collapse_edge(OrientedRibbonGraph(top), s1[0]).graph
        faces = [
            (after_first, (s2, s3)),
            (top, (s1 + s2, s3)),
            (top, (s1, s2 + s3)),
            (top, (s1, s2)),
        ]
        total = Fraction(0)
        for i, face in enumerate(faces):
            total += (-1) ** i * c_fat(1, face)
        assert total == 0
        count += 1
    assert count == 84


def test_cup_product_vanishing_factor():
    # if some window has no growing vertex the product vanishes; windows
    # always have a growing vertex on maximal chains, so force a length
    # mismatch error instead
    simplex, _ = tree_chains(2)[0]
    with pytest.raises(LengthMismatch):
        cup_product((1, 1), simplex)
