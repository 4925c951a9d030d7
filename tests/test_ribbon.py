import itertools

import pytest

from fatcomplex.ribbon import (
    Disconnected,
    FixedPoint,
    GraphError,
    LoopCollapse,
    NotInvolution,
    OrientedRibbonGraph,
    RibbonGraph,
    ValenceTooLow,
    DanglingHalfEdge,
    build_graph,
    canonical_oriented,
    graph_from_key,
    natural_orientation,
    reference_word,
    word_parity,
)
from reference import (
    BadSplit,
    automorphisms,
    canonical_over,
    canonical_tree,
    collapse_edge,
    corner_chain,
    enumerate_expansions,
    expand_vertex,
    is_loop,
    isomorphisms_between,
    reversed_orientation,
    transport_sign,
    traverse,
)


def orientation_from_word(g, word):
    """Orientation determined by an explicit vertices-and-half-edges word.

    Vertices are named in the word by ('v', min half-edge of the cycle).
    """
    return OrientedRibbonGraph(g, word_parity(word, reference_word(g.vertices)))


def has_orientation_reversing_automorphism(g):
    return any(transport_sign(g, g, a) == -1 for a in automorphisms(g))


def single_collapse_morphisms(g1, g2):
    """All morphisms g1 -> g2 collapsing exactly one edge, with the sign
    relating the pushed-forward natural-reference orientation of g1 to
    the reference orientation of g2.

    Returns a list of (edge, iso, sign): collapse `edge` of g1, then
    relabel by the isomorphism `iso` onto g2.
    """
    out = []
    for e in g1.edges():
        if is_loop(g1, e):
            continue
        collapsed = collapse_edge(OrientedRibbonGraph(g1, 1), e)
        for iso in isomorphisms_between(collapsed.graph, g2):
            out.append((e, iso, collapsed.sign * transport_sign(collapsed.graph, g2, iso)))
    return out


def theta(planar=True):
    if planar:
        return build_graph([(1, 2, 3), (6, 5, 4)], [(1, 4), (2, 5), (3, 6)])
    return build_graph([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])


def figure8(pairs=((1, 2), (3, 4))):
    return build_graph([(1, 2, 3, 4)], pairs)


def dumbbell():
    return build_graph([(1, 2, 3), (4, 5, 6)], [(1, 2), (4, 5), (3, 6)])


def test_word_parity_small_permutations():
    # identity, a transposition, a 3-cycle and the empty word
    assert word_parity([0, 1, 2], [0, 1, 2]) == 1
    assert word_parity([1, 0, 2], [0, 1, 2]) == -1
    assert word_parity([2, 0, 1], [0, 1, 2]) == 1
    assert word_parity([], []) == 1


def test_word_parity_sort_sign_matches_inversion_count():
    import random

    def inversion_sign(values):
        sign = 1
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if values[i] > values[j]:
                    sign = -sign
        return sign

    for perm in itertools.permutations(range(6)):
        assert word_parity(perm, sorted(perm)) == inversion_sign(perm)
    rng = random.Random(11)
    for size in range(12):
        for _ in range(20):
            values = rng.sample(range(-40, 40), size)
            assert word_parity(values, sorted(values)) == inversion_sign(values)


def test_word_parity_rejects_words_of_different_symbols():
    # equal lengths, but a repeated symbol or a symbol the other word lacks
    for word_a, word_b in (([1, 1], [1, 2]), ([1, 3], [1, 2]), ([1, 2], [1, 1])):
        with pytest.raises(ValueError):
            word_parity(word_a, word_b)


def test_word_parity_matches_bruteforce():
    word = ["a", "b", "c", "d", "e"]
    for perm in itertools.permutations(range(5)):
        other = [word[i] for i in perm]
        # count inversions
        inv = sum(1 for i in range(5) for j in range(i + 1, 5) if perm[i] > perm[j])
        assert word_parity(other, word) == (-1) ** inv


def test_build_graph_theta():
    g = theta()
    assert g.num_vertices == 2
    assert g.num_edges == 3
    assert g.euler_characteristic == -1


def test_build_graph_rejects_low_valence():
    with pytest.raises(ValenceTooLow):
        build_graph([(1, 2), (3, 4)], [(1, 3), (2, 4)])


def test_build_graph_figure8():
    g = figure8()
    assert g.euler_characteristic == 1 - 2 == -1
    assert g.codimension == 1


def test_build_graph_error_cases():
    with pytest.raises(FixedPoint):
        build_graph([(1, 2, 3, 4)], [(1, 1), (2, 3)])
    with pytest.raises(NotInvolution):
        build_graph([(1, 2, 3, 4)], [(1, 2), (2, 3)])
    with pytest.raises(DanglingHalfEdge):
        build_graph([(1, 2, 3)], [(1, 2)])
    with pytest.raises(Disconnected):
        # two self-contained double loops joined by nothing
        build_graph([(1, 2, 3, 4), (5, 6, 7, 8)], [(1, 2), (3, 4), (5, 6), (7, 8)])


def test_boundary_cycles_theta_planar():
    faces, genus, punctures = theta(planar=True).boundary_cycles()
    assert punctures == 3
    assert genus == 0


def test_boundary_cycles_theta_nonplanar():
    faces, genus, punctures = theta(planar=False).boundary_cycles()
    assert punctures == 1
    assert genus == 1


def test_boundary_cycles_figure8_both_structures():
    seen = set()
    for pairs in [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]:
        g = figure8(pairs)
        _, genus, punctures = g.boundary_cycles()
        assert 2 - 2 * genus - punctures == g.euler_characteristic == -1
        seen.add((genus, punctures))
    assert seen == {(0, 3), (1, 1)}


def test_collapse_bridge_of_dumbbell_gives_figure8():
    og = natural_orientation(dumbbell())
    out = collapse_edge(og, (3, 6))
    assert out.graph.num_vertices == 1
    assert len(out.graph.half_edges) == 4
    # both remaining edges are loops on the single vertex
    assert all(is_loop(out.graph, e) for e in out.graph.edges())


def test_collapse_loop_raises():
    og = natural_orientation(dumbbell())
    with pytest.raises(LoopCollapse):
        collapse_edge(og, (1, 2))


def test_orientation_word_collapse_bookkeeping():
    # v1 = (e1, b, c), v2 = (e2, d, a) with e = {e1, e2}; collapsing e
    # turns the word v1 e1 b c v2 e2 d a into v a b c d.
    e1, b, c, e2, d, a = 1, 2, 3, 4, 5, 6
    g = build_graph([(e1, b, c), (e2, d, a)], [(e1, e2), (b, d), (c, a)])
    og = orientation_from_word(g, [("v", 1), e1, b, c, ("v", 4), e2, d, a])
    out = collapse_edge(og, (e1, e2))
    assert out.graph.vertices == ((2, 3, 5, 6),)
    expected = orientation_from_word(out.graph, [("v", 2), a, b, c, d])
    assert out.sign == expected.sign


def test_two_collapse_orders_give_opposite_signs():
    # exhaustively over the 2-edge forests of small corpus graphs
    graphs = [theta(True), theta(False), dumbbell()]
    for g in graphs:
        og = natural_orientation(g)
        nonloops = [e for e in g.edges() if not is_loop(g, e)]
        for e1, e2 in itertools.permutations(nonloops, 2):
            try:
                first = collapse_edge(collapse_edge(og, e1), e2)
                second = collapse_edge(collapse_edge(og, e2), e1)
            except LoopCollapse:
                continue
            assert first.graph == second.graph
            assert first.sign == -second.sign


def test_collapse_spanning_tree_of_theta():
    out = collapse_edge(natural_orientation(theta()), (1, 4))
    assert out.graph.num_vertices == 1
    assert out.graph.num_edges == 2


def test_natural_orientation_invariance():
    # recomputing the sign from any rotated/permuted natural word gives +1
    g = theta(planar=False)
    cycles = g.vertices
    for order in itertools.permutations(range(len(cycles))):
        for r1 in range(3):
            for r2 in range(3):
                rots = (r1, r2)
                word = []
                for idx in order:
                    c = cycles[idx]
                    k = rots[idx]
                    rot = c[k:] + c[:k]
                    word.append(("v", min(c)))
                    word.extend(rot)
                assert orientation_from_word(g, word).sign == 1


def test_automorphism_count_nonplanar_theta():
    g = theta(planar=False)
    auts = automorphisms(g)
    assert len(auts) == 6


def test_automorphisms_form_group_and_sign_is_homomorphism():
    for g in [theta(True), theta(False), dumbbell(), figure8()]:
        auts = automorphisms(g)
        keyed = {tuple(sorted(a.items())) for a in auts}
        assert tuple(sorted({h: h for h in g.half_edges}.items())) in keyed
        for a in auts:
            for b in auts:
                ab = {h: b[a[h]] for h in g.half_edges}
                assert tuple(sorted(ab.items())) in keyed
                assert (transport_sign(g, g, ab)
                        == transport_sign(g, g, a) * transport_sign(g, g, b))


def test_aut_acts_freely_on_hom():
    g1 = theta(planar=True)
    g2 = theta(planar=False)
    for a, b in [(g1, g1), (g2, g2), (g1, g2)]:
        isos = isomorphisms_between(a, b)
        if isos:
            assert len(isos) % len(automorphisms(a)) == 0
            assert len(isos) % len(automorphisms(b)) == 0


def test_identity_automorphism_sign():
    g = theta()
    assert transport_sign(g, g, {h: h for h in g.half_edges}) == 1


def test_expansion_counts():
    # one vertex of valence p expands in (p^2 - 3p)/2 ways
    for p, expected in [(4, 2), (5, 5), (7, 14)]:
        cycle = tuple(range(1, p + 1))
        # pair every half-edge with a second big vertex of the same valence
        aux = tuple(range(p + 1, 2 * p + 1))
        pairs = [(cycle[i], aux[i]) for i in range(p)]
        g = build_graph([cycle, aux], pairs)
        og = OrientedRibbonGraph(g, 1)
        exps = enumerate_expansions(og, cycle)
        assert len(exps) == expected
        # collapsing the fresh edge restores the graph and orientation
        for exp, edge in exps:
            back = collapse_edge(exp, edge)
            assert back.graph == g
            assert back.sign == og.sign


def test_collapse_then_expand_is_identity():
    # collapsing a non-loop edge and expanding with the matching split
    # recovers the oriented isomorphism class
    from fatcomplex.ribbon import canonical_oriented

    g = theta(planar=False)
    og = natural_orientation(g)
    for e in g.edges():
        collapsed = collapse_edge(og, e)
        v = collapsed.graph.vertices[0] if len(collapsed.graph.vertices[0]) >= 4 \
            else collapsed.graph.vertices[1]
        found = False
        for expanded, new_edge in enumerate_expansions(collapsed, v):
            if canonical_oriented(expanded) == canonical_oriented(og):
                found = True
        assert found


def test_expansions_pairwise_distinct_over_base():
    # the forest complex keys expansions by their class over the base
    g = figure8()
    og = OrientedRibbonGraph(g, 1)
    exps = enumerate_expansions(og, g.vertices[0])
    keys = {canonical_over(set(g.half_edges), exp.graph.vertices, exp.graph.pairing,
                           exp.sign)[0] for exp, _ in exps}
    assert len(exps) == len(keys) == 2


def test_expand_vertex_bad_inputs():
    g = figure8()
    og = OrientedRibbonGraph(g, 1)
    with pytest.raises(BadSplit):
        expand_vertex(og, g.vertices[0], (0, 1))
    # a rotation of a vertex cycle is not one of the graph's cycles
    cycle = g.vertices[0]
    with pytest.raises(GraphError):
        expand_vertex(og, cycle[1:] + cycle[:1], (0, 2))
    tri = theta()
    with pytest.raises(Exception):
        expand_vertex(OrientedRibbonGraph(tri, 1), tri.vertices[0], (0, 2))


def _reference_expand_vertex(og, cycle, split):
    """expand_vertex as it was before it built expansions unchecked: a
    validated RibbonGraph, signed by collapsing the new edge back."""
    from fatcomplex.ribbon import collapse_oriented

    i, j = split
    block1 = cycle[i:j]
    block2 = cycle[j:] + cycle[:i]
    top = max(og.graph.half_edges)
    eminus, eplus = top + 1, top + 2
    new_cycles = [c for c in og.graph.vertices if c != cycle]
    new_cycles.append((eminus,) + block1)
    new_cycles.append((eplus,) + block2)
    expanded = RibbonGraph(new_cycles, og.graph.edges() + [(eminus, eplus)])
    cycles, pairing, sign = collapse_oriented(expanded.vertices, expanded.pairing, 1, eminus)
    assert cycles == og.graph.vertices and pairing == og.graph.pairing
    return OrientedRibbonGraph(expanded, og.sign * sign), (eminus, eplus)


def test_expand_vertex_matches_reference():
    # every split of every vertex of every class within 10 half-edges,
    # and of a seeded random relabeling of it, in both orientations: the
    # reference expansion equals the validated build signed by collapse,
    # and `vertex_expansions` yields its position tables and sign, in
    # order.  The sign's term for the vertices between the two new ones
    # is odd only from 10 half-edges on.
    import random

    from fatcomplex.graph_complex import enumerate_graphs
    from fatcomplex.ribbon import _position_tables, vertex_expansions

    rng = random.Random(8)
    checked = flips = 0
    for g in enumerate_graphs(10):
        labels = list(g.half_edges)
        relabeled = g.relabel(dict(zip(labels, rng.sample(range(1, 4 * len(labels)), len(labels)))))
        for graph in (g, relabeled):
            for sign in (1, -1):
                og = OrientedRibbonGraph(graph, sign)
                tables = []
                for cycle in graph.vertices:
                    p = len(cycle)
                    for i, j in itertools.combinations(range(p), 2):
                        if j - i < 2 or p - (j - i) < 2:
                            continue
                        got, edge = expand_vertex(og, cycle, (i, j))
                        want, want_edge = _reference_expand_vertex(og, cycle, (i, j))
                        assert edge == want_edge
                        assert got.sign == want.sign
                        assert got.graph.vertices == want.graph.vertices
                        assert got.graph.pairing == want.graph.pairing
                        assert got.graph.half_edges == want.graph.half_edges
                        e = want.graph
                        _, vertices, succ, mate = _position_tables(e.vertices, e.pairing,
                                                                   e.half_edges)
                        tables.append((list(vertices), succ, mate, want.sign))
                        checked += 1
                        flips += got.sign != sign
                assert [(list(v), s, m, o) for v, s, m, o in vertex_expansions(og)] == tables
    # 5537 expansions of the 276 classes, twice each, in both orientations
    assert checked == 4 * 5537
    assert 0 < flips < checked


def test_canonical_oriented_detects_reversing_automorphism():
    # the planar theta admits an orientation-reversing automorphism
    g = theta(planar=True)
    assert has_orientation_reversing_automorphism(g) == (
        canonical_oriented(OrientedRibbonGraph(g, 1))[1] is None)


def test_canonical_oriented_consistent_under_relabeling():
    g = theta(planar=False)
    og = OrientedRibbonGraph(g, 1)
    key, sign = canonical_oriented(og)
    shift = {h: h + 7 for h in g.half_edges}
    g2 = g.relabel(shift)
    key2, sign2 = canonical_oriented(OrientedRibbonGraph(g2, transport_sign(g, g2, shift)))
    assert key == key2
    assert sign == sign2


def test_canonical_key_invariant_under_random_relabeling():
    import random

    from fatcomplex.graph_complex import enumerate_graphs
    from fatcomplex.ribbon import canonical_oriented

    rng = random.Random(11)
    for g in enumerate_graphs(8):
        key, sign = canonical_oriented(OrientedRibbonGraph(g, 1))
        labels = list(g.half_edges)
        for _ in range(3):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(labels, shuffled))
            g2 = g.relabel(mapping)
            s2 = transport_sign(g, g2, mapping)
            key2, sign2 = canonical_oriented(OrientedRibbonGraph(g2, s2))
            assert key2 == key
            assert sign2 == sign


def _off_position_relabelings(rng, labels):
    """Three seeded relabelings of `labels` onto sets that are not
    0..H-1 but look like it at one end: from 0 with a value skipped,
    up to H - 1 with a negative label, and a shift of 0..H-1."""
    n = len(labels)
    skip, low, shift = rng.randrange(1, n), rng.randrange(0, n - 1), rng.choice([-7, -2, 3])
    out = []
    for values in ([v for v in range(n + 1) if v != skip],
                   [v for v in range(-1, n) if v != low],
                   list(range(shift, shift + n))):
        rng.shuffle(values)
        out.append(dict(zip(labels, values)))
    return out


def test_canonical_oriented_matches_the_word_reference():
    # every class within 10 half-edges and every single-vertex expansion
    # of each, as built (labels 0..H-1, which are their own positions)
    # and under relabelings onto other label sets: the key and sign equal
    # the word-based reference, and `_transport_sign` equals the parity
    # of the words, along each relabeling and each automorphism
    import random

    from fatcomplex.graph_complex import ClassCorpus
    from fatcomplex.ribbon import _transport_sign, canonical_form
    from reference import reference_canonical_oriented

    rng = random.Random(27)
    checked = reversing = 0
    for key in ClassCorpus(10).keys:
        base = OrientedRibbonGraph(graph_from_key(key), 1)
        for og in [base] + [e for cycle in base.graph.vertices if len(cycle) >= 4
                            for e, _ in enumerate_expansions(base, cycle)]:
            g = og.graph
            want = reference_canonical_oriented(og)
            variants = [og]
            for mapping in _off_position_relabelings(rng, list(g.half_edges)):
                g2 = g.relabel(mapping)
                s = transport_sign(g, g2, mapping)
                assert _transport_sign(g.vertices, mapping) == s
                variants.append(OrientedRibbonGraph(g2, og.sign * s))
            for x in variants:
                assert canonical_oriented(x) == reference_canonical_oriented(x) == want
                lit, maps = canonical_form(x.graph)
                target = graph_from_key(lit)
                for m in maps:
                    assert _transport_sign(x.graph.vertices, m) == transport_sign(x.graph, target, m)
                checked += 1
            reversing += want[1] is None
    assert checked > 10000 and reversing > 100


def reference_canonical_form(g):
    """canonical_form as first written: for every root, label by the
    sigma-then-pairing traversal, build the whole normalized literal, and
    keep the least literal with every labelling that reaches it."""
    sigma = {}
    for c in g.vertices:
        for i, h in enumerate(c):
            sigma[h] = c[(i + 1) % len(c)]
    best, best_maps = None, []
    for seed in g.half_edges:
        relabel = {seed: 0}
        pending = [seed]
        for h in pending:
            for nxt in (sigma[h], g.pairing[h]):
                if nxt not in relabel:
                    relabel[nxt] = len(relabel)
                    pending.append(nxt)
        cycles = []
        for c in g.vertices:
            image = [relabel[x] for x in c]
            i = image.index(min(image))
            cycles.append(tuple(image[i:] + image[:i]))
        pairs = {(min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
                 for a, b in g.pairing.items()}
        lit = (tuple(sorted(cycles)), tuple(sorted(pairs)))
        if best is None or lit < best:
            best, best_maps = lit, [relabel]
        elif lit == best:
            best_maps.append(relabel)
    return best, best_maps


def reference_least_code(g):
    """canonical_form by brute force over walk codes: for every root, in
    label order, label by the sigma-then-pairing traversal, list its whole
    code, the (sigma, pairing) labels of each half-edge in label order,
    and keep the least code with every labelling that reaches it.  The
    key is the literal of the first such relabeling."""
    sigma = g.sigma()
    best, best_maps = None, []
    for seed in g.half_edges:
        relabel = {seed: 0}
        pending = [seed]
        for h in pending:
            for nxt in (sigma[h], g.pairing[h]):
                if nxt not in relabel:
                    relabel[nxt] = len(relabel)
                    pending.append(nxt)
        code = [(relabel[sigma[h]], relabel[g.pairing[h]]) for h in pending]
        if best is None or code < best:
            best, best_maps = code, [relabel]
        elif code == best:
            best_maps.append(relabel)
    return g.relabel(best_maps[0]).literal(), best_maps


def _same_class_partition(pairing, least_literal, key, maps):
    """Check the key against the least-literal keyer's: `pairing` maps
    each least-literal key to its least-code key and must stay a
    bijection, and both keyers find the same number of automorphisms."""
    old_key, old_maps = least_literal
    assert pairing.setdefault(old_key, key) == key
    assert len(old_maps) == len(maps)


def test_canonical_form_matches_reference_on_corpus():
    import random

    from fatcomplex.graph_complex import enumerate_graphs
    from fatcomplex.ribbon import canonical_form

    rng = random.Random(5)
    checked = 0
    pairing = {}
    for g in enumerate_graphs(8):
        graphs = [g]
        og = OrientedRibbonGraph(g, 1)
        for cycle in g.vertices:
            if len(cycle) >= 4:
                graphs.extend(e.graph for e, _ in enumerate_expansions(og, cycle))
        labels = list(g.half_edges)
        for _ in range(4):
            image = rng.sample(range(1, 4 * len(labels)), len(labels))
            graphs.append(g.relabel(dict(zip(labels, image))))
        for x in graphs:
            key, maps = canonical_form(x)
            want_key, want_maps = reference_least_code(x)
            assert key == want_key
            # the same labellings, in the same root order and insertion order
            assert [list(m.items()) for m in maps] == [list(m.items()) for m in want_maps]
            _same_class_partition(pairing, reference_canonical_form(x), key, maps)
            checked += 1
    assert checked > 500
    assert len(set(pairing.values())) == len(pairing)


def _reference_canonical_form(g):
    """canonical_form as it was before roots were dropped during the
    walk: a full `traverse` from every root, then its cycles and pairs
    compared with the best literal's."""
    from fatcomplex.ribbon import _position_tables

    index, _, succ, mate = _position_tables(g.vertices, g.pairing, g.half_edges)
    rotation = [None] * len(succ)
    vertex_id = [0] * len(succ)
    for v, cycle in enumerate(g.vertices):
        cycle = [index[h] for h in cycle]
        for i, h in enumerate(cycle):
            rotation[h] = cycle[i:] + cycle[:i]
            vertex_id[h] = v
    best_cycles = best_pairs = None
    best_maps = []
    for root in range(len(succ)):
        order, label = traverse(succ, mate, root)
        smaller = best_cycles is None
        entered = [False] * len(g.vertices)
        cycles = []
        for h in order:
            v = vertex_id[h]
            if entered[v]:
                continue
            entered[v] = True
            cycle = tuple([label[x] for x in rotation[h]])
            if not smaller:
                other = best_cycles[len(cycles)]
                if cycle > other:
                    cycles = None
                    break
                smaller = cycle < other
            cycles.append(cycle)
        if cycles is None:
            continue
        pairs = tuple([(i, label[mate[h]]) for i, h in enumerate(order)
                       if label[mate[h]] > i])
        if not smaller:
            if pairs > best_pairs:
                continue
            smaller = pairs < best_pairs
        relabel = {g.half_edges[h]: i for i, h in enumerate(order)}
        if smaller:
            best_cycles, best_pairs = tuple(cycles), pairs
            best_maps = [relabel]
        else:
            best_maps.append(relabel)
    return (best_cycles, best_pairs), best_maps


def _classes_within(max_half_edges):
    """{key: (graph, maps)} under `_reference_canonical_form` for every
    class within the bound.  A class with two or more vertices has an
    edge that is not a loop, so it is an expansion of the class that
    edge collapses to: the classes with H half-edges are the one-vertex
    maps and the expansions of the classes with H - 2.  This is the
    growth `enumerate_graphs` uses, kept here with the reference keyer
    so that the test does not rest on `canonical_form`."""
    from fatcomplex.graph_complex import _matchings

    found = {}
    previous = []
    for total in range(4, max_half_edges + 1, 2):
        labels = list(range(1, total + 1))
        graphs = [RibbonGraph([labels], pairing) for pairing in _matchings(labels)]
        for g in previous:
            og = OrientedRibbonGraph(g, 1)
            graphs += [exp.graph for cycle in g.vertices if len(cycle) >= 4
                       for exp, _ in enumerate_expansions(og, cycle)]
        previous = []
        for g in graphs:
            key, maps = _reference_canonical_form(g)
            if key not in found:
                found[key] = g, maps
                previous.append(g)
    return found


def test_canonical_form_matches_frozen_reference_within_12_half_edges():
    # every class within 12 half-edges, grown under the least-literal
    # keyer, and 3 seeded random relabelings of each: the same key as the
    # brute-force least code and the same maps in the same root order,
    # and the least-literal keys in bijection with the new ones
    import random

    from fatcomplex.ribbon import canonical_form

    rng = random.Random(12)
    classes = _classes_within(12)
    assert len(classes) == 2681
    symmetric = 0
    pairing = {}
    for old_key, (g, old_maps) in classes.items():
        key, maps = canonical_form(g)
        want_key, want_maps = reference_least_code(g)
        assert key == want_key
        assert [list(m.items()) for m in maps] == [list(m.items()) for m in want_maps]
        _same_class_partition(pairing, (old_key, old_maps), key, maps)
        symmetric += len(maps) > 1
        labels = list(g.half_edges)
        for _ in range(3):
            image = rng.sample(range(1, 4 * len(labels)), len(labels))
            x = g.relabel(dict(zip(labels, image)))
            got_key, got_maps = canonical_form(x)
            want_key, want_maps = reference_least_code(x)
            assert got_key == want_key == key
            assert [list(m.items()) for m in got_maps] == [list(m.items()) for m in want_maps]
            least_literal = _reference_canonical_form(x)
            assert least_literal[0] == old_key
            _same_class_partition(pairing, least_literal, key, got_maps)
    assert len(set(pairing.values())) == len(pairing) == 2681
    # classes with nontrivial automorphisms, where tied roots walk on
    assert symmetric > 100


def test_canonical_form_matches_reference_on_14_half_edge_expansions():
    # every expansion of a seeded sample of 12-half-edge classes, the size
    # `d_chain` keys, as built and under 2 seeded random relabelings: the
    # same key as the brute-force least code and the same maps in the same
    # root order, whichever first code elements single out the roots
    import random

    from fatcomplex.graph_complex import ClassCorpus
    from fatcomplex.ribbon import canonical_form

    rng = random.Random(14)
    keys = [key for key in ClassCorpus(12).keys if len(key[1]) == 6]
    checked = symmetric = 0
    for key in rng.sample(keys, 40):
        og = OrientedRibbonGraph(graph_from_key(key), 1)
        for cycle in og.graph.vertices:
            if len(cycle) < 4:
                continue
            for exp, _ in enumerate_expansions(og, cycle):
                g = exp.graph
                labels = list(g.half_edges)
                variants = [g]
                for _ in range(2):
                    image = rng.sample(range(1, 4 * len(labels)), len(labels))
                    variants.append(g.relabel(dict(zip(labels, image))))
                for x in variants:
                    got_key, got_maps = canonical_form(x)
                    want_key, want_maps = reference_least_code(x)
                    assert got_key == want_key
                    assert ([list(m.items()) for m in got_maps]
                            == [list(m.items()) for m in want_maps])
                    checked += 1
                    symmetric += len(got_maps) > 1
    assert checked > 1000 and symmetric > 0


def test_canonical_form_fixes_every_class_key_within_12_half_edges():
    # the graph of a key is its own canonical representative: its key is
    # itself, reached first from root 0 by the identity, which carries
    # the +1 orientation to itself
    from fatcomplex.graph_complex import ClassCorpus
    from fatcomplex.ribbon import canonical_form

    corpus = ClassCorpus(12)
    assert len(corpus.keys) == 2681
    zero = 0
    for key in corpus.keys:
        g = graph_from_key(key)
        got_key, maps = canonical_form(g)
        assert got_key == key
        assert list(maps[0].items()) == [(h, h) for h in range(len(g.half_edges))]
        got_key, sign = canonical_oriented(OrientedRibbonGraph(g, 1))
        assert got_key == key
        assert sign == (1 if corpus.is_nonzero(key) else None)
        zero += sign is None
    assert zero > 0


def reference_canonical_over(base_labels, og):
    """The forest-complex keyer as first written: label every half-edge
    by the sigma-then-pairing traversal from the least base label, give
    the half-edges outside the base fresh labels in that order, and
    transport the sign."""
    g = og.graph
    sigma = g.sigma()
    anchor = min(base_labels)
    relabel = {anchor: 0}
    pending = [anchor]
    for h in pending:
        for nxt in (sigma[h], g.pairing[h]):
            if nxt not in relabel:
                relabel[nxt] = len(relabel)
                pending.append(nxt)
    order = sorted((h for h in g.half_edges if h not in base_labels), key=relabel.get)
    fresh = max(base_labels) + 1
    final = {h: h for h in base_labels}
    for h in order:
        final[h] = fresh
        fresh += 1
    target = g.relabel(final)
    return target.literal(), og.sign * transport_sign(g, target, final)


def reference_tree_keyer(tree, sign):
    """The tree keyer as first written: leaves keep their labels, and the
    internal half-edges are numbered from the leaf count in the order of
    the sigma-then-pairing traversal from leaf 0."""
    from fatcomplex.trees import PlanarTree

    sigma = tree.sigma()
    new = {0: 0}
    pending = [0]
    for h in pending:
        nbrs = [sigma[h]]
        if h in tree.pairing:
            nbrs.append(tree.pairing[h])
        for nxt in nbrs:
            if nxt not in new:
                new[nxt] = len(new)
                pending.append(nxt)
    relabel = {h: h for h in range(tree.leaf_count)}
    fresh = tree.leaf_count
    for h in pending:
        if h in tree.pairing:
            relabel[h] = fresh
            fresh += 1
    canon = PlanarTree(tree.leaf_count,
                       [tuple(relabel[x] for x in c) for c in tree.vertices],
                       [(relabel[a], relabel[b]) for a, b in tree.internal_edges()])
    return canon, sign * transport_sign(tree, canon, relabel)


def _reverse_unfixed(labels, fixed):
    """A relabeling that keeps `fixed` and sends the other labels, in
    reverse order, to labels above max(fixed)."""
    free = sorted(h for h in labels if h not in fixed)
    top = max(fixed) + 2 * len(free)
    mapping = {h: h for h in labels if h in fixed}
    mapping.update((h, top - i) for i, h in enumerate(free))
    return mapping


def test_canonical_over_matches_reference_tree_keyer():
    # each tree as enumerated, and with its internal half-edges relabeled
    # in reverse order, where the transported sign is not always +1
    from fatcomplex.trees import (
        PlanarTree,
        enumerate_faces,
        enumerate_trivalent_trees,
    )

    trees = [t for n in range(1, 6) for k in range(n + 1) for t in enumerate_faces(n, k)]
    trees += enumerate_trivalent_trees(9)
    checked = flips = moves = 0
    for t in trees:
        m = _reverse_unfixed([x for c in t.vertices for x in c], range(t.leaf_count))
        reversed_tree = PlanarTree(t.leaf_count, [tuple(m[x] for x in c) for c in t.vertices],
                                   [(m[a], m[b]) for a, b in t.internal_edges()])
        for tree in (t, reversed_tree):
            for sign in (1, -1):
                canon, want = reference_tree_keyer(tree, sign)
                got = canonical_over(range(tree.leaf_count), tree.vertices, tree.pairing, sign)
                assert got == ((canon.vertices, tuple(canon.internal_edges())), want)
                assert canonical_tree(tree) == canon
                checked += 1
                flips += want != sign
        # the relabelled tree, carrying the transported sign, has the
        # same canonical oriented form
        moved = transport_sign(t, reversed_tree, m)
        assert canonical_over(range(t.leaf_count), reversed_tree.vertices,
                              reversed_tree.pairing, moved) \
            == canonical_over(range(t.leaf_count), t.vertices, t.pairing, 1)
        moves += moved == -1
    # 1159 faces of K^1..K^5 and 429 trivalent trees, twice each, with both signs
    assert checked == 4 * (1159 + 429)
    assert flips and moves


def test_canonical_over_matches_reference_forest_keyer():
    # the base, every object of the forest complex over it, and every
    # expansion the complex keys, each also with its labels outside the
    # base relabeled in reverse order.  Every vertex of these objects either has a base
    # half-edge, which stays its least label, or is trivalent, so the
    # transported sign is +1 on all of them; the tree keyer test is the
    # one that sees the sign transported.
    from fatcomplex.graph_complex import enumerate_graphs, forest_complex

    checked = 0
    for base in enumerate_graphs(8):
        if not 1 <= base.codimension <= 3:
            continue
        fc = forest_complex(base)
        objects = [OrientedRibbonGraph(base, 1)]
        for level in fc.levels:
            for key in level:
                og = OrientedRibbonGraph(graph_from_key(key), 1)
                objects.append(og)
                objects += [exp for cycle in og.graph.vertices if len(cycle) >= 4
                            for exp, _ in enumerate_expansions(og, cycle)]
        for obj in objects:
            g = obj.graph
            relabeled = g.relabel(_reverse_unfixed(g.half_edges, fc.base_labels))
            for og in (obj, reversed_orientation(obj), OrientedRibbonGraph(relabeled, 1),
                       OrientedRibbonGraph(relabeled, -1)):
                g = og.graph
                want = reference_canonical_over(fc.base_labels, og)
                assert canonical_over(fc.base_labels, g.vertices, g.pairing, og.sign) == want
                checked += 1
    # 21 bases, 371 objects and 658 expansions, twice each, with both signs
    assert checked == 4 * (21 + 371 + 658)


def test_graph_from_key_matches_validated_build():
    # the key of every class within 10 half-edges, and every key of the
    # forest complexes over the bases within 8
    from fatcomplex.graph_complex import enumerate_graphs, forest_complex
    from fatcomplex.ribbon import canonical_form

    keys = [canonical_form(g)[0] for g in enumerate_graphs(10)]
    for base in enumerate_graphs(8):
        if 1 <= base.codimension <= 3:
            keys += [key for level in forest_complex(base).levels for key in level]
    for key in keys:
        got, want = graph_from_key(key), RibbonGraph(*key)
        assert got == want
        assert got.vertices == want.vertices
        assert list(got.pairing.items()) == list(want.pairing.items())
        assert got.half_edges == want.half_edges
        assert got.edge_tuple() == want.edge_tuple()
    # 276 classes, and 371 objects over 21 bases
    assert len(keys) == 276 + 371


def test_single_collapse_morphisms_consistency():
    g = dumbbell()
    target = collapse_edge(OrientedRibbonGraph(g, 1), (3, 6)).graph
    mors = single_collapse_morphisms(g, target)
    assert mors
    for edge, iso, sign in mors:
        assert sign in (1, -1)
        # collapsing the edge and relabelling by the isomorphism gives the target
        collapsed = collapse_edge(OrientedRibbonGraph(g, 1), edge).graph
        relabelled = build_graph([[iso[h] for h in c] for c in collapsed.vertices],
                                 [(iso[a], iso[b]) for a, b in collapsed.edges()])
        assert relabelled == target


def test_corner_chain_identity_simplex():
    # two identity steps: three equal corner sets, each the whole vertex
    g = theta()
    v = g.vertices[0]
    ambient, images = corner_chain(g.vertices, g.pairing, [(), ()], v)
    assert ambient == v
    assert images == [frozenset(v)] * 3


def test_corner_chain_rejects_an_edge_absent_at_its_step():
    g = dumbbell()
    v = g.vertex_of(1)
    # (3, 6) is gone after the first step
    with pytest.raises(GraphError):
        corner_chain(g.vertices, g.pairing, [((3, 6),), ((3, 6),)], v)
    # (1, 4) is no edge at all; a step whose edges close a cycle collapses a loop
    with pytest.raises(GraphError):
        corner_chain(g.vertices, g.pairing, [((1, 4),)], v)
    with pytest.raises(GraphError):
        g = theta()
        corner_chain(g.vertices, g.pairing, [((1, 4), (2, 5))], g.vertices[0])


def test_corner_chain_single_collapse():
    # merging a trivalent vertex with a trivalent neighbour: 3 corners
    # embed into 4, exactly one corner of the target is missed
    g = dumbbell()
    v = g.vertex_of(1)
    ambient, images = corner_chain(g.vertices, g.pairing, [((3, 6),)], v)
    assert [len(s) for s in images] == [3, 4]
    assert images[1] == frozenset(ambient)
    assert len(images[1] - images[0]) == 1
