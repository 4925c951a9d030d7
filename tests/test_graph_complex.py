import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from fatcomplex.graph_complex import (
    ClassCorpus,
    GraphChain,
    _matchings,
    _rotation_classes,
    boundary_matrix,
    d_chain,
    d_integral,
    enumerate_graphs,
    eval_w,
    eval_w_key,
    forest_complex,
    verify_cocycle,
)
from fatcomplex.linalg import sparse_product, sparse_rank
from fatcomplex.ribbon import (
    GraphError,
    OrientedRibbonGraph,
    RibbonGraph,
    build_graph,
    canonical_form,
    canonical_oriented,
    graph_from_key,
)
from reference import (
    automorphisms,
    c_fat,
    canonical_over,
    chain_of,
    cup_product,
    dual_cell_simplices,
    enumerate_expansions,
)
from test_ribbon import has_orientation_reversing_automorphism, single_collapse_morphisms
from test_trees import one_big_vertex_base


def naive_two_triples_enumeration():
    """Independent oracle: all cyclic structures on two trivalent
    vertices over labels 1..6, every pairing, deduplicated."""
    import itertools

    keys = set()
    labels = set(range(1, 7))
    for group in itertools.combinations(sorted(labels), 3):
        rest = tuple(sorted(labels - set(group)))
        for c1 in set(permutations(group)):
            if c1[0] != min(group):
                continue
            for c2 in set(permutations(rest)):
                if c2[0] != min(rest):
                    continue
                items = list(labels)
                for pairing in _all_matchings(items):
                    try:
                        g = RibbonGraph([c1, c2], pairing)
                    except Exception:
                        continue
                    keys.add(canonical_form(g)[0])
    return keys


def _all_matchings(items):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        rest = items[1:i] + items[i + 1:]
        for sub in _all_matchings(rest):
            yield [(a, b)] + sub


def test_enumerate_trivalent_6_matches_naive_oracle():
    got = {tuple(g.literal()) for g in enumerate_graphs(6, codimension=0)}
    want = {tuple(k) for k in naive_two_triples_enumeration()}
    assert got == want
    assert len(got) == 3
    # the two theta structures and the dumbbell
    specs = sorted(g.boundary_cycles()[1:] for g in enumerate_graphs(6, codimension=0))
    assert specs == [(0, 3), (0, 3), (1, 1)]


def _reference_enumerate_graphs(max_half_edges, codimension=None, valences=None):
    """`enumerate_graphs` as first written: for every valence multiset,
    fix the vertex cycles to blocks of consecutive labels (any ribbon
    graph can be relabeled that way), try every pairing through the
    validated constructor, and deduplicate by canonical key."""

    def multisets(total, smallest=3):
        if total == 0:
            yield ()
            return
        for first in range(smallest, total + 1):
            for rest in multisets(total - first, first):
                yield (first,) + rest

    found = {}
    for total in range(4, max_half_edges + 1, 2):
        for vals in multisets(total):
            vals = tuple(sorted(vals, reverse=True))
            if valences is not None and vals != tuple(sorted(valences, reverse=True)):
                continue
            if codimension is not None and sum(v - 3 for v in vals) != codimension:
                continue
            cycles = []
            at = 1
            for v in vals:
                cycles.append(tuple(range(at, at + v)))
                at += v
            for pairing in _all_matchings(list(range(1, total + 1))):
                try:
                    g = RibbonGraph(cycles, pairing)
                except GraphError:
                    continue
                key, _ = canonical_form(g)
                if key not in found:
                    found[key] = graph_from_key(key)
    return [found[k] for k in sorted(found)]


def test_enumerate_graphs_matches_frozen_reference():
    # the same classes, literal for literal, in the same order
    def literals(graphs):
        return [g.literal() for g in graphs]

    for bound in range(4, 11):
        assert literals(enumerate_graphs(bound)) == literals(_reference_enumerate_graphs(bound))
    assert len(enumerate_graphs(10)) == 276
    for codim in range(8):
        got = enumerate_graphs(10, codimension=codim)
        assert literals(got) == literals(_reference_enumerate_graphs(10, codimension=codim))
    # every (bound, valences) that the tests pass
    for bound, vals in [(6, (6,)), (8, (6,)), (8, (5, 3)), (10, (5, 3)),
                        (10, (5, 5)), (10, (7, 3)), (10, [3, 7])]:
        got = enumerate_graphs(bound, valences=vals)
        assert got
        assert literals(got) == literals(_reference_enumerate_graphs(bound, valences=vals))
    with pytest.raises(GraphError):
        enumerate_graphs(3)


def test_enumerate_constraint_examples():
    some = enumerate_graphs(10, valences=(5, 3))
    assert some  # one 5-valent vertex, one trivalent, chi = -2
    for g in some:
        assert g.valences() == (5, 3)
    # odd total half-edge count is impossible
    assert enumerate_graphs(7, codimension=1) == enumerate_graphs(6, codimension=1)


def test_d_integral_codim0_is_zero():
    theta = build_graph([(1, 2, 3), (6, 5, 4)], [(1, 4), (2, 5), (3, 6)])
    assert d_integral(OrientedRibbonGraph(theta, 1)).is_zero()


def test_figure8_boundary_and_case3_cancellation():
    for pairs in [((1, 2), (3, 4)), ((1, 3), (2, 4))]:
        f8 = build_graph([(1, 2, 3, 4)], pairs)
        d = d_integral(OrientedRibbonGraph(f8, 1))
        # the augmentation vanishes on every boundary
        assert eval_w((), d) == 0


def test_d_squared_zero_on_corpus():
    count = 0
    for g in enumerate_graphs(8, codimension=2):
        assert d_chain(d_integral(OrientedRibbonGraph(g, 1))).is_zero()
        count += 1
    assert count > 0


def test_orientation_reversal_negates_chains():
    g = enumerate_graphs(8, codimension=2)[0]
    plus = d_integral(OrientedRibbonGraph(g, 1))
    minus = d_integral(OrientedRibbonGraph(g, -1))
    for (k1, c1), (k2, c2) in zip(plus.items(), minus.items()):
        assert k1 == k2 and c1 == -c2


def reference_d_dual(og):
    """The dual boundary as first written: the coefficient of each source
    class is its signed count of one-edge collapses onto `og`, over
    |Aut(og.graph)|."""
    out = {}
    if canonical_oriented(og)[1] is None:
        return out
    target = og.graph
    aut_target = len(automorphisms(target))
    for key, _ in d_integral(og).items():
        net = 0
        for _, _, s in single_collapse_morphisms(graph_from_key(key), target):
            net += s * og.sign
        ell = Fraction(net, aut_target)
        if ell:
            out[key] = ell
    return out


def hom_counts(source, target):
    """Counts of one-edge-collapse morphisms with sign +1 and with -1."""
    plus = minus = 0
    for _, _, s in single_collapse_morphisms(source, target):
        if s == 1:
            plus += 1
        else:
            minus += 1
    return plus, minus


def test_dual_and_integral_boundaries_are_consistent():
    # ell * |Aut(target)| == r * |Aut(source)| == |Hom+| - |Hom-|
    checked = 0
    for g in enumerate_graphs(8):
        aut_g = len(automorphisms(g))
        for orientation in (1, -1):
            og = OrientedRibbonGraph(g, orientation)
            dual = reference_d_dual(og)
            integral = d_integral(og)
            assert set(dual) == set(integral.terms)
            for k, r_coeff in integral.items():
                source = graph_from_key(k)
                aut_s = len(automorphisms(source))
                plus, minus = hom_counts(source, g)
                net = orientation * (plus - minus)
                assert r_coeff == Fraction(net, aut_s)
                assert r_coeff.denominator == 1
                ell = dual[k]
                assert ell.denominator == 1
                assert ell * aut_g == r_coeff * aut_s == net
                checked += 1
    assert checked > 0


def test_eval_w_examples():
    # trivalent graph, empty partition: the augmentation is +1
    theta_np = build_graph([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])
    key, sign = canonical_oriented(OrientedRibbonGraph(theta_np, 1))
    assert sign == 1
    assert eval_w_key((), key) == 1
    # one 5-valent vertex: value of (1) is +1, of () is 0
    g5 = enumerate_graphs(8, valences=(5, 3))[0]
    key5, s5 = canonical_oriented(OrientedRibbonGraph(g5, 1))
    if s5 is not None:
        assert eval_w_key((1,), key5) == 1
        assert eval_w_key((), key5) == 0
        # degenerate (1, 0): binomial count of trivalent vertices (t = 1)
        assert eval_w_key((1, 0), key5) == 1
    # trivalent with zeros: binom(#vertices, k)
    assert eval_w_key((0,), key) == 2
    assert eval_w_key((0, 0), key) == 1


def test_orientation_reversing_class_is_zero():
    # the twisted figure-8 admits an orientation-reversing automorphism,
    # so its class vanishes and it never appears in any chain
    f8 = build_graph([(1, 2, 3, 4)], [(1, 3), (2, 4)])
    assert has_orientation_reversing_automorphism(f8)
    key, sign = canonical_oriented(OrientedRibbonGraph(f8, 1))
    assert sign is None
    assert chain_of(OrientedRibbonGraph(f8, 1)).is_zero()
    assert d_integral(OrientedRibbonGraph(f8, 1)).is_zero()
    for g in enumerate_graphs(8, codimension=2):
        assert key not in d_integral(OrientedRibbonGraph(g, 1)).terms


def test_partition_function_vanishes_on_reversing_class():
    # any well-defined state sum is killed by an orientation-reversing
    # automorphism, whichever sign the presentation carries
    from fatcomplex.ainfinity import AInfinityAlgebra, partition_function

    alg = AInfinityAlgebra(
        [0, 1, 1, 0],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
        {2: {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
             (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
             (1, 2): {3: 1}, (2, 1): {3: -1}}})
    f8 = build_graph([(1, 2, 3, 4)], [(1, 3), (2, 4)])
    assert partition_function(alg, OrientedRibbonGraph(f8, 1)) == 0
    assert partition_function(alg, OrientedRibbonGraph(f8, -1)) == 0


def test_eval_w_sign_antisymmetry():
    g5 = enumerate_graphs(8, valences=(5, 3))[0]
    ch_plus = chain_of(OrientedRibbonGraph(g5, 1))
    ch_minus = chain_of(OrientedRibbonGraph(g5, -1))
    assert eval_w((1,), ch_plus) == -eval_w((1,), ch_minus)


def test_verify_cocycle_small():
    # lambda = (1): all graphs with one 6-valent vertex in range
    report = verify_cocycle((1,), 8)
    assert report and all(v == 0 for _, v in report)
    # lambda = empty: any codim-1 graph
    report = verify_cocycle((), 8)
    assert report and all(v == 0 for _, v in report)


def test_forest_complex_trivalent_base():
    theta = build_graph([(1, 2, 3), (6, 5, 4)], [(1, 4), (2, 5), (3, 6)])
    fc = forest_complex(theta)
    assert fc.ranks() == [1]


def test_forest_complex_five_valent():
    g5 = enumerate_graphs(8, valences=(5, 3))[0]
    fc = forest_complex(g5)
    assert fc.ranks() == [5, 5, 1]
    # over its own labels, a relabelled base is its own top-level key
    moved = g5.relabel({h: 40 - 3 * h for h in g5.half_edges})
    assert forest_complex(moved).levels[-1] == [moved.literal()]
    assert fc.expected_ranks() == [5, 5, 1]
    assert fc.d_squared_is_zero()
    assert fc.augmentation_kills_boundary()
    assert fc.homology_is_trivial()


def test_forest_complex_two_big_vertices():
    # valences (5, 5): tensor product of two K^2 complexes
    gs = enumerate_graphs(10, valences=(5, 5))
    assert gs
    fc = forest_complex(gs[0])
    assert fc.expected_ranks() == [25, 50, 35, 10, 1]
    assert fc.ranks() == fc.expected_ranks()
    assert fc.d_squared_is_zero()
    assert fc.homology_is_trivial()


def _rank_corpus():
    """Forest complexes over the bases of codimension 1-4 within 8
    half-edges, and over the first (single 8-valent vertex) of codimension 5."""
    graphs = enumerate_graphs(8)
    bases = [g for g in graphs if 1 <= g.codimension <= 4]
    bases.append(next(g for g in graphs if g.codimension == 5))
    return [forest_complex(g) for g in bases]


def _fraction_rank(entries):
    """Rank over Q of a sparse integer matrix by row elimination with
    Fraction pivots normalised to 1: the reference for `sparse_rank`."""
    rows = {}
    for (r, c), v in entries.items():
        v = Fraction(v)
        if v:
            rows.setdefault(r, {})[c] = v
    pivots = {}
    for r in sorted(rows):
        row = rows[r]
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k)
    return len(pivots)


def _random_dependent_matrices(count, seed):
    """Sparse integer matrices with entries as large as 2^61 - 1, where
    about half the rows are integer combinations of earlier rows."""
    rng = random.Random(seed)
    big = 2 ** 61 - 1
    out = []
    for _ in range(count):
        cols = rng.randint(1, 7)
        rows = []
        for _ in range(rng.randint(1, 8)):
            if rows and rng.random() < 0.5:
                row = [0] * cols
                for base in rng.sample(rows, rng.randint(1, len(rows))):
                    f = rng.choice((-3, -1, 1, 2, big))
                    row = [x + f * y for x, y in zip(row, base)]
            else:
                row = [rng.choice((0, 0, 1, -2, rng.randint(-big, big))) for _ in range(cols)]
            rows.append(row)
        out.append({(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v})
    return out


def test_sparse_rank_matches_fraction_reference():
    for fc in _rank_corpus():
        for k in range(1, fc.base.codimension + 1):
            assert sparse_rank(fc.matrices[k]) == _fraction_rank(fc.matrices[k])
        assert fc.homology_is_trivial()
    for n in range(1, 6):
        maps = forest_complex(one_big_vertex_base(n)).matrices
        for k in range(1, n + 1):
            assert sparse_rank(maps[k]) == _fraction_rank(maps[k])
    matrices = _random_dependent_matrices(300, 14)
    assert any(_fraction_rank(m) < len({r for r, _ in m}) for m in matrices)
    for m in matrices:
        assert sparse_rank(m) == _fraction_rank(m)


def reference_forest_levels(base):
    """`levels` and `matrices` of the forest complex over `base`, built by
    the first implementation's per-level expansion loop."""
    base_labels = set(base.half_edges)
    n = base.codimension
    key, _ = canonical_over(base_labels, base.vertices, base.pairing, 1)
    levels = [None] * (n + 1)
    levels[n] = [key]
    matrices = [None] * (n + 1)
    for k in range(n, 0, -1):
        found = {}
        entries = {}
        for col, key in enumerate(levels[k]):
            g = graph_from_key(key)
            og = OrientedRibbonGraph(g, 1)
            for cycle in g.vertices:
                if len(cycle) < 4:
                    continue
                for expanded, _ in enumerate_expansions(og, cycle):
                    k2, s = canonical_over(base_labels, expanded.graph.vertices,
                                           expanded.graph.pairing, expanded.sign)
                    if k2 not in found:
                        found[k2] = len(found)
                    row = found[k2]
                    entries[(row, col)] = entries.get((row, col), 0) + s
        levels[k - 1] = [key for key, _ in sorted(found.items(), key=lambda kv: kv[1])]
        ordered = sorted(range(len(levels[k - 1])), key=lambda i: levels[k - 1][i])
        rank_of = {old: new for new, old in enumerate(ordered)}
        levels[k - 1] = [levels[k - 1][i] for i in ordered]
        matrices[k] = {(rank_of[r], c): v for (r, c), v in entries.items() if v}
    return levels, matrices


def test_forest_complex_matches_reference_levels():
    for fc in _rank_corpus():
        levels, matrices = reference_forest_levels(fc.base)
        assert fc.levels == levels
        assert fc.matrices == matrices


def reference_boundary_matrix(columns):
    """`boundary_matrix` with each expansion built as a graph by the
    reference expansion and keyed by `canonical_oriented`."""
    found = {}
    entries = {}
    for col, og in enumerate(columns):
        for cycle in og.graph.vertices:
            if len(cycle) < 4:
                continue
            for expanded, _ in enumerate_expansions(og, cycle):
                key, sign = canonical_oriented(expanded)
                row = found.setdefault(key, len(found))
                if sign is not None:
                    entries[row, col] = entries.get((row, col), 0) + sign
    rows = sorted(found)
    position = {found[key]: r for r, key in enumerate(rows)}
    return rows, {(position[r], c): v for (r, c), v in entries.items() if v}


def test_boundary_matrix_matches_reference_expansions():
    # every class within 10 half-edges as keyed (labels 0..H-1, their own
    # positions, sign +1), and a seeded relabeling of each onto labels
    # from 1 up, never 0..H-1, with sign -1, which takes the position
    # index path; one column at a time and all columns in one matrix
    rng = random.Random(32)
    columns = []
    for g in enumerate_graphs(10):
        labels = list(g.half_edges)
        image = rng.sample(range(1, 4 * len(labels)), len(labels))
        relabeled = g.relabel(dict(zip(labels, image)))
        columns += [OrientedRibbonGraph(g, 1), OrientedRibbonGraph(relabeled, -1)]
    for og in columns:
        assert boundary_matrix([og]) == reference_boundary_matrix([og])
    rows, matrix = boundary_matrix(columns)
    assert (rows, matrix) == reference_boundary_matrix(columns)
    assert len(rows) > 1000 and any(v < 0 for v in matrix.values())


def test_rotation_classes_key_each_one_vertex_class_once():
    # the maps kept by the rotation test have distinct keys, which are
    # exactly the keys of all one-vertex maps on 0..H-1
    for total, classes in ((4, 2), (6, 5), (8, 18), (10, 105), (12, 902)):
        labels = list(range(total))
        every = {canonical_form(RibbonGraph([labels], pairs))[0]
                 for pairs in _all_matchings(labels)}
        kept = [canonical_form(RibbonGraph([labels], [(h, m) for h, m in enumerate(mate)
                                                      if h < m]))[0]
                for mate in _rotation_classes(total)]
        assert len(kept) == len(set(kept)) == classes
        assert set(kept) == every


def test_corpus_keys_one_one_vertex_map_per_class(monkeypatch):
    from fatcomplex import graph_complex

    oriented_key = graph_complex.oriented_key
    keyed = []

    def counting(vertices, succ, mate, sign):
        if len(vertices) == 1:
            keyed.append(len(succ))
        return oriented_key(vertices, succ, mate, sign)

    # from an empty level memo, so that the corpus grows every level
    monkeypatch.setattr(graph_complex, "_LEVELS", {})
    monkeypatch.setattr(graph_complex, "oriented_key", counting)
    corpus = ClassCorpus(10)
    one_vertex = [len(key[0][0]) for key in corpus.keys if len(key[0]) == 1]
    assert sorted(keyed) == sorted(one_vertex) == [4] * 2 + [6] * 5 + [8] * 18 + [10] * 105


def test_warm_corpus_is_the_cold_one_and_keys_nothing(monkeypatch):
    # a corpus grown on top of memoized lower levels, and one whose
    # levels are all memoized, equal the corpus grown from an empty memo
    from fatcomplex import graph_complex

    monkeypatch.setattr(graph_complex, "_LEVELS", {})
    ClassCorpus(6)
    grown = ClassCorpus(10)
    monkeypatch.setattr(graph_complex, "_LEVELS", {})
    cold = ClassCorpus(10)

    oriented_key = graph_complex.oriented_key
    keyed = []

    def counting(vertices, succ, mate, sign):
        keyed.append(len(succ))
        return oriented_key(vertices, succ, mate, sign)

    monkeypatch.setattr(graph_complex, "oriented_key", counting)
    warm = ClassCorpus(10)
    assert keyed == []
    assert len(cold.keys) == 276
    for corpus in (grown, warm):
        assert corpus.keys == cold.keys
        assert corpus.graphs() == cold.graphs()
        assert [corpus.is_nonzero(key) for key in cold.keys] == \
            [cold.is_nonzero(key) for key in cold.keys]
        assert corpus.columns(cold.keys) == cold.columns(cold.keys)


def reference_d_chain(chain):
    """The sum of coeff times the reference boundary column of each term."""
    out = {}
    for key, coeff in chain.items():
        rows, matrix = reference_boundary_matrix([OrientedRibbonGraph(graph_from_key(key), 1)])
        for (r, _), v in matrix.items():
            out[rows[r]] = out.get(rows[r], 0) + coeff * v
    return {key: v for key, v in out.items() if v}


def test_d_chain_matches_reference_columns():
    # seeded chains on the classes within 10 half-edges with coefficients
    # over 2, 3 and 6, so that the boundary is summed over their lcm
    rng = random.Random(35)
    graphs = enumerate_graphs(10)
    nonzero = 0
    for _ in range(30):
        chain = GraphChain(grading=4)
        for g in rng.sample(graphs, 4):
            chain.add(g.literal(), Fraction(rng.choice([-5, -1, 1, 7]), rng.choice([2, 3, 6])))
        got = d_chain(chain)
        assert got.grading == 3
        assert got.terms == reference_d_chain(chain)
        nonzero += not got.is_zero()
    assert nonzero > 20
    # a boundary, with rational coefficients, whose boundary cancels to zero
    g = next(g for g in graphs if g.codimension == 4
             and not d_integral(OrientedRibbonGraph(g, 1)).is_zero())
    chain = GraphChain()
    for key, v in d_integral(OrientedRibbonGraph(g, 1)).items():
        chain.add(key, v * Fraction(5, 6))
    assert len(chain.terms) > 1
    assert reference_d_chain(chain) == {} and d_chain(chain).is_zero()
    empty = d_chain(GraphChain(grading=2))
    assert empty.is_zero() and empty.grading == 1


def test_verify_cocycle_matches_per_class_boundaries():
    for lam in ((), (1,), (2,), (1, 1)):
        codim = 2 * sum(lam) + 1
        want = []
        for g in enumerate_graphs(8, codimension=codim):
            og = OrientedRibbonGraph(g, 1)
            key, sign = canonical_oriented(og)
            if sign is not None:
                want.append((key, eval_w(lam, d_integral(og))))
        assert verify_cocycle(lam, 8) == want


def test_sparse_rank_small_cases():
    assert sparse_rank({}) == 0
    # rows (1, 2), (2, 4), (0, 3): rank 2
    m = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 1): 3}
    assert sparse_rank(m) == 2
    # rows (2, 4, 6), (3, 6, 10), (0, 0, 5), (1, 3, 0): the second row
    # reduces to (0, 0, 2) with content 2 and then clears the third; the
    # fourth reduces to (0, 2, -6) with content 2
    m = {(0, 0): 2, (0, 1): 4, (0, 2): 6, (1, 0): 3, (1, 1): 6, (1, 2): 10,
         (2, 2): 5, (3, 0): 1, (3, 1): 3}
    assert sparse_rank(m) == 3
    # a multiple of the prime 2^61 - 1 is not zero over Q
    assert sparse_rank({(0, 0): 2 ** 61 - 1}) == 1


def test_flipped_entry_breaks_forest_checks():
    g = enumerate_graphs(8, valences=(5, 3))[0]
    fc = forest_complex(g)
    assert fc.d_squared_is_zero() and fc.homology_is_trivial()
    for k in (1, 2):
        for entry in list(fc.matrices[k]):
            fc.matrices[k][entry] *= -1
            assert not fc.d_squared_is_zero()
            assert not fc.homology_is_trivial()
            if k == 1:
                assert not fc.augmentation_kills_boundary()
            fc.matrices[k][entry] *= -1
    assert fc.d_squared_is_zero() and fc.homology_is_trivial()


def test_rank_deficient_complex_is_not_acyclic():
    # zeroing the top boundary keeps d.d = 0 but leaves homology on top
    fc = forest_complex(enumerate_graphs(8, valences=(6,))[0])
    n = fc.base.codimension
    fc.matrices[n] = {}
    assert fc.d_squared_is_zero() and fc.augmentation_kills_boundary()
    assert not fc.homology_is_trivial()


def test_homology_exact_with_boundary_scaled_by_large_prime():
    fc = forest_complex(enumerate_graphs(8, valences=(6,))[0])
    n = fc.base.codimension
    # scaling the top boundary by the prime 2^61 - 1 kills it mod that
    # prime but keeps its rank over Q
    top = fc.matrices[n]
    fc.matrices[n] = {e: v * (2 ** 61 - 1) for e, v in top.items()}
    assert sparse_rank(fc.matrices[n]) == sparse_rank(top) > 0
    assert fc.homology_is_trivial()


def test_dual_cell_reproduces_b_numbers_on_graphs():
    # the dual cell of a graph with one 5-valent vertex has 10 simplices
    # of one-edge collapse steps; the signed cocycle sum gives b for (1)
    base = enumerate_graphs(8, valences=(5, 3))[0]
    total = Fraction(0)
    count = 0
    for simplex, sign in dual_cell_simplices(base):
        total += sign * cup_product((1,), simplex)
        count += 1
    assert count == 10
    assert -total == Fraction(1, 12)


def test_dual_cell_b_independent_of_base_choice():
    # the signed cup-product sums depend only on the vertex pattern of
    # the base, not on which graph in the pattern class is used
    bases = enumerate_graphs(10, valences=(7, 3))[:2]
    assert len(bases) == 2
    values = []
    for base in bases:
        t2 = Fraction(0)
        t11 = Fraction(0)
        for simplex, sign in dual_cell_simplices(base):
            t2 += sign * cup_product((2,), simplex)
            t11 += sign * cup_product((1, 1), simplex)
        values.append((t2, t11))
    assert values[0] == values[1] == (Fraction(-1, 120), Fraction(29, 720))


def test_graph_and_tree_cocycle_values_correspond():
    # the ten 2-simplices in the dual cell of a graph with one 5-valent
    # vertex carry the same multiset of (sign, cocycle value) pairs as
    # the ten maximal chains of the pentagon, both through one `c_fat`
    from fatcomplex.trees import maximal_chains

    base = enumerate_graphs(8, valences=(5, 3))[0]
    graph_side = sorted((sign, c_fat(1, simplex))
                        for simplex, sign in dual_cell_simplices(base))
    tree_side = sorted((sign, c_fat(1, simplex)) for simplex, sign in maximal_chains(2))
    assert graph_side == tree_side


def test_eval_w_degenerate_counts_trivalent_vertices():
    # a pattern-(1) graph with three trivalent vertices: chi = -3 and
    # t = -2 chi - 3 = 3, so the (1, 0) value is binom(3, 1) = 3
    g = build_graph(
        [(1, 2, 3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14)],
        [(1, 6), (2, 9), (3, 12), (4, 7), (5, 10), (8, 13), (11, 14)])
    assert g.codimension == 2
    assert g.euler_characteristic == -3
    key, sign = canonical_oriented(OrientedRibbonGraph(g, 1))
    assert sign is not None
    assert eval_w_key((1,), key) == 1
    assert eval_w_key((1, 0), key) == 3
    assert eval_w_key((1, 0, 0), key) == 3  # binom(3, 2)
    # pure zeros need a trivalent graph, so this pattern misses
    assert eval_w_key((0, 0), key) == 0
    assert eval_w_key((1, 1), key) == 0


def test_boundary_euler_relation_over_corpus():
    for g in enumerate_graphs(8):
        faces, genus, punctures = g.boundary_cycles()
        assert 2 - 2 * genus - punctures == g.euler_characteristic
        assert genus >= 0
        assert len(faces) == punctures


def test_corpus_columns_match_d_integral():
    # levels 4 and 6 get their columns while the corpus grows, level 8
    # and the classes with 10 half-edges that its boundaries hit on first use
    corpus = ClassCorpus(8)
    keys = corpus.keys
    assert {len(key[1]) for key in keys} == {2, 3, 4}
    past = sorted({row for key in keys for row in corpus.columns([key])[0]} - set(keys))
    assert past and {len(key[1]) for key in past} == {5}
    for key in keys + past:
        og = OrientedRibbonGraph(graph_from_key(key), 1)
        assert corpus.columns([key])[0] == d_integral(og).terms
        assert corpus.is_nonzero(key) == (canonical_oriented(og)[1] is not None)
    assert not all(corpus.is_nonzero(key) for key in keys)
    assert corpus.graphs() == enumerate_graphs(8)


def test_corpus_nonzero_flag_matches_orientation_reversing_automorphisms():
    # the flag against |Aut| rather than against `canonical_oriented`, which
    # sets it: every class within 10 half-edges and the rows of their columns
    corpus = ClassCorpus(10)
    keys = corpus.keys
    past = sorted({row for column in corpus.columns(keys) for row in column} - set(keys))
    assert (len(keys), len(past)) == (276, 1297)
    for key in keys + past:
        assert corpus.is_nonzero(key) \
            == (not has_orientation_reversing_automorphism(graph_from_key(key)))
    assert sum(not corpus.is_nonzero(key) for key in keys) == 33


def _moduli_euler_characteristic(genus, punctures):
    """chi(M_{g,n}), the orbifold Euler characteristic of the moduli
    space of genus g curves with n marked points, for g <= 1:
    chi(M_{0,n}) = (-1)^(n-3) (n-3)!, chi(M_{1,1}) = zeta(-1) = -1/12, and
    chi(M_{g,n+1}) = (2 - 2g - n) chi(M_{g,n}) (Harer-Zagier 1986).  So
    chi(M_{0,3}) = 1, chi(M_{0,4}) = -1, chi(M_{1,1}) = -1/12 and
    chi(M_{1,2}) = -chi(M_{1,1}) = 1/12."""
    if genus == 0:
        return Fraction((-1) ** (punctures - 3) * math.factorial(punctures - 3))
    if genus == 1 and punctures == 1:
        return Fraction(-1, 12)
    assert genus == 1 and punctures > 1
    return (2 - 2 * genus - (punctures - 1)) * _moduli_euler_characteristic(genus, punctures - 1)


@pytest.fixture(scope="module")
def corpus12():
    """The class corpus within 12 half-edges, shared by the checks against
    the moduli spaces of curves."""
    return ClassCorpus(12)


def _complete_types(corpus):
    """The nonzero classes of each type (g, n) whose trivalent graphs fit
    in the corpus, as {(g, n): {vertex count: [key]}}."""
    out = {}
    for key in corpus.keys:
        if not corpus.is_nonzero(key):
            continue
        g = graph_from_key(key)
        _, genus, punctures = g.boundary_cycles()
        if 2 * (6 * genus - 6 + 3 * punctures) <= corpus.max_half_edges:
            out.setdefault((genus, punctures), {}).setdefault(g.num_vertices, []).append(key)
    return out


def test_orbifold_euler_characteristic_of_moduli_space(corpus12):
    """Penner 1988, Kontsevich 1992: the sum over the ribbon graphs of
    type (g, n), every vertex at least trivalent, of (-1)^V / |Aut| is
    chi(M_{g,n}) / n!.  A type is complete within H half-edges when its
    trivalent graphs, with 6g - 6 + 3n edges, fit: 2(6g - 6 + 3n) <= H.
    Within 12 half-edges these are (0,3), (0,4), (1,1) and (1,2), with
    sums 1/6, -1/24, -1/12 and 1/24."""
    totals = {}
    for g in corpus12.graphs():
        _, genus, punctures = g.boundary_cycles()
        term = Fraction((-1) ** g.num_vertices, len(automorphisms(g)))
        totals[genus, punctures] = totals.get((genus, punctures), 0) + term
    complete = sorted(t for t in totals if 2 * (6 * t[0] - 6 + 3 * t[1]) <= 12)
    assert complete == [(0, 3), (0, 4), (1, 1), (1, 2)]
    for genus, punctures in complete:
        assert totals[genus, punctures] == (_moduli_euler_characteristic(genus, punctures)
                                            / math.factorial(punctures))


def test_homology_per_type_is_that_of_moduli_space(corpus12):
    """Kontsevich 1992: the classes of type (g, n), graded by vertex
    count, with the corpus columns (vertex expansions) as differential,
    compute the rational cohomology of M_{g,n}/S_n.  The metric ribbon
    graphs of type (g, n) form an orbifold X = (M_{g,n} x R^n_{>0})/S_n of
    dimension d = 6g - 6 + 3n, one cell per graph, of dimension its edge
    count E.  The corpus columns are, up to |Aut| factors, the transpose
    of its Borel-Moore cellular boundary (edge collapse), which has the
    same ranks, so the level with E edges carries H^{d-E}, and the
    trivalent level (E = d) carries H^0.

    The coefficients: ordering the vertices and half-edges is the same as
    orienting R^E tensor det H_1(graph) (Conant-Vogtmann 2003).  R^E
    orients the cell, and det H_1 of the punctured surface is the sign of
    S_n on its boundary loops, which cancels the sign of S_n on the
    perimeters R^n_{>0}, the orientation character of X.  By Poincare
    duality the coefficients are trivial: H^*(M_{g,n}; Q)^{S_n}.  (With
    the sign twist, M_{0,3} would give 0: S_3 fixes its one point.)

    The four types complete within 12 half-edges have the rational
    cohomology of a point, so the homology is Q at the trivalent level and
    0 elsewhere:
    - M_{0,3} is a point;
    - M_{0,4} is P^1 minus {0, 1, oo}, whose H^1 is the sum-zero part of
      Q^3, one coordinate per puncture; S_4 acts through S_3 (the Klein
      group fixes the cross-ratio) as the 2-dimensional irreducible, which
      has no invariants;
    - M_{1,1} is coarsely the j-line C;
    - M_{1,2} -> M_{1,1} has fibre E minus a point, whose H^1 is the
      standard representation of SL_2(Z); -1 acts on it by -1, so
      H^*(SL_2(Z); H^1) = 0 and H^*(M_{1,2}) = H^*(M_{1,1}) = Q."""
    types = _complete_types(corpus12)
    assert sorted(types) == [(0, 3), (0, 4), (1, 1), (1, 2)]
    dims = {t: [len(levels[v]) for v in sorted(levels)] for t, levels in types.items()}
    assert dims == {(0, 3): [1, 2], (0, 4): [1, 3, 7, 6], (1, 1): [1], (1, 2): [1, 5, 8, 5]}
    for t, levels in types.items():
        vs = sorted(levels)
        assert vs == list(range(vs[0], vs[-1] + 1))
        matrices = []
        for v in vs[:-1]:
            targets = set(levels[v + 1])
            entries = {}
            for key, column in zip(levels[v], corpus12.columns(levels[v])):
                for row, value in column.items():
                    assert row in targets
                    entries[row, key] = value
            matrices.append(entries)
        # homology is defined only on a complex
        for first, second in zip(matrices, matrices[1:]):
            assert not any(sparse_product(second, first).values()), t
        ranks = [0] + [sparse_rank(m) for m in matrices] + [0]
        homology = [len(levels[v]) - ranks[i] - ranks[i + 1] for i, v in enumerate(vs)]
        assert homology == [0] * (len(vs) - 1) + [1], t


def _harer_zagier(genus, n):
    """epsilon_g(n), the number of ways to glue the sides of a 2n-gon in
    pairs into a genus g surface, from the Harer-Zagier recursion
    (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2),
    with e_g(0) = 1 for g = 0 and 0 otherwise."""
    if genus < 0 or n < 0:
        return 0
    if n == 0:
        return int(genus == 0)
    total = (2 * (2 * n - 1) * _harer_zagier(genus, n - 1)
             + (n - 1) * (2 * n - 1) * (2 * n - 3) * _harer_zagier(genus - 1, n - 2))
    assert total % (n + 1) == 0
    return total // (n + 1)


def test_one_vertex_maps_by_genus_match_harer_zagier():
    # n = 4: 14, 70, 21; n = 5: 42, 420, 483
    for n in (4, 5):
        labels = list(range(2 * n))
        counts = {}
        for pairs in _matchings(labels):
            genus = build_graph([labels], pairs).boundary_cycles()[1]
            counts[genus] = counts.get(genus, 0) + 1
        assert counts == {genus: _harer_zagier(genus, n) for genus in range(n // 2 + 1)}
